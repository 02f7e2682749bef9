//! `fleet_mission`: the fleet analyst's path.
//!
//! Set-up cold-builds C1 at `GRID_SIDE`. One op is a `run_fleet` with the
//! datacenter profile and seed = workload seed + op index; every 4th op
//! reruns the previous op's seed with one spare, which takes the scalar
//! grouped path, on fewer chips so its op time stays close to the
//! others'. It is the only workload where per-chip sampling and
//! projection dominate.
//!
//! The traced run replays each op chip by chip through the public
//! kernels `run_fleet` is built from — `FieldSampler`, `BlodMoments`
//! projections, `num::simd` failure terms and bisection, `Composition`
//! accumulators — with spans around each, and checks the replay's counts
//! and extremes against `run_fleet`'s aggregates bit for bit.

use crate::checks;
use crate::trace::Trace;
use crate::{host, stats, Outcome, RunArgs, THREADS};
use statobd::circuits::Benchmark;
use statobd::core::{conditional_block_failure, ChipAnalysis, Composition, GCoefficients};
use statobd::device::ObdTechnology;
use statobd::manager::MissionProfile;
use statobd::num::json::Json;
use statobd::num::rng::{Rng, Xoshiro256pp};
use statobd::num::simd::{self, LaneWidth};
use statobd::variation::FieldSampler;
use statobd::{
    run_fleet, AnalysisSpec, FleetAggregates, FleetConfig, Session, FLEET_LIFE_BRACKET_S,
};
use std::time::Instant;

/// Correlation-grid side of the fleet's design. Per-chip cost is the
/// projection of the sampled components onto each block (~90 % of a
/// chip), over matrices of components × projections. At grid 16 (256
/// components) they outgrow the core's cache, and on a 2-vCPU Xeon VM
/// shared with other tenants op times swung between ~125 and ~210 ms
/// with the other tenants' load (10-run p50 spreads 18–24 %); at 12
/// (144 components) five runs interleaved with grid-16 runs spread 6 %
/// against 25 %. The paper default (25) is costlier still.
const GRID_SIDE: usize = 12;
/// Chips per weakest-link op (a multiple of every lane width).
const CHIPS: u64 = 16384;
/// Chips per spares op: the scalar grouped path costs ~4.5× more per
/// chip, so this count gives about the same op time as a weakest-link op.
const SPARES_CHIPS: u64 = 3072;
/// Mission-end failure-probability budget, set inside the per-chip P
/// distribution of C1 under the datacenter profile so exceedance counts
/// neither vanish nor saturate (the 1-ppm default exceeds on every chip).
const BUDGET: f64 = 3e-5;
/// Every `SPARES_EVERY`-th op reruns the previous seed with one spare.
const SPARES_EVERY: u64 = 4;
/// Percentile reported as `tail_us`: dozens of a run's ~180 ops lie
/// beyond it, and the two op classes take about the same time, so no
/// class boundary sits here.
pub const TAIL_PCT: f64 = 80.0;
/// Cold builds per mean in `setup_s` (see `stats::median_of_means`): a
/// run's ~45 builds give nine means, each over ~3 s of the run.
const SETUP_CHUNK: usize = 5;
/// Bisection steps of the per-chip lifetime solve, as `run_fleet` runs
/// them (52 halvings of the ln-t bracket reach f64 resolution).
const LIFE_BISECTIONS: u32 = 52;

fn spec() -> AnalysisSpec {
    AnalysisSpec::benchmark(Benchmark::C1)
        .with_grid_side(GRID_SIDE)
        .with_threads(Some(THREADS))
}

/// The config of op `index`.
fn config(seed: u64, index: u64) -> FleetConfig {
    let spares_op = index % SPARES_EVERY == SPARES_EVERY - 1;
    FleetConfig {
        chips: if spares_op { SPARES_CHIPS } else { CHIPS },
        profile: MissionProfile::datacenter(),
        seed: seed.wrapping_add(if spares_op { index - 1 } else { index }),
        budget: BUDGET,
        threads: Some(THREADS),
        shards: None,
        spares: usize::from(spares_op),
        ..FleetConfig::default()
    }
}

/// Runs one op and checks its aggregates; spares ops are also compared
/// with a weakest-link run over the same chips (outside the op's clock).
/// Returns the op time, its share of chips over budget, and the check.
fn run_op(
    session: &Session,
    config: &FleetConfig,
) -> Result<(f64, f64, Result<(), String>), String> {
    let tech = session.spec().tech.tech();
    let start = Instant::now();
    let report = run_fleet(session.analysis(), &tech, config).map_err(|e| e.to_string())?;
    let op_s = start.elapsed().as_secs_f64();
    let mut check = checks::fleet_consistent(&report.aggregates);
    if check.is_ok() && config.spares > 0 {
        let weakest_link = FleetConfig {
            spares: 0,
            ..config.clone()
        };
        let wl = run_fleet(session.analysis(), &tech, &weakest_link).map_err(|e| e.to_string())?;
        check = checks::spares_help(&report.aggregates, &wl.aggregates);
    }
    let exceed = report.aggregates.exceed_budget as f64 / config.chips as f64;
    Ok((op_s, exceed, check))
}

/// The shard-layout check: one op rerun with two shards must render the
/// same aggregates as its single-shard run.
fn shards_check(session: &Session, config: &FleetConfig, out: &mut Outcome) -> Result<(), String> {
    let tech = session.spec().tech.tech();
    let one = run_fleet(session.analysis(), &tech, config).map_err(|e| e.to_string())?;
    out.info(
        "p_mission_quantiles",
        Json::Array(
            one.aggregates
                .p_mission_quantiles
                .iter()
                .map(|&q| Json::Number(q))
                .collect(),
        ),
    );
    let two = FleetConfig {
        shards: Some(2),
        ..config.clone()
    };
    let two = run_fleet(session.analysis(), &tech, &two).map_err(|e| e.to_string())?;
    checks::same_aggregates(&one.aggregates, &two.aggregates)
}

/// One cold build of the fleet's design, timed.
fn timed_build() -> Result<(f64, Session), String> {
    let start = Instant::now();
    let session = Session::build(&spec()).map_err(|e| e.to_string())?;
    Ok((start.elapsed().as_secs_f64(), session))
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let (setup_s, session) = timed_build()?;
    let mut setup_times = vec![setup_s];
    let mut out = Outcome::default();
    out.info("tail_pct", Json::Number(TAIL_PCT));
    out.info("budget", Json::Number(BUDGET));
    out.info("chips", Json::Number(CHIPS as f64));
    out.info("spares_chips", Json::Number(SPARES_CHIPS as f64));

    out.attempted += 1;
    if let Err(e) = shards_check(&session, &config(args.seed, 0), &mut out) {
        eprintln!("fleet_mission: shards: {e}");
        out.failed += 1;
    }
    if args.trace {
        return run_traced(args, &session, out);
    }

    let mut latencies = Vec::new();
    let mut classes: [(Vec<f64>, f64); 2] = [(Vec::new(), 0.0), (Vec::new(), 0.0)];
    let mut busy_s = 0.0;
    let mut rss = f64::NAN;
    let start = Instant::now();
    let mut index = 0;
    // Whole groups of SPARES_EVERY ops keep the mix fixed.
    while index % SPARES_EVERY != 0 || start.elapsed().as_secs_f64() < args.seconds {
        if index % SPARES_EVERY == 0 {
            // One more cold build per group of ops, so `setup_s` samples
            // the same stretch of host time as the ops (one build takes
            // ~35 ms against ~0.7 s of ops).
            setup_times.push(timed_build()?.0);
        }
        let config = config(args.seed, index);
        let (op_s, exceed, check) = run_op(&session, &config)?;
        busy_s += op_s;
        latencies.push(op_s * 1e6);
        let class = &mut classes[config.spares.min(1)];
        class.0.push(op_s * 1e6);
        class.1 += exceed;
        out.attempted += 1;
        if let Err(e) = check {
            eprintln!("fleet_mission: op {index}: {e}");
            out.failed += 1;
        }
        index += 1;
        if index == SPARES_EVERY {
            // Peak RSS once both op classes and a build beside the live
            // session have run: later heap growth depends on how many ops
            // the run's time allowed.
            rss = host::peak_rss_mb();
        }
    }
    out.info("ops", Json::Number(latencies.len() as f64));
    out.info("setups", Json::Number(setup_times.len() as f64));
    for (name, (lat, exceed)) in ["weakest_link", "spares"].into_iter().zip(&classes) {
        let fields = vec![
            ("n".to_string(), Json::Number(lat.len() as f64)),
            ("p50_us".to_string(), Json::Number(stats::median(lat))),
            (
                "exceed_share".to_string(),
                Json::Number(exceed / lat.len() as f64),
            ),
        ];
        out.info(name, Json::Object(fields));
    }
    out.info(
        "samples_beyond_tail",
        Json::Number(stats::samples_beyond(latencies.len(), TAIL_PCT) as f64),
    );
    out.metric("setup_s", stats::median_of_means(&setup_times, SETUP_CHUNK));
    out.metric("ops_per_s", latencies.len() as f64 / busy_s);
    out.metric("p50_us", stats::median(&latencies));
    out.metric("tail_us", stats::percentile(&latencies, TAIL_PCT));
    out.metric(
        "ops_ok_ratio",
        (out.attempted - out.failed) as f64 / out.attempted as f64,
    );
    out.metric("peak_rss_mb", rss);
    Ok(out)
}

/// Per-block mission constants, derived from the technology and profile
/// as `run_fleet` derives them.
struct BlockMission {
    coeff: GCoefficients,
    ln_rate: f64,
    b_eff: f64,
    area: f64,
}

fn missions(
    analysis: &ChipAnalysis,
    tech: &dyn ObdTechnology,
    profile: &MissionProfile,
) -> Vec<BlockMission> {
    let mission_s = profile.mission_s();
    analysis
        .blocks()
        .iter()
        .map(|block| {
            let t_spec = block.spec().temperature_k();
            let (mut xi, mut t_weighted) = (0.0, 0.0);
            for phase in profile.phases() {
                let t_k = t_spec + phase.dt_k;
                xi += phase.duration_s / tech.alpha(t_k, phase.vdd_v);
                t_weighted += phase.duration_s * t_k;
            }
            let b_eff = tech.b(t_weighted / mission_s);
            BlockMission {
                coeff: GCoefficients::from_gamma(xi.ln(), b_eff),
                ln_rate: (xi / mission_s).ln(),
                b_eff,
                area: block.spec().area(),
            }
        })
        .collect()
}

/// The counts and extremes a fleet's aggregates fold from its chips.
#[derive(Debug, Default, PartialEq)]
struct Folded {
    exceed: u64,
    censored_low: u64,
    censored_high: u64,
    weakest: Vec<u64>,
    lifetime_min: f64,
    lifetime_max: f64,
    p_min: f64,
    p_max: f64,
}

impl Folded {
    fn new(n_blocks: usize) -> Self {
        Folded {
            weakest: vec![0; n_blocks],
            lifetime_min: f64::INFINITY,
            lifetime_max: f64::NEG_INFINITY,
            p_min: f64::INFINITY,
            p_max: f64::NEG_INFINITY,
            ..Folded::default()
        }
    }

    fn absorb(&mut self, p: f64, weakest: usize, life: f64, low: bool, high: bool, budget: f64) {
        self.exceed += u64::from(p > budget);
        self.censored_low += u64::from(low);
        self.censored_high += u64::from(high);
        self.weakest[weakest] += 1;
        self.lifetime_min = self.lifetime_min.min(life);
        self.lifetime_max = self.lifetime_max.max(life);
        self.p_min = self.p_min.min(p);
        self.p_max = self.p_max.max(p);
    }

    fn of(agg: &FleetAggregates) -> Self {
        Folded {
            exceed: agg.exceed_budget,
            censored_low: agg.censored_low,
            censored_high: agg.censored_high,
            weakest: agg.weakest_counts.clone(),
            lifetime_min: agg.lifetime_min_s,
            lifetime_max: agg.lifetime_max_s,
            p_min: agg.p_mission_min,
            p_max: agg.p_mission_max,
        }
    }
}

/// The op replayed on the lane-tiled weakest-link path at width `W`.
fn replay_tiled<const W: usize>(
    analysis: &ChipAnalysis,
    tech: &dyn ObdTechnology,
    config: &FleetConfig,
    trace: &mut Trace,
) -> Folded {
    let blocks = missions(analysis, tech, &config.profile);
    let block_params: Vec<f64> = blocks
        .iter()
        .flat_map(|m| {
            [
                m.ln_rate,
                m.area,
                simd::failure_poly_threshold(m.area),
                simd::failure_sat_threshold(m.area),
            ]
        })
        .collect();
    let model = analysis.model();
    let n_blocks = blocks.len();
    let base = Xoshiro256pp::seed_from_u64(config.seed);
    let mut sampler = FieldSampler::new(model);
    let mut z_tile = vec![0.0; model.n_components() * W];
    let mut tile_bu = vec![0.0; n_blocks * W];
    let mut tile_bbv = vec![0.0; n_blocks * W];
    let target = (-config.budget).ln_1p();
    let (lo_edge, hi_edge) = (FLEET_LIFE_BRACKET_S.0.ln(), FLEET_LIFE_BRACKET_S.1.ln());
    let mut folded = Folded::new(n_blocks);
    assert_eq!(
        config.chips % W as u64,
        0,
        "replayed fleets fill whole lane tiles"
    );
    for chip0 in (0..config.chips).step_by(W) {
        let mut offsets = [0.0; W];
        trace.span("variation.sample_z", || {
            for (w, offset) in offsets.iter_mut().enumerate() {
                let mut rng = base.substream(chip0 + w as u64);
                let x = rng.gen_range(0.0..1.0);
                let y = rng.gen_range(0.0..1.0);
                *offset = config.wafer.offset(x, y);
                sampler.reset();
                sampler.sample_z_lane(&mut rng, &mut z_tile, W, w);
            }
        });

        let (mut u, mut v, mut args, mut p) = ([0.0; W], [0.0; W], [0.0; W], [0.0; W]);
        let mut ln_survival = [0.0; W];
        let mut weakest_p = [f64::NEG_INFINITY; W];
        let mut weakest_block = [0usize; W];
        let mission_start = trace.start();
        let mut project_s = 0.0;
        for (j, (block, mission)) in analysis.blocks().iter().zip(&blocks).enumerate() {
            let start = trace.start();
            block
                .moments()
                .uv_given_z_tile::<W>(&z_tile, &mut u, &mut v);
            project_s += Trace::since(start);
            for w in 0..W {
                let uw = u[w] + offsets[w];
                tile_bu[j * W + w] = mission.b_eff * uw;
                tile_bbv[j * W + w] = mission.b_eff * mission.b_eff * v[w];
                args[w] = mission.coeff.s1 * uw + mission.coeff.s2 * v[w];
            }
            simd::failure_term_slice(&args, mission.area, &mut p);
            for w in 0..W {
                ln_survival[w] += (-p[w].clamp(0.0, 1.0)).ln_1p();
                if p[w] > weakest_p[w] {
                    weakest_p[w] = p[w];
                    weakest_block[w] = j;
                }
            }
        }
        trace.add("core.uv_project", project_s);
        trace.add("core.compose", Trace::since(mission_start) - project_s);

        let (censored_low, censored_high, lo, hi) = trace.span("num.simd.bisect", || {
            let mut s = [0.0; W];
            simd::ln_surv_tile_sum::<W>(&[lo_edge; W], &block_params, &tile_bu, &tile_bbv, &mut s);
            let censored_low = simd::lane_le::<W>(&s, target);
            simd::ln_surv_tile_sum::<W>(&[hi_edge; W], &block_params, &tile_bu, &tile_bbv, &mut s);
            let reaches = simd::lane_le::<W>(&s, target);
            let mut censored_high = [false; W];
            let mut active = [false; W];
            for w in 0..W {
                censored_high[w] = !censored_low[w] && !reaches[w];
                active[w] = !censored_low[w] && !censored_high[w];
            }
            let (mut lo, mut hi) = ([lo_edge; W], [hi_edge; W]);
            if simd::lane_any::<W>(&active) {
                simd::ln_surv_bisect::<W>(
                    &mut lo,
                    &mut hi,
                    target,
                    LIFE_BISECTIONS,
                    &block_params,
                    &tile_bu,
                    &tile_bbv,
                );
            }
            (censored_low, censored_high, lo, hi)
        });
        for w in 0..W {
            let life = if censored_low[w] {
                FLEET_LIFE_BRACKET_S.0
            } else if censored_high[w] {
                FLEET_LIFE_BRACKET_S.1
            } else {
                (0.5 * (lo[w] + hi[w])).exp()
            };
            folded.absorb(
                -ln_survival[w].exp_m1(),
                weakest_block[w],
                life,
                censored_low[w],
                censored_high[w],
                config.budget,
            );
        }
    }
    folded
}

/// The op replayed on the scalar path (width 1, or a spares op).
fn replay_scalar(
    analysis: &ChipAnalysis,
    tech: &dyn ObdTechnology,
    config: &FleetConfig,
    trace: &mut Trace,
) -> Folded {
    let blocks = missions(analysis, tech, &config.profile);
    let n_blocks = blocks.len();
    let composition = if config.spares > 0 {
        Composition::uniform_spares(n_blocks, config.spares)
    } else {
        analysis.composition().clone()
    };
    let mut acc = composition.accumulator(n_blocks);
    let model = analysis.model();
    let base = Xoshiro256pp::seed_from_u64(config.seed);
    let mut sampler = FieldSampler::new(model);
    let mut z = vec![0.0; model.n_components()];
    let (mut bu, mut bbv) = (vec![0.0; n_blocks], vec![0.0; n_blocks]);
    let mut uv = vec![(0.0, 0.0); n_blocks];
    let target = (-config.budget).ln_1p();
    let mut folded = Folded::new(n_blocks);
    for chip in 0..config.chips {
        let offset = trace.span("variation.sample_z", || {
            let mut rng = base.substream(chip);
            let x = rng.gen_range(0.0..1.0);
            let y = rng.gen_range(0.0..1.0);
            sampler.reset();
            sampler.sample_z_into(&mut rng, &mut z);
            config.wafer.offset(x, y)
        });
        trace.span("core.uv_project", || {
            for (slot, block) in uv.iter_mut().zip(analysis.blocks()) {
                *slot = block.moments().uv_given_z(&z);
            }
        });
        let (p_mission, weakest, life, low, high) = trace.span("core.compose", || {
            acc.reset();
            let (mut weakest, mut weakest_p) = (0usize, f64::NEG_INFINITY);
            for (j, (&(u, v), mission)) in uv.iter().zip(&blocks).enumerate() {
                let u = u + offset;
                bu[j] = mission.b_eff * u;
                bbv[j] = mission.b_eff * mission.b_eff * v;
                let p = conditional_block_failure(mission.area, mission.coeff.g(u, v));
                acc.absorb(j, p);
                if p > weakest_p {
                    weakest_p = p;
                    weakest = j;
                }
            }
            let p_mission = acc.failure_probability();
            let mut ln_surv = |x: f64| {
                acc.reset();
                for (j, mission) in blocks.iter().enumerate() {
                    let gamma = mission.ln_rate + x;
                    let ln_g = gamma * bu[j] + 0.5 * gamma * gamma * bbv[j];
                    acc.absorb(j, -(-mission.area * ln_g.exp()).exp_m1());
                }
                acc.ln_survival()
            };
            let (mut lo, mut hi) = (FLEET_LIFE_BRACKET_S.0.ln(), FLEET_LIFE_BRACKET_S.1.ln());
            if ln_surv(lo) <= target {
                (p_mission, weakest, FLEET_LIFE_BRACKET_S.0, true, false)
            } else if ln_surv(hi) > target {
                (p_mission, weakest, FLEET_LIFE_BRACKET_S.1, false, true)
            } else {
                for _ in 0..LIFE_BISECTIONS {
                    let mid = 0.5 * (lo + hi);
                    if ln_surv(mid) <= target {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                (p_mission, weakest, (0.5 * (lo + hi)).exp(), false, false)
            }
        });
        folded.absorb(p_mission, weakest, life, low, high, config.budget);
    }
    folded
}

/// The op replayed chip by chip on the path `run_fleet` dispatches to.
fn replay(
    analysis: &ChipAnalysis,
    tech: &dyn ObdTechnology,
    config: &FleetConfig,
    trace: &mut Trace,
) -> Folded {
    let width = if config.spares > 0 {
        LaneWidth::W1
    } else {
        simd::active_width()
    };
    match width {
        LaneWidth::W1 => replay_scalar(analysis, tech, config, trace),
        LaneWidth::W4 => replay_tiled::<4>(analysis, tech, config, trace),
        LaneWidth::W8 => replay_tiled::<8>(analysis, tech, config, trace),
    }
}

/// Runs whole groups of ops for the run's time, each op three times:
/// through `run_fleet` (the op itself: `fleet.run_ms`, and the total the
/// layers are attributed against), as the untraced replay and as the
/// traced replay. Both replays must fold to `run_fleet`'s counts. The
/// traced replay against the untraced one is the tracing overhead; the
/// untraced replay against `run_fleet` is how far the copy's speed
/// diverges from the library's.
fn run_traced(args: &RunArgs, session: &Session, mut out: Outcome) -> Result<Outcome, String> {
    // The set-up's cold build, decomposed: the grid-12 model-build layers.
    let mut setup = Trace::default();
    crate::analyze::traced_compile(&spec(), &mut setup)?;
    let ms = |layer: &str| setup.seconds(layer) * 1e3;
    out.metric("variation.eigen_ms", ms("variation.eigen"));
    out.metric("variation.covariance_ms", ms("variation.covariance"));
    out.metric("core.blod_ms", ms("core.blod"));
    out.metric(
        "circuits.build_design_ms",
        ms("circuits.build_design") - ms("thermal.in_build"),
    );

    let tech = session.spec().tech.tech();
    let analysis = session.analysis();
    let mut trace = Trace::default();
    let (mut run_s, mut plain_s, mut replay_s) = (0.0, 0.0, 0.0);
    let (mut lane_width, mut lane_tiles, mut censored, mut exceed) = (0.0, 0.0, 0.0, 0.0);
    let mut weakest_link_ops = 0.0;
    let start = Instant::now();
    let mut index = 0;
    while index % SPARES_EVERY != 0 || start.elapsed().as_secs_f64() < args.seconds {
        let config = config(args.seed, index);
        let t0 = Instant::now();
        let report = run_fleet(analysis, &tech, &config).map_err(|e| e.to_string())?;
        run_s += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let plain = replay(analysis, &tech, &config, &mut Trace::off());
        plain_s += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let folded = replay(analysis, &tech, &config, &mut trace);
        replay_s += t0.elapsed().as_secs_f64();
        out.attempted += 1;
        let agg = &report.aggregates;
        let check = checks::fleet_consistent(agg).and_then(|()| {
            let expected = Folded::of(agg);
            match [&plain, &folded].into_iter().find(|f| **f != expected) {
                None => Ok(()),
                Some(f) => Err(format!("replay folds {f:?}, run_fleet {expected:?}")),
            }
        });
        if let Err(e) = check {
            eprintln!("fleet_mission: op {index}: {e}");
            out.failed += 1;
        }
        if config.spares == 0 {
            lane_width = report.lane_width as f64;
            lane_tiles += report.lane_tiles as f64;
            weakest_link_ops += 1.0;
        }
        censored += (agg.censored_low + agg.censored_high) as f64;
        exceed += agg.exceed_budget as f64;
        index += 1;
    }
    let n = index as f64;
    let named: f64 = [
        "variation.sample_z",
        "core.uv_project",
        "num.simd.bisect",
        "core.compose",
    ]
    .iter()
    .map(|l| trace.seconds(l))
    .sum();
    let us = |s: f64| s / n * 1e6;
    out.metric("session.ops", n);
    out.metric("trace.op_ms", us(run_s) / 1e3);
    out.metric("trace.attributed_pct", 100.0 * named / run_s);
    out.metric("trace.overhead_pct", 100.0 * (replay_s / plain_s - 1.0));
    out.metric(
        "fleet.replay_divergence_pct",
        100.0 * (plain_s / run_s - 1.0),
    );
    out.metric(
        "variation.components",
        analysis.model().n_components() as f64,
    );
    out.metric(
        "variation.sample_z_us",
        us(trace.seconds("variation.sample_z")),
    );
    out.metric("core.uv_project_us", us(trace.seconds("core.uv_project")));
    out.metric("num.simd.bisect_us", us(trace.seconds("num.simd.bisect")));
    out.metric("core.compose_us", us(trace.seconds("core.compose")));
    out.metric("fleet.run_ms", us(run_s) / 1e3);
    out.metric("fleet.unattributed_ms", us(run_s - named) / 1e3);
    out.metric("fleet.lane_width", lane_width);
    out.metric("fleet.lane_tiles", lane_tiles / weakest_link_ops);
    out.metric("fleet.censored", censored / n);
    out.metric("fleet.exceed", exceed / n);
    Ok(out)
}
