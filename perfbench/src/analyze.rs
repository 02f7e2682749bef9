//! `analyze_cold`: the design engineer's path, with no cache.
//!
//! One op compiles one spec (at `GRID_SIDE`) through `Session::build`,
//! then solves the 1-ppm and 10-ppm lifetimes and a 32-point sweep over a
//! seeded range. A cycle visits C1–C6 and MC16 with st_fast and hybrid
//! (see [`ENGINES`]) in a fixed order — the heap's high-water mark depends
//! on the order, and `peak_rss_mb` should not move with the seed — and a
//! run covers whole cycles. It is the only workload where model build
//! (covariance → eigen → BLOD → tables) dominates.

use crate::checks::{self, AnalyzeOutput, Reference};
use crate::trace::Trace;
use crate::{host, stats, Outcome, RunArgs, THREADS};
use statobd::circuits::{build_design, Benchmark, BuiltDesign, DesignConfig};
use statobd::core::{
    build_engine, failure_rate_curve, params, solve_lifetime, ChipAnalysis, EngineSpec,
    HybridTables, ReliabilityEngine,
};
use statobd::num::json::Json;
use statobd::num::rng::{Rng, Xoshiro256pp};
use statobd::thermal::ThermalSolver;
use statobd::variation::ThicknessModelBuilder;
use statobd::{AnalysisSpec, DesignSource, EngineKind, Session, LIFETIME_BRACKET_S};
use std::time::Instant;

/// Correlation-grid side of every op. At the paper default (25, 625
/// components) the dense covariance (~3 MB) spills out of the core's
/// cache, and on a 2-vCPU Xeon VM shared with other tenants its
/// eigendecomposition swings up to 2× with their memory traffic: twelve
/// identical grid-25 C1 builds in one process spread 30 % (quartile
/// distance over median), and 5-run medians of this workload's p50
/// spread 10–29 %. At 16 (256 components) 10-run spreads stay within
/// 10 %, and the eigendecomposition is still two thirds of an op.
pub const GRID_SIDE: usize = 16;
/// Engines an op cycle covers, with how many ops of each per design. The
/// hybrid table build makes every hybrid op dearer than every st_fast op
/// at this grid, so an even split would put the median exactly on the
/// boundary between the two groups; two st_fast ops per hybrid op put it
/// mid-group instead.
const ENGINES: [(EngineKind, usize); 2] = [(EngineKind::StFast, 2), (EngineKind::Hybrid, 1)];
/// Sweep resolution of every op.
const SWEEP_POINTS: usize = 32;
/// Percentile reported as `tail_us`: mid-way through the hybrid ops (the
/// top third of the mix, ~180–210 ms, in a continuous spread of classes),
/// with ~28 of a run's ~190 ops beyond it.
pub const TAIL_PCT: f64 = 85.0;
/// The 10-ppm target.
const TEN_PPM: f64 = 10.0 * params::ONE_PER_MILLION;

/// One op's input: a spec plus its sweep range.
#[derive(Debug, Clone)]
pub struct Op {
    pub spec: AnalysisSpec,
    pub design: Benchmark,
    pub engine: EngineKind,
    pub sweep: (f64, f64),
}

/// The spec of one op class, pinned to one worker thread.
pub fn spec(design: Benchmark, engine: EngineKind) -> AnalysisSpec {
    AnalysisSpec::benchmark(design)
        .with_engine(engine)
        .with_grid_side(GRID_SIDE)
        .with_threads(Some(THREADS))
}

/// Every op class, one cycle, with seeded sweep ranges.
fn cycle_ops(rng: &mut Xoshiro256pp) -> Vec<Op> {
    let mut ops: Vec<Op> = Benchmark::ALL
        .iter()
        .flat_map(|&design| {
            ENGINES.iter().flat_map(move |&(engine, n)| {
                std::iter::repeat_with(move || Op {
                    spec: spec(design, engine),
                    design,
                    engine,
                    sweep: (0.0, 0.0),
                })
                .take(n)
            })
        })
        .collect();
    for op in &mut ops {
        // A 32-point sweep over five to six decades around the lifetimes.
        let lo = 10f64.powf(6.0 + rng.gen_range(0.0..0.5));
        let hi = 10f64.powf(11.5 + rng.gen_range(0.0..0.5));
        op.sweep = (lo, hi);
    }
    ops
}

/// Readies a run: validates and hashes every spec and parses the
/// committed reference lifetimes.
fn setup(rng: &mut Xoshiro256pp) -> Result<(Vec<Op>, Reference), String> {
    let ops = cycle_ops(rng);
    for op in &ops {
        op.spec.validate().map_err(|e| e.to_string())?;
        op.spec.spec_hash().map_err(|e| e.to_string())?;
    }
    let reference = Reference::committed()?;
    Ok((ops, reference))
}

/// Runs one op through the front door; returns its output and its time.
fn run_op(op: &Op) -> Result<(AnalyzeOutput, f64), String> {
    let start = Instant::now();
    let mut session = Session::build(&op.spec).map_err(|e| e.to_string())?;
    let t_1ppm = session
        .lifetime(params::ONE_PER_MILLION)
        .map_err(|e| e.to_string())?;
    let t_10ppm = session.lifetime(TEN_PPM).map_err(|e| e.to_string())?;
    let sweep = session
        .sweep(op.sweep.0, op.sweep.1, SWEEP_POINTS)
        .map_err(|e| e.to_string())?;
    let op_s = start.elapsed().as_secs_f64();
    // After the clock stops, on the same engine: the check needs P at the
    // solved lifetime.
    let p_at_1ppm = session.p_at(t_1ppm).map_err(|e| e.to_string())?;
    let output = AnalyzeOutput {
        t_1ppm,
        t_10ppm,
        p_at_1ppm,
        sweep,
        components: session.stats().n_components,
    };
    Ok((output, op_s))
}

/// The same op decomposed into the calls `Session::build` makes, each
/// inside a span of its layer. Returns the op output and its wall time;
/// the thermal solve is re-run on the built floorplan and power outside
/// the op's clock, as the `thermal` layer's own measurement.
fn run_op_traced(op: &Op, trace: &mut Trace) -> Result<(AnalyzeOutput, f64), String> {
    let start = Instant::now();
    let (analysis, components, built) = traced_compile(&op.spec, trace)?;
    let engine_spec = op.spec.engine.clone().with_threads(Some(THREADS));
    let mut engine: Box<dyn ReliabilityEngine + '_> = match &engine_spec {
        EngineSpec::Hybrid(config) => Box::new(
            trace
                .span("core.tables", || HybridTables::build(&analysis, *config))
                .map_err(|e| e.to_string())?,
        ),
        _ => build_engine(&analysis, &engine_spec).map_err(|e| e.to_string())?,
    };
    let t_1ppm = trace
        .span("core.lifetime", || {
            solve_lifetime(engine.as_mut(), params::ONE_PER_MILLION, LIFETIME_BRACKET_S)
        })
        .map_err(|e| e.to_string())?;
    let t_10ppm = trace
        .span("core.lifetime", || {
            solve_lifetime(engine.as_mut(), TEN_PPM, LIFETIME_BRACKET_S)
        })
        .map_err(|e| e.to_string())?;
    let sweep = trace
        .span("core.sweep", || {
            failure_rate_curve(engine.as_mut(), op.sweep.0, op.sweep.1, SWEEP_POINTS)
        })
        .map_err(|e| e.to_string())?;
    let op_s = start.elapsed().as_secs_f64();
    let p_at_1ppm = engine
        .failure_probability(t_1ppm)
        .map_err(|e| e.to_string())?;
    let solver = ThermalSolver::new(op.spec.thermal);
    let map = trace
        .span("thermal.solve", || {
            solver.solve(&built.floorplan, &built.power)
        })
        .map_err(|e| e.to_string())?;
    trace.count(
        "thermal.cg_iters",
        map.breakdown().total_cg_iterations() as f64,
    );
    Ok((
        AnalyzeOutput {
            t_1ppm,
            t_10ppm,
            p_at_1ppm,
            sweep,
            components,
        },
        op_s,
    ))
}

/// Design construction (with its thermal solve), thickness-model build
/// and BLOD characterization, each in its layer's span. Returns the
/// analysis, the retained component count and the built design (for the
/// out-of-clock thermal re-solve).
pub fn traced_compile(
    spec: &AnalysisSpec,
    trace: &mut Trace,
) -> Result<(ChipAnalysis, usize, BuiltDesign), String> {
    let DesignSource::Benchmark(design) = &spec.design else {
        return Err("the traced build covers benchmark designs only".to_string());
    };
    let config = DesignConfig {
        correlation_grid_side: spec.grid_side,
        thermal: spec.thermal,
        vdd_v: spec.vdd_v,
        area_per_device: spec.area_per_device,
    };
    let built = trace
        .span("circuits.build_design", || build_design(*design, &config))
        .map_err(|e| e.to_string())?;
    // The solver's own timing of the solve inside `build_design`, for the
    // design builder's self time.
    let solve = built.map.breakdown();
    trace.add(
        "thermal.in_build",
        solve.assembly_s + solve.precond_s + solve.solve_s,
    );
    let budget = spec.model.resolved_budget().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let (model, stats) = ThicknessModelBuilder::new()
        .grid(built.grid)
        .nominal(spec.model.nominal_nm)
        .budget(budget)
        .kernel(spec.model.kernel)
        .systematic(spec.model.systematic)
        .build_with_stats()
        .map_err(|e| e.to_string())?;
    let model_s = start.elapsed().as_secs_f64();
    trace.add("variation.covariance", stats.covariance_s);
    trace.add("variation.eigen", stats.eigen_s);
    trace.add(
        "variation.rest",
        model_s - stats.covariance_s - stats.eigen_s,
    );
    let tech = spec.tech.tech();
    let chip = built.spec.clone();
    let analysis = trace
        .span("core.blod", || {
            ChipAnalysis::new(chip, model, &tech)
                .and_then(|a| a.with_composition(spec.composition.clone()))
        })
        .map_err(|e| e.to_string())?;
    Ok((analysis, stats.n_components, built))
}

/// Times one set-up.
fn timed_setup(seed: u64) -> Result<(f64, Vec<Op>, Reference), String> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let start = Instant::now();
    let (ops, reference) = setup(&mut rng)?;
    Ok((start.elapsed().as_secs_f64(), ops, reference))
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let (first_setup_s, first_cycle, reference) = timed_setup(args.seed)?;
    let mut setup_times = vec![first_setup_s];
    let mut rng = Xoshiro256pp::seed_from_u64(args.seed).substream(1);
    let mut out = Outcome::default();
    out.info("tail_pct", Json::Number(TAIL_PCT));
    if args.trace {
        return run_traced(args, first_cycle, &reference, out);
    }

    let names: Vec<String> = first_cycle
        .iter()
        .map(|op| format!("{} {}", op.design.name(), op.engine.name()))
        .collect();
    let mut latencies = Vec::new();
    let mut busy_s = 0.0;
    let mut cycle = first_cycle;
    let mut cycles = 0;
    // Peak RSS once every op class has run: later heap growth depends on
    // how many ops the run's time allowed, so it is left out.
    let mut rss = None;
    let loop_start = Instant::now();
    loop {
        for op in &cycle {
            // A set-up takes ~0.2 ms, short enough that host noise over
            // any brief window swings it by a quarter: it is repeated
            // before every op, outside the op's clock, and `setup_s` is
            // the median over the run of each cycle's mean set-up.
            setup_times.push(timed_setup(args.seed)?.0);
            out.attempted += 1;
            let checked = run_op(op).and_then(|(output, op_s)| {
                busy_s += op_s;
                latencies.push(op_s * 1e6);
                reference.check(op.design, op.engine, &output)
            });
            if let Err(e) = checked {
                eprintln!(
                    "analyze_cold: {} {}: {e}",
                    op.design.name(),
                    op.engine.name()
                );
                out.failed += 1;
            }
        }
        cycles += 1;
        rss.get_or_insert_with(host::peak_rss_mb);
        // Whole cycles only: stop once within a quarter cycle of the run's
        // time, so host noise in the cycle time rarely changes the count.
        let elapsed = loop_start.elapsed().as_secs_f64();
        if elapsed + 0.25 * elapsed / f64::from(cycles) >= args.seconds {
            break;
        }
        cycle = cycle_ops(&mut rng);
    }
    out.info("cycles", Json::Number(f64::from(cycles)));
    out.info("classes", class_info(&names, &latencies));
    out.info("ops", Json::Number(latencies.len() as f64));
    out.info(
        "samples_beyond_tail",
        Json::Number(stats::samples_beyond(latencies.len(), TAIL_PCT) as f64),
    );
    out.metric("setup_s", stats::median_of_means(&setup_times, names.len()));
    out.metric("ops_per_s", latencies.len() as f64 / busy_s);
    out.metric("p50_us", stats::median(&latencies));
    out.metric("tail_us", stats::percentile(&latencies, TAIL_PCT));
    out.metric(
        "ops_ok_ratio",
        (out.attempted - out.failed) as f64 / out.attempted as f64,
    );
    out.metric("peak_rss_mb", rss.unwrap_or(f64::NAN));
    Ok(out)
}

/// Mean latency (µs) per op class; `latencies` are in cycle order.
fn class_info(names: &[String], latencies: &[f64]) -> Json {
    let mut classes: std::collections::BTreeMap<&str, (f64, f64)> = Default::default();
    for (name, &l) in names.iter().cycle().zip(latencies) {
        let class = classes.entry(name).or_default();
        class.0 += l;
        class.1 += 1.0;
    }
    Json::Object(
        classes
            .into_iter()
            .map(|(name, (sum, n))| (name.to_string(), Json::Number(sum / n)))
            .collect(),
    )
}

/// Whole cycles for the run's time, each op run twice: traced (decomposed,
/// for the layers) and untraced (through `Session::build`, for the
/// overhead). The two must agree bit for bit.
fn run_traced(
    args: &RunArgs,
    first_cycle: Vec<Op>,
    reference: &Reference,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let mut rng = Xoshiro256pp::seed_from_u64(args.seed).substream(1);
    let mut trace = Trace::default();
    let (mut traced_s, mut plain_s, mut ops, mut components) = (0.0, 0.0, 0u32, 0);
    let mut cycle = first_cycle;
    let start = Instant::now();
    loop {
        for op in &cycle {
            let (traced, op_s) = run_op_traced(op, &mut trace)?;
            traced_s += op_s;
            out.attempted += 1;
            let ok = run_op(op).and_then(|(plain, op_s)| {
                plain_s += op_s;
                checks::same_analysis(&traced, &plain)?;
                reference.check(op.design, op.engine, &traced)
            });
            if let Err(e) = ok {
                eprintln!(
                    "analyze_cold: {} {}: {e}",
                    op.design.name(),
                    op.engine.name()
                );
                out.failed += 1;
            }
            components = traced.components;
            ops += 1;
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        cycle = cycle_ops(&mut rng);
    }
    let n = f64::from(ops);
    let build_self = trace.seconds("circuits.build_design") - trace.seconds("thermal.in_build");
    let named = trace.seconds("circuits.build_design")
        + trace.seconds("variation.covariance")
        + trace.seconds("variation.eigen")
        + trace.seconds("core.blod")
        + trace.seconds("core.tables")
        + trace.seconds("core.lifetime")
        + trace.seconds("core.sweep");
    let ms = |s: f64| s / n * 1e3;
    out.metric("trace.op_ms", ms(traced_s));
    out.metric("trace.attributed_pct", 100.0 * named / traced_s);
    out.metric("trace.overhead_pct", 100.0 * (traced_s / plain_s - 1.0));
    out.metric("session.ops", n);
    out.metric("variation.eigen_ms", ms(trace.seconds("variation.eigen")));
    out.metric(
        "variation.covariance_ms",
        ms(trace.seconds("variation.covariance")),
    );
    out.metric("variation.components", components as f64);
    out.metric("thermal.solve_ms", ms(trace.seconds("thermal.solve")));
    out.metric("thermal.cg_iters", trace.counted("thermal.cg_iters") / n);
    out.metric("circuits.build_design_ms", ms(build_self));
    out.metric("core.blod_ms", ms(trace.seconds("core.blod")));
    out.metric("core.tables_ms", ms(trace.seconds("core.tables")));
    out.metric("core.lifetime_ms", ms(trace.seconds("core.lifetime")));
    out.metric("core.sweep_ms", ms(trace.seconds("core.sweep")));
    out.metric("session.unattributed_ms", ms(traced_s - named));
    Ok(out)
}

/// EXPERIMENTS.md Table III lifetime errors w.r.t. Monte-Carlo (%), per
/// design: (st_fast 1/mil, st_fast 10/mil, hybrid 1/mil, hybrid 10/mil).
/// MC16 is not in the table and takes each column's widest band.
const TABLE_III_BANDS: [(Benchmark, [f64; 4]); 7] = [
    (Benchmark::C1, [0.13, 0.12, 0.13, 0.12]),
    (Benchmark::C2, [0.15, 0.13, 0.15, 0.13]),
    (Benchmark::C3, [0.12, 0.11, 0.12, 0.11]),
    (Benchmark::C4, [0.15, 0.14, 0.15, 0.14]),
    (Benchmark::C5, [0.16, 0.14, 0.16, 0.14]),
    (Benchmark::C6, [0.10, 0.09, 0.10, 0.10]),
    (Benchmark::ManyCore16, [0.16, 0.14, 0.16, 0.14]),
];

/// Prints `reference.json`: every op class's lifetimes at this commit,
/// each with its Table III band.
pub fn emit_reference() -> Result<(), String> {
    let mut rows = Vec::new();
    for (design, bands) in TABLE_III_BANDS {
        for (e, (engine, _)) in ENGINES.into_iter().enumerate() {
            let op = Op {
                spec: spec(design, engine),
                design,
                engine,
                sweep: (1e6, 1e12),
            };
            let (out, _) = run_op(&op)?;
            let row = vec![
                ("design", Json::String(design.name().to_string())),
                ("engine", Json::String(engine.name().to_string())),
                ("t_1ppm_s", Json::Number(out.t_1ppm)),
                ("t_10ppm_s", Json::Number(out.t_10ppm)),
                ("band_1ppm_pct", Json::Number(bands[2 * e])),
                ("band_10ppm_pct", Json::Number(bands[2 * e + 1])),
            ];
            rows.push(Json::Object(
                row.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
            ));
        }
    }
    let doc = Json::Object(vec![
        ("grid_side".to_string(), Json::Number(GRID_SIDE as f64)),
        ("rows".to_string(), Json::Array(rows)),
    ]);
    println!("{}", doc.to_pretty());
    Ok(())
}
