//! End-to-end and per-layer benchmark of statobd.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <analyze_cold|serve_hot|fleet_mission> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload drives the program through its public front door
//! (`Session`, `serve_lines`, `run_fleet`) on inputs generated from
//! `--seed`, checks every output, and prints one JSON result as the last
//! line of standard output. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` reruns the same workload with spans around the calls into
//! each layer's public functions and reports the per-layer metrics. Every
//! stage of the program runs on exactly one worker thread, so timings do
//! not depend on how the host schedules a thread pool. The line before
//! the result records provenance: source digest, host, `nproc`, lane
//! dispatch, threads, seed and the tail percentile.

mod analyze;
mod checks;
mod fleet;
mod host;
mod serve;
mod stats;
mod trace;

use statobd::num::json::Json;
use std::process::ExitCode;

/// Worker threads every stage of the program under test runs with.
pub const THREADS: usize = 1;

/// The end-to-end metrics every workload reports with `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("tail_us", "us"),
    ("ops_ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every workload reports with `--trace 1`. A
/// layer that a workload does not call reads 0.
const PER_LAYER: [(&str, &str); 45] = [
    ("trace.attributed_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.op_ms", "ms"),
    ("variation.eigen_ms", "ms"),
    ("variation.covariance_ms", "ms"),
    ("variation.components", "count"),
    ("thermal.solve_ms", "ms"),
    ("thermal.cg_iters", "count"),
    ("circuits.build_design_ms", "ms"),
    ("core.blod_ms", "ms"),
    ("core.tables_ms", "ms"),
    ("core.lifetime_ms", "ms"),
    ("core.sweep_ms", "ms"),
    ("session.unattributed_ms", "ms"),
    ("serve.request_us", "us"),
    ("num.json.parse_us", "us"),
    ("num.json.render_us", "us"),
    ("serve.self_us", "us"),
    ("serve.io_us", "us"),
    ("serve.unattributed_us", "us"),
    ("session.p_at_hybrid_us", "us"),
    ("session.p_at_st_fast_us", "us"),
    ("session.p_at_st_closed_us", "us"),
    ("session.sweep_us", "us"),
    ("session.lifetime_us", "us"),
    ("session.stats_us", "us"),
    ("manager.step_us", "us"),
    ("artifact.load_ms", "ms"),
    ("artifact.bytes", "bytes"),
    ("num.json.parse_doc_ms", "ms"),
    ("manager.tables_ms", "ms"),
    ("serve.requests", "count"),
    ("serve.errors", "count"),
    ("variation.sample_z_us", "us"),
    ("core.uv_project_us", "us"),
    ("num.simd.bisect_us", "us"),
    ("core.compose_us", "us"),
    ("fleet.run_ms", "ms"),
    ("fleet.unattributed_ms", "ms"),
    ("fleet.replay_divergence_pct", "%"),
    ("fleet.lane_width", "count"),
    ("fleet.lane_tiles", "count"),
    ("fleet.censored", "count"),
    ("fleet.exceed", "count"),
    ("session.ops", "count"),
];

/// Command-line arguments of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload hands back: check tallies, metric values by name, and
/// workload-specific facts for the provenance line.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    pub info: Vec<(&'static str, Json)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn info(&mut self, name: &'static str, value: Json) {
        self.info.push((name, value));
    }
}

fn parse_args() -> Result<(String, RunArgs), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        RunArgs {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
    ))
}

fn main() -> ExitCode {
    // Anything that resolves its thread count implicitly reads this; set
    // before any work so the whole run sees it.
    std::env::set_var("STATOBD_THREADS", THREADS.to_string());
    if std::env::args().nth(1).as_deref() == Some("reference") {
        return match analyze::emit_reference() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: reference: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let (workload, args) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match workload.as_str() {
        "analyze_cold" => analyze::run,
        "serve_hot" => serve::run,
        "fleet_mission" => fleet::run,
        other => {
            eprintln!(
                "perfbench: unknown workload {other} (analyze_cold, serve_hot, fleet_mission)"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match report(&workload, &args, outcome) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints the provenance line and the result line.
fn report(workload: &str, args: &RunArgs, outcome: Outcome) -> Result<(), String> {
    let mut provenance = vec![
        ("workload".to_string(), Json::String(workload.to_string())),
        ("seed".to_string(), Json::Number(args.seed as f64)),
        ("seconds".to_string(), Json::Number(args.seconds)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("threads".to_string(), Json::Number(THREADS as f64)),
    ];
    provenance.extend(host::provenance());
    provenance.extend(outcome.info.into_iter().map(|(k, v)| (k.to_string(), v)));
    println!(
        "{}",
        Json::Object(vec![("provenance".to_string(), Json::Object(provenance))]).to_compact()
    );

    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, _) in &outcome.metrics {
        if !wanted.iter().any(|(w, _)| w == name) {
            return Err(format!("workload reported unlisted metric {name}"));
        }
    }
    let mut metrics = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        let value = outcome
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v);
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push((
            name.to_string(),
            Json::Object(vec![
                ("value".to_string(), Json::Number(value)),
                ("unit".to_string(), Json::String(unit.to_string())),
            ]),
        ));
    }
    let result = Json::Object(vec![
        (
            "correct".to_string(),
            Json::Bool(outcome.failed == 0 && outcome.attempted > 0),
        ),
        (
            "attempted".to_string(),
            Json::Number(outcome.attempted.max(1) as f64),
        ),
        ("failed".to_string(), Json::Number(outcome.failed as f64)),
        ("metrics".to_string(), Json::Object(metrics)),
    ]);
    println!("{}", result.to_compact());
    Ok(())
}
