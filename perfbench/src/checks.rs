//! Output checks. Each returns `Err` with a reason when an output is
//! wrong; every failed check counts against `ops_ok_ratio`. The tests at
//! the bottom feed each check a corrupted output and show it rejects it.

use statobd::circuits::Benchmark;
use statobd::num::json::{Json, ToJson};
use statobd::{EngineKind, FleetAggregates};

/// The committed reference lifetimes (`reference.json`).
const REFERENCE_JSON: &str = include_str!("../reference.json");

/// The chip failure probability the 1-ppm lifetime is solved for.
const ONE_PPM: f64 = 1e-6;

/// Relative tolerance on `P(t₁ₚₚₘ) = 1e-6`. The lifetime solve narrows
/// `ln t` to 1e-10, so P lands within `slope·1e-10` of its target; the
/// chip-level Weibull slopes of the bundled designs stay far below 100.
const P_SOLVE_REL_TOL: f64 = 1e-8;

/// What one `analyze_cold` op produced.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeOutput {
    pub t_1ppm: f64,
    pub t_10ppm: f64,
    /// P evaluated at `t_1ppm` on the op's own engine.
    pub p_at_1ppm: f64,
    pub sweep: Vec<(f64, f64)>,
    pub components: usize,
}

/// One row of the reference: a design × engine's lifetimes and the
/// EXPERIMENTS.md Table III error band (in %) each may move within.
#[derive(Debug, Clone)]
struct ReferenceRow {
    design: String,
    engine: String,
    t_1ppm_s: f64,
    t_10ppm_s: f64,
    band_1ppm_pct: f64,
    band_10ppm_pct: f64,
}

/// Per-design reference lifetimes with their accuracy bands.
#[derive(Debug, Clone)]
pub struct Reference {
    rows: Vec<ReferenceRow>,
}

fn field(row: &Json, name: &str) -> Result<f64, String> {
    row.get(name)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("reference row lacks number {name}"))
}

fn text(row: &Json, name: &str) -> Result<String, String> {
    row.get(name)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("reference row lacks string {name}"))
}

impl Reference {
    /// Parses the committed reference.
    pub fn committed() -> Result<Self, String> {
        Self::parse(REFERENCE_JSON)
    }

    fn parse(text_json: &str) -> Result<Self, String> {
        let doc = Json::parse(text_json).map_err(|e| format!("reference.json: {e}"))?;
        let rows = doc
            .get("rows")
            .and_then(Json::as_array)
            .ok_or("reference.json: no rows")?
            .iter()
            .map(|row| {
                Ok(ReferenceRow {
                    design: text(row, "design")?,
                    engine: text(row, "engine")?,
                    t_1ppm_s: field(row, "t_1ppm_s")?,
                    t_10ppm_s: field(row, "t_10ppm_s")?,
                    band_1ppm_pct: field(row, "band_1ppm_pct")?,
                    band_10ppm_pct: field(row, "band_10ppm_pct")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Reference { rows })
    }

    /// Checks one op's output against its design × engine reference and
    /// the solver's own invariants.
    pub fn check(
        &self,
        design: Benchmark,
        engine: EngineKind,
        out: &AnalyzeOutput,
    ) -> Result<(), String> {
        let row = self
            .rows
            .iter()
            .find(|r| r.design == design.name() && r.engine == engine.name())
            .ok_or_else(|| format!("no reference for {} {}", design.name(), engine.name()))?;
        within_band("t_1ppm", out.t_1ppm, row.t_1ppm_s, row.band_1ppm_pct)?;
        within_band("t_10ppm", out.t_10ppm, row.t_10ppm_s, row.band_10ppm_pct)?;
        lifetime_solved(out.p_at_1ppm)?;
        if !(out.t_10ppm > out.t_1ppm) {
            return Err(format!(
                "t_10ppm {} is not beyond t_1ppm {}",
                out.t_10ppm, out.t_1ppm
            ));
        }
        sweep_monotone(&out.sweep)
    }
}

fn within_band(what: &str, got: f64, reference: f64, band_pct: f64) -> Result<(), String> {
    let dev_pct = 100.0 * (got - reference).abs() / reference;
    if dev_pct <= band_pct {
        Ok(())
    } else {
        Err(format!(
            "{what} {got:e} s is {dev_pct:.3} % from reference {reference:e} s (band {band_pct} %)"
        ))
    }
}

/// `P(t₁ₚₚₘ)` must sit on the 1-ppm target to solve tolerance.
pub fn lifetime_solved(p_at_1ppm: f64) -> Result<(), String> {
    let rel = (p_at_1ppm - ONE_PPM).abs() / ONE_PPM;
    if rel <= P_SOLVE_REL_TOL {
        Ok(())
    } else {
        Err(format!("P(t_1ppm) = {p_at_1ppm:e}, {rel:.2e} from 1e-6"))
    }
}

/// A sweep must move forward in time with P in [0, 1], never decreasing.
pub fn sweep_monotone(sweep: &[(f64, f64)]) -> Result<(), String> {
    if sweep.is_empty() {
        return Err("empty sweep".to_string());
    }
    for (i, &(t, p)) in sweep.iter().enumerate() {
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("sweep point {i}: P = {p} outside [0, 1]"));
        }
        if i > 0 {
            let (t_prev, p_prev) = sweep[i - 1];
            if !(t > t_prev) || p < p_prev {
                return Err(format!(
                    "sweep point {i}: ({t:e}, {p:e}) does not follow ({t_prev:e}, {p_prev:e})"
                ));
            }
        }
    }
    Ok(())
}

/// The traced (decomposed) op must reproduce the front-door op exactly.
pub fn same_analysis(traced: &AnalyzeOutput, plain: &AnalyzeOutput) -> Result<(), String> {
    if traced == plain {
        Ok(())
    } else {
        Err(format!(
            "traced build diverges from Session::build: t_1ppm {:e} vs {:e}, t_10ppm {:e} vs {:e}",
            traced.t_1ppm, plain.t_1ppm, traced.t_10ppm, plain.t_10ppm
        ))
    }
}

/// A serve reply must be `{"ok": true, …}`.
pub fn reply_ok(reply: &Json) -> Result<(), String> {
    match reply.get("ok") {
        Some(Json::Bool(true)) => Ok(()),
        _ => Err(format!("reply not ok: {}", reply.to_compact())),
    }
}

/// A served number must be bit-identical to the twin session's.
pub fn same_bits(what: &str, served: f64, twin: f64) -> Result<(), String> {
    if served.to_bits() == twin.to_bits() {
        Ok(())
    } else {
        Err(format!("{what}: served {served:e} vs twin {twin:e}"))
    }
}

/// A served curve must be bit-identical to the twin session's.
pub fn same_curve(served: &[(f64, f64)], twin: &[(f64, f64)]) -> Result<(), String> {
    if served.len() != twin.len() {
        return Err(format!(
            "sweep: served {} points vs twin {}",
            served.len(),
            twin.len()
        ));
    }
    for (i, (s, t)) in served.iter().zip(twin).enumerate() {
        same_bits(&format!("sweep t[{i}]"), s.0, t.0)?;
        same_bits(&format!("sweep p[{i}]"), s.1, t.1)?;
    }
    Ok(())
}

/// A managed session's current failure probability, between two steps at
/// the same temperature, never decreases: damage only accumulates.
pub fn p_now_monotone(previous: Option<f64>, now: f64) -> Result<(), String> {
    let ok = (0.0..=1.0).contains(&now) && previous.is_none_or(|p| now >= p);
    if ok {
        Ok(())
    } else {
        Err(format!("p_now {now:e} after {previous:?}"))
    }
}

/// Fleet aggregates must be internally consistent: the weakest-block
/// histogram counts every chip once, and every quantile ladder rises.
pub fn fleet_consistent(agg: &FleetAggregates) -> Result<(), String> {
    let counted: u64 = agg.weakest_counts.iter().sum();
    if counted != agg.chips {
        return Err(format!(
            "weakest-block histogram sums to {counted}, not {} chips",
            agg.chips
        ));
    }
    if agg.exceed_budget > agg.chips || agg.censored_low + agg.censored_high > agg.chips {
        return Err(format!(
            "counts exceed the fleet: exceed {}, censored {}+{} of {}",
            agg.exceed_budget, agg.censored_low, agg.censored_high, agg.chips
        ));
    }
    for (name, ladder) in [
        ("lifetime", &agg.lifetime_quantiles_s),
        ("p_mission", &agg.p_mission_quantiles),
        ("fit", &agg.fit_quantiles),
    ] {
        if ladder.len() != agg.quantile_levels.len() {
            return Err(format!("{name} quantiles: wrong length {}", ladder.len()));
        }
        for (i, pair) in ladder.windows(2).enumerate() {
            if !(pair[0].is_finite() && pair[1] >= pair[0]) {
                return Err(format!(
                    "{name} quantiles fall at level {}: {:e} then {:e}",
                    i + 1,
                    pair[0],
                    pair[1]
                ));
            }
        }
    }
    Ok(())
}

/// Spares can only help: over the same chips, a fleet with one spare may
/// not exceed the budget more often than the weakest-link fleet.
pub fn spares_help(spares: &FleetAggregates, weakest_link: &FleetAggregates) -> Result<(), String> {
    if spares.chips != weakest_link.chips || spares.seed != weakest_link.seed {
        return Err("spares and weakest-link runs cover different chips".to_string());
    }
    if spares.exceed_budget <= weakest_link.exceed_budget {
        Ok(())
    } else {
        Err(format!(
            "spares exceed the budget {} times vs weakest-link {}",
            spares.exceed_budget, weakest_link.exceed_budget
        ))
    }
}

/// Two runs of the same fleet must render identical aggregates.
pub fn same_aggregates(a: &FleetAggregates, b: &FleetAggregates) -> Result<(), String> {
    if a.to_json().to_compact() == b.to_json().to_compact() {
        Ok(())
    } else {
        Err("aggregates differ between shard layouts".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good_output(reference: &Reference) -> AnalyzeOutput {
        let row = &reference.rows[0];
        AnalyzeOutput {
            t_1ppm: row.t_1ppm_s,
            t_10ppm: row.t_10ppm_s,
            p_at_1ppm: 1e-6,
            sweep: vec![(1e6, 0.0), (1e8, 1e-9), (1e10, 1e-3)],
            components: 625,
        }
    }

    fn first_row_keys(reference: &Reference) -> (Benchmark, EngineKind) {
        let row = &reference.rows[0];
        (
            Benchmark::parse(&row.design).unwrap(),
            EngineKind::parse(&row.engine).unwrap(),
        )
    }

    #[test]
    fn reference_covers_every_op_class() {
        let reference = Reference::committed().unwrap();
        for design in Benchmark::ALL {
            for engine in [EngineKind::StFast, EngineKind::Hybrid] {
                assert!(reference
                    .rows
                    .iter()
                    .any(|r| r.design == design.name() && r.engine == engine.name()));
            }
        }
    }

    #[test]
    fn analyze_check_accepts_the_reference_and_rejects_corruptions() {
        let reference = Reference::committed().unwrap();
        let (design, engine) = first_row_keys(&reference);
        let good = good_output(&reference);
        reference.check(design, engine, &good).unwrap();

        let band = reference.rows[0].band_1ppm_pct / 100.0;
        let mut off_band = good.clone();
        off_band.t_1ppm *= 1.0 + 2.0 * band;
        assert!(reference.check(design, engine, &off_band).is_err());

        let mut off_10 = good.clone();
        off_10.t_10ppm *= 0.9;
        assert!(reference.check(design, engine, &off_10).is_err());

        let mut unsolved = good.clone();
        unsolved.p_at_1ppm = 1.001e-6;
        assert!(reference.check(design, engine, &unsolved).is_err());

        let mut backwards = good.clone();
        backwards.sweep[2].1 = 1e-12;
        assert!(reference.check(design, engine, &backwards).is_err());

        let mut above_one = good.clone();
        above_one.sweep[2].1 = 1.5;
        assert!(reference.check(design, engine, &above_one).is_err());

        let mut nan = good;
        nan.t_1ppm = f64::NAN;
        assert!(reference.check(design, engine, &nan).is_err());
    }

    #[test]
    fn ten_ppm_must_follow_one_ppm() {
        let reference = Reference::committed().unwrap();
        let (design, engine) = first_row_keys(&reference);
        // Loosen the bands so only the ordering rule can fire.
        let mut loose = reference.clone();
        loose.rows[0].band_1ppm_pct = 1e9;
        loose.rows[0].band_10ppm_pct = 1e9;
        let mut swapped = good_output(&reference);
        std::mem::swap(&mut swapped.t_1ppm, &mut swapped.t_10ppm);
        assert!(loose.check(design, engine, &swapped).is_err());
    }

    #[test]
    fn traced_build_must_match_the_front_door() {
        let reference = Reference::committed().unwrap();
        let good = good_output(&reference);
        same_analysis(&good, &good).unwrap();
        let mut drift = good.clone();
        drift.sweep[1].1 = f64::from_bits(drift.sweep[1].1.to_bits() + 1);
        assert!(same_analysis(&drift, &good).is_err());
    }

    #[test]
    fn serve_checks_reject_corrupted_replies() {
        reply_ok(&Json::parse(r#"{"id": 1, "ok": true, "p": 0.5}"#).unwrap()).unwrap();
        assert!(reply_ok(&Json::parse(r#"{"ok": false, "error": "x"}"#).unwrap()).is_err());
        assert!(reply_ok(&Json::parse(r#"{"id": 1, "p": 0.5}"#).unwrap()).is_err());

        same_bits("p", 0.25, 0.25).unwrap();
        assert!(same_bits("p", 0.25, f64::from_bits(0.25f64.to_bits() + 1)).is_err());

        let curve = vec![(1.0, 0.1), (2.0, 0.2)];
        same_curve(&curve, &curve).unwrap();
        assert!(same_curve(&curve[..1], &curve).is_err());
        let mut bent = curve.clone();
        bent[1].1 = 0.2000000001;
        assert!(same_curve(&bent, &curve).is_err());

        p_now_monotone(None, 1e-9).unwrap();
        p_now_monotone(Some(1e-9), 1e-9).unwrap();
        assert!(p_now_monotone(Some(2e-9), 1e-9).is_err());
        assert!(p_now_monotone(None, f64::NAN).is_err());
    }

    fn aggregates() -> FleetAggregates {
        FleetAggregates {
            chips: 10,
            profile: "datacenter".to_string(),
            seed: 7,
            budget: 1e-4,
            mission_s: 1e8,
            exceed_budget: 3,
            censored_low: 0,
            censored_high: 1,
            block_names: vec!["a".to_string(), "b".to_string()],
            weakest_counts: vec![6, 4],
            quantile_levels: vec![0.1, 0.5, 0.9],
            lifetime_quantiles_s: vec![1e8, 2e8, 3e8],
            p_mission_quantiles: vec![1e-6, 1e-5, 1e-4],
            fit_quantiles: vec![1.0, 2.0, 3.0],
            lifetime_min_s: 5e7,
            lifetime_max_s: 4e8,
            p_mission_min: 1e-7,
            p_mission_max: 1e-3,
        }
    }

    #[test]
    fn fleet_checks_reject_corrupted_aggregates() {
        let good = aggregates();
        fleet_consistent(&good).unwrap();

        let mut lost_chip = good.clone();
        lost_chip.weakest_counts[1] = 3;
        assert!(fleet_consistent(&lost_chip).is_err());

        let mut falling = good.clone();
        falling.lifetime_quantiles_s[2] = 1.5e8;
        assert!(fleet_consistent(&falling).is_err());

        let mut nan = good.clone();
        nan.p_mission_quantiles[0] = f64::NAN;
        assert!(fleet_consistent(&nan).is_err());

        let mut too_many = good.clone();
        too_many.exceed_budget = 11;
        assert!(fleet_consistent(&too_many).is_err());

        let mut spared = good.clone();
        spared.exceed_budget = 2;
        spares_help(&spared, &good).unwrap();
        spared.exceed_budget = 4;
        assert!(spares_help(&spared, &good).is_err());
        let mut other_seed = good.clone();
        other_seed.seed = 8;
        assert!(spares_help(&other_seed, &good).is_err());

        same_aggregates(&good, &good.clone()).unwrap();
        let mut reshuffled = good.clone();
        reshuffled.lifetime_max_s = f64::from_bits(good.lifetime_max_s.to_bits() + 1);
        assert!(same_aggregates(&reshuffled, &good).is_err());
    }
}
