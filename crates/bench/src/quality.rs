//! The solution-quality regression harness behind `disc_quality` and
//! `BENCH_quality.json` — what `BENCH_perf.json` does for speed, this
//! does for quality.
//!
//! Every (corpus cell × design) pair solves deterministically (fixed
//! restart seeds, the slow quality schedule), producing one
//! [`QualityRow`]: best energy, total machine cycles across restarts,
//! domain accuracy, and the family's raw domain metric. Rows serialize
//! into the `sachi.quality.v1` schema and [`compare`] checks a fresh
//! run against the committed baseline under the stated tolerance
//! policy (DESIGN.md):
//!
//! * accuracy may drop at most [`Tolerance::accuracy_drop`] (0.02);
//! * cycles may grow at most ×[`Tolerance::cycle_ratio`] (1.25);
//! * best energy may worsen at most [`Tolerance::energy_slack`] (2)
//!   absolute — solves are deterministic, so any real drift is a code
//!   change, but the slack keeps harmless schedule retunes from
//!   blocking;
//! * a baseline row missing from the current run is always a
//!   regression; improvements never fail.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sachi_core::prelude::*;
use sachi_ising::prelude::*;
use sachi_obs::json::{self, JsonValue};
use sachi_workloads::prelude::*;

/// Restarts per (cell, design): the committed baseline and every
/// comparison run must use the same value or cycles won't line up.
pub const QUALITY_RESTARTS: u64 = 4;

/// One (corpus cell, design) measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityRow {
    /// Corpus cell id (e.g. `sat_n20_planted`).
    pub id: String,
    /// Workload family label (`3-sat`, `graph coloring`, `job scheduling`).
    pub family: String,
    /// Design key (`n1a`, `n1b`, `n2`, `n3`).
    pub design: String,
    /// Encoded problem size in spins.
    pub spins: u64,
    /// Best Ising energy over the restarts.
    pub best_energy: i64,
    /// Machine cycles summed over all restarts.
    pub total_cycles: u64,
    /// Domain accuracy of the best state, in `[0, 1]`.
    pub accuracy: f64,
    /// The family's raw domain metric of the best state.
    pub domain_metric: i64,
    /// Unit of `domain_metric` (`satisfied_weight`, `conflicts`,
    /// `makespan`).
    pub domain_unit: String,
    /// Whether the `--smoke` subset includes this cell.
    pub smoke: bool,
}

/// Solves one corpus cell on one design: [`QUALITY_RESTARTS`] restarts
/// from a seeded random state each, slow quality schedule, best energy
/// kept, cycles summed. Fully deterministic — thread count, wall
/// clock, and host never appear in the row.
pub fn run_cell(case: &CorpusCase, design: DesignKind) -> QualityRow {
    run_cell_measured(case, design).0
}

/// [`run_cell`] plus the total sweeps the restarts actually executed —
/// the budget a tempered comparison run must live within (see
/// [`run_cell_tempered`]).
pub fn run_cell_measured(case: &CorpusCase, design: DesignKind) -> (QualityRow, u64) {
    let graph = case.graph();
    let mut machine = SachiMachine::new(SachiConfig::new(design));
    let mut best: Option<SolveResult> = None;
    let mut total_cycles = 0u64;
    let mut total_sweeps = 0u64;
    for restart in 0..QUALITY_RESTARTS {
        let mut rng = StdRng::seed_from_u64(restart);
        let init = SpinVector::random(graph.num_spins(), &mut rng);
        let opts = SolveOptions {
            schedule: Schedule::new((2 * graph.max_abs_coefficient().max(1)) as f64, 0.95, 0.05),
            ..SolveOptions::for_graph(graph, restart)
        };
        let (result, report) = machine.solve_detailed(graph, &init, &opts);
        total_cycles = total_cycles.saturating_add(report.total_cycles.get());
        total_sweeps = total_sweeps.saturating_add(result.sweeps);
        if best.as_ref().is_none_or(|b| result.energy < b.energy) {
            best = Some(result);
        }
    }
    let best = best.expect("QUALITY_RESTARTS > 0");
    let (domain_metric, unit) = case.domain_metric(&best.spins);
    let domain_unit = unit.to_string();
    let row = QualityRow {
        id: case.id.to_string(),
        family: case.kind().label().to_string(),
        design: design.key().to_string(),
        spins: graph.num_spins() as u64,
        best_energy: best.energy,
        total_cycles,
        accuracy: case.accuracy(&best.spins),
        domain_metric,
        domain_unit,
        smoke: case.smoke,
    };
    (row, total_sweeps)
}

/// Suffix distinguishing tempered rows from their independent-restart
/// twins in `BENCH_quality.json` (same cell, `+pt` appended to the id).
pub const TEMPERED_SUFFIX: &str = "+pt";

/// Solves one corpus cell with replica-exchange parallel tempering at
/// an *equal sweep budget*: the [`QUALITY_RESTARTS`] independent
/// restarts of [`run_cell`] become that many coupled rungs, and the
/// per-rung sweep cap is `sweep_budget / QUALITY_RESTARTS` (rounded
/// up), where `sweep_budget` is the total the baseline restarts
/// actually executed. The row id carries the [`TEMPERED_SUFFIX`] so
/// the tempered corpus regresses independently of the baseline one.
pub fn run_cell_tempered(case: &CorpusCase, design: DesignKind, sweep_budget: u64) -> QualityRow {
    let graph = case.graph();
    let rungs = usize::try_from(QUALITY_RESTARTS).expect("small constant");
    let per_rung = sweep_budget.div_ceil(QUALITY_RESTARTS).max(1);
    let mut rng = StdRng::seed_from_u64(0);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let opts = SolveOptions {
        schedule: Schedule::new((2 * graph.max_abs_coefficient().max(1)) as f64, 0.95, 0.05),
        ..SolveOptions::for_graph(graph, 0)
    }
    .with_max_sweeps(per_rung)
    .with_tempering(TemperingOptions::for_graph(
        LadderKind::Adaptive,
        graph,
        rungs,
    ));
    let outcome = run_ensemble(&SachiConfig::new(design), graph, &init, &opts, rungs, 1);
    let (best_of, report) = (outcome.best, outcome.report);
    let total_cycles = report
        .reports
        .iter()
        .fold(0u64, |acc, r| acc.saturating_add(r.total_cycles.get()));
    let best = best_of.best();
    let (domain_metric, unit) = case.domain_metric(&best.spins);
    QualityRow {
        id: format!("{}{}", case.id, TEMPERED_SUFFIX),
        family: case.kind().label().to_string(),
        design: design.key().to_string(),
        spins: graph.num_spins() as u64,
        best_energy: best.energy,
        total_cycles,
        accuracy: case.accuracy(&best.spins),
        domain_metric,
        domain_unit: unit.to_string(),
        smoke: case.smoke,
    }
}

/// Checks the tempering quality claim over paired rows: for every
/// `(cell, design)` the tempered row must match or beat the baseline
/// best energy at its equal sweep budget. Returns `(messages, strict)`
/// — one message per violated pair, plus the count of cells the
/// tempered run *strictly* improved.
pub fn tempering_dominance(
    baseline: &[QualityRow],
    tempered: &[QualityRow],
) -> (Vec<String>, usize) {
    let mut violations = Vec::new();
    let mut strict = 0usize;
    for base in baseline {
        let twin = format!("{}{}", base.id, TEMPERED_SUFFIX);
        let Some(pt) = tempered
            .iter()
            .find(|r| r.id == twin && r.design == base.design)
        else {
            violations.push(format!("{}/{}: no tempered twin row", base.id, base.design));
            continue;
        };
        if pt.best_energy > base.best_energy {
            violations.push(format!(
                "{}/{}: tempered energy {} worse than independent restarts {}",
                base.id, base.design, pt.best_energy, base.best_energy
            ));
        } else if pt.best_energy < base.best_energy {
            strict += 1;
        }
    }
    (violations, strict)
}

/// Renders rows as a `sachi.quality.v1` document.
pub fn write_report(rows: &[QualityRow]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"sachi.quality.v1\",\n");
    out.push_str(&format!("  \"master_seed\": {CORPUS_MASTER_SEED},\n"));
    out.push_str(&format!("  \"restarts\": {QUALITY_RESTARTS},\n"));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"family\": \"{}\", \"design\": \"{}\", \"spins\": {}, \
             \"best_energy\": {}, \"total_cycles\": {}, \"accuracy\": {:.6}, \
             \"domain_metric\": {}, \"domain_unit\": \"{}\", \"smoke\": {}}}{}\n",
            json::escape(&r.id),
            json::escape(&r.family),
            json::escape(&r.design),
            r.spins,
            r.best_energy,
            r.total_cycles,
            r.accuracy,
            r.domain_metric,
            json::escape(&r.domain_unit),
            r.smoke,
            sep,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn row_str(obj: &JsonValue, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("row missing string field '{key}'"))
}

fn row_num(obj: &JsonValue, key: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(JsonValue::as_num)
        .ok_or_else(|| format!("row missing numeric field '{key}'"))
}

/// Parses a `sachi.quality.v1` document back into rows.
///
/// # Errors
///
/// Returns a message naming the first malformed field (wrong schema
/// tag, missing key, or a type mismatch).
pub fn parse_report(text: &str) -> Result<Vec<QualityRow>, String> {
    let doc = json::parse(text)?;
    let schema = doc
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or("missing schema tag")?;
    if schema != "sachi.quality.v1" {
        return Err(format!("unexpected schema '{schema}'"));
    }
    let rows = doc
        .get("rows")
        .and_then(JsonValue::as_arr)
        .ok_or("missing rows array")?;
    rows.iter()
        .map(|obj| {
            let smoke = match obj.get("smoke") {
                Some(JsonValue::Bool(b)) => *b,
                _ => return Err("row missing boolean field 'smoke'".to_string()),
            };
            Ok(QualityRow {
                id: row_str(obj, "id")?,
                family: row_str(obj, "family")?,
                design: row_str(obj, "design")?,
                spins: row_num(obj, "spins")? as u64,
                best_energy: row_num(obj, "best_energy")? as i64,
                total_cycles: row_num(obj, "total_cycles")? as u64,
                accuracy: row_num(obj, "accuracy")?,
                domain_metric: row_num(obj, "domain_metric")? as i64,
                domain_unit: row_str(obj, "domain_unit")?,
                smoke,
            })
        })
        .collect()
}

/// The stated regression tolerances (see module docs and DESIGN.md).
#[derive(Debug, Clone, Copy)]
pub struct Tolerance {
    /// Maximum allowed absolute accuracy drop.
    pub accuracy_drop: f64,
    /// Maximum allowed `current / baseline` cycle ratio.
    pub cycle_ratio: f64,
    /// Maximum allowed absolute best-energy worsening.
    pub energy_slack: i64,
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance {
            accuracy_drop: 0.02,
            cycle_ratio: 1.25,
            energy_slack: 2,
        }
    }
}

/// Compares `current` rows against the committed `baseline`, returning
/// one message per regression (empty = pass). Only baseline rows whose
/// `(id, design)` appears in `current` are compared unless
/// `require_all` is set — the smoke subset passes `false`, the full
/// run `true`.
pub fn compare(
    baseline: &[QualityRow],
    current: &[QualityRow],
    tol: Tolerance,
    require_all: bool,
) -> Vec<String> {
    let mut regressions = Vec::new();
    for base in baseline {
        let found = current
            .iter()
            .find(|r| r.id == base.id && r.design == base.design);
        let Some(cur) = found else {
            if require_all {
                regressions.push(format!(
                    "{}/{}: row missing from current run",
                    base.id, base.design
                ));
            }
            continue;
        };
        if cur.accuracy < base.accuracy - tol.accuracy_drop {
            regressions.push(format!(
                "{}/{}: accuracy {:.4} dropped below baseline {:.4} - {:.2}",
                cur.id, cur.design, cur.accuracy, base.accuracy, tol.accuracy_drop
            ));
        }
        if (cur.total_cycles as f64) > base.total_cycles as f64 * tol.cycle_ratio {
            regressions.push(format!(
                "{}/{}: cycles {} exceed baseline {} x {:.2}",
                cur.id, cur.design, cur.total_cycles, base.total_cycles, tol.cycle_ratio
            ));
        }
        if cur.best_energy > base.best_energy.saturating_add(tol.energy_slack) {
            regressions.push(format!(
                "{}/{}: best energy {} worse than baseline {} + {}",
                cur.id, cur.design, cur.best_energy, base.best_energy, tol.energy_slack
            ));
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row() -> QualityRow {
        QualityRow {
            id: "sat_n20_planted".into(),
            family: "3-sat".into(),
            design: "n3".into(),
            spins: 106,
            best_energy: -12,
            total_cycles: 123_456,
            accuracy: 0.987654,
            domain_metric: 86,
            domain_unit: "satisfied_weight".into(),
            smoke: true,
        }
    }

    #[test]
    fn report_round_trips() {
        let rows = vec![
            sample_row(),
            QualityRow {
                id: "sched_j12_m3".into(),
                family: "job scheduling".into(),
                design: "n1a".into(),
                spins: 36,
                best_energy: 4_807,
                total_cycles: 99,
                accuracy: 1.0,
                domain_metric: 23,
                domain_unit: "makespan".into(),
                smoke: false,
            },
        ];
        let text = write_report(&rows);
        let parsed = parse_report(&text).expect("round trip");
        assert_eq!(parsed.len(), rows.len());
        for (a, b) in rows.iter().zip(&parsed) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.design, b.design);
            assert_eq!(a.best_energy, b.best_energy);
            assert_eq!(a.total_cycles, b.total_cycles);
            assert!((a.accuracy - b.accuracy).abs() < 1e-6);
            assert_eq!(a.domain_metric, b.domain_metric);
            assert_eq!(a.smoke, b.smoke);
        }
    }

    #[test]
    fn parse_rejects_wrong_schema_and_missing_fields() {
        assert!(parse_report("{\"schema\": \"sachi.metrics.v1\", \"rows\": []}").is_err());
        assert!(parse_report("{\"rows\": []}").is_err());
        let no_smoke = "{\"schema\": \"sachi.quality.v1\", \"rows\": [{\"id\": \"x\"}]}";
        assert!(parse_report(no_smoke).is_err());
    }

    #[test]
    fn identical_rows_pass() {
        let rows = vec![sample_row()];
        assert!(compare(&rows, &rows, Tolerance::default(), true).is_empty());
    }

    #[test]
    fn perturbed_baseline_fails_each_dimension() {
        let current = vec![sample_row()];
        // Baseline claims better accuracy than we now achieve.
        let mut acc = sample_row();
        acc.accuracy += 0.05;
        assert_eq!(
            compare(&[acc], &current, Tolerance::default(), true).len(),
            1
        );
        // Baseline claims fewer cycles.
        let mut cyc = sample_row();
        cyc.total_cycles /= 2;
        assert_eq!(
            compare(&[cyc], &current, Tolerance::default(), true).len(),
            1
        );
        // Baseline claims lower (better) energy.
        let mut en = sample_row();
        en.best_energy -= 100;
        assert_eq!(
            compare(&[en], &current, Tolerance::default(), true).len(),
            1
        );
        // Baseline row absent from the current run.
        let mut gone = sample_row();
        gone.id = "sat_n40_critical".into();
        let gone = [gone];
        assert_eq!(
            compare(&gone, &current, Tolerance::default(), true).len(),
            1
        );
        assert!(compare(&gone, &current, Tolerance::default(), false).is_empty());
    }

    #[test]
    fn improvements_never_fail() {
        let base = vec![sample_row()];
        let mut better = sample_row();
        better.accuracy += 0.01;
        better.total_cycles -= 10_000;
        better.best_energy -= 5;
        assert!(compare(&base, &[better], Tolerance::default(), true).is_empty());
    }

    #[test]
    fn small_drift_within_tolerance_passes() {
        let base = vec![sample_row()];
        let mut drift = sample_row();
        drift.accuracy -= 0.015;
        drift.total_cycles = (drift.total_cycles as f64 * 1.2) as u64;
        drift.best_energy += 2;
        assert!(compare(&base, &[drift], Tolerance::default(), true).is_empty());
    }
}
