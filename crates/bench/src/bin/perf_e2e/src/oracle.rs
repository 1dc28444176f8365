//! What the front ends report, and the correctness oracle that checks it.
//!
//! Sampled jobs are checked twice, outside the timed window: the front
//! end's numbers must equal the in-process `JobPlan::run_solo`, and for
//! uncoupled jobs the best replica must equal the golden
//! `CpuReferenceSolver` run with that replica's options.

use crate::jobs::Job;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sachi_core::prelude::{JobOutcome, JobPlan, JobSpec, SachiConfig, INIT_SEED_SALT};
use sachi_ising::prelude::{
    CpuReferenceSolver, EnsembleRunner, IsingGraph, IterativeSolver, SolveOptions, Spin,
    SpinVector, TemperingOptions,
};
use sachi_obs::json::{parse, JsonValue};

/// How a front end printed the job's domain accuracy.
#[derive(Debug, Clone, PartialEq)]
pub enum Accuracy {
    /// The daemon's reply: the exact `f64`.
    Exact(f64),
    /// `sachi solve`'s report line, as printed (e.g. `95.1%`).
    Printed(String),
}

impl Accuracy {
    /// The value as a fraction (a printed percentage loses its
    /// rounding).
    pub fn value(&self) -> Option<f64> {
        match self {
            Accuracy::Exact(v) => Some(*v),
            Accuracy::Printed(text) => text
                .strip_suffix('%')?
                .parse::<f64>()
                .ok()
                .map(|p| p / 100.0),
        }
    }
}

/// The numbers a front end reported for one job.
#[derive(Debug, Clone, PartialEq)]
pub struct Reported {
    /// Best replica's final energy.
    pub energy: i64,
    /// Best replica's sweeps.
    pub sweeps: u64,
    /// Best replica's simulated `total_cycles`.
    pub total_cycles: u64,
    /// Index of the best replica.
    pub best_index: usize,
    /// Domain accuracy of the best replica.
    pub accuracy: Accuracy,
    /// Best replica's flips (the daemon reports them).
    pub flips: Option<u64>,
    /// Best replica's spins as `+`/`-` (the daemon reports them).
    pub spins: Option<String>,
}

fn num(doc: &JsonValue, path: &[&str]) -> Result<f64, String> {
    let mut v = doc;
    for key in path {
        v = v
            .get(key)
            .ok_or_else(|| format!("reply lacks {}", path.join(".")))?;
    }
    v.as_num()
        .ok_or_else(|| format!("reply field {} is not a number", path.join(".")))
}

/// Parses a daemon `solve` reply.
///
/// # Errors
///
/// Not JSON, an error reply, or a missing field.
pub fn parse_reply(reply: &str) -> Result<Reported, String> {
    let doc = parse(reply).map_err(|e| format!("reply is not JSON: {e}"))?;
    if doc.get("status").and_then(JsonValue::as_str) != Some("ok") {
        return Err(format!("error reply: {reply}"));
    }
    let spins = doc
        .get("result")
        .and_then(|r| r.get("spins"))
        .and_then(JsonValue::as_str)
        .ok_or("reply lacks result.spins")?;
    Ok(Reported {
        energy: num(&doc, &["result", "energy"])? as i64,
        sweeps: num(&doc, &["result", "sweeps"])? as u64,
        total_cycles: num(&doc, &["report", "total_cycles"])? as u64,
        best_index: num(&doc, &["result", "best_replica"])? as usize,
        accuracy: Accuracy::Exact(num(&doc, &["accuracy"])?),
        flips: Some(num(&doc, &["result", "flips"])? as u64),
        spins: Some(spins.to_string()),
    })
}

/// The first token after `marker` on the first report line that starts
/// with `line`, parsed.
fn field<T: std::str::FromStr>(report: &str, line: &str, marker: &str) -> Result<T, String> {
    report
        .lines()
        .find(|l| l.starts_with(line))
        .and_then(|l| l.split_once(marker))
        .and_then(|(_, rest)| {
            rest.split(|c: char| c.is_whitespace() || c == ',' || c == ')')
                .next()
        })
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| format!("cannot read `{marker}` on the report's `{line}` line"))
}

/// Parses `sachi solve`'s human report.
///
/// # Errors
///
/// A report line is missing or malformed.
pub fn parse_report(stdout: &str) -> Result<Reported, String> {
    Ok(Reported {
        energy: field(stdout, "result  :", "H = ")?,
        sweeps: field(stdout, "result  :", "(")?,
        total_cycles: field(stdout, "cycles  :", "cycles  : ")?,
        best_index: field(stdout, "ensemble:", "best: replica ")?,
        accuracy: Accuracy::Printed(field(stdout, "accuracy:", "accuracy: ")?),
        flips: None,
        spins: None,
    })
}

/// The total `solver_flips` counter of a `sachi solve --metrics json`
/// snapshot.
///
/// # Errors
///
/// Not a snapshot, or no such counter.
pub fn snapshot_flips(snapshot: &str) -> Result<u64, String> {
    let doc = parse(snapshot).map_err(|e| format!("snapshot is not JSON: {e}"))?;
    Ok(num(&doc, &["counters", "solver_flips"])? as u64)
}

/// The initial spins and base options `JobPlan::from_spec` derives for
/// `spec` on `graph` (the init stream is `seed ^ INIT_SEED_SALT`, the
/// annealer seed `seed + 1`).
pub fn lower(spec: &JobSpec, graph: &IsingGraph) -> (SpinVector, SolveOptions) {
    let mut rng = StdRng::seed_from_u64(spec.seed ^ INIT_SEED_SALT);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let mut options = SolveOptions::for_graph(graph, spec.seed.wrapping_add(1));
    if let Some(budget) = spec.step_budget {
        options = options.with_step_budget(budget);
    }
    if spec.tempering {
        let rungs = usize::try_from(spec.restarts).expect("restart counts are small");
        options = options.with_tempering(TemperingOptions::for_graph(spec.ladder, graph, rungs));
    }
    (init, options)
}

/// The machine configuration of `spec`.
pub fn config(spec: &JobSpec) -> SachiConfig {
    let config = SachiConfig::new(spec.design);
    match spec.resolution {
        Some(r) => config.with_resolution(r),
        None => config,
    }
}

/// Spins as the daemon prints them.
fn spin_string(spins: &SpinVector) -> String {
    spins
        .iter()
        .map(|s| if s == Spin::Up { '+' } else { '-' })
        .collect()
}

/// Checks one sampled job: the front end against `run_solo`, and the
/// best replica against the golden CPU solver. `total_flips` is the
/// one-shot front end's `solver_flips` counter (summed over replicas).
/// Returns one line per mismatch.
pub fn check(job: &Job, reported: &Reported, total_flips: Option<u64>) -> Vec<String> {
    let plan = match JobPlan::from_spec(&job.spec) {
        Ok(plan) => plan,
        Err(e) => return vec![format!("job {}: plan: {e}", job.index)],
    };
    let solo: JobOutcome = plan.run_solo();
    let best = solo.best.best();
    let best_cycles = solo
        .report
        .reports
        .get(solo.best.best_index)
        .map(|r| r.total_cycles.get());
    let mut bad = Vec::new();
    let mut expect = |what: &str, got: String, want: String| {
        if got != want {
            bad.push(format!(
                "job {}: {what}: front end {got}, run_solo {want}",
                job.index
            ));
        }
    };
    expect(
        "energy",
        reported.energy.to_string(),
        best.energy.to_string(),
    );
    expect(
        "sweeps",
        reported.sweeps.to_string(),
        best.sweeps.to_string(),
    );
    expect(
        "best replica",
        reported.best_index.to_string(),
        solo.best.best_index.to_string(),
    );
    expect(
        "total_cycles",
        reported.total_cycles.to_string(),
        best_cycles.map_or_else(|| "missing".to_string(), |c| c.to_string()),
    );
    let want_accuracy = match reported.accuracy {
        Accuracy::Exact(_) => Accuracy::Exact(solo.accuracy),
        Accuracy::Printed(_) => Accuracy::Printed(sachi_bench::percent(solo.accuracy)),
    };
    expect(
        "accuracy",
        format!("{:?}", reported.accuracy),
        format!("{want_accuracy:?}"),
    );
    if let Some(flips) = reported.flips {
        expect("flips", flips.to_string(), best.flips.to_string());
    }
    if let Some(flips) = total_flips {
        expect(
            "total flips",
            flips.to_string(),
            solo.best.stats.total_flips.to_string(),
        );
    }
    if let Some(spins) = &reported.spins {
        expect("spins", spins.clone(), spin_string(&best.spins));
    }
    if !plan.is_coupled() {
        let (init, options) = lower(&job.spec, plan.graph());
        let replica = EnsembleRunner::replica_options(&options, solo.best.best_index);
        let golden = CpuReferenceSolver::new().solve(plan.graph(), &init, &replica);
        let mut expect_golden = |what: &str, got: String, want: String| {
            if got != want {
                bad.push(format!(
                    "job {}: {what}: run_solo {got}, golden {want}",
                    job.index
                ));
            }
        };
        expect_golden("energy", best.energy.to_string(), golden.energy.to_string());
        expect_golden("sweeps", best.sweeps.to_string(), golden.sweeps.to_string());
        expect_golden("flips", best.flips.to_string(), golden.flips.to_string());
        expect_golden(
            "spins",
            spin_string(&best.spins),
            spin_string(&golden.spins),
        );
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = "problem : molecular-dynamics(91x91, R=4, seed=5) (8281 spins, 32580 edges, max degree 8, needs 4-bit ICs)
design  : SACHI(n3)
ensemble: 2 replicas over 2 threads (best: replica 1, 2 converged, 110 sweeps total)
result  : H = -92603  (55 iterations, converged: true)
accuracy: 95.1%
cycles  : 30022 total (28765 compute, 428 loading, 1 rounds/iter)
";

    #[test]
    fn reads_the_one_shot_report() {
        let r = parse_report(REPORT).unwrap();
        assert_eq!(r.energy, -92603);
        assert_eq!(r.sweeps, 55);
        assert_eq!(r.total_cycles, 30022);
        assert_eq!(r.best_index, 1);
        assert_eq!(r.accuracy, Accuracy::Printed("95.1%".to_string()));
        assert!((r.accuracy.value().unwrap() - 0.951).abs() < 1e-12);
        assert!(parse_report("result  : H = x").is_err());
    }

    #[test]
    fn reads_a_daemon_reply() {
        let reply = "{\"schema\":\"sachi.serve.v1\",\"status\":\"ok\",\"op\":\"solve\",\
            \"result\":{\"energy\":-12,\"sweeps\":9,\"converged\":true,\"flips\":31,\
            \"best_replica\":2,\"spins\":\"+-+\"},\"report\":{\"total_cycles\":777},\
            \"accuracy\":0.8333333333333334}";
        let r = parse_reply(reply).unwrap();
        assert_eq!(
            (r.energy, r.sweeps, r.total_cycles, r.best_index),
            (-12, 9, 777, 2)
        );
        assert_eq!(r.flips, Some(31));
        assert_eq!(r.accuracy, Accuracy::Exact(0.8333333333333334));
        assert_eq!(r.spins.as_deref(), Some("+-+"));
        assert!(parse_reply("{\"status\":\"error\",\"code\":5}").is_err());
    }

    #[test]
    fn a_perturbed_result_is_caught() {
        let job = crate::jobs::Workload::ServeSmall.job(1, 6);
        let plan = JobPlan::from_spec(&job.spec).unwrap();
        let solo = plan.run_solo();
        let best = solo.best.best();
        let honest = Reported {
            energy: best.energy,
            sweeps: best.sweeps,
            total_cycles: solo.report.reports[solo.best.best_index].total_cycles.get(),
            best_index: solo.best.best_index,
            accuracy: Accuracy::Exact(solo.accuracy),
            flips: Some(best.flips),
            spins: Some(spin_string(&best.spins)),
        };
        assert_eq!(check(&job, &honest, None), Vec::<String>::new());
        let perturbed = Reported {
            energy: honest.energy + 1,
            ..honest
        };
        assert_eq!(check(&job, &perturbed, None).len(), 1);
    }
}
