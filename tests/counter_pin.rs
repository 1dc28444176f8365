//! The compute counters pinned byte for byte: every design's `sachi
//! solve --metrics json` snapshot (the registry `JobOutcome::metrics`
//! exports, rendered by `write_snapshot`) on six jobs, against
//! `tests/golden/counter_pin.txt`.
//!
//! The faulted goldens in `plane_equivalence.rs` pin tile stats and
//! energy; this table also pins what the machine's `ComputeContext`
//! reports — `machine_xnor_ops`, `machine_rwl_bits_fetched`,
//! `machine_queue_peak_bits`, `machine_reuse` — together with every
//! other counter, gauge and histogram of the snapshot. The jobs:
//!
//! * `md 64` and `coloring 24`, one replica;
//! * `md 64` at read BER 1e-4 under fail-fast: every design aborts in
//!   the middle of its second sweep's only round;
//! * `md 64` at read BER 1e-3 under `retry` (three re-fetches): parity
//!   misses some even flip counts, so the job pins the aliased field the
//!   decision sees (`recovery_undetected` > 0) as well as the re-fetches;
//! * `md 64` on a compute array that holds a few tuples (multi-round
//!   sweeps), clean and under the same fail-fast fault, which cuts a
//!   round short;
//! * a tempered 3-SAT job of four rungs.
//!
//! The table is each job's label after `== `, followed by its snapshot.
//! Print it for the current tree (only when a change means to move a
//! counter, and says so on record), between the test harness's own
//! lines, with
//! `cargo test -q --test counter_pin -- --ignored --nocapture --exact print_table`.

use sachi::obs::json::write_snapshot;
use sachi::prelude::*;

/// A compute array of one 2-row, 64-bit tile: `md 64` needs several
/// rounds per sweep on every design.
fn tiny_hierarchy() -> CacheHierarchy {
    CacheHierarchy {
        compute: CacheGeometry::new(1, 2, 64, 1),
        storage: CacheGeometry::sachi_storage_default(),
    }
}

/// The jobs of one design, in table order: `(label, spec, tiny)`.
fn jobs(design: DesignKind) -> Vec<(String, JobSpec, bool)> {
    let md = JobSpec {
        cop: CopKind::MolecularDynamics,
        size: 64,
        design,
        ..JobSpec::default()
    };
    let failfast = JobSpec {
        fault_ber: Some(1e-4),
        fault_policy: RecoveryPolicy::FailFast,
        ..md.clone()
    };
    let retry = JobSpec {
        fault_ber: Some(1e-3),
        fault_policy: RecoveryPolicy::RefetchRetry { max_retries: 3 },
        ..md.clone()
    };
    let coloring = JobSpec {
        cop: CopKind::GraphColoring,
        size: 24,
        ..md.clone()
    };
    let tempered = JobSpec {
        cop: CopKind::SatThree,
        size: 8,
        restarts: 4,
        step_budget: Some(20_000),
        tempering: true,
        ..md.clone()
    };
    let key = design.key();
    vec![
        (format!("{key} md 64"), md.clone(), false),
        (format!("{key} coloring 24"), coloring, false),
        (
            format!("{key} md 64 ber 1e-4 failfast"),
            failfast.clone(),
            false,
        ),
        (format!("{key} md 64 ber 1e-3 retry"), retry, false),
        (format!("{key} md 64 tiny"), md, true),
        (
            format!("{key} md 64 tiny ber 1e-4 failfast"),
            failfast,
            true,
        ),
        (
            format!("{key} sat 8 tempered x4 budget 20000"),
            tempered,
            false,
        ),
    ]
}

/// Runs one job on one thread and returns its table entry.
fn entry(label: &str, spec: &JobSpec, tiny: bool) -> String {
    let mut plan = JobPlan::from_spec(spec).expect("pinned jobs lower");
    if tiny {
        plan = plan.with_hierarchy(tiny_hierarchy());
    }
    let outcome = plan.run(1);
    format!("== {label}\n{}", write_snapshot(&outcome.metrics(), &[]))
}

/// Every entry of the table for the current tree.
fn table() -> Vec<String> {
    DesignKind::ALL
        .into_iter()
        .flat_map(jobs)
        .map(|(label, spec, tiny)| entry(&label, &spec, tiny))
        .collect()
}

#[test]
fn compute_counters_match_the_pinned_table() {
    let golden = include_str!("golden/counter_pin.txt");
    let want: Vec<String> = golden
        .split("== ")
        .skip(1)
        .map(|e| format!("== {e}"))
        .collect();
    let got = table();
    assert_eq!(got.len(), want.len(), "table size");
    for (got, want) in got.iter().zip(&want) {
        assert_eq!(got, want);
    }
}

/// The fail-fast jobs do abort, the retry job does alias past parity,
/// and the tiny hierarchy does split every sweep into rounds: otherwise
/// the table would pin neither a cut round, nor an aliased field, nor a
/// multi-round sweep.
#[test]
fn the_pinned_jobs_abort_and_split_as_labelled() {
    for design in DesignKind::ALL {
        for (label, spec, tiny) in jobs(design) {
            let mut plan = JobPlan::from_spec(&spec).expect("pinned jobs lower");
            if tiny {
                plan = plan.with_hierarchy(tiny_hierarchy());
            }
            let (result, report) = plan.run_replica(0);
            let failfast =
                spec.fault_ber.is_some() && spec.fault_policy == RecoveryPolicy::FailFast;
            assert_eq!(result.degraded, failfast, "{label}: fail-fast abort");
            if spec.fault_ber.is_some() && !failfast {
                assert!(report.faults.undetected > 0, "{label}: parity aliases");
            }
            if tiny {
                assert!(report.rounds_per_sweep > 1, "{label}: rounds per sweep");
            }
        }
    }
}

#[test]
#[ignore = "prints the table for the current tree"]
fn print_table() {
    for e in table() {
        print!("{e}");
    }
}
