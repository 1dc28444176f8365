//! Replica ensembles of SACHI machines (independent restarts, Sec. V;
//! replicas on several cores, Sec. IV.B.2): [`run_ensemble`] runs every
//! one, for `sachi solve`, the daemon, `sachi compare`, the harnesses
//! and the tests. Independent replicas are pure [`run_replica`] calls
//! folded by [`JobOutcome::reduce`], as the `sachi serve` pool folds
//! the replicas it runs itself; tempered rungs run the exchange engine
//! on [`ReportingMachine`]s, and a [`ReplicaLedger`] merges each rung's
//! segment reports. [`EnsembleReport`]'s serial and critical-path cycle
//! costs feed the multicore cross-check (`disc_multicore`,
//! `fig17_scalability`).

use crate::config::SachiConfig;
use crate::error::SachiError;
use crate::machine::{RunReport, SachiMachine};
use sachi_ising::ensemble::{BestOf, EnsembleRunner};
use sachi_ising::graph::IsingGraph;
use sachi_ising::recovery::RecoveryPolicy;
use sachi_ising::solver::{IterativeSolver, SolveOptions, SolveResult};
use sachi_ising::spin::SpinVector;
use sachi_mem::energy::EnergyLedger;
use sachi_mem::units::convert::{count_u64, ratio_u64};
use sachi_mem::units::Cycles;
use sachi_obs::MetricsRegistry;
use std::sync::Mutex;

/// Runs `replicas` SACHI replicas of one problem on `threads` workers
/// (0 = every core) and folds them into an unscored outcome (`accuracy`
/// is NaN); with [`SolveOptions::tempering`] set they are coupled rungs.
/// The outcome is the same at any thread count.
///
/// # Panics
///
/// Panics if `replicas == 0` or a machine panics.
pub fn run_ensemble(
    config: &SachiConfig,
    graph: &IsingGraph,
    initial: &SpinVector,
    options: &SolveOptions,
    replicas: usize,
    threads: usize,
) -> JobOutcome {
    let runner = EnsembleRunner::new(replicas).with_threads(worker_threads(threads));
    if options.tempering.is_none() {
        return JobOutcome::reduce(runner.map(|k| run_replica(config, graph, initial, options, k)));
    }
    let ledger = ReplicaLedger::new(replicas);
    let best = runner.run(graph, initial, options, |k| {
        ReportingMachine::new(SachiMachine::new(config.clone()), k, &ledger)
    });
    JobOutcome {
        best,
        report: ledger.finish(),
        accuracy: f64::NAN,
    }
}

/// Runs independent replica `k` on a fresh machine, with the seed
/// [`EnsembleRunner::replica_options`] derives. Pure in its arguments,
/// so the `sachi serve` pool may run it on any worker at any
/// co-tenancy: the multi-tenant determinism contract rests on it.
pub fn run_replica(
    config: &SachiConfig,
    graph: &IsingGraph,
    initial: &SpinVector,
    options: &SolveOptions,
    k: usize,
) -> (SolveResult, RunReport) {
    let options = EnsembleRunner::replica_options(options, k);
    SachiMachine::new(config.clone()).solve_detailed(graph, initial, &options)
}

/// The worker count for a requested thread count: 0 means every
/// available core.
pub fn worker_threads(requested: usize) -> usize {
    if requested == 0 {
        EnsembleRunner::available_threads()
    } else {
        requested
    }
}

/// The completed job: ensemble verdict, folded report, and the domain
/// accuracy of the winning spins.
#[derive(Debug)]
pub struct JobOutcome {
    /// Per-replica results and the ensemble verdict.
    pub best: BestOf,
    /// Folded per-replica reports (cycles, energy, fault aggregates).
    pub report: EnsembleReport,
    /// Domain accuracy of the best replica's spins (1.0 = optimal; NaN
    /// when nothing scored it, see
    /// [`JobPlan::is_scored`](crate::serve::JobPlan::is_scored)).
    pub accuracy: f64,
}

impl JobOutcome {
    /// Folds independent replicas' `(result, report)` pairs, in replica
    /// order, into an unscored outcome: the one fold, wherever they ran.
    pub fn reduce(pairs: Vec<(SolveResult, RunReport)>) -> Self {
        let (results, reports): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
        JobOutcome {
            best: BestOf::reduce(results),
            report: EnsembleReport::fold(reports),
            accuracy: f64::NAN,
        }
    }

    /// The metrics snapshot `sachi solve --metrics` exports: the folded
    /// ensemble registry plus every replica's solver counters, in
    /// replica order (thread-count unobservable).
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = self.report.metrics();
        for r in &self.best.replicas {
            r.export_metrics(&mut reg);
        }
        for (name, value) in self.best.stats.export_tempering_metrics() {
            reg.counter_add(name, value);
        }
        reg
    }

    /// The typed fault verdict `sachi solve` exits with, when fault
    /// injection was configured: fail-fast detection maps to
    /// [`SachiError::FaultDetected`], a fully-degraded ensemble to
    /// [`SachiError::FaultBudgetExhausted`]. `None` means the job
    /// solved despite (or without) faults.
    pub fn fault_error(&self, policy: RecoveryPolicy) -> Option<SachiError> {
        if policy == RecoveryPolicy::FailFast && self.report.degraded_replicas > 0 {
            return Some(SachiError::FaultDetected {
                detected: self.report.faults_detected,
            });
        }
        let replicas = u64::try_from(self.best.replicas.len()).unwrap_or(u64::MAX);
        if self.report.degraded_replicas >= replicas {
            return Some(SachiError::FaultBudgetExhausted {
                degraded: self.report.degraded_replicas,
                replicas,
            });
        }
        None
    }
}

/// Thread-safe collection point for per-replica [`RunReport`]s.
///
/// Reports land in the slot named by their replica index, so the
/// finished aggregate is independent of completion order — the same
/// rule the ensemble engine applies to [`SolveResult`]s.
#[derive(Debug)]
pub struct ReplicaLedger {
    slots: Mutex<Vec<Option<RunReport>>>,
}

impl ReplicaLedger {
    /// Creates a ledger with one empty slot per replica.
    ///
    /// # Panics
    ///
    /// Panics if `replicas == 0`.
    pub fn new(replicas: usize) -> Self {
        assert!(replicas > 0, "need at least one replica");
        ReplicaLedger {
            slots: Mutex::new(vec![None; replicas]),
        }
    }

    /// Records `report` as replica `replica`'s accounting. Callable from
    /// any worker thread.
    ///
    /// A replica that reports more than once — a parallel-tempering rung
    /// runs one constant-temperature solve segment per exchange round,
    /// all through the one [`ReportingMachine`] the engine keeps for
    /// that rung — has its reports merged with [`RunReport::absorb`],
    /// so the slot holds the rung's whole-run accounting. Segments
    /// arrive in round order within one rung (the tempering engine
    /// barriers between rounds), so the merge is deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range.
    pub fn record(&self, replica: usize, report: RunReport) {
        let mut slots = self
            .slots
            .lock()
            .expect("replica ledger mutex poisoned: a replica panicked");
        assert!(replica < slots.len(), "replica index within ledger");
        match &mut slots[replica] {
            Some(existing) => existing.absorb(&report),
            empty => *empty = Some(report),
        }
    }

    /// Folds the collected reports into an [`EnsembleReport`].
    ///
    /// # Panics
    ///
    /// Panics if any replica never reported.
    pub fn finish(self) -> EnsembleReport {
        let reports: Vec<RunReport> = self
            .slots
            .into_inner()
            .expect("replica ledger mutex poisoned: a replica panicked")
            .into_iter()
            .map(|slot| slot.expect("every replica records a report"))
            .collect();
        EnsembleReport::fold(reports)
    }
}

/// Aggregate accounting over every replica of an ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleReport {
    /// Per-replica reports, in replica order.
    pub reports: Vec<RunReport>,
    /// Sum of every replica's critical-path cycles — the cost of running
    /// the ensemble on one core.
    pub serial_cycles: Cycles,
    /// The longest single replica — the critical path with unlimited
    /// parallelism.
    pub max_replica_cycles: Cycles,
    /// Merged per-component energy across replicas (parallelism moves
    /// work in time, not in joules).
    pub energy: EnergyLedger,
    /// Parity detections summed over every replica.
    pub faults_detected: u64,
    /// Injected transient flips summed over every replica.
    pub faults_injected: u64,
    /// Recovery re-fetches summed over every replica.
    pub fault_retries: u64,
    /// Replicas whose fault recovery gave up (degraded or aborted).
    pub degraded_replicas: u64,
}

impl EnsembleReport {
    /// Folds per-replica reports (in replica order) into the ensemble
    /// report: the fold both [`JobOutcome::reduce`] and
    /// [`ReplicaLedger::finish`] apply, so a report is byte-identical
    /// whichever path or host ran the replicas.
    pub fn fold(reports: Vec<RunReport>) -> Self {
        let mut serial = Cycles::ZERO;
        let mut longest = Cycles::ZERO;
        let mut energy = EnergyLedger::new();
        let mut faults_detected = 0u64;
        let mut faults_injected = 0u64;
        let mut fault_retries = 0u64;
        let mut degraded_replicas = 0u64;
        for report in &reports {
            serial += report.total_cycles;
            longest = longest.max(report.total_cycles);
            energy.merge(&report.energy);
            faults_detected += report.faults.detected;
            faults_injected += report.faults.injected_flips;
            fault_retries += report.faults.retries;
            degraded_replicas += u64::from(report.faults.degraded);
        }
        EnsembleReport {
            reports,
            serial_cycles: serial,
            max_replica_cycles: longest,
            energy,
            faults_detected,
            faults_injected,
            fault_retries,
            degraded_replicas,
        }
    }

    /// Critical-path cycles of a deterministic longest-first-free
    /// schedule of the replicas over `threads` workers: replicas are
    /// assigned in replica order to the least-loaded worker. This is the
    /// model-side cost a `T`-thread ensemble run should approach.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn scheduled_cycles(&self, threads: usize) -> Cycles {
        assert!(threads > 0, "need at least one thread");
        let mut loads = vec![Cycles::ZERO; threads.min(self.reports.len()).max(1)];
        for report in &self.reports {
            let lightest = loads
                .iter_mut()
                .min_by_key(|c| c.get())
                .expect("at least one worker load slot");
            *lightest += report.total_cycles;
        }
        loads
            .into_iter()
            .max_by_key(|c| c.get())
            .unwrap_or(Cycles::ZERO)
    }

    /// Modeled replica-parallel speedup at `threads` workers:
    /// serial cycles over scheduled critical-path cycles. Replicas of
    /// equal length approach `min(threads, replicas)`; this is the
    /// number the measured wall-clock speedup is cross-checked against.
    pub fn ideal_speedup(&self, threads: usize) -> f64 {
        self.serial_cycles.ratio(self.scheduled_cycles(threads))
    }

    /// Folds every replica's metrics into one registry.
    ///
    /// Replicas are walked in **index order**, so the snapshot is a pure
    /// function of the replica set: counters and histograms add, and the
    /// run-level gauges (energy, reuse) are recomputed here from the
    /// folded totals. Worker-thread count is provably unobservable —
    /// the ensemble conformance proptest pins exactly that.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        for report in &self.reports {
            report.export_metrics(&mut reg);
        }
        // Ensemble-level aggregates, replacing the "last replica wins"
        // gauges the sequential export left behind.
        self.energy.export(&mut reg);
        let rwl = reg.counter("machine_rwl_bits_fetched");
        if rwl > 0 {
            reg.gauge_set(
                "machine_reuse",
                ratio_u64(reg.counter("machine_xnor_ops"), rwl),
            );
        }
        reg.counter_add("ensemble_replicas", count_u64(self.reports.len()));
        reg.counter_add("ensemble_serial_cycles", self.serial_cycles.get());
        reg.counter_add("ensemble_max_replica_cycles", self.max_replica_cycles.get());
        reg
    }
}

/// An [`IterativeSolver`] adapter that runs a [`SachiMachine`] and
/// deposits its [`RunReport`] into a [`ReplicaLedger`] — the factory
/// product that lets `EnsembleRunner::run` drive hardware machines
/// while their accounting is folded thread-safely on the side.
/// [`run_ensemble`] runs its tempered rungs on it.
#[derive(Debug)]
pub struct ReportingMachine<'a> {
    machine: SachiMachine,
    replica: usize,
    ledger: &'a ReplicaLedger,
}

impl<'a> ReportingMachine<'a> {
    /// Wraps `machine` as replica `replica`, reporting into `ledger`.
    pub fn new(machine: SachiMachine, replica: usize, ledger: &'a ReplicaLedger) -> Self {
        ReportingMachine {
            machine,
            replica,
            ledger,
        }
    }
}

impl IterativeSolver for ReportingMachine<'_> {
    fn solve(
        &mut self,
        graph: &IsingGraph,
        initial: &SpinVector,
        options: &SolveOptions,
    ) -> SolveResult {
        let (result, report) = self.machine.solve_detailed(graph, initial, options);
        self.ledger.record(self.replica, report);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DesignKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sachi_ising::graph::topology;

    fn setup() -> (IsingGraph, SpinVector, SolveOptions) {
        let g = topology::king(8, 8, |i, j| ((i + 2 * j) % 5) as i32 - 2).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let init = SpinVector::random(64, &mut rng);
        let opts = SolveOptions::for_graph(&g, 13).with_max_sweeps(40);
        (g, init, opts)
    }

    #[test]
    fn parallel_machine_ensemble_matches_golden_and_folds_reports() {
        let (g, init, opts) = setup();
        let replicas = 5;
        let config = SachiConfig::new(DesignKind::N3);
        let outcome = run_ensemble(&config, &g, &init, &opts, replicas, 4);
        let (best_of, report) = (outcome.best, outcome.report);
        // Machines through the threaded ensemble equal the one-thread
        // golden ensemble bit-for-bit.
        let reference = EnsembleRunner::new(replicas)
            .with_threads(1)
            .run_reference(&g, &init, &opts);
        assert_eq!(best_of, reference);

        assert_eq!(report.reports.len(), replicas);
        let sum: Cycles = report.reports.iter().map(|r| r.total_cycles).sum();
        assert_eq!(report.serial_cycles, sum);
        assert!(report.max_replica_cycles <= report.serial_cycles);
        assert!(report.energy.total() >= report.reports[0].energy.total());
        // Replica order in the ledger matches replica sweep counts.
        for (r, rep) in best_of.replicas.iter().zip(&report.reports) {
            assert_eq!(r.sweeps, rep.sweeps);
        }
    }

    #[test]
    fn scheduled_cycles_interpolate_between_serial_and_critical_path() {
        let (g, init, opts) = setup();
        let config = SachiConfig::new(DesignKind::N2);
        let report = run_ensemble(&config, &g, &init, &opts, 4, 2).report;
        assert_eq!(report.scheduled_cycles(1), report.serial_cycles);
        let two = report.scheduled_cycles(2);
        assert!(two <= report.serial_cycles && two >= report.max_replica_cycles);
        // Speedup is monotone and bounded by the replica count.
        let s1 = report.ideal_speedup(1);
        let s4 = report.ideal_speedup(4);
        assert!((s1 - 1.0).abs() < 1e-12);
        assert!(s4 >= s1 && s4 <= 4.0 + 1e-12);
        // More threads than replicas change nothing.
        assert_eq!(report.scheduled_cycles(64), report.scheduled_cycles(4));
    }

    #[test]
    fn repeated_records_merge_segment_reports() {
        let (g, init, opts) = setup();
        let ledger = ReplicaLedger::new(1);
        let mut m = SachiMachine::new(SachiConfig::new(DesignKind::N1a));
        let (_, report) = m.solve_detailed(&g, &init, &opts);
        ledger.record(0, report.clone());
        ledger.record(0, report.clone());
        let folded = ledger.finish();
        let merged = &folded.reports[0];
        assert_eq!(merged.sweeps, 2 * report.sweeps);
        assert_eq!(
            merged.total_cycles,
            report.total_cycles + report.total_cycles
        );
        assert_eq!(merged.xnor_ops, 2 * report.xnor_ops);
        // Peaks take the max, ratios are recomputed — not doubled.
        assert_eq!(merged.queue_peak_bits, report.queue_peak_bits);
        assert!((merged.reuse - report.reuse).abs() < 1e-9);
        assert!(merged.energy.total() > report.energy.total());
    }

    #[test]
    #[should_panic(expected = "replica index within ledger")]
    fn out_of_range_record_rejected() {
        let (g, init, opts) = setup();
        let ledger = ReplicaLedger::new(1);
        let mut m = SachiMachine::new(SachiConfig::new(DesignKind::N1a));
        let (_, report) = m.solve_detailed(&g, &init, &opts);
        ledger.record(1, report);
    }
}
