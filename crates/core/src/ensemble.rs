//! Thread-safe per-replica performance accounting for parallel
//! replica ensembles.
//!
//! The functional machines report cycle/energy accounting through
//! [`RunReport`]; when [`sachi_ising::ensemble::EnsembleRunner`] fans
//! replicas out over worker threads, those reports arrive from many
//! threads in completion order. [`ReplicaLedger`] collects them into
//! replica-indexed slots behind a mutex, and [`EnsembleReport`] folds
//! them into the aggregate the multicore cross-check needs: serial
//! cycle cost, critical-path cycle cost at a given thread count, and a
//! merged energy ledger. `disc_multicore` and `fig17_scalability`
//! compare the resulting replica-parallel speedups against
//! [`crate::multicore::MulticoreModel`]'s partition-parallel estimates.

use crate::machine::{RunReport, SachiMachine};
use sachi_ising::graph::IsingGraph;
use sachi_ising::solver::{IterativeSolver, SolveOptions, SolveResult};
use sachi_ising::spin::SpinVector;
use sachi_mem::energy::EnergyLedger;
use sachi_mem::units::convert::{count_u64, ratio_u64};
use sachi_mem::units::Cycles;
use sachi_obs::MetricsRegistry;
use std::sync::Mutex;

/// Anything that can run the solve protocol *and* report accounting —
/// the functional machines, as opposed to the golden CPU solver.
pub trait DetailedSolver {
    /// Runs the solve and returns the outcome plus its [`RunReport`].
    fn solve_with_report(
        &mut self,
        graph: &IsingGraph,
        initial: &SpinVector,
        options: &SolveOptions,
    ) -> (SolveResult, RunReport);
}

impl DetailedSolver for SachiMachine {
    fn solve_with_report(
        &mut self,
        graph: &IsingGraph,
        initial: &SpinVector,
        options: &SolveOptions,
    ) -> (SolveResult, RunReport) {
        self.solve_detailed(graph, initial, options)
    }
}

impl DetailedSolver for crate::tiled::ResidentN3Machine {
    fn solve_with_report(
        &mut self,
        graph: &IsingGraph,
        initial: &SpinVector,
        options: &SolveOptions,
    ) -> (SolveResult, RunReport) {
        self.solve_detailed(graph, initial, options)
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
    /// report. Public so external schedulers — the `sachi serve` job
    /// pool packs replicas from different jobs onto one worker pool —
    /// apply the exact fold [`ReplicaLedger::finish`] applies, keeping
    /// reports byte-identical regardless of which host ran the
    /// replicas.
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

/// An [`IterativeSolver`] adapter that runs a [`DetailedSolver`] and
/// deposits its [`RunReport`] into a [`ReplicaLedger`] — the factory
/// product that lets `EnsembleRunner::run` drive hardware machines
/// while their accounting is folded thread-safely on the side.
#[derive(Debug)]
pub struct ReportingMachine<'a, M: DetailedSolver> {
    machine: M,
    replica: usize,
    ledger: &'a ReplicaLedger,
}

impl<'a, M: DetailedSolver> ReportingMachine<'a, M> {
    /// Wraps `machine` as replica `replica`, reporting into `ledger`.
    pub fn new(machine: M, replica: usize, ledger: &'a ReplicaLedger) -> Self {
        ReportingMachine {
            machine,
            replica,
            ledger,
        }
    }
}

impl<M: DetailedSolver> IterativeSolver for ReportingMachine<'_, M> {
    fn solve(
        &mut self,
        graph: &IsingGraph,
        initial: &SpinVector,
        options: &SolveOptions,
    ) -> SolveResult {
        let (result, report) = self.machine.solve_with_report(graph, initial, options);
        self.ledger.record(self.replica, report);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DesignKind, SachiConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sachi_ising::ensemble::EnsembleRunner;
    use sachi_ising::graph::topology;
    use sachi_ising::solver::CpuReferenceSolver;

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
        let ledger = ReplicaLedger::new(replicas);
        let config = SachiConfig::new(DesignKind::N3);
        let best_of = EnsembleRunner::new(replicas)
            .with_threads(4)
            .run(&g, &init, &opts, |k| {
                ReportingMachine::new(SachiMachine::new(config.clone()), k, &ledger)
            });
        // Machines through the threaded ensemble equal the sequential
        // golden ensemble bit-for-bit.
        let mut golden = CpuReferenceSolver::new();
        let reference = EnsembleRunner::new(replicas).run_sequential(&mut golden, &g, &init, &opts);
        assert_eq!(best_of, reference);

        let report = ledger.finish();
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
        let ledger = ReplicaLedger::new(4);
        let config = SachiConfig::new(DesignKind::N2);
        let _ = EnsembleRunner::new(4)
            .with_threads(2)
            .run(&g, &init, &opts, |k| {
                ReportingMachine::new(SachiMachine::new(config.clone()), k, &ledger)
            });
        let report = ledger.finish();
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
