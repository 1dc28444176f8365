//! Scale stress: the functional machines at tens of thousands of spins —
//! the path that licenses the analytic model at millions. These run in
//! release CI in seconds; the `#[ignore]`d giant run is a manual soak.

mod support;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sachi::prelude::*;
use support::tiled::ResidentN3Machine;

#[test]
fn functional_n3_solves_10k_atoms() {
    // 100x100 King's lattice: 10,000 spins, ~39,600 edges, through the
    // production kernel (tile events booked in closed form) with a capped
    // sweep budget.
    let w = MolecularDynamics::new(100, 100, 1);
    let graph = w.graph();
    let mut rng = StdRng::seed_from_u64(2);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let opts = SolveOptions::for_graph(graph, 3).with_max_sweeps(30);

    let mut machine = SachiMachine::new(SachiConfig::new(DesignKind::N3));
    let (result, report) = machine.solve_detailed(graph, &init, &opts);
    assert_eq!(result.sweeps, 30);
    let acc = w.accuracy(&result.spins);
    assert!(acc > 0.8, "accuracy after 30 sweeps: {acc}");
    // 10K tuples at ~30 resident bits each overflow nothing: single round.
    assert_eq!(report.rounds_per_sweep, 1);
    assert!(report.reuse > 20.0, "reuse {}", report.reuse);

    // The analytic model must agree with what actually ran (uniform
    // interior degree dominates; the shape uses max degree = 8).
    let model = PerfModel::new(SachiConfig::new(DesignKind::N3));
    let est = model.iteration(&WorkloadShape::new(10_000, 8, report.resolution_bits));
    let measured_per_sweep = report.compute_cycles.get() / report.sweeps;
    let predicted = est.compute_cycles.get();
    let err = (measured_per_sweep as f64 - predicted as f64).abs() / predicted as f64;
    assert!(
        err < 0.05,
        "model {predicted} vs measured {measured_per_sweep} ({err:.3})"
    );
}

#[test]
fn functional_decision_tsp_at_2k_cities() {
    // 2,000-city complete graph: ~2M edges, tuples spanning multiple
    // rows, multiple compute rounds per sweep.
    let w = TspDecision::with_resolution(2_000, 5, 4);
    let graph = w.graph();
    let mut rng = StdRng::seed_from_u64(7);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let opts = SolveOptions::for_graph(graph, 9).with_max_sweeps(3);

    let mut machine = SachiMachine::new(SachiConfig::new(DesignKind::N3));
    let (result, report) = machine.solve_detailed(graph, &init, &opts);
    assert_eq!(result.sweeps, 3);
    assert!(
        report.rounds_per_sweep > 1,
        "2K-city tuples must overflow the compute array"
    );
    assert!(report.load_cycles > Cycles::ZERO);
    // Reuse per RWL drive: wide tuples split across ~13 rows, so the
    // measured reuse is N*(R+1)/rows ~ 769 (one drive per row), still
    // two orders above the n1 designs' 1.
    assert!(report.reuse > 500.0, "reuse {}", report.reuse);
    // Cut improves over the random start even in 3 sweeps.
    assert!(w.cut(&result.spins) > w.cut(&init));
}

#[test]
fn resident_machine_handles_5k_spins_with_rounds() {
    let w = MolecularDynamics::new(70, 70, 4); // 4,900 spins
    let graph = w.graph();
    let mut rng = StdRng::seed_from_u64(5);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let opts = SolveOptions::for_graph(graph, 6).with_max_sweeps(20);
    // A small array to force real multi-round residency at this size.
    let hierarchy = CacheHierarchy {
        compute: CacheGeometry::new(4, 50, 200, 1),
        storage: CacheGeometry::sachi_storage_default(),
    };
    let golden = CpuReferenceSolver::new().solve(graph, &init, &opts);
    let mut machine =
        ResidentN3Machine::new(SachiConfig::new(DesignKind::N3).with_hierarchy(hierarchy));
    let (result, report) = machine.solve_detailed(graph, &init, &opts);
    assert_eq!(result.energy, golden.energy);
    assert!(report.rounds_per_sweep > 1);
}

/// Fast tier-1 cousin of the soak below: a 4-thread SACHI(n3) replica
/// ensemble at 1,600 spins, checked bit-for-bit against the one-thread
/// golden ensemble and sanity-checked for quality and accounting.
#[test]
fn ensemble_smoke_4_threads_at_1600_atoms() {
    let w = MolecularDynamics::new(40, 40, 11);
    let graph = w.graph();
    let mut rng = StdRng::seed_from_u64(12);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let opts = SolveOptions::for_graph(graph, 13).with_max_sweeps(15);
    let replicas = 4usize;

    let config = SachiConfig::new(DesignKind::N3);
    let outcome = run_ensemble(&config, graph, &init, &opts, replicas, 4);
    let (best_of, report) = (outcome.best, outcome.report);

    let reference = EnsembleRunner::new(replicas)
        .with_threads(1)
        .run_reference(graph, &init, &opts);
    assert_eq!(best_of, reference);

    assert_eq!(best_of.stats.replicas as usize, replicas);
    assert!(w.accuracy(&best_of.best().spins) > 0.8);
    assert_eq!(report.reports.len(), replicas);
    assert!(report.serial_cycles >= report.max_replica_cycles);
    assert!(report.ideal_speedup(4) >= 1.0);
}

/// Manual soak: a quarter-million-atom functional solve. Run with
/// `cargo test --release -- --ignored scale_soak`.
#[test]
#[ignore = "multi-minute soak run"]
fn scale_soak_quarter_million_atoms() {
    let w = MolecularDynamics::new(500, 500, 11);
    let graph = w.graph();
    let mut rng = StdRng::seed_from_u64(12);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let opts = SolveOptions::for_graph(graph, 13).with_max_sweeps(10);
    let mut machine = SachiMachine::new(SachiConfig::new(DesignKind::N3));
    let (result, report) = machine.solve_detailed(graph, &init, &opts);
    assert_eq!(result.sweeps, 10);
    assert!(report.rounds_per_sweep > 1);
    assert!(w.accuracy(&result.spins) > 0.7);
}
