//! Cross-crate integration: every SACHI stationarity design must
//! reproduce the golden CPU solver's Hamiltonian trajectory exactly, on
//! every workload family. (BRIM and Ising-CIM have no solve of their
//! own: their sweep is the golden one, and each only prices it.) This is the paper's premise that architecture changes the
//! cost of an iteration, never its result ("they all arrive at the same H
//! at the end of each iteration"). The protocol around each machine's
//! sweep body is the shared `run_sweeps` driver; these tests check the
//! bodies, and that every machine honors the driver's cancel check.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sachi::prelude::*;

fn golden(graph: &IsingGraph, init: &SpinVector, opts: &SolveOptions) -> SolveResult {
    CpuReferenceSolver::new().solve(graph, init, opts)
}

fn assert_matches(label: &str, golden: &SolveResult, got: &SolveResult) {
    assert_eq!(got.energy, golden.energy, "{label}: final energy");
    assert_eq!(got.sweeps, golden.sweeps, "{label}: iteration count");
    assert_eq!(got.trace, golden.trace, "{label}: H trajectory");
    assert_eq!(got.spins, golden.spins, "{label}: final spins");
    assert_eq!(got.flips, golden.flips, "{label}: flip count");
}

fn check_all_sachi_designs(graph: &IsingGraph, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let opts = SolveOptions::for_graph(graph, seed ^ 0x9e37).with_trace();
    let reference = golden(graph, &init, &opts);
    for design in DesignKind::ALL {
        let mut machine = SachiMachine::new(SachiConfig::new(design));
        let got = machine.solve(graph, &init, &opts);
        assert_matches(design.label(), &reference, &got);
    }
}

#[test]
fn sachi_designs_match_golden_on_molecular_dynamics() {
    let w = MolecularDynamics::new(6, 6, 3);
    check_all_sachi_designs(w.graph(), 1);
}

#[test]
fn sachi_designs_match_golden_on_asset_allocation() {
    let w = AssetAllocation::new(24, 5);
    check_all_sachi_designs(w.graph(), 2);
}

#[test]
fn sachi_designs_match_golden_on_image_segmentation() {
    let w = ImageSegmentation::with_options(8, 8, 7, Connectivity::Grid4, 6);
    check_all_sachi_designs(w.graph(), 3);
}

#[test]
fn sachi_designs_match_golden_on_dense_segmentation() {
    let w = ImageSegmentation::new(8, 8, 9);
    check_all_sachi_designs(w.graph(), 4);
}

#[test]
fn sachi_designs_match_golden_on_decision_tsp() {
    let w = TspDecision::new(20, 11);
    check_all_sachi_designs(w.graph(), 5);
}

#[test]
fn sachi_designs_match_golden_on_tour_tsp() {
    let w = TspTour::new(5, 13);
    check_all_sachi_designs(w.graph(), 6);
}

#[test]
fn all_machines_agree_with_each_other_on_shared_envelope() {
    // The intersection of every machine's envelope: small 2-bit King's
    // graph. One problem, four SACHI designs, one trajectory. BRIM and
    // Ising-CIM have no solve of their own: they price this trajectory.
    let w = MolecularDynamics::with_resolution(6, 6, 31, 2);
    let graph = w.graph();
    let mut rng = StdRng::seed_from_u64(9);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let opts = SolveOptions::for_graph(graph, 37).with_trace();
    let reference = golden(graph, &init, &opts);

    for design in DesignKind::ALL {
        let got = SachiMachine::new(SachiConfig::new(design)).solve(graph, &init, &opts);
        assert_matches(design.label(), &reference, &got);
    }
}

#[test]
fn threaded_ensembles_match_sequential_golden_runs_on_every_design() {
    // Differential conformance for the parallel replica path: each SACHI
    // design, run as a 4-replica / 4-thread ensemble, must equal a
    // sequential golden-model run replica for replica — same derived
    // seed, same spins, same trajectory, same accept/reject counts.
    let w = MolecularDynamics::new(7, 7, 47);
    let graph = w.graph();
    let mut rng = StdRng::seed_from_u64(11);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let opts = SolveOptions::for_graph(graph, 53).with_trace();
    let replicas = 4usize;

    // Sequential golden runs, one per derived replica seed.
    let goldens: Vec<SolveResult> = (0..replicas)
        .map(|k| {
            let o = SolveOptions {
                seed: derive_replica_seed(opts.seed, k as u64),
                ..opts.clone()
            };
            golden(graph, &init, &o)
        })
        .collect();

    for design in DesignKind::ALL {
        let config = SachiConfig::new(design);
        let best_of = run_ensemble(&config, graph, &init, &opts, replicas, 4).best;
        assert_eq!(best_of.replicas.len(), replicas);
        for (k, (got, reference)) in best_of.replicas.iter().zip(&goldens).enumerate() {
            let label = format!("{} replica {k}", design.label());
            assert_matches(&label, reference, got);
            assert_eq!(
                got.uphill_accepted, reference.uphill_accepted,
                "{label}: uphill accepts"
            );
            assert_eq!(
                got.uphill_rejected, reference.uphill_rejected,
                "{label}: uphill rejects"
            );
        }
        // The reduction picks the true minimum (lowest index on ties).
        let best = best_of.best();
        assert!(goldens.iter().all(|g| g.energy >= best.energy));
        assert_eq!(best, &goldens[best_of.best_index]);
    }
}

#[test]
fn geometry_never_changes_results() {
    // Shrinking the compute/storage arrays forces rounds and DRAM
    // streaming but must not perturb the functional outcome.
    let w = MolecularDynamics::new(7, 7, 41);
    let graph = w.graph();
    let mut rng = StdRng::seed_from_u64(10);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let opts = SolveOptions::for_graph(graph, 43).with_trace();
    let reference = golden(graph, &init, &opts);
    for hierarchy in [
        CacheHierarchy::hpca_default(),
        CacheHierarchy::desktop(),
        CacheHierarchy::server(),
    ] {
        let got = SachiMachine::new(SachiConfig::new(DesignKind::N3).with_hierarchy(hierarchy))
            .solve(graph, &init, &opts);
        assert_matches("hierarchy preset", &reference, &got);
    }
    let tiny = CacheHierarchy {
        compute: CacheGeometry::new(1, 4, 64, 1),
        storage: CacheGeometry::new(1, 2, 64, 2),
    };
    let got = SachiMachine::new(SachiConfig::new(DesignKind::N3).with_hierarchy(tiny))
        .solve(graph, &init, &opts);
    assert_matches("tiny hierarchy", &reference, &got);
}

#[test]
fn a_cancelled_token_stops_every_machine_before_its_first_sweep() {
    // Cancellation lives in the shared sweep driver, so every machine —
    // the CMOS annealer's group-parallel body included — honors a
    // pre-cancelled token the same way: no sweep, no flip, the initial
    // spins back, not converged.
    let graph = topology::king(6, 6, |_, _| 1).unwrap();
    let mut rng = StdRng::seed_from_u64(47);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let token = CancelToken::new();
    token.cancel();
    let opts = SolveOptions::for_graph(&graph, 53).with_cancel(token);

    let mut results = vec![("CPU golden", golden(&graph, &init, &opts))];
    for design in DesignKind::ALL {
        let got = SachiMachine::new(SachiConfig::new(design)).solve(&graph, &init, &opts);
        results.push((design.label(), got));
    }
    let (cmos, _) = CmosAnnealer::new(6)
        .solve_detailed(&graph, &init, &opts)
        .expect("CMOS annealer envelope");
    results.push(("CMOS annealer", cmos));

    for (label, got) in &results {
        assert_eq!(got.sweeps, 0, "{label}: sweeps after cancel");
        assert_eq!(got.flips, 0, "{label}: flips after cancel");
        assert!(!got.converged, "{label}: converged after cancel");
        assert_eq!(got.spins, init, "{label}: spins after cancel");
    }
}
