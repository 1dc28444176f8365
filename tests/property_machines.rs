//! Cross-family machine properties: golden-trajectory agreement and
//! accounting invariants must hold for every graph *family* the paper
//! touches (King's, grid, complete, star, sparse random), every design,
//! and random coefficients — not just the lattices the unit tests pick.
//!
//! It also holds the residency ablation: `SachiMachine`'s analytic
//! residency billing against the physical-residency oracle
//! (`support::tiled::ResidentN3Machine`), on random families and on the
//! three named workloads of EXPERIMENTS.md's `abl_residency` line.

mod support;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sachi::prelude::*;
use support::tiled::ResidentN3Machine;

/// Deterministic pseudo-random weight from a salt (proptest shrinks the
/// salt, keeping failures reproducible).
fn weight(salt: u64, i: u32, j: u32, max_abs: i32) -> i32 {
    let mut x = salt ^ ((i as u64) << 32) ^ j as u64;
    x = x
        .wrapping_mul(0x9e3779b97f4a7c15)
        .rotate_left(31)
        .wrapping_mul(0xbf58476d1ce4e5b9);
    let span = (2 * max_abs + 1) as u64;
    ((x >> 33) % span) as i32 - max_abs
}

fn family_graph(family: usize, salt: u64) -> IsingGraph {
    match family % 5 {
        0 => topology::king(4, 5, |i, j| weight(salt, i, j, 6)).expect("king"),
        1 => topology::grid4(4, 5, |i, j| weight(salt, i, j, 10)).expect("grid"),
        2 => topology::complete(9, |i, j| weight(salt, i, j, 4)).expect("complete"),
        3 => topology::star(12, |j| weight(salt, 0, j, 12).max(1)).expect("star"),
        _ => {
            // Sparse random: ring plus salted chords.
            let n = 14u32;
            let mut b = GraphBuilder::new(n as usize);
            for i in 0..n {
                b.push_edge(i, (i + 1) % n, weight(salt, i, i + 1, 7));
            }
            for k in 0..6u32 {
                let u = (weight(salt, k, 99, 1000).unsigned_abs()) % n;
                let v = (weight(salt, k, 177, 1000).unsigned_abs()) % n;
                if u != v && ((u + 1) % n != v) && ((v + 1) % n != u) {
                    // Chords may collide; build() below falls back to the
                    // plain ring when they do.
                    b.push_edge(u, v, weight(salt, u, v, 7));
                }
            }
            match b.build() {
                Ok(g) => g,
                // Duplicate chord: degrade to the plain ring.
                Err(_) => {
                    let mut b = GraphBuilder::new(n as usize);
                    for i in 0..n {
                        b.push_edge(i, (i + 1) % n, weight(salt, i, i + 1, 7));
                    }
                    b.build().expect("ring")
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every design matches the golden trajectory on every family.
    #[test]
    fn all_designs_match_golden_on_all_families(
        family in 0usize..5,
        salt in 0u64..10_000,
        seed in 0u64..1_000,
        design_idx in 0usize..4,
    ) {
        let graph = family_graph(family, salt);
        let mut rng = StdRng::seed_from_u64(seed);
        let init = SpinVector::random(graph.num_spins(), &mut rng);
        let opts = SolveOptions::for_graph(&graph, seed).with_max_sweeps(150).with_trace();
        let golden = CpuReferenceSolver::new().solve(&graph, &init, &opts);
        let design = DesignKind::ALL[design_idx];
        let got = SachiMachine::new(SachiConfig::new(design)).solve(&graph, &init, &opts);
        prop_assert_eq!(&got.trace, &golden.trace, "{} diverged on family {}", design, family);
        prop_assert_eq!(got.energy, golden.energy);
        prop_assert_eq!(got.flips, golden.flips);
    }

    /// The resident machine agrees with the scratch machine everywhere
    /// (and hence with the golden model), accounting included: every
    /// family fits one round of the default compute array.
    #[test]
    fn resident_machine_matches_scratch_on_all_families(
        family in 0usize..5,
        salt in 0u64..10_000,
        seed in 0u64..1_000,
    ) {
        let graph = family_graph(family, salt);
        let mut rng = StdRng::seed_from_u64(seed);
        let init = SpinVector::random(graph.num_spins(), &mut rng);
        let opts = SolveOptions::for_graph(&graph, seed).with_max_sweeps(120).with_trace();
        assert_machines_agree(&graph, &init, &opts, Agreement::Accounting);
    }

    /// Accounting invariants hold across families and designs: the ledger
    /// total equals the sum of its components, and XNOR work is bounded by
    /// discharge-capable bits.
    #[test]
    fn ledgers_and_reuse_invariants(family in 0usize..5, salt in 0u64..10_000) {
        let graph = family_graph(family, salt);
        let mut rng = StdRng::seed_from_u64(salt);
        let init = SpinVector::random(graph.num_spins(), &mut rng);
        let opts = SolveOptions::for_graph(&graph, salt).with_max_sweeps(60);
        for design in DesignKind::ALL {
            let (_, report) =
                SachiMachine::new(SachiConfig::new(design)).solve_detailed(&graph, &init, &opts);
            let component_sum: f64 = report.energy.iter().map(|(_, e)| e.get()).sum();
            prop_assert!((report.energy.total().get() - component_sum).abs() < 1e-6);
            prop_assert!(report.xnor_ops >= report.rwl_bits_fetched,
                "{}: XNOR ops below RWL fetches", design);
        }
    }
}

/// How much of a scratch-vs-resident run must match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Agreement {
    /// The whole `SolveResult`: spins, energy, trace, sweeps, flips.
    Trajectory,
    /// The trajectory plus the round partition, cycles, compute work,
    /// tile events and energy.
    Accounting,
}

/// Relative difference of two energies (the two machines sum their
/// ledgers in different orders, so totals differ in the last ulps).
fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

/// Runs SACHI(n3) on the scratch machine and on the physical-residency
/// oracle from the same start and asserts they agree to `agreement`.
fn assert_machines_agree(
    graph: &IsingGraph,
    init: &SpinVector,
    opts: &SolveOptions,
    agreement: Agreement,
) {
    let (scratch, s) =
        SachiMachine::new(SachiConfig::new(DesignKind::N3)).solve_detailed(graph, init, opts);
    let (resident, r) =
        ResidentN3Machine::new(SachiConfig::new(DesignKind::N3)).solve_detailed(graph, init, opts);
    assert_eq!(scratch, resident, "trajectories diverged");
    if agreement == Agreement::Trajectory {
        return;
    }
    assert_eq!(s.rounds_per_sweep, r.rounds_per_sweep);
    assert_eq!(s.compute_cycles, r.compute_cycles);
    assert_eq!(s.load_cycles, r.load_cycles);
    assert_eq!(s.total_cycles, r.total_cycles);
    assert_eq!(s.xnor_ops, r.xnor_ops);
    assert_eq!(s.rwl_bits_fetched, r.rwl_bits_fetched);
    assert_eq!(s.tile.rwl_activations, r.tile.rwl_activations);
    assert_eq!(s.tile.rbl_discharges, r.tile.rbl_discharges);
    assert_eq!(s.tile.compute_accesses, r.tile.compute_accesses);
    let (s_total, r_total) = (s.energy.total().get(), r.energy.total().get());
    assert!(
        rel_diff(s_total, r_total) < 1e-9,
        "energy {s_total} pJ vs {r_total} pJ"
    );
    let write = |rep: &RunReport| rep.energy.component(EnergyComponent::SramWrite).get();
    assert!(
        rel_diff(write(&s), write(&r)) < 1e-9,
        "SRAM-write energy {} pJ vs {} pJ",
        write(&s),
        write(&r)
    );
}

/// Start state and options of the `abl_residency` workloads.
fn ablation_run(graph: &IsingGraph) -> (SpinVector, SolveOptions) {
    let mut rng = StdRng::seed_from_u64(5);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    (init, SolveOptions::for_graph(graph, 7).with_trace())
}

#[test]
fn residency_ablation_molecular_dynamics_16x16() {
    let graph = MolecularDynamics::new(16, 16, 1).graph().clone();
    let (init, opts) = ablation_run(&graph);
    assert_machines_agree(&graph, &init, &opts, Agreement::Accounting);
}

#[test]
fn residency_ablation_segmentation_14x14_grid4() {
    let w = ImageSegmentation::with_options(14, 14, 2, Connectivity::Grid4, 6);
    let (init, opts) = ablation_run(w.graph());
    assert_machines_agree(w.graph(), &init, &opts, Agreement::Accounting);
}

#[test]
fn residency_ablation_decision_tsp_96() {
    let graph = TspDecision::new(96, 3).graph().clone();
    let (init, opts) = ablation_run(&graph);
    assert_machines_agree(&graph, &init, &opts, Agreement::Accounting);
}

/// A lattice that needs more than one round on the default hierarchy.
/// The trajectories still match, but the accounting does not: the
/// scratch machine (and the `PerfModel` it is pinned to) packs rounds by
/// resident *bit* capacity, so all 2,500 tuples fit one round, while
/// the oracle places tuples row-granularly — σ_i drives a whole row, so
/// a tuple owns whole rows — and needs two, reloaded every sweep. Here
/// that is 142 vs 8,910 load cycles and 0.51 vs 6.01 µJ. The divergence
/// is an open ROADMAP item ("Round capacity: bit-packed vs
/// row-granular"), so only the trajectory is asserted here.
#[test]
fn residency_ablation_multi_round_trajectory() {
    let graph = MolecularDynamics::new(50, 50, 3).graph().clone();
    let (init, opts) = ablation_run(&graph);
    assert_machines_agree(&graph, &init, &opts, Agreement::Trajectory);
}
