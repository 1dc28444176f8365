//! Integration tests for the extension systems built beyond the paper's
//! evaluation section: the runtime API + L1 mode register (Sec. VII.1/3),
//! the NP-formulation library (Sec. VII.3), the multi-core scaling model
//! (Sec. IV.B.2), graph file I/O, and the CMOS-annealer related-work
//! baseline.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sachi::prelude::*;
use sachi::workloads::lucas;
use sachi_bench::reference::l1cache::{Access, CacheMode};
use sachi_bench::reference::multicore::{MulticoreModel, Partition};
use sachi_bench::reference::runtime::SachiContext;

#[test]
fn runtime_launch_respects_mode_exclusivity_and_matches_golden() {
    let w = MolecularDynamics::new(8, 8, 1);
    let graph = w.graph();
    let mut rng = StdRng::seed_from_u64(2);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let opts = SolveOptions::for_graph(graph, 3);

    let mut ctx = SachiContext::new(SachiConfig::new(DesignKind::N3));
    // Conventional traffic before the launch.
    for i in 0..64u64 {
        ctx.l1_mut().read(i * 64).unwrap();
    }
    let warm_lines = 64;
    let handle = ctx.upload(graph, &init);
    let launch = ctx.launch(&handle, &opts);
    assert_eq!(launch.lines_flushed_entering, warm_lines);

    let golden = CpuReferenceSolver::new().solve(graph, &init, &opts);
    assert_eq!(launch.result.energy, golden.energy);
    assert_eq!(launch.result.sweeps, golden.sweeps);
    // Normal mode restored, cache cold.
    assert_eq!(ctx.l1().mode(), CacheMode::Normal);
    assert!(matches!(ctx.l1_mut().read(0).unwrap(), Access::Miss { .. }));
}

#[test]
fn lucas_formulations_solve_on_the_sachi_machine() {
    // The whole point of the formulation library: any NP problem it
    // builds runs unchanged on the hardware machine, not just the CPU
    // solver.
    let input = lucas::InputGraph::cycle(8);
    let problem = lucas::max_cut(&input).expect("formulation builds");
    let graph = problem.graph();
    let mut rng = StdRng::seed_from_u64(4);
    let init = SpinVector::random(graph.num_spins(), &mut rng);

    let mut machine = SachiMachine::new(SachiConfig::new(DesignKind::N3));
    let mut best_cut = 0;
    for seed in 0..5 {
        let (result, report) =
            machine.solve_detailed(graph, &init, &SolveOptions::for_graph(graph, seed));
        best_cut = best_cut.max(lucas::cut_size(&input, &result.spins));
        assert!(report.reuse >= 1.0);
    }
    assert_eq!(best_cut, 8, "even cycle: every edge cut");
}

#[test]
fn dimacs_file_round_trips_through_a_solve() {
    let w = MolecularDynamics::new(6, 6, 9);
    let text = to_dimacs(w.graph());
    let parsed = parse_dimacs(&text).expect("round-trip parses");
    assert_eq!(&parsed, w.graph());

    let mut rng = StdRng::seed_from_u64(5);
    let init = SpinVector::random(parsed.num_spins(), &mut rng);
    let opts = SolveOptions::for_graph(&parsed, 6);
    let from_file = CpuReferenceSolver::new().solve(&parsed, &init, &opts);
    let from_builder = CpuReferenceSolver::new().solve(w.graph(), &init, &opts);
    assert_eq!(from_file.energy, from_builder.energy);
    assert_eq!(from_file.trace, from_builder.trace);
}

#[test]
fn multicore_locality_story_holds_on_real_workloads() {
    let w = MolecularDynamics::new(48, 48, 11);
    let model = MulticoreModel::new(SachiConfig::new(DesignKind::N3));
    let contiguous = model.estimate(w.graph(), &Partition::contiguous(48 * 48, 4));
    let interleaved = model.estimate(w.graph(), &Partition::interleaved(48 * 48, 4));
    assert!(contiguous.cut_edges * 4 < interleaved.cut_edges);
    assert!(contiguous.speedup_vs_single >= interleaved.speedup_vs_single);
    assert!(contiguous.speedup_vs_single > 2.0);
}

#[test]
fn cmos_annealer_quality_comparable_but_envelope_narrow() {
    let side = 10;
    let w = MolecularDynamics::with_resolution(side, side, 13, 2);
    // 2-bit MD has bonds of exactly 1 -> within the ternary envelope.
    let graph = w.graph();
    let mut rng = StdRng::seed_from_u64(7);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let opts = SolveOptions::for_graph(graph, 8);

    let mut chip = CmosAnnealer::new(side);
    let (result, price) = chip
        .solve_detailed(graph, &init, &opts)
        .expect("in envelope");
    assert!(
        w.accuracy(&result.spins) > 0.85,
        "chip accuracy {}",
        w.accuracy(&result.spins)
    );
    assert!(price.cycles.get() > 0);

    // A 4-bit instance is out of envelope — SACHI's reconfigurability is
    // the differentiator.
    let heavy = MolecularDynamics::new(side, side, 13);
    assert!(chip.check_limits(heavy.graph()).is_err());
    let mut sachi = SachiMachine::new(SachiConfig::default());
    let mut rng = StdRng::seed_from_u64(9);
    let hinit = SpinVector::random(heavy.graph().num_spins(), &mut rng);
    let (hres, _) = sachi.solve_detailed(
        heavy.graph(),
        &hinit,
        &SolveOptions::for_graph(heavy.graph(), 10),
    );
    assert!(heavy.accuracy(&hres.spins) > 0.9);
}

#[test]
fn qubo_problems_preserve_optima_through_the_machine() {
    // Brute-force a small QUBO, then confirm the machine's annealed
    // answer reaches the same optimum objective.
    let mut q = QuboBuilder::new(6);
    q.linear(0, -2)
        .linear(3, 1)
        .quadratic(0, 1, 3)
        .quadratic(2, 3, -4)
        .quadratic(4, 5, 2)
        .quadratic(1, 4, -1);
    let problem = q.build().expect("builds");
    let brute_best = (0..(1u32 << 6))
        .map(|mask| {
            let spins: SpinVector = (0..6)
                .map(|b| Spin::from_bit((mask >> b) & 1 == 1))
                .collect();
            problem.objective(&spins)
        })
        .min()
        .expect("non-empty");

    let graph = problem.graph();
    let mut rng = StdRng::seed_from_u64(11);
    let init = SpinVector::random(6, &mut rng);
    let mut machine = SachiMachine::new(SachiConfig::new(DesignKind::N2));
    let mut best = i64::MAX;
    for seed in 0..8 {
        let (result, _) =
            machine.solve_detailed(graph, &init, &SolveOptions::for_graph(graph, seed));
        best = best.min(problem.objective(&result.spins));
    }
    assert_eq!(best, brute_best);
}

#[test]
fn multi_start_helper_works_with_hardware_machines() {
    let w = ImageSegmentation::with_options(8, 8, 15, Connectivity::Grid4, 6);
    let graph = w.graph();
    let mut rng = StdRng::seed_from_u64(12);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let opts = SolveOptions::for_graph(graph, 13);
    let config = SachiConfig::new(DesignKind::N3);
    let single = SachiMachine::new(config.clone()).solve(graph, &init, &opts);
    let multi = EnsembleRunner::new(6)
        .run(graph, &init, &opts, |_| SachiMachine::new(config.clone()))
        .into_best();
    assert!(multi.energy <= single.energy);
}
