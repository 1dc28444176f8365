//! Cross-crate property tests: for arbitrary random problems, the
//! hardware path must equal the mathematical definition, and machine
//! accounting must satisfy its structural invariants.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sachi::prelude::*;

fn arbitrary_king_graph(rows: usize, cols: usize, salt: u64, max_abs: i32) -> IsingGraph {
    let mut k = salt;
    topology::king(rows, cols, |i, j| {
        k = k
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let span = (2 * max_abs + 1) as u64;
        ((k >> 33) % span) as i32 - max_abs + (i as i32 - j as i32) % 2
    })
    .expect("king graph construction")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any SACHI design on any random King's-graph problem reproduces the
    /// golden trajectory exactly.
    #[test]
    fn machines_always_match_golden(salt in 0u64..1000, seed in 0u64..1000, design_idx in 0usize..4) {
        let graph = arbitrary_king_graph(4, 5, salt, 6);
        let mut rng = StdRng::seed_from_u64(seed);
        let init = SpinVector::random(graph.num_spins(), &mut rng);
        let opts = SolveOptions::for_graph(&graph, seed).with_max_sweeps(200).with_trace();
        let golden = CpuReferenceSolver::new().solve(&graph, &init, &opts);
        let design = DesignKind::ALL[design_idx];
        let got = SachiMachine::new(SachiConfig::new(design)).solve(&graph, &init, &opts);
        prop_assert_eq!(got.trace, golden.trace);
        prop_assert_eq!(got.energy, golden.energy);
    }

    /// Machine accounting invariants: reuse within its design bound, no
    /// negative/NaN energy, cycles consistent.
    #[test]
    fn report_invariants(salt in 0u64..500, design_idx in 0usize..4) {
        let graph = arbitrary_king_graph(4, 4, salt, 5);
        let mut rng = StdRng::seed_from_u64(salt);
        let init = SpinVector::random(graph.num_spins(), &mut rng);
        let opts = SolveOptions::for_graph(&graph, salt).with_max_sweeps(100);
        let design = DesignKind::ALL[design_idx];
        let (_, report) = SachiMachine::new(SachiConfig::new(design)).solve_detailed(&graph, &init, &opts);

        let n = graph.max_degree() as u64;
        let r = report.resolution_bits;
        let row_bits = SachiConfig::new(design).hierarchy.compute.row_bits() as u64;
        let bound = stationarity(design).schedule(n, r, row_bits).max_reuse as f64;
        prop_assert!(report.reuse > 0.0 && report.reuse <= bound + 1e-9,
            "reuse {} outside (0, {}]", report.reuse, bound);
        prop_assert!(report.energy.total().get().is_finite());
        prop_assert!(report.total_cycles >= report.compute_cycles);
        prop_assert!(report.sweeps > 0);
        prop_assert_eq!(report.design, design);
        prop_assert!(report.cycles_per_iteration() > 0.0);
    }

    /// The annealing solve never ends above the greedy-descent energy of
    /// its own final state (i.e. the final state is locally stable).
    #[test]
    fn final_state_is_locally_stable(salt in 0u64..500) {
        let graph = arbitrary_king_graph(4, 4, salt, 4);
        let mut rng = StdRng::seed_from_u64(salt ^ 77);
        let init = SpinVector::random(graph.num_spins(), &mut rng);
        let opts = SolveOptions::for_graph(&graph, salt);
        let result = CpuReferenceSolver::new().solve(&graph, &init, &opts);
        if result.converged {
            for i in 0..graph.num_spins() {
                let delta = flip_delta(&graph, &result.spins, i);
                prop_assert!(delta >= 0, "spin {i} could still improve by {delta}");
            }
        }
    }

    /// Quantization at graph-required resolution round-trips through the
    /// tile-level XNOR datapath for all four designs.
    #[test]
    fn tile_products_equal_integer_products(j in -500i64..500, sigma in any::<bool>(), bits in 4u32..16) {
        let enc = MixedEncoding::new(bits.max(10)).unwrap();
        let spin = Spin::from_bit(sigma);
        prop_assert_eq!(enc.xnor_product(j, spin), j * spin.value());
        for other in [Spin::Up, Spin::Down] {
            prop_assert_eq!(enc.reuse_aware_product(j, other, spin), j * spin.value());
        }
    }

    /// Karmarkar-Karp's reconstruction always realizes the differencing
    /// imbalance exactly.
    #[test]
    fn karmarkar_karp_consistency(values in prop::collection::vec(1i64..100_000, 1..64)) {
        let (assignment, imbalance) = karmarkar_karp(&values);
        let signed: i64 = values.iter().zip(assignment.iter()).map(|(&v, s)| v * s.value()).sum();
        prop_assert_eq!(signed.abs(), imbalance);
        prop_assert!(imbalance >= 0);
    }
}
