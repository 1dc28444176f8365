//! Discrepancy audit: analytic `PerfModel` vs functional-sim metered
//! cycles.
//!
//! The repo carries two cycle accounts of the same architecture: the
//! closed-form `PerfModel` (used by `sachi estimate` and the
//! scalability figures) and the functional `SachiMachine` (which meters
//! every round it actually executes). Both price rounds through one
//! `RoundPlan`: the machine's is built from per-tuple degrees, the
//! model's from a uniform shape. On **uniform-degree** graphs the two
//! plans coincide, so the model must reproduce the machine's metered
//! compute, load and total cycles to the cycle — any drift is a model
//! bug, and this harness asserts it to zero. The load side is the
//! plan's per-sweep load times the sweeps plus its first fill (sweep
//! 0's fill of a resident problem); the total is `PerfModel::solve` at
//! the machine's sweep count.
//!
//! Besides the default hierarchy, complete(36) runs on a 2×4×64-bit
//! compute array at several bank counts, where every sweep reloads round
//! by round under prefetch overlap. `--smoke` runs a reduced sweep for
//! CI; the drift table doubles as the CI drift report.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sachi_bench::{section, Table};
use sachi_core::prelude::*;
use sachi_ising::prelude::*;
use sachi_mem::cache::{CacheGeometry, CacheHierarchy};
use sachi_workloads::spec::WorkloadShape;

/// A ring C_n: the smallest uniform-degree topology (N = 2).
fn ring(n: usize) -> IsingGraph {
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        let j = (i + 1) % n;
        b.push_edge(
            u32::try_from(i).expect("bench sizes fit u32"),
            u32::try_from(j).expect("bench sizes fit u32"),
            if i % 2 == 0 { 1 } else { -1 },
        );
    }
    b.build().expect("ring is a valid graph")
}

fn drift_percent(measured: u64, predicted: u64) -> f64 {
    if predicted == 0 {
        return if measured == 0 { 0.0 } else { f64::INFINITY };
    }
    (measured as f64 - predicted as f64) / predicted as f64 * 100.0
}

fn main() {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    let sizes: &[usize] = if smoke {
        &[24, 48]
    } else {
        &[24, 64, 128, 256]
    };
    // Multi-round regime: a compute array too small for complete(36), so
    // every sweep reloads round by round and the prefetcher overlaps round
    // k+1's upload (rows / banks, sram22-style banking) with round k's
    // compute.
    let small = CacheHierarchy {
        compute: CacheGeometry::new(2, 4, 64, 1),
        storage: CacheGeometry::sachi_storage_default(),
    };
    let bank_counts: &[usize] = if smoke { &[1, 4] } else { &[1, 2, 4, 8] };
    let complete = |n| {
        topology::complete(n, |i, j| if (i + j) % 2 == 0 { 1 } else { -1 })
            .expect("complete graph builds")
    };
    let mut cases = Vec::new();
    for &n in sizes {
        let default = CacheHierarchy::hpca_default();
        cases.push((format!("complete({n})"), complete(n), default, 1));
        cases.push((format!("ring({n})"), ring(n), default, 1));
    }
    for &banks in bank_counts {
        cases.push((
            "complete(36) 2x4x64".to_string(),
            complete(36),
            small,
            banks,
        ));
    }

    section("PerfModel vs functional machine: cycle drift on uniform-degree graphs");
    let mut table = Table::new([
        "graph",
        "banks",
        "design",
        "N",
        "R",
        "rounds",
        "sweeps",
        "compute",
        "closed",
        "drift",
        "load",
        "closed load",
        "total",
        "closed total",
    ]);
    for (name, graph, hierarchy, banks) in &cases {
        // Uniform degree is the precondition for exactness; make the
        // harness fail loudly if a topology edit breaks it.
        assert!(
            (0..graph.num_spins()).all(|i| graph.degree(i) == graph.max_degree()),
            "{name} graph must be uniform-degree"
        );
        let shape = WorkloadShape::new(
            u64::try_from(graph.num_spins()).expect("bench sizes fit u64"),
            u64::try_from(graph.max_degree()).expect("degrees fit u64"),
            graph.bits_required(),
        );
        for design in DesignKind::ALL {
            let config = SachiConfig::new(design)
                .with_hierarchy(*hierarchy)
                .with_banks(*banks);
            let mut machine = SachiMachine::new(config.clone());
            let mut rng = StdRng::seed_from_u64(0xD21F);
            let init = SpinVector::random(graph.num_spins(), &mut rng);
            let opts = SolveOptions::for_graph(graph, 17);
            let (_, report) = machine.solve_detailed(graph, &init, &opts);

            let plan = RoundPlan::uniform(&config, &shape);
            let model = PerfModel::new(config);
            let est = model.iteration(&shape);
            assert!(
                *hierarchy != small || est.rounds > 1,
                "the small-array cases must exercise multi-round sweeps"
            );
            let predicted_compute = est.compute_cycles.get() * report.sweeps;
            let measured_compute = report.compute_cycles.get();
            let compute_drift = drift_percent(measured_compute, predicted_compute);
            // Sweep 0 pays a resident problem's fill on top of the steady
            // per-sweep load (every sweep reloads a multi-round one).
            let first_fill = plan.sweep_load(0) - plan.sweep_load(1);
            let measured = [report.load_cycles, report.total_cycles];
            let predicted = [
                est.load_cycles * report.sweeps + first_fill,
                model.solve(&shape, report.sweeps).total_cycles,
            ];
            table.row([
                name.clone(),
                banks.to_string(),
                design.label().to_string(),
                shape.neighbors_per_spin.to_string(),
                shape.resolution_bits.to_string(),
                report.rounds_per_sweep.to_string(),
                report.sweeps.to_string(),
                measured_compute.to_string(),
                predicted_compute.to_string(),
                format!("{compute_drift:+.2}%"),
                measured[0].get().to_string(),
                predicted[0].get().to_string(),
                measured[1].get().to_string(),
                predicted[1].get().to_string(),
            ]);
            assert_eq!(
                measured_compute,
                predicted_compute,
                "{name}/{}: closed-form compute cycles must be exact on \
                 uniform-degree graphs ({compute_drift:+.3}% drift)",
                design.label()
            );
            assert_eq!(
                report.rounds_per_sweep,
                est.rounds,
                "{name}/{}: round count must agree",
                design.label()
            );
            assert_eq!(
                measured,
                predicted,
                "{name} x{banks}/{}: load (per sweep x sweeps + first fill) and solve \
                 total must be exact",
                design.label()
            );
        }
    }
    table.print();
    println!();
    println!(
        "compute, load and total drift: 0.00% everywhere (asserted), banked multi-round \
         sweeps with prefetch overlap included"
    );
}
