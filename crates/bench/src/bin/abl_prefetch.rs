//! Ablation: the counter-based DRAM prefetcher (Sec. IV.A) on/off.
//!
//! With structured CIM access patterns, the controller counts the rows
//! left to compute and issues the next round's fetch just in time. This
//! harness measures how much critical path the prefetcher hides, on a
//! functional run (small arrays force real rounds) and on the analytic
//! model at paper scale.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sachi_bench::{ratio, section, Table};
use sachi_core::prelude::*;
use sachi_ising::prelude::*;
use sachi_mem::prelude::*;
use sachi_workloads::prelude::*;

fn main() {
    section("functional run (shrunken arrays, molecular dynamics 12x12)");
    let w = MolecularDynamics::new(12, 12, 3);
    let graph = w.graph();
    let mut rng = StdRng::seed_from_u64(4);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let opts = SolveOptions::for_graph(graph, 5);
    let tiny = CacheHierarchy {
        compute: CacheGeometry::new(2, 8, 64, 1),
        storage: CacheGeometry::new(1, 8, 64, 2),
    };
    let run = |prefetch: bool| {
        let config = if prefetch {
            SachiConfig::new(DesignKind::N3).with_hierarchy(tiny)
        } else {
            SachiConfig::new(DesignKind::N3)
                .with_hierarchy(tiny)
                .without_prefetch()
        };
        SachiMachine::new(config).solve_detailed(graph, &init, &opts)
    };
    let (res_on, on) = run(true);
    let (res_off, off) = run(false);
    assert_eq!(
        res_on.energy, res_off.energy,
        "ablation must not change results"
    );

    let mut table = Table::new([
        "prefetch",
        "rounds/iter",
        "compute cyc",
        "load cyc",
        "total cyc",
        "prefetches",
    ]);
    table.row([
        "on".to_string(),
        on.rounds_per_sweep.to_string(),
        on.compute_cycles.get().to_string(),
        on.load_cycles.get().to_string(),
        on.total_cycles.get().to_string(),
        on.prefetches.to_string(),
    ]);
    table.row([
        "off".to_string(),
        off.rounds_per_sweep.to_string(),
        off.compute_cycles.get().to_string(),
        off.load_cycles.get().to_string(),
        off.total_cycles.get().to_string(),
        off.prefetches.to_string(),
    ]);
    table.print();
    println!(
        "prefetch hides {} of the critical path ({} speedup)",
        off.total_cycles.get() - on.total_cycles.get(),
        ratio(off.total_cycles.get() as f64, on.total_cycles.get() as f64)
    );

    section("analytic model at paper scale (per-iteration CPI)");
    let mut model_table =
        Table::new(["workload", "spins", "CPI w/ prefetch", "CPI w/o", "speedup"]);
    for (kind, spins) in [
        (CopKind::MolecularDynamics, 1_000_000u64),
        (CopKind::ImageSegmentation, 1_000_000),
        (CopKind::TravelingSalesman, 100_000),
    ] {
        let shape = kind.standard_shape(spins);
        let on = PerfModel::new(SachiConfig::new(DesignKind::N3)).iteration(&shape);
        let off =
            PerfModel::new(SachiConfig::new(DesignKind::N3).without_prefetch()).iteration(&shape);
        model_table.row([
            kind.label().to_string(),
            spins.to_string(),
            on.effective_cycles.get().to_string(),
            off.effective_cycles.get().to_string(),
            ratio(
                off.effective_cycles.get() as f64,
                on.effective_cycles.get() as f64,
            ),
        ]);
    }
    model_table.print();
    println!();
    println!("the prefetcher converts round loading from additive to overlapped;");
    println!("its threshold covers DRAM-to-storage plus storage-to-compute latency,");
    println!("so data arrives exactly when the previous round drains");
    println!("(DramController::effective_round_cycles in sachi-mem::dram).");
}
