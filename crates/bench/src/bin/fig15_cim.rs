//! Fig. 15d/e: SACHI(n3) vs Ising-CIM on 2-bit molecular dynamics at 500
//! and 1M atoms (the only COP inside Ising-CIM's King's-graph / unsigned
//! 2-bit envelope), cycles and energy including loading.
//!
//! The 500-atom point additionally runs SACHI(n3) *functionally*: its
//! trajectory is the golden one, which Ising-CIM's sweep also follows,
//! so Ising-CIM's `price` bills that same solve's counts;
//! the 1M point uses the analytic models, as the paper does: SACHI's
//! `PerfModel` and Ising-CIM's `price` fed the shape's counts, each
//! parity-tested against its functional machine by `disc_drift`. Neither
//! model knows the trajectory's flips, so both bill them at
//! `perf::ASSUMED_FLIP_FRACTION` of the spins per sweep.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sachi_baselines::prelude::*;
use sachi_bench::{ratio, section, Table};
use sachi_core::perf::ASSUMED_FLIP_FRACTION;
use sachi_core::prelude::*;
use sachi_ising::prelude::*;
use sachi_mem::prelude::*;
use sachi_mem::units::convert::scale_by_fraction;
use sachi_workloads::prelude::*;

fn main() {
    section("functional cross-check at ~500 atoms (2-bit King's graph)");
    let w = MolecularDynamics::with_resolution(22, 23, 11, 2); // 506 atoms
    let graph = w.graph();
    let mut rng = StdRng::seed_from_u64(5);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let opts = SolveOptions::for_graph(graph, 6);

    let mut sachi = SachiMachine::new(SachiConfig::new(DesignKind::N3));
    let (s_result, s_report) = sachi.solve_detailed(graph, &init, &opts);
    let cim = CimMachine::new();
    cim.check_limits(graph).expect("within CIM envelope");
    let c_price = cim.price(&SolveCounts::of(graph, &s_result));

    let mut func = Table::new(["machine", "iters", "cycles", "energy", "reuse"]);
    func.row([
        "SACHI(n3)".to_string(),
        s_report.sweeps.to_string(),
        s_report.total_cycles.get().to_string(),
        format!("{}", s_report.energy.total()),
        format!("{:.1}", s_report.reuse),
    ]);
    func.row([
        "Ising-CIM".to_string(),
        s_result.sweeps.to_string(),
        c_price.cycles.get().to_string(),
        format!("{}", c_price.energy.total()),
        format!("{BASELINE_REUSE:.1}"),
    ]);
    func.print();
    println!(
        "functional: speedup {}, energy gain {}, accuracy {:.2}%",
        ratio(
            c_price.cycles.get() as f64,
            s_report.total_cycles.get() as f64
        ),
        ratio(c_price.energy.total().get(), s_report.energy.total().get()),
        w.accuracy(&s_result.spins) * 100.0
    );

    section("Fig. 15d/e - model sweep (paper: ~70x/80x perf, ~40x/75x energy)");
    let model = PerfModel::new(SachiConfig::new(DesignKind::N3));
    let mut table = Table::new([
        "atoms",
        "SACHI cfg",
        "iters",
        "CIM cycles",
        "SACHI cycles",
        "speedup",
        "paper",
        "CIM energy",
        "SACHI energy",
        "gain",
        "paper",
    ]);
    // Iteration counts: measured at 506 atoms; the paper reports iteration
    // counts grow slowly with size for King's graphs — reuse the measured
    // count for 500 and scale modestly for 1M (documented approximation).
    // The 1M point runs twice: with the paper's 160KB storage array
    // (where DRAM re-streaming dominates BOTH designs' energy — Ising-CIM
    // is a scale-out ASIC with enough eDRAM arrays to stay resident, so
    // SACHI's gain collapses) and with the Sec. VII.2 8MB-L2 preset that
    // restores capacity parity.
    let server =
        PerfModel::new(SachiConfig::new(DesignKind::N3).with_hierarchy(CacheHierarchy::server()));
    let iter_points = [
        (500u64, s_report.sweeps, 70.0, 40.0, &model, "160KB L2"),
        (
            1_000_000,
            s_report.sweeps * 2,
            80.0,
            75.0,
            &model,
            "160KB L2",
        ),
        (
            1_000_000,
            s_report.sweeps * 2,
            80.0,
            75.0,
            &server,
            "8MB L2",
        ),
    ];
    for (atoms, iters, paper_perf, paper_energy, model, cfg) in iter_points {
        let shape = WorkloadShape::new(atoms, 8, 2);
        let sachi_est = model.solve(&shape, iters);
        // Flips (and so edge-cell broadcasts) at the rate PerfModel assumes.
        let flips = scale_by_fraction(atoms, ASSUMED_FLIP_FRACTION) * iters;
        let cim_cost = cim.price(&SolveCounts::for_shape(&shape, iters, flips));
        let cim_cycles = cim_cost.cycles.get();
        let cim_energy = cim_cost.energy.total();
        table.row([
            atoms.to_string(),
            cfg.to_string(),
            iters.to_string(),
            cim_cycles.to_string(),
            sachi_est.total_cycles.get().to_string(),
            ratio(cim_cycles as f64, sachi_est.total_cycles.get() as f64),
            format!("~{paper_perf}x"),
            format!("{}", cim_energy),
            format!("{}", sachi_est.energy.total()),
            ratio(cim_energy.get(), sachi_est.energy.total().get()),
            format!("~{paper_energy}x"),
        ]);
    }
    table.print();
    println!();
    println!("reuse: SACHI(n3) = N*R = 16 at 2-bit vs Ising-CIM's 1 (paper: ~16x).");
    println!("CIM modeled per Sec. V.5: 3+3-cycle compute/update, 1.2x eDRAM power,");
    println!("full-row discharge at reuse 1, edge-cell duplication across arrays.");
}
