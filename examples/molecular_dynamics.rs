//! Molecular dynamics (Sec. V.2d): King's-graph ferromagnetic ground
//! state on SACHI vs the Ising-CIM baseline at Ising-CIM's 2-bit maximum
//! resolution — the Fig. 15d/e comparison in miniature.
//!
//! ```sh
//! cargo run --release --example molecular_dynamics -- [side]
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use sachi::prelude::*;

fn main() {
    let side: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(16);
    // Ising-CIM's envelope: unsigned 2-bit ICs, King's graph.
    let workload = MolecularDynamics::with_resolution(side, side, 33, 2);
    let graph = workload.graph();
    println!(
        "{side}x{side} lattice, {} atoms, ground-state energy {}",
        graph.num_spins(),
        workload.ground_energy()
    );

    let mut rng = StdRng::seed_from_u64(5);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let opts = SolveOptions::for_graph(graph, 9);

    let mut sachi = SachiMachine::new(SachiConfig::new(DesignKind::N3));
    let (s_result, s_report) = sachi.solve_detailed(graph, &init, &opts);

    // Same algorithm, same trajectory — only the hardware differs, so
    // Ising-CIM prices SACHI's solve.
    let cim = CimMachine::new();
    cim.check_limits(graph).expect("within Ising-CIM envelope");
    let c_price = cim.price(&SolveCounts::of(graph, &s_result));

    println!(
        "\n{:<12} {:>12} {:>14} {:>8}",
        "machine", "cycles", "energy", "reuse"
    );
    println!(
        "{:<12} {:>12} {:>14} {:>8.1}",
        "SACHI(n3)",
        s_report.total_cycles.get(),
        format!("{}", s_report.energy.total()),
        s_report.reuse
    );
    println!(
        "{:<12} {:>12} {:>14} {:>8.1}",
        "Ising-CIM",
        c_price.cycles.get(),
        format!("{}", c_price.energy.total()),
        BASELINE_REUSE
    );
    println!(
        "\nspeedup {:.1}x, energy improvement {:.1}x, reuse advantage {:.0}x",
        c_price.cycles.ratio(s_report.total_cycles),
        c_price.energy.total().ratio(s_report.energy.total()),
        s_report.reuse / BASELINE_REUSE
    );
    println!(
        "final accuracy {:.2}% ({} of {} bond weight satisfied)",
        workload.accuracy(&s_result.spins) * 100.0,
        workload.satisfied_bond_weight(&s_result.spins),
        -workload.ground_energy()
    );
}
