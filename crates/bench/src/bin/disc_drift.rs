//! Discrepancy audit: analytic `PerfModel` vs functional-sim metered
//! cycles and energy.
//!
//! The repo carries two accounts of the same architecture: the
//! closed-form `PerfModel` (used by `sachi estimate` and the
//! scalability figures) and the functional `SachiMachine` (which meters
//! every round it actually executes). Both price rounds and energy
//! through one `RoundPlan`: the machine's is built from per-tuple
//! degrees, the model's from a uniform shape. On **uniform-degree**
//! graphs the two plans coincide, so the model must reproduce the
//! machine's metered compute, load and total cycles to the cycle — any
//! drift is a model bug, and this harness asserts it to zero. The load
//! side is the plan's per-sweep load times the sweeps plus its first
//! fill (sweep 0's fill of a resident problem); the total is
//! `PerfModel::solve` at the machine's sweep count.
//!
//! Energy: both price one tally of integer event counts through the
//! same `RoundPlan::price`, one unit price times one count per
//! component, so the same `PerfModel::solve` must match the machine
//! exactly on the six components the shape fixes (rwl, adder, decision,
//! annealer, dram, dram-ctrl). RBL discharge, SRAM read/write
//! and movement depend on measured flips and discharges, which the model
//! estimates; their drift is printed, not asserted.
//!
//! Besides the default hierarchy, complete(36) runs on a 2×4×64-bit
//! compute array at several bank counts, where every sweep reloads round
//! by round under prefetch overlap, and on a 1×4×64-bit storage array,
//! where rounds stream from DRAM — in one round with the default compute
//! array (ring(256) too) and in several with the small one. `--smoke`
//! runs a reduced sweep for CI; the drift tables double as the CI drift
//! report.
//!
//! The baselines get the same gate. BRIM, Ising-CIM and the CMOS
//! annealer each price a solve with one `price` function; the functional
//! solve feeds it the graph's counts and the figure harnesses a shape's.
//! Each baseline leg solves with the golden solver, whose sweep BRIM and
//! Ising-CIM follow, and compares `price` fed the graph's counts with
//! `price` fed the shape's counts at the same sweeps and flips: cycles
//! must match exactly and every energy component exactly too, on
//! BRIM over complete graphs, Ising-CIM on K9 and Ising-CIM on a King's
//! torus larger than one array (so edge-cell broadcasts are billed). A
//! mismatch exits 1 after the table prints.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sachi_baselines::prelude::*;
use sachi_bench::{section, Table};
use sachi_core::prelude::*;
use sachi_ising::prelude::*;
use sachi_mem::cache::{CacheGeometry, CacheHierarchy};
use sachi_mem::energy::EnergyComponent;
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

/// A King's torus: every cell joins its 8 wrapped neighbours, so the
/// degree is 8 everywhere. Couplings stay in Ising-CIM's unsigned 2-bit
/// range.
fn kings_torus(side: usize) -> IsingGraph {
    let at = |r: usize, c: usize| {
        u32::try_from((r % side) * side + c % side).expect("bench sizes fit u32")
    };
    let mut b = GraphBuilder::new(side * side);
    for r in 0..side {
        for c in 0..side {
            for (dr, dc) in [(0, 1), (1, side - 1), (1, 0), (1, 1)] {
                let w = i32::try_from((r + c + dr) % 4).expect("2-bit coupling");
                b.push_edge(at(r, c), at(r + dr, c + dc), w);
            }
        }
    }
    b.build().expect("torus is a valid graph")
}

/// The shape of a uniform-degree graph. Uniform degree is the
/// precondition for exactness; fail loudly if a topology edit breaks it.
fn uniform_shape(name: &str, graph: &IsingGraph) -> WorkloadShape {
    assert!(
        (0..graph.num_spins()).all(|i| graph.degree(i) == graph.max_degree()),
        "{name} graph must be uniform-degree"
    );
    WorkloadShape::new(
        u64::try_from(graph.num_spins()).expect("bench sizes fit u64"),
        u64::try_from(graph.max_degree()).expect("degrees fit u64"),
        graph.bits_required(),
    )
}

fn drift_percent(measured: f64, predicted: f64) -> f64 {
    if predicted == 0.0 {
        return if measured == 0.0 { 0.0 } else { f64::INFINITY };
    }
    (measured - predicted) / predicted * 100.0
}

/// Energy components that depend on measured flips and discharges: the
/// model estimates them, so their drift is only reported. The shape fixes
/// every other component, so those must match.
const ESTIMATED: [EnergyComponent; 4] = [
    EnergyComponent::RblDischarge,
    EnergyComponent::SramRead,
    EnergyComponent::SramWrite,
    EnergyComponent::DataMovement,
];

/// The baseline legs: each machine's `price` of a golden solve's graph
/// counts against its `price` fed the shape's counts at the solve's
/// sweeps and flips. Returns the legs that drifted.
fn baseline_legs(sizes: &[usize], smoke: bool) -> Vec<String> {
    let brim = BrimMachine::new();
    let cim = CimMachine::new();
    let mut legs: Vec<(String, IsingGraph, &str)> = sizes
        .iter()
        .map(|&n| {
            let graph = topology::complete(n, |i, j| ((i * 3 + j * 5) % 15) as i32 - 7)
                .expect("complete graph builds");
            (format!("complete({n})"), graph, "BRIM")
        })
        .collect();
    let k9 = topology::complete(9, |i, j| ((i + j) % 4) as i32).expect("K9 builds");
    legs.push(("complete(9)".to_string(), k9, "Ising-CIM"));
    // 48 x 48 = 2304 spins, above one array's 2048 cells.
    let side = if smoke { 48 } else { 64 };
    legs.push((
        format!("torus({side}x{side})"),
        kings_torus(side),
        "Ising-CIM",
    ));

    let mut table = Table::new([
        "graph",
        "machine",
        "sweeps",
        "flips",
        "cycles",
        "closed",
        "energy",
        "closed energy",
        "worst drift",
    ]);
    let mut drifted = Vec::new();
    for (name, graph, machine) in &legs {
        let shape = uniform_shape(name, graph);
        let mut rng = StdRng::seed_from_u64(0xD21F);
        let init = SpinVector::random(graph.num_spins(), &mut rng);
        let opts = SolveOptions::for_graph(graph, 17);
        let result = CpuReferenceSolver::new().solve(graph, &init, &opts);
        let counts = SolveCounts::of(graph, &result);
        let shape_counts = SolveCounts::for_shape(&shape, result.sweeps, result.flips);
        let (Price { cycles, energy }, closed) = if *machine == "BRIM" {
            brim.check_limits(graph).expect("BRIM envelope");
            (brim.price(&counts), brim.price(&shape_counts))
        } else {
            cim.check_limits(graph).expect("Ising-CIM envelope");
            (cim.price(&counts), cim.price(&shape_counts))
        };
        let mut worst = 0.0f64;
        let mut exact = cycles == closed.cycles;
        for component in EnergyComponent::ALL {
            let measured = energy.component(component).get();
            let modelled = closed.energy.component(component).get();
            exact &= measured == modelled;
            worst = worst.max(drift_percent(measured, modelled).abs());
        }
        if !exact {
            drifted.push(format!("{machine} {name}"));
        }
        table.row([
            name.clone(),
            machine.to_string(),
            result.sweeps.to_string(),
            result.flips.to_string(),
            cycles.get().to_string(),
            closed.cycles.get().to_string(),
            energy.total().to_string(),
            closed.energy.total().to_string(),
            format!("{worst:.1e}%"),
        ]);
    }
    section("baseline price vs functional machine on uniform-degree graphs");
    table.print();
    println!();
    println!(
        "cycles and every energy component exact (checked), \
         Ising-CIM's load SRAM write and edge-cell broadcasts included"
    );
    drifted
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
    let default = CacheHierarchy::hpca_default();
    let small = CacheHierarchy {
        compute: CacheGeometry::new(2, 4, 64, 1),
        storage: CacheGeometry::sachi_storage_default(),
    };
    // DRAM regimes: a storage array too small for any case, so rounds
    // stream from DRAM — one round on the default compute array, several
    // on the small one.
    let tiny_storage = CacheGeometry::new(1, 4, 64, 2);
    let one_round_dram = CacheHierarchy {
        storage: tiny_storage,
        ..default
    };
    let multi_round_dram = CacheHierarchy {
        storage: tiny_storage,
        ..small
    };
    let bank_counts: &[usize] = if smoke { &[1, 4] } else { &[1, 2, 4, 8] };
    let complete = |n| {
        topology::complete(n, |i, j| if (i + j) % 2 == 0 { 1 } else { -1 })
            .expect("complete graph builds")
    };
    let mut cases = Vec::new();
    for &n in sizes {
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
    let dram_ring = if smoke { 64 } else { 256 };
    cases.extend([
        (
            "complete(36) dram".to_string(),
            complete(36),
            one_round_dram,
            1,
        ),
        (
            format!("ring({dram_ring}) dram"),
            ring(dram_ring),
            one_round_dram,
            1,
        ),
        (
            "complete(36) 2x4x64 dram".to_string(),
            complete(36),
            multi_round_dram,
            1,
        ),
    ]);

    let mut cycles = Table::new([
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
    let mut headers = vec!["graph", "banks", "design", "dram", "shape-fixed drift"];
    headers.extend(ESTIMATED.map(EnergyComponent::label));
    let mut energy = Table::new(headers);
    for (name, graph, hierarchy, banks) in &cases {
        let shape = uniform_shape(name, graph);
        for design in DesignKind::ALL {
            let config = SachiConfig::new(design)
                .with_hierarchy(*hierarchy)
                .with_banks(*banks);
            let mut machine = SachiMachine::new(config.clone());
            let mut rng = StdRng::seed_from_u64(0xD21F);
            let init = SpinVector::random(graph.num_spins(), &mut rng);
            let opts = SolveOptions::for_graph(graph, 17);
            let (_, report) = machine.solve_detailed(graph, &init, &opts);

            let plan = RoundPlan::uniform(&config, &shape).expect("drift shapes are small");
            let model = PerfModel::new(config);
            let est = model.iteration(&shape);
            let solve = model.solve(&shape, report.sweeps);
            let multi_round = hierarchy.compute != default.compute;
            let streams = hierarchy.storage != default.storage;
            assert_eq!(
                (est.rounds > 1, est.uses_dram),
                (multi_round, streams),
                "{name}: each hierarchy must exercise its regime"
            );
            let predicted_compute = est.compute_cycles.get() * report.sweeps;
            let measured_compute = report.compute_cycles.get();
            let compute_drift = drift_percent(measured_compute as f64, predicted_compute as f64);
            // Sweep 0 pays a resident problem's fill on top of the steady
            // per-sweep load (every sweep reloads a multi-round one).
            let first_fill = plan.sweep_load(0) - plan.sweep_load(1);
            let measured = [report.load_cycles, report.total_cycles];
            let predicted = [
                est.load_cycles * report.sweeps + first_fill,
                solve.total_cycles,
            ];
            cycles.row([
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

            let drift = |component| {
                let measured = report.energy.component(component).get();
                let modelled = solve.energy.component(component).get();
                let exact = measured == modelled;
                (drift_percent(measured, modelled), exact)
            };
            let mut worst = 0.0f64;
            for component in EnergyComponent::ALL {
                let (percent, exact) = drift(component);
                if !ESTIMATED.contains(&component) {
                    assert!(
                        exact,
                        "{name} x{banks}/{}: {component} energy must match ({percent:+e}% drift)",
                        design.label()
                    );
                    worst = worst.max(percent.abs());
                }
            }
            let dram = report.energy.component(EnergyComponent::DramAccess);
            let mut row = vec![name.clone(), banks.to_string(), design.label().to_string()];
            row.extend([dram.to_string(), format!("{worst:.1e}%")]);
            row.extend(ESTIMATED.map(|component| format!("{:+.2}%", drift(component).0)));
            energy.row(row);
        }
    }
    section("PerfModel vs functional machine: cycle drift on uniform-degree graphs");
    cycles.print();
    println!();
    println!(
        "compute, load and total drift: 0.00% everywhere (asserted), banked multi-round \
         sweeps with prefetch overlap and DRAM streaming included"
    );
    section("PerfModel vs functional machine: energy drift on the same runs");
    energy.print();
    println!();
    println!(
        "rwl, adder, decision, annealer, dram and dram-ctrl exact everywhere (asserted); \
         rbl, sram-read, sram-write and movement follow the model's flip-rate and \
         discharge estimates (reported only)"
    );

    let drifted = baseline_legs(sizes, smoke);
    if !drifted.is_empty() {
        eprintln!("disc_drift: baseline price drifted from its machine on {drifted:?}");
        std::process::exit(1);
    }
}
