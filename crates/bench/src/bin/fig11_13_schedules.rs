//! Figs. 11–13: the per-design compute schedules on the paper's own
//! running example (the Fig. 2 4x3 image with 3-bit ICs) — phase-1
//! cycles, idle time before phases 3–5 activate, XNOR-queue sizing, and
//! SRAM throughput — plus a live functional check that all four designs
//! produce the same `H_σ` from real SRAM discharge patterns. Every
//! schedule column is read from the design's `TupleSchedule`, the same
//! struct the production kernel books and the cost model prices.

use sachi_bench::reference::bitcell::BitcellTile;
use sachi_bench::reference::designs::oracle;
use sachi_bench::{section, Table};
use sachi_core::prelude::*;
use sachi_ising::prelude::*;

fn schedule_table(n: u64, r: u32, label: &str) {
    section(&format!("schedules for {label} (N = {n}, R = {r})"));
    let mut table = Table::new([
        "design",
        "phase-1 cycles",
        "idle cycles",
        "queue bits",
        "throughput b/cyc",
        "latency",
        "max reuse",
    ]);
    for design in DesignKind::ALL {
        let s = stationarity(design).schedule(n, r, 800);
        table.row([
            design.label().to_string(),
            s.accesses.to_string(),
            s.idle_cycles.to_string(),
            s.queue_bits.to_string(),
            s.throughput_bits_per_cycle().to_string(),
            s.latency_cycles().to_string(),
            s.max_reuse.to_string(),
        ]);
    }
    table.print();
}

fn main() {
    // Fig. 11's running example: interior pixel of a 4x3 grid image has
    // N = 4 neighbors at R = 3 bits; the figure highlights 2 of them.
    schedule_table(2, 3, "Fig. 11's highlighted pair");
    schedule_table(4, 3, "a full 4x3-image interior pixel");
    schedule_table(8, 4, "molecular dynamics (King's graph, 4-bit)");
    schedule_table(999, 4, "1K-city TSP (complete graph, 4-bit)");

    section("paper formulas check");
    println!("n1a idle = (R-1)*N + 1, queue = N*(R+1); n1b idle = R, queue = R+1;");
    println!("n2 eliminates the queue with R-bit/cycle reads; n3 reads N*(R+1) bits/cycle.");

    section("functional agreement on the Fig. 2 image graph");
    // Fig. 2: 4x3 image, 4-neighbor edges, J = pixel difference.
    let pixels: [i32; 12] = [40, 45, 180, 175, 42, 170, 185, 178, 38, 44, 172, 168];
    let mut builder = GraphBuilder::new(12);
    for r in 0..3usize {
        for c in 0..4usize {
            let u = (r * 4 + c) as u32;
            if c + 1 < 4 {
                let v = u + 1;
                builder.push_edge(
                    u,
                    v,
                    24 - (pixels[u as usize] - pixels[v as usize]).abs() / 8,
                );
            }
            if r + 1 < 3 {
                let v = u + 4;
                builder.push_edge(
                    u,
                    v,
                    24 - (pixels[u as usize] - pixels[v as usize]).abs() / 8,
                );
            }
        }
    }
    let graph = builder.build().expect("Fig. 2 graph");
    let spins = SpinVector::from_spins(&[
        Spin::Down,
        Spin::Down,
        Spin::Up,
        Spin::Up,
        Spin::Down,
        Spin::Up,
        Spin::Up,
        Spin::Up,
        Spin::Down,
        Spin::Down,
        Spin::Up,
        Spin::Up,
    ]);
    let store = TupleStore::new(&graph, &spins);
    let enc = MixedEncoding::new(graph.bits_required()).expect("resolution in range");
    let mut table = Table::new(["pixel", "golden H_σ", "n1a", "n1b", "n2", "n3"]);
    for i in 0..12 {
        let golden = local_field(&graph, &spins, i);
        let mut row = vec![format!("σ{i}"), golden.to_string()];
        for design in DesignKind::ALL {
            let d = oracle(design);
            let (rows, cols) = d.tile_requirements(graph.max_degree(), enc.bits(), 800);
            let mut tile = BitcellTile::new(rows, cols);
            let mut ctx = ComputeContext::new();
            let h = d.compute_tuple(&mut tile, &enc, store.tuple(i), spins.get(i), &mut ctx);
            assert_eq!(h, golden, "{design} diverged at pixel {i}");
            row.push(h.to_string());
        }
        table.row(row);
    }
    table.print();
    println!("all four stationarity designs reproduce the golden local field bit-exactly");
}
