//! Fig. 5: the motivation for reuse-aware compute, demonstrated on live
//! SRAM tiles.
//!
//! (a) CNNs reuse a weight across many activations; (b) the Ising dot
//! product has no native reuse — each `J_ij` belongs to exactly one spin
//! pair; (c) an Ising-CIM-style mapping therefore performs *redundant*
//! computes: with `σ_1..σ_3` in a row and `J_14` driven on the word-line,
//! only `J_14·σ_1` is wanted, but `J_14·σ_2` and `J_14·σ_3` discharge
//! their bit-lines anyway. This harness reproduces that exact scenario
//! bit-for-bit and prices the waste.

use sachi_bench::{ratio, section, Table};
use sachi_core::prelude::*;
use sachi_ising::spin::Spin;
use sachi_mem::prelude::*;

fn main() {
    section("Fig. 5c - the redundant-compute scenario, on a live tile");
    // Spins σ1=+1, σ2=-1, σ3=+1 stored in one row; J14's bit driven on
    // the shared RWL; only column 0 (σ1) is sensed.
    let mut tile = SramTile::new(1, 3);
    tile.write_row(0, &[Spin::Up.bit(), Spin::Down.bit(), Spin::Up.bit()])
        .expect("layout");
    let j14_bit = true;
    let sensed = tile.compute_xnor_bit(0, j14_bit, 0..3, 0).expect("compute");
    let stats = *tile.stats();
    println!("driven J14 bit = 1 against row [σ1=+1, σ2=-1, σ3=+1], sensing only σ1's column:");
    println!("  sensed XNOR(σ1, J14) = {sensed}");
    println!(
        "  bit-lines discharged: {} (useful: {}, redundant: {})",
        stats.rbl_discharges,
        stats.rbl_discharges - stats.redundant_discharges,
        stats.redundant_discharges
    );
    let params = TechnologyParams::freepdk45();
    println!(
        "  redundant energy this access: {}",
        stats.redundant_energy(&params)
    );
    assert_eq!(stats.redundant_discharges, 1); // σ3 discharged uselessly (σ2's XNOR is 0)

    section("reuse per design on the same 8-neighbor tuple (N = 8, R = 4)");
    let enc = MixedEncoding::new(4).expect("4-bit");
    let graph =
        sachi_ising::graph::topology::king(3, 3, |i, j| ((i + j) % 7) as i32 - 3).expect("lattice");
    let spins: sachi_ising::spin::SpinVector = (0..9).map(|i| Spin::from_bit(i % 2 == 0)).collect();
    let store = TupleStore::new(&graph, &spins);
    let tuple = store.tuple(4); // interior: full 8-neighbor fan-in

    let mut table = Table::new([
        "design",
        "RWL bits fetched",
        "useful XNORs",
        "reuse",
        "redundant discharges",
        "wasted energy",
    ]);
    for design in DesignKind::ALL {
        let d = stationarity(design);
        let (rows, cols) = d.tile_requirements(8, 4, 800);
        let mut tile = SramTile::new(rows, cols);
        let mut ctx = ComputeContext::new();
        let h = d.compute_tuple(&mut tile, &enc, tuple, spins.get(4), &mut ctx);
        assert_eq!(h, sachi_ising::hamiltonian::local_field(&graph, &spins, 4));
        table.row([
            design.label().to_string(),
            ctx.rwl_bits_fetched.to_string(),
            ctx.xnor_ops.to_string(),
            format!("{:.1}", ctx.reuse()),
            tile.stats().redundant_discharges.to_string(),
            format!(
                "{}",
                tile.stats()
                    .redundant_energy(&TechnologyParams::freepdk45())
            ),
        ]);
    }
    table.print();

    section("what reuse buys: storage->RWL movement per sweep (1K-spin COPs, 4-bit)");
    let mut t2 = Table::new(["COP", "n1 movement/iter", "n3 movement/iter", "saving"]);
    for kind in sachi_workloads::spec::CopKind::ALL {
        let shape = kind.standard_shape(1_000).with_resolution(4);
        let moved =
            |k| stationarity(k).phase1_cycles(shape.neighbors_per_spin, 4, 800) * shape.spins;
        let n1 = moved(DesignKind::N1a);
        let n3 = moved(DesignKind::N3);
        t2.row([
            kind.label().to_string(),
            format!("{}", Bits::new(n1)),
            format!("{}", Bits::new(n3)),
            ratio(n1 as f64, n3 as f64),
        ]);
    }
    t2.print();
    println!();
    println!("every driven bit costs 1 pJ of movement (800x an addition) — the");
    println!("reuse ladder is the energy story of Figs. 15c/15e.");
}
