//! Fig. 4: real-life COP characteristics — typical problem sizes, graph
//! connectivity, minimum IC resolution, and whether a 1K-spin instance
//! fits in an L1-sized compute array at the native resolution vs a fixed
//! 8-bit one. Motivates the reconfigurable/scalable architecture.

use sachi_bench::{section, Table};
use sachi_core::prelude::*;
use sachi_mem::prelude::*;
use sachi_workloads::prelude::*;

fn fit_label(total_bits: u64, l1: Bits) -> &'static str {
    if l1.holds(Bits::new(total_bits)) {
        "fits in L1"
    } else {
        "exceeds L1"
    }
}

fn main() {
    section("Fig. 4 - COP characteristics (1K spins, 64KB L1 reference)");
    let l1 = Bits::from_kib(64);
    let mut table = Table::new([
        "COP",
        "typical size",
        "connectivity",
        "R (bits)",
        "R-bit footprint",
        "R-bit fit",
        "8-bit footprint",
        "8-bit fit",
    ]);
    // Every tuple's storage footprint (Fig. 7a layout).
    let bits = |s: WorkloadShape| {
        s.spins * SpinTuple::storage_bits(s.neighbors_per_spin, s.resolution_bits)
    };
    for kind in CopKind::ALL {
        let (lo, hi) = kind.typical_size_range();
        let native = bits(kind.standard_shape(1_000));
        let eight = bits(kind.standard_shape(1_000).with_resolution(8));
        table.row([
            kind.label().to_string(),
            format!("{lo}-{hi}"),
            kind.connectivity().to_string(),
            kind.standard_shape(1_000).resolution_bits.to_string(),
            format!("{}", Bits::new(native)),
            fit_label(native, l1).to_string(),
            format!("{}", Bits::new(eight)),
            fit_label(eight, l1).to_string(),
        ]);
    }
    table.print();

    section("accuracy note");
    println!("Fig. 4's R column is the minimum resolution for 90% accuracy at 1K");
    println!("spins; fig19_convergence measures the accuracy-vs-R trade-off on");
    println!("live solves. Deviation from the paper: under our tuple-shape model");
    println!("the sparse COPs (asset allocation) fit in L1 even at 8-bit, whereas");
    println!("the paper's Fig. 4 marks them as exceeding it (see EXPERIMENTS.md).");

    section("paper default geometry");
    let h = CacheHierarchy::hpca_default();
    println!(
        "compute array: {} tiles x {} rows x {} bits = {} | storage array: {} ({} read ports)",
        h.compute.tiles(),
        h.compute.rows_per_tile(),
        h.compute.row_bits(),
        h.compute.total_bits(),
        h.storage.total_bits(),
        h.storage.read_ports()
    );
    // Sanity: the shape-level footprints drive the Fig. 17 round counts.
    let model = PerfModel::new(SachiConfig::new(DesignKind::N3));
    let mut rounds = Table::new(["COP", "rounds/iter @1K", "rounds/iter @1M"]);
    for kind in CopKind::ALL {
        rounds.row([
            kind.label().to_string(),
            model
                .iteration(&kind.standard_shape(1_000))
                .rounds
                .to_string(),
            model
                .iteration(&kind.standard_shape(1_000_000))
                .rounds
                .to_string(),
        ]);
    }
    rounds.print();
}
