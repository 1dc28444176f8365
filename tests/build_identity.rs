//! Build identity: every generated COP graph is byte-identical to the
//! committed table `tests/golden/build_identity.txt`.
//!
//! Each line of the table is `family size seed digest`. The digest
//! (`sachi_bench::identity::digest`) is an FNV-1a hash of the built
//! graph's CSR `offsets`, `neighbors`, `weights` and `fields`, the
//! instance name, and the objective at four seeded random spin vectors:
//! the QUBO objective for the QUBO-encoded families, the Ising energy
//! for the rest.
//!
//! Coverage: every `CopKind::EXTENDED` family through
//! `build_cop_problem` at sizes {family minimum, 24, 64, 256} × seeds
//! 0..8; the Lucas QUBO tour (`cities²` spins) at {3, 5, 8, 16} cities
//! × seeds 0..8; and the shapes the `perf_kernels` build row times. A
//! change to the QUBO or graph builders must leave every line as it is.
//!
//! To print the table for the current tree (only when a change means to
//! alter a built graph, and says so on record):
//! `cargo test --release --test build_identity -- --ignored --nocapture`.

use sachi::prelude::CopKind;
use sachi::workloads::lucas::{coloring, InputGraph};
use sachi_bench::identity::{digest_of, golden_rows, qubo_digest};

/// Seeds every family is built at.
const SEEDS: std::ops::Range<u64> = 0..8;

/// Every `(family, size, seed)` the table must cover, in table order.
fn shapes() -> Vec<(&'static str, usize, u64)> {
    let mut shapes = Vec::new();
    for kind in CopKind::EXTENDED {
        let minimum = match kind {
            CopKind::AssetAllocation | CopKind::MolecularDynamics => 2,
            CopKind::TravelingSalesman => 3,
            CopKind::SatThree => 5,
            _ => 4,
        };
        for size in [minimum, 24, 64, 256] {
            for seed in SEEDS {
                shapes.push((kind.key(), size, seed));
            }
        }
    }
    for cities in [3, 5, 8, 16] {
        for seed in SEEDS {
            shapes.push(("tsp-tour", cities, seed));
        }
    }
    // The perf_kernels `build` row's shapes beyond the grid above.
    shapes.push(("md", 8192, 0));
    shapes
}

#[test]
fn the_table_covers_every_shape_once() {
    let table: Vec<(&str, usize, u64)> = golden_rows()
        .into_iter()
        .map(|(f, size, seed, _)| (f, size, seed))
        .collect();
    assert_eq!(table, shapes());
}

#[test]
fn every_built_graph_matches_the_pinned_table() {
    let mut diverged = Vec::new();
    for (f, size, seed, pinned) in golden_rows() {
        let got = digest_of(f, size, seed);
        if got != pinned {
            diverged.push(format!(
                "{f} {size} {seed}: {got:016x} (pinned {pinned:016x})"
            ));
        }
    }
    assert!(
        diverged.is_empty(),
        "{} builds diverged from the table:\n{}",
        diverged.len(),
        diverged.join("\n")
    );
}

#[test]
#[ignore = "prints the table for the current tree"]
fn print_table() {
    for (f, size, seed) in shapes() {
        println!("{f} {size} {seed} {:016x}", digest_of(f, size, seed));
    }
}

/// `lucas::coloring` encodes through the coloring family's one-hot
/// encoder at A = B = 1. Its QUBOs keep the digests (seeded by `k`) they
/// had when it built them with its own copy of that encoder.
#[test]
fn lucas_coloring_matches_its_pinned_digests() {
    const PINNED: [(&str, usize, u64); 9] = [
        ("cycle(8)", 2, 0x10d8_0d4c_7512_7e4d),
        ("cycle(8)", 3, 0x3b79_d178_6176_9f42),
        ("cycle(8)", 4, 0x5e3f_2d84_10a4_deaa),
        ("petersen()", 2, 0x54d2_9831_e823_65ba),
        ("petersen()", 3, 0x1fcb_5c5e_460f_18f3),
        ("petersen()", 4, 0x4b30_e94d_d266_e1a2),
        ("complete(5)", 2, 0x7304_f9b3_a2b2_837c),
        ("complete(5)", 3, 0xaa7c_815d_20e4_71a6),
        ("complete(5)", 4, 0x365d_9be3_e0c9_9a9c),
    ];
    for (name, k, want) in PINNED {
        let input = match name {
            "cycle(8)" => InputGraph::cycle(8),
            "petersen()" => InputGraph::petersen(),
            _ => InputGraph::complete(5),
        };
        let qubo = coloring(&input, k).expect("small colorings encode");
        assert_eq!(qubo_digest(&qubo, k as u64), want, "{name} at k = {k}");
    }
}
