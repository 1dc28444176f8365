//! The scalar design oracles against the golden local field, against
//! each other, and against the production kernel: identical `H_σ`, and
//! the kernel's discharges plus the schedule's [`StaticEvents`] give
//! the oracle's [`ComputeContext`] and tile events on every tuple.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sachi_bench::reference::bitcell::BitcellTile;
use sachi_bench::reference::designs::oracle;
use sachi_core::config::DesignKind;
use sachi_core::designs::{ComputeContext, ComputeScratch, StaticEvents};
use sachi_core::encoding::MixedEncoding;
use sachi_core::tuple::{TuplePlanes, TupleStore};
use sachi_ising::graph::{topology, GraphBuilder};
use sachi_ising::hamiltonian::local_field;
use sachi_ising::spin::{Spin, SpinVector};
use sachi_mem::sram::{SramTile, TileParams};

fn check_design_matches_golden(kind: DesignKind, seed: u64) {
    let g = topology::king(4, 4, |i, j| ((i * 3 + j * 7) % 13) as i32 - 6).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let spins = SpinVector::random(16, &mut rng);
    let store = TupleStore::new(&g, &spins);
    let enc = MixedEncoding::new(g.bits_required()).unwrap();
    let design = oracle(kind);
    let (rows, cols) = design.tile_requirements(g.max_degree(), enc.bits(), 800);
    let mut tile = BitcellTile::new(rows, cols);
    let mut ctx = ComputeContext::new();
    for i in 0..16 {
        let h = design.compute_tuple(&mut tile, &enc, store.tuple(i), spins.get(i), &mut ctx);
        assert_eq!(h, local_field(&g, &spins, i), "{kind} mismatch at spin {i}");
    }
    assert!(ctx.cycles > 0);
    assert!(ctx.xnor_ops > 0);
}

#[test]
fn all_designs_match_golden_local_field() {
    for kind in DesignKind::ALL {
        for seed in 0..3 {
            check_design_matches_golden(kind, seed);
        }
    }
}

#[test]
fn soa_kernel_is_bit_identical_to_scalar_oracle() {
    for kind in DesignKind::ALL {
        for seed in 0..3u64 {
            let g = topology::king(4, 4, |i, j| ((i * 3 + j * 7) % 13) as i32 - 6).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let spins = SpinVector::random(16, &mut rng);
            let store = TupleStore::new(&g, &spins);
            let enc = MixedEncoding::new(g.bits_required()).unwrap();
            let design = oracle(kind);
            let (rows, cols) = design.tile_requirements(g.max_degree(), enc.bits(), 800);
            let planes = TuplePlanes::new(&store, &enc).unwrap();
            let mut tile_s = BitcellTile::new(rows, cols);
            let mut tile_o = SramTile::with_params(TileParams::new(rows, cols));
            let mut ctx_s = ComputeContext::new();
            let mut ctx_o = ComputeContext::new();
            let mut scratch = ComputeScratch::new();
            for i in 0..16 {
                let hs = design.compute_tuple(
                    &mut tile_s,
                    &enc,
                    store.tuple(i),
                    spins.get(i),
                    &mut ctx_s,
                );
                let ho = design.compute_tuple_soa(
                    &mut tile_o,
                    &enc,
                    store.tuple(i),
                    planes.view(i),
                    spins.get(i),
                    &mut ctx_o,
                    &mut scratch,
                );
                let degree = store.tuple(i).degree() as u64;
                StaticEvents::of(&design.schedule(degree, enc.bits(), 800))
                    .book(&mut ctx_o, &mut tile_o);
                assert_eq!(hs, ho, "{kind} H mismatch at spin {i}");
                assert_eq!(ctx_s, ctx_o, "{kind} ComputeContext mismatch at spin {i}");
                assert_eq!(
                    tile_s.stats(),
                    tile_o.stats(),
                    "{kind} TileStats mismatch at spin {i}"
                );
            }
        }
    }
}

#[test]
fn designs_handle_fields_and_isolated_spins() {
    let g = GraphBuilder::new(3)
        .edge(0, 1, 5)
        .field(0, -3)
        .field(2, 7)
        .build()
        .unwrap();
    let spins = SpinVector::from_spins(&[Spin::Up, Spin::Down, Spin::Up]);
    let store = TupleStore::new(&g, &spins);
    let enc = MixedEncoding::new(4).unwrap();
    for kind in DesignKind::ALL {
        let design = oracle(kind);
        let (rows, cols) = design.tile_requirements(1, 4, 800);
        let mut tile = BitcellTile::new(rows, cols);
        let mut ctx = ComputeContext::new();
        for i in 0..3 {
            let h = design.compute_tuple(&mut tile, &enc, store.tuple(i), spins.get(i), &mut ctx);
            assert_eq!(h, local_field(&g, &spins, i), "{kind} spin {i}");
        }
    }
}

#[test]
fn measured_reuse_approaches_max_reuse() {
    let g = topology::king(4, 4, |_, _| 2).unwrap();
    let spins = SpinVector::filled(16, Spin::Up);
    let store = TupleStore::new(&g, &spins);
    let enc = MixedEncoding::new(4).unwrap();
    for kind in DesignKind::ALL {
        let design = oracle(kind);
        let (rows, cols) = design.tile_requirements(8, 4, 800);
        let mut tile = BitcellTile::new(rows, cols);
        let mut ctx = ComputeContext::new();
        // Center spin: full 8-neighbor tuple.
        design.compute_tuple(&mut tile, &enc, store.tuple(5), spins.get(5), &mut ctx);
        let expected = design
            .schedule(store.tuple(5).degree() as u64, 4, 800)
            .max_reuse as f64;
        let measured = ctx.reuse();
        assert!(
            (measured - expected).abs() / expected < 0.35,
            "{kind}: measured reuse {measured}, expected ~{expected}"
        );
    }
}

#[test]
fn n1_designs_pay_redundant_discharges() {
    // Sensing one column while the whole row discharges is the Fig. 5c
    // energy waste; n3 senses everything it discharges.
    let g = topology::king(3, 3, |_, _| 3).unwrap();
    let spins = SpinVector::filled(9, Spin::Up);
    let store = TupleStore::new(&g, &spins);
    let enc = MixedEncoding::new(4).unwrap();
    let mut redundant = std::collections::BTreeMap::new();
    for kind in DesignKind::ALL {
        let design = oracle(kind);
        let (rows, cols) = design.tile_requirements(8, 4, 800);
        let mut tile = BitcellTile::new(rows, cols);
        let mut ctx = ComputeContext::new();
        design.compute_tuple(&mut tile, &enc, store.tuple(4), spins.get(4), &mut ctx);
        redundant.insert(kind, tile.stats().redundant_discharges);
    }
    assert!(redundant[&DesignKind::N1a] > 0);
    assert!(redundant[&DesignKind::N1b] > 0);
    assert_eq!(redundant[&DesignKind::N3], 0);
    assert!(redundant[&DesignKind::N1a] > redundant[&DesignKind::N2]);
}

proptest! {
    #[test]
    fn designs_agree_with_each_other(seed in 0u64..50) {
        let g = topology::complete(6, |i, j| ((i * 5 + j * 11 + 3) % 15) as i32 - 7).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let spins = SpinVector::random(6, &mut rng);
        let store = TupleStore::new(&g, &spins);
        let enc = MixedEncoding::new(g.bits_required()).unwrap();
        for i in 0..6 {
            let golden = local_field(&g, &spins, i);
            for kind in DesignKind::ALL {
                let design = oracle(kind);
                let (rows, cols) = design.tile_requirements(5, enc.bits(), 800);
                let mut tile = BitcellTile::new(rows, cols);
                let mut ctx = ComputeContext::new();
                let h = design.compute_tuple(&mut tile, &enc, store.tuple(i), spins.get(i), &mut ctx);
                prop_assert_eq!(h, golden);
            }
        }
    }
}
