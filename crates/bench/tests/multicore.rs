//! The multi-core model: partitions cover every spin evenly, contiguous
//! lattice partitions cut fewer edges than interleaved ones, and dense
//! graphs stay interconnect-bound.

use sachi_bench::reference::multicore::{MulticoreModel, Partition};
use sachi_core::config::{DesignKind, SachiConfig};
use sachi_ising::graph::topology;
use sachi_mem::units::Cycles;
#[test]
fn partitions_cover_all_spins_evenly() {
    for n in [10usize, 100, 101] {
        for cores in [1usize, 2, 4, 7] {
            for p in [
                Partition::contiguous(n, cores),
                Partition::interleaved(n, cores),
            ] {
                let sizes = p.core_sizes();
                assert_eq!(sizes.iter().sum::<u64>(), n as u64);
                let max = *sizes.iter().max().unwrap();
                let min = *sizes.iter().min().unwrap();
                assert!(
                    max - min <= (n % cores).max(1) as u64,
                    "imbalanced: {sizes:?}"
                );
            }
        }
    }
}

#[test]
fn contiguous_cuts_fewer_lattice_edges_than_interleaved() {
    let g = topology::king(40, 40, |_, _| 1).unwrap();
    let contiguous = Partition::contiguous(1600, 4);
    let interleaved = Partition::interleaved(1600, 4);
    let cc = contiguous.cut_edges(&g);
    let ic = interleaved.cut_edges(&g);
    assert!(
        cc * 5 < ic,
        "contiguous cut {cc} not much less than interleaved {ic}"
    );
    // Row-major contiguous quarters cut ~3 row boundaries of King's
    // edges: 3 seams x ~(3*40) edges.
    assert!(cc < 500, "cut {cc} too high for block partition");
}

#[test]
fn complete_graph_has_no_good_partition() {
    let g = topology::complete(64, |_, _| 1).unwrap();
    let contiguous = Partition::contiguous(64, 4).cut_edges(&g);
    let interleaved = Partition::interleaved(64, 4).cut_edges(&g);
    // K64 has 2016 edges; any 4-way equal split cuts 3/4 of them.
    assert_eq!(contiguous, interleaved);
    assert_eq!(contiguous, 2016 - 4 * 120); // total minus 4 x C(16,2) internal
}

#[test]
fn more_cores_speed_up_lattices() {
    let g = topology::king(64, 64, |_, _| 1).unwrap();
    let model = MulticoreModel::new(SachiConfig::new(DesignKind::N3));
    let mut last = 0.0;
    for cores in [1usize, 2, 4, 8] {
        let est = model.estimate(&g, &Partition::contiguous(4096, cores));
        assert!(
            est.speedup_vs_single >= last * 0.99,
            "speedup regressed at {cores} cores: {} < {last}",
            est.speedup_vs_single
        );
        last = est.speedup_vs_single;
        assert_eq!(est.cores, cores);
    }
    assert!(
        last > 2.0,
        "8 cores should speed a 4K lattice by >2x, got {last:.2}"
    );
}

#[test]
fn single_core_estimate_is_neutral() {
    let g = topology::king(20, 20, |_, _| 1).unwrap();
    let model = MulticoreModel::new(SachiConfig::new(DesignKind::N3));
    let est = model.estimate(&g, &Partition::contiguous(400, 1));
    assert_eq!(est.cut_edges, 0);
    assert_eq!(est.interconnect_cycles, Cycles::ZERO);
    assert!((est.speedup_vs_single - 1.0).abs() < 1e-9);
}

#[test]
fn interconnect_bound_caps_dense_graph_scaling() {
    let g = topology::complete(512, |_, _| 1).unwrap();
    let mut model = MulticoreModel::new(SachiConfig::new(DesignKind::N3));
    model.interconnect_msgs_per_cycle = 1; // starve the interconnect
    let est = model.estimate(&g, &Partition::contiguous(512, 8));
    // The broadcast term dominates the busiest core's compute.
    assert!(est.interconnect_cycles > est.core_cycles);
    assert_eq!(est.effective_cycles, est.interconnect_cycles);
}

#[test]
#[should_panic(expected = "at least one core")]
fn zero_cores_rejected() {
    let _ = Partition::contiguous(10, 0);
}

#[test]
fn empty_graph_partitions_to_empty_assignment() {
    let g = sachi_ising::graph::GraphBuilder::new(0)
        .build()
        .expect("empty graph");
    for p in [Partition::contiguous(0, 4), Partition::interleaved(0, 4)] {
        assert_eq!(p.cores(), 4);
        assert_eq!(p.core_sizes(), vec![0, 0, 0, 0]);
        assert_eq!(p.cut_edges(&g), 0);
    }
}

#[test]
fn interleaved_edge_cases_match_contiguous_contract() {
    // n == 0: empty assignment, every core owns zero spins, and the
    // surplus cores still appear (with zero) in core_sizes.
    for cores in [1usize, 3, 16] {
        let p = Partition::interleaved(0, cores);
        assert_eq!(p.cores(), cores);
        assert_eq!(p.core_sizes(), vec![0u64; cores]);
    }
    // cores > n: the first n cores own one spin each, core_of is
    // total over 0..n, and the mapping is exactly i % cores.
    for (n, cores) in [(1usize, 5usize), (2, 64), (4, 5)] {
        let p = Partition::interleaved(n, cores);
        let sizes = p.core_sizes();
        assert_eq!(sizes.len(), cores);
        for i in 0..n {
            assert_eq!(
                p.core_of(i) as usize,
                i % cores,
                "n={n} cores={cores} i={i}"
            );
        }
        for (c, &s) in sizes.iter().enumerate() {
            assert_eq!(s, u64::from(c < n), "n={n} cores={cores} core={c}");
        }
    }
}

#[test]
#[should_panic(expected = "at least one core")]
fn interleaved_rejects_zero_cores() {
    let _ = Partition::interleaved(8, 0);
}

#[test]
fn fewer_spins_than_cores_stays_in_range_and_balanced() {
    for (n, cores) in [(1usize, 2usize), (3, 8), (5, 7), (7, 8)] {
        for p in [
            Partition::contiguous(n, cores),
            Partition::interleaved(n, cores),
        ] {
            let sizes = p.core_sizes();
            assert_eq!(sizes.len(), cores);
            assert_eq!(sizes.iter().sum::<u64>(), n as u64);
            // Every spin maps to a valid core, one spin per core at
            // most when n < cores.
            assert!(sizes.iter().all(|&s| s <= 1), "{n}/{cores}: {sizes:?}");
            for i in 0..n {
                assert!((p.core_of(i) as usize) < cores);
            }
        }
    }
}

#[test]
fn contiguous_never_cuts_more_lattice_edges_than_interleaved() {
    // Cut-size monotonicity on a locality-rich lattice: at every
    // core count, the contiguous partition's cut is no larger than
    // the interleaved one's, and the contiguous cut grows
    // monotonically with the core count (more seams, never fewer).
    let g = topology::king(24, 24, |_, _| 1).unwrap();
    let n = g.num_spins();
    let mut last_contiguous = 0u64;
    for cores in [1usize, 2, 3, 4, 6, 8, 16] {
        let cc = Partition::contiguous(n, cores).cut_edges(&g);
        let ic = Partition::interleaved(n, cores).cut_edges(&g);
        assert!(
            cc <= ic,
            "{cores} cores: contiguous {cc} > interleaved {ic}"
        );
        assert!(
            cc >= last_contiguous,
            "{cores} cores: cut {cc} fell below {last_contiguous}"
        );
        last_contiguous = cc;
    }
}
