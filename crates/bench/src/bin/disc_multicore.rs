//! Sec. IV.B.2's scaling philosophy taken to multiple cores: partition
//! the tuples across cores and let only cross-partition spin updates
//! touch the interconnect. Locality-aware partitions of lattice COPs
//! scale nearly linearly; complete graphs are interconnect-bound no
//! matter how they are split.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sachi_bench::reference::multicore::{MulticoreModel, Partition};
use sachi_bench::{duration, section, threads_arg, timed, Table};
use sachi_core::prelude::*;
use sachi_ising::prelude::*;

fn main() {
    section("multi-core scaling: King's graph 128x128 (16,384 atoms)");
    let king = topology::king(128, 128, |_, _| 1).expect("lattice");
    let model = MulticoreModel::new(SachiConfig::new(DesignKind::N3));
    let mut t = Table::new([
        "cores",
        "partition",
        "cut edges",
        "core cyc",
        "interconnect cyc",
        "speedup",
    ]);
    for cores in [1usize, 2, 4, 8, 16] {
        for (label, p) in [
            ("contiguous", Partition::contiguous(king.num_spins(), cores)),
            (
                "interleaved",
                Partition::interleaved(king.num_spins(), cores),
            ),
        ] {
            let est = model.estimate(&king, &p);
            t.row([
                cores.to_string(),
                label.to_string(),
                est.cut_edges.to_string(),
                est.core_cycles.get().to_string(),
                est.interconnect_cycles.get().to_string(),
                format!("{:.2}x", est.speedup_vs_single),
            ]);
        }
    }
    t.print();

    section("multi-core scaling: complete graph (1,024 cities)");
    let complete =
        topology::complete(1_024, |i, j| ((i + j) % 15) as i32 + 1).expect("complete graph");
    let mut t2 = Table::new([
        "cores",
        "cut edges",
        "core cyc",
        "interconnect cyc",
        "speedup",
    ]);
    for cores in [1usize, 4, 16] {
        let est = model.estimate(&complete, &Partition::contiguous(1_024, cores));
        t2.row([
            cores.to_string(),
            est.cut_edges.to_string(),
            est.core_cycles.get().to_string(),
            est.interconnect_cycles.get().to_string(),
            format!("{:.2}x", est.speedup_vs_single),
        ]);
    }
    t2.print();
    println!();
    println!("lattice COPs: contiguous partitions keep the cut (and hence the");
    println!("inter-core update traffic) tiny, so cores scale. Complete graphs cut");
    println!("most edges under any partition — the interconnect becomes the limit,");
    println!("which is why the paper stresses minimizing inter-core interactions.");

    // The other axis of multi-core use: run independent replicas, one
    // per core, instead of partitioning one instance. Replicas share
    // nothing mid-solve, so their scaling has no interconnect term —
    // measured below on a real threaded ensemble and compared against
    // the partition-parallel estimates above.
    section("replica-parallel alternative (8 SACHI(n3) replicas, King's graph 32x32)");
    let small = topology::king(32, 32, |i, j| ((i + 3 * j) % 7) as i32 - 3).expect("lattice");
    let mut rng = StdRng::seed_from_u64(23);
    let init = SpinVector::random(small.num_spins(), &mut rng);
    let opts = SolveOptions::for_graph(&small, 29);
    let replicas = 8usize;
    let config = SachiConfig::new(DesignKind::N3);
    let thread_counts: Vec<usize> = threads_arg().map_or_else(|| vec![1, 2, 4, 8], |t| vec![1, t]);

    let mut t3 = Table::new([
        "threads",
        "wall-clock",
        "measured speedup",
        "replica bound",
        "partition speedup",
    ]);
    let mut first: Option<(sachi_ising::ensemble::BestOf, f64)> = None;
    for &threads in &thread_counts {
        let (outcome, wall) =
            timed(|| run_ensemble(&config, &small, &init, &opts, replicas, threads));
        let (best_of, report) = (outcome.best, outcome.report);
        let partition = model
            .estimate(&small, &Partition::contiguous(small.num_spins(), threads))
            .speedup_vs_single;
        let secs1 = match &first {
            None => wall.as_secs_f64(),
            Some((baseline, s1)) => {
                assert_eq!(baseline, &best_of, "thread count changed ensemble results");
                *s1
            }
        };
        t3.row([
            threads.to_string(),
            duration(wall),
            format!("{:.2}x", secs1 / wall.as_secs_f64().max(1e-12)),
            format!("{:.2}x", report.ideal_speedup(threads)),
            format!("{partition:.2}x"),
        ]);
        if first.is_none() {
            first = Some((best_of, wall.as_secs_f64()));
        }
    }
    t3.print();
    println!();
    println!("replica parallelism needs no interconnect (its bound is the");
    println!("longest-first schedule of measured replica cycles) but multiplies");
    println!("throughput, not single-solution latency; partitioning attacks the");
    println!("latency of one large instance and pays the cut-edge traffic above.");
}
