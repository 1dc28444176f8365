//! Criterion micro-benchmarks over the simulator's hot kernels: the
//! in-SRAM XNOR access, the mixed-encoding products, golden local-field
//! evaluation, per-design tuple computes, and whole machine sweeps.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sachi_core::prelude::*;
use sachi_ising::prelude::*;
use sachi_mem::prelude::*;
use sachi_workloads::prelude::*;
use std::hint::black_box;

fn bench_sram(c: &mut Criterion) {
    let mut group = c.benchmark_group("sram");
    let mut tile = SramTile::new(100, 800);
    let pattern: Vec<bool> = (0..800).map(|i| i % 3 == 0).collect();
    for row in 0..100 {
        tile.write_row(row, &pattern).unwrap();
    }
    group.bench_function("compute_xnor_full_row_800", |b| {
        b.iter(|| black_box(tile.compute_xnor_full_row(black_box(37), true).unwrap()))
    });
    group.bench_function("compute_xnor_bit_of_800", |b| {
        b.iter(|| {
            black_box(
                tile.compute_xnor_bit(black_box(37), true, 0..800, 399)
                    .unwrap(),
            )
        })
    });
    group.bench_function("write_row_800", |b| {
        b.iter(|| tile.write_row(black_box(11), &pattern).unwrap())
    });
    group.finish();
}

fn bench_encoding(c: &mut Criterion) {
    let mut group = c.benchmark_group("encoding");
    for bits in [4u32, 8, 32] {
        let enc = MixedEncoding::new(bits).unwrap();
        let j = enc.max_value() / 3;
        group.bench_with_input(BenchmarkId::new("xnor_product", bits), &j, |b, &j| {
            b.iter(|| black_box(enc.xnor_product(black_box(j), Spin::Down)))
        });
        group.bench_with_input(
            BenchmarkId::new("reuse_aware_product", bits),
            &j,
            |b, &j| {
                b.iter(|| black_box(enc.reuse_aware_product(black_box(j), Spin::Up, Spin::Down)))
            },
        );
    }
    group.finish();
}

fn bench_local_field(c: &mut Criterion) {
    let mut group = c.benchmark_group("hamiltonian");
    let king = topology::king(32, 32, |i, j| ((i + j) % 7) as i32 - 3).unwrap();
    let complete = topology::complete(256, |i, j| ((i * 3 + j) % 15) as i32 - 7).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    let spins_king = SpinVector::random(king.num_spins(), &mut rng);
    let spins_complete = SpinVector::random(complete.num_spins(), &mut rng);
    group.bench_function("local_field_kings_1024", |b| {
        b.iter(|| black_box(local_field(&king, &spins_king, black_box(500))))
    });
    group.bench_function("local_field_complete_256", |b| {
        b.iter(|| black_box(local_field(&complete, &spins_complete, black_box(128))))
    });
    group.bench_function("energy_kings_1024", |b| {
        b.iter(|| black_box(energy(&king, &spins_king)))
    });
    group.finish();
}

fn bench_designs(c: &mut Criterion) {
    let mut group = c.benchmark_group("design_compute_tuple");
    let graph = topology::king(16, 16, |i, j| ((i + j) % 7) as i32 + 1).unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    let spins = SpinVector::random(graph.num_spins(), &mut rng);
    let store = TupleStore::new(&graph, &spins);
    let enc = MixedEncoding::new(graph.bits_required()).unwrap();
    // An interior tuple with the full 8-neighbor fan-in.
    let tuple = store.tuple(122);
    for design in DesignKind::ALL {
        let d = stationarity(design);
        let (rows, cols) = d.tile_requirements(graph.max_degree(), enc.bits(), 800);
        let mut tile = SramTile::new(rows, cols);
        group.bench_function(design.label(), |b| {
            b.iter(|| {
                let mut ctx = ComputeContext::new();
                black_box(d.compute_tuple(&mut tile, &enc, black_box(tuple), Spin::Up, &mut ctx))
            })
        });
    }
    group.finish();
}

fn bench_machines(c: &mut Criterion) {
    let mut group = c.benchmark_group("machine_solve");
    group.sample_size(10);
    let w = MolecularDynamics::new(12, 12, 3);
    let graph = w.graph().clone();
    let mut rng = StdRng::seed_from_u64(3);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let opts = SolveOptions::for_graph(&graph, 4).with_max_sweeps(30);
    group.bench_function("cpu_reference_md144_30sweeps", |b| {
        b.iter(|| {
            let mut solver = CpuReferenceSolver::new();
            black_box(solver.solve(&graph, &init, &opts))
        })
    });
    for design in [DesignKind::N1b, DesignKind::N3] {
        group.bench_function(format!("sachi_{}_md144_30sweeps", design.label()), |b| {
            b.iter(|| {
                let mut machine = SachiMachine::new(SachiConfig::new(design));
                black_box(machine.solve(&graph, &init, &opts))
            })
        });
    }
    group.finish();
}

fn bench_extensions(c: &mut Criterion) {
    let mut group = c.benchmark_group("extensions");
    group.sample_size(10);
    // L1 cache trace throughput.
    let trace: Vec<u64> = (0..10_000u64)
        .map(|i| (i.wrapping_mul(2654435761) % (1 << 18)) & !0x7)
        .collect();
    group.bench_function("l1_cache_10k_accesses", |b| {
        b.iter(|| {
            let mut l1 = L1Cache::typical_l1();
            black_box(l1.run_trace(trace.iter().copied()).unwrap())
        })
    });
    // DIMACS parse of a lattice graph.
    let text = to_dimacs(&topology::king(20, 20, |i, j| ((i + j) % 9) as i32 - 4).unwrap());
    group.bench_function("parse_dimacs_king400", |b| {
        b.iter(|| black_box(parse_dimacs(black_box(&text)).unwrap()))
    });
    group.finish();
}

fn bench_perf_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("perf_model");
    let model = PerfModel::new(SachiConfig::new(DesignKind::N3));
    let shape = CopKind::TravelingSalesman.standard_shape(1_000_000);
    group.bench_function("iteration_estimate_tsp_1m", |b| {
        b.iter(|| black_box(model.iteration(black_box(&shape))))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sram,
    bench_encoding,
    bench_local_field,
    bench_designs,
    bench_machines,
    bench_extensions,
    bench_perf_model
);
criterion_main!(benches);
