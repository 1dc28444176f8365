//! Scalar oracle vs production kernel timing for all four stationarity
//! designs.
//!
//! One pair is measured everywhere: `compute_tuple` (the scalar oracle,
//! which lays each tuple into the tile and senses it bit by bit) vs
//! `compute_tuple_soa` (the kernel the machine runs, which computes `H_σ`
//! arithmetically from prebuilt [`TuplePlanes`] words and books the
//! oracle's tile events in closed form), on identical inputs through
//! identical `SramTile`s so the comparison isolates the kernel. The
//! arenas are built outside the timed region — exactly the machine's
//! usage, where encode work happens at solve setup, not per sweep. Four
//! granularities:
//!
//! * **per H-compute** (`kernel`) — one dense degree-256, R=8 tuple;
//! * **per sweep** (`sweep`) — one full update pass over every spin of a
//!   King's graph, tuples prebuilt so the loop measures compute, not
//!   mapping;
//! * **per dense sweep** (`sweep_dense`) — a full pass over a set of
//!   distinct dense degree-256 tuples;
//! * **banked sweeps** — metered machine cycles on multi-round King's
//!   lattices, bank_count 1 vs 8, recording how much upload time the
//!   sram22-style banking removes from the critical path.
//!
//! Every timed pair is asserted H-identical first (the differential
//! proptests in `tests/plane_equivalence.rs` prove the full counter
//! contract; this harness re-checks H as a cheap tripwire), then the
//! measured ns/call and speedups are printed and written to
//! `BENCH_perf.json`. The full run asserts the ≥5× acceptance bar on
//! the dense kernel and the ≥6× bar on the dense SoA sweep for every
//! design; `--smoke` runs reduced reps for CI, checks equality only
//! (CI machines are too noisy to gate on a timing ratio), and never
//! writes the baseline — its reduced shapes would replace the
//! committed full-run numbers.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sachi_bench::{section, Table};
use sachi_core::prelude::*;
use sachi_ising::prelude::*;
use sachi_mem::prelude::*;

/// Dense-kernel acceptance shape: degree 256 at R = 8.
const DENSE_DEGREE: usize = 256;
const DENSE_R: u32 = 8;
/// Row-bit budget for `tile_requirements` (mirrors the proptest suite).
const ROW_BITS: usize = 800;

/// Nanoseconds per call of `f`, amortized over `iters` runs.
fn ns_per_call(iters: u32, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e9 / f64::from(iters)
}

/// A dense tuple with coefficients spanning the full R-bit range. `salt`
/// varies the contents so a sweep over many dense tuples cannot collapse
/// into one memoizable compute.
fn dense_tuple_salted(degree: usize, salt: u64) -> SpinTuple {
    let span = 1i64 << DENSE_R;
    let min = -(1i64 << (DENSE_R - 1));
    SpinTuple {
        target: 0,
        neighbors: (1..=degree).map(|j| j as u32).collect(),
        couplings: (0..degree)
            .map(|k| ((k as i64 * 37 + 11 + salt as i64 * 13).rem_euclid(span) + min) as i32)
            .collect(),
        neighbor_spins: (0..degree)
            .map(|k| {
                if (k as u64 + salt).is_multiple_of(3) {
                    Spin::Down
                } else {
                    Spin::Up
                }
            })
            .collect(),
        field: 17,
    }
}

fn dense_tuple(degree: usize) -> SpinTuple {
    dense_tuple_salted(degree, 0)
}

/// Prebuilds one tuple per spin of `graph` from `spins`.
fn graph_tuples(graph: &IsingGraph, spins: &SpinVector) -> Vec<SpinTuple> {
    (0..graph.num_spins())
        .map(|i| {
            let (neighbors, weights) = graph.neighbor_slices(i);
            SpinTuple {
                target: i as u32,
                neighbors: neighbors.to_vec(),
                couplings: weights.to_vec(),
                neighbor_spins: neighbors.iter().map(|&j| spins.get(j as usize)).collect(),
                field: graph.field(i),
            }
        })
        .collect()
}

struct Measurement {
    design: String,
    scalar_ns: f64,
    soa_ns: f64,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        if self.soa_ns == 0.0 {
            f64::INFINITY
        } else {
            self.scalar_ns / self.soa_ns
        }
    }
}

/// Times one design's pass over `tuples` (ns per whole pass), scalar
/// oracle vs SoA kernel; asserts H equality per tuple first.
fn measure(kind: DesignKind, enc: &MixedEncoding, tuples: &[SpinTuple], iters: u32) -> Measurement {
    let design = stationarity(kind);
    let max_degree = tuples.iter().map(SpinTuple::degree).max().unwrap_or(1);
    let (rows, cols) = design.tile_requirements(max_degree, enc.bits(), ROW_BITS);
    let planes = TuplePlanes::from_tuples(tuples.iter(), enc).expect("bench coefficients fit R");
    let mut tile = SramTile::new(rows, cols);
    let mut ctx = ComputeContext::new();
    let mut scratch = ComputeScratch::new();
    let mut soa = |tile: &mut SramTile, ctx: &mut ComputeContext, i: usize, tuple: &SpinTuple| {
        design.compute_tuple_soa(
            tile,
            enc,
            tuple,
            planes.view(i),
            Spin::Up,
            ctx,
            &mut scratch,
        )
    };

    // Tripwire: the SoA kernel agrees with scalar on H for every tuple.
    for (i, tuple) in tuples.iter().enumerate() {
        let hs = design.compute_tuple(&mut tile, enc, tuple, Spin::Up, &mut ctx);
        let ho = soa(&mut tile, &mut ctx, i, tuple);
        assert_eq!(hs, ho, "{kind}: SoA kernel diverged from scalar");
        assert_eq!(hs, tuple.local_field(), "{kind}: H diverged from golden");
    }

    let scalar_ns = ns_per_call(iters, || {
        for tuple in tuples {
            let h = design.compute_tuple(&mut tile, enc, tuple, Spin::Up, &mut ctx);
            std::hint::black_box(h);
        }
    });
    let soa_ns = ns_per_call(iters, || {
        for (i, tuple) in tuples.iter().enumerate() {
            std::hint::black_box(soa(&mut tile, &mut ctx, i, tuple));
        }
    });
    Measurement {
        design: kind.to_string(),
        scalar_ns,
        soa_ns,
    }
}

struct BankedRow {
    design: String,
    lattice: usize,
    spins: usize,
    rounds: u64,
    unbanked_cycles: u64,
    banked_cycles: u64,
}

impl BankedRow {
    fn speedup(&self) -> f64 {
        if self.banked_cycles == 0 {
            f64::INFINITY
        } else {
            self.unbanked_cycles as f64 / self.banked_cycles as f64
        }
    }
}

/// Meters one design on a King's lattice with a compute array small
/// enough to force multi-round sweeps, at bank_count 1 vs `banks`.
/// Banking must be an accounting-only change: the H trajectory is
/// asserted identical before cycles are compared.
fn measure_banked(kind: DesignKind, lattice: usize, banks: usize) -> BankedRow {
    let graph = topology::king(lattice, lattice, |i, j| ((i + 3 * j) % 7) as i32 - 3)
        .expect("king lattice weights fit R=8");
    let mut rng = StdRng::seed_from_u64(41);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let opts = SolveOptions::for_graph(&graph, 41).with_trace();
    let small = CacheHierarchy {
        compute: CacheGeometry::new(2, 4, 64, 1),
        storage: CacheGeometry::sachi_storage_default(),
    };
    let base = SachiConfig::new(kind).with_hierarchy(small);
    let (res_1, rep_1) = SachiMachine::new(base.clone()).solve_detailed(&graph, &init, &opts);
    let (res_b, rep_b) =
        SachiMachine::new(base.with_banks(banks)).solve_detailed(&graph, &init, &opts);
    assert_eq!(
        res_1.trace, res_b.trace,
        "{kind}: banking changed the H trajectory"
    );
    assert_eq!(
        rep_1.compute_cycles, rep_b.compute_cycles,
        "{kind}: banking changed compute cycles"
    );
    assert!(
        rep_1.rounds_per_sweep > 1,
        "{kind}: banked sweep bench must be multi-round"
    );
    BankedRow {
        design: kind.to_string(),
        lattice,
        spins: graph.num_spins(),
        rounds: rep_1.rounds_per_sweep,
        unbanked_cycles: rep_1.total_cycles.get(),
        banked_cycles: rep_b.total_cycles.get(),
    }
}

fn json_rows(rows: &[Measurement], unit: &str) -> String {
    let cells: Vec<String> = rows
        .iter()
        .map(|m| {
            format!(
                "    {{\"design\": \"{}\", \"scalar_{unit}\": {:.1}, \"soa_{unit}\": {:.1}, \"speedup\": {:.2}}}",
                m.design,
                m.scalar_ns,
                m.soa_ns,
                m.speedup()
            )
        })
        .collect();
    cells.join(",\n")
}

fn print_table(title: &str, rows: &[Measurement]) {
    section(title);
    let mut t = Table::new(["design", "scalar ns", "SoA ns", "speedup"]);
    for m in rows {
        t.row([
            m.design.clone(),
            format!("{:.1}", m.scalar_ns),
            format!("{:.1}", m.soa_ns),
            format!("{:.2}x", m.speedup()),
        ]);
    }
    t.print();
}

fn main() {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    let (kernel_iters, sweep_iters, lattice) = if smoke { (3, 2, 8) } else { (200, 40, 24) };
    let enc = MixedEncoding::new(DENSE_R).expect("R = 8 is a valid resolution");

    // Per H-compute: the dense degree-256, R=8 acceptance tuple.
    let dense = [dense_tuple(DENSE_DEGREE)];
    let kernel: Vec<Measurement> = DesignKind::ALL
        .into_iter()
        .map(|kind| measure(kind, &enc, &dense, kernel_iters))
        .collect();
    print_table(
        &format!("ns per H-compute: dense degree-{DENSE_DEGREE}, R={DENSE_R} tuple"),
        &kernel,
    );

    // Per sweep: every spin of a King's graph, tuples prebuilt.
    let graph = topology::king(lattice, lattice, |i, j| ((i + 3 * j) % 7) as i32 - 3)
        .expect("king lattice weights fit R=8");
    let mut rng = StdRng::seed_from_u64(41);
    let spins = SpinVector::random(graph.num_spins(), &mut rng);
    let tuples = graph_tuples(&graph, &spins);
    let sweep: Vec<Measurement> = DesignKind::ALL
        .into_iter()
        .map(|kind| measure(kind, &enc, &tuples, sweep_iters))
        .collect();
    print_table(
        &format!(
            "ns per sweep: {lattice}x{lattice} King's graph ({} spins)",
            graph.num_spins()
        ),
        &sweep,
    );

    // Per dense sweep: a full pass over many distinct dense tuples.
    let (dense_count, dense_iters) = if smoke { (4, 2) } else { (64, 10) };
    let dense_set: Vec<SpinTuple> = (0..dense_count)
        .map(|k| dense_tuple_salted(DENSE_DEGREE, k))
        .collect();
    let sweep_dense: Vec<Measurement> = DesignKind::ALL
        .into_iter()
        .map(|kind| measure(kind, &enc, &dense_set, dense_iters))
        .collect();
    print_table(
        &format!("ns per dense sweep: {dense_count} tuples of degree {DENSE_DEGREE}, R={DENSE_R}"),
        &sweep_dense,
    );

    // Banked sweeps: metered machine cycles at bank_count 1 vs 8 on
    // multi-round lattices.
    const BANKS: usize = 8;
    let banked_lattices: &[usize] = if smoke { &[12] } else { &[24, 48] };
    let banked: Vec<BankedRow> = banked_lattices
        .iter()
        .flat_map(|&l| DesignKind::ALL.into_iter().map(move |k| (k, l)))
        .map(|(kind, l)| measure_banked(kind, l, BANKS))
        .collect();
    section(&format!(
        "metered machine cycles: multi-round King's sweeps, {BANKS}-bank upload overlap"
    ));
    let mut t = Table::new([
        "design", "lattice", "spins", "rounds", "unbanked", "banked", "speedup",
    ]);
    for b in &banked {
        t.row([
            b.design.clone(),
            format!("{0}x{0}", b.lattice),
            b.spins.to_string(),
            b.rounds.to_string(),
            b.unbanked_cycles.to_string(),
            b.banked_cycles.to_string(),
            format!("{:.2}x", b.speedup()),
        ]);
    }
    t.print();

    let banked_json: Vec<String> = banked
        .iter()
        .map(|b| {
            format!(
                "    {{\"design\": \"{}\", \"lattice\": {}, \"spins\": {}, \"rounds\": {}, \
                 \"unbanked_cycles\": {}, \"banked_cycles\": {}, \"banks\": {BANKS}, \
                 \"speedup\": {:.2}}}",
                b.design,
                b.lattice,
                b.spins,
                b.rounds,
                b.unbanked_cycles,
                b.banked_cycles,
                b.speedup()
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"kernel\": {{\"degree\": {DENSE_DEGREE}, \"r\": {DENSE_R}, \"rows\": [\n{}\n  ]}},\n  \"sweep\": {{\"lattice\": {lattice}, \"spins\": {}, \"rows\": [\n{}\n  ]}},\n  \"sweep_dense\": {{\"degree\": {DENSE_DEGREE}, \"r\": {DENSE_R}, \"tuples\": {dense_count}, \"rows\": [\n{}\n  ]}},\n  \"sweep_banked\": {{\"rows\": [\n{}\n  ]}}\n}}\n",
        json_rows(&kernel, "ns"),
        graph.num_spins(),
        json_rows(&sweep, "ns"),
        json_rows(&sweep_dense, "ns"),
        banked_json.join(",\n"),
    );
    // Only the full run rebaselines: the smoke subset measures reduced
    // shapes (8-lattice, 3 reps) whose timings would silently replace
    // the committed full-run numbers on every CI pass.
    if !smoke {
        std::fs::write("BENCH_perf.json", &json).expect("write BENCH_perf.json");
        println!("\nwrote BENCH_perf.json");
    }

    if smoke {
        println!(
            "smoke: soa==scalar H equality held for every design at every granularity; \
             banking left the H trajectory and compute cycles bit-identical"
        );
    } else {
        for m in &kernel {
            assert!(
                m.speedup() >= 5.0,
                "{}: dense-kernel speedup {:.2}x is below the 5x acceptance bar",
                m.design,
                m.speedup()
            );
        }
        for m in &sweep_dense {
            assert!(
                m.speedup() >= 6.0,
                "{}: dense sweep speedup {:.2}x is below the 6x acceptance bar",
                m.design,
                m.speedup()
            );
        }
        println!(
            "acceptance: every design >= 5x on the dense degree-{DENSE_DEGREE} kernel and \
             >= 6x on the dense sweep"
        );
    }
}
