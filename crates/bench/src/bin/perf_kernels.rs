//! Scalar oracle vs production kernel timing for all four stationarity
//! designs, plus the annealer decision and the resident machine's
//! per-call cost.
//!
//! One pair is measured everywhere: `compute_tuple` (the scalar oracle,
//! which lays each tuple into the tile and senses it bit by bit) vs
//! `compute_tuple_soa` (the kernel the machine runs, which reads the
//! tuple's maintained [`TupleSums`] from its [`TuplePlanes`] view and
//! books the spin-dependent discharges in closed form; the machine
//! books the rest of the oracle's events once per round as the
//! schedule's [`StaticEvents`]), on identical inputs and tile geometry:
//! the oracle pulses a bit-level `BitcellTile`, the kernel books onto
//! the machine's `SramTile`. The kernel reads in O(1) because the
//! update path keeps the sums current, so the sweep rows time what the
//! machine pays per sweep: the kernel *and* the update path. Both sides
//! replay one fixed, seeded flip sequence — the SoA side through
//! `update_spin` + `writeback_spin`, the scalar side through
//! `update_spin` alone, which sets the spin state its tuples' neighbour
//! reads gather. The rows:
//!
//! * **per H-compute** (`kernel`) — one dense degree-256, R=8 tuple in a
//!   one-row [`TupleStore`], each side called on `store.tuple(i)` (the
//!   kernel also on `planes.view(i)`), as the machine calls it;
//! * **per sweep** (`sweep`) — one full update pass over every spin of a
//!   King's graph, with the flip sequence's flips;
//! * **per dense sweep** (`sweep_dense`) — the same over a complete
//!   graph of degree 256;
//!
//!   these three alternate the scalar and SoA sides over
//!   [`KERNEL_ROUNDS`] rounds and record the medians and IQRs of both
//!   and of the per-round speedup;
//! * **banked sweeps** — metered machine cycles on multi-round King's
//!   lattices, bank_count 1 vs 8, recording how much upload time the
//!   sram22-style banking removes from the critical path;
//! * **decision** (`decide`) — the memoised `Annealer::accept` over the
//!   ΔH stream of a recorded King's-graph anneal, against an in-bench
//!   exp-per-decision reference (the same seeded draw against
//!   `acceptance_probability`), alternating in one process; the medians
//!   and IQRs over the rounds and of the per-round ratio are recorded.
//!   Its `decide_update` leg replays the `(σ, H_σ)` streams of seeded
//!   anneals (`md 8192` and the seven `serve-small` families at their
//!   sizes, four seeds each) through `decide_update` against the rule as
//!   written before the memo (sign rule, tie coin, an `exp` per uphill
//!   draw), with the same spread per stream group;
//! * **segment** (`segment`) — a tempered rung's work on the SAT-40
//!   shape: 300 four-sweep hold-schedule `solve_detailed` calls on one
//!   resident machine, each continuing from the last, against one
//!   1,200-sweep call, in alternating rounds; the medians and IQRs of
//!   both and of the per-round ratio are recorded. The ratio is what a
//!   resident call costs beyond its sweeps;
//! * **problem build** (`build`) — `build_cop_problem` for the dense
//!   one-shot job's COP (`coloring 256`, 768 spins) and a large lattice
//!   (`md 8192`), in alternating rounds; the medians and IQRs are
//!   recorded. Each built
//!   graph's digest is checked against the pinned build-identity table
//!   (`tests/golden/build_identity.txt`) first;
//! * **writeback** (`writeback`) — the Fig. 8b update path alone on the
//!   `build` row's two shapes: the first flips of a seeded anneal,
//!   recorded once, replayed through `update_spin` + `writeback_spin`
//!   (one spin state written, the neighbours' sums moved from the
//!   flipped spin's own row) against the per-tuple reference layout in
//!   `sachi_bench::reference::tuple` (a spin copy per slot, refreshed
//!   through per-spin adjacency lists), in alternating rounds; the
//!   medians and IQRs of both, in ns per flip, and of the per-round
//!   ratio are recorded;
//! * **simulation tax** (`tax`) — a whole `solve_detailed` call on a
//!   resident SACHI(n1a) and SACHI(n3) machine against the bare
//!   incremental solve in `sachi_bench::reference::bare` (the shared
//!   sweep driver and decision over one array of local fields) on
//!   `md 8192`, `coloring 256` and `sat 40`, in alternating rounds; the
//!   medians and IQRs of both, in ns per update, and of the per-round
//!   ratio are recorded. The ratio is what simulating the machine adds
//!   to the solve it simulates.
//!
//! Every timed pair is asserted H-identical first, after every flip of
//! the sequence and against the golden local field, and the kernel's
//! discharges plus the schedule's static events are asserted to leave
//! its `ComputeContext` and `TileStats` equal to the oracle's after
//! every compute (the differential proptests in
//! `tests/plane_equivalence.rs` prove the full counter contract; this
//! harness re-checks it as a cheap tripwire), then the
//! measured ns/call and speedups are printed and written to
//! `BENCH_perf.json`, stamped with the host and the git revision
//! measured. The decision row is checked the same way first:
//! both paths must make the same decisions, keep the same uphill
//! counters and leave the RNG at the same draw. The segment row is
//! checked first too: every resident segment's `(SolveResult,
//! RunReport)` must equal a fresh machine's on the same call, and its
//! energy must equal `hamiltonian::energy` of its spins. The writeback
//! row's two paths must hold identical sums after every flip, and at the
//! end the reference's copies must equal the spins the store's rows
//! gather. The tax row's two solves must return
//! the same `SolveResult` every round. The full run asserts the ≥5× acceptance bar on the dense
//! kernel, the ≥6× bar on the dense SoA sweep for every design, a
//! memo/reference median ratio ≤ 0.75 on the decision, a
//! `decide_update`/reference median ratio within its
//! [`DECIDE_UPDATE_BARS`] entry on each stream group, a
//! segmented/single median ratio ≤ 1.20 on the segment row, and a
//! production/reference median ratio within [`WRITEBACK_BAR`] on each
//! writeback shape, and a machine/bare median ratio within its
//! [`TAX_BARS`] entry on each tax row; `--smoke`
//! runs reduced reps and shapes for CI, checks equality only (CI machines are too noisy to gate on a timing ratio),
//! and never writes the baseline — its reduced shapes would replace the
//! committed full-run numbers.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sachi_bench::reference::bitcell::BitcellTile;
use sachi_bench::reference::designs::oracle;
use sachi_bench::reference::tuple::{AosPlanes, AosStore};
use sachi_bench::{identity, section, Table};
use sachi_core::prelude::*;
use sachi_ising::prelude::*;
use sachi_mem::prelude::*;
use sachi_workloads::prelude::CopKind;

/// Dense-kernel acceptance shape: degree 256 at R = 8.
const DENSE_DEGREE: usize = 256;
const DENSE_R: u32 = 8;
/// Row-bit budget for `tile_requirements` (mirrors the proptest suite).
const ROW_BITS: usize = 800;
/// The production side repeats each timed pass this many times as often
/// as the scalar side: it is orders of magnitude cheaper, and a reading
/// of a few microseconds would time the clock and the warm-up.
const SOA_REPS: u32 = 50;
/// Alternating rounds of the `kernel`, `sweep` and `sweep_dense` rows'
/// scalar and SoA timings.
const KERNEL_ROUNDS: u32 = 7;
/// Alternating rounds of the decision row's two timed passes.
const DECIDE_ROUNDS: u32 = 15;
/// The full run's bar on the decision row: the memoised `accept` takes
/// at most this fraction of the exp-per-decision reference's time.
const DECIDE_BAR: f64 = 0.75;
/// Seeds of the decision row's `decide_update` leg: each stream group
/// replays one seeded anneal per seed (problem, initial spins and
/// annealer all from that seed).
const DECIDE_SEEDS: [u64; 4] = [41, 42, 43, 44];
/// Decisions one timed reading of a `decide_update` stream group
/// replays at least: a small family's streams repeat until they reach
/// it.
const DECIDE_UPDATE_READING: usize = 300_000;
/// The `decide_update` leg's stream groups: the `oneshot-lattice` job's
/// COP, then the seven `serve-small` families at their sizes.
const DECIDE_UPDATE_SHAPES: [(CopKind, &str, usize); 8] = [
    (CopKind::MolecularDynamics, "md", 8192),
    (CopKind::TravelingSalesman, "tsp", 8),
    (CopKind::JobScheduling, "sched", 16),
    (CopKind::SatThree, "sat", 30),
    (CopKind::AssetAllocation, "asset", 24),
    (CopKind::GraphColoring, "coloring", 24),
    (CopKind::ImageSegmentation, "imgseg", 64),
    (CopKind::MolecularDynamics, "md", 64),
];
/// The full run's bars on the `decide_update` leg, per
/// [`DECIDE_UPDATE_SHAPES`] entry: `decide_update` takes at most this
/// fraction of the pre-memo reference's time on the group's streams.
/// With the sign rule deciding first and the memo holding
/// probabilities, three full runs read 0.43–0.45 on `md 8192` and
/// 0.95–0.98, 0.94–0.99, 0.80–0.84, 1.05–1.08, 0.53–0.56, 0.92–0.98 and
/// 0.70–0.75 on the `serve-small` families; each bar is the highest of
/// those medians plus 20%, rounded up.
const DECIDE_UPDATE_BARS: [f64; 8] = [0.54, 1.18, 1.19, 1.02, 1.30, 0.68, 1.18, 0.91];
/// Sweeps per call of the segment row: a tempered rung's exchange
/// interval.
const SEGMENT_SWEEPS: u64 = 4;
/// Alternating rounds of the segment row's two timed runs.
const SEGMENT_ROUNDS: u32 = 15;
/// The full run's bar on the segment row: the segmented run takes at
/// most this multiple of the single call's time.
const SEGMENT_BAR: f64 = 1.20;

/// Alternating rounds of the build row's timed builds.
const BUILD_ROUNDS: u32 = 15;
/// The build row's shapes (seed 0): the `oneshot-dense` job's COP and a
/// lattice ten times its spin count.
const BUILD_SHAPES: [(CopKind, &str, usize); 2] = [
    (CopKind::GraphColoring, "coloring", 256),
    (CopKind::MolecularDynamics, "md", 8192),
];

/// Alternating rounds of the writeback row's two timed replays.
const WRITEBACK_ROUNDS: u32 = 15;
/// Flips the writeback row records from each shape's anneal (full run).
const WRITEBACK_FLIPS: usize = 4096;
/// The full run's bar on the writeback row: the production update path
/// (the flat store with one state per spin, popcounts kept from the
/// build) takes at most this multiple of the per-tuple reference's time
/// on each shape. Six full runs read 0.41–0.43 on `coloring 256` and
/// 0.46–0.51 on `md 8192`; the bar leaves at least 65% headroom over the
/// highest.
const WRITEBACK_BAR: f64 = 0.85;

/// Alternating rounds of the tax row's two timed solves.
const TAX_ROUNDS: u32 = 21;
/// The tax row's shapes (seed 0), each solved on both designs that
/// bracket the per-update booking: SACHI(n1a) books the most events per
/// tuple, SACHI(n3) the fewest.
const TAX_SHAPES: [(CopKind, &str, usize); 3] = [
    (CopKind::MolecularDynamics, "md", 8192),
    (CopKind::GraphColoring, "coloring", 256),
    (CopKind::SatThree, "sat", 40),
];
const TAX_DESIGNS: [DesignKind; 2] = [DesignKind::N1a, DesignKind::N3];
/// The full run's bars on the tax row, per shape and then per design in
/// [`TAX_DESIGNS`] order: a resident machine's solve takes at most this
/// multiple of the bare solve's time. With the store keeping one state
/// per spin, three full runs read 1.47–1.50 (n1a) and 1.44 (n3) on
/// `md 8192`, 1.33–1.40 and 1.32–1.33 on `coloring 256`, and 1.26–1.27
/// and 1.23–1.30 on `sat 40`; each bar is the highest of those medians
/// plus 20%, rounded up.
const TAX_BARS: [[f64; 2]; 3] = [[1.80, 1.73], [1.68, 1.61], [1.53, 1.56]];

/// Nanoseconds per call of `f`, amortized over `iters` runs.
fn ns_per_call(iters: u32, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e9 / f64::from(iters)
}

/// A one-row store holding a dense tuple with coefficients spanning the
/// full R-bit range.
fn dense_store(degree: usize) -> TupleStore {
    let span = 1i64 << DENSE_R;
    let min = -(1i64 << (DENSE_R - 1));
    let neighbors: Vec<u32> = (1..=degree).map(|j| j as u32).collect();
    let couplings: Vec<i32> = (0..degree)
        .map(|k| ((k as i64 * 37 + 11).rem_euclid(span) + min) as i32)
        .collect();
    let neighbor_spins: Vec<Spin> = (0..degree)
        .map(|k| {
            if k.is_multiple_of(3) {
                Spin::Down
            } else {
                Spin::Up
            }
        })
        .collect();
    TupleStore::one_row(&neighbors, &couplings, &neighbor_spins, 17)
}

/// The tripwire's two ledgers on one design: the scalar oracle's bitcell
/// tile and context, and the kernel's tile and context with each
/// compute's static events booked after it, as the machine books a
/// round's.
struct Ledgers {
    kind: DesignKind,
    bitcells: BitcellTile,
    tile: SramTile,
    scalar: ComputeContext,
    split: ComputeContext,
}

impl Ledgers {
    fn new(kind: DesignKind, rows: usize, cols: usize) -> Self {
        Ledgers {
            kind,
            bitcells: BitcellTile::new(rows, cols),
            tile: SramTile::with_params(TileParams::new(rows, cols)),
            scalar: ComputeContext::new(),
            split: ComputeContext::new(),
        }
    }

    /// Computes `tuple`'s H both ways, asserts that they agree and that
    /// the kernel's discharges plus the schedule's static events leave
    /// both ledgers equal, and returns H.
    fn check(
        &mut self,
        enc: &MixedEncoding,
        tuple: SpinTuple<'_>,
        view: TuplePlaneView<'_>,
        target: Spin,
    ) -> i64 {
        let (kind, design) = (self.kind, oracle(self.kind));
        let hs = design.compute_tuple(&mut self.bitcells, enc, tuple, target, &mut self.scalar);
        let ho = design.compute_tuple_soa(
            &mut self.tile,
            enc,
            tuple,
            view,
            target,
            &mut self.split,
            &mut ComputeScratch::new(),
        );
        let schedule = design.schedule(tuple.degree() as u64, enc.bits(), ROW_BITS as u64);
        StaticEvents::of(&schedule).book(&mut self.split, &mut self.tile);
        assert_eq!(hs, ho, "{kind}: SoA kernel diverged from scalar");
        assert_eq!(
            self.scalar, self.split,
            "{kind}: the split booking diverged from the oracle's ComputeContext"
        );
        assert_eq!(
            self.bitcells.stats(),
            self.tile.stats(),
            "{kind}: the split booking diverged from the oracle's TileStats"
        );
        hs
    }
}

/// One flip in this many updates: about the dense coloring's flip ratio
/// under the production anneal (6.6%; 3.8% on the lattice).
const FLIP_ONE_IN: u32 = 16;

/// The seeded flip sequence both sides of a sweep replay: step `i` of
/// every sweep flips spin `i` when `flips[i]` is set.
fn flip_sequence(n: usize, seed: u64) -> Vec<bool> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..FLIP_ONE_IN) == 0).collect()
}

/// The state one side of a sweep evolves: spins and their tuple copies,
/// plus (SoA side) the maintained sums.
struct SweepState {
    spins: SpinVector,
    store: TupleStore,
    planes: TuplePlanes,
}

impl SweepState {
    fn new(graph: &IsingGraph, init: &SpinVector, enc: &MixedEncoding) -> Self {
        let store = TupleStore::new(graph, init);
        let planes = TuplePlanes::new(&store, enc).expect("bench coefficients fit R");
        SweepState {
            spins: init.clone(),
            store,
            planes,
        }
    }

    /// Flips spin `i` and refreshes its copies; the SoA side also
    /// writes the flip back into the sums.
    fn flip(&mut self, i: usize, soa: bool) {
        let new = self.spins.get(i).flipped();
        self.spins.set(i, new);
        self.store.update_spin(i, new);
        if soa {
            self.planes.writeback_spin(&self.store, i, new);
        }
    }
}

/// One design's scalar-vs-SoA timing over alternating rounds.
struct Measurement {
    design: String,
    scalar_ns: Spread,
    soa_ns: Spread,
    /// scalar / SoA, per round.
    speedup: Spread,
}

impl Measurement {
    /// Runs `rounds` alternating rounds of `time(false)` (the scalar
    /// side) then `time(true)` (the SoA side), each returning ns per
    /// pass.
    fn alternate(design: DesignKind, rounds: u32, mut time: impl FnMut(bool) -> f64) -> Self {
        let (mut scalar_ns, mut soa_ns, mut speedup) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..rounds {
            let (s, o) = (time(false), time(true));
            scalar_ns.push(s);
            soa_ns.push(o);
            speedup.push(s / o);
        }
        Measurement {
            design: design.to_string(),
            scalar_ns: Spread::of(scalar_ns),
            soa_ns: Spread::of(soa_ns),
            speedup: Spread::of(speedup),
        }
    }
}

/// Times one design's H-compute of each tuple of `store` (ns per whole
/// pass), scalar oracle vs SoA kernel, each called as the machine calls
/// it: on `store.tuple(i)` and, for the kernel, `planes.view(i)`, in
/// `rounds` alternating rounds. Asserts H equality and the split
/// booking per tuple first.
fn measure_kernel(
    kind: DesignKind,
    enc: &MixedEncoding,
    store: &TupleStore,
    rounds: u32,
    iters: u32,
) -> Measurement {
    let design = oracle(kind);
    let max_degree = store.iter().map(|t| t.degree()).max().unwrap_or(1);
    let (rows, cols) = design.tile_requirements(max_degree, enc.bits(), ROW_BITS);
    let planes = TuplePlanes::new(store, enc).expect("bench coefficients fit R");

    // Tripwire: the SoA kernel agrees with scalar on H and, with the
    // static events, on every counter, for every tuple.
    let mut ledgers = Ledgers::new(kind, rows, cols);
    for i in 0..store.len() {
        let (tuple, view) = (store.tuple(i), planes.view(i));
        let h = ledgers.check(enc, tuple, view, Spin::Up);
        assert_eq!(h, tuple.local_field(), "{kind}: H diverged from golden");
    }

    let mut bitcells = BitcellTile::new(rows, cols);
    let mut tile = SramTile::with_params(TileParams::new(rows, cols));
    let mut ctx = ComputeContext::new();
    let mut scratch = ComputeScratch::new();
    Measurement::alternate(kind, rounds, |soa| {
        if !soa {
            return ns_per_call(iters, || {
                for i in 0..store.len() {
                    let h = design.compute_tuple(
                        &mut bitcells,
                        enc,
                        store.tuple(i),
                        Spin::Up,
                        &mut ctx,
                    );
                    std::hint::black_box(h);
                }
            });
        }
        ns_per_call(iters * SOA_REPS, || {
            for i in 0..store.len() {
                std::hint::black_box(design.compute_tuple_soa(
                    &mut tile,
                    enc,
                    store.tuple(i),
                    planes.view(i),
                    Spin::Up,
                    &mut ctx,
                    &mut scratch,
                ));
            }
        })
    })
}

/// Times one design's sweep over every spin of `graph` (ns per sweep):
/// each step computes the spin's H, then applies the step's flip from
/// `flips`. The scalar side runs the oracle and refreshes its
/// copies; the SoA side runs the kernel and also writes the flip back
/// into the sums. Two untimed sweeps first assert at every step that
/// both paths' H equal the golden local field and that the split
/// booking leaves the oracle's counters. The two sides then alternate
/// for `rounds` rounds.
fn measure_sweep(
    kind: DesignKind,
    enc: &MixedEncoding,
    graph: &IsingGraph,
    init: &SpinVector,
    flips: &[bool],
    rounds: u32,
    iters: u32,
) -> Measurement {
    let design = oracle(kind);
    let (rows, cols) = design.tile_requirements(graph.max_degree().max(1), enc.bits(), ROW_BITS);
    let mut bitcells = BitcellTile::new(rows, cols);
    let mut tile = SramTile::with_params(TileParams::new(rows, cols));
    let mut ctx = ComputeContext::new();
    let mut scratch = ComputeScratch::new();
    // H of spin `i`: the production kernel on the SoA side, the oracle on
    // the scalar side.
    let mut h_of = |st: &SweepState, soa: bool, i: usize| {
        let (tuple, current) = (st.store.tuple(i), st.spins.get(i));
        if soa {
            let view = st.planes.view(i);
            design.compute_tuple_soa(&mut tile, enc, tuple, view, current, &mut ctx, &mut scratch)
        } else {
            design.compute_tuple(&mut bitcells, enc, tuple, current, &mut ctx)
        }
    };

    // Tripwire: two sweeps, so every flipped spin flips back and the
    // sums are checked on both sides of each flip.
    let mut ledgers = Ledgers::new(kind, rows, cols);
    let mut st = SweepState::new(graph, init, enc);
    for _ in 0..2 {
        for (i, &flip) in flips.iter().enumerate() {
            let h = ledgers.check(enc, st.store.tuple(i), st.planes.view(i), st.spins.get(i));
            assert_eq!(
                h,
                local_field(graph, &st.spins, i),
                "{kind}: H diverged from golden at spin {i}"
            );
            if flip {
                st.flip(i, true);
            }
        }
    }

    Measurement::alternate(kind, rounds, |soa| {
        let mut st = SweepState::new(graph, init, enc);
        let reps = if soa { iters * SOA_REPS } else { iters };
        ns_per_call(reps, || {
            for (i, &flip) in flips.iter().enumerate() {
                std::hint::black_box(h_of(&st, soa, i));
                if flip {
                    st.flip(i, soa);
                }
            }
        })
    })
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

/// Median and interquartile range of one reading over the rounds.
struct Spread {
    median: f64,
    iqr: f64,
}

impl Spread {
    /// Linearly interpolated quartiles of `readings`.
    fn of(mut readings: Vec<f64>) -> Self {
        readings.sort_by(f64::total_cmp);
        let at = |q: f64| {
            let pos = q * (readings.len() - 1) as f64;
            let (lo, hi) = (
                readings[pos.floor() as usize],
                readings[pos.ceil() as usize],
            );
            lo + (hi - lo) * pos.fract()
        };
        Spread {
            median: at(0.5),
            iqr: at(0.75) - at(0.25),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"median\": {:.3}, \"iqr\": {:.3}}}",
            self.median, self.iqr
        )
    }
}

/// The annealer decision over one recorded ΔH stream.
struct DecideRow {
    decisions: usize,
    /// Uphill proposals on a live annealer: one RNG draw each.
    draws: u64,
    /// The memoised `Annealer::accept`, ns per decision.
    memo_ns: Spread,
    /// The exp-per-decision reference, ns per decision.
    reference_ns: Spread,
    /// memo / reference, per round.
    ratio: Spread,
}

/// The Metropolis rule as it was before the memo: one seeded
/// `gen::<f64>()` per live uphill proposal against
/// `acceptance_probability`, an `exp` each, counting uphill moves into
/// `uphill` (accepted, rejected). The `decide` row's timing reference
/// and decision oracle.
fn reference_accept(annealer: &mut Annealer, delta: i64, uphill: &mut [u64; 2]) -> bool {
    if delta <= 0 {
        return true;
    }
    let accepted = !annealer.is_frozen()
        && annealer.rng().gen::<f64>() < annealer.acceptance_probability(delta);
    uphill[usize::from(!accepted)] += 1;
    accepted
}

/// `decide_update` as written before the memo: the sign rule, then, on
/// a live annealer, a coin flip on a tie or [`reference_accept`] on an
/// uphill move. The `decide_update` leg's timing reference and decision
/// oracle.
fn reference_decide(
    annealer: &mut Annealer,
    current: Spin,
    h_sigma: i64,
    uphill: &mut [u64; 2],
) -> Spin {
    let desired = update_rule(h_sigma, current);
    if desired != current || annealer.is_frozen() {
        return desired;
    }
    let delta = flip_cost(current, h_sigma);
    let flip = if delta == 0 {
        annealer.rng().gen::<bool>()
    } else {
        reference_accept(annealer, delta, uphill)
    };
    if flip {
        current.flipped()
    } else {
        current
    }
}

/// Replays `stream` (one chunk of `n` per sweep, cooling after each)
/// through `decide` on a fresh annealer from `options` and returns the
/// annealer.
fn replay<T: Copy>(
    stream: &[T],
    n: usize,
    options: &SolveOptions,
    mut decide: impl FnMut(&mut Annealer, T),
) -> Annealer {
    let mut annealer = Annealer::new(options.schedule, options.seed);
    for sweep in stream.chunks_exact(n) {
        for &item in sweep {
            decide(&mut annealer, item);
        }
        annealer.cool();
    }
    annealer
}

/// The `(σ, H_σ)` of every update a seeded anneal of `graph` from `init`
/// under `options` presents to `decide_update`, one chunk of `n` per
/// sweep: the production decisions on the maintained sums, stopped by
/// the sweep driver's rule (no flips in a sweep that started frozen).
fn record_updates(
    graph: &IsingGraph,
    init: &SpinVector,
    enc: &MixedEncoding,
    options: &SolveOptions,
) -> Vec<(Spin, i64)> {
    let n = graph.num_spins();
    let mut st = SweepState::new(graph, init, enc);
    let mut annealer = Annealer::new(options.schedule, options.seed);
    let mut updates = Vec::new();
    for _ in 0..options.effective_max_sweeps(n) {
        let frozen = annealer.is_frozen();
        let mut flips = 0u32;
        for i in 0..n {
            let (current, h) = (st.spins.get(i), st.planes.view(i).sums().h);
            updates.push((current, h));
            if decide_update(current, h, &mut annealer) != current {
                st.flip(i, true);
                flips += 1;
            }
        }
        annealer.cool();
        if flips == 0 && frozen {
            break;
        }
    }
    updates
}

/// Records the ΔH stream an anneal of `graph` presents to the annealer
/// (`−2·σ·H` of every update, one chunk per sweep, as `decide_update`
/// forms it), checks that the memoised `Annealer::accept` and the
/// exp-per-decision reference make the same decisions on it, with the
/// same uphill counters and the same next RNG draw, then times the two
/// in alternating rounds.
fn measure_decide(
    graph: &IsingGraph,
    init: &SpinVector,
    enc: &MixedEncoding,
    iters: u32,
) -> DecideRow {
    let n = graph.num_spins();
    let options = SolveOptions::for_graph(graph, 41);
    let deltas: Vec<i64> = record_updates(graph, init, enc, &options)
        .into_iter()
        .map(|(current, h)| flip_cost(current, h))
        .collect();

    let (mut memo_decisions, mut reference_decisions, mut draws) = (Vec::new(), Vec::new(), 0u64);
    let mut memo = replay(&deltas, n, &options, |a, d| {
        draws += u64::from(d > 0 && !a.is_frozen());
        memo_decisions.push(a.accept(d));
    });
    let mut uphill = [0u64; 2];
    let mut reference = replay(&deltas, n, &options, |a, d| {
        reference_decisions.push(reference_accept(a, d, &mut uphill));
    });
    assert!(
        memo_decisions == reference_decisions,
        "memoised accept diverged from the exp-per-decision reference"
    );
    assert_eq!(
        [memo.uphill_accepted(), memo.uphill_rejected()],
        uphill,
        "uphill counters diverged"
    );
    assert_eq!(
        memo.rng().gen::<u64>(),
        reference.rng().gen::<u64>(),
        "RNG streams diverged"
    );

    // Both passes time the whole replay, annealer construction
    // included; they alternate so a noisy neighbour slows both, and the
    // per-round ratio cancels it.
    let per_decision = 1.0 / deltas.len() as f64;
    let (mut memo_ns, mut reference_ns, mut ratio) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..DECIDE_ROUNDS {
        let m = ns_per_call(iters, || {
            replay(&deltas, n, &options, |a, d| {
                std::hint::black_box(a.accept(std::hint::black_box(d)));
            });
        });
        let r = ns_per_call(iters, || {
            let mut uphill = [0u64; 2];
            replay(&deltas, n, &options, |a, d| {
                std::hint::black_box(reference_accept(a, std::hint::black_box(d), &mut uphill));
            });
        });
        memo_ns.push(m * per_decision);
        reference_ns.push(r * per_decision);
        ratio.push(m / r);
    }
    DecideRow {
        decisions: deltas.len(),
        draws,
        memo_ns: Spread::of(memo_ns),
        reference_ns: Spread::of(reference_ns),
        ratio: Spread::of(ratio),
    }
}

/// `decide_update` over one stream group of the decision row.
struct DecideUpdateRow {
    family: &'static str,
    size: usize,
    streams: usize,
    decisions: usize,
    /// Uphill proposals on a live annealer: one RNG draw each.
    draws: u64,
    /// `decide_update`, ns per decision.
    update_ns: Spread,
    /// The pre-memo reference, ns per decision.
    reference_ns: Spread,
    /// `decide_update` / reference, per round.
    ratio: Spread,
    bar: f64,
}

/// One recorded anneal of a stream group.
struct UpdateStream {
    n: usize,
    options: SolveOptions,
    updates: Vec<(Spin, i64)>,
}

/// ns to replay every stream `iters` times through `decide`, annealer
/// construction included.
fn time_replays(
    streams: &[UpdateStream],
    iters: usize,
    mut decide: impl FnMut(&mut Annealer, Spin, i64),
) -> f64 {
    ns_per_call(1, || {
        for _ in 0..iters {
            for s in streams {
                replay(&s.updates, s.n, &s.options, |a, (current, h)| {
                    decide(a, current, std::hint::black_box(h));
                });
            }
        }
    })
}

/// Records one anneal of `kind` at `size` per seed, checks on each that
/// `decide_update` and [`reference_decide`] make the same decisions,
/// with the same uphill counters and the same next RNG draw, then times
/// the two over all of them in `rounds` alternating rounds.
fn measure_decide_update(
    (kind, family, size): (CopKind, &'static str, usize),
    seeds: &[u64],
    rounds: u32,
    bar: f64,
) -> DecideUpdateRow {
    let streams: Vec<UpdateStream> = seeds
        .iter()
        .map(|&seed| {
            let problem = build_cop_problem(kind, size, seed).expect("decide row shapes build");
            let graph = problem.graph();
            let n = graph.num_spins();
            let enc = MixedEncoding::new(graph.bits_required()).expect("graph resolution is valid");
            let init = SpinVector::random(n, &mut StdRng::seed_from_u64(seed));
            let options = SolveOptions::for_graph(graph, seed);
            let updates = record_updates(graph, &init, &enc, &options);
            UpdateStream {
                n,
                options,
                updates,
            }
        })
        .collect();

    let mut draws = 0;
    for (s, seed) in streams.iter().zip(seeds) {
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut production = replay(&s.updates, s.n, &s.options, |a, (current, h)| {
            got.push(decide_update(current, h, a));
        });
        let mut uphill = [0u64; 2];
        let mut reference = replay(&s.updates, s.n, &s.options, |a, (current, h)| {
            want.push(reference_decide(a, current, h, &mut uphill));
        });
        assert!(
            got == want,
            "{family} {size} seed {seed}: decide_update diverged from the pre-memo reference"
        );
        assert_eq!(
            [production.uphill_accepted(), production.uphill_rejected()],
            uphill,
            "{family} {size} seed {seed}: uphill counters diverged"
        );
        assert_eq!(
            production.rng().gen::<u64>(),
            reference.rng().gen::<u64>(),
            "{family} {size} seed {seed}: RNG streams diverged"
        );
        draws += uphill[0] + uphill[1];
    }

    // The two sides alternate so a noisy neighbour slows both, and the
    // per-round ratio cancels it.
    let decisions: usize = streams.iter().map(|s| s.updates.len()).sum();
    let iters = DECIDE_UPDATE_READING.div_ceil(decisions.max(1));
    let per_decision = 1.0 / (decisions * iters).max(1) as f64;
    let (mut update_ns, mut reference_ns, mut ratio) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..rounds {
        let u = time_replays(&streams, iters, |a, current, h| {
            std::hint::black_box(decide_update(current, h, a));
        });
        let mut uphill = [0u64; 2];
        let r = time_replays(&streams, iters, |a, current, h| {
            std::hint::black_box(reference_decide(a, current, h, &mut uphill));
        });
        update_ns.push(u * per_decision);
        reference_ns.push(r * per_decision);
        ratio.push(u / r);
    }
    DecideUpdateRow {
        family,
        size,
        streams: streams.len(),
        decisions,
        draws,
        update_ns: Spread::of(update_ns),
        reference_ns: Spread::of(reference_ns),
        ratio: Spread::of(ratio),
        bar,
    }
}

/// One rung's segmented run against the same sweeps in one call.
struct SegmentRow {
    spins: usize,
    edges: usize,
    calls: u64,
    rounds: u32,
    /// The segmented run, ms.
    segmented_ms: Spread,
    /// The single call, ms.
    single_ms: Spread,
    /// segmented / single, per round.
    ratio: Spread,
}

/// Times a tempered rung's segments on the SAT-40 shape (the
/// `serve-tempering` job's): `calls` resident calls of
/// [`SEGMENT_SWEEPS`] at a ladder rung's hold temperature, each from
/// the last one's spins, against one call of as many sweeps. Checks
/// first that every resident segment equals a fresh machine's call and
/// that its energy is H of its spins.
fn measure_segment(calls: u64, rounds: u32) -> SegmentRow {
    let problem = build_cop_problem(CopKind::SatThree, 40, 12_345).expect("SAT-40 builds");
    let graph = problem.graph();
    let ladder = TemperatureLadder::for_graph(LadderKind::Adaptive, graph, 4);
    let schedule = Schedule::constant(ladder.temperature(1), ladder.freeze_threshold());
    let hold = |max_sweeps, seed| SolveOptions {
        max_sweeps,
        schedule,
        seed,
        ..SolveOptions::default()
    };
    let config = SachiConfig::new(DesignKind::N3);
    let init = SpinVector::random(graph.num_spins(), &mut StdRng::seed_from_u64(41));

    let mut resident = SachiMachine::new(config.clone());
    let mut spins = init.clone();
    for call in 0..calls {
        let opts = hold(SEGMENT_SWEEPS, call);
        let got = resident.solve_detailed(graph, &spins, &opts);
        let want = SachiMachine::new(config.clone()).solve_detailed(graph, &spins, &opts);
        assert!(
            got == want,
            "segment {call}: the resident machine diverged from a fresh one"
        );
        assert_eq!(
            got.0.energy,
            energy(graph, &got.0.spins),
            "segment {call}: the energy is not H of its spins"
        );
        spins = got.0.spins;
    }

    // The two runs alternate so a noisy neighbour slows both, and the
    // per-round ratio cancels it.
    let (mut segmented_ms, mut single_ms, mut ratio) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..rounds {
        let seg = ns_per_call(1, || {
            let mut machine = SachiMachine::new(config.clone());
            let mut spins = init.clone();
            for call in 0..calls {
                spins = machine
                    .solve(graph, &spins, &hold(SEGMENT_SWEEPS, call))
                    .spins;
            }
            std::hint::black_box(spins);
        });
        let one = ns_per_call(1, || {
            let mut machine = SachiMachine::new(config.clone());
            std::hint::black_box(machine.solve(graph, &init, &hold(calls * SEGMENT_SWEEPS, 0)));
        });
        segmented_ms.push(seg * 1e-6);
        single_ms.push(one * 1e-6);
        ratio.push(seg / one);
    }
    SegmentRow {
        spins: graph.num_spins(),
        edges: graph.num_edges(),
        calls,
        rounds,
        segmented_ms: Spread::of(segmented_ms),
        single_ms: Spread::of(single_ms),
        ratio: Spread::of(ratio),
    }
}

/// `build_cop_problem` on each of [`BUILD_SHAPES`].
struct BuildRow {
    /// Spins and edges of each shape's graph.
    sizes: Vec<(usize, usize)>,
    rounds: u32,
    /// ms per build, one spread per shape.
    ms: Vec<Spread>,
}

/// Checks each of [`BUILD_SHAPES`] against its pinned build-identity
/// digest, then times `build_cop_problem` on them in `rounds`
/// alternating rounds of `iters` builds each.
fn measure_build(rounds: u32, iters: u32) -> BuildRow {
    let mut sizes = Vec::new();
    for (kind, family, size) in BUILD_SHAPES {
        let pinned = identity::golden_digest(family, size, 0)
            .unwrap_or_else(|| panic!("{family} {size} 0 is not in the build-identity table"));
        assert_eq!(
            identity::cop_digest(kind, size, 0),
            pinned,
            "{family} {size}: the built graph diverged from the build-identity table"
        );
        let problem = build_cop_problem(kind, size, 0).expect("build row shapes build");
        sizes.push((problem.graph().num_spins(), problem.graph().num_edges()));
    }
    let mut readings = vec![Vec::new(); BUILD_SHAPES.len()];
    for _ in 0..rounds {
        for ((kind, _, size), ms) in BUILD_SHAPES.into_iter().zip(&mut readings) {
            let ns = ns_per_call(iters, || {
                std::hint::black_box(build_cop_problem(kind, size, 0).expect("builds"));
            });
            ms.push(ns * 1e-6);
        }
    }
    BuildRow {
        sizes,
        rounds,
        ms: readings.into_iter().map(Spread::of).collect(),
    }
}

/// The update path on one of [`BUILD_SHAPES`].
struct WritebackRow {
    spins: usize,
    edges: usize,
    flips: usize,
    /// `update_spin` + `writeback_spin`, ns per flip.
    production_ns: Spread,
    /// The per-tuple reference, ns per flip.
    reference_ns: Spread,
    /// production / reference, per round.
    ratio: Spread,
}

/// The first `limit` spins a seeded anneal of `graph` flips, in order:
/// the production decisions on the maintained sums, one sweep after
/// another.
fn record_flips(
    graph: &IsingGraph,
    init: &SpinVector,
    enc: &MixedEncoding,
    limit: usize,
) -> Vec<usize> {
    let n = graph.num_spins();
    let options = SolveOptions::for_graph(graph, 41);
    let mut st = SweepState::new(graph, init, enc);
    let mut annealer = Annealer::new(options.schedule, options.seed);
    let mut flips = Vec::with_capacity(limit);
    for _ in 0..options.effective_max_sweeps(n) {
        for i in 0..n {
            let (current, h) = (st.spins.get(i), st.planes.view(i).sums().h);
            if decide_update(current, h, &mut annealer) != current {
                st.flip(i, true);
                flips.push(i);
                if flips.len() == limit {
                    return flips;
                }
            }
        }
        annealer.cool();
    }
    flips
}

/// The reference side of the writeback row: spins, per-tuple rows and
/// their sums.
struct ReferenceState {
    spins: SpinVector,
    store: AosStore,
    planes: AosPlanes,
}

impl ReferenceState {
    fn new(graph: &IsingGraph, init: &SpinVector, enc: &MixedEncoding) -> Self {
        let store = AosStore::new(graph, init);
        let planes = AosPlanes::new(&store, enc).expect("graph coefficients fit R");
        ReferenceState {
            spins: init.clone(),
            store,
            planes,
        }
    }

    fn flip(&mut self, i: usize) {
        let new = self.spins.get(i).flipped();
        self.spins.set(i, new);
        self.store.update_spin(i, new);
        self.planes.writeback_spin(&self.store, i, new);
    }
}

/// Records `limit` flips of a seeded anneal of `kind` at `size` (seed 0,
/// the graph's own resolution), checks that the production update path
/// and the per-tuple reference hold identical sums after every flip and
/// that the reference's copies equal the store's gathered spins at the
/// end, then times the two replaying the
/// sequence `iters` times per reading, in `rounds` alternating rounds.
/// Every replay toggles the recorded spins, so every step is a flip.
fn measure_writeback(
    kind: CopKind,
    size: usize,
    limit: usize,
    rounds: u32,
    iters: u32,
) -> WritebackRow {
    let problem = build_cop_problem(kind, size, 0).expect("writeback row shapes build");
    let graph = problem.graph();
    let n = graph.num_spins();
    let enc = MixedEncoding::new(graph.bits_required()).expect("graph resolution is valid");
    let init = SpinVector::random(n, &mut StdRng::seed_from_u64(41));
    let flips = record_flips(graph, &init, &enc, limit);

    let mut production = SweepState::new(graph, &init, &enc);
    let mut reference = ReferenceState::new(graph, &init, &enc);
    for (step, &j) in flips.iter().enumerate() {
        production.flip(j, true);
        reference.flip(j);
        for i in 0..n {
            assert_eq!(
                production.planes.view(i).sums(),
                reference.planes.sums()[i],
                "{kind} {size}: tuple {i}'s sums diverged after flip {step} (spin {j})"
            );
        }
    }
    for i in 0..n {
        assert_eq!(
            production
                .store
                .tuple(i)
                .neighbor_spins()
                .collect::<Vec<_>>(),
            reference.store.tuples()[i].neighbor_spins,
            "{kind} {size}: tuple {i}'s copies diverged from the spins"
        );
    }

    // The two replays alternate so a noisy neighbour slows both, and the
    // per-round ratio cancels it.
    let per_flip = 1.0 / (flips.len().max(1) as f64);
    let (mut production_ns, mut reference_ns, mut ratio) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..rounds {
        let p = ns_per_call(iters, || {
            for &j in &flips {
                production.flip(j, true);
            }
        });
        let r = ns_per_call(iters, || {
            for &j in &flips {
                reference.flip(j);
            }
        });
        production_ns.push(p * per_flip);
        reference_ns.push(r * per_flip);
        ratio.push(p / r);
    }
    std::hint::black_box((&production.planes, &reference.planes));
    WritebackRow {
        spins: n,
        edges: graph.num_edges(),
        flips: flips.len(),
        production_ns: Spread::of(production_ns),
        reference_ns: Spread::of(reference_ns),
        ratio: Spread::of(ratio),
    }
}

/// One shape and design of the tax row.
struct TaxRow {
    family: &'static str,
    size: usize,
    design: DesignKind,
    spins: usize,
    /// Spin updates per solve: sweeps × spins.
    updates: u64,
    /// The bare incremental solve, ns per update.
    bare_ns: Spread,
    /// The resident machine's `solve_detailed`, ns per update.
    machine_ns: Spread,
    /// machine / bare, per round.
    ratio: Spread,
    bar: f64,
}

/// Solves `kind` at `size` (seed 0, init and options seeded 41) with a
/// resident `design` machine and with the bare incremental solve
/// ([`sachi_bench::reference::bare`]) in `rounds` alternating rounds,
/// asserting identical results every round. The machine maps the graph
/// once before the rounds, so each timed call re-seats its spins and
/// runs its sweeps, like a resident production call.
fn measure_tax(
    (kind, family, size): (CopKind, &'static str, usize),
    design: DesignKind,
    rounds: u32,
    bar: f64,
) -> TaxRow {
    let problem = build_cop_problem(kind, size, 0).expect("tax row shapes build");
    let graph = problem.graph();
    let n = graph.num_spins();
    let init = SpinVector::random(n, &mut StdRng::seed_from_u64(41));
    let options = SolveOptions::for_graph(graph, 41);
    let mut machine = SachiMachine::new(SachiConfig::new(design));
    machine.solve_detailed(graph, &init, &options);

    let (mut bare_ns, mut machine_ns, mut ratio) = (Vec::new(), Vec::new(), Vec::new());
    let mut updates = 0;
    for round in 0..rounds {
        let mut bare = None;
        let b = ns_per_call(1, || {
            bare = Some(sachi_bench::reference::bare::solve(graph, &init, &options))
        });
        let mut run = None;
        let m = ns_per_call(1, || {
            run = Some(machine.solve_detailed(graph, &init, &options).0)
        });
        let (bare, run) = (bare.expect("timed once"), run.expect("timed once"));
        assert!(
            run == bare,
            "{family} {size} {design}: round {round}'s machine solve diverged from the bare \
             solve (energy {} vs {}, sweeps {} vs {}, flips {} vs {})",
            run.energy,
            bare.energy,
            run.sweeps,
            bare.sweeps,
            run.flips,
            bare.flips
        );
        updates = bare.sweeps * n as u64;
        let per_update = 1.0 / updates.max(1) as f64;
        bare_ns.push(b * per_update);
        machine_ns.push(m * per_update);
        ratio.push(m / b);
    }
    TaxRow {
        family,
        size,
        design,
        spins: n,
        updates,
        bare_ns: Spread::of(bare_ns),
        machine_ns: Spread::of(machine_ns),
        ratio: Spread::of(ratio),
        bar,
    }
}

/// Runs `git` with `args` in the working directory, or `None`.
fn git(args: &[&str]) -> Option<String> {
    let out = std::process::Command::new("git").args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The host a full run measured on: CPU model and available threads.
fn host() -> String {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| std::env::consts::ARCH.to_string());
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!("{model}, {threads} threads")
}

fn json_rows(rows: &[Measurement]) -> String {
    let cells: Vec<String> = rows
        .iter()
        .map(|m| {
            format!(
                "    {{\"design\": \"{}\", \"scalar_ns\": {}, \"soa_ns\": {}, \"speedup\": {}}}",
                m.design,
                m.scalar_ns.json(),
                m.soa_ns.json(),
                m.speedup.json()
            )
        })
        .collect();
    cells.join(",\n")
}

/// Prints rows of `(name, spread, unit)` as a median/IQR table.
fn print_spreads<const N: usize>(what: &str, rows: [(&str, &Spread, &str); N]) {
    let mut t = Table::new([what, "median", "IQR"]);
    for (name, spread, unit) in rows {
        t.row([
            name.to_string(),
            format!("{:.3}{unit}", spread.median),
            format!("{:.3}{unit}", spread.iqr),
        ]);
    }
    t.print();
}

fn print_table(title: &str, rows: &[Measurement]) {
    section(title);
    let mut t = Table::new(["design", "scalar ns (IQR)", "SoA ns (IQR)", "speedup (IQR)"]);
    for m in rows {
        t.row([
            m.design.clone(),
            format!("{:.1} ({:.1})", m.scalar_ns.median, m.scalar_ns.iqr),
            format!("{:.1} ({:.1})", m.soa_ns.median, m.soa_ns.iqr),
            format!("{:.2}x ({:.2})", m.speedup.median, m.speedup.iqr),
        ]);
    }
    t.print();
}

fn main() {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    // Iterations per reading of the kernel and sweep rows, in
    // `kernel_rounds` alternating rounds.
    let (kernel_rounds, kernel_iters, sweep_iters, lattice) = if smoke {
        (1, 3, 2, 8)
    } else {
        (KERNEL_ROUNDS, 30, 6, 24)
    };
    let enc = MixedEncoding::new(DENSE_R).expect("R = 8 is a valid resolution");

    // Per H-compute: the dense degree-256, R=8 acceptance tuple.
    let dense = dense_store(DENSE_DEGREE);
    let kernel: Vec<Measurement> = DesignKind::ALL
        .into_iter()
        .map(|kind| measure_kernel(kind, &enc, &dense, kernel_rounds, kernel_iters))
        .collect();
    print_table(
        &format!("ns per H-compute: dense degree-{DENSE_DEGREE}, R={DENSE_R} tuple"),
        &kernel,
    );

    // Per sweep: every spin of a King's graph, with the flip sequence.
    let graph = topology::king(lattice, lattice, |i, j| ((i + 3 * j) % 7) as i32 - 3)
        .expect("king lattice weights fit R=8");
    let mut rng = StdRng::seed_from_u64(41);
    let spins = SpinVector::random(graph.num_spins(), &mut rng);
    let flips = flip_sequence(graph.num_spins(), 43);
    let sweep: Vec<Measurement> = DesignKind::ALL
        .into_iter()
        .map(|kind| {
            measure_sweep(
                kind,
                &enc,
                &graph,
                &spins,
                &flips,
                kernel_rounds,
                sweep_iters,
            )
        })
        .collect();
    print_table(
        &format!(
            "ns per sweep: {lattice}x{lattice} King's graph ({} spins), one flip in {FLIP_ONE_IN} updates",
            graph.num_spins()
        ),
        &sweep,
    );

    // Per dense sweep: a complete graph whose couplings span the R-bit
    // range, with the flip sequence.
    let (dense_degree, dense_iters) = if smoke { (64, 2) } else { (DENSE_DEGREE, 2) };
    let span = 1u32 << DENSE_R;
    let dense_graph = topology::complete(dense_degree + 1, |i, j| {
        ((i * 37 + j * 11 + 13) % span) as i32 - (1 << (DENSE_R - 1))
    })
    .expect("dense weights fit R=8");
    let dense_spins = SpinVector::random(dense_graph.num_spins(), &mut rng);
    let dense_flips = flip_sequence(dense_graph.num_spins(), 47);
    let sweep_dense: Vec<Measurement> = DesignKind::ALL
        .into_iter()
        .map(|kind| {
            measure_sweep(
                kind,
                &enc,
                &dense_graph,
                &dense_spins,
                &dense_flips,
                kernel_rounds,
                dense_iters,
            )
        })
        .collect();
    print_table(
        &format!(
            "ns per dense sweep: complete graph of degree {dense_degree}, R={DENSE_R}, \
             one flip in {FLIP_ONE_IN} updates"
        ),
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

    // The annealer decision on the King's graph's anneal: the memoised
    // accept vs the exp-per-decision reference.
    let decide = measure_decide(&graph, &spins, &enc, if smoke { 1 } else { 40 });
    section(&format!(
        "ns per annealer decision: {lattice}x{lattice} King's anneal, {} decisions, \
         {} draws, {DECIDE_ROUNDS} alternating rounds",
        decide.decisions, decide.draws
    ));
    print_spreads(
        "path",
        [
            ("Annealer::accept (memo)", &decide.memo_ns, " ns"),
            ("exp-per-decision reference", &decide.reference_ns, " ns"),
            ("memo / reference", &decide.ratio, ""),
        ],
    );

    // `decide_update` on recorded (σ, H_σ) streams against the pre-memo
    // rule, per stream group.
    let (decide_seeds, decide_rounds) = if smoke {
        (&DECIDE_SEEDS[..1], 1)
    } else {
        (&DECIDE_SEEDS[..], DECIDE_ROUNDS)
    };
    let decide_update: Vec<DecideUpdateRow> = DECIDE_UPDATE_SHAPES
        .into_iter()
        .zip(DECIDE_UPDATE_BARS)
        .map(|(shape, bar)| measure_decide_update(shape, decide_seeds, decide_rounds, bar))
        .collect();
    for row in &decide_update {
        section(&format!(
            "ns per decide_update: {} {}, {} recorded anneals, {} decisions, {} draws, \
             {decide_rounds} alternating rounds",
            row.family, row.size, row.streams, row.decisions, row.draws
        ));
        print_spreads(
            "path",
            [
                ("decide_update", &row.update_ns, " ns"),
                ("pre-memo reference", &row.reference_ns, " ns"),
                ("decide_update / reference", &row.ratio, ""),
            ],
        );
    }

    // A tempered rung's resident segments against one call of as many
    // sweeps.
    let segment = if smoke {
        measure_segment(30, 3)
    } else {
        measure_segment(300, SEGMENT_ROUNDS)
    };
    section(&format!(
        "ms per run: SAT-40 ({} spins, {} edges), {} resident calls of {SEGMENT_SWEEPS} sweeps \
         vs one call of {}, {} alternating rounds",
        segment.spins,
        segment.edges,
        segment.calls,
        segment.calls * SEGMENT_SWEEPS,
        segment.rounds,
    ));
    print_spreads(
        "run",
        [
            ("resident segments", &segment.segmented_ms, " ms"),
            ("single call", &segment.single_ms, " ms"),
            ("segments / single", &segment.ratio, ""),
        ],
    );

    // Problem build, checked against the pinned build-identity table.
    let build = if smoke {
        measure_build(3, 1)
    } else {
        measure_build(BUILD_ROUNDS, 5)
    };
    section(&format!(
        "ms per build_cop_problem: {} alternating rounds",
        build.rounds
    ));
    let labels: Vec<String> = BUILD_SHAPES
        .iter()
        .zip(&build.sizes)
        .map(|((_, family, size), (spins, edges))| {
            format!("{family} {size} ({spins} spins, {edges} edges)")
        })
        .collect();
    print_spreads(
        "shape",
        [
            (labels[0].as_str(), &build.ms[0], " ms"),
            (labels[1].as_str(), &build.ms[1], " ms"),
        ],
    );

    // The update path alone on the build row's shapes: production vs
    // the per-tuple reference over one recorded flip sequence.
    let (wb_flips, wb_rounds, wb_iters) = if smoke {
        (512, 3, 1)
    } else {
        (WRITEBACK_FLIPS, WRITEBACK_ROUNDS, 10)
    };
    let writeback: Vec<WritebackRow> = BUILD_SHAPES
        .iter()
        .map(|&(kind, _, size)| measure_writeback(kind, size, wb_flips, wb_rounds, wb_iters))
        .collect();
    for ((_, family, size), row) in BUILD_SHAPES.iter().zip(&writeback) {
        section(&format!(
            "ns per flip, update_spin + writeback_spin: {family} {size} ({} spins, {} edges), \
             {} recorded flips, {wb_rounds} alternating rounds",
            row.spins, row.edges, row.flips
        ));
        print_spreads(
            "path",
            [
                ("production", &row.production_ns, " ns"),
                ("per-tuple reference", &row.reference_ns, " ns"),
                ("production / reference", &row.ratio, ""),
            ],
        );
    }

    // The whole machine against a bare solve of the same trajectory.
    let tax_rounds = if smoke { 1 } else { TAX_ROUNDS };
    let tax: Vec<TaxRow> = TAX_SHAPES
        .into_iter()
        .zip(TAX_BARS)
        .flat_map(|(shape, bars)| {
            TAX_DESIGNS
                .into_iter()
                .zip(bars)
                .map(move |(design, bar)| measure_tax(shape, design, tax_rounds, bar))
        })
        .collect();
    for row in &tax {
        section(&format!(
            "ns per update, resident machine vs bare solve: {} {} on {} ({} spins, {} updates), \
             {tax_rounds} alternating rounds",
            row.family, row.size, row.design, row.spins, row.updates
        ));
        print_spreads(
            "solve",
            [
                ("SachiMachine::solve_detailed", &row.machine_ns, " ns"),
                ("bare incremental solve", &row.bare_ns, " ns"),
                ("machine / bare", &row.ratio, ""),
            ],
        );
    }

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
        "{{\n  \"host\": \"{}\",\n  \"rev\": \"{}\",\n  \"kernel\": {{\"degree\": {DENSE_DEGREE}, \"r\": {DENSE_R}, \"rounds\": {kernel_rounds}, \"rows\": [\n{}\n  ]}},\n  \"sweep\": {{\"lattice\": {lattice}, \"spins\": {}, \"flip_one_in\": {FLIP_ONE_IN}, \"rounds\": {kernel_rounds}, \"rows\": [\n{}\n  ]}},\n  \"sweep_dense\": {{\"degree\": {dense_degree}, \"r\": {DENSE_R}, \"tuples\": {}, \"flip_one_in\": {FLIP_ONE_IN}, \"rounds\": {kernel_rounds}, \"rows\": [\n{}\n  ]}},\n  \"sweep_banked\": {{\"rows\": [\n{}\n  ]}},\n  \"decide\": {{\"lattice\": {lattice}, \"decisions\": {}, \"draws\": {}, \"rounds\": {DECIDE_ROUNDS}, \"memo_ns\": {}, \"reference_ns\": {}, \"ratio\": {}, \"decide_update\": {{\"seeds\": {}, \"rounds\": {decide_rounds}, \"rows\": [\n{}\n  ]}}}},\n  \"segment\": {{\"cop\": \"sat\", \"size\": 40, \"spins\": {}, \"edges\": {}, \"calls\": {}, \"sweeps_per_call\": {SEGMENT_SWEEPS}, \"rounds\": {}, \"segmented_ms\": {}, \"single_ms\": {}, \"ratio\": {}}},\n  \"build\": {{\"rounds\": {}, \"seed\": 0, \"rows\": [\n{}\n  ]}},\n  \"writeback\": {{\"rounds\": {wb_rounds}, \"seed\": 0, \"rows\": [\n{}\n  ]}},\n  \"tax\": {{\"rounds\": {tax_rounds}, \"seed\": 0, \"rows\": [\n{}\n  ]}}\n}}\n",
        host(),
        git(&["describe", "--always", "--dirty", "--abbrev=7"]).unwrap_or_else(|| "unknown".into()),
        json_rows(&kernel),
        graph.num_spins(),
        json_rows(&sweep),
        dense_graph.num_spins(),
        json_rows(&sweep_dense),
        banked_json.join(",\n"),
        decide.decisions,
        decide.draws,
        decide.memo_ns.json(),
        decide.reference_ns.json(),
        decide.ratio.json(),
        decide_seeds.len(),
        decide_update
            .iter()
            .map(|row| format!(
                "    {{\"cop\": \"{}\", \"size\": {}, \"decisions\": {}, \"draws\": {}, \"decide_update_ns\": {}, \"reference_ns\": {}, \"ratio\": {}}}",
                row.family,
                row.size,
                row.decisions,
                row.draws,
                row.update_ns.json(),
                row.reference_ns.json(),
                row.ratio.json()
            ))
            .collect::<Vec<_>>()
            .join(",\n"),
        segment.spins,
        segment.edges,
        segment.calls,
        segment.rounds,
        segment.segmented_ms.json(),
        segment.single_ms.json(),
        segment.ratio.json(),
        build.rounds,
        BUILD_SHAPES
            .iter()
            .zip(&build.sizes)
            .zip(&build.ms)
            .map(|(((_, family, size), (spins, edges)), ms)| format!(
                "    {{\"cop\": \"{family}\", \"size\": {size}, \"spins\": {spins}, \"edges\": {edges}, \"ms\": {}}}",
                ms.json()
            ))
            .collect::<Vec<_>>()
            .join(",\n"),
        BUILD_SHAPES
            .iter()
            .zip(&writeback)
            .map(|((_, family, size), row)| format!(
                "    {{\"cop\": \"{family}\", \"size\": {size}, \"spins\": {}, \"edges\": {}, \"flips\": {}, \"production_ns\": {}, \"reference_ns\": {}, \"ratio\": {}}}",
                row.spins,
                row.edges,
                row.flips,
                row.production_ns.json(),
                row.reference_ns.json(),
                row.ratio.json()
            ))
            .collect::<Vec<_>>()
            .join(",\n"),
        tax.iter()
            .map(|row| format!(
                "    {{\"cop\": \"{}\", \"size\": {}, \"design\": \"{}\", \"spins\": {}, \"updates\": {}, \"machine_ns\": {}, \"bare_ns\": {}, \"ratio\": {}}}",
                row.family,
                row.size,
                row.design.key(),
                row.spins,
                row.updates,
                row.machine_ns.json(),
                row.bare_ns.json(),
                row.ratio.json()
            ))
            .collect::<Vec<_>>()
            .join(",\n"),
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
            "smoke: soa==scalar H equality and the split booking held for every design at \
             every granularity; \
             banking left the H trajectory and compute cycles bit-identical; the memoised \
             accept and decide_update made the references' decisions; every resident segment matched a fresh \
             machine and the energy of its spins; the build row's graphs matched the pinned \
             build-identity digests; the update path held the per-tuple reference's sums \
             after every flip; every resident machine solve matched the bare solve"
        );
    } else {
        for m in &kernel {
            assert!(
                m.speedup.median >= 5.0,
                "{}: dense-kernel speedup {:.2}x is below the 5x acceptance bar",
                m.design,
                m.speedup.median
            );
        }
        for m in &sweep_dense {
            assert!(
                m.speedup.median >= 6.0,
                "{}: dense sweep speedup {:.2}x is below the 6x acceptance bar",
                m.design,
                m.speedup.median
            );
        }
        assert!(
            decide.ratio.median <= DECIDE_BAR,
            "memoised accept / exp reference {:.3} is above the {DECIDE_BAR} bar",
            decide.ratio.median
        );
        for row in &decide_update {
            assert!(
                row.ratio.median <= row.bar,
                "{} {}: decide_update / pre-memo reference {:.3} is above the {} bar",
                row.family,
                row.size,
                row.ratio.median,
                row.bar
            );
        }
        assert!(
            segment.ratio.median <= SEGMENT_BAR,
            "resident segments / single call {:.3} is above the {SEGMENT_BAR} bar",
            segment.ratio.median
        );
        for ((_, family, size), row) in BUILD_SHAPES.iter().zip(&writeback) {
            assert!(
                row.ratio.median <= WRITEBACK_BAR,
                "{family} {size}: update path / per-tuple reference {:.3} is above the \
                 {WRITEBACK_BAR} bar",
                row.ratio.median
            );
        }
        for row in &tax {
            assert!(
                row.ratio.median <= row.bar,
                "{} {} on {}: resident machine / bare solve {:.3} is above the {} bar",
                row.family,
                row.size,
                row.design,
                row.ratio.median,
                row.bar
            );
        }
        println!(
            "acceptance: every design >= 5x on the dense degree-{DENSE_DEGREE} kernel and \
             >= 6x on the dense sweep; memoised accept <= {DECIDE_BAR}x the exp reference; \
             decide_update within its bar of the pre-memo rule on every stream group; \
             resident segments <= {SEGMENT_BAR}x one call of as many sweeps; update path \
             <= {WRITEBACK_BAR}x the per-tuple reference on every writeback shape; the \
             resident machine within its bar of the bare solve on every tax row"
        );
    }
}
