//! The four stationarity designs of Sec. IV.D (Figs. 11–13).
//!
//! Each design answers the same question — "how does a tuple's `H_σ` flow
//! through the compute array?" — with a different choice of what stays
//! resident in the SRAM (*stationary*) and what is driven on the read
//! word-lines:
//!
//! | design | resident in array | driven on RWL | phase-1 cycles | reuse |
//! |---|---|---|---|---|
//! | n1a | neighbor spins | J bits, bit-major | N·R | 1 |
//! | n1b | neighbor spins | J bits, IC-major  | N·R | 1 |
//! | n2  | ICs (one per row) | neighbor spins | N | R |
//! | n3  | ICs + neighbor spins | target spin σ_i | ⌈N/(row capacity)⌉ | N·R |
//!
//! [`Stationarity::compute_tuple_soa`] is the production kernel the
//! machine runs. A read bit-line discharges exactly when
//! `stored XNOR driven` is 1, so every count a bit-level run of a
//! design's schedule books follows from popcounts of the stored and
//! driven bits. Those popcounts and `H_σ` are sums that are linear in
//! the neighbour spins, and the update path keeps them current per tuple
//! ([`crate::tuple::TupleSums`]): the kernel reads its tuple's sums in
//! O(1), books the bit-line discharges — the only events that depend on
//! the spins — in closed form, and returns `H_σ`. The bit-level scalar
//! oracles that lay each tuple into real bitcells, as Figs. 11–13 draw
//! it, live with the paper's reference models in the harness crate
//! (`sachi_bench::reference::designs`); differential tests there hold
//! the kernel's discharges plus the schedule's static events equal to
//! them, also after every flip of a random flip sequence.
//!
//! Each design states its per-tuple closed forms once, in
//! [`Stationarity::schedule`]: the [`TupleSchedule`] of accesses, XNOR
//! ops, resident bits, queue, idle time, reuse and adder work that every
//! compute of an `N`-neighbour tuple at resolution `R` pays whatever its
//! spins. [`StaticEvents::of`] turns it into the [`ComputeContext`] and
//! tile counters one compute books; the round plan ([`crate::rounds`])
//! sums those once per round for the machine to book when the round
//! ends, and prices the round's cycles from the same schedules. The
//! analytic model ([`crate::perf`]) and the Fig. 11–13 tables read the
//! same struct, so the machine and the model bill the same per-tuple
//! events by construction.

use crate::config::DesignKind;
use crate::encoding::MixedEncoding;
use crate::tuple::{SpinTuple, TuplePlaneView, TupleSums};
use sachi_ising::spin::Spin;
use sachi_mem::sram::{SramTile, TileStats};
use sachi_mem::units::convert::{count_u64, ratio_u64, to_index};

/// Per-solve counters a design accumulates while computing tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ComputeContext {
    /// Compute-array cycles spent in phase 1.
    pub cycles: u64,
    /// Bits fetched from the storage array onto the RWLs (the data-movement
    /// traffic whose reuse the paper optimizes).
    pub rwl_bits_fetched: u64,
    /// Useful in-memory XNOR bit computations performed.
    pub xnor_ops: u64,
    /// Near-memory full-adder bit operations.
    pub adder_bit_ops: u64,
    /// XNOR-vs-XNOR+1 (and XOR) decisions taken.
    pub decisions: u64,
    /// High-water mark of the XNOR queue, in bits.
    pub queue_peak_bits: u64,
}

impl ComputeContext {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        ComputeContext::default()
    }

    /// Reuse achieved so far: useful XNOR computes per RWL bit fetched.
    /// BRIM and Ising-CIM sit at 1.0 by construction; SACHI(n3) approaches
    /// `N·R`.
    pub fn reuse(&self) -> f64 {
        if self.rwl_bits_fetched == 0 {
            return 0.0;
        }
        ratio_u64(self.xnor_ops, self.rwl_bits_fetched)
    }

    /// Adds `other`'s counters into this one; the queue peak takes the
    /// larger of the two.
    pub(crate) fn merge(&mut self, other: &ComputeContext) {
        self.cycles += other.cycles;
        self.rwl_bits_fetched += other.rwl_bits_fetched;
        self.xnor_ops += other.xnor_ops;
        self.adder_bit_ops += other.adder_bit_ops;
        self.decisions += other.decisions;
        self.queue_peak_bits = self.queue_peak_bits.max(other.queue_peak_bits);
    }
}

/// The spin-independent events of computing a run of tuples: each
/// tuple's [`TupleSchedule`] booked as [`ComputeContext`] and
/// [`TileStats`] deltas, summed. Only the bit-line discharges of a
/// compute depend on its spins; the kernel books those, and everything
/// else a bit-level run of the schedule books is here.
/// [`crate::rounds::RoundPlan`] sums these once per round, and the
/// machine books a round's when the round ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StaticEvents {
    /// Cycles, RWL bits fetched, XNOR ops, adder ops and decisions,
    /// summed; the queue peak as a max.
    pub ctx: ComputeContext,
    /// RWL activations, bits written and compute accesses, summed; no
    /// discharges.
    pub tile: TileStats,
}

impl StaticEvents {
    /// The events one compute of a tuple with `schedule` books. A tuple
    /// without neighbours (a schedule without accesses) computes nothing
    /// and books nothing, not even its schedule's queue.
    #[inline]
    pub fn of(schedule: &TupleSchedule) -> Self {
        if schedule.accesses == 0 {
            return StaticEvents::default();
        }
        StaticEvents {
            ctx: ComputeContext {
                cycles: schedule.accesses,
                rwl_bits_fetched: schedule.accesses,
                xnor_ops: schedule.xnor_ops,
                adder_bit_ops: schedule.adder_bit_ops,
                decisions: schedule.decisions,
                queue_peak_bits: schedule.queue_bits,
            },
            tile: TileStats {
                rwl_activations: 2 * schedule.accesses,
                bits_written: schedule.resident_bits,
                compute_accesses: schedule.accesses,
                ..TileStats::default()
            },
        }
    }

    /// Adds `other`'s events into these.
    pub fn merge(&mut self, other: &StaticEvents) {
        self.ctx.merge(&other.ctx);
        self.tile.merge(&other.tile);
    }

    /// Books these events into `ctx` and onto `tile`.
    pub fn book(&self, ctx: &mut ComputeContext, tile: &mut SramTile) {
        ctx.merge(&self.ctx);
        tile.book(&self.tile);
    }
}

/// Scratch for [`Stationarity::compute_tuple_soa`]. The closed-form
/// kernel needs no buffers, so this holds nothing; it stays in the trait
/// signature only for existing callers.
#[derive(Debug, Clone, Copy, Default)]
pub struct ComputeScratch;

impl ComputeScratch {
    /// Creates the (empty) scratch.
    pub fn new() -> Self {
        ComputeScratch
    }
}

/// Cycles of the pipeline tail after phase 1 (Fig. 11f): the decision,
/// the accumulate and the negate/anneal step take one cycle each.
const PIPELINE_TAIL_CYCLES: u64 = 3;

/// One tuple's static per-compute facts under a design (Figs. 11–13):
/// what every compute of an `N`-neighbour tuple at resolution `R` books,
/// whatever its spins. [`Stationarity::schedule`] states it once per
/// design; the kernel, the round plan, the analytic model and the figure
/// tables all read it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TupleSchedule {
    /// Phase-1 single-cycle compute accesses. Each drives one storage bit
    /// onto an RWL pair, so this is also the RWL bits fetched.
    pub accesses: u64,
    /// Useful in-memory XNOR bit computations.
    pub xnor_ops: u64,
    /// Compute-array bits the tuple keeps resident: its layout, written
    /// through the write port once per compute.
    pub resident_bits: u64,
    /// Bits on the row one access drives, the window whose bit-lines can
    /// discharge.
    pub active_bits_per_access: u64,
    /// Minimum XNOR-queue capacity in bits (phase 2).
    pub queue_bits: u64,
    /// Cycles phases 3–5 sit idle before their first activation.
    pub idle_cycles: u64,
    /// Maximum reuse in the paper's convention: 1, 1, `R`, `N·R`.
    pub max_reuse: u64,
    /// Near-memory full-adder bit operations: `R + 2` per product.
    pub adder_bit_ops: u64,
    /// XNOR-vs-XNOR+1 (and XOR) decisions: one per product.
    pub decisions: u64,
}

impl TupleSchedule {
    /// The work every design shares: each of the `n` products at
    /// resolution `r` is decided once and added into the accumulator.
    #[inline]
    fn of_products(n: u64, r: u32) -> Self {
        TupleSchedule {
            adder_bit_ops: n * (u64::from(r) + 2),
            decisions: n,
            ..TupleSchedule::default()
        }
    }

    /// SRAM read throughput: XNOR bits per phase-1 cycle.
    pub fn throughput_bits_per_cycle(&self) -> u64 {
        self.xnor_ops.div_ceil(self.accesses.max(1))
    }

    /// Latency from the first RWL pulse to the annealer decision.
    pub fn latency_cycles(&self) -> u64 {
        self.accesses + PIPELINE_TAIL_CYCLES
    }

    /// The pipeline fill a round pays once: idle time plus the tail.
    pub(crate) fn fill_cycles(&self) -> u64 {
        self.idle_cycles + PIPELINE_TAIL_CYCLES
    }
}

/// A stationarity design: its closed-form schedule, its spin-dependent
/// discharges and the production kernel that books them. The four
/// designs are fixed by the paper; obtain them via [`stationarity`].
pub trait Stationarity {
    /// Which design this is.
    fn kind(&self) -> DesignKind;

    /// Scratch-tile dimensions needed to compute a tuple of `max_degree`
    /// neighbors at resolution `r` with physical rows of `row_bits`
    /// columns.
    fn tile_requirements(&self, max_degree: usize, r: u32, row_bits: usize) -> (usize, usize);

    /// The design's static per-tuple closed forms for a tuple of `n`
    /// neighbors at resolution `r` on physical rows of `row_bits` columns.
    /// A tuple without neighbors computes nothing: its accesses are 0.
    ///
    /// The provided kernel calls this and [`Stationarity::discharges`]
    /// once per compute (the discharges read the accesses or the XNOR
    /// ops) and is instantiated in every crate that calls it,
    /// so both are `#[inline]` (with the helpers they call). Out of line,
    /// a downstream kernel gets the whole struct back through memory,
    /// every field computed, which measured about twice the kernel's time.
    fn schedule(&self, n: u64, r: u32, row_bits: u64) -> TupleSchedule;

    /// Bit-line discharges of one compute, as `(all, redundant)`: the
    /// spin-dependent events of a tuple with maintained sums `s`, driven
    /// by `target`, whose schedule is `schedule`. Redundant discharges
    /// are those on columns that were not sensed.
    fn discharges(&self, s: &TupleSums, schedule: &TupleSchedule, target: Spin) -> (u64, u64);

    /// The production kernel, the one [`crate::machine::SachiMachine`]
    /// runs. It reads the tuple's maintained [`crate::tuple::TupleSums`]
    /// from `view` in O(1) — `H_σ = −(h + Σ J_k·σ_k)` together with the
    /// popcount sums the discharges are priced from — books the
    /// design's spin-dependent [`Stationarity::discharges`] on `tile`
    /// and returns `H_σ`. Everything else a bit-level run of the
    /// design's schedule books is fixed by the tuple's degree and `R`:
    /// its [`StaticEvents`], which [`crate::rounds::RoundPlan`] sums per
    /// round and the machine books once when the round ends. `tile`
    /// receives the discharges and supplies its row width, which must be
    /// that of a tile sized by [`Stationarity::tile_requirements`].
    /// `view` must be the [`crate::tuple::TuplePlanes`] view of `tuple`
    /// at `enc`'s resolution, kept current under spin updates via
    /// [`crate::tuple::TuplePlanes::writeback_spin`]. `tuple` is read
    /// only by a debug check that the view is its own; `ctx` and
    /// `scratch` are unused.
    ///
    /// Contract against the scalar oracle
    /// (`sachi_bench::reference::designs`, proven by differential
    /// proptests for every design, every R in 2..=32, n3 tuples that
    /// span several rows, and after every flip of random flip
    /// sequences): identical `H_σ`, and the kernel's discharges plus the
    /// schedule's [`StaticEvents`] equal the oracle's [`ComputeContext`]
    /// and [`TileStats`] deltas.
    #[allow(clippy::too_many_arguments)]
    fn compute_tuple_soa(
        &self,
        tile: &mut SramTile,
        enc: &MixedEncoding,
        tuple: SpinTuple<'_>,
        view: TuplePlaneView<'_>,
        target: Spin,
        _ctx: &mut ComputeContext,
        _scratch: &mut ComputeScratch,
    ) -> i64 {
        let s = view.sums();
        debug_assert_eq!(
            s.n,
            count_u64(tuple.degree()),
            "kernel handed the view of a different tuple"
        );
        if s.n == 0 {
            return s.h;
        }
        let schedule = self.schedule(s.n, enc.bits(), count_u64(tile.cols()));
        let (discharges, redundant) = self.discharges(&s, &schedule, target);
        tile.book_discharges(discharges, redundant);
        s.h
    }
}

/// Returns the implementation of a design.
pub fn stationarity(kind: DesignKind) -> &'static dyn Stationarity {
    match kind {
        DesignKind::N1a => &SpinStationaryBitMajor,
        DesignKind::N1b => &SpinStationaryIcMajor,
        DesignKind::N2 => &IcStationary,
        DesignKind::N3 => &MixedStationary,
    }
}

/// How many (R+1)-bit neighbor groups fit in one n3 row.
#[inline]
fn n3_groups_per_row(r: u32, row_bits: u64) -> u64 {
    (row_bits / (u64::from(r) + 1)).max(1)
}

/// The schedule both n1 designs share: the spin row (`n` bits) is
/// resident, and each of the `nR` coupling bits is one access that
/// drives the row's RWL pair while one column is sensed. The two designs
/// issue the same multiset of accesses in different orders, so only
/// their queue and idle time differ.
#[inline]
fn n1_schedule(n: u64, r: u32) -> TupleSchedule {
    let nr = n * u64::from(r);
    TupleSchedule {
        accesses: nr,
        xnor_ops: nr,
        resident_bits: n,
        active_bits_per_access: n,
        max_reuse: 1,
        ..TupleSchedule::of_products(n, r)
    }
}

/// The n1 discharges. A driven 1 discharges the `P` stored up-spins and a
/// driven 0 the `n − P` down-spins, so `P·C1 + (n−P)·(nR−C1)` bit-lines
/// discharge; the `U` sensed columns that discharge are useful, the rest
/// redundant.
#[inline]
fn n1_discharges(s: &TupleSums, schedule: &TupleSchedule) -> (u64, u64) {
    let discharges = s.up * s.ones + (s.n - s.up) * (schedule.accesses - s.ones);
    (discharges, discharges - s.matches)
}

/// SACHI(n1a): spin stationary, bit-major XNOR order (Fig. 11a.1).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpinStationaryBitMajor;

impl Stationarity for SpinStationaryBitMajor {
    fn kind(&self) -> DesignKind {
        DesignKind::N1a
    }

    fn tile_requirements(&self, max_degree: usize, _r: u32, _row_bits: usize) -> (usize, usize) {
        (1, max_degree.max(1))
    }

    #[inline]
    fn schedule(&self, n: u64, r: u32, _row_bits: u64) -> TupleSchedule {
        // Bit-major: the queue must hold every neighbor's partial bits at
        // once (N·(R+1), Sec. IV.D.1), and phase 3 first activates after
        // (R−1)·N + 1 cycles (none without neighbors).
        TupleSchedule {
            queue_bits: n * (u64::from(r) + 1),
            idle_cycles: (u64::from(r) - 1) * n + n.min(1),
            ..n1_schedule(n, r)
        }
    }

    #[inline]
    fn discharges(&self, s: &TupleSums, schedule: &TupleSchedule, _target: Spin) -> (u64, u64) {
        n1_discharges(s, schedule)
    }
}

/// SACHI(n1b): spin stationary, IC-major XNOR order (Fig. 11a.2).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpinStationaryIcMajor;

impl Stationarity for SpinStationaryIcMajor {
    fn kind(&self) -> DesignKind {
        DesignKind::N1b
    }

    fn tile_requirements(&self, max_degree: usize, _r: u32, _row_bits: usize) -> (usize, usize) {
        (1, max_degree.max(1))
    }

    #[inline]
    fn schedule(&self, n: u64, r: u32, _row_bits: u64) -> TupleSchedule {
        // IC-major: the queue holds a single (R+1)-bit entry, and phase 3
        // first activates after R cycles.
        TupleSchedule {
            queue_bits: u64::from(r) + 1,
            idle_cycles: u64::from(r),
            ..n1_schedule(n, r)
        }
    }

    #[inline]
    fn discharges(&self, s: &TupleSums, schedule: &TupleSchedule, _target: Spin) -> (u64, u64) {
        n1_discharges(s, schedule)
    }
}

/// SACHI(n2): IC stationary (Fig. 12). One row per IC; the neighbor spin
/// drives the row's RWL pair and all R columns are sensed in one cycle.
#[derive(Debug, Clone, Copy, Default)]
pub struct IcStationary;

impl Stationarity for IcStationary {
    fn kind(&self) -> DesignKind {
        DesignKind::N2
    }

    fn tile_requirements(&self, max_degree: usize, r: u32, _row_bits: usize) -> (usize, usize) {
        (max_degree.max(1), to_index(r))
    }

    #[inline]
    fn schedule(&self, n: u64, r: u32, _row_bits: u64) -> TupleSchedule {
        // One row per coupling (`nR` bits resident); one access per
        // neighbour, all R columns sensed. No queue; the decision and
        // adder are shifted by a cycle each (Fig. 12).
        let nr = n * u64::from(r);
        TupleSchedule {
            accesses: n,
            xnor_ops: nr,
            resident_bits: nr,
            active_bits_per_access: u64::from(r),
            idle_cycles: 2,
            max_reuse: u64::from(r),
            ..TupleSchedule::of_products(n, r)
        }
    }

    #[inline]
    fn discharges(&self, s: &TupleSums, _schedule: &TupleSchedule, _target: Spin) -> (u64, u64) {
        // Each neighbour's spin drives its own row with all R columns
        // sensed, so exactly the `U` coupling bits equal to that spin
        // discharge, none redundantly.
        (s.matches, 0)
    }
}

/// SACHI(n3): mixed stationary with reuse-aware compute (Fig. 13). ICs and
/// neighbor-spin copies are resident; the *target* spin drives the whole
/// row, and eqn. 5 recovers every product in parallel.
#[derive(Debug, Clone, Copy, Default)]
pub struct MixedStationary;

impl Stationarity for MixedStationary {
    fn kind(&self) -> DesignKind {
        DesignKind::N3
    }

    fn tile_requirements(&self, max_degree: usize, r: u32, row_bits: usize) -> (usize, usize) {
        let group = to_index(r) + 1;
        let per_row = (row_bits / group).max(1);
        let rows = max_degree.max(1).div_ceil(per_row);
        (rows, per_row * group)
    }

    #[inline]
    fn schedule(&self, n: u64, r: u32, row_bits: u64) -> TupleSchedule {
        // Every neighbour's (R+1)-bit group `[J bits, σ_j]` is resident;
        // σ_i drives each occupied row with its whole used width sensed.
        // A tuple whose groups fit one row (the common case) needs no
        // division to count its rows. No queue; shift-add and decision
        // skew the pipeline by two cycles (Fig. 13).
        let width = n * (u64::from(r) + 1);
        let rows = if width <= row_bits {
            n.min(1)
        } else {
            n.div_ceil(n3_groups_per_row(r, row_bits))
        };
        TupleSchedule {
            accesses: rows,
            xnor_ops: width,
            resident_bits: width,
            active_bits_per_access: width.div_ceil(rows.max(1)),
            idle_cycles: 2,
            max_reuse: n * u64::from(r),
            ..TupleSchedule::of_products(n, r)
        }
    }

    #[inline]
    fn discharges(&self, s: &TupleSums, schedule: &TupleSchedule, target: Spin) -> (u64, u64) {
        // Every stored bit equal to σ_i discharges, and usefully: the
        // `C1 + P` stored ones when σ_i is up, the other bits when it is
        // down.
        let stored_ones = s.ones + s.up;
        let discharges = if target == Spin::Up {
            stored_ones
        } else {
            schedule.xnor_ops - stored_ones
        };
        (discharges, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A design's schedule on the paper's 800-bit rows.
    fn sched(kind: DesignKind, n: u64, r: u32) -> TupleSchedule {
        stationarity(kind).schedule(n, r, 800)
    }

    #[test]
    fn reuse_ordering_matches_paper() {
        // n1a = n1b = 1 < n2 = R < n3 = N*R.
        let (n, r) = (8u64, 4u32);
        assert_eq!(sched(DesignKind::N1a, n, r).max_reuse, 1);
        assert_eq!(sched(DesignKind::N1b, n, r).max_reuse, 1);
        assert_eq!(sched(DesignKind::N2, n, r).max_reuse, 4);
        assert_eq!(sched(DesignKind::N3, n, r).max_reuse, 32);
    }

    #[test]
    fn schedule_formulas_match_figs_11_to_13() {
        let (n, r) = (8u64, 4u32);
        // Phase-1 cycles: N*R, N*R, N, ceil(N / groups-per-row).
        assert_eq!(sched(DesignKind::N1a, n, r).accesses, 32);
        assert_eq!(sched(DesignKind::N1b, n, r).accesses, 32);
        assert_eq!(sched(DesignKind::N2, n, r).accesses, 8);
        assert_eq!(sched(DesignKind::N3, n, r).accesses, 1);
        // Idle: (R-1)*N + 1 vs R vs pipeline skew.
        assert_eq!(sched(DesignKind::N1a, n, r).idle_cycles, 25);
        assert_eq!(sched(DesignKind::N1b, n, r).idle_cycles, 4);
        assert!(sched(DesignKind::N2, n, r).idle_cycles <= 2);
        // Queue: N*(R+1) vs R+1 vs none.
        assert_eq!(sched(DesignKind::N1a, n, r).queue_bits, 40);
        assert_eq!(sched(DesignKind::N1b, n, r).queue_bits, 5);
        assert_eq!(sched(DesignKind::N2, n, r).queue_bits, 0);
        assert_eq!(sched(DesignKind::N3, n, r).queue_bits, 0);
    }

    #[test]
    fn a_tuple_without_neighbors_schedules_no_accesses() {
        for kind in DesignKind::ALL {
            let s = sched(kind, 0, 4);
            assert_eq!(s.accesses, 0, "{kind}");
            assert_eq!(s.resident_bits, 0, "{kind}");
            assert_eq!(s.adder_bit_ops + s.decisions, 0, "{kind}");
        }
    }

    #[test]
    fn a_tuple_without_neighbors_books_no_static_events() {
        // n1b's schedule keeps an (R+1)-bit queue even at n = 0; the
        // compute that never happens must not raise the queue peak.
        assert_eq!(sched(DesignKind::N1b, 0, 4).queue_bits, 5);
        for kind in DesignKind::ALL {
            assert_eq!(
                StaticEvents::of(&sched(kind, 0, 4)),
                StaticEvents::default(),
                "{kind}"
            );
        }
        let one = StaticEvents::of(&sched(DesignKind::N1a, 8, 4));
        assert_eq!(one.ctx.queue_peak_bits, 40);
        assert_eq!(one.tile.rwl_activations, 64);
        let mut twice = one;
        twice.merge(&one);
        assert_eq!(twice.tile.rwl_activations, 128);
        assert_eq!(twice.ctx.queue_peak_bits, 40, "a peak does not add");
    }

    #[test]
    fn fig11f_idle_times() {
        // 4x3-image example of Fig. 11: N = 2 neighbors shown per tuple
        // at R = 3 (take N = 2, R = 3).
        let n1a = sched(DesignKind::N1a, 2, 3);
        let n1b = sched(DesignKind::N1b, 2, 3);
        // n1a waits (R-1)*N + 1 cycles; n1b only R.
        assert_eq!(n1a.idle_cycles, 5);
        assert_eq!(n1b.idle_cycles, 3);
        assert!(n1b.idle_cycles < n1a.idle_cycles);
        // Queue: N*(R+1) = 8 bits vs a single R+1 = 4-bit entry.
        assert_eq!(n1a.queue_bits, 8);
        assert_eq!(n1b.queue_bits, 4);
    }

    #[test]
    fn throughput_ladder() {
        let (n, r) = (8u64, 4u32);
        let t = |k| sched(k, n, r).throughput_bits_per_cycle();
        assert_eq!(t(DesignKind::N1a), 1);
        assert_eq!(t(DesignKind::N1b), 1);
        assert_eq!(t(DesignKind::N2), 4);
        // n3 reads the whole tuple in one cycle: N*(R+1) = 40 bits/cycle.
        assert_eq!(t(DesignKind::N3), 40);
    }

    #[test]
    fn n3_latency_independent_of_n_and_r_when_row_fits() {
        // O(1) compute (Sec. IV.D.4): latency is flat while the tuple fits
        // in one row.
        let a = sched(DesignKind::N3, 8, 4);
        let b = sched(DesignKind::N3, 100, 7);
        assert_eq!(a.accesses, 1);
        assert_eq!(b.accesses, 1);
        assert_eq!(a.latency_cycles(), b.latency_cycles());
        // ... and grows only via row splits beyond that.
        assert_eq!(sched(DesignKind::N3, 999, 4).accesses, 7);
    }

    #[test]
    fn per_tuple_latency_ordering_matches_paper() {
        let (n, r) = (48u64, 6u32);
        let lat = |k| sched(k, n, r).latency_cycles();
        assert!(lat(DesignKind::N3) < lat(DesignKind::N2));
        assert!(lat(DesignKind::N2) < lat(DesignKind::N1b));
        assert!(lat(DesignKind::N1b) <= lat(DesignKind::N1a));
    }

    #[test]
    fn n3_splits_wide_tuples_across_rows() {
        // TSP-like: N = 999, R = 4, 800-bit rows -> 160 groups per row ->
        // 7 rows.
        let d = stationarity(DesignKind::N3);
        assert_eq!(d.schedule(999, 4, 800).accesses, 7);
        let (rows, cols) = d.tile_requirements(999, 4, 800);
        assert_eq!(rows, 7);
        assert!(cols <= 800);
    }

    #[test]
    fn footprints_order_n1_below_n2_below_n3() {
        for kind in DesignKind::ALL {
            let d = stationarity(kind);
            assert_eq!(d.kind(), kind);
        }
        let (n, r) = (8u64, 4u32);
        let f = |k| sched(k, n, r).resident_bits;
        assert!(f(DesignKind::N1a) < f(DesignKind::N2));
        assert!(f(DesignKind::N2) < f(DesignKind::N3));
        let d = |k| sched(k, n, r).accesses;
        assert!(d(DesignKind::N3) < d(DesignKind::N2));
        assert!(d(DesignKind::N2) < d(DesignKind::N1a));
    }
}
