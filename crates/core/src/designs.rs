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
//! Each design has exactly two compute methods.
//! [`Stationarity::compute_tuple`] is the scalar oracle: it lays the
//! stationary data into a real [`SramTile`], pulses the word-lines in the
//! design's schedule order, and assembles `H_σ` from the sensed discharge
//! pattern, bit for bit as Figs. 11–13 draw it.
//! [`Stationarity::compute_tuple_soa`] is the production kernel the
//! machine runs. A read bit-line discharges exactly when
//! `stored XNOR driven` is 1, so every count the oracle books follows
//! from popcounts of the stored and driven bits. Those popcounts and
//! `H_σ` are sums that are linear in the neighbour spins, and the update
//! path keeps them current per tuple ([`crate::tuple::TupleSums`]): the
//! kernel reads its tuple's sums in O(1) and books the oracle's
//! [`ComputeContext`] and tile-event deltas in closed form. Differential
//! proptests hold the two equal, also after every flip of a random flip
//! sequence. The closed-form schedule methods (`phase1_cycles`,
//! `idle_cycles`, `xnor_queue_bits`, `max_reuse`, footprints) feed the
//! analytic performance model of [`crate::perf`].

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

    fn note_queue(&mut self, bits: u64) {
        self.queue_peak_bits = self.queue_peak_bits.max(bits);
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

/// A stationarity design: functional tuple compute plus its closed-form
/// schedule. This trait is sealed by construction — the four designs are
/// fixed by the paper; obtain them via [`stationarity`].
pub trait Stationarity {
    /// Which design this is.
    fn kind(&self) -> DesignKind;

    /// Scratch-tile dimensions needed to compute a tuple of `max_degree`
    /// neighbors at resolution `r` with physical rows of `row_bits`
    /// columns.
    fn tile_requirements(&self, max_degree: usize, r: u32, row_bits: usize) -> (usize, usize);

    /// Scalar reference oracle: lays the tuple into `tile` one cell at a
    /// time, pulses the word-lines in the design's schedule order, and
    /// returns `H_σ` assembled from the sensed XNOR outputs. Counters
    /// accumulate into `ctx`. It mirrors Figs. 11–13 line by line and is
    /// what the differential tests and figure harnesses check
    /// [`Stationarity::compute_tuple_soa`] against; the machine never
    /// calls it.
    ///
    /// # Panics
    ///
    /// Panics if the tile is smaller than
    /// [`Stationarity::tile_requirements`] demands or a coefficient does
    /// not fit in the encoding.
    fn compute_tuple(
        &self,
        tile: &mut SramTile,
        enc: &MixedEncoding,
        tuple: &SpinTuple,
        target: Spin,
        ctx: &mut ComputeContext,
    ) -> i64;

    /// The production kernel, the one [`crate::machine::SachiMachine`]
    /// runs. It reads the tuple's maintained [`crate::tuple::TupleSums`]
    /// from `view` in O(1) — `H_σ = −(h + Σ J_k·σ_k)` together with the
    /// popcount sums the design's schedule is priced from — and books, in
    /// closed form, the [`ComputeContext`] and [`TileStats`] deltas
    /// [`Stationarity::compute_tuple`] produces on a tile sized by
    /// [`Stationarity::tile_requirements`]. It writes no bitcell: `tile`
    /// only receives the booked events and, for n3, supplies its row
    /// width. `view` must be the [`crate::tuple::TuplePlanes`] view of
    /// `tuple` at `enc`'s resolution, kept current under spin updates via
    /// [`crate::tuple::TuplePlanes::writeback_spin`]. `tuple` is read only
    /// by a debug check that the view is its own; `scratch` is unused.
    ///
    /// Contract against the scalar oracle (proven by differential
    /// proptests for every design, every R in 2..=32, n3 tuples that
    /// span several rows, and after every flip of random flip
    /// sequences): identical `H_σ`, identical [`ComputeContext`]
    /// updates, and identical [`TileStats`] deltas.
    #[allow(clippy::too_many_arguments)]
    fn compute_tuple_soa(
        &self,
        tile: &mut SramTile,
        enc: &MixedEncoding,
        tuple: &SpinTuple,
        view: TuplePlaneView<'_>,
        target: Spin,
        ctx: &mut ComputeContext,
        scratch: &mut ComputeScratch,
    ) -> i64;

    /// Phase-1 (in-memory compute) cycles for a tuple of `n` neighbors.
    /// Each cycle's access drives one storage bit onto an RWL, so this is
    /// also the bits a compute drives.
    fn phase1_cycles(&self, n: u64, r: u32, row_bits: u64) -> u64;

    /// Pipeline-fill idle cycles before phases 3–5 first activate
    /// (Fig. 11f): `(R-1)·N + 1` for n1a, `R` for n1b, a 1–2 cycle skew
    /// for n2/n3.
    fn idle_cycles(&self, n: u64, r: u32) -> u64;

    /// Minimum XNOR-queue capacity in bits (phase 2): `N·(R+1)` for n1a,
    /// `R+1` for n1b, zero for n2/n3.
    fn xnor_queue_bits(&self, n: u64, r: u32) -> u64;

    /// Maximum reuse: 1, 1, `R`, `N·R`.
    fn max_reuse(&self, n: u64, r: u32) -> u64;

    /// Compute-array bits a tuple keeps resident.
    fn resident_bits_per_tuple(&self, n: u64, r: u32) -> u64;
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
fn n3_groups_per_row(r: u32, row_bits: u64) -> u64 {
    (row_bits / (u64::from(r) + 1)).max(1)
}

/// Shared finale for the n1 designs: assemble products from queued XNOR
/// bits, then fold in the field and negate (phases 3–5).
fn finish_from_products(
    products: impl Iterator<Item = i64>,
    field: i32,
    r: u32,
    ctx: &mut ComputeContext,
) -> i64 {
    let mut acc = i64::from(field); // full adder initialized to h (phase 4)
    for p in products {
        acc += p;
        ctx.adder_bit_ops += u64::from(r) + 2;
        ctx.decisions += 1;
    }
    -acc // phase 5 negation: H_σ = -(Σ J σ + h)
}

fn layout_spins(tile: &mut SramTile, tuple: &SpinTuple) {
    let bits: Vec<bool> = tuple.neighbor_spins.iter().map(|s| s.bit()).collect();
    tile.write_row(0, &bits)
        .expect("tile sized by tile_requirements");
}

/// The tuple's maintained sums, read in O(1) from `view`.
fn sums_of(tuple: &SpinTuple, view: TuplePlaneView<'_>) -> TupleSums {
    let s = view.sums();
    debug_assert_eq!(
        s.n,
        count_u64(tuple.degree()),
        "kernel handed the view of a different tuple"
    );
    s
}

/// One tuple's closed-form events: what the design's scalar schedule
/// books on its tile.
#[derive(Debug, Clone, Copy)]
struct Ledger {
    /// Single-cycle compute accesses; each fetches one RWL bit and pulses
    /// two word-lines (the stored row and its complement).
    accesses: u64,
    /// Useful XNOR bit computations.
    xnor_ops: u64,
    /// Bit-line discharges, useful and redundant.
    discharges: u64,
    /// Discharges on columns that were not sensed.
    redundant: u64,
    /// Layout bits written through the write port.
    bits_written: u64,
}

impl Ledger {
    /// Books the events into `ctx` and `tile`, together with the adder
    /// and decision work of the tuple's `n` products at resolution `r`,
    /// and returns `H_σ`.
    fn book(self, s: &TupleSums, r: u32, ctx: &mut ComputeContext, tile: &mut SramTile) -> i64 {
        ctx.cycles += self.accesses;
        ctx.rwl_bits_fetched += self.accesses;
        ctx.xnor_ops += self.xnor_ops;
        ctx.adder_bit_ops += s.n * (u64::from(r) + 2);
        ctx.decisions += s.n;
        tile.book(&TileStats {
            rwl_activations: 2 * self.accesses,
            rbl_discharges: self.discharges,
            redundant_discharges: self.redundant,
            bits_written: self.bits_written,
            bits_read: 0,
            compute_accesses: self.accesses,
        });
        s.h
    }
}

/// The n1a/n1b ledger. The spin row is written once (`n` bits), then
/// each of the `nR` coupling bits drives the row's RWL pair while one
/// column is sensed. A driven 1 discharges the `P` stored up-spins and a
/// driven 0 the `n − P` down-spins, so `P·C1 + (n−P)·(nR−C1)` bit-lines
/// discharge; the `U` sensed columns that discharge are useful, the rest
/// redundant. The two designs issue the same multiset of accesses in
/// different orders, so only their queue notes differ.
fn n1_ledger(s: &TupleSums, r: u32) -> Ledger {
    let nr = s.n * u64::from(r);
    let discharges = s.up * s.ones + (s.n - s.up) * (nr - s.ones);
    Ledger {
        accesses: nr,
        xnor_ops: nr,
        discharges,
        redundant: discharges - s.matches,
        bits_written: s.n,
    }
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

    fn compute_tuple(
        &self,
        tile: &mut SramTile,
        enc: &MixedEncoding,
        tuple: &SpinTuple,
        _target: Spin,
        ctx: &mut ComputeContext,
    ) -> i64 {
        let n = tuple.degree();
        let r = enc.bits();
        if n == 0 {
            return -(i64::from(tuple.field));
        }
        layout_spins(tile, tuple);
        // Phase 1: bit-major — XNOR the r-th bit of every IC before moving
        // to bit r+1. Each cycle drives one J bit and senses one column.
        let encoded: Vec<Vec<bool>> = tuple
            .couplings
            .iter()
            .map(|&j| {
                enc.encode(i64::from(j))
                    .expect("coefficient fits the configured resolution")
            })
            .collect();
        let mut queue = vec![vec![false; to_index(r)]; n];
        for b in 0..to_index(r) {
            for (k, bits) in encoded.iter().enumerate() {
                let out = tile
                    .compute_xnor_bit(0, bits[b], 0..n, k)
                    .expect("in-bounds by layout");
                queue[k][b] = out;
                ctx.cycles += 1;
                ctx.rwl_bits_fetched += 1;
                ctx.xnor_ops += 1;
            }
        }
        // The queue must hold every neighbor's partial bits at once
        // (minimum size N*(R+1), Sec. IV.D.1).
        ctx.note_queue(count_u64(n) * (u64::from(r) + 1));
        // Phases 3-5.
        let products = queue
            .iter()
            .zip(tuple.neighbor_spins.iter())
            .map(|(bits, &s)| {
                let mut v = enc.decode(bits);
                if s == Spin::Down {
                    v += 1;
                }
                v
            });
        finish_from_products(products, tuple.field, r, ctx)
    }

    fn compute_tuple_soa(
        &self,
        tile: &mut SramTile,
        enc: &MixedEncoding,
        tuple: &SpinTuple,
        view: TuplePlaneView<'_>,
        _target: Spin,
        ctx: &mut ComputeContext,
        _scratch: &mut ComputeScratch,
    ) -> i64 {
        let s = sums_of(tuple, view);
        if s.n == 0 {
            return s.h;
        }
        ctx.note_queue(s.n * (u64::from(enc.bits()) + 1));
        n1_ledger(&s, enc.bits()).book(&s, enc.bits(), ctx, tile)
    }

    fn phase1_cycles(&self, n: u64, r: u32, _row_bits: u64) -> u64 {
        n * u64::from(r)
    }

    fn idle_cycles(&self, n: u64, r: u32) -> u64 {
        if n == 0 {
            return 0;
        }
        (u64::from(r) - 1) * n + 1
    }

    fn xnor_queue_bits(&self, n: u64, r: u32) -> u64 {
        n * (u64::from(r) + 1)
    }

    fn max_reuse(&self, _n: u64, _r: u32) -> u64 {
        1
    }

    fn resident_bits_per_tuple(&self, n: u64, _r: u32) -> u64 {
        n
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

    fn compute_tuple(
        &self,
        tile: &mut SramTile,
        enc: &MixedEncoding,
        tuple: &SpinTuple,
        _target: Spin,
        ctx: &mut ComputeContext,
    ) -> i64 {
        let n = tuple.degree();
        let r = enc.bits();
        if n == 0 {
            return -(i64::from(tuple.field));
        }
        layout_spins(tile, tuple);
        // Phase 1: IC-major — all bits of one J before the next J, so the
        // queue holds a single (R+1)-bit entry and phase 3 starts after R
        // cycles.
        let mut acc = i64::from(tuple.field);
        let mut queue_entry = vec![false; to_index(r)];
        for (k, &j) in tuple.couplings.iter().enumerate() {
            let bits = enc
                .encode(i64::from(j))
                .expect("coefficient fits the configured resolution");
            for (b, &jbit) in bits.iter().enumerate() {
                queue_entry[b] = tile
                    .compute_xnor_bit(0, jbit, 0..n, k)
                    .expect("in-bounds by layout");
                ctx.cycles += 1;
                ctx.rwl_bits_fetched += 1;
                ctx.xnor_ops += 1;
                ctx.note_queue(count_u64(b) + 1);
            }
            ctx.note_queue(u64::from(r) + 1);
            let mut v = enc.decode(&queue_entry);
            if tuple.neighbor_spins[k] == Spin::Down {
                v += 1;
            }
            acc += v;
            ctx.adder_bit_ops += u64::from(r) + 2;
            ctx.decisions += 1;
        }
        -acc
    }

    fn compute_tuple_soa(
        &self,
        tile: &mut SramTile,
        enc: &MixedEncoding,
        tuple: &SpinTuple,
        view: TuplePlaneView<'_>,
        _target: Spin,
        ctx: &mut ComputeContext,
        _scratch: &mut ComputeScratch,
    ) -> i64 {
        let s = sums_of(tuple, view);
        if s.n == 0 {
            return s.h;
        }
        ctx.note_queue(u64::from(enc.bits()) + 1);
        n1_ledger(&s, enc.bits()).book(&s, enc.bits(), ctx, tile)
    }

    fn phase1_cycles(&self, n: u64, r: u32, _row_bits: u64) -> u64 {
        n * u64::from(r)
    }

    fn idle_cycles(&self, _n: u64, r: u32) -> u64 {
        u64::from(r)
    }

    fn xnor_queue_bits(&self, _n: u64, r: u32) -> u64 {
        u64::from(r) + 1
    }

    fn max_reuse(&self, _n: u64, _r: u32) -> u64 {
        1
    }

    fn resident_bits_per_tuple(&self, n: u64, _r: u32) -> u64 {
        n
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

    fn compute_tuple(
        &self,
        tile: &mut SramTile,
        enc: &MixedEncoding,
        tuple: &SpinTuple,
        _target: Spin,
        ctx: &mut ComputeContext,
    ) -> i64 {
        let n = tuple.degree();
        let r = enc.bits();
        if n == 0 {
            return -(i64::from(tuple.field));
        }
        // Layout: row k holds encode(J_ik).
        for (k, &j) in tuple.couplings.iter().enumerate() {
            let bits = enc
                .encode(i64::from(j))
                .expect("coefficient fits the configured resolution");
            tile.write_row(k, &bits)
                .expect("tile sized by tile_requirements");
        }
        // Phase 1: one neighbor per cycle, R columns sensed at once.
        let mut acc = i64::from(tuple.field);
        for (k, &s) in tuple.neighbor_spins.iter().enumerate() {
            let out = tile
                .compute_xnor(k, s.bit(), 0..to_index(r))
                .expect("in-bounds by layout");
            ctx.cycles += 1;
            ctx.rwl_bits_fetched += 1;
            ctx.xnor_ops += u64::from(r);
            let mut v = enc.decode(&out);
            if s == Spin::Down {
                v += 1;
            }
            acc += v;
            ctx.adder_bit_ops += u64::from(r) + 2;
            ctx.decisions += 1;
        }
        -acc
    }

    fn compute_tuple_soa(
        &self,
        tile: &mut SramTile,
        enc: &MixedEncoding,
        tuple: &SpinTuple,
        view: TuplePlaneView<'_>,
        _target: Spin,
        ctx: &mut ComputeContext,
        _scratch: &mut ComputeScratch,
    ) -> i64 {
        let s = sums_of(tuple, view);
        if s.n == 0 {
            return s.h;
        }
        // One row per coupling (`nR` bits written). Each neighbour's spin
        // drives its own row with all R columns sensed, so exactly the `U`
        // coupling bits equal to that spin discharge, none redundantly.
        let nr = s.n * u64::from(enc.bits());
        Ledger {
            accesses: s.n,
            xnor_ops: nr,
            discharges: s.matches,
            redundant: 0,
            bits_written: nr,
        }
        .book(&s, enc.bits(), ctx, tile)
    }

    fn phase1_cycles(&self, n: u64, _r: u32, _row_bits: u64) -> u64 {
        n.max(1)
    }

    fn idle_cycles(&self, _n: u64, _r: u32) -> u64 {
        2 // decision + adder shifted by a cycle each (Fig. 12)
    }

    fn xnor_queue_bits(&self, _n: u64, _r: u32) -> u64 {
        0
    }

    fn max_reuse(&self, _n: u64, r: u32) -> u64 {
        u64::from(r)
    }

    fn resident_bits_per_tuple(&self, n: u64, r: u32) -> u64 {
        n * u64::from(r)
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

    fn compute_tuple(
        &self,
        tile: &mut SramTile,
        enc: &MixedEncoding,
        tuple: &SpinTuple,
        target: Spin,
        ctx: &mut ComputeContext,
    ) -> i64 {
        let n = tuple.degree();
        let r = enc.bits();
        if n == 0 {
            return -(i64::from(tuple.field));
        }
        let group = to_index(r) + 1;
        let per_row = (tile.cols() / group).max(1);
        // Layout: per neighbor, an (R+1)-bit group [J bits..., σ_j bit].
        for (k, (&j, &s)) in tuple
            .couplings
            .iter()
            .zip(tuple.neighbor_spins.iter())
            .enumerate()
        {
            let row = k / per_row;
            let col = (k % per_row) * group;
            let mut bits = enc
                .encode(i64::from(j))
                .expect("coefficient fits the configured resolution");
            bits.push(s.bit());
            tile.write_slice(row, col, &bits)
                .expect("tile sized by tile_requirements");
        }
        // Phase 1: one cycle per occupied row; σ_i on the RWL, the whole
        // used width sensed.
        let rows = n.div_ceil(per_row);
        let mut acc = i64::from(tuple.field);
        let mut k = 0usize;
        for row in 0..rows {
            let in_row = per_row.min(n - row * per_row);
            let out = tile
                .compute_xnor_windowed(row, target.bit(), 0..in_row * group, 0..in_row * group)
                .expect("in-bounds by layout");
            ctx.cycles += 1;
            ctx.rwl_bits_fetched += 1;
            ctx.xnor_ops += count_u64(in_row * group);
            for g in 0..in_row {
                let bits = &out[g * group..g * group + to_index(r)];
                // Equality bit σ_j XNOR σ_i came out of the array with the
                // same pulse.
                let equal = out[g * group + to_index(r)];
                let sigma_j = if equal { target } else { target.flipped() };
                // eqn. 5 select: XNOR output if spins equal, XOR otherwise.
                let selected: Vec<bool> = if equal {
                    bits.to_vec()
                } else {
                    bits.iter().map(|b| !b).collect()
                };
                let mut v = enc.decode(&selected);
                if sigma_j == Spin::Down {
                    v += 1;
                }
                acc += v;
                ctx.adder_bit_ops += u64::from(r) + 2;
                ctx.decisions += 1;
                k += 1;
            }
        }
        debug_assert_eq!(k, n);
        -acc
    }

    fn compute_tuple_soa(
        &self,
        tile: &mut SramTile,
        enc: &MixedEncoding,
        tuple: &SpinTuple,
        view: TuplePlaneView<'_>,
        target: Spin,
        ctx: &mut ComputeContext,
        _scratch: &mut ComputeScratch,
    ) -> i64 {
        let s = sums_of(tuple, view);
        if s.n == 0 {
            return s.h;
        }
        // Every neighbour's (R+1)-bit group `[J bits, σ_j]` is written
        // (`n(R+1)` bits). σ_i drives each occupied row with the whole used
        // width sensed, so every stored bit equal to σ_i discharges, and
        // usefully: the `C1 + P` stored ones when σ_i is up, the other
        // bits when it is down.
        let width = s.n * (u64::from(enc.bits()) + 1);
        let stored_ones = s.ones + s.up;
        let discharges = if target == Spin::Up {
            stored_ones
        } else {
            width - stored_ones
        };
        // A tuple whose groups fit one row (the common case) needs no
        // division to count its rows.
        let cols = count_u64(tile.cols());
        let rows = if width <= cols {
            1
        } else {
            s.n.div_ceil(n3_groups_per_row(enc.bits(), cols))
        };
        Ledger {
            accesses: rows,
            xnor_ops: width,
            discharges,
            redundant: 0,
            bits_written: width,
        }
        .book(&s, enc.bits(), ctx, tile)
    }

    fn phase1_cycles(&self, n: u64, r: u32, row_bits: u64) -> u64 {
        n.max(1).div_ceil(n3_groups_per_row(r, row_bits))
    }

    fn idle_cycles(&self, _n: u64, _r: u32) -> u64 {
        2 // shift-add + decision pipeline skew (Fig. 13)
    }

    fn xnor_queue_bits(&self, _n: u64, _r: u32) -> u64 {
        0
    }

    fn max_reuse(&self, n: u64, r: u32) -> u64 {
        n * u64::from(r)
    }

    fn resident_bits_per_tuple(&self, n: u64, r: u32) -> u64 {
        n * (u64::from(r) + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::{TuplePlanes, TupleStore};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sachi_ising::graph::{topology, GraphBuilder};
    use sachi_ising::hamiltonian::local_field;
    use sachi_ising::spin::SpinVector;

    fn check_design_matches_golden(kind: DesignKind, seed: u64) {
        let g = topology::king(4, 4, |i, j| ((i * 3 + j * 7) % 13) as i32 - 6).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let spins = SpinVector::random(16, &mut rng);
        let store = TupleStore::new(&g, &spins);
        let enc = MixedEncoding::new(g.bits_required()).unwrap();
        let design = stationarity(kind);
        let (rows, cols) = design.tile_requirements(g.max_degree(), enc.bits(), 800);
        let mut tile = SramTile::new(rows, cols);
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
                let design = stationarity(kind);
                let (rows, cols) = design.tile_requirements(g.max_degree(), enc.bits(), 800);
                let planes = TuplePlanes::new(&store, &enc).unwrap();
                let mut tile_s = SramTile::new(rows, cols);
                let mut tile_o = SramTile::new(rows, cols);
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
            let design = stationarity(kind);
            let (rows, cols) = design.tile_requirements(1, 4, 800);
            let mut tile = SramTile::new(rows, cols);
            let mut ctx = ComputeContext::new();
            for i in 0..3 {
                let h =
                    design.compute_tuple(&mut tile, &enc, store.tuple(i), spins.get(i), &mut ctx);
                assert_eq!(h, local_field(&g, &spins, i), "{kind} spin {i}");
            }
        }
    }

    #[test]
    fn reuse_ordering_matches_paper() {
        // n1a = n1b = 1 < n2 = R < n3 = N*R.
        let (n, r) = (8u64, 4u32);
        assert_eq!(stationarity(DesignKind::N1a).max_reuse(n, r), 1);
        assert_eq!(stationarity(DesignKind::N1b).max_reuse(n, r), 1);
        assert_eq!(stationarity(DesignKind::N2).max_reuse(n, r), 4);
        assert_eq!(stationarity(DesignKind::N3).max_reuse(n, r), 32);
    }

    #[test]
    fn measured_reuse_approaches_max_reuse() {
        let g = topology::king(4, 4, |_, _| 2).unwrap();
        let spins = SpinVector::filled(16, Spin::Up);
        let store = TupleStore::new(&g, &spins);
        let enc = MixedEncoding::new(4).unwrap();
        for kind in DesignKind::ALL {
            let design = stationarity(kind);
            let (rows, cols) = design.tile_requirements(8, 4, 800);
            let mut tile = SramTile::new(rows, cols);
            let mut ctx = ComputeContext::new();
            // Center spin: full 8-neighbor tuple.
            design.compute_tuple(&mut tile, &enc, store.tuple(5), spins.get(5), &mut ctx);
            let expected = design.max_reuse(store.tuple(5).degree() as u64, 4) as f64;
            let measured = ctx.reuse();
            assert!(
                (measured - expected).abs() / expected < 0.35,
                "{kind}: measured reuse {measured}, expected ~{expected}"
            );
        }
    }

    #[test]
    fn schedule_formulas_match_figs_11_to_13() {
        let (n, r, row) = (8u64, 4u32, 800u64);
        // Phase-1 cycles: N*R, N*R, N, ceil(N / groups-per-row).
        assert_eq!(stationarity(DesignKind::N1a).phase1_cycles(n, r, row), 32);
        assert_eq!(stationarity(DesignKind::N1b).phase1_cycles(n, r, row), 32);
        assert_eq!(stationarity(DesignKind::N2).phase1_cycles(n, r, row), 8);
        assert_eq!(stationarity(DesignKind::N3).phase1_cycles(n, r, row), 1);
        // Idle: (R-1)*N + 1 vs R vs pipeline skew.
        assert_eq!(stationarity(DesignKind::N1a).idle_cycles(n, r), 25);
        assert_eq!(stationarity(DesignKind::N1b).idle_cycles(n, r), 4);
        assert!(stationarity(DesignKind::N2).idle_cycles(n, r) <= 2);
        // Queue: N*(R+1) vs R+1 vs none.
        assert_eq!(stationarity(DesignKind::N1a).xnor_queue_bits(n, r), 40);
        assert_eq!(stationarity(DesignKind::N1b).xnor_queue_bits(n, r), 5);
        assert_eq!(stationarity(DesignKind::N2).xnor_queue_bits(n, r), 0);
        assert_eq!(stationarity(DesignKind::N3).xnor_queue_bits(n, r), 0);
    }

    #[test]
    fn n3_splits_wide_tuples_across_rows() {
        // TSP-like: N = 999, R = 4, 800-bit rows -> 160 groups per row ->
        // 7 rows.
        let d = stationarity(DesignKind::N3);
        assert_eq!(d.phase1_cycles(999, 4, 800), 7);
        let (rows, cols) = d.tile_requirements(999, 4, 800);
        assert_eq!(rows, 7);
        assert!(cols <= 800);
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
            let design = stationarity(kind);
            let (rows, cols) = design.tile_requirements(8, 4, 800);
            let mut tile = SramTile::new(rows, cols);
            let mut ctx = ComputeContext::new();
            design.compute_tuple(&mut tile, &enc, store.tuple(4), spins.get(4), &mut ctx);
            redundant.insert(kind, tile.stats().redundant_discharges);
        }
        assert!(redundant[&DesignKind::N1a] > 0);
        assert!(redundant[&DesignKind::N1b] > 0);
        assert_eq!(redundant[&DesignKind::N3], 0);
        assert!(redundant[&DesignKind::N1a] > redundant[&DesignKind::N2]);
    }

    #[test]
    fn footprints_order_n1_below_n2_below_n3() {
        for kind in DesignKind::ALL {
            let d = stationarity(kind);
            assert_eq!(d.kind(), kind);
        }
        let (n, r) = (8u64, 4u32);
        let f = |k| stationarity(k).resident_bits_per_tuple(n, r);
        assert!(f(DesignKind::N1a) < f(DesignKind::N2));
        assert!(f(DesignKind::N2) < f(DesignKind::N3));
        let d = |k| stationarity(k).phase1_cycles(n, r, 800);
        assert!(d(DesignKind::N3) < d(DesignKind::N2));
        assert!(d(DesignKind::N2) < d(DesignKind::N1a));
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
                    let design = stationarity(kind);
                    let (rows, cols) = design.tile_requirements(5, enc.bits(), 800);
                    let mut tile = SramTile::new(rows, cols);
                    let mut ctx = ComputeContext::new();
                    let h = design.compute_tuple(&mut tile, &enc, store.tuple(i), spins.get(i), &mut ctx);
                    prop_assert_eq!(h, golden);
                }
            }
        }
    }
}
