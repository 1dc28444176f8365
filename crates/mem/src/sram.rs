//! Bit-accurate functional model of an 8T SRAM compute tile.
//!
//! The SACHI compute array is built from unmodified 8T bitcells with
//! decoupled read and write ports (Sec. IV.C.2, Fig. 10). The cell has two
//! modes:
//!
//! * **Normal mode** — data is written via WWL/WBL and read via RWL/RBL,
//!   exactly like the L1 cache it repurposes.
//! * **Ising compute mode** — the read word-line is repurposed as a compute
//!   input. Two bitcells in the same column hold a stored bit `S` and its
//!   complement `S'`; driving their RWLs with an input `J` and its complement
//!   `J'` makes the shared read bit-line compute
//!   `(S AND J) OR (S' AND J') == S XNOR J`. The RBL *discharges* when the
//!   XNOR value is 1 and retains its precharge when it is 0.
//!
//! This module models the array at the bit level: a compute access returns
//! exactly the discharge pattern the silicon would produce, and the energy
//! counters distinguish *useful* discharges (columns whose bit-line select
//! was enabled and sensed) from *redundant* discharges (columns that
//! discharged anyway because they share the activated word-line). Redundant
//! discharge is the energy-waste mechanism of Fig. 5c that motivates
//! SACHI's reuse-aware designs.

use crate::energy::{EnergyComponent, EnergyLedger};
use crate::lanes;
use crate::params::TechnologyParams;
use crate::units::convert::count_u64;
use crate::units::Picojoules;
use std::fmt;
use std::ops::Range;

/// Generator-style tile parameters, the way sram22 exposes its bitcell
/// arrays: rows, columns, and the bank count as first-class knobs rather
/// than hard-coded geometry.
///
/// Banks partition the write port: a `B`-bank tile accepts `B` row
/// uploads per cycle (one per bank write port), so a chunk of `rows`
/// tuple rows streams in over `ceil(rows / B)` cycles instead of `rows`.
/// The compute side is unaffected — banking widens the *upload* path the
/// sweep pipeline overlaps against the prefetcher, not the XNOR arrays.
/// `banks == 1` is, by construction, exactly the unbanked tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileParams {
    /// Number of rows.
    pub rows: usize,
    /// Bits per row.
    pub cols: usize,
    /// Write-port banks (`>= 1`).
    pub banks: usize,
}

impl TileParams {
    /// Single-bank parameters for a `rows x cols` tile.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "tile must have non-zero dimensions");
        TileParams {
            rows,
            cols,
            banks: 1,
        }
    }

    /// Sets the bank count.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero.
    pub fn with_banks(mut self, banks: usize) -> Self {
        assert!(banks >= 1, "tile needs at least one bank");
        self.banks = banks;
        self
    }

    /// Cycles to upload `rows` tuple rows through the banked write port:
    /// `ceil(rows / banks)`. With one bank this is the identity, which is
    /// what keeps `banks == 1` cycle-identical to the unbanked machine.
    #[must_use]
    pub fn upload_cycles(&self, rows: u64) -> u64 {
        rows.div_ceil(count_u64(self.banks))
    }
}

/// Error returned by [`SramTile`] operations on out-of-bounds accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessError {
    /// Human-readable description of the violated bound.
    what: String,
}

impl AccessError {
    fn new(what: impl Into<String>) -> Self {
        AccessError { what: what.into() }
    }
}

impl fmt::Display for AccessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sram access out of bounds: {}", self.what)
    }
}

impl std::error::Error for AccessError {}

/// Raw event counters accumulated by a tile.
///
/// Counters are converted to energy by [`TileStats::energy`] using a
/// [`TechnologyParams`]; keeping raw counts lets the same run be re-priced
/// under different technology assumptions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TileStats {
    /// Read word-line activations (each compute access pulses the stored
    /// row and its complement row: 2 activations).
    pub rwl_activations: u64,
    /// Total bit-line discharge events, useful and redundant.
    pub rbl_discharges: u64,
    /// Discharges on columns whose output was *not* sensed (redundant
    /// compute energy, Fig. 5c).
    pub redundant_discharges: u64,
    /// Bits written through the write port.
    pub bits_written: u64,
    /// Bits read in normal (non-compute) mode.
    pub bits_read: u64,
    /// Number of compute-mode accesses (one per cycle per tile).
    pub compute_accesses: u64,
}

impl TileStats {
    /// Prices the accumulated events under `params`.
    pub fn energy(&self, params: &TechnologyParams) -> EnergyLedger {
        let mut ledger = EnergyLedger::new();
        ledger.record(
            EnergyComponent::RwlDrive,
            params.rwl_energy_per_bit() * self.rwl_activations,
        );
        ledger.record(
            EnergyComponent::RblDischarge,
            params.rbl_energy_per_bit() * self.rbl_discharges,
        );
        ledger.record(
            EnergyComponent::SramWrite,
            params.sram_write_energy_per_bit() * self.bits_written,
        );
        ledger.record(
            EnergyComponent::SramRead,
            params.rbl_energy_per_bit() * self.bits_read,
        );
        ledger
    }

    /// Energy attributable to redundant discharges alone.
    pub fn redundant_energy(&self, params: &TechnologyParams) -> Picojoules {
        params.rbl_energy_per_bit() * self.redundant_discharges
    }

    /// Exports the counters into `reg` under the `sram_` prefix.
    pub fn export(&self, reg: &mut sachi_obs::MetricsRegistry) {
        reg.counter_add("sram_rwl_activations", self.rwl_activations);
        reg.counter_add("sram_rbl_discharges", self.rbl_discharges);
        reg.counter_add("sram_redundant_discharges", self.redundant_discharges);
        reg.counter_add("sram_bits_written", self.bits_written);
        reg.counter_add("sram_bits_read", self.bits_read);
        reg.counter_add("sram_compute_accesses", self.compute_accesses);
    }

    /// Adds another tile's counters into this one.
    pub fn merge(&mut self, other: &TileStats) {
        self.rwl_activations += other.rwl_activations;
        self.rbl_discharges += other.rbl_discharges;
        self.redundant_discharges += other.redundant_discharges;
        self.bits_written += other.bits_written;
        self.bits_read += other.bits_read;
        self.compute_accesses += other.compute_accesses;
    }
}

/// A single SRAM tile of `rows x cols` logical bits.
///
/// The complementary bitcell of each stored bit (required for compute mode)
/// is modeled implicitly: a compute access books two word-line activations
/// and the capacity bookkeeping in [`crate::cache::CacheGeometry`] follows
/// the paper in quoting logical capacity.
///
/// ```
/// use sachi_mem::sram::SramTile;
///
/// let mut tile = SramTile::new(4, 8);
/// tile.write_row(0, &[true, false, true, false, true, false, true, false]).unwrap();
/// // Drive the row's RWL with J = 1 and sense only columns 0..2:
/// let out = tile.compute_xnor(0, true, 0..2).unwrap();
/// assert_eq!(out, vec![true, false]); // 1 XNOR 1 = 1, 0 XNOR 1 = 0
/// ```
#[derive(Debug, Clone)]
pub struct SramTile {
    rows: usize,
    cols: usize,
    banks: usize,
    words_per_row: usize,
    bits: Vec<u64>,
    stats: TileStats,
}

impl SramTile {
    /// Creates a zero-initialized single-bank tile.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self::with_params(TileParams::new(rows, cols))
    }

    /// Creates a zero-initialized tile from generator parameters. The bank
    /// count only widens the upload path's cycle accounting (see
    /// [`TileParams::upload_cycles`]); stored bits, compute kernels, and
    /// every [`TileStats`] counter are identical across bank counts.
    pub fn with_params(params: TileParams) -> Self {
        let words_per_row = params.cols.div_ceil(64);
        SramTile {
            rows: params.rows,
            cols: params.cols,
            banks: params.banks,
            words_per_row,
            bits: vec![0; params.rows * words_per_row],
            stats: TileStats::default(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (bits per row).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of write-port banks.
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// The tile's generator parameters.
    pub fn params(&self) -> TileParams {
        TileParams {
            rows: self.rows,
            cols: self.cols,
            banks: self.banks,
        }
    }

    /// The accumulated event counters.
    pub fn stats(&self) -> &TileStats {
        &self.stats
    }

    #[inline]
    fn check(&self, row: usize, col: usize) -> Result<(), AccessError> {
        if row >= self.rows {
            return Err(AccessError::new(format!("row {row} >= {}", self.rows)));
        }
        if col >= self.cols {
            return Err(AccessError::new(format!("col {col} >= {}", self.cols)));
        }
        Ok(())
    }

    #[inline]
    fn bit_unchecked(&self, row: usize, col: usize) -> bool {
        let word = self.bits[row * self.words_per_row + col / 64];
        (word >> (col % 64)) & 1 == 1
    }

    #[inline]
    fn set_bit_unchecked(&mut self, row: usize, col: usize, value: bool) {
        let word = &mut self.bits[row * self.words_per_row + col / 64];
        if value {
            *word |= 1 << (col % 64);
        } else {
            *word &= !(1 << (col % 64));
        }
    }

    /// Writes one bit through the write port.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] if `row`/`col` is out of bounds.
    pub fn write_bit(&mut self, row: usize, col: usize, value: bool) -> Result<(), AccessError> {
        self.check(row, col)?;
        self.set_bit_unchecked(row, col, value);
        self.stats.bits_written += 1;
        Ok(())
    }

    /// Writes a full row, starting at column 0.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] if `row` is out of bounds or `values` is wider
    /// than the row.
    pub fn write_row(&mut self, row: usize, values: &[bool]) -> Result<(), AccessError> {
        if values.len() > self.cols {
            return Err(AccessError::new(format!(
                "row write of {} bits > {} cols",
                values.len(),
                self.cols
            )));
        }
        self.check(row, 0)?;
        for (col, &v) in values.iter().enumerate() {
            self.set_bit_unchecked(row, col, v);
        }
        self.stats.bits_written += count_u64(values.len());
        Ok(())
    }

    /// Writes `values` into a row starting at `start_col`.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] on out-of-bounds.
    pub fn write_slice(
        &mut self,
        row: usize,
        start_col: usize,
        values: &[bool],
    ) -> Result<(), AccessError> {
        if start_col + values.len() > self.cols {
            return Err(AccessError::new(format!(
                "slice write [{start_col}, {}) > {} cols",
                start_col + values.len(),
                self.cols
            )));
        }
        self.check(row, start_col.min(self.cols.saturating_sub(1)))?;
        for (i, &v) in values.iter().enumerate() {
            self.set_bit_unchecked(row, start_col + i, v);
        }
        self.stats.bits_written += count_u64(values.len());
        Ok(())
    }

    /// Reads one bit in normal mode.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] if `row`/`col` is out of bounds.
    pub fn read_bit(&mut self, row: usize, col: usize) -> Result<bool, AccessError> {
        self.check(row, col)?;
        self.stats.bits_read += 1;
        Ok(self.bit_unchecked(row, col))
    }

    /// Peeks a bit without booking any access energy (testing/debug).
    pub fn peek(&self, row: usize, col: usize) -> Option<bool> {
        if row < self.rows && col < self.cols {
            Some(self.bit_unchecked(row, col))
        } else {
            None
        }
    }

    /// One Ising-compute-mode access: drives the RWL pair of `row` with
    /// `input` (and its complement), senses the columns in `sense`, and
    /// returns their XNOR values.
    ///
    /// Physics captured:
    ///
    /// * **every** column of the row discharges its RBL whenever
    ///   `stored XNOR input == 1` — whether or not it is sensed;
    /// * discharges outside `sense` are booked as redundant compute;
    /// * two word-lines pulse per access (true + complement row).
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] if `row` is out of bounds or `sense` exceeds
    /// the row width.
    pub fn compute_xnor(
        &mut self,
        row: usize,
        input: bool,
        sense: Range<usize>,
    ) -> Result<Vec<bool>, AccessError> {
        let cols = self.cols;
        self.compute_xnor_windowed(row, input, 0..cols, sense)
    }

    /// Compute access with an explicit *active window*: only columns inside
    /// `active` are precharged (columns that never hold live data are
    /// statically power-gated, a standard column-gating technique), so only
    /// they can discharge. `sense` selects which of the active columns are
    /// read out; active-but-unsensed columns that discharge are booked as
    /// redundant compute.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] if `row` is out of bounds, `active` exceeds
    /// the row width, or `sense` is not contained in `active`.
    pub fn compute_xnor_windowed(
        &mut self,
        row: usize,
        input: bool,
        active: Range<usize>,
        sense: Range<usize>,
    ) -> Result<Vec<bool>, AccessError> {
        if active.end > self.cols {
            return Err(AccessError::new(format!(
                "active range end {} > {} cols",
                active.end, self.cols
            )));
        }
        if !sense.is_empty() && (sense.start < active.start || sense.end > active.end) {
            return Err(AccessError::new(format!(
                "sense range {sense:?} outside active window {active:?}"
            )));
        }
        self.check(row, 0)?;
        self.stats.compute_accesses += 1;
        self.stats.rwl_activations += 2;

        // Word-level evaluation: XNOR(S, input) per 64-bit word, masked to
        // the active columns of the row.
        let base = row * self.words_per_row;
        let broadcast = if input { u64::MAX } else { 0 };
        let mut discharges = 0u64;
        let mut useful = 0u64;
        let mut out = Vec::with_capacity(sense.len());
        for w in 0..self.words_per_row {
            let word_start = w * 64;
            let valid_bits = (self.cols - word_start).min(64);
            // Active columns within this word.
            let alo = active.start.max(word_start);
            let ahi = active.end.min(word_start + valid_bits);
            if alo >= ahi {
                continue;
            }
            let span = ahi - alo;
            let amask = if span == 64 {
                u64::MAX
            } else {
                ((1u64 << span) - 1) << (alo - word_start)
            };
            let xnor = !(self.bits[base + w] ^ broadcast) & amask;
            discharges += u64::from(xnor.count_ones());
            // Sensed columns within this word.
            let lo = sense.start.max(word_start);
            let hi = sense.end.min(word_start + valid_bits);
            if lo < hi {
                let sensed = (xnor >> (lo - word_start))
                    & if hi - lo == 64 {
                        u64::MAX
                    } else {
                        (1u64 << (hi - lo)) - 1
                    };
                useful += u64::from(sensed.count_ones());
                for b in 0..(hi - lo) {
                    out.push((sensed >> b) & 1 == 1);
                }
            }
        }
        self.stats.rbl_discharges += discharges;
        self.stats.redundant_discharges += discharges - useful;
        Ok(out)
    }

    /// Packed-output compute access: identical physics and counter updates
    /// to [`SramTile::compute_xnor_windowed`] — one access, one RWL-pair
    /// pulse, the same discharge and redundancy accounting — but the sensed
    /// bits are written *row-aligned* into `out` (the sensed value of
    /// column `c` lands in bit `c % 64` of `out[c / 64]`) instead of
    /// allocating a `Vec<bool>`. The first `ceil(active.end / 64)` words
    /// of `out` are fully overwritten — every bit outside `sense` is zero
    /// — and words beyond that prefix are untouched. This is the
    /// zero-allocation kernel behind the designs' production SoA kernels.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] if `row` is out of bounds, `active` exceeds
    /// the row width, `sense` is not contained in `active`, or `out` is
    /// too narrow to cover `active`.
    pub fn compute_xnor_packed(
        &mut self,
        row: usize,
        input: bool,
        active: Range<usize>,
        sense: Range<usize>,
        out: &mut [u64],
    ) -> Result<(), AccessError> {
        if active.end > self.cols {
            return Err(AccessError::new(format!(
                "active range end {} > {} cols",
                active.end, self.cols
            )));
        }
        if !sense.is_empty() && (sense.start < active.start || sense.end > active.end) {
            return Err(AccessError::new(format!(
                "sense range {sense:?} outside active window {active:?}"
            )));
        }
        let out_words = active.end.div_ceil(64);
        if out.len() < out_words {
            return Err(AccessError::new(format!(
                "packed output of {} words < {out_words} words of active window",
                out.len()
            )));
        }
        self.check(row, 0)?;
        self.stats.compute_accesses += 1;
        self.stats.rwl_activations += 2;
        let base = row * self.words_per_row;
        let broadcast = if input { u64::MAX } else { 0 };
        let mut discharges = 0u64;
        let mut useful = 0u64;
        // Words fully inside both the active and sense windows need no
        // masking: their discharge count and sensed count are the same
        // popcount, so the chunked-lane kernel handles the whole inner run
        // and only the (at most four) window-edge words stay scalar.
        let full0 = active.start.max(sense.start).div_ceil(64);
        let full1 = (active.end / 64).min(sense.end / 64);
        let chunked = !sense.is_empty() && full0 < full1;
        if chunked {
            let stored = &self.bits[base + full0..base + full1];
            lanes::xnor_broadcast_into(stored, broadcast, &mut out[full0..full1]);
            let sensed_ones = lanes::popcount(&out[full0..full1]);
            discharges += sensed_ones;
            useful += sensed_ones;
        }
        for (w, slot) in out.iter_mut().enumerate().take(out_words) {
            if chunked && (full0..full1).contains(&w) {
                continue;
            }
            let word_start = w * 64;
            let valid_bits = (self.cols - word_start).min(64);
            let alo = active.start.max(word_start);
            let ahi = active.end.min(word_start + valid_bits);
            if alo >= ahi {
                *slot = 0;
                continue;
            }
            let span = ahi - alo;
            let amask = if span == 64 {
                u64::MAX
            } else {
                ((1u64 << span) - 1) << (alo - word_start)
            };
            let xnor = !(self.bits[base + w] ^ broadcast) & amask;
            discharges += u64::from(xnor.count_ones());
            let lo = sense.start.max(word_start);
            let hi = sense.end.min(word_start + valid_bits);
            if lo < hi {
                let sspan = hi - lo;
                let smask = if sspan == 64 {
                    u64::MAX
                } else {
                    ((1u64 << sspan) - 1) << (lo - word_start)
                };
                let sensed = xnor & smask;
                useful += u64::from(sensed.count_ones());
                *slot = sensed;
            } else {
                *slot = 0;
            }
        }
        self.stats.rbl_discharges += discharges;
        self.stats.redundant_discharges += discharges - useful;
        Ok(())
    }

    /// Word-parallel bit-plane compute: the zero-allocation equivalent of
    /// one [`SramTile::compute_xnor_bit`] call **per active column**, each
    /// driving that column's RWL pair with its own input bit taken from the
    /// row-aligned `plane` (column `c` reads bit `c % 64` of `plane[c /
    /// 64]`) and sensing exactly that column:
    ///
    /// ```text
    /// for col in active { compute_xnor_bit(row, plane_bit(col), active, col) }
    /// ```
    ///
    /// The counter updates are closed-form rather than per-call: a scalar
    /// call whose input bit is 1 discharges every stored 1 in the active
    /// window (`P` of them) and a call whose input bit is 0 discharges the
    /// remaining `A - P` columns, so the plane's `c1` one-bits contribute
    /// `c1·P + (A−c1)·(A−P)` total discharges; the sensed XNOR ones
    /// (`popcount(!(S ^ plane))` over the window) are useful and the rest
    /// redundant; `A` compute accesses pulse `2·A` word-lines. The
    /// resulting [`TileStats`] delta is bit-identical to the scalar loop
    /// (pinned by proptest).
    ///
    /// Outputs land row-aligned in the first `ceil(active.end / 64)` words
    /// of `out` (zero outside `active`); words beyond that prefix are
    /// untouched, and `plane` is read row-aligned over the same prefix.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] if `row` is out of bounds, `active` exceeds
    /// the row width, or `plane`/`out` are too narrow to cover `active`.
    pub fn compute_xnor_plane(
        &mut self,
        row: usize,
        plane: &[u64],
        active: Range<usize>,
        out: &mut [u64],
    ) -> Result<(), AccessError> {
        if active.end > self.cols {
            return Err(AccessError::new(format!(
                "active range end {} > {} cols",
                active.end, self.cols
            )));
        }
        let span_words = active.end.div_ceil(64);
        if plane.len() < span_words || out.len() < span_words {
            return Err(AccessError::new(format!(
                "plane/out of {}/{} words < {span_words} words of active window",
                plane.len(),
                out.len()
            )));
        }
        self.check(row, 0)?;
        let accesses = count_u64(active.len());
        self.stats.compute_accesses += accesses;
        self.stats.rwl_activations += 2 * accesses;
        let base = row * self.words_per_row;
        let mut stored_ones = 0u64; // P: stored 1s inside the active window
        let mut input_ones = 0u64; // c1: plane 1s inside the active window
        let mut useful = 0u64;
        // Words fully covered by the active window (active.end <= cols
        // guarantees they also hold 64 valid bits) take the chunked-lane
        // kernel with no masking; at most two edge words stay scalar. The
        // chunked run computes the same words and popcounts as the masked
        // loop with a full-word mask — only the counter association
        // changes, and addition is associative.
        let full0 = active.start.div_ceil(64);
        let full1 = active.end / 64;
        let chunked = full0 < full1;
        if chunked {
            let stored = &self.bits[base + full0..base + full1];
            let drive = &plane[full0..full1];
            lanes::xnor_into(stored, drive, &mut out[full0..full1]);
            stored_ones += lanes::popcount(stored);
            input_ones += lanes::popcount(drive);
            useful += lanes::popcount(&out[full0..full1]);
        }
        for (w, slot) in out.iter_mut().enumerate().take(span_words) {
            if chunked && (full0..full1).contains(&w) {
                continue;
            }
            let word_start = w * 64;
            let valid_bits = (self.cols - word_start).min(64);
            let alo = active.start.max(word_start);
            let ahi = active.end.min(word_start + valid_bits);
            if alo >= ahi {
                *slot = 0;
                continue;
            }
            let span = ahi - alo;
            let amask = if span == 64 {
                u64::MAX
            } else {
                ((1u64 << span) - 1) << (alo - word_start)
            };
            let stored = self.bits[base + w];
            let xnor = !(stored ^ plane[w]) & amask;
            stored_ones += u64::from((stored & amask).count_ones());
            input_ones += u64::from((plane[w] & amask).count_ones());
            useful += u64::from(xnor.count_ones());
            *slot = xnor;
        }
        let discharges =
            input_ones * stored_ones + (accesses - input_ones) * (accesses - stored_ones);
        self.stats.rbl_discharges += discharges;
        self.stats.redundant_discharges += discharges - useful;
        Ok(())
    }

    /// Batched per-row compute: row `start_row + k` (for `k < n`) is
    /// driven by bit `k` of the row-aligned `drive` words and its sensed
    /// window lands packed in `out[k]`. Identical physics and counter
    /// updates to one [`SramTile::compute_xnor_packed`] call per row —
    /// the per-row discharge, redundancy, access, and word-line sums are
    /// computed in the same order and merely accumulated across rows.
    /// The batch exists so the IC-stationary kernel pays the bounds
    /// checks once per *tuple* instead of once per *neighbor*.
    ///
    /// Restricted to single-word rows (`active.end <= 64`), which is the
    /// IC-stationary shape (R ≤ 32 columns); the sensed value of column
    /// `c` lands in bit `c` of `out[k]`, zero outside `sense`.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] if the row span exceeds the tile, `active`
    /// exceeds the row width or one word, `sense` is not contained in
    /// `active`, or `drive`/`out` are too narrow for `n` rows.
    pub fn compute_xnor_row_batch(
        &mut self,
        start_row: usize,
        n: usize,
        drive: &[u64],
        active: Range<usize>,
        sense: Range<usize>,
        out: &mut [u64],
    ) -> Result<(), AccessError> {
        if active.end > self.cols || active.end > 64 {
            return Err(AccessError::new(format!(
                "active range end {} > min({} cols, one word)",
                active.end, self.cols
            )));
        }
        if !sense.is_empty() && (sense.start < active.start || sense.end > active.end) {
            return Err(AccessError::new(format!(
                "sense range {sense:?} outside active window {active:?}"
            )));
        }
        if start_row + n > self.rows {
            return Err(AccessError::new(format!(
                "row batch [{start_row}, {}) > {} rows",
                start_row + n,
                self.rows
            )));
        }
        if drive.len() * 64 < n || out.len() < n {
            return Err(AccessError::new(format!(
                "drive/out of {}/{} entries < {n} rows",
                drive.len() * 64,
                out.len()
            )));
        }
        let span = active.len();
        let amask = if span == 0 {
            0
        } else if span == 64 {
            u64::MAX
        } else {
            ((1u64 << span) - 1) << active.start
        };
        let sspan = sense.len();
        let smask = if sspan == 0 {
            0
        } else if sspan == 64 {
            u64::MAX
        } else {
            ((1u64 << sspan) - 1) << sense.start
        };
        let mut discharges = 0u64;
        let mut useful = 0u64;
        for (k, slot) in out.iter_mut().enumerate().take(n) {
            let stored = self.bits[(start_row + k) * self.words_per_row];
            let broadcast = if (drive[k / 64] >> (k % 64)) & 1 == 1 {
                u64::MAX
            } else {
                0
            };
            let xnor = !(stored ^ broadcast) & amask;
            discharges += u64::from(xnor.count_ones());
            let sensed = xnor & smask;
            useful += u64::from(sensed.count_ones());
            *slot = sensed;
        }
        self.stats.compute_accesses += count_u64(n);
        self.stats.rwl_activations += 2 * count_u64(n);
        self.stats.rbl_discharges += discharges;
        self.stats.redundant_discharges += discharges - useful;
        Ok(())
    }

    /// Batched packed write port: the low `width` bits of `words[k]` land
    /// in row `start_row + k` at `[start_col, start_col + width)`.
    /// Identical cell updates and `bits_written` accounting to one
    /// [`SramTile::write_bits_from_word`] call per row; like
    /// [`SramTile::compute_xnor_row_batch`], it hoists validation out of
    /// the per-neighbor loop and requires the span to sit in one word
    /// (`start_col % 64 + width <= 64`).
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] if the span crosses a word boundary or the
    /// row/column span is out of bounds.
    pub fn write_rows_from_words(
        &mut self,
        start_row: usize,
        start_col: usize,
        width: usize,
        words: &[u64],
    ) -> Result<(), AccessError> {
        let off = start_col % 64;
        if off + width > 64 {
            return Err(AccessError::new(format!(
                "batched write [{start_col}, {}) crosses a word boundary",
                start_col + width
            )));
        }
        if start_col + width > self.cols {
            return Err(AccessError::new(format!(
                "batched write [{start_col}, {}) > {} cols",
                start_col + width,
                self.cols
            )));
        }
        if start_row + words.len() > self.rows {
            return Err(AccessError::new(format!(
                "row batch [{start_row}, {}) > {} rows",
                start_row + words.len(),
                self.rows
            )));
        }
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let word_index = start_col / 64;
        for (k, &val) in words.iter().enumerate() {
            let slot = &mut self.bits[(start_row + k) * self.words_per_row + word_index];
            *slot = (*slot & !(mask << off)) | ((val & mask) << off);
        }
        self.stats.bits_written += count_u64(width) * count_u64(words.len());
        Ok(())
    }

    /// Packed write port: writes the low `width` bits of `word` (LSB lands
    /// in `start_col`) through the write port. Identical cell updates and
    /// `bits_written` accounting to [`SramTile::write_slice`] with the
    /// equivalent `&[bool]` slice, without materializing it.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] if `width > 64` or the span is out of
    /// bounds.
    pub fn write_bits_from_word(
        &mut self,
        row: usize,
        start_col: usize,
        width: usize,
        word: u64,
    ) -> Result<(), AccessError> {
        if width > 64 {
            return Err(AccessError::new(format!("packed write width {width} > 64")));
        }
        if start_col + width > self.cols {
            return Err(AccessError::new(format!(
                "packed write [{start_col}, {}) > {} cols",
                start_col + width,
                self.cols
            )));
        }
        self.check(row, 0)?;
        let base = row * self.words_per_row;
        let mut remaining = width;
        let mut col = start_col;
        let mut val = word;
        while remaining > 0 {
            let off = col % 64;
            let take = remaining.min(64 - off);
            let mask = if take == 64 {
                u64::MAX
            } else {
                (1u64 << take) - 1
            };
            let slot = &mut self.bits[base + col / 64];
            *slot = (*slot & !(mask << off)) | ((val & mask) << off);
            val = if take == 64 { 0 } else { val >> take };
            col += take;
            remaining -= take;
        }
        self.stats.bits_written += count_u64(width);
        Ok(())
    }

    /// Packed full-row write: stores `width` bits taken LSB-first from
    /// `words` starting at column 0. Identical cell updates and
    /// `bits_written` accounting to [`SramTile::write_row`] with the
    /// unpacked slice — cells beyond `width` are untouched.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] if `row` is out of bounds or `width` exceeds
    /// the row or `words`.
    pub fn write_row_words(
        &mut self,
        row: usize,
        words: &[u64],
        width: usize,
    ) -> Result<(), AccessError> {
        if width > self.cols {
            return Err(AccessError::new(format!(
                "row write of {width} bits > {} cols",
                self.cols
            )));
        }
        if width > words.len() * 64 {
            return Err(AccessError::new(format!(
                "row write of {width} bits > {} packed words",
                words.len()
            )));
        }
        self.check(row, 0)?;
        let base = row * self.words_per_row;
        let full = width / 64;
        self.bits[base..base + full].copy_from_slice(&words[..full]);
        let rem = width % 64;
        if rem > 0 {
            let mask = (1u64 << rem) - 1;
            let slot = &mut self.bits[base + full];
            *slot = (*slot & !mask) | (words[full] & mask);
        }
        self.stats.bits_written += count_u64(width);
        Ok(())
    }

    /// Single-column compute access within an active window (the SACHI(n1)
    /// designs sense exactly one bit-line per cycle while the whole active
    /// row discharges). Equivalent to [`SramTile::compute_xnor_windowed`]
    /// with a one-column sense range, without the output allocation.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] if bounds are violated or `col` lies outside
    /// `active`.
    pub fn compute_xnor_bit(
        &mut self,
        row: usize,
        input: bool,
        active: Range<usize>,
        col: usize,
    ) -> Result<bool, AccessError> {
        if active.end > self.cols {
            return Err(AccessError::new(format!(
                "active range end {} > {} cols",
                active.end, self.cols
            )));
        }
        if !active.contains(&col) {
            return Err(AccessError::new(format!(
                "sensed col {col} outside active window {active:?}"
            )));
        }
        self.check(row, col)?;
        self.stats.compute_accesses += 1;
        self.stats.rwl_activations += 2;
        let base = row * self.words_per_row;
        let broadcast = if input { u64::MAX } else { 0 };
        let mut discharges = 0u64;
        for w in 0..self.words_per_row {
            let word_start = w * 64;
            let valid_bits = (self.cols - word_start).min(64);
            let alo = active.start.max(word_start);
            let ahi = active.end.min(word_start + valid_bits);
            if alo >= ahi {
                continue;
            }
            let span = ahi - alo;
            let amask = if span == 64 {
                u64::MAX
            } else {
                ((1u64 << span) - 1) << (alo - word_start)
            };
            discharges += u64::from((!(self.bits[base + w] ^ broadcast) & amask).count_ones());
        }
        let result = self.bit_unchecked(row, col) == input;
        self.stats.rbl_discharges += discharges;
        self.stats.redundant_discharges += discharges - u64::from(result);
        Ok(result)
    }

    /// Compute access that senses the *entire* row (SACHI(n3): "`σ_i` is
    /// shared across a complete row with no requirement of bit-line
    /// select").
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] if `row` is out of bounds.
    pub fn compute_xnor_full_row(
        &mut self,
        row: usize,
        input: bool,
    ) -> Result<Vec<bool>, AccessError> {
        self.compute_xnor(row, input, 0..self.cols)
    }
}

/// Gathers `len` (≤ 64) bits starting at bit `start` from a packed
/// LSB-first word slice, as produced by the packed compute kernels: bit
/// `start + i` of the slice lands in bit `i` of the result. This is the
/// shift/add decode primitive the production kernels use in place of
/// `Vec<bool>` round-trips.
///
/// # Panics
///
/// Panics if `len > 64` or the span exceeds `words.len() * 64`.
#[must_use]
pub fn gather_bits(words: &[u64], start: usize, len: usize) -> u64 {
    assert!(len <= 64, "gather width {len} > 64");
    assert!(
        start
            .checked_add(len)
            .is_some_and(|e| e <= words.len() * 64),
        "gather span [{start}, {start}+{len}) out of range for {} words",
        words.len()
    );
    if len == 0 {
        return 0;
    }
    let off = start % 64;
    let mut val = words[start / 64] >> off;
    let got = 64 - off;
    if got < len {
        val |= words[start / 64 + 1] << got;
    }
    if len == 64 {
        val
    } else {
        val & ((1u64 << len) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile_with_pattern() -> SramTile {
        let mut t = SramTile::new(3, 6);
        t.write_row(0, &[true, false, true, true, false, false])
            .unwrap();
        t.write_row(1, &[false, false, false, false, false, false])
            .unwrap();
        t.write_row(2, &[true, true, true, true, true, true])
            .unwrap();
        t
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut t = tile_with_pattern();
        assert!(t.read_bit(0, 0).unwrap());
        assert!(!t.read_bit(0, 1).unwrap());
        let row: Vec<bool> = (0..6).map(|c| t.read_bit(0, c).unwrap()).collect();
        assert_eq!(row, vec![true, false, true, true, false, false]);
    }

    #[test]
    fn xnor_against_one_is_identity() {
        let mut t = tile_with_pattern();
        let out = t.compute_xnor(0, true, 0..6).unwrap();
        assert_eq!(out, vec![true, false, true, true, false, false]);
    }

    #[test]
    fn xnor_against_zero_is_complement() {
        let mut t = tile_with_pattern();
        let out = t.compute_xnor(0, false, 0..6).unwrap();
        assert_eq!(out, vec![false, true, false, false, true, true]);
    }

    #[test]
    fn discharge_counts_match_xnor_ones() {
        let mut t = tile_with_pattern();
        // Row 2 all ones, input 1 -> every column discharges.
        t.compute_xnor(2, true, 0..6).unwrap();
        assert_eq!(t.stats().rbl_discharges, 6);
        assert_eq!(t.stats().redundant_discharges, 0);
        assert_eq!(t.stats().rwl_activations, 2);
        assert_eq!(t.stats().compute_accesses, 1);
    }

    #[test]
    fn unsensed_columns_are_redundant_discharges() {
        let mut t = tile_with_pattern();
        // Row 2 all ones, input 1, but only column 0 sensed: 5 redundant.
        let out = t.compute_xnor(2, true, 0..1).unwrap();
        assert_eq!(out, vec![true]);
        assert_eq!(t.stats().rbl_discharges, 6);
        assert_eq!(t.stats().redundant_discharges, 5);
    }

    #[test]
    fn no_discharge_when_xnor_zero() {
        let mut t = tile_with_pattern();
        // Row 1 all zeros, input 1 -> XNOR 0 everywhere, RBL retains.
        t.compute_xnor(1, true, 0..6).unwrap();
        assert_eq!(t.stats().rbl_discharges, 0);
        assert_eq!(t.stats().redundant_discharges, 0);
    }

    #[test]
    fn full_row_compute_has_no_redundancy() {
        let mut t = tile_with_pattern();
        t.compute_xnor_full_row(0, false).unwrap();
        assert_eq!(t.stats().redundant_discharges, 0);
        // Row 0 has three 0 bits; XNOR with 0 -> three discharges.
        assert_eq!(t.stats().rbl_discharges, 3);
    }

    #[test]
    fn energy_ledger_prices_counters() {
        let params = TechnologyParams::default();
        let mut t = tile_with_pattern();
        t.compute_xnor_full_row(2, true).unwrap();
        let ledger = t.stats().energy(&params);
        // 2 RWL activations * 0.05 pJ + 6 discharges * 0.035 pJ + 18 writes * 0.05 pJ.
        let expected = 2.0 * 0.05 + 6.0 * 0.035 + 18.0 * 0.05;
        assert!(
            (ledger.total().get() - expected).abs() < 1e-9,
            "{}",
            ledger.total()
        );
        assert!((t.stats().redundant_energy(&params).get() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut t = SramTile::new(2, 4);
        assert!(t.write_bit(2, 0, true).is_err());
        assert!(t.write_bit(0, 4, true).is_err());
        assert!(t.read_bit(0, 9).is_err());
        assert!(t.compute_xnor(0, true, 0..5).is_err());
        assert!(t.compute_xnor(5, true, 0..1).is_err());
        assert!(t.write_row(0, &[true; 5]).is_err());
        assert!(t.write_slice(0, 2, &[true; 3]).is_err());
        let err = t.write_bit(2, 0, true).unwrap_err();
        assert!(format!("{err}").contains("out of bounds"));
    }

    #[test]
    fn write_slice_places_bits() {
        let mut t = SramTile::new(1, 8);
        t.write_slice(0, 3, &[true, true]).unwrap();
        assert_eq!(t.peek(0, 2), Some(false));
        assert_eq!(t.peek(0, 3), Some(true));
        assert_eq!(t.peek(0, 4), Some(true));
        assert_eq!(t.peek(0, 5), Some(false));
        assert_eq!(t.peek(0, 8), None);
        assert_eq!(t.peek(1, 0), None);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = tile_with_pattern();
        a.compute_xnor_full_row(0, true).unwrap();
        let mut s = TileStats::default();
        s.merge(a.stats());
        s.merge(a.stats());
        assert_eq!(s.rwl_activations, 4);
    }

    #[test]
    fn compute_xnor_bit_matches_range_variant() {
        let mut a = tile_with_pattern();
        let mut b = tile_with_pattern();
        for col in 0..6 {
            let single = a.compute_xnor_bit(0, true, 0..6, col).unwrap();
            let ranged = b
                .compute_xnor_windowed(0, true, 0..6, col..col + 1)
                .unwrap();
            assert_eq!(vec![single], ranged, "col {col}");
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.compute_xnor_bit(0, true, 0..6, 6).is_err());
        assert!(a.compute_xnor_bit(0, true, 0..2, 4).is_err());
    }

    #[test]
    fn active_window_gates_discharges() {
        let mut t = tile_with_pattern();
        // Row 2 is all ones; with input 1 every *active* column discharges.
        t.compute_xnor_windowed(2, true, 0..3, 0..3).unwrap();
        assert_eq!(t.stats().rbl_discharges, 3);
        assert_eq!(t.stats().redundant_discharges, 0);
        // Active beyond sensed: the excess is redundant.
        let mut u = tile_with_pattern();
        u.compute_xnor_windowed(2, true, 0..5, 1..2).unwrap();
        assert_eq!(u.stats().rbl_discharges, 5);
        assert_eq!(u.stats().redundant_discharges, 4);
        // Sense outside active is rejected.
        assert!(u.compute_xnor_windowed(2, true, 0..3, 2..5).is_err());
        assert!(u.compute_xnor_windowed(2, true, 0..9, 0..1).is_err());
    }

    fn unpack(words: &[u64], range: Range<usize>) -> Vec<bool> {
        range
            .map(|c| (words[c / 64] >> (c % 64)) & 1 == 1)
            .collect()
    }

    #[test]
    fn packed_write_matches_write_slice() {
        let mut a = SramTile::new(2, 130);
        let mut b = SramTile::new(2, 130);
        // Span columns 60..104: crosses the word 0 / word 1 boundary.
        let word = 0x0f5a_a5f0_1234u64 & ((1u64 << 44) - 1);
        let bits: Vec<bool> = (0..44).map(|i| (word >> i) & 1 == 1).collect();
        a.write_bits_from_word(1, 60, 44, word).unwrap();
        b.write_slice(1, 60, &bits).unwrap();
        for col in 0..130 {
            assert_eq!(a.peek(1, col), b.peek(1, col), "col {col}");
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.write_bits_from_word(0, 100, 44, 0).is_err());
        assert!(a.write_bits_from_word(0, 0, 65, 0).is_err());
        assert!(a.write_bits_from_word(2, 0, 4, 0).is_err());
    }

    #[test]
    fn write_row_words_matches_write_row() {
        let mut a = SramTile::new(1, 130);
        let mut b = SramTile::new(1, 130);
        let words = [u64::MAX, 0x5555_5555_5555_5555, 0x3];
        let width = 100;
        let bits: Vec<bool> = (0..width)
            .map(|c| (words[c / 64] >> (c % 64)) & 1 == 1)
            .collect();
        a.write_row_words(0, &words, width).unwrap();
        b.write_row(0, &bits).unwrap();
        for col in 0..130 {
            assert_eq!(a.peek(0, col), b.peek(0, col), "col {col}");
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.write_row_words(0, &words, 131).is_err());
        assert!(a.write_row_words(0, &words[..1], 80).is_err());
        assert!(a.write_row_words(1, &words, 10).is_err());
    }

    #[test]
    fn packed_compute_matches_windowed() {
        let mut a = tile_with_pattern();
        let mut b = tile_with_pattern();
        let mut out = [0u64; 1];
        a.compute_xnor_packed(0, true, 0..6, 1..4, &mut out)
            .unwrap();
        let want = b.compute_xnor_windowed(0, true, 0..6, 1..4).unwrap();
        assert_eq!(unpack(&out, 1..4), want);
        // Bits outside the sense window stay zero.
        assert_eq!(out[0] & !0b1110, 0);
        assert_eq!(a.stats(), b.stats());
        assert!(a
            .compute_xnor_packed(0, true, 0..9, 0..1, &mut out)
            .is_err());
        assert!(a
            .compute_xnor_packed(0, true, 0..3, 2..5, &mut out)
            .is_err());
        assert!(a.compute_xnor_packed(0, true, 0..6, 0..6, &mut []).is_err());
    }

    #[test]
    fn row_batch_compute_matches_per_row_packed() {
        let mut batch = SramTile::new(5, 12);
        let mut scalar = SramTile::new(5, 12);
        for row in 0..5 {
            let word = (0xa5u64 >> row) ^ (row as u64 * 0x13);
            batch.write_bits_from_word(row, 0, 12, word).unwrap();
            scalar.write_bits_from_word(row, 0, 12, word).unwrap();
        }
        // Drive bits 0b10110: rows 1, 2, 4 driven high.
        let drive = [0b10110u64];
        let mut out = [0u64; 5];
        batch
            .compute_xnor_row_batch(0, 5, &drive, 0..12, 0..8, &mut out)
            .unwrap();
        let mut want = [0u64; 1];
        for (row, &got) in out.iter().enumerate() {
            scalar
                .compute_xnor_packed(row, (drive[0] >> row) & 1 == 1, 0..12, 0..8, &mut want)
                .unwrap();
            assert_eq!(got, want[0], "row {row}");
        }
        assert_eq!(batch.stats(), scalar.stats());
        // Empty batch touches nothing.
        let before = *batch.stats();
        batch
            .compute_xnor_row_batch(0, 0, &drive, 0..12, 0..8, &mut out)
            .unwrap();
        assert_eq!(*batch.stats(), before);
        assert!(batch
            .compute_xnor_row_batch(0, 6, &drive, 0..12, 0..8, &mut out)
            .is_err());
        assert!(batch
            .compute_xnor_row_batch(0, 5, &drive, 0..13, 0..8, &mut out)
            .is_err());
        assert!(batch
            .compute_xnor_row_batch(0, 5, &drive, 0..12, 4..13, &mut out)
            .is_err());
        assert!(batch
            .compute_xnor_row_batch(0, 5, &drive, 0..12, 0..8, &mut out[..4])
            .is_err());
        assert!(SramTile::new(2, 80)
            .compute_xnor_row_batch(0, 2, &drive, 0..80, 0..8, &mut out)
            .is_err());
    }

    #[test]
    fn batched_row_writes_match_per_row_packed_writes() {
        let mut batch = SramTile::new(4, 70);
        let mut scalar = SramTile::new(4, 70);
        let words = [u64::MAX, 0x5a5a, 0, 0x0123_4567_89ab_cdef];
        batch.write_rows_from_words(0, 3, 9, &words).unwrap();
        for (row, &w) in words.iter().enumerate() {
            scalar.write_bits_from_word(row, 3, 9, w).unwrap();
        }
        for row in 0..4 {
            for col in 0..70 {
                assert_eq!(batch.peek(row, col), scalar.peek(row, col), "{row},{col}");
            }
        }
        assert_eq!(batch.stats(), scalar.stats());
        // Word-boundary crossings and out-of-range spans are rejected.
        assert!(batch.write_rows_from_words(0, 60, 9, &words).is_err());
        assert!(batch.write_rows_from_words(0, 66, 9, &words).is_err());
        assert!(batch.write_rows_from_words(1, 0, 9, &words).is_err());
    }

    #[test]
    fn plane_compute_matches_scalar_bit_loop() {
        let mut fast = tile_with_pattern();
        let mut slow = tile_with_pattern();
        let plane = [0b101101u64];
        let mut out = [0u64; 1];
        fast.compute_xnor_plane(0, &plane, 0..6, &mut out).unwrap();
        for col in 0..6 {
            let got = slow
                .compute_xnor_bit(0, (plane[0] >> col) & 1 == 1, 0..6, col)
                .unwrap();
            assert_eq!((out[0] >> col) & 1 == 1, got, "col {col}");
        }
        assert_eq!(fast.stats(), slow.stats());
        // Empty active window: no accesses, no counters, zeroed output.
        let before = *fast.stats();
        fast.compute_xnor_plane(0, &plane, 3..3, &mut out).unwrap();
        assert_eq!(*fast.stats(), before);
        assert_eq!(out[0], 0);
        assert!(fast.compute_xnor_plane(0, &plane, 0..9, &mut out).is_err());
        assert!(fast.compute_xnor_plane(9, &plane, 0..6, &mut out).is_err());
        assert!(fast.compute_xnor_plane(0, &[], 0..6, &mut out).is_err());
    }

    #[test]
    fn gather_bits_crosses_word_boundaries() {
        let words = [0xffff_0000_ffff_0000u64, 0x0000_ffff_0000_ffffu64];
        assert_eq!(gather_bits(&words, 0, 16), 0);
        assert_eq!(gather_bits(&words, 16, 16), 0xffff);
        assert_eq!(gather_bits(&words, 56, 16), 0xff_ff);
        assert_eq!(gather_bits(&words, 64, 64), words[1]);
        assert_eq!(gather_bits(&words, 0, 0), 0);
        assert_eq!(gather_bits(&words, 60, 8), 0xff);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gather_bits_rejects_overrun() {
        let _ = gather_bits(&[0u64], 60, 8);
    }

    #[test]
    fn wide_rows_cross_word_boundaries() {
        let mut t = SramTile::new(2, 130);
        t.write_bit(1, 129, true).unwrap();
        t.write_bit(1, 63, true).unwrap();
        t.write_bit(1, 64, true).unwrap();
        assert!(t.read_bit(1, 129).unwrap());
        assert!(t.read_bit(1, 63).unwrap());
        assert!(t.read_bit(1, 64).unwrap());
        assert!(!t.read_bit(1, 128).unwrap());
        let out = t.compute_xnor(1, true, 128..130).unwrap();
        assert_eq!(out, vec![false, true]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A naive reference model: a plain bit matrix with the same
    /// semantics, including discharge counting.
    struct Reference {
        bits: Vec<Vec<bool>>,
    }

    impl Reference {
        fn new(rows: usize, cols: usize) -> Self {
            Reference {
                bits: vec![vec![false; cols]; rows],
            }
        }

        fn xnor(
            &self,
            row: usize,
            input: bool,
            active: std::ops::Range<usize>,
            sense: std::ops::Range<usize>,
        ) -> (Vec<bool>, u64, u64) {
            let mut discharges = 0;
            let mut useful = 0;
            let mut out = Vec::new();
            for col in active.clone() {
                let x = self.bits[row][col] == input;
                if x {
                    discharges += 1;
                }
                if sense.contains(&col) {
                    out.push(x);
                    if x {
                        useful += 1;
                    }
                }
            }
            (out, discharges, discharges - useful)
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        WriteBit {
            row: usize,
            col: usize,
            value: bool,
        },
        WriteSlice {
            row: usize,
            start: usize,
            values: Vec<bool>,
        },
        Xnor {
            row: usize,
            input: bool,
            active_start: usize,
            active_len: usize,
            sense_off: usize,
            sense_len: usize,
        },
    }

    fn op_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..rows, 0..cols, any::<bool>()).prop_map(|(row, col, value)| Op::WriteBit {
                row,
                col,
                value
            }),
            (0..rows, 0..cols, prop::collection::vec(any::<bool>(), 1..8)).prop_map(
                move |(row, start, values)| {
                    let start = start.min(cols - 1);
                    let len = values.len().min(cols - start);
                    Op::WriteSlice {
                        row,
                        start,
                        values: values[..len].to_vec(),
                    }
                }
            ),
            (0..rows, any::<bool>(), 0..cols, 1..cols, 0..cols, 1..cols).prop_map(
                move |(row, input, a_start, a_len, s_off, s_len)| Op::Xnor {
                    row,
                    input,
                    active_start: a_start,
                    active_len: a_len,
                    sense_off: s_off,
                    sense_len: s_len,
                }
            ),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Under arbitrary interleavings of writes and windowed compute
        /// accesses, the word-level tile matches the naive bit-matrix
        /// model: outputs, discharge counts, and redundancy counts.
        #[test]
        fn tile_matches_reference_model(ops in prop::collection::vec(op_strategy(6, 150), 1..40)) {
            let (rows, cols) = (6usize, 150usize);
            let mut tile = SramTile::new(rows, cols);
            let mut reference = Reference::new(rows, cols);
            for op in ops {
                match op {
                    Op::WriteBit { row, col, value } => {
                        tile.write_bit(row, col, value).unwrap();
                        reference.bits[row][col] = value;
                    }
                    Op::WriteSlice { row, start, values } => {
                        tile.write_slice(row, start, &values).unwrap();
                        for (i, &v) in values.iter().enumerate() {
                            reference.bits[row][start + i] = v;
                        }
                    }
                    Op::Xnor { row, input, active_start, active_len, sense_off, sense_len } => {
                        let a_start = active_start.min(cols - 1);
                        let a_end = (a_start + active_len).min(cols);
                        let s_start = (a_start + sense_off).min(a_end);
                        let s_end = (s_start + sense_len).min(a_end);
                        let before = *tile.stats();
                        let got = tile
                            .compute_xnor_windowed(row, input, a_start..a_end, s_start..s_end)
                            .unwrap();
                        let after = *tile.stats();
                        let (want, discharges, redundant) =
                            reference.xnor(row, input, a_start..a_end, s_start..s_end);
                        prop_assert_eq!(got, want);
                        prop_assert_eq!(after.rbl_discharges - before.rbl_discharges, discharges);
                        prop_assert_eq!(
                            after.redundant_discharges - before.redundant_discharges,
                            redundant
                        );
                        prop_assert_eq!(after.rwl_activations - before.rwl_activations, 2);
                    }
                }
            }
        }

        /// `compute_xnor_plane` is bit-identical — packed outputs and
        /// `TileStats` deltas — to the per-column `compute_xnor_bit` loop
        /// it replaces (the closed-form counter contract of the SoA kernels).
        #[test]
        fn plane_kernel_matches_scalar_bit_loop(
            stored in prop::collection::vec(any::<bool>(), 1..150),
            plane in prop::collection::vec(any::<u64>(), 3..4),
            a_start in 0usize..150,
            a_len in 0usize..150,
        ) {
            let cols = stored.len();
            let mut fast = SramTile::new(1, cols);
            let mut slow = SramTile::new(1, cols);
            fast.write_row(0, &stored).unwrap();
            slow.write_row(0, &stored).unwrap();
            let a_start = a_start.min(cols);
            let a_end = (a_start + a_len).min(cols);
            let mut out = [0u64; 3];
            fast.compute_xnor_plane(0, &plane, a_start..a_end, &mut out).unwrap();
            for col in a_start..a_end {
                let bit = (plane[col / 64] >> (col % 64)) & 1 == 1;
                let want = slow.compute_xnor_bit(0, bit, a_start..a_end, col).unwrap();
                prop_assert_eq!((out[col / 64] >> (col % 64)) & 1 == 1, want);
            }
            prop_assert_eq!(fast.stats(), slow.stats());
            // Output bits outside the active window are zero.
            for col in (0..a_start).chain(a_end..cols.div_ceil(64) * 64) {
                prop_assert_eq!((out[col / 64] >> (col % 64)) & 1, 0);
            }
        }

        /// `compute_xnor_packed` matches `compute_xnor_windowed` bit for
        /// bit, counters included.
        #[test]
        fn packed_kernel_matches_windowed(
            stored in prop::collection::vec(any::<bool>(), 1..150),
            input in any::<bool>(),
            a_start in 0usize..150,
            a_len in 0usize..150,
            s_off in 0usize..150,
            s_len in 0usize..150,
        ) {
            let cols = stored.len();
            let mut fast = SramTile::new(1, cols);
            let mut slow = SramTile::new(1, cols);
            fast.write_row(0, &stored).unwrap();
            slow.write_row(0, &stored).unwrap();
            let a_start = a_start.min(cols);
            let a_end = (a_start + a_len).min(cols);
            let s_start = (a_start + s_off).min(a_end);
            let s_end = (s_start + s_len).min(a_end);
            let mut out = [0u64; 3];
            fast.compute_xnor_packed(0, input, a_start..a_end, s_start..s_end, &mut out).unwrap();
            let want = slow.compute_xnor_windowed(0, input, a_start..a_end, s_start..s_end).unwrap();
            let got: Vec<bool> = (s_start..s_end)
                .map(|c| (out[c / 64] >> (c % 64)) & 1 == 1)
                .collect();
            prop_assert_eq!(got, want);
            prop_assert_eq!(fast.stats(), slow.stats());
            for col in (0..s_start).chain(s_end..cols.div_ceil(64) * 64) {
                prop_assert_eq!((out[col / 64] >> (col % 64)) & 1, 0);
            }
        }

        /// The packed write ports place the same cells and book the same
        /// `bits_written` as their `&[bool]` equivalents.
        #[test]
        fn packed_writes_match_bool_writes(
            word in any::<u64>(),
            start in 0usize..150,
            width in 0usize..=64,
            row_words in prop::collection::vec(any::<u64>(), 3..4),
            row_width in 0usize..150,
        ) {
            let cols = 150;
            let mut a = SramTile::new(2, cols);
            let mut b = SramTile::new(2, cols);
            let start = start.min(cols - 1);
            let width = width.min(cols - start);
            let bits: Vec<bool> = (0..width).map(|i| (word >> i) & 1 == 1).collect();
            a.write_bits_from_word(0, start, width, word).unwrap();
            b.write_slice(0, start, &bits).unwrap();
            let row_bits: Vec<bool> = (0..row_width)
                .map(|c| (row_words[c / 64] >> (c % 64)) & 1 == 1)
                .collect();
            a.write_row_words(1, &row_words, row_width).unwrap();
            b.write_row(1, &row_bits).unwrap();
            for row in 0..2 {
                for col in 0..cols {
                    prop_assert_eq!(a.peek(row, col), b.peek(row, col));
                }
            }
            prop_assert_eq!(a.stats(), b.stats());
        }
    }
}
