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
//! [`BitcellTile`] models the array at the bit level: a compute access
//! returns exactly the discharge pattern the silicon would produce, and
//! the [`TileStats`] counters distinguish *useful* discharges (columns
//! whose bit-line select was enabled and sensed) from *redundant*
//! discharges (columns that discharged anyway because they share the
//! activated word-line). Redundant discharge is the energy-waste
//! mechanism of Fig. 5c that motivates SACHI's reuse-aware designs.
//!
//! The machine's [`sachi_mem::sram::SramTile`] stores no bits: its kernel
//! books the same counters in closed form, and this tile is the datapath
//! they are proven against.

use sachi_mem::sram::TileStats;
use sachi_mem::units::convert::count_u64;
use std::fmt;
use std::ops::Range;

/// Error returned by [`BitcellTile`] operations on out-of-bounds accesses.
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

/// A single SRAM tile of `rows x cols` logical bits.
///
/// The complementary bitcell of each stored bit (required for compute mode)
/// is modeled implicitly: a compute access books two word-line activations
/// and the capacity bookkeeping in [`sachi_mem::cache::CacheGeometry`]
/// follows the paper in quoting logical capacity.
///
/// ```
/// use sachi_bench::reference::bitcell::BitcellTile;
///
/// let mut tile = BitcellTile::new(4, 8);
/// tile.write_row(0, &[true, false, true, false, true, false, true, false]).unwrap();
/// // Drive the row's RWL with J = 1 and sense only columns 0..2:
/// let out = tile.compute_xnor(0, true, 0..2).unwrap();
/// assert_eq!(out, vec![true, false]); // 1 XNOR 1 = 1, 0 XNOR 1 = 0
/// ```
#[derive(Debug, Clone)]
pub struct BitcellTile {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    bits: Vec<u64>,
    stats: TileStats,
}

impl BitcellTile {
    /// Creates a zero-initialized tile.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "tile must have non-zero dimensions");
        let words_per_row = cols.div_ceil(64);
        BitcellTile {
            rows,
            cols,
            words_per_row,
            bits: vec![0; rows * words_per_row],
            stats: TileStats::default(),
        }
    }

    /// Number of columns (bits per row).
    pub fn cols(&self) -> usize {
        self.cols
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
        self.write_slice(row, 0, values)
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

    /// Single-column compute access within an active window (the SACHI(n1)
    /// designs sense exactly one bit-line per cycle while the whole active
    /// row discharges). Equivalent to [`BitcellTile::compute_xnor_windowed`]
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
