//! Normal-mode L1 cache model and the compute/normal mode switch
//! (Sec. VII.1 and VII.3).
//!
//! SACHI repurposes the L1 *when needed*; the rest of the time it is an
//! ordinary cache. The paper claims conventional workloads are unaffected
//! because (i) the 8T array is unmodified, (ii) the only added logic on
//! the read path is a 2:1 mux absorbed by retiming, and (iii) the
//! near-memory compute periphery is a separate datapath. It also states
//! the cache "operates in a single mode at a time", switched by
//! programming a special-purpose register.
//!
//! [`L1Cache`] makes those claims checkable: a set-associative LRU cache
//! with hit/miss simulation, a [`CacheMode`] register, mode exclusion
//! (normal accesses are rejected in compute mode and vice versa), and a
//! flush-on-switch cost — the *real* price of repurposing, which the
//! `disc_conventional` harness measures. No solve runs it: what the
//! compute array does during a solve is the machine's `l1_` counters
//! (`RunReport::round_loads`, `RunReport::fill_bits`).

use sachi_mem::units::convert::{count_u64, ratio_u64, to_index};
use sachi_mem::units::Cycles;
use std::fmt;

/// The special-purpose-register mode of the repurposed L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheMode {
    /// Ordinary cache operation.
    Normal,
    /// Ising compute operation (the tile array belongs to SACHI).
    IsingCompute,
}

impl fmt::Display for CacheMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheMode::Normal => write!(f, "normal"),
            CacheMode::IsingCompute => write!(f, "ising-compute"),
        }
    }
}

/// Outcome of a normal-mode access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Tag match.
    Hit,
    /// Miss; the line was filled (and possibly evicted another).
    Miss {
        /// Whether a valid line was evicted to make room.
        evicted: bool,
    },
}

/// Error for accesses made in the wrong mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WrongModeError {
    /// The mode the cache was in.
    pub mode: CacheMode,
}

impl fmt::Display for WrongModeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "access rejected: cache is in {} mode", self.mode)
    }
}

impl std::error::Error for WrongModeError {}

/// Hit/miss statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Normal-mode hits.
    pub hits: u64,
    /// Normal-mode misses.
    pub misses: u64,
    /// Lines evicted by fills.
    pub evictions: u64,
    /// Mode switches performed.
    pub mode_switches: u64,
    /// Lines flushed by mode switches.
    pub lines_flushed: u64,
    /// Accesses rejected for being in the wrong mode.
    pub rejected: u64,
}

impl CacheStats {
    /// Hit rate over normal-mode accesses.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        ratio_u64(self.hits, total)
    }
}

/// A set-associative, LRU, write-allocate L1 cache model with the SACHI
/// mode register.
///
/// ```
/// use sachi_bench::reference::l1cache::{Access, CacheMode, L1Cache};
///
/// let mut l1 = L1Cache::new(1024, 2, 64);
/// assert!(matches!(l1.read(0x40).unwrap(), Access::Miss { .. }));
/// assert_eq!(l1.read(0x44).unwrap(), Access::Hit); // same line
/// l1.set_mode(CacheMode::IsingCompute);            // SACHI takes the array
/// assert!(l1.read(0x40).is_err());                 // single mode at a time
/// ```
#[derive(Debug, Clone)]
pub struct L1Cache {
    sets: usize,
    ways: usize,
    line_bytes: usize,
    /// `tags[set][way]`: Some(tag) if valid.
    tags: Vec<Vec<Option<u64>>>,
    /// LRU stamps, larger = more recent.
    stamps: Vec<Vec<u64>>,
    clock: u64,
    mode: CacheMode,
    stats: CacheStats,
}

impl L1Cache {
    /// Creates a cache of `capacity_bytes` with the given associativity
    /// and line size.
    ///
    /// # Panics
    ///
    /// Panics unless `capacity_bytes` divides evenly into `ways` sets of
    /// power-of-two lines.
    pub fn new(capacity_bytes: usize, ways: usize, line_bytes: usize) -> Self {
        assert!(
            ways > 0 && line_bytes > 0,
            "ways and line size must be non-zero"
        );
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let lines = capacity_bytes.checked_div(line_bytes).unwrap_or(0);
        assert!(
            lines > 0 && lines.is_multiple_of(ways),
            "capacity must hold a whole number of sets"
        );
        let sets = lines.checked_div(ways).unwrap_or(0);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        L1Cache {
            sets,
            ways,
            line_bytes,
            tags: vec![vec![None; ways]; sets],
            stamps: vec![vec![0; ways]; sets],
            clock: 0,
            mode: CacheMode::Normal,
            stats: CacheStats::default(),
        }
    }

    /// The paper's default 64KB / 4-way / 64B L1.
    pub fn typical_l1() -> Self {
        L1Cache::new(64 * 1024, 4, 64)
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Current mode.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Normal-mode read latency in cycles. The added 2:1 compute-mode mux
    /// is retimed into the existing periphery (Sec. VII.1), so the
    /// latency is the same with or without SACHI: 1 cycle.
    pub fn read_latency(&self) -> Cycles {
        Cycles::new(1)
    }

    /// Splits `addr` into its set and tag. [`L1Cache::new`] asserts a
    /// non-zero line size and set count, so no division falls back.
    fn index(&self, addr: u64) -> (usize, u64) {
        let sets = count_u64(self.sets);
        let line = addr.checked_div(count_u64(self.line_bytes)).unwrap_or(0);
        let set = line.checked_rem(sets).unwrap_or(0);
        (to_index(set), line.checked_div(sets).unwrap_or(0))
    }

    /// Programs the mode register. Entering compute mode flushes the
    /// cache (SACHI owns the array); returning to normal mode starts
    /// cold. Returns the number of lines flushed.
    pub fn set_mode(&mut self, mode: CacheMode) -> u64 {
        if mode == self.mode {
            return 0;
        }
        self.stats.mode_switches += 1;
        let mut flushed = 0;
        for set in &mut self.tags {
            for way in set.iter_mut() {
                if way.take().is_some() {
                    flushed += 1;
                }
            }
        }
        self.stats.lines_flushed += flushed;
        self.mode = mode;
        flushed
    }

    /// Normal-mode read of `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`WrongModeError`] in compute mode.
    pub fn read(&mut self, addr: u64) -> Result<Access, WrongModeError> {
        self.access(addr)
    }

    /// Normal-mode write of `addr` (write-allocate; hit/miss behaviour
    /// identical to reads for this model).
    ///
    /// # Errors
    ///
    /// Returns [`WrongModeError`] in compute mode.
    pub fn write(&mut self, addr: u64) -> Result<Access, WrongModeError> {
        self.access(addr)
    }

    fn access(&mut self, addr: u64) -> Result<Access, WrongModeError> {
        if self.mode != CacheMode::Normal {
            self.stats.rejected += 1;
            return Err(WrongModeError { mode: self.mode });
        }
        self.clock += 1;
        let (set, tag) = self.index(addr);
        // Hit? One bounds-checked slice scan; tags are unique per set, so
        // the first match is the only match.
        if let Some(way) = self.tags[set].iter().position(|&t| t == Some(tag)) {
            self.stamps[set][way] = self.clock;
            self.stats.hits += 1;
            return Ok(Access::Hit);
        }
        // Miss: fill into an invalid way, else evict LRU.
        self.stats.misses += 1;
        let victim = (0..self.ways)
            .find(|&w| self.tags[set][w].is_none())
            .unwrap_or_else(|| {
                (0..self.ways)
                    .min_by_key(|&w| self.stamps[set][w])
                    .expect("ways > 0")
            });
        let evicted = self.tags[set][victim].is_some();
        if evicted {
            self.stats.evictions += 1;
        }
        self.tags[set][victim] = Some(tag);
        self.stamps[set][victim] = self.clock;
        Ok(Access::Miss { evicted })
    }

    /// Runs an address trace, returning `(hits, misses)`.
    ///
    /// # Errors
    ///
    /// Returns [`WrongModeError`] in compute mode.
    pub fn run_trace(
        &mut self,
        addrs: impl IntoIterator<Item = u64>,
    ) -> Result<(u64, u64), WrongModeError> {
        let (mut hits, mut misses) = (0, 0);
        for addr in addrs {
            match self.read(addr)? {
                Access::Hit => hits += 1,
                Access::Miss { .. } => misses += 1,
            }
        }
        Ok((hits, misses))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill_same_line() {
        let mut l1 = L1Cache::new(1024, 2, 64);
        assert_eq!(l1.read(100).unwrap(), Access::Miss { evicted: false });
        assert_eq!(l1.read(101).unwrap(), Access::Hit);
        assert_eq!(l1.read(163).unwrap(), Access::Miss { evicted: false }); // next line
        assert_eq!(l1.stats().hits, 1);
        assert_eq!(l1.stats().misses, 2);
        assert!((l1.stats().hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2-way, 64B lines, 2 sets (256 B total). Lines mapping to set 0:
        // addresses 0, 128, 256, ...
        let mut l1 = L1Cache::new(256, 2, 64);
        l1.read(0).unwrap(); // A
        l1.read(128).unwrap(); // B
        l1.read(0).unwrap(); // touch A (B becomes LRU)
        assert_eq!(l1.read(256).unwrap(), Access::Miss { evicted: true }); // evicts B
        assert_eq!(l1.read(0).unwrap(), Access::Hit); // A survived
        assert_eq!(l1.read(128).unwrap(), Access::Miss { evicted: true }); // B gone
    }

    #[test]
    fn mode_exclusion_and_flush() {
        let mut l1 = L1Cache::new(1024, 2, 64);
        l1.read(0).unwrap();
        l1.read(64).unwrap();
        let flushed = l1.set_mode(CacheMode::IsingCompute);
        assert_eq!(flushed, 2);
        assert_eq!(l1.mode(), CacheMode::IsingCompute);
        let err = l1.read(0).unwrap_err();
        assert_eq!(err.mode, CacheMode::IsingCompute);
        assert!(format!("{err}").contains("ising-compute"));
        assert_eq!(l1.stats().rejected, 1);
        // Switching back: cold cache.
        assert_eq!(l1.set_mode(CacheMode::Normal), 0);
        assert_eq!(l1.read(0).unwrap(), Access::Miss { evicted: false });
        assert_eq!(l1.stats().mode_switches, 2);
        // No-op switch costs nothing.
        assert_eq!(l1.set_mode(CacheMode::Normal), 0);
        assert_eq!(l1.stats().mode_switches, 2);
    }

    #[test]
    fn sequential_trace_hit_rate_matches_line_size() {
        // Sequential word reads: one miss per 64B line, 15 hits.
        let mut l1 = L1Cache::typical_l1();
        let (hits, misses) = l1.run_trace((0..4096u64).map(|i| i * 4)).unwrap();
        assert_eq!(misses, 4096 * 4 / 64);
        assert_eq!(hits, 4096 - misses);
    }

    #[test]
    fn read_latency_is_one_cycle_in_normal_mode() {
        let l1 = L1Cache::typical_l1();
        assert_eq!(l1.read_latency(), Cycles::new(1));
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut l1 = L1Cache::new(1024, 2, 64); // 16 lines
                                                // Cycle through 32 distinct lines twice: all misses.
        let trace: Vec<u64> = (0..64u64).map(|i| (i % 32) * 64).collect();
        let (hits, misses) = l1.run_trace(trace).unwrap();
        assert_eq!(hits, 0);
        assert_eq!(misses, 64);
        assert!(l1.stats().evictions > 0);
    }

    #[test]
    #[should_panic(expected = "whole number of sets")]
    fn bad_geometry_rejected() {
        let _ = L1Cache::new(100, 3, 64);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Reference LRU model: per-set vectors of tags ordered by recency.
    struct RefCache {
        sets: usize,
        ways: usize,
        line: u64,
        lru: BTreeMap<usize, Vec<u64>>, // most-recent last
    }

    impl RefCache {
        fn access(&mut self, addr: u64) -> bool {
            let line = addr / self.line;
            let set = (line % self.sets as u64) as usize;
            let tag = line / self.sets as u64;
            let entry = self.lru.entry(set).or_default();
            if let Some(pos) = entry.iter().position(|&t| t == tag) {
                entry.remove(pos);
                entry.push(tag);
                true
            } else {
                if entry.len() == self.ways {
                    entry.remove(0);
                }
                entry.push(tag);
                false
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The set-associative LRU cache matches a reference recency-list
        /// model hit-for-hit under arbitrary address streams.
        #[test]
        fn l1_matches_reference_lru(addrs in prop::collection::vec(0u64..4096, 1..300)) {
            let mut cache = L1Cache::new(512, 2, 32); // 8 sets x 2 ways x 32B
            let mut reference = RefCache { sets: 8, ways: 2, line: 32, lru: BTreeMap::new() };
            for addr in addrs {
                let got = matches!(cache.read(addr).unwrap(), Access::Hit);
                let want = reference.access(addr);
                prop_assert_eq!(got, want, "divergence at address {}", addr);
            }
        }

        /// Mode switches at arbitrary points never corrupt subsequent
        /// normal-mode behaviour: after a switch the cache behaves like a
        /// fresh one.
        #[test]
        fn mode_switch_resets_to_cold(warm in prop::collection::vec(0u64..4096, 0..100),
                                      probe in prop::collection::vec(0u64..4096, 1..50)) {
            let mut switched = L1Cache::new(512, 2, 32);
            for a in &warm {
                switched.read(*a).unwrap();
            }
            switched.set_mode(CacheMode::IsingCompute);
            switched.set_mode(CacheMode::Normal);
            let mut fresh = L1Cache::new(512, 2, 32);
            for a in &probe {
                let s = matches!(switched.read(*a).unwrap(), Access::Hit);
                let f = matches!(fresh.read(*a).unwrap(), Access::Hit);
                prop_assert_eq!(s, f);
            }
        }
    }
}
