//! DRAM controller with the prefetcher of Sec. IV.A.
//!
//! CIM accesses have structured, predictable address patterns: the compute
//! array is consumed top-to-bottom, one row per cycle. SACHI's DRAM
//! controller counts the rows not yet computed and issues the next
//! round's prefetch once the count drops to the DRAM→storage +
//! storage→compute movement latency, so the next round's data arrives
//! exactly when the current round drains: the load hides behind the
//! round's compute, and only a load longer than the round shows on the
//! critical path. The round plan in `sachi-core` prices that overlap;
//! the controller keeps its statistics
//! ([`DramController::record_round`]).

use crate::fault::FaultInjector;
use crate::units::{Bits, Cycles};

/// Cumulative controller statistics, snapshot for metrics export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DramStats {
    /// Number of `load` calls.
    pub loads: u64,
    /// Total bits streamed from DRAM.
    pub bits_loaded: u64,
    /// Prefetches issued (rounds whose next-round load overlapped).
    pub prefetches_issued: u64,
    /// Stream cycles fully hidden behind compute by the prefetcher.
    pub prefetch_hidden_cycles: u64,
    /// Stream cycles exposed on the critical path despite prefetching
    /// (the load outlasted the round it overlapped).
    pub prefetch_exposed_cycles: u64,
    /// Prefetches that arrived late: the streamed payload outlasted the
    /// compute round it was meant to hide behind.
    pub prefetch_late_arrivals: u64,
}

impl DramStats {
    /// Exports the counters into `reg` under the `dram_` prefix.
    pub fn export(&self, reg: &mut sachi_obs::MetricsRegistry) {
        reg.counter_add("dram_loads", self.loads);
        reg.counter_add("dram_bits_loaded", self.bits_loaded);
        reg.counter_add("dram_prefetches_issued", self.prefetches_issued);
        reg.counter_add("dram_prefetch_hidden_cycles", self.prefetch_hidden_cycles);
        reg.counter_add("dram_prefetch_exposed_cycles", self.prefetch_exposed_cycles);
        reg.counter_add("dram_prefetch_late_arrivals", self.prefetch_late_arrivals);
    }

    /// Adds another controller's counters into this one.
    pub fn merge(&mut self, other: &DramStats) {
        self.loads += other.loads;
        self.bits_loaded += other.bits_loaded;
        self.prefetches_issued += other.prefetches_issued;
        self.prefetch_hidden_cycles += other.prefetch_hidden_cycles;
        self.prefetch_exposed_cycles += other.prefetch_exposed_cycles;
        self.prefetch_late_arrivals += other.prefetch_late_arrivals;
    }
}

/// Behavioural DRAM + controller model.
#[derive(Debug, Clone)]
pub struct DramController {
    prefetch_enabled: bool,
    /// Cumulative statistics.
    stats: DramStats,
}

impl DramController {
    /// Creates a controller, with the prefetcher on (the paper's design)
    /// or off (ablation `abl_prefetch`).
    pub fn new(prefetch: bool) -> Self {
        DramController {
            prefetch_enabled: prefetch,
            stats: DramStats::default(),
        }
    }

    /// Counts one load of `payload` bits. With an injector the stream
    /// also draws per-bit corruption (an inert model draws nothing); the
    /// corrupted bit count is returned. The round plan in `sachi-core`
    /// prices the stream's cycles and energy.
    pub fn load(&mut self, payload: Bits, inj: Option<&mut FaultInjector>) -> u64 {
        self.stats.loads += 1;
        self.stats.bits_loaded += payload.get();
        inj.map_or(0, |inj| inj.flips_in_dram_stream(payload.get()))
    }

    /// Books the prefetch statistics of a compute round of `compute`
    /// cycles that overlaps a load of `load` cycles: with the prefetcher,
    /// the load hides behind compute and only the excess (if the load is
    /// longer than the round) is exposed. Without it nothing overlaps and
    /// nothing is booked.
    pub fn record_round(&mut self, compute: Cycles, load: Cycles) {
        if load > Cycles::ZERO && self.prefetch_enabled {
            self.stats.prefetches_issued += 1;
            if load <= compute {
                // Fully hidden: the whole stream rode under the round.
                self.stats.prefetch_hidden_cycles += load.get();
            } else {
                // Late arrival: compute's worth hid, the rest is exposed.
                self.stats.prefetch_hidden_cycles += compute.get();
                self.stats.prefetch_exposed_cycles += load.saturating_sub(compute).get();
                self.stats.prefetch_late_arrivals += 1;
            }
        }
    }

    /// Snapshot of the cumulative controller statistics.
    pub fn stats(&self) -> DramStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_counts_stats() {
        let mut ctrl = DramController::new(true);
        assert_eq!(ctrl.load(Bits::from_bytes(128), None), 0);
        assert_eq!(ctrl.stats().loads, 1);
        assert_eq!(ctrl.stats().bits_loaded, Bits::from_bytes(128).get());
    }

    #[test]
    fn prefetch_stats_split_hidden_and_exposed_load() {
        let mut with = DramController::new(true);
        let mut without = DramController::new(false);
        with.record_round(Cycles::new(100), Cycles::new(30));
        without.record_round(Cycles::new(100), Cycles::new(30));
        assert_eq!(with.stats().prefetches_issued, 1);
        assert_eq!(with.stats().prefetch_hidden_cycles, 30);
        // A load longer than the round exposes only the excess.
        with.record_round(Cycles::new(10), Cycles::new(40));
        let stats = with.stats();
        assert_eq!(stats.prefetch_hidden_cycles, 40);
        assert_eq!(stats.prefetch_exposed_cycles, 30);
        assert_eq!(stats.prefetch_late_arrivals, 1);
        assert_eq!(without.stats(), DramStats::default());
    }

    #[test]
    fn faulted_load_keeps_clean_accounting_and_counts_corruption() {
        use crate::fault::{FaultModel, FaultRate};
        let mut clean = DramController::new(true);
        let mut faulted = DramController::new(true);

        // Inert model: identical in every respect, no draws.
        let mut inert = FaultModel::new(4).injector(0);
        let state = inert.stream_state();
        clean.load(Bits::from_bytes(128), None);
        let corrupted = faulted.load(Bits::from_bytes(128), Some(&mut inert));
        assert_eq!(corrupted, 0);
        assert_eq!(inert.stream_state(), state);
        assert_eq!(faulted.stats(), clean.stats());

        // Certainty DRAM BER corrupts every streamed bit.
        let model = FaultModel::new(4).with_dram_ber(FaultRate::from_ppb(1_000_000_000));
        let mut inj = model.injector(0);
        let corrupted = faulted.load(Bits::new(100), Some(&mut inj));
        assert_eq!(corrupted, 100);
        assert_eq!(inj.counters().dram_flips, 100);
    }
}
