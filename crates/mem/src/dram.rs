//! DRAM controller with the prefetcher of Sec. IV.A.
//!
//! CIM accesses have structured, predictable address patterns: the compute
//! array is consumed top-to-bottom, one row per cycle. SACHI's DRAM
//! controller counts the rows not yet computed and issues the next
//! round's prefetch once the count drops to the DRAM→storage +
//! storage→compute movement latency, so the next round's data arrives
//! exactly when the current round drains. The model books that outcome
//! in closed form per round ([`DramController::effective_round_cycles`]):
//! the load hides behind the round's compute, and only a load longer than
//! the round shows on the critical path.

use crate::energy::{EnergyComponent, EnergyLedger};
use crate::fault::FaultInjector;
use crate::params::TechnologyParams;
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
    params: TechnologyParams,
    prefetch_enabled: bool,
    /// Cumulative statistics.
    stats: DramStats,
}

impl DramController {
    /// Creates a controller with prefetching enabled (the paper's design).
    pub fn new(params: TechnologyParams) -> Self {
        DramController {
            params,
            prefetch_enabled: true,
            stats: DramStats::default(),
        }
    }

    /// Disables the prefetcher (ablation `abl_prefetch`).
    pub fn without_prefetch(mut self) -> Self {
        self.prefetch_enabled = false;
        self
    }

    /// Whether prefetching is enabled.
    pub fn prefetch_enabled(&self) -> bool {
        self.prefetch_enabled
    }

    /// Technology parameters in use.
    pub fn params(&self) -> &TechnologyParams {
        &self.params
    }

    /// Cycles to stream `payload` from DRAM over the 64 B/cycle bus.
    pub fn stream_cycles(&self, payload: Bits) -> Cycles {
        self.params.dram_stream_cycles(payload.to_bytes_ceil())
    }

    /// Books one load of `payload` bits and returns the cycles it occupies
    /// on the bus. Call [`DramController::effective_round_cycles`] to decide
    /// how much of that shows up on the critical path.
    pub fn load(&mut self, payload: Bits, ledger: &mut EnergyLedger) -> Cycles {
        self.stats.loads += 1;
        self.stats.bits_loaded += payload.get();
        ledger.record(
            EnergyComponent::DramAccess,
            self.params.movement_energy_per_bit() * payload.get(),
        );
        // Controller bookkeeping: one counter update per streamed beat,
        // priced as an adder op per 64-byte beat.
        let beats = self.stream_cycles(payload).get();
        ledger.record(
            EnergyComponent::DramController,
            self.params.adder_energy_per_bit() * beats,
        );
        self.stream_cycles(payload)
    }

    /// [`DramController::load`] through a [`FaultInjector`]: cycle and
    /// energy accounting are identical to a clean load (corrupted beats
    /// still occupy the bus and burn the same energy); the injector
    /// additionally draws per-bit stream corruption and the corrupted
    /// bit count is returned alongside the cycles. With an inert model
    /// this is bit-identical to `load` and consumes no RNG draws.
    pub fn load_with_faults(
        &mut self,
        payload: Bits,
        ledger: &mut EnergyLedger,
        inj: &mut FaultInjector,
    ) -> (Cycles, u64) {
        let cycles = self.load(payload, ledger);
        let corrupted = inj.flips_in_dram_stream(payload.get());
        (cycles, corrupted)
    }

    /// Critical-path cycles of a compute round of `compute` cycles whose
    /// *next* round needs `load` cycles of DRAM streaming.
    ///
    /// With the prefetcher, the load overlaps compute and only the excess
    /// (if the load is longer than the round) is exposed. Without it, the
    /// full load serializes after the round.
    pub fn effective_round_cycles(&mut self, compute: Cycles, load: Cycles) -> Cycles {
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
        if self.prefetch_enabled {
            compute.max(load)
        } else {
            compute + load
        }
    }

    /// Number of `load` calls so far.
    pub fn loads(&self) -> u64 {
        self.stats.loads
    }

    /// Total bits loaded so far.
    pub fn bits_loaded(&self) -> Bits {
        Bits::new(self.stats.bits_loaded)
    }

    /// Number of prefetches issued so far.
    pub fn prefetches_issued(&self) -> u64 {
        self.stats.prefetches_issued
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
    fn stream_cycles_uses_bus_width() {
        let ctrl = DramController::new(TechnologyParams::default());
        assert_eq!(ctrl.stream_cycles(Bits::from_bytes(64)), Cycles::new(1));
        assert_eq!(ctrl.stream_cycles(Bits::from_bytes(100)), Cycles::new(2));
    }

    #[test]
    fn load_books_energy_and_stats() {
        let mut ctrl = DramController::new(TechnologyParams::default());
        let mut ledger = EnergyLedger::new();
        let cycles = ctrl.load(Bits::from_bytes(128), &mut ledger);
        assert_eq!(cycles, Cycles::new(2));
        assert_eq!(ctrl.loads(), 1);
        assert_eq!(ctrl.bits_loaded(), Bits::from_bytes(128));
        // 1024 bits at 1 pJ/bit.
        assert!((ledger.component(EnergyComponent::DramAccess).get() - 1024.0).abs() < 1e-9);
        assert!(ledger.component(EnergyComponent::DramController).get() > 0.0);
    }

    #[test]
    fn prefetch_overlaps_load_with_compute() {
        let mut with = DramController::new(TechnologyParams::default());
        let mut without = DramController::new(TechnologyParams::default()).without_prefetch();
        let compute = Cycles::new(100);
        let load = Cycles::new(30);
        assert_eq!(with.effective_round_cycles(compute, load), Cycles::new(100));
        assert_eq!(
            without.effective_round_cycles(compute, load),
            Cycles::new(130)
        );
        assert_eq!(with.prefetches_issued(), 1);
        assert_eq!(without.prefetches_issued(), 0);
        // A load longer than the round exposes only the excess... i.e. max.
        assert_eq!(
            with.effective_round_cycles(Cycles::new(10), Cycles::new(40)),
            Cycles::new(40)
        );
    }

    #[test]
    fn faulted_load_keeps_clean_accounting_and_counts_corruption() {
        use crate::fault::{FaultModel, FaultRate};
        let mut clean = DramController::new(TechnologyParams::default());
        let mut faulted = DramController::new(TechnologyParams::default());
        let mut clean_ledger = EnergyLedger::new();
        let mut faulted_ledger = EnergyLedger::new();

        // Inert model: identical in every respect, no draws.
        let mut inert = FaultModel::new(4).injector(0);
        let state = inert.stream_state();
        let want = clean.load(Bits::from_bytes(128), &mut clean_ledger);
        let (got, corrupted) =
            faulted.load_with_faults(Bits::from_bytes(128), &mut faulted_ledger, &mut inert);
        assert_eq!(got, want);
        assert_eq!(corrupted, 0);
        assert_eq!(inert.stream_state(), state);
        assert_eq!(faulted.loads(), clean.loads());
        assert!((faulted_ledger.total().get() - clean_ledger.total().get()).abs() < 1e-12);

        // Certainty DRAM BER corrupts every streamed bit; cycles unchanged.
        let model = FaultModel::new(4).with_dram_ber(FaultRate::from_ppb(1_000_000_000));
        let mut inj = model.injector(0);
        let (cycles, corrupted) =
            faulted.load_with_faults(Bits::new(100), &mut faulted_ledger, &mut inj);
        assert_eq!(cycles, faulted.stream_cycles(Bits::new(100)));
        assert_eq!(corrupted, 100);
        assert_eq!(inj.counters().dram_flips, 100);
    }
}
