//! The round plan: the one cost model of a sweep's compute-array rounds.
//!
//! A sweep streams its tuples through the compute array in *rounds*:
//! runs of consecutive tuples packed greedily by resident bits (at least
//! one per tuple) up to the array's capacity. A round computes
//! tile-parallel — SACHI(n1a) fills tiles blockwise (Fig. 17(iii)'s
//! imbalance), the others interleave — for its busiest tile's phase-1
//! cycles ([`tuple_cycles`]) plus one `idle + 3` pipeline fill at the
//! problem's largest degree. Loading it costs the storage→compute latency
//! plus `⌈rows/B⌉` for `B` banks, plus its DRAM stream when the problem
//! overflows the storage array and the Sec. IV.A prefetcher is off.
//! Sweep 0 loads every round, later sweeps only a multi-round problem.
//! Sweep 0's first round runs serialized; every other round overlaps
//! load and compute (`max`) with the prefetcher and adds them without.
//! The machine builds its plan from per-tuple degrees and bills each
//! round from it; `PerfModel` builds one from a uniform shape in O(1) —
//! as runs of identical rounds — and sums it.
//!
//! The plan also holds the energy price list: event counts times the
//! technology's per-event prices, booked at four events — the problem's
//! placement into DRAM, a round's load (billed exactly when its load
//! cycles are), compute, and a flip's Fig. 8b update. The machine feeds it
//! metered counts, `PerfModel` the shape's.

use crate::config::{DesignKind, SachiConfig};
use crate::designs::stationarity;
use crate::tuple::SpinTuple;
use sachi_mem::energy::EnergyComponent::{
    Annealer, DataMovement, DecisionLogic, DramAccess, DramController, NearMemoryAdd, RblDischarge,
    RwlDrive, SramRead, SramWrite,
};
use sachi_mem::energy::EnergyLedger;
use sachi_mem::sram::TileParams;
use sachi_mem::units::convert::{count_u64, to_index};
use sachi_mem::units::{Bits, Cycles};
use sachi_workloads::spec::WorkloadShape;
use std::ops::Range;

/// Phase-1 cycles `design`'s kernel books for a tuple of `n` neighbors
/// at resolution `r` on `row_bits`-wide rows: the design's closed form,
/// except that a tuple without neighbors computes nothing.
pub fn tuple_cycles(design: DesignKind, n: u64, r: u32, row_bits: u64) -> u64 {
    if n == 0 {
        return 0;
    }
    stationarity(design).phase1_cycles(n, r, row_bits)
}

/// Compute events of one or more sweeps, as the compute price reads them.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ComputeEvents {
    /// Read word-line activations.
    pub rwl_activations: u64,
    /// Read bit-line discharges (`PerfModel` books an expected count).
    pub rbl_discharges: f64,
    /// Bits fetched from the storage array onto the RWLs.
    pub fetched_bits: u64,
    /// Near-memory adder bit operations.
    pub adder_bit_ops: u64,
    /// XNOR-vs-XNOR+1 decisions.
    pub decisions: u64,
    /// Annealer decisions.
    pub annealer_decisions: u64,
}

/// One compute-array round and its price.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Round {
    /// Tuples the round computes.
    pub tuples: u64,
    /// Compute-array bits its tuples occupy.
    pub resident_bits: u64,
    /// Storage bits it streams when the problem lives in DRAM.
    pub storage_bits: u64,
    /// Compute cycles of the whole round.
    pub compute: Cycles,
    /// Load cycles when it reloads (zero if it holds no resident bits).
    pub load: Cycles,
}

/// The round partition of one sweep, priced (see the module docs).
#[derive(Debug, Clone)]
pub struct RoundPlan {
    /// Runs of identical rounds in sweep order: `(round, repeats)`.
    runs: Vec<(Round, u64)>,
    /// Rounds per sweep (at least 1).
    pub(crate) rounds_per_sweep: u64,
    /// Whether the problem overflows the storage array, so rounds stream
    /// from DRAM.
    pub(crate) uses_dram: bool,
    /// Tuple plus adjacency bits of the whole problem.
    pub(crate) storage_bits: u64,
    /// Cycles of the problem's initial placement into DRAM.
    pub(crate) placement: Cycles,
    /// The tile the machine books its kernel events on.
    pub(crate) tile_params: TileParams,
    tiles: u64,
    fill: u64,
    config: SachiConfig,
    /// Per-tuple phase-1 cycles of a degree-built plan.
    tuple_cycles: Vec<u64>,
}

impl RoundPlan {
    fn empty(config: &SachiConfig, r: u32, max_degree: u64, storage_bits: u64) -> Self {
        let design = stationarity(config.design);
        let compute = config.hierarchy.compute;
        let degree = max_degree.max(1);
        let (rows, cols) = design.tile_requirements(to_index(degree), r, compute.row_bits());
        let bytes = Bits::new(storage_bits).to_bytes_ceil();
        RoundPlan {
            runs: Vec::new(),
            rounds_per_sweep: 1,
            uses_dram: storage_bits > config.hierarchy.storage.total_bits().get(),
            storage_bits,
            placement: config.tech.dram_stream_cycles(bytes),
            tile_params: TileParams::new(rows, cols).with_banks(config.bank_count),
            tiles: count_u64(compute.tiles()).max(1),
            fill: design.idle_cycles(degree, r) + 3,
            config: config.clone(),
            tuple_cycles: Vec::new(),
        }
    }

    /// Appends `repeats` copies of `round` at `compute` cycles, pricing
    /// its load.
    fn push(&mut self, mut round: Round, compute: Cycles, repeats: u64) {
        let tech = &self.config.tech;
        if round.resident_bits > 0 {
            let rows = round.resident_bits.div_ceil(self.row_bits());
            let upload = Cycles::new(self.tile_params.upload_cycles(rows));
            round.load = tech.storage_to_compute_cycles() + upload;
            if self.uses_dram && !self.config.prefetch {
                let bytes = Bits::new(round.storage_bits).to_bytes_ceil();
                round.load += tech.dram_stream_cycles(bytes);
            }
        }
        round.compute = compute;
        self.runs.push((round, repeats));
    }

    fn row_bits(&self) -> u64 {
        count_u64(self.config.hierarchy.compute.row_bits())
    }

    /// Plans a problem whose tuples have the given degrees, in spin
    /// order, at resolution `r`.
    pub fn for_degrees(config: &SachiConfig, r: u32, degrees: &[u64]) -> Self {
        let storage = degrees.iter().map(|&n| SpinTuple::storage_bits(n, r) + n);
        let max_degree = degrees.iter().copied().max().unwrap_or(0);
        let mut plan = Self::empty(config, r, max_degree, storage.sum());
        let row_bits = plan.row_bits();
        plan.tuple_cycles = degrees
            .iter()
            .map(|&n| tuple_cycles(config.design, n, r, row_bits))
            .collect();
        let capacity = config.hierarchy.compute.total_bits().get();
        let (mut round, mut first, mut used) = (Round::default(), 0usize, 0u64);
        for (i, &n) in degrees.iter().enumerate() {
            let resident = stationarity(config.design).resident_bits_per_tuple(n, r);
            if round.tuples > 0 && used + resident.max(1) > capacity {
                let compute = plan.partial_compute(first..i, i - first);
                plan.push(std::mem::take(&mut round), compute, 1);
                (first, used) = (i, 0);
            }
            used += resident.max(1);
            round.tuples += 1;
            round.resident_bits += resident;
            round.storage_bits += SpinTuple::storage_bits(n, r);
        }
        let compute = plan.partial_compute(first..degrees.len(), degrees.len() - first);
        plan.push(round, compute, 1);
        plan.rounds_per_sweep = plan.per_sweep(|_, _| 1);
        plan
    }

    /// Plans a uniform shape in O(1): full rounds of the array's tuple
    /// capacity, then the remainder.
    pub fn uniform(config: &SachiConfig, shape: &WorkloadShape) -> Self {
        let (spins, n, r) = (shape.spins, shape.neighbors_per_spin, shape.resolution_bits);
        let tuple_storage = SpinTuple::storage_bits(n, r);
        let mut plan = Self::empty(config, r, n, spins * (tuple_storage + n));
        let per_tuple = tuple_cycles(config.design, n, r, plan.row_bits());
        let resident = stationarity(config.design).resident_bits_per_tuple(n, r);
        let bits = config.hierarchy.compute.total_bits().get();
        let capacity = bits.checked_div(resident.max(1)).unwrap_or(1).max(1);
        let full = spins.checked_div(capacity).unwrap_or(0);
        let remainder = spins.checked_rem(capacity).unwrap_or(0);
        for (tuples, repeats) in [(capacity, full), (remainder, 1)] {
            if tuples > 0 && repeats > 0 {
                let round = Round {
                    tuples,
                    resident_bits: tuples * resident,
                    storage_bits: tuples * tuple_storage,
                    ..Round::default()
                };
                let busiest = tuples.div_ceil(plan.tiles) * per_tuple;
                plan.push(round, Cycles::new(busiest + plan.fill), repeats);
            }
        }
        plan.rounds_per_sweep = plan.per_sweep(|_, _| 1).max(1);
        plan
    }

    /// Each round in sweep order with the spin range it computes.
    pub fn iter(&self) -> impl Iterator<Item = (Range<usize>, &Round)> + '_ {
        let rounds = self
            .runs
            .iter()
            .flat_map(|(round, k)| (0..*k).map(move |_| round));
        rounds.scan(0usize, |next, round| {
            let first = *next;
            *next += to_index(round.tuples);
            Some((first..*next, round))
        })
    }

    /// Load cycles `round` pays in sweep `sweep`: sweep 0 loads every
    /// round, later sweeps only a multi-round problem.
    pub fn load(&self, sweep: u64, round: &Round) -> Cycles {
        if sweep == 0 || self.rounds_per_sweep > 1 {
            round.load
        } else {
            Cycles::ZERO
        }
    }

    /// Whether round `index` of sweep `sweep` runs serialized: the first
    /// round of the solve has nothing to overlap with.
    pub fn serialized(&self, sweep: u64, index: usize) -> bool {
        sweep == 0 && index == 0
    }

    /// Critical-path cycles of round `index` of sweep `sweep`.
    pub fn critical_path(&self, sweep: u64, index: usize, compute: Cycles, load: Cycles) -> Cycles {
        if self.serialized(sweep, index) || !self.config.prefetch {
            compute + load
        } else {
            compute.max(load)
        }
    }

    /// Compute cycles of the round over `spins` when only its first
    /// `reached` tuples ran (all of them, or up to a fault abort): the
    /// busiest tile's cycles plus the fill.
    pub fn partial_compute(&self, spins: Range<usize>, reached: usize) -> Cycles {
        let len = count_u64(spins.len().max(1));
        let ran = spins.start..spins.start + reached.min(spins.len());
        let mut sums = vec![0u64; to_index(self.tiles)];
        let costs = self.tuple_cycles.get(ran).unwrap_or_default();
        for (pos, &cost) in (0u64..).zip(costs) {
            let tile = match self.config.design {
                DesignKind::N1a => (pos * self.tiles).checked_div(len),
                _ => pos.checked_rem(self.tiles),
            };
            if let Some(sum) = sums.get_mut(to_index(tile.unwrap_or(0))) {
                *sum += cost;
            }
        }
        Cycles::new(sums.into_iter().max().unwrap_or(0) + self.fill)
    }

    /// Sum of `f(index, round)` over one sweep's rounds. Only index 0 is
    /// special, so a run is priced by its first round and one more.
    pub fn per_sweep(&self, f: impl Fn(usize, &Round) -> u64) -> u64 {
        let (mut index, mut total) = (0usize, 0u64);
        for (round, repeats) in &self.runs {
            total += f(index, round) + f(index + 1, round) * repeats.saturating_sub(1);
            index += to_index(*repeats);
        }
        total
    }

    /// Compute cycles of one sweep.
    pub fn sweep_compute(&self) -> Cycles {
        Cycles::new(self.per_sweep(|_, round| round.compute.get()))
    }

    /// Load cycles of sweep `sweep`.
    pub fn sweep_load(&self, sweep: u64) -> Cycles {
        Cycles::new(self.per_sweep(|_, round| self.load(sweep, round).get()))
    }

    /// Critical-path cycles of sweep `sweep`.
    pub fn sweep_cycles(&self, sweep: u64) -> Cycles {
        Cycles::new(self.per_sweep(|index, round| {
            let load = self.load(sweep, round);
            self.critical_path(sweep, index, round.compute, load).get()
        }))
    }

    /// Critical-path cycles of a solve of `sweeps` sweeps (at least one):
    /// the DRAM placement, sweep 0, then the steady sweeps.
    pub fn solve_cycles(&self, sweeps: u64) -> Cycles {
        self.placement + self.sweep_cycles(0) + self.sweep_cycles(1) * (sweeps.max(1) - 1)
    }

    /// Books the placement of the whole problem into DRAM.
    pub fn bill_placement(&self, ledger: &mut EnergyLedger) {
        let movement = self.config.tech.movement_energy_per_bit();
        ledger.record(DramAccess, movement * self.storage_bits);
    }

    /// Books `round`'s load in sweep `sweep` if it pays one (see
    /// [`RoundPlan::load`]).
    pub fn bill_load(&self, ledger: &mut EnergyLedger, sweep: u64, round: &Round) {
        if self.load(sweep, round) > Cycles::ZERO {
            self.bill_loads(ledger, round, 1);
        }
    }

    /// Books every load of sweep `sweep`.
    pub(crate) fn bill_sweep_loads(&self, ledger: &mut EnergyLedger, sweep: u64) {
        for (round, repeats) in &self.runs {
            if self.load(sweep, round) > Cycles::ZERO {
                self.bill_loads(ledger, round, *repeats);
            }
        }
    }

    /// Books `times` loads of `round`: its resident bits moved and
    /// written, plus — when the problem lives in DRAM — its stream's
    /// access bits and one controller update, priced as an adder op, per
    /// 64-byte beat.
    fn bill_loads(&self, ledger: &mut EnergyLedger, round: &Round, times: u64) {
        let tech = &self.config.tech;
        self.bill_fill(ledger, round.resident_bits * times);
        if self.uses_dram {
            let bytes = Bits::new(round.storage_bits).to_bytes_ceil();
            let beats = tech.dram_stream_cycles(bytes).get() * times;
            let bits = round.storage_bits * times;
            ledger.record(DramAccess, tech.movement_energy_per_bit() * bits);
            ledger.record(DramController, tech.adder_energy_per_bit() * beats);
        }
    }

    /// Books `bits` moved from the storage array into the compute array
    /// and written there: a load's resident bits, or a tuple's fault
    /// refetch.
    pub fn bill_fill(&self, ledger: &mut EnergyLedger, bits: u64) {
        let tech = &self.config.tech;
        ledger.record(DataMovement, tech.movement_energy_per_bit() * bits);
        ledger.record(SramWrite, tech.sram_write_energy_per_bit() * bits);
    }

    /// Books compute `events`. Fetched bits the storage array cannot
    /// cache re-stream from DRAM.
    pub fn bill_compute(&self, ledger: &mut EnergyLedger, events: &ComputeEvents) {
        let tech = &self.config.tech;
        let (movement, adder) = (tech.movement_energy_per_bit(), tech.adder_energy_per_bit());
        ledger.record(RwlDrive, tech.rwl_energy_per_bit() * events.rwl_activations);
        ledger.record(
            RblDischarge,
            tech.rbl_energy_per_bit() * events.rbl_discharges,
        );
        ledger.record(DataMovement, movement * events.fetched_bits);
        if self.uses_dram {
            ledger.record(DramAccess, movement * events.fetched_bits);
        }
        ledger.record(NearMemoryAdd, adder * events.adder_bit_ops);
        ledger.record(DecisionLogic, adder * events.decisions);
        let annealer = tech.annealer_energy_per_decision();
        ledger.record(Annealer, annealer * events.annealer_decisions);
    }

    /// Books `flips` spin updates writing `copies` tuple copies between
    /// them (Fig. 8b): each copy read and written in the storage array,
    /// and one bit moved per flip.
    pub fn bill_flips(&self, ledger: &mut EnergyLedger, flips: u64, copies: u64) {
        let tech = &self.config.tech;
        ledger.record(SramRead, tech.rbl_energy_per_bit() * copies);
        ledger.record(SramWrite, tech.sram_write_energy_per_bit() * copies);
        ledger.record(DataMovement, tech.movement_energy_per_bit() * flips);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sachi_mem::cache::{CacheGeometry, CacheHierarchy};
    use sachi_mem::energy::EnergyComponent;

    fn configs() -> Vec<SachiConfig> {
        let small = CacheHierarchy {
            compute: CacheGeometry::new(2, 4, 64, 1),
            storage: CacheGeometry::new(1, 8, 64, 2),
        };
        let mut configs = Vec::new();
        for design in DesignKind::ALL {
            for hierarchy in [small, CacheHierarchy::hpca_default()] {
                for banks in [1, 3] {
                    let config = SachiConfig::new(design)
                        .with_hierarchy(hierarchy)
                        .with_banks(banks);
                    configs.push(config.clone().without_prefetch());
                    configs.push(config);
                }
            }
        }
        configs
    }

    /// The O(1) uniform plan and the per-tuple plan agree on every sum
    /// when all degrees are equal — with remainders, storage overflow,
    /// banking and either prefetch setting.
    #[test]
    fn uniform_plan_matches_degree_plan() {
        for config in configs() {
            for (spins, n, r) in [(1u64, 0u64, 2u32), (7, 3, 4), (12, 11, 3), (40, 39, 6)] {
                let uniform = RoundPlan::uniform(&config, &WorkloadShape::new(spins, n, r));
                let degrees = vec![n; to_index(spins)];
                let walked = RoundPlan::for_degrees(&config, r, &degrees);
                let what = format!("{} {spins}x{n}@{r}", config.design);
                assert_eq!(uniform.rounds_per_sweep, walked.rounds_per_sweep, "{what}");
                assert_eq!(uniform.uses_dram, walked.uses_dram, "{what}");
                assert_eq!(uniform.storage_bits, walked.storage_bits, "{what}");
                assert_eq!(
                    uniform.per_sweep(|_, round| round.resident_bits),
                    walked.per_sweep(|_, round| round.resident_bits),
                    "{what}"
                );
                assert_eq!(
                    uniform.per_sweep(|_, round| round.storage_bits),
                    walked.per_sweep(|_, round| round.storage_bits),
                    "{what}"
                );
                assert_eq!(uniform.sweep_compute(), walked.sweep_compute(), "{what}");
                for sweep in [0, 1] {
                    assert_eq!(
                        uniform.sweep_load(sweep),
                        walked.sweep_load(sweep),
                        "{what}"
                    );
                    assert_eq!(
                        uniform.sweep_cycles(sweep),
                        walked.sweep_cycles(sweep),
                        "{what}"
                    );
                }
                assert_eq!(uniform.solve_cycles(5), walked.solve_cycles(5), "{what}");
            }
        }
    }

    #[test]
    fn million_spin_tsp_is_two_runs() {
        let config = SachiConfig::new(DesignKind::N3);
        let plan = RoundPlan::uniform(&config, &WorkloadShape::new(1_000_000, 999_999, 5));
        assert_eq!(plan.rounds_per_sweep, 1_000_000);
        assert!(plan.runs.len() <= 2);
        assert!(plan.uses_dram);
    }

    #[test]
    fn sweep_zero_serializes_its_first_round_only() {
        let small = CacheHierarchy {
            compute: CacheGeometry::new(1, 4, 64, 1),
            storage: CacheGeometry::sachi_storage_default(),
        };
        let plan = RoundPlan::for_degrees(
            &SachiConfig::new(DesignKind::N2).with_hierarchy(small),
            4,
            &[16; 12],
        );
        assert!(plan.rounds_per_sweep > 1);
        let rounds: Vec<&Round> = plan.iter().map(|(_, round)| round).collect();
        let first = rounds[0];
        let overlapped = first.compute.max(first.load);
        assert_eq!(
            plan.sweep_cycles(0) - plan.sweep_cycles(1),
            first.compute + first.load - overlapped
        );
        assert_eq!(
            (plan.sweep_load(0) - plan.sweep_load(1)),
            Cycles::ZERO,
            "every sweep reloads"
        );
    }

    #[test]
    fn a_dram_round_load_bills_its_stream_and_controller() {
        let tiny_storage = CacheHierarchy {
            compute: CacheGeometry::new(1, 4, 64, 1),
            storage: CacheGeometry::new(1, 2, 64, 2),
        };
        let config = SachiConfig::new(DesignKind::N3).with_hierarchy(tiny_storage);
        let plan = RoundPlan::for_degrees(&config, 4, &[16; 12]);
        assert!(plan.uses_dram && plan.rounds_per_sweep > 1);
        let round = Round {
            resident_bits: 64,
            storage_bits: Bits::from_bytes(128).get(),
            load: Cycles::new(1),
            ..Round::default()
        };
        let mut ledger = EnergyLedger::new();
        plan.bill_load(&mut ledger, 1, &round);
        // 1024 bits at 1 pJ/bit, and one adder op per 64-byte beat.
        let tech = &config.tech;
        assert!((ledger.component(EnergyComponent::DramAccess).get() - 1024.0).abs() < 1e-9);
        assert_eq!(
            ledger.component(EnergyComponent::DramController),
            tech.adder_energy_per_bit() * 2u64
        );
        assert_eq!(
            ledger.component(EnergyComponent::DataMovement),
            tech.movement_energy_per_bit() * 64u64
        );
        // A round that pays no load cycles pays no load energy.
        let mut idle = EnergyLedger::new();
        let unloaded = Round {
            load: Cycles::ZERO,
            ..round
        };
        plan.bill_load(&mut idle, 1, &unloaded);
        assert!(idle.is_empty());
    }

    #[test]
    fn a_cut_round_bills_only_the_tuples_that_ran() {
        let config = SachiConfig::new(DesignKind::N1a);
        let plan = RoundPlan::for_degrees(&config, 4, &[2, 5, 1, 3, 4]);
        let (spins, round) = plan.iter().next().expect("one round");
        assert_eq!(
            plan.partial_compute(spins.clone(), spins.len()),
            round.compute
        );
        let fill = stationarity(DesignKind::N1a).idle_cycles(5, 4) + 3;
        assert_eq!(
            plan.partial_compute(spins.clone(), 1),
            Cycles::new(2 * 4 + fill)
        );
        assert_eq!(plan.partial_compute(spins, 0), Cycles::new(fill));
    }
}
