//! The round plan: the one cost model of a sweep's compute-array rounds.
//!
//! A sweep streams its tuples through the compute array in *rounds*:
//! runs of consecutive tuples packed greedily by resident bits (at least
//! one per tuple) up to the array's capacity. Every per-tuple figure
//! here is read from the tuple's [`crate::designs::TupleSchedule`], the
//! one the kernel prices its discharges with. Each round carries its
//! tuples' [`StaticEvents`] summed once at planning time — everything a
//! compute books besides its spin-dependent discharges — so the machine
//! books a round's schedule with one addition when the round ends, and
//! a round cut short by a fault abort re-walks only the tuples that ran
//! ([`RoundPlan::partial_events`]). A round computes tile-parallel — SACHI(n1a)
//! fills tiles blockwise (Fig. 17(iii)'s imbalance), the others
//! interleave — for its busiest tile's phase-1 cycles ([`tuple_cycles`],
//! the schedule's accesses) plus one pipeline fill (the schedule's
//! `idle + 3`) at the problem's largest degree. Loading it costs the
//! storage→compute latency plus `⌈rows/B⌉` for `B` banks, plus its DRAM
//! stream when the problem overflows the storage array and the Sec. IV.A
//! prefetcher is off.
//! Sweep 0 loads every round, later sweeps only a multi-round problem.
//! Sweep 0's first round runs serialized; every other round overlaps
//! load and compute (`max`) with the prefetcher and adds them without.
//! The machine builds its plan from per-tuple degrees and bills each
//! round from it; `PerfModel` builds one from a uniform shape in O(1) —
//! as runs of identical rounds — and sums it.
//!
//! The plan also holds the energy price list. A solve's events — the
//! problem's placement into DRAM, each round load (counted exactly when
//! its load cycles are), compute, and each flip's Fig. 8b update — are
//! tallied as integer counts in one [`SolveEvents`], and
//! [`RoundPlan::price`] turns the tally into energy once: every
//! component is one unit price times one count, so the sum cannot
//! depend on the order the events happened in. The machine tallies
//! metered counts, `PerfModel` the shape's.

use crate::config::{DesignKind, SachiConfig};
use crate::designs::{stationarity, StaticEvents, TupleSchedule};
use crate::tuple::SpinTuple;
use sachi_ising::graph::MAX_SPINS;
use sachi_mem::energy::EnergyComponent::{
    Annealer, DataMovement, DecisionLogic, DramAccess, DramController, NearMemoryAdd, RblDischarge,
    RwlDrive, SramRead, SramWrite,
};
use sachi_mem::energy::EnergyLedger;
use sachi_mem::sram::TileParams;
use sachi_mem::units::convert::{approx_f64_wide, count_u64, to_index};
use sachi_mem::units::{Bits, Cycles, Picojoules};
use sachi_workloads::spec::WorkloadShape;
use std::ops::Range;

/// Phase-1 cycles of one compute under `design` of a tuple of `n`
/// neighbors at resolution `r` on `row_bits`-wide rows: its schedule's
/// accesses (none without neighbors).
pub fn tuple_cycles(design: DesignKind, n: u64, r: u32, row_bits: u64) -> u64 {
    stationarity(design).schedule(n, r, row_bits).accesses
}

/// The schedule and static events of each of `degrees`, read from a
/// table indexed by degree that holds every one of them.
fn priced<'a>(
    by_degree: &'a [(TupleSchedule, StaticEvents)],
    degrees: &'a [u64],
) -> impl Iterator<Item = (TupleSchedule, StaticEvents)> + 'a {
    degrees
        .iter()
        .filter_map(|&n| by_degree.get(to_index(n)).copied())
}

/// The events of one solve that cost energy, counted once and priced
/// once by [`RoundPlan::price`]. The machine tallies a call's events as
/// it meters them; `PerfModel` counts the shape's per sweep times the
/// sweeps. Counts are `u128`, so a model's solve cannot overflow where
/// its cycles fit `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SolveEvents {
    /// Bits of the problem's initial placement into DRAM.
    pub placement_bits: u128,
    /// Round loads into the compute array. They cost nothing by
    /// themselves: each one's price is its fill and stream bits.
    pub round_loads: u128,
    /// Bits moved from the storage array into the compute array and
    /// written there: round loads' resident bits and fault refetches.
    pub fill_bits: u128,
    /// Bits round loads stream from DRAM.
    pub stream_bits: u128,
    /// 64-byte beats of those streams.
    pub stream_beats: u128,
    /// Spin flips: one bit moved each.
    pub flips: u128,
    /// Tuple copies the flips wrote through the Fig. 8b update path.
    pub copies: u128,
    /// Read word-line activations.
    pub rwl_activations: u128,
    /// Read bit-line discharges (`PerfModel` counts an expected,
    /// fractional number).
    pub rbl_discharges: f64,
    /// Bits fetched from the storage array onto the RWLs.
    pub fetched_bits: u128,
    /// Near-memory adder bit operations.
    pub adder_bit_ops: u128,
    /// XNOR-vs-XNOR+1 decisions.
    pub decisions: u128,
    /// Annealer decisions.
    pub annealer_decisions: u128,
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
    /// The spin-independent events of computing all its tuples once, in
    /// a degree-built plan (the machine's). A uniform plan leaves them
    /// empty: `PerfModel` counts its shape's events itself.
    pub events: StaticEvents,
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
    /// Per-tuple degrees of a degree-built plan.
    degrees: Vec<u64>,
    /// A degree-built plan's schedule and static events per degree, for
    /// every degree up to its largest.
    by_degree: Vec<(TupleSchedule, StaticEvents)>,
}

impl RoundPlan {
    fn empty(config: &SachiConfig, r: u32, max_degree: u64, storage_bits: u64) -> Self {
        let design = stationarity(config.design);
        let compute = config.hierarchy.compute;
        let degree = max_degree.max(1);
        let (rows, cols) = design.tile_requirements(to_index(degree), r, compute.row_bits());
        let widest = design.schedule(degree, r, count_u64(compute.row_bits()));
        let bytes = Bits::new(storage_bits).to_bytes_ceil();
        RoundPlan {
            runs: Vec::new(),
            rounds_per_sweep: 1,
            uses_dram: storage_bits > config.hierarchy.storage.total_bits().get(),
            storage_bits,
            placement: config.tech.dram_stream_cycles(bytes),
            tile_params: TileParams::new(rows, cols).with_banks(config.bank_count),
            tiles: count_u64(compute.tiles()).max(1),
            fill: widest.fill_cycles(),
            config: config.clone(),
            degrees: Vec::new(),
            by_degree: Vec::new(),
        }
    }

    /// Appends `repeats` copies of `round` at `compute` cycles, pricing
    /// its load.
    fn push(&mut self, round: Round, compute: Cycles, repeats: u64) {
        let round = self.loaded(round, compute);
        self.runs.push((round, repeats));
    }

    /// `round` at `compute` cycles, with its load priced.
    fn loaded(&self, mut round: Round, compute: Cycles) -> Round {
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
        round
    }

    fn row_bits(&self) -> u64 {
        count_u64(self.config.hierarchy.compute.row_bits())
    }

    /// Plans a problem whose tuples have the given degrees, in spin
    /// order, at resolution `r`. The plan keeps `degrees` to price
    /// partial rounds.
    pub fn for_degrees(config: &SachiConfig, r: u32, degrees: Vec<u64>) -> Self {
        let storage = degrees.iter().map(|&n| SpinTuple::storage_bits(n, r) + n);
        let max_degree = degrees.iter().copied().max().unwrap_or(0);
        let mut plan = Self::empty(config, r, max_degree, storage.sum());
        // A graph's degrees are few and below its spin count: price each
        // once, not once per tuple.
        let (design, row_bits) = (stationarity(config.design), plan.row_bits());
        plan.by_degree = (0..=max_degree)
            .map(|n| {
                let schedule = design.schedule(n, r, row_bits);
                (schedule, StaticEvents::of(&schedule))
            })
            .collect();
        plan.degrees = degrees;
        let capacity = config.hierarchy.compute.total_bits().get();
        let (mut runs, mut round, mut first, mut used) = (Vec::new(), Round::default(), 0, 0u64);
        let tuples = plan
            .degrees
            .iter()
            .zip(priced(&plan.by_degree, &plan.degrees));
        for (i, (&n, (schedule, events))) in tuples.enumerate() {
            let resident = schedule.resident_bits;
            if round.tuples > 0 && used + resident.max(1) > capacity {
                let compute = plan.partial_compute(first..i, i - first);
                runs.push((plan.loaded(std::mem::take(&mut round), compute), 1));
                (first, used) = (i, 0);
            }
            used += resident.max(1);
            round.tuples += 1;
            round.resident_bits += resident;
            round.storage_bits += SpinTuple::storage_bits(n, r);
            round.events.merge(&events);
        }
        let spins = plan.degrees.len();
        let compute = plan.partial_compute(first..spins, spins - first);
        runs.push((plan.loaded(round, compute), 1));
        plan.runs = runs;
        plan.rounds_per_sweep = plan.per_sweep(|_, _| 1);
        plan
    }

    /// Plans a uniform shape in O(1): full rounds of the array's tuple
    /// capacity, then the remainder. `None` when the shape has more spins
    /// than a graph can hold ([`MAX_SPINS`]) or its storage bits overflow
    /// `u64`.
    pub fn uniform(config: &SachiConfig, shape: &WorkloadShape) -> Option<Self> {
        let (spins, n, r) = (shape.spins, shape.neighbors_per_spin, shape.resolution_bits);
        if spins > MAX_SPINS {
            return None;
        }
        let tuple_storage = SpinTuple::storage_bits(n, r);
        let mut plan = Self::empty(config, r, n, spins.checked_mul(tuple_storage + n)?);
        let schedule = stationarity(config.design).schedule(n, r, plan.row_bits());
        let (per_tuple, resident) = (schedule.accesses, schedule.resident_bits);
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
        Some(plan)
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

    /// The schedules and static events of a degree-built plan's tuples
    /// over `spins` (none past its end).
    fn schedules(
        &self,
        spins: Range<usize>,
    ) -> impl Iterator<Item = (TupleSchedule, StaticEvents)> + '_ {
        priced(&self.by_degree, self.degrees.get(spins).unwrap_or_default())
    }

    /// The first `reached` spins of the round over `spins`.
    fn ran(spins: Range<usize>, reached: usize) -> Range<usize> {
        spins.start..spins.start + reached.min(spins.len())
    }

    /// Compute cycles of the round over `spins` when only its first
    /// `reached` tuples ran (all of them, or up to a fault abort): the
    /// busiest tile's cycles plus the fill.
    pub fn partial_compute(&self, spins: Range<usize>, reached: usize) -> Cycles {
        let len = count_u64(spins.len().max(1));
        let mut sums = vec![0u64; to_index(self.tiles)];
        let costs = self
            .schedules(Self::ran(spins, reached))
            .map(|(s, _)| s.accesses);
        for (pos, cost) in (0u64..).zip(costs) {
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

    /// The static events of the round over `spins` when only its first
    /// `reached` tuples ran: the round's [`Round::events`] when all of
    /// them did, and otherwise the walk [`RoundPlan::partial_compute`]
    /// makes for the cycles.
    pub fn partial_events(&self, spins: Range<usize>, reached: usize) -> StaticEvents {
        let mut events = StaticEvents::default();
        for (_, tuple) in self.schedules(Self::ran(spins, reached)) {
            events.merge(&tuple);
        }
        events
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
    /// the DRAM placement, sweep 0, then the steady sweeps. `None` when
    /// they overflow `u64`.
    pub fn solve_cycles(&self, sweeps: u64) -> Option<Cycles> {
        let steady = self.sweep_cycles(1).get().checked_mul(sweeps.max(1) - 1)?;
        let first = self.placement + self.sweep_cycles(0);
        first.get().checked_add(steady).map(Cycles::new)
    }

    /// The events of placing the whole problem into DRAM: every solve's
    /// first tally.
    pub(crate) fn placement_events(&self) -> SolveEvents {
        SolveEvents {
            placement_bits: u128::from(self.storage_bits),
            ..SolveEvents::default()
        }
    }

    /// Counts `times` loads of `round` in sweep `sweep` if it pays one
    /// (see [`RoundPlan::load`]): its resident bits filled, plus — when
    /// the problem lives in DRAM — its stream's bits and 64-byte beats.
    pub(crate) fn count_loads(
        &self,
        events: &mut SolveEvents,
        sweep: u64,
        round: &Round,
        times: u128,
    ) {
        if self.load(sweep, round) == Cycles::ZERO {
            return;
        }
        events.round_loads += times;
        events.fill_bits += u128::from(round.resident_bits) * times;
        if self.uses_dram {
            let bytes = Bits::new(round.storage_bits).to_bytes_ceil();
            let beats = self.config.tech.dram_stream_cycles(bytes).get();
            events.stream_bits += u128::from(round.storage_bits) * times;
            events.stream_beats += u128::from(beats) * times;
        }
    }

    /// Counts every load of `times` sweeps numbered `sweep`.
    pub(crate) fn count_sweep_loads(&self, events: &mut SolveEvents, sweep: u64, times: u128) {
        for (round, repeats) in &self.runs {
            self.count_loads(events, sweep, round, u128::from(*repeats) * times);
        }
    }

    /// Prices `events`: each component is one unit price times one
    /// count. Fills, fetched bits and flips move data from the storage
    /// array; fills and copies write SRAM, and copies read it too (Fig.
    /// 8b). DRAM is accessed by the placement, the round streams and —
    /// when the problem lives there — every fetched bit the storage
    /// array cannot cache; its controller updates once per streamed
    /// beat, priced as an adder op.
    pub fn price(&self, e: &SolveEvents) -> EnergyLedger {
        let tech = &self.config.tech;
        let (movement, adder) = (tech.movement_energy_per_bit(), tech.adder_energy_per_bit());
        let (rbl, write) = (tech.rbl_energy_per_bit(), tech.sram_write_energy_per_bit());
        let dram_fetched = if self.uses_dram { e.fetched_bits } else { 0 };
        let moved = e.fill_bits + e.fetched_bits + e.flips;
        let dram = e.placement_bits + e.stream_bits + dram_fetched;
        let mut ledger = EnergyLedger::new();
        let mut record = |component, unit: Picojoules, count: u128| {
            ledger.record(component, unit * approx_f64_wide(count));
        };
        record(RwlDrive, tech.rwl_energy_per_bit(), e.rwl_activations);
        record(SramWrite, write, e.fill_bits + e.copies);
        record(SramRead, rbl, e.copies);
        record(DataMovement, movement, moved);
        record(NearMemoryAdd, adder, e.adder_bit_ops);
        record(DecisionLogic, adder, e.decisions);
        let annealer = tech.annealer_energy_per_decision();
        record(Annealer, annealer, e.annealer_decisions);
        record(DramAccess, movement, dram);
        record(DramController, adder, e.stream_beats);
        ledger.record(RblDischarge, rbl * e.rbl_discharges);
        ledger
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
                let uniform =
                    RoundPlan::uniform(&config, &WorkloadShape::new(spins, n, r)).unwrap();
                let walked = RoundPlan::for_degrees(&config, r, vec![n; to_index(spins)]);
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
        let plan = RoundPlan::uniform(&config, &WorkloadShape::new(1_000_000, 999_999, 5)).unwrap();
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
            vec![16; 12],
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
        let plan = RoundPlan::for_degrees(&config, 4, vec![16; 12]);
        assert!(plan.uses_dram && plan.rounds_per_sweep > 1);
        let round = Round {
            resident_bits: 64,
            storage_bits: Bits::from_bytes(128).get(),
            load: Cycles::new(1),
            ..Round::default()
        };
        let mut events = SolveEvents::default();
        plan.count_loads(&mut events, 1, &round, 1);
        assert_eq!(
            events,
            SolveEvents {
                round_loads: 1,
                fill_bits: 64,
                stream_bits: 1024,
                stream_beats: 2,
                ..SolveEvents::default()
            }
        );
        // 1024 bits at 1 pJ/bit, and one adder op per 64-byte beat.
        let ledger = plan.price(&events);
        let tech = &config.tech;
        assert_eq!(ledger.component(EnergyComponent::DramAccess).get(), 1024.0);
        assert_eq!(
            ledger.component(EnergyComponent::DramController),
            tech.adder_energy_per_bit() * 2u64
        );
        assert_eq!(
            ledger.component(EnergyComponent::DataMovement),
            tech.movement_energy_per_bit() * 64u64
        );
        // A round that pays no load cycles counts no load events.
        let mut idle = SolveEvents::default();
        let unloaded = Round {
            load: Cycles::ZERO,
            ..round
        };
        plan.count_loads(&mut idle, 1, &unloaded, 1);
        assert!(plan.price(&idle).is_empty());
    }

    /// The price is one product per component, so it cannot depend on
    /// how the counts were reached: loads counted one at a time price
    /// exactly like the same loads counted at once.
    #[test]
    fn a_tally_prices_the_same_however_it_was_summed() {
        let tiny_storage = CacheHierarchy {
            compute: CacheGeometry::new(1, 4, 64, 1),
            storage: CacheGeometry::new(1, 2, 64, 2),
        };
        let config = SachiConfig::new(DesignKind::N3).with_hierarchy(tiny_storage);
        let plan = RoundPlan::for_degrees(&config, 4, vec![16; 12]);
        assert!(plan.uses_dram && plan.rounds_per_sweep > 1);
        let mut one_by_one = plan.placement_events();
        for _ in 0..1000 {
            plan.count_sweep_loads(&mut one_by_one, 1, 1);
        }
        let mut at_once = plan.placement_events();
        plan.count_sweep_loads(&mut at_once, 1, 1000);
        assert_eq!(one_by_one, at_once);
        assert_eq!(plan.price(&one_by_one), plan.price(&at_once));
        let fill = plan.per_sweep(|_, round| round.resident_bits);
        assert_eq!(at_once.fill_bits, u128::from(fill) * 1000);
        assert_eq!(
            plan.price(&at_once)
                .component(EnergyComponent::DataMovement),
            config.tech.movement_energy_per_bit() * (fill * 1000)
        );
    }

    #[test]
    fn a_cut_round_bills_only_the_tuples_that_ran() {
        let config = SachiConfig::new(DesignKind::N1a);
        let plan = RoundPlan::for_degrees(&config, 4, vec![2, 5, 1, 3, 4]);
        let (spins, round) = plan.iter().next().expect("one round");
        assert_eq!(
            plan.partial_compute(spins.clone(), spins.len()),
            round.compute
        );
        let fill = stationarity(DesignKind::N1a)
            .schedule(5, 4, 800)
            .fill_cycles();
        assert_eq!(
            plan.partial_compute(spins.clone(), 1),
            Cycles::new(2 * 4 + fill)
        );
        assert_eq!(plan.partial_compute(spins.clone(), 0), Cycles::new(fill));
        // The static events walk the same tuples: all of them is the
        // round's, the first one is its schedule's, none is nothing.
        let first = StaticEvents::of(&stationarity(DesignKind::N1a).schedule(2, 4, 800));
        assert_eq!(
            plan.partial_events(spins.clone(), spins.len()),
            round.events
        );
        assert_eq!(plan.partial_events(spins.clone(), 1), first);
        assert_eq!(plan.partial_events(spins, 0), StaticEvents::default());
    }
}
