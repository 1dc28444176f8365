//! The SACHI machine: functional, fully-accounted solves.
//!
//! [`SachiMachine`] executes the shared iterative protocol
//! ([`sachi_ising::solver::run_sweeps`]) with every `H_σ` computed by the
//! design's production kernel
//! ([`crate::designs::Stationarity::compute_tuple_soa`]):
//! `H_σ` from the tuple's maintained sums (exact, enforced by a debug
//! assertion against the golden local field), and the events of the
//! design's bit-level schedule booked on the tile in closed form: the
//! spin-dependent bit-line discharges by the kernel per compute, the
//! rest (word-lines, writes, XNOR and adder work, queue) once per round
//! from the round plan's static events. Alongside the solve it keeps
//! the books the paper's evaluation needs: cycles (compute, loading,
//! DRAM, with prefetch overlap), a per-component energy ledger, reuse,
//! redundant discharges, queue occupancy, and update-path traffic. Energy is
//! counted, not summed: the call tallies its events as integer counts in
//! one [`crate::rounds::SolveEvents`] and prices them once at the end.
//!
//! ### Accounting conventions
//!
//! * The tile's *layout writes* are not billed per compute — resident
//!   data is written once per round, which the machine counts explicitly
//!   as reload traffic. Only the tile's word-line activations and
//!   bit-line discharges are harvested.
//! * Spin updates follow the Fig. 8b path: an adjacency read plus one
//!   copy-write per relevant tuple, billed to the storage array. The
//!   copies are billed, not kept: the tuple store holds one state per
//!   spin and returns the flipped spin's degree as its copy count, and
//!   an undetected fetch alias reads the aliased neighbour's spin from
//!   the sweep's spins, the value its copy would hold.
//! * When the problem exceeds the storage array, each round streams its
//!   chunk from DRAM (64 B/cycle) with the Sec. IV.A prefetcher
//!   overlapping the stream with compute.

use crate::config::{DesignKind, SachiConfig};
use crate::designs::{stationarity, ComputeContext, ComputeScratch};
use crate::encoding::MixedEncoding;
use crate::rounds::RoundPlan;
use crate::tuple::{SpinTuple, TuplePlanes, TupleStore};
use sachi_ising::graph::IsingGraph;
use sachi_ising::hamiltonian::{energy, flip_cost};
use sachi_ising::recovery::RecoveryPolicy;
use sachi_ising::solver::{
    decide_update, run_sweeps, IterativeSolver, SolveOptions, SolveResult, SweepOutcome,
};
use sachi_ising::spin::SpinVector;
use sachi_mem::dram::{DramController, DramStats};
use sachi_mem::energy::EnergyLedger;
use sachi_mem::fault::FaultInjector;
use sachi_mem::sram::{SramTile, TileStats};
use sachi_mem::units::convert::{approx_f64, count_u64, ratio_u64, to_index};
use sachi_mem::units::{Bits, Cycles, Nanoseconds};
use sachi_obs::{MetricsRegistry, PhaseSpan, SolvePhase};

/// Fault-injection and recovery accounting of one solve.
///
/// All zeros (the `Default`) when the machine runs without a fault
/// profile — so existing report consumers are unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultReport {
    /// Transient bit flips injected into tuple fetches (including
    /// re-fetches).
    pub injected_flips: u64,
    /// Tuple fetches that carried at least one injected flip.
    pub corrupted_fetches: u64,
    /// Corruptions caught by tuple-row parity (odd flip count).
    pub detected: u64,
    /// Corruptions that aliased past parity (even, non-zero flip count)
    /// and perturbed the computed local field.
    pub undetected: u64,
    /// Re-fetches performed by the `RefetchRetry` recovery policy.
    pub retries: u64,
    /// Cycles spent on recovery re-fetches (serialized onto the
    /// critical path — a re-fetch stalls the pipeline).
    pub refetch_cycles: Cycles,
    /// Bits corrupted in DRAM streams (count only; quality effects flow
    /// through the read-path BER).
    pub dram_corrupted_bits: u64,
    /// True if recovery gave up: a fail-fast abort, or a read that
    /// exhausted its re-fetch budget.
    pub degraded: bool,
}

impl FaultReport {
    /// Accumulates a later segment's `other` into `self` (see
    /// [`RunReport::absorb`]): counts add, degradation is sticky.
    /// Destructured field by field like `RunReport::absorb`.
    fn absorb(&mut self, other: FaultReport) {
        let FaultReport {
            injected_flips,
            corrupted_fetches,
            detected,
            undetected,
            retries,
            refetch_cycles,
            dram_corrupted_bits,
            degraded,
        } = other;
        self.injected_flips += injected_flips;
        self.corrupted_fetches += corrupted_fetches;
        self.detected += detected;
        self.undetected += undetected;
        self.retries += retries;
        self.refetch_cycles += refetch_cycles;
        self.dram_corrupted_bits += dram_corrupted_bits;
        self.degraded |= degraded;
    }

    /// Exports the counters into `reg` under the `recovery_` prefix.
    pub fn export(&self, reg: &mut MetricsRegistry) {
        reg.counter_add("recovery_injected_flips", self.injected_flips);
        reg.counter_add("recovery_corrupted_fetches", self.corrupted_fetches);
        reg.counter_add("recovery_detected", self.detected);
        reg.counter_add("recovery_undetected", self.undetected);
        reg.counter_add("recovery_retries", self.retries);
        reg.counter_add("recovery_refetch_cycles", self.refetch_cycles.get());
        reg.counter_add("recovery_dram_corrupted_bits", self.dram_corrupted_bits);
        reg.counter_add("recovery_degraded_replicas", u64::from(self.degraded));
    }
}

/// Architecture-level statistics of one solve.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Design that ran.
    pub design: DesignKind,
    /// IC resolution used.
    pub resolution_bits: u32,
    /// Sweeps (Hamiltonian iterations) executed.
    pub sweeps: u64,
    /// Compute-array rounds per sweep (1 when everything fits).
    pub rounds_per_sweep: u64,
    /// Pure compute-array cycles.
    pub compute_cycles: Cycles,
    /// Loading cycles (storage→compute movement, DRAM streaming) before
    /// prefetch overlap.
    pub load_cycles: Cycles,
    /// Critical-path cycles including overlap and the initial DRAM store.
    pub total_cycles: Cycles,
    /// Wall-clock time at the configured cycle time.
    pub wall_time: Nanoseconds,
    /// Per-component energy.
    pub energy: EnergyLedger,
    /// Achieved reuse: XNOR computes per RWL bit fetched.
    pub reuse: f64,
    /// Useful in-memory XNOR bit operations.
    pub xnor_ops: u64,
    /// Bits fetched from storage onto RWLs.
    pub rwl_bits_fetched: u64,
    /// Redundant bit-line discharges (Fig. 5c energy waste).
    pub redundant_discharges: u64,
    /// Peak XNOR-queue occupancy in bits.
    pub queue_peak_bits: u64,
    /// Tuple-copy writes made by the update path.
    pub spin_copy_updates: u64,
    /// Adjacency-matrix reads made by the update path.
    pub adjacency_reads: u64,
    /// Cross-tuple re-reads the no-tuple-rep ablation incurred (0 with
    /// tuple-rep on).
    pub cross_tuple_rereads: u64,
    /// Prefetches issued by the DRAM controller.
    pub prefetches: u64,
    /// Round loads into the compute array, the repurposed L1: every
    /// round of sweep 0, and every round of each later sweep when the
    /// problem needs more than one.
    pub round_loads: u64,
    /// Bits written into the compute array: the round loads' resident
    /// bits plus fault re-fetches.
    pub fill_bits: u64,
    /// Fault-injection and recovery accounting (all zeros without a
    /// fault profile).
    pub faults: FaultReport,
    /// Raw SRAM tile counters (discharges, reads, writes).
    pub tile: TileStats,
    /// DRAM controller counters including prefetch lead/late accounting.
    pub dram: DramStats,
    /// Solve-phase spans, recorded only when
    /// [`crate::config::SachiConfig::trace_phases`] is set (empty — and
    /// unallocated — otherwise).
    pub phase_spans: Vec<PhaseSpan>,
}

impl RunReport {
    /// Cycles per Hamiltonian iteration — the paper's "CPI" metric
    /// (Figs. 17/18).
    pub fn cycles_per_iteration(&self) -> f64 {
        if self.sweeps == 0 {
            return 0.0;
        }
        ratio_u64(self.total_cycles.get(), self.sweeps)
    }

    /// Exports the whole report into `reg`: `machine_` counters for the
    /// design-level accounting, `l1_` counters for the compute array,
    /// plus the embedded SRAM (`sram_`), DRAM (`dram_`), recovery
    /// (`recovery_`) counters and energy gauges.
    /// Counters and histograms fold additively across replicas; gauges
    /// are per-run summaries the ensemble fold recomputes from counter
    /// sums afterwards.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry) {
        reg.counter_add("machine_sweeps", self.sweeps);
        reg.counter_add("machine_compute_cycles", self.compute_cycles.get());
        reg.counter_add("machine_load_cycles", self.load_cycles.get());
        reg.counter_add("machine_total_cycles", self.total_cycles.get());
        reg.counter_add("machine_xnor_ops", self.xnor_ops);
        reg.counter_add("machine_rwl_bits_fetched", self.rwl_bits_fetched);
        reg.counter_add("machine_redundant_discharges", self.redundant_discharges);
        reg.counter_add("machine_spin_copy_updates", self.spin_copy_updates);
        reg.counter_add("machine_adjacency_reads", self.adjacency_reads);
        reg.counter_add("machine_cross_tuple_rereads", self.cross_tuple_rereads);
        reg.counter_add("machine_prefetches", self.prefetches);
        reg.counter_add("l1_round_loads", self.round_loads);
        reg.counter_add("l1_fill_bits", self.fill_bits);
        reg.observe("machine_queue_peak_bits", self.queue_peak_bits);
        reg.observe("replica_total_cycles", self.total_cycles.get());
        reg.observe("replica_rounds_per_sweep", self.rounds_per_sweep);
        reg.gauge_set("machine_reuse", self.reuse);
        self.tile.export(reg);
        self.dram.export(reg);
        self.faults.export(reg);
        self.energy.export(reg);
    }

    /// Accumulates `other` — the report of a later solve segment of the
    /// *same* logical replica — into `self`.
    ///
    /// Parallel-tempering rungs run as a sequence of constant-temperature
    /// solve segments, each producing its own report; a rung's ledger
    /// entry is the segment-wise sum. Counters, cycles, wall-time, and
    /// energy add; `queue_peak_bits` takes the max (it is a peak, not a
    /// flow); `reuse` is recomputed from the summed XNOR/RWL totals;
    /// fault degradation is sticky (OR); `design`/`resolution_bits`
    /// describe the machine and must match. `other`'s phase spans are
    /// appended after this report's: shifted by its pre-absorb
    /// `total_cycles` and `sweeps`, so the merged trace stays ordered.
    /// `other` is destructured field by field, so a field added without
    /// a merge rule does not compile.
    pub fn absorb(&mut self, other: &RunReport) {
        let RunReport {
            design,
            resolution_bits,
            sweeps,
            rounds_per_sweep,
            compute_cycles,
            load_cycles,
            total_cycles,
            wall_time,
            ref energy,
            reuse: _,
            xnor_ops,
            rwl_bits_fetched,
            redundant_discharges,
            queue_peak_bits,
            spin_copy_updates,
            adjacency_reads,
            cross_tuple_rereads,
            prefetches,
            round_loads,
            fill_bits,
            faults,
            ref tile,
            ref dram,
            ref phase_spans,
        } = *other;
        debug_assert_eq!(self.design, design, "segments share one machine");
        debug_assert_eq!(self.resolution_bits, resolution_bits);
        let (cycle_offset, sweep_offset) = (self.total_cycles.get(), self.sweeps);
        self.phase_spans
            .extend(phase_spans.iter().map(|span| PhaseSpan {
                sweep: span.sweep + sweep_offset,
                start: span.start + cycle_offset,
                end: span.end + cycle_offset,
                ..*span
            }));
        self.sweeps += sweeps;
        self.rounds_per_sweep = self.rounds_per_sweep.max(rounds_per_sweep);
        self.compute_cycles += compute_cycles;
        self.load_cycles += load_cycles;
        self.total_cycles += total_cycles;
        self.wall_time = self.wall_time + wall_time;
        self.energy.merge(energy);
        self.xnor_ops += xnor_ops;
        self.rwl_bits_fetched += rwl_bits_fetched;
        self.reuse = if self.rwl_bits_fetched > 0 {
            ratio_u64(self.xnor_ops, self.rwl_bits_fetched)
        } else {
            0.0
        };
        self.redundant_discharges += redundant_discharges;
        self.queue_peak_bits = self.queue_peak_bits.max(queue_peak_bits);
        self.spin_copy_updates += spin_copy_updates;
        self.adjacency_reads += adjacency_reads;
        self.cross_tuple_rereads += cross_tuple_rereads;
        self.prefetches += prefetches;
        self.round_loads += round_loads;
        self.fill_bits += fill_bits;
        self.tile.merge(tile);
        self.dram.merge(dram);
        self.faults.absorb(faults);
    }
}

/// A SACHI machine instance.
///
/// ```
/// use sachi_core::prelude::*;
/// use sachi_ising::prelude::*;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let graph = topology::king(4, 4, |_, _| 1)?;
/// let mut rng = StdRng::seed_from_u64(0);
/// let init = SpinVector::random(16, &mut rng);
/// let mut machine = SachiMachine::new(SachiConfig::new(DesignKind::N3));
/// let (result, report) = machine.solve_detailed(&graph, &init, &SolveOptions::for_graph(&graph, 1));
/// assert!(result.converged);
/// assert!(report.total_cycles.get() > 0);
/// # Ok::<(), sachi_ising::graph::GraphError>(())
/// ```
///
/// ### Resident problem state
///
/// Like the hardware, the machine maps a problem into its storage array
/// once and keeps it there: the [`TupleStore`], its [`TuplePlanes`]
/// mirror, the encoding, the round partition, the spin vector and its
/// energy survive between [`SachiMachine::solve_detailed`] calls. A
/// later call on the **same build** of the graph (the same
/// [`IsingGraph::build_id`]: the graph itself or a clone of it) reuses
/// that state after an O(1) check. Only the spins that differ from the
/// resident copy are re-seated through the Fig. 8b update path, each
/// moving the resident energy by its flip cost; the call's event tally
/// starts after the re-seat, so re-seated spins never enter the report's
/// update-path counters or energy. So a resident call costs its sweeps,
/// its re-seated spins and its flips, and nothing O(edges). Any other
/// graph, a content-equal rebuild included, is mapped from scratch.
/// Either way the call returns exactly what a fresh machine returns:
/// every other piece of per-call state (tile, context, annealer, event
/// tally, DRAM controller, fault injector) is built anew, and the cycle
/// model still books the initial DRAM placement and first-round load of
/// every call.
#[derive(Debug, Clone)]
pub struct SachiMachine {
    config: SachiConfig,
    resident: Option<Resident>,
}

/// The graph-derived state a machine keeps between calls.
#[derive(Debug, Clone)]
struct Resident {
    /// The [`IsingGraph::build_id`] of the mapped graph.
    graph_id: u64,
    enc: MixedEncoding,
    tuples: TupleStore,
    soa: TuplePlanes,
    /// The round partition and each round's price.
    plan: RoundPlan,
    /// The spins the tuple copies currently hold.
    spins: SpinVector,
    /// H of `spins`.
    energy: i64,
}

impl Resident {
    /// Maps `graph` at `initial` into the storage array at the
    /// configured resolution and plans its rounds through the compute
    /// array. The resolution, and so the encoding, depend only on the
    /// graph and the machine's fixed config.
    ///
    /// # Panics
    ///
    /// Panics if a configured resolution override cannot represent the
    /// graph's coefficients.
    fn map_graph(config: &SachiConfig, graph: &IsingGraph, initial: &SpinVector) -> Self {
        let required = graph.bits_required();
        let resolution = match config.resolution {
            Some(r) => {
                assert!(
                    r >= required,
                    "resolution override {r} cannot represent coefficients needing {required} bits; \
                     quantize the workload first"
                );
                r
            }
            None => required,
        };
        let enc = MixedEncoding::new(resolution).expect("resolution validated by config");
        let tuples = TupleStore::with_tuple_rep(graph, initial, config.tuple_rep);
        // Per-tuple sums the kernel reads, built once here and kept
        // current by the update path. Faults never reach the kernel —
        // they are drawn after it returns (tuple-fetch parity and the DRAM
        // stream) — so one kernel serves clean and faulted runs alike.
        let soa = TuplePlanes::new(&tuples, &enc).expect("encoding sized from graph coefficients");
        let degrees: Vec<u64> = tuples.iter().map(|t| count_u64(t.degree())).collect();
        // H = ½·Σᵢ σᵢ·(H_σ,i − hᵢ) from the sums just built, in O(n)
        // instead of a pass over every edge: with H_σ,i = −(hᵢ +
        // Σⱼ Jᵢⱼσⱼ), the sum counts each edge twice and each field twice.
        let twice: i64 = tuples
            .iter()
            .enumerate()
            .map(|(i, t)| initial.get(i).value() * (soa.view(i).sums().h - i64::from(t.field())))
            .sum();
        let h0 = twice / 2;
        debug_assert_eq!(h0, energy(graph, initial), "H from the tuple sums");
        Resident {
            graph_id: graph.build_id(),
            plan: RoundPlan::for_degrees(config, enc.bits(), &degrees),
            enc,
            tuples,
            soa,
            spins: initial.clone(),
            energy: h0,
        }
    }

    /// Whether the resident state is `graph`'s: the same build, so the
    /// same content (a graph is immutable).
    fn holds(&self, graph: &IsingGraph) -> bool {
        self.graph_id == graph.build_id()
    }

    /// Re-seats the resident spins at `initial`, sending only the spins
    /// that differ through the update path. Each moves the resident
    /// energy by its flip cost at the field the sums hold before its
    /// writeback.
    fn reseat(&mut self, initial: &SpinVector) {
        for i in 0..initial.len() {
            let (old, new) = (self.spins.get(i), initial.get(i));
            if old != new {
                self.energy += flip_cost(old, self.soa.view(i).sums().h);
                self.spins.set(i, new);
                self.tuples.update_spin(i, new);
                self.soa.writeback_spin(&self.tuples, i, new);
            }
        }
    }
}

impl SachiMachine {
    /// Creates a machine from a configuration.
    pub fn new(config: SachiConfig) -> Self {
        SachiMachine {
            config,
            resident: None,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SachiConfig {
        &self.config
    }

    /// Runs a solve and returns both the algorithmic result and the
    /// architecture report. Reuses the resident problem state when
    /// `graph` is the last call's graph or a clone of it (see the type
    /// docs); the result is the same either way.
    ///
    /// # Panics
    ///
    /// Panics if the initial spin vector does not match the graph, or if a
    /// configured resolution override cannot represent the graph's
    /// coefficients (quantize the workload first).
    pub fn solve_detailed(
        &mut self,
        graph: &IsingGraph,
        initial: &SpinVector,
        options: &SolveOptions,
    ) -> (SolveResult, RunReport) {
        let design = stationarity(self.config.design);
        let tech = &self.config.tech;

        let resident = match self.resident.take() {
            Some(mut kept) if kept.holds(graph) => {
                kept.reseat(initial);
                kept
            }
            _ => Resident::map_graph(&self.config, graph, initial),
        };
        let Resident {
            graph_id,
            enc,
            mut tuples,
            mut soa,
            plan,
            spins: _,
            energy: h0,
        } = resident;
        let mut ctx = ComputeContext::new();
        let mut dram = DramController::new(self.config.prefetch);

        // The tile the kernel books its events on; it is sized by
        // `tile_requirements` because the closed forms assume that shape.
        let mut tile = SramTile::with_params(plan.tile_params);

        // Initial placement of the whole problem into DRAM (phase (a) of
        // the Sec. V.5 cost model, charged to every machine). The call's
        // events are tallied from here, after the re-seat, and priced
        // once at the end.
        let mut total_cycles = plan.placement;
        let mut events = plan.placement_events();
        let mut rereads = 0u64;

        // Phase spans: cycle-domain timestamps from the accounting this
        // loop already maintains. `Vec::new` does not allocate, so a
        // disabled trace costs one branch per round and nothing else.
        let trace_phases = self.config.trace_phases;
        let mut spans: Vec<PhaseSpan> = Vec::new();
        if trace_phases {
            spans.push(PhaseSpan {
                phase: SolvePhase::Upload,
                sweep: 0,
                round: 0,
                start: 0,
                end: total_cycles.get(),
                events: 1,
            });
        }

        let mut compute_cycles = Cycles::ZERO;
        let mut load_cycles = Cycles::ZERO;

        // Fault layer: the injector's stream is salted with the solve
        // seed (the per-replica derived seed in an ensemble), so fault
        // sequences are a pure function of (master seed, fault seed,
        // replica index) — byte-identical at any thread count.
        let mut fault: Option<(FaultInjector, RecoveryPolicy)> = self
            .config
            .fault
            .as_ref()
            .map(|profile| (profile.model.injector(options.seed), profile.policy));
        let mut fault_report = FaultReport::default();

        let mut result = run_sweeps(graph, initial, h0, options, |sweep, spins, annealer| {
            let mut fail_fast = false;
            let mut flips_this_sweep = 0u64;
            let mut delta = 0i64;
            for (index, (range, round)) in plan.iter().enumerate() {
                let round_start = total_cycles;
                let flips_before_round = flips_this_sweep;
                // The round's per-update events, added to the tally when
                // it ends.
                let (mut decided, mut copies, mut round_rereads) = (0u64, 0u64, 0u64);
                // --- loading for this round: its bits move storage ->
                // compute, streamed from DRAM first when the problem
                // overflows the storage array; the plan counts both ---
                let round_load = plan.load(sweep, round);
                plan.count_loads(&mut events, sweep, round, 1);
                if round_load > Cycles::ZERO && plan.uses_dram {
                    let inj = fault.as_mut().map(|(inj, _)| inj);
                    fault_report.dram_corrupted_bits +=
                        dram.load(Bits::new(round.storage_bits), inj);
                }

                // --- compute for this round: the kernel books each
                // tuple's discharges, the round's static events are booked
                // when it ends ---
                let mut reached = range.len();
                for (pos, i) in range.clone().enumerate() {
                    let tuple = tuples.tuple(i);
                    let h_sigma = design.compute_tuple_soa(
                        &mut tile,
                        &enc,
                        tuple,
                        soa.view(i),
                        spins.get(i),
                        &mut ctx,
                        &mut ComputeScratch,
                    );
                    debug_assert_eq!(
                        h_sigma,
                        sachi_ising::hamiltonian::local_field(graph, spins, i),
                        "hardware H_σ diverged from golden model at spin {i}"
                    );
                    // Count the cross-tuple re-reads the no-tuple-rep
                    // ablation incurs (none with tuple-rep on).
                    round_rereads += tuples.rereads(i);
                    // --- fault injection + parity + recovery ---
                    // The hardware compute above is exact; faults strike
                    // the tuple-row *fetch*. One parity bit per tuple row
                    // (derived from the tuple-rep layout) catches every
                    // odd flip count; even non-zero counts alias past it
                    // and corrupt the computed local field: the decision
                    // sees the corrupted field, the flip costs the true one.
                    let mut h_seen = h_sigma;
                    if let Some((inj, policy)) = fault.as_mut() {
                        let tuple_bits =
                            SpinTuple::storage_bits(count_u64(tuple.degree()), enc.bits());
                        let mut flips = inj.flips_in_read(tuple_bits);
                        let mut attempts = 0u32;
                        while flips % 2 == 1 {
                            fault_report.detected += 1;
                            match *policy {
                                RecoveryPolicy::FailFast => {
                                    fault_report.degraded = true;
                                    fail_fast = true;
                                    flips = 0;
                                }
                                RecoveryPolicy::RefetchRetry { max_retries } => {
                                    if attempts < max_retries {
                                        // Re-fetch the row: storage→compute
                                        // movement plus one row cycle,
                                        // serialized onto the critical path.
                                        attempts += 1;
                                        fault_report.retries += 1;
                                        fault_report.refetch_cycles +=
                                            tech.storage_to_compute_cycles() + Cycles::new(1);
                                        events.fill_bits += u128::from(tuple_bits);
                                        flips = inj.flips_in_read(tuple_bits);
                                        continue;
                                    }
                                    // Budget spent: scrub with a clean
                                    // (slow-path) refetch and carry on,
                                    // but the replica is flagged.
                                    fault_report.degraded = true;
                                    flips = 0;
                                }
                            }
                            break;
                        }
                        if fail_fast {
                            // The aborting tuple's compute ran and is
                            // billed; the rest of the round never starts.
                            reached = pos + 1;
                            break;
                        }
                        if flips > 0 {
                            // Even flip count: parity aliases. The
                            // corruption lands on one neighbor slot of
                            // the tuple, inverting that product term.
                            fault_report.undetected += 1;
                            let degree = tuple.degree();
                            if degree > 0 {
                                let slot = inj.pick_index(degree);
                                if let (Some(&j), Some(&k)) =
                                    (tuple.couplings().get(slot), tuple.neighbors().get(slot))
                                {
                                    h_seen -= 2 * i64::from(j) * spins.get(to_index(k)).value();
                                }
                            }
                        }
                    }
                    let current = spins.get(i);
                    let new = decide_update(current, h_seen, annealer);
                    decided += 1;
                    if new != current {
                        spins.set(i, new);
                        flips_this_sweep += 1;
                        delta += flip_cost(current, h_sigma);
                        // Fig. 8b update path: adjacency read + relevant
                        // tuple copy writes in the storage array; the
                        // store returns their count.
                        copies += tuples.update_spin(i, new);
                        soa.writeback_spin(&tuples, i, new);
                    }
                }
                let round_flips = flips_this_sweep - flips_before_round;
                events.annealer_decisions += u128::from(decided);
                events.flips += u128::from(round_flips);
                events.copies += u128::from(copies);
                rereads += round_rereads;
                // A round cut short by a fail-fast abort books only the
                // tuples that ran.
                let round_compute = if fail_fast {
                    plan.partial_events(range.clone(), reached)
                        .book(&mut ctx, &mut tile);
                    plan.partial_compute(range.clone(), reached)
                } else {
                    round.events.book(&mut ctx, &mut tile);
                    round.compute
                };
                compute_cycles += round_compute;
                load_cycles += round_load;
                let serialized = plan.serialized(sweep, index);
                if !serialized {
                    dram.record_round(round_compute, round_load);
                }
                total_cycles += plan.critical_path(sweep, index, round_compute, round_load);
                if trace_phases {
                    let round_no = count_u64(index);
                    let tuples_in_round = round.tuples;
                    spans.push(PhaseSpan {
                        phase: SolvePhase::Round,
                        sweep,
                        round: round_no,
                        start: round_start.get(),
                        end: total_cycles.get(),
                        events: tuples_in_round,
                    });
                    // In the serialized first round the load precedes
                    // compute; overlapped rounds start both together.
                    let compute_start = if serialized {
                        round_start + round_load
                    } else {
                        round_start
                    };
                    spans.push(PhaseSpan {
                        phase: SolvePhase::HCompute,
                        sweep,
                        round: round_no,
                        start: compute_start.get(),
                        end: (compute_start + round_compute).get(),
                        events: tuples_in_round,
                    });
                    if round_load > Cycles::ZERO && self.config.prefetch && !serialized {
                        spans.push(PhaseSpan {
                            phase: SolvePhase::Prefetch,
                            sweep,
                            round: round_no,
                            start: round_start.get(),
                            end: (round_start + round_load).get(),
                            events: 1,
                        });
                    }
                    spans.push(PhaseSpan {
                        phase: SolvePhase::Update,
                        sweep,
                        round: round_no,
                        start: total_cycles.get(),
                        end: total_cycles.get(),
                        events: round_flips,
                    });
                    if copies > 0 {
                        spans.push(PhaseSpan {
                            phase: SolvePhase::Writeback,
                            sweep,
                            round: round_no,
                            start: total_cycles.get(),
                            end: total_cycles.get(),
                            events: copies,
                        });
                    }
                }
                if fail_fast {
                    break;
                }
            }
            // Fail-fast abort: the partial sweep's cycles and flips are
            // booked, but it does not count as a completed iteration.
            SweepOutcome {
                delta,
                flips: (!fail_fast).then_some(flips_this_sweep),
            }
        });
        result.degraded = fault_report.degraded;

        // Harvest the tile's compute events (layout writes intentionally
        // excluded — counted as reload traffic above).
        let stats = tile.stats();
        events.rwl_activations = u128::from(stats.rwl_activations);
        events.rbl_discharges = approx_f64(stats.rbl_discharges);
        events.fetched_bits = u128::from(ctx.rwl_bits_fetched);
        events.adder_bit_ops = u128::from(ctx.adder_bit_ops);
        events.decisions = u128::from(ctx.decisions);

        // Recovery re-fetches stall the pipeline: they serialize onto
        // both the load tally and the critical path.
        if let Some((inj, _)) = fault.as_ref() {
            let counters = inj.counters();
            fault_report.injected_flips = counters.transient_flips;
            fault_report.corrupted_fetches = counters.reads_corrupted;
            load_cycles += fault_report.refetch_cycles;
            total_cycles += fault_report.refetch_cycles;
        }

        let report = RunReport {
            design: self.config.design,
            resolution_bits: enc.bits(),
            sweeps: result.sweeps,
            rounds_per_sweep: plan.rounds_per_sweep,
            compute_cycles,
            load_cycles,
            total_cycles,
            wall_time: total_cycles.to_time(tech.cycle_time),
            energy: plan.price(&events),
            reuse: ctx.reuse(),
            xnor_ops: ctx.xnor_ops,
            rwl_bits_fetched: ctx.rwl_bits_fetched,
            redundant_discharges: stats.redundant_discharges,
            queue_peak_bits: ctx.queue_peak_bits,
            spin_copy_updates: count_u64(events.copies),
            adjacency_reads: count_u64(events.flips),
            cross_tuple_rereads: rereads,
            prefetches: dram.stats().prefetches_issued,
            round_loads: count_u64(events.round_loads),
            fill_bits: count_u64(events.fill_bits),
            faults: fault_report,
            tile: *stats,
            dram: dram.stats(),
            phase_spans: spans,
        };
        self.resident = Some(Resident {
            graph_id,
            enc,
            tuples,
            soa,
            plan,
            spins: result.spins.clone(),
            energy: result.energy,
        });
        (result, report)
    }
}

impl IterativeSolver for SachiMachine {
    fn solve(
        &mut self,
        graph: &IsingGraph,
        initial: &SpinVector,
        options: &SolveOptions,
    ) -> SolveResult {
        self.solve_detailed(graph, initial, options).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sachi_ising::graph::topology;
    use sachi_ising::solver::CpuReferenceSolver;
    use sachi_mem::cache::{CacheGeometry, CacheHierarchy};

    fn king_setup(seed: u64) -> (IsingGraph, SpinVector, SolveOptions) {
        let g = topology::king(5, 5, |i, j| ((i * 3 + j) % 7) as i32 + 1).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let init = SpinVector::random(25, &mut rng);
        let opts = SolveOptions::for_graph(&g, seed ^ 0xabc);
        (g, init, opts)
    }

    #[test]
    fn every_design_matches_the_golden_trajectory() {
        let (g, init, opts) = king_setup(3);
        let opts = opts.with_trace();
        let mut reference = CpuReferenceSolver::new();
        let golden = reference.solve(&g, &init, &opts);
        for design in DesignKind::ALL {
            let mut machine = SachiMachine::new(SachiConfig::new(design));
            let (result, report) = machine.solve_detailed(&g, &init, &opts);
            assert_eq!(result.energy, golden.energy, "{design} final energy");
            assert_eq!(result.trace, golden.trace, "{design} H trajectory");
            assert_eq!(result.sweeps, golden.sweeps, "{design} iteration count");
            assert_eq!(result.spins, golden.spins, "{design} spins");
            assert_eq!(report.sweeps, result.sweeps);
        }
    }

    #[test]
    fn designs_rank_by_cycles_and_reuse() {
        let (g, init, opts) = king_setup(7);
        let mut by_design = std::collections::BTreeMap::new();
        for design in DesignKind::ALL {
            let mut machine = SachiMachine::new(SachiConfig::new(design));
            let (_, report) = machine.solve_detailed(&g, &init, &opts);
            by_design.insert(design, report);
        }
        // Cycles: n3 < n2 < n1b <= n1a.
        assert!(
            by_design[&DesignKind::N3].compute_cycles < by_design[&DesignKind::N2].compute_cycles
        );
        assert!(
            by_design[&DesignKind::N2].compute_cycles < by_design[&DesignKind::N1b].compute_cycles
        );
        assert!(
            by_design[&DesignKind::N1b].compute_cycles
                <= by_design[&DesignKind::N1a].compute_cycles
        );
        // Reuse: n1 ~ 1, n2 ~ R, n3 ~ N*R.
        assert!(by_design[&DesignKind::N1a].reuse < 1.5);
        assert!(by_design[&DesignKind::N2].reuse > by_design[&DesignKind::N1a].reuse);
        assert!(by_design[&DesignKind::N3].reuse > by_design[&DesignKind::N2].reuse);
        // Queue only exists for n1.
        assert!(
            by_design[&DesignKind::N1a].queue_peak_bits
                > by_design[&DesignKind::N1b].queue_peak_bits
        );
        assert_eq!(by_design[&DesignKind::N3].queue_peak_bits, 0);
        // Redundant discharges are an n1 phenomenon.
        assert!(by_design[&DesignKind::N1a].redundant_discharges > 0);
        assert_eq!(by_design[&DesignKind::N3].redundant_discharges, 0);
        // Energy: the reuse-aware design wins.
        assert!(
            by_design[&DesignKind::N3].energy.total() < by_design[&DesignKind::N1a].energy.total(),
            "n3 {} vs n1a {}",
            by_design[&DesignKind::N3].energy.total(),
            by_design[&DesignKind::N1a].energy.total()
        );
    }

    #[test]
    fn tiny_compute_array_forces_rounds_and_reloads() {
        let (g, init, opts) = king_setup(11);
        // A compute array that holds only a few tuples.
        let small = CacheHierarchy {
            compute: CacheGeometry::new(1, 4, 64, 1),
            storage: CacheGeometry::sachi_storage_default(),
        };
        let mut machine = SachiMachine::new(SachiConfig::new(DesignKind::N3).with_hierarchy(small));
        let (result, report) = machine.solve_detailed(&g, &init, &opts);
        assert!(report.rounds_per_sweep > 1, "expected multiple rounds");
        assert!(report.load_cycles > Cycles::ZERO);
        // Functional result is unaffected by geometry.
        let mut reference = CpuReferenceSolver::new();
        let golden = reference.solve(&g, &init, &opts);
        assert_eq!(result.energy, golden.energy);
    }

    #[test]
    fn small_storage_array_streams_from_dram() {
        let (g, init, opts) = king_setup(13);
        let tiny_storage = CacheHierarchy {
            compute: CacheGeometry::new(1, 4, 64, 1),
            storage: CacheGeometry::new(1, 2, 64, 2),
        };
        let mut machine =
            SachiMachine::new(SachiConfig::new(DesignKind::N3).with_hierarchy(tiny_storage));
        let (_, report) = machine.solve_detailed(&g, &init, &opts);
        assert!(report.dram.bits_loaded > 0);
        assert!(
            report.prefetches > 0,
            "prefetcher should fire on DRAM-streamed rounds"
        );
    }

    #[test]
    fn prefetch_shortens_critical_path() {
        let (g, init, opts) = king_setup(17);
        let small = CacheHierarchy {
            compute: CacheGeometry::new(1, 4, 64, 1),
            storage: CacheGeometry::new(1, 2, 64, 2),
        };
        let run = |prefetch: bool| {
            let config = if prefetch {
                SachiConfig::new(DesignKind::N2).with_hierarchy(small)
            } else {
                SachiConfig::new(DesignKind::N2)
                    .with_hierarchy(small)
                    .without_prefetch()
            };
            let mut machine = SachiMachine::new(config);
            machine.solve_detailed(&g, &init, &opts).1
        };
        let with = run(true);
        let without = run(false);
        assert!(
            with.total_cycles < without.total_cycles,
            "prefetch {} !< no-prefetch {}",
            with.total_cycles,
            without.total_cycles
        );
        // Functional behavior identical either way.
        assert_eq!(with.sweeps, without.sweeps);
    }

    #[test]
    fn tuple_rep_ablation_counts_rereads() {
        let (g, init, opts) = king_setup(19);
        let mut machine = SachiMachine::new(SachiConfig::new(DesignKind::N3).without_tuple_rep());
        let (_, report) = machine.solve_detailed(&g, &init, &opts);
        assert!(report.cross_tuple_rereads > 0);
        let mut with_rep = SachiMachine::new(SachiConfig::new(DesignKind::N3));
        let (_, rep_report) = with_rep.solve_detailed(&g, &init, &opts);
        assert_eq!(rep_report.cross_tuple_rereads, 0);
    }

    #[test]
    fn update_path_traffic_is_reported() {
        let (g, init, opts) = king_setup(23);
        let mut machine = SachiMachine::new(SachiConfig::default());
        let (result, report) = machine.solve_detailed(&g, &init, &opts);
        if result.flips > 0 {
            assert!(report.spin_copy_updates > 0);
            assert!(report.adjacency_reads > 0);
        }
        assert!(report.wall_time.get() > 0.0);
        assert!(report.cycles_per_iteration() > 0.0);
    }

    mod faults {
        use super::*;
        use crate::config::FaultProfile;
        use sachi_mem::fault::{FaultModel, FaultRate};

        fn profile(ber_ppb: u64, policy: RecoveryPolicy) -> FaultProfile {
            FaultProfile::new(FaultModel::new(0xFA17).with_read_ber(FaultRate::from_ppb(ber_ppb)))
                .with_policy(policy)
        }

        #[test]
        fn inert_profile_is_identity() {
            let (g, init, opts) = king_setup(41);
            let mut plain = SachiMachine::new(SachiConfig::new(DesignKind::N3));
            let mut faulted = SachiMachine::new(
                SachiConfig::new(DesignKind::N3)
                    .with_fault(FaultProfile::new(FaultModel::new(123))),
            );
            let (want, want_report) = plain.solve_detailed(&g, &init, &opts);
            let (got, got_report) = faulted.solve_detailed(&g, &init, &opts);
            assert_eq!(got, want, "inert fault profile changed the solve");
            assert_eq!(got_report.faults, FaultReport::default());
            assert_eq!(got_report.total_cycles, want_report.total_cycles);
            assert_eq!(got_report.load_cycles, want_report.load_cycles);
            assert!(
                (got_report.energy.total().get() - want_report.energy.total().get()).abs() < 1e-9
            );
        }

        #[test]
        fn nonzero_ber_is_deterministic() {
            let (g, init, opts) = king_setup(43);
            // ~1e-3 BER: enough activity to exercise every counter.
            let run = || {
                let mut m = SachiMachine::new(
                    SachiConfig::new(DesignKind::N2)
                        .with_fault(profile(1_000_000, RecoveryPolicy::default())),
                );
                m.solve_detailed(&g, &init, &opts)
            };
            let (a, ra) = run();
            let (b, rb) = run();
            assert_eq!(a, b);
            assert_eq!(ra.faults, rb.faults);
            assert!(ra.faults.injected_flips > 0, "BER 1e-3 never fired");
            assert_eq!(ra.total_cycles, rb.total_cycles);
        }

        #[test]
        fn failfast_aborts_on_first_detection() {
            let (g, init, opts) = king_setup(47);
            // Massive BER: a detection happens almost immediately.
            let mut m = SachiMachine::new(
                SachiConfig::new(DesignKind::N3)
                    .with_fault(profile(100_000_000, RecoveryPolicy::FailFast)),
            );
            let (result, report) = m.solve_detailed(&g, &init, &opts);
            assert!(result.degraded);
            assert!(!result.converged);
            assert!(report.faults.degraded);
            assert_eq!(report.faults.detected, 1, "fail-fast stops at the first");
            assert_eq!(report.faults.retries, 0);
            assert_eq!(result.sweeps, 0, "aborted inside the first sweep");
        }

        #[test]
        fn retry_policy_books_refetches_on_the_critical_path() {
            let (g, init, opts) = king_setup(53);
            let mut m = SachiMachine::new(SachiConfig::new(DesignKind::N3).with_fault(profile(
                10_000_000, // ~1e-2: detections every few tuples
                RecoveryPolicy::RefetchRetry { max_retries: 5 },
            )));
            let (result, report) = m.solve_detailed(&g, &init, &opts);
            assert!(report.faults.detected > 0);
            assert!(report.faults.retries > 0);
            assert!(report.faults.refetch_cycles > Cycles::ZERO);
            // Refetches serialize: the run is strictly slower than clean.
            let mut clean = SachiMachine::new(SachiConfig::new(DesignKind::N3));
            let (_, clean_report) = clean.solve_detailed(&g, &init, &opts);
            if result.sweeps == clean_report.sweeps {
                assert!(report.load_cycles > clean_report.load_cycles);
            }
            // The run completes either way; degradation only ever comes
            // from an exhausted budget, never a crash.
            assert!(result.sweeps > 0);
        }

        #[test]
        fn zero_retry_budget_degrades_but_completes() {
            let (g, init, opts) = king_setup(59);
            let mut m = SachiMachine::new(SachiConfig::new(DesignKind::N1b).with_fault(profile(
                50_000_000,
                RecoveryPolicy::RefetchRetry { max_retries: 0 },
            )));
            let (result, report) = m.solve_detailed(&g, &init, &opts);
            assert!(report.faults.detected > 0);
            assert_eq!(report.faults.retries, 0);
            assert!(report.faults.degraded);
            assert!(result.degraded);
            assert!(result.sweeps > 0, "degraded replicas still finish");
        }
    }

    #[test]
    #[should_panic(expected = "resolution override")]
    fn too_small_resolution_override_rejected() {
        let g = topology::king(3, 3, |_, _| 100).unwrap();
        let init = SpinVector::filled(9, sachi_ising::spin::Spin::Up);
        let mut machine = SachiMachine::new(SachiConfig::default().with_resolution(4));
        let _ = machine.solve_detailed(&g, &init, &SolveOptions::for_graph(&g, 0));
    }

    #[test]
    fn resolution_override_widens_encoding() {
        let (g, init, opts) = king_setup(29);
        let mut machine = SachiMachine::new(SachiConfig::new(DesignKind::N2).with_resolution(16));
        let (_, report) = machine.solve_detailed(&g, &init, &opts);
        assert_eq!(report.resolution_bits, 16);
        // Same trajectory as the reference regardless of width.
        let mut reference = CpuReferenceSolver::new();
        let golden = reference.solve(&g, &init, &opts);
        let (result, _) = machine.solve_detailed(&g, &init, &opts);
        assert_eq!(result.energy, golden.energy);
    }
}
