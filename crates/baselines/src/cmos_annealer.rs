//! CMOS annealing baseline: a Hitachi-style dedicated digital Ising chip
//! (Yamaoka et al., JSSC 2016 — the paper’s reference \[36\]).
//!
//! The third machine generation the paper positions SACHI against:
//! spins live in on-chip SRAM next to dedicated update logic; groups of
//! non-adjacent cells update *in parallel* each phase. Its envelope is
//! narrow — King's-graph connectivity, ternary coefficients
//! `{-1, 0, +1}`, 20k spins per chip — and, unlike every iterative
//! machine in this workspace, its **group-parallel update follows a
//! different trajectory** than the sequential golden protocol: cells in
//! one group see only the *previous* values of cells updated later. The
//! tests demonstrate both facts: trajectories differ, final solution
//! quality is comparable.
//!
//! A proper King's-graph update grouping needs 4 colors (the 2x2 block
//! classes): two same-class cells are never adjacent, so a phase's
//! parallel updates never race. The envelope check enforces that
//! adjacency itself — every edge must join King's-lattice neighbours in
//! the chip's row-major layout — not just the degree bound.

use crate::{EnvelopeError, Price, SolveCounts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sachi_ising::graph::IsingGraph;
use sachi_ising::hamiltonian::{energy, flip_cost, local_field, update_rule};
use sachi_ising::solver::{run_sweeps, SolveOptions, SolveResult, SweepOutcome};
use sachi_ising::spin::SpinVector;
use sachi_mem::energy::{EnergyComponent, EnergyLedger};
use sachi_mem::params::TechnologyParams;
use sachi_mem::units::Cycles;

/// Chip capacity (the JSSC chip: 20k spins).
pub const CMOS_ANNEALER_MAX_SPINS: usize = 20_000;

/// The group-parallel dedicated annealer.
#[derive(Debug, Clone)]
pub struct CmosAnnealer {
    tech: TechnologyParams,
    /// Cycles one parallel group phase takes (local read + MAC + write).
    pub cycles_per_phase: u64,
    /// Lattice width used to derive the 4-coloring; spins index as
    /// `row * width + col`.
    width: usize,
}

impl CmosAnnealer {
    /// Creates a chip model for a lattice of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "lattice width must be positive");
        CmosAnnealer {
            tech: TechnologyParams::freepdk45(),
            cycles_per_phase: 2,
            width,
        }
    }

    /// Checks the chip's envelope: the spin count, King's-lattice
    /// adjacency at the chip's width (which bounds the degree at 8 and
    /// keeps every update group free of internal edges), and ternary
    /// coefficients.
    ///
    /// # Errors
    ///
    /// Returns an [`EnvelopeError`] outside the envelope.
    pub fn check_limits(&self, graph: &IsingGraph) -> Result<(), EnvelopeError> {
        let spins = graph.num_spins();
        if spins > CMOS_ANNEALER_MAX_SPINS {
            return Err(EnvelopeError(format!(
                "CMOS annealer holds {CMOS_ANNEALER_MAX_SPINS} spins, got {spins}"
            )));
        }
        for (u, v, w) in graph.edges() {
            let ((ru, cu), (rv, cv)) = (self.cell(u as usize), self.cell(v as usize));
            if ru.abs_diff(rv) > 1 || cu.abs_diff(cv) > 1 {
                return Err(EnvelopeError(format!(
                    "CMOS annealer supports King's graphs, but edge ({u}, {v}) joins \
                     non-adjacent lattice cells"
                )));
            }
            if !(-1..=1).contains(&w) {
                return Err(EnvelopeError(format!(
                    "CMOS annealer supports ternary coefficients, got {w}"
                )));
            }
        }
        Ok(())
    }

    /// The lattice cell `(row, col)` of spin `i`.
    fn cell(&self, i: usize) -> (usize, usize) {
        (i / self.width, i % self.width)
    }

    /// The 2x2-block update group of spin `i` (0..4).
    fn group_of(&self, i: usize) -> usize {
        let (r, c) = self.cell(i);
        (r % 2) * 2 + (c % 2)
    }

    /// Cycles per sweep: 4 group phases, each a fixed-latency parallel
    /// read-MAC-write — the dedicated-logic speed the paper concedes to
    /// this generation, bought with its narrow envelope.
    pub fn cycles_per_sweep(&self) -> u64 {
        4 * self.cycles_per_phase
    }

    /// Cycles and energy of a solve with `counts`. Loading writes the
    /// spins and the ternary ICs (2 bits each, both directions) from DRAM
    /// into the on-chip SRAM. Each sweep's 4 group phases then read every
    /// cell's 8 neighbour spins and ICs into its MAC, each flip writes its
    /// cell back, and every spin takes one annealer decision.
    pub fn price(&self, counts: &SolveCounts) -> Price {
        let tech = &self.tech;
        let payload_bits = counts.spins + 2 * counts.stored_ics * 2;
        // A phase updates a quarter of the cells; a sweep runs 4 phases.
        let macs = counts.spins / 4 * 8 * 4 * counts.sweeps;
        let mut energy = EnergyLedger::new();
        energy.record(
            EnergyComponent::DramAccess,
            tech.movement_energy_per_bit() * payload_bits,
        );
        energy.record(
            EnergyComponent::SramWrite,
            tech.sram_write_energy_per_bit() * (payload_bits + counts.flips),
        );
        energy.record(
            EnergyComponent::SramRead,
            tech.rbl_energy_per_bit() * (macs * 3),
        );
        energy.record(
            EnergyComponent::NearMemoryAdd,
            tech.adder_energy_per_bit() * (macs * 2),
        );
        energy.record(
            EnergyComponent::Annealer,
            tech.annealer_energy_per_decision() * (counts.spins * counts.sweeps),
        );
        Price {
            cycles: tech.dram_stream_cycles(payload_bits.div_ceil(8))
                + Cycles::new(self.cycles_per_sweep() * counts.sweeps),
            energy,
        }
    }

    /// Runs a group-parallel annealed solve. The sweep cap, cancellation,
    /// convergence and result come from the shared [`run_sweeps`] driver,
    /// but the per-sweep body does *not* follow the sequential update
    /// order — within a phase every cell sees the pre-phase state of its
    /// own group (they are never adjacent, so this equals the sequential
    /// result *within* the group, and the phase's ΔH is the sum of its
    /// flips' costs at the pre-phase fields), but groups see each other's
    /// latest values only between phases.
    ///
    /// Returns the result and its [`price`](Self::price).
    ///
    /// # Errors
    ///
    /// Returns an [`EnvelopeError`] if the graph violates the envelope.
    ///
    /// # Panics
    ///
    /// Panics if `initial.len()` does not match the graph.
    pub fn solve_detailed(
        &mut self,
        graph: &IsingGraph,
        initial: &SpinVector,
        options: &SolveOptions,
    ) -> Result<(SolveResult, Price), EnvelopeError> {
        self.check_limits(graph)?;
        let n = graph.num_spins();
        let mut rng = StdRng::seed_from_u64(options.seed ^ 0xc3_05);
        let h_start = energy(graph, initial);
        let result = run_sweeps(graph, initial, h_start, options, |_, spins, annealer| {
            let (mut flips, mut delta) = (0u64, 0i64);
            for group in 0..4usize {
                // All cells of one group update in parallel from the
                // current state (no intra-group adjacency).
                let mut updates = Vec::new();
                for i in (0..n).filter(|&i| self.group_of(i) == group) {
                    let h = local_field(graph, spins, i);
                    let current = spins.get(i);
                    let mut new = update_rule(h, current);
                    // Hitachi-style annealing: random bit injection with
                    // probability tied to the shared schedule temperature.
                    if new == current {
                        let p = annealer.probability(2 * h.abs().max(1));
                        if p > 0.0 && rng.gen::<f64>() < p {
                            new = current.flipped();
                        }
                    }
                    if new != current {
                        updates.push((i, new, flip_cost(current, h)));
                    }
                }
                for &(i, new, cost) in &updates {
                    spins.set(i, new);
                    flips += 1;
                    delta += cost;
                }
            }
            SweepOutcome {
                delta,
                flips: Some(flips),
            }
        });
        let price = self.price(&SolveCounts::of(graph, &result));
        Ok((result, price))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sachi_ising::graph::{topology, GraphBuilder};
    use sachi_ising::solver::{CpuReferenceSolver, IterativeSolver};

    fn lattice(side: usize, seed: u64) -> (IsingGraph, SpinVector, SolveOptions) {
        let g = topology::king(side, side, |_, _| 1).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let init = SpinVector::random(side * side, &mut rng);
        let opts = SolveOptions::for_graph(&g, seed + 1).with_trace();
        (g, init, opts)
    }

    #[test]
    fn group_coloring_is_proper_for_kings_graph() {
        let side = 8;
        let g = topology::king(side, side, |_, _| 1).unwrap();
        let chip = CmosAnnealer::new(side);
        for (u, v, _) in g.edges() {
            assert_ne!(
                chip.group_of(u as usize),
                chip.group_of(v as usize),
                "adjacent cells {u},{v} share an update group"
            );
        }
    }

    #[test]
    fn envelope_enforced() {
        let chip = CmosAnnealer::new(3);
        let dense = topology::complete(10, |_, _| 1).unwrap();
        assert_eq!(
            chip.check_limits(&dense).unwrap_err().to_string(),
            "CMOS annealer supports King's graphs, but edge (0, 2) joins non-adjacent lattice cells"
        );
        let heavy = topology::king(3, 3, |_, _| 2).unwrap();
        assert_eq!(
            chip.check_limits(&heavy).unwrap_err().to_string(),
            "CMOS annealer supports ternary coefficients, got 2"
        );
        let fine = topology::king(3, 3, |_, _| 1).unwrap();
        assert!(chip.check_limits(&fine).is_ok());
        let big = topology::king(150, 150, |_, _| 1).unwrap();
        assert_eq!(
            CmosAnnealer::new(150)
                .check_limits(&big)
                .unwrap_err()
                .to_string(),
            "CMOS annealer holds 20000 spins, got 22500"
        );
    }

    #[test]
    fn a_ring_that_wraps_across_the_lattice_is_not_a_kings_graph() {
        // Degree 2 everywhere, but at width 3 the closing edge (8, 0)
        // joins cells (2, 2) and (0, 0): both in update group 0, so a
        // parallel phase would race on it.
        let mut b = GraphBuilder::new(9);
        for i in 0..9u32 {
            b.push_edge(i, (i + 1) % 9, 1);
        }
        let ring = b.build().unwrap();
        let chip = CmosAnnealer::new(3);
        assert_eq!(chip.group_of(8), chip.group_of(0));
        let err = chip.check_limits(&ring).unwrap_err().to_string();
        assert!(err.contains("edge (0, 8)"), "{err}");
        // A King's lattice is in the envelope at its own width only.
        let lattice = topology::king(3, 3, |_, _| 1).unwrap();
        assert!(chip.check_limits(&lattice).is_ok());
        assert!(CmosAnnealer::new(4).check_limits(&lattice).is_err());
    }

    #[test]
    fn ferromagnet_reaches_comparable_quality_despite_different_trajectory() {
        let (g, init, opts) = lattice(8, 3);
        let mut chip = CmosAnnealer::new(8);
        let (chip_result, price) = chip.solve_detailed(&g, &init, &opts).unwrap();
        let golden = CpuReferenceSolver::new().solve(&g, &init, &opts);
        // Different update semantics -> different trajectory...
        assert_ne!(
            chip_result.trace, golden.trace,
            "group-parallel should diverge"
        );
        // ...but comparable final quality on the ferromagnet.
        let bound = golden.energy + (golden.energy.abs() / 5);
        assert!(
            chip_result.energy <= bound,
            "chip energy {} much worse than golden {}",
            chip_result.energy,
            golden.energy
        );
        assert!(price.energy.total().get() > 0.0);
    }

    #[test]
    fn sweep_cost_is_constant_in_problem_size() {
        let small = CmosAnnealer::new(8);
        let large = CmosAnnealer::new(100);
        assert_eq!(small.cycles_per_sweep(), large.cycles_per_sweep());
        assert_eq!(small.cycles_per_sweep(), 8);
    }

    #[test]
    fn dedicated_chip_is_faster_in_envelope_than_sachi_per_sweep() {
        // The trade the paper describes: generation-3 dedicated logic is
        // fast inside its narrow envelope; SACHI is general.
        let chip = CmosAnnealer::new(100);
        // SACHI n3 on a 10K-spin King's lattice: ~10000/16 cycles/sweep.
        let sachi_per_sweep = 10_000u64 / 16;
        assert!(chip.cycles_per_sweep() < sachi_per_sweep);
        // ...but it cannot touch a 4-bit problem at all.
        let heavy = topology::king(4, 4, |_, _| 5).unwrap();
        assert!(chip.check_limits(&heavy).is_err());
    }
}
