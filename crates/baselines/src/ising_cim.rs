//! Ising-CIM: the eDRAM compute-in-memory baseline (Xie et al., JSSC
//! 2022), modeled per Sec. V.5 of the SACHI paper.
//!
//! Ising-CIM computes spin updates inside a modified embedded-DRAM array.
//! Its architectural envelope, as the SACHI paper characterizes it:
//!
//! * King's graph only (8-neighbor lattices) — the edge-cell
//!   duplication/broadcast partitioning scheme relies on that locality;
//! * unsigned 2-bit ICs;
//! * every compute is a 2-step operation: 3 cycles to compute the updated
//!   spin value and 3 cycles to perform the local read-modify-write
//!   update (vs SACHI's 1-cycle compute+update) — "XNOR compute requires
//!   3 cycles each for computing the updated spin values and performing
//!   the update";
//! * eDRAM XNOR needs 1.2x the power of 8T SRAM due to the higher
//!   operating voltage;
//! * reuse is 1: every IC bit participates in exactly one `H_σ` compute,
//!   and the whole array row discharges per access (the Fig. 5c
//!   redundant-compute energy);
//! * partitioned graphs duplicate edge cells into adjacent arrays and
//!   broadcast updated edge spins (Fig. 8a).
//!
//! Functionally Ising-CIM computes the exact local field of every spin in
//! sequence, which is the golden sweep, so the model has no solve of its
//! own: [`CimMachine::price`] bills the golden solve's counts.

use crate::{EnvelopeError, Price, SolveCounts};
use sachi_ising::graph::IsingGraph;
use sachi_mem::energy::{EnergyComponent, EnergyLedger};
use sachi_mem::params::TechnologyParams;
use sachi_mem::units::Cycles;

/// Ising-CIM's maximum IC resolution (unsigned 2-bit).
pub const CIM_MAX_RESOLUTION: u32 = 2;
/// Maximum degree of a King's graph.
pub const KINGS_GRAPH_MAX_DEGREE: usize = 8;

/// Configuration of the Ising-CIM model.
#[derive(Debug, Clone)]
pub struct CimConfig {
    /// Technology constants shared with SACHI.
    pub tech: TechnologyParams,
    /// Cycles to compute one updated spin value (paper: 3).
    pub compute_cycles: u64,
    /// Cycles to perform the read-modify-write update (paper: 3).
    pub update_cycles: u64,
    /// Columns of one eDRAM compute array (all discharge per access).
    pub array_columns: u64,
    /// Rows of one eDRAM compute array (capacity for partitioning).
    pub array_rows: u64,
}

impl CimConfig {
    /// The paper's Ising-CIM parameters.
    pub fn paper() -> Self {
        CimConfig {
            tech: TechnologyParams::freepdk45(),
            compute_cycles: 3,
            update_cycles: 3,
            array_columns: 256,
            array_rows: 256,
        }
    }
}

impl Default for CimConfig {
    fn default() -> Self {
        CimConfig::paper()
    }
}

/// The Ising-CIM machine model.
#[derive(Debug, Clone)]
pub struct CimMachine {
    config: CimConfig,
}

impl CimMachine {
    /// Creates the paper-parameterized model.
    pub fn new() -> Self {
        CimMachine {
            config: CimConfig::paper(),
        }
    }

    /// Creates a model with an explicit configuration.
    pub fn with_config(config: CimConfig) -> Self {
        CimMachine { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CimConfig {
        &self.config
    }

    /// Checks a graph against Ising-CIM's envelope.
    ///
    /// # Errors
    ///
    /// Returns an [`EnvelopeError`] for non-King's graphs or
    /// out-of-range ICs.
    pub fn check_limits(&self, graph: &IsingGraph) -> Result<(), EnvelopeError> {
        let max_degree = graph.max_degree();
        if max_degree > KINGS_GRAPH_MAX_DEGREE {
            return Err(EnvelopeError(format!(
                "Ising-CIM supports King's graphs (degree <= 8), got degree {max_degree}"
            )));
        }
        let fields = (0..graph.num_spins()).map(|i| graph.field(i));
        match graph
            .edges()
            .map(|(_, _, w)| w)
            .chain(fields)
            .find(|v| !(0..=3).contains(v))
        {
            Some(value) => Err(EnvelopeError(format!(
                "Ising-CIM supports unsigned 2-bit ICs (0..=3), got {value}"
            ))),
            None => Ok(()),
        }
    }

    /// Cycles per sweep: each spin pays the 3+3 compute/update sequence
    /// (the 2x CPI the paper attributes to the read-modify-write).
    pub fn cycles_per_sweep(&self, spins: u64) -> u64 {
        spins * (self.config.compute_cycles + self.config.update_cycles)
    }

    /// How many compute arrays a lattice of `spins` cells needs, and how
    /// many edge cells get duplicated across array boundaries.
    pub fn partitioning(&self, spins: u64) -> (u64, u64) {
        let per_array = self.config.array_rows * self.config.array_columns
            / (2 * CIM_MAX_RESOLUTION as u64 * KINGS_GRAPH_MAX_DEGREE as u64);
        let arrays = spins.div_ceil(per_array).max(1);
        if arrays == 1 {
            return (1, 0);
        }
        // A square-ish tiling duplicates one boundary row/column per seam.
        let side = (spins as f64).sqrt().ceil() as u64;
        let seams = arrays - 1;
        (arrays, seams * side)
    }

    /// Cycles and energy of a solve with `counts`. Loading streams the
    /// spins and a King's-graph IC block per spin from DRAM into the
    /// eDRAM arrays, duplicated edge cells written twice. Each sweep then
    /// pays the 3+3-cycle compute/update per spin; per IC read the
    /// word-lines pulse and the full array row discharges (reuse 1 plus
    /// redundant columns), all at eDRAM's 1.2x power; each spin's
    /// read-modify-write update and annealer decision follow. A flip
    /// broadcasts its edge spin to the adjacent arrays once the problem
    /// spans more than one.
    pub fn price(&self, counts: &SolveCounts) -> Price {
        let tech = &self.config.tech;
        let r = u64::from(CIM_MAX_RESOLUTION);
        let edram = tech.edram_xnor_power_factor;
        let (arrays, duplicated) = self.partitioning(counts.spins);
        let payload_bits = counts.spins * (KINGS_GRAPH_MAX_DEGREE as u64 * r + 1) + duplicated * r;
        let reads = counts.ic_reads_per_sweep * counts.sweeps;
        let updates = counts.spins * counts.sweeps;
        let mut energy = EnergyLedger::new();
        energy.record(
            EnergyComponent::DramAccess,
            tech.movement_energy_per_bit() * payload_bits,
        );
        energy.record(
            EnergyComponent::SramWrite,
            tech.sram_write_energy_per_bit() * payload_bits * edram,
        );
        energy.record(
            EnergyComponent::RwlDrive,
            tech.rwl_energy_per_bit() * ((reads * r * 2) as f64 * edram),
        );
        energy.record(
            EnergyComponent::RblDischarge,
            tech.rbl_energy_per_bit() * ((reads * self.config.array_columns) as f64 * 0.5 * edram),
        );
        energy.record(
            EnergyComponent::SramWrite,
            tech.sram_write_energy_per_bit() * (updates as f64 * edram),
        );
        energy.record(
            EnergyComponent::Annealer,
            tech.annealer_energy_per_decision() * updates,
        );
        if arrays > 1 {
            energy.record(
                EnergyComponent::DataMovement,
                tech.movement_energy_per_bit() * counts.flips,
            );
        }
        Price {
            cycles: tech.dram_stream_cycles(payload_bits.div_ceil(8))
                + Cycles::new(self.cycles_per_sweep(counts.spins) * counts.sweeps),
            energy,
        }
    }
}

impl Default for CimMachine {
    fn default() -> Self {
        CimMachine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sachi_ising::graph::topology;
    use sachi_ising::solver::{CpuReferenceSolver, IterativeSolver, SolveOptions};
    use sachi_ising::spin::SpinVector;

    /// The counts of a golden solve of a 2-bit King's lattice.
    fn kings_problem_counts() -> SolveCounts {
        let g = topology::king(6, 6, |i, j| ((i + j) % 3 + 1) as i32).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let init = SpinVector::random(36, &mut rng);
        let opts = SolveOptions::for_graph(&g, 4);
        let result = CpuReferenceSolver::new().solve(&g, &init, &opts);
        SolveCounts::of(&g, &result)
    }

    #[test]
    fn envelope_enforced() {
        let cim = CimMachine::new();
        let message = |g: &IsingGraph| cim.check_limits(g).unwrap_err().to_string();
        let complete = topology::complete(10, |_, _| 1).unwrap();
        assert_eq!(
            message(&complete),
            "Ising-CIM supports King's graphs (degree <= 8), got degree 9"
        );
        let signed = topology::king(3, 3, |_, _| -1).unwrap();
        assert_eq!(
            message(&signed),
            "Ising-CIM supports unsigned 2-bit ICs (0..=3), got -1"
        );
        let wide = topology::king(3, 3, |_, _| 4).unwrap();
        assert_eq!(
            message(&wide),
            "Ising-CIM supports unsigned 2-bit ICs (0..=3), got 4"
        );
        let ok = topology::king(3, 3, |_, _| 3).unwrap();
        assert!(cim.check_limits(&ok).is_ok());
    }

    #[test]
    fn two_cycle_compute_update_sequence() {
        let cim = CimMachine::new();
        // 3 + 3 cycles per spin per sweep.
        assert_eq!(cim.cycles_per_sweep(500), 3_000);
        assert_eq!(cim.cycles_per_sweep(1_000_000), 6_000_000);
    }

    #[test]
    fn partitioning_duplicates_edge_cells() {
        let cim = CimMachine::new();
        let (arrays_small, dup_small) = cim.partitioning(500);
        assert_eq!(arrays_small, 1);
        assert_eq!(dup_small, 0);
        let (arrays_big, dup_big) = cim.partitioning(1_000_000);
        assert!(arrays_big > 1);
        assert!(dup_big > 0);
    }

    #[test]
    fn edram_factor_inflates_energy() {
        let counts = kings_problem_counts();
        let base = CimMachine::new().price(&counts);
        let mut cheaper_config = CimConfig::paper();
        cheaper_config.tech.edram_xnor_power_factor = 1.0;
        let flat = CimMachine::with_config(cheaper_config).price(&counts);
        assert!(base.energy.total() > flat.energy.total());
    }
}
