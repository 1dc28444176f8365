//! BRIM: the bistable resistively-coupled Ising machine baseline
//! (Afoakwa et al., HPCA 2021), modeled per Sec. V.5 of the SACHI paper.
//!
//! BRIM stores spins on capacitors and programs ICs as resistances through
//! ZIV diodes, with per-bank DACs converting digital ICs into analog
//! levels. The SACHI paper compares against an analytic model of BRIM, not
//! against silicon, with these parameters (all from Sec. V.5):
//!
//! * H compute takes 4–13 cycles; the *best case* (used for comparison)
//!   is 1 cycle each for memory read, DAC, oscillator compute, and
//!   annealing control;
//! * spins update serially in practice: the storage capacitor delays fast
//!   0→1 transitions and leakage through unconnected paths corrupts nodes
//!   near the ZIV trip point, defeating the nominal analog parallelism;
//! * 16 banks, one 8-bit DAC per bank (0.004 mW each) with 16:1 muxes and
//!   16x8 flops per bank;
//! * coupled-oscillator power is 250 mW for 2000 spins at 100 neighbors
//!   each, proportional to `spins x neighbors`;
//! * reuse is 1 — every IC fetched from memory feeds exactly one compute;
//! * maximum resolution: signed 4-bit; maximum problem size: 1000 nodes
//!   (Fig. 3).
//!
//! Functionally BRIM computes the exact local field of every spin in
//! sequence, which is the golden sweep, so the model has no solve of its
//! own: [`BrimMachine::price`] bills the golden solve's counts, and only
//! the cycle/energy accounting is BRIM's.

use crate::{EnvelopeError, Price, SolveCounts};
use sachi_ising::graph::IsingGraph;
use sachi_mem::energy::{EnergyComponent, EnergyLedger};
use sachi_mem::params::TechnologyParams;
use sachi_mem::units::{Cycles, Picojoules};

/// BRIM's architectural limits (Fig. 3).
pub const BRIM_MAX_NODES: usize = 1_000;
/// BRIM's maximum IC resolution in bits (signed 4-bit).
pub const BRIM_MAX_RESOLUTION: u32 = 4;

/// Configuration of the BRIM model.
#[derive(Debug, Clone)]
pub struct BrimConfig {
    /// Technology constants shared with SACHI for a fair comparison.
    pub tech: TechnologyParams,
    /// Base cycles per H compute (read + DAC + oscillator + anneal);
    /// best case 4, worst case 13.
    pub cycles_per_h: u64,
    /// Number of DAC banks (ICs converted per cycle).
    pub dac_banks: u64,
    /// Oscillator fabric power at the 2000-spin / 100-neighbor reference
    /// point, in milliwatts.
    pub oscillator_ref_mw: f64,
    /// Power of one DAC, in milliwatts.
    pub dac_mw: f64,
    /// Mux/flop digital logic power per bank, in milliwatts.
    pub bank_logic_mw: f64,
}

impl BrimConfig {
    /// The paper's best-case BRIM (the variant it compares SACHI against).
    pub fn best_case() -> Self {
        BrimConfig {
            tech: TechnologyParams::freepdk45(),
            cycles_per_h: 4,
            dac_banks: 16,
            oscillator_ref_mw: 250.0,
            dac_mw: 0.004,
            bank_logic_mw: 0.01,
        }
    }

    /// The paper's worst-case BRIM (13 cycles per H compute).
    pub fn worst_case() -> Self {
        BrimConfig {
            cycles_per_h: 13,
            ..BrimConfig::best_case()
        }
    }
}

impl Default for BrimConfig {
    fn default() -> Self {
        BrimConfig::best_case()
    }
}

/// The BRIM machine model.
#[derive(Debug, Clone)]
pub struct BrimMachine {
    config: BrimConfig,
}

impl BrimMachine {
    /// Creates a best-case BRIM.
    pub fn new() -> Self {
        BrimMachine {
            config: BrimConfig::best_case(),
        }
    }

    /// Creates a BRIM with an explicit configuration.
    pub fn with_config(config: BrimConfig) -> Self {
        BrimMachine { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BrimConfig {
        &self.config
    }

    /// Checks a graph against BRIM's architectural limits.
    ///
    /// # Errors
    ///
    /// Returns an [`EnvelopeError`] if the graph exceeds 1000 nodes or
    /// needs more than signed 4-bit coefficients.
    pub fn check_limits(&self, graph: &IsingGraph) -> Result<(), EnvelopeError> {
        let nodes = graph.num_spins();
        if nodes > BRIM_MAX_NODES {
            return Err(EnvelopeError(format!(
                "BRIM supports at most {BRIM_MAX_NODES} nodes, got {nodes}"
            )));
        }
        let required = graph.bits_required();
        if required > BRIM_MAX_RESOLUTION {
            return Err(EnvelopeError(format!(
                "BRIM supports signed {BRIM_MAX_RESOLUTION}-bit ICs, graph needs {required}-bit"
            )));
        }
        Ok(())
    }

    /// Cycles one sweep takes: spins update serially (capacitor settling +
    /// leakage defeat the nominal analog parallelism), each paying the
    /// base pipeline plus a *sequential* DAC conversion of its
    /// neighborhood — one IC per cycle through the spin's bank DAC (the
    /// 16 banks serve different array regions, not one spin's fan-in).
    pub fn cycles_per_sweep(&self, spins: u64, max_degree: u64) -> u64 {
        spins * (self.config.cycles_per_h + max_degree.max(1))
    }

    /// Oscillator fabric power for a problem, scaled from the 2000x100
    /// reference point.
    pub fn oscillator_power_mw(&self, spins: u64, max_degree: u64) -> f64 {
        self.config.oscillator_ref_mw * (spins as f64 * max_degree as f64) / (2_000.0 * 100.0)
    }

    /// Cycles and energy of a solve with `counts`: the IC programming
    /// (every stored coupling written once from DRAM), then per sweep the
    /// serial [`cycles_per_sweep`](Self::cycles_per_sweep), the IC
    /// re-fetch at reuse 1 (every IC read is fetched and DAC-converted
    /// for that one compute), the oscillator, DAC and bank-logic power
    /// over the sweep's duration, and one annealer decision per spin.
    pub fn price(&self, counts: &SolveCounts) -> Price {
        let tech = &self.config.tech;
        let r = u64::from(BRIM_MAX_RESOLUTION);
        let program_bits = 2 * counts.stored_ics * r;
        let sweep_cycles = self.cycles_per_sweep(counts.spins, counts.max_degree);
        let sweep_ns = Cycles::new(sweep_cycles).to_time(tech.cycle_time).get();
        let banks = self.config.dac_banks as f64;
        let mut energy = EnergyLedger::new();
        energy.record(
            EnergyComponent::DramAccess,
            tech.movement_energy_per_bit() * program_bits,
        );
        energy.record(
            EnergyComponent::DataMovement,
            tech.movement_energy_per_bit() * (counts.ic_reads_per_sweep * r * counts.sweeps),
        );
        // Power integrated over the sweeps: mW x ns = pJ.
        for (component, mw) in [
            (
                EnergyComponent::Oscillator,
                self.oscillator_power_mw(counts.spins, counts.max_degree),
            ),
            (EnergyComponent::Dac, self.config.dac_mw * banks),
            (
                EnergyComponent::DigitalLogic,
                self.config.bank_logic_mw * banks,
            ),
        ] {
            energy.record(
                component,
                Picojoules::new(mw * sweep_ns * counts.sweeps as f64),
            );
        }
        energy.record(
            EnergyComponent::Annealer,
            tech.annealer_energy_per_decision() * (counts.spins * counts.sweeps),
        );
        Price {
            cycles: tech.dram_stream_cycles(program_bits.div_ceil(8))
                + Cycles::new(sweep_cycles * counts.sweeps),
            energy,
        }
    }
}

impl Default for BrimMachine {
    fn default() -> Self {
        BrimMachine::new()
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

    /// The counts of a golden solve of a small signed King's lattice.
    fn small_problem_counts() -> SolveCounts {
        let g = topology::king(5, 5, |i, j| ((i + j) % 7) as i32 - 3).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let init = SpinVector::random(25, &mut rng);
        let opts = SolveOptions::for_graph(&g, 2);
        let result = CpuReferenceSolver::new().solve(&g, &init, &opts);
        SolveCounts::of(&g, &result)
    }

    #[test]
    fn limits_enforced() {
        let brim = BrimMachine::new();
        let big = topology::star(1_001, |_| 1).unwrap();
        assert_eq!(
            brim.check_limits(&big).unwrap_err().to_string(),
            "BRIM supports at most 1000 nodes, got 1001"
        );
        let precise = topology::star(4, |_| 100).unwrap();
        assert_eq!(
            brim.check_limits(&precise).unwrap_err().to_string(),
            "BRIM supports signed 4-bit ICs, graph needs 8-bit"
        );
        let fine = topology::star(100, |_| 7).unwrap();
        assert!(brim.check_limits(&fine).is_ok());
    }

    #[test]
    fn cycles_scale_serially_with_spins_and_neighbors() {
        let brim = BrimMachine::new();
        // 4 base cycles + one sequential DAC cycle per IC.
        assert_eq!(brim.cycles_per_sweep(1_000, 1), 5_000);
        assert_eq!(brim.cycles_per_sweep(1_000, 8), 12_000);
        // Complete 1K graph: 999 sequential conversions per spin.
        assert_eq!(brim.cycles_per_sweep(1_000, 999), 1_003_000);
    }

    #[test]
    fn oscillator_power_matches_reference_point() {
        let brim = BrimMachine::new();
        assert!((brim.oscillator_power_mw(2_000, 100) - 250.0).abs() < 1e-9);
        assert!((brim.oscillator_power_mw(1_000, 100) - 125.0).abs() < 1e-9);
        assert!(brim.oscillator_power_mw(1_000, 999) > brim.oscillator_power_mw(1_000, 8));
    }

    #[test]
    fn worst_case_is_slower_than_best_case() {
        let counts = small_problem_counts();
        let best = BrimMachine::new().price(&counts);
        let worst = BrimMachine::with_config(BrimConfig::worst_case()).price(&counts);
        assert!(worst.cycles > best.cycles);
    }

    #[test]
    fn energy_ledger_contains_brim_specific_components() {
        let price = BrimMachine::new().price(&small_problem_counts());
        assert!(price.energy.component(EnergyComponent::Oscillator).get() > 0.0);
        assert!(price.energy.component(EnergyComponent::Dac).get() > 0.0);
        assert!(price.energy.component(EnergyComponent::DataMovement).get() > 0.0);
        assert!(price.cycles.get() > 0);
    }
}
