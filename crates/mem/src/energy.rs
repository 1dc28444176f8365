//! Append-only energy accounting.
//!
//! Every architectural event in the simulator books its energy against a
//! [`EnergyComponent`], so a solve produces not just a total but the same
//! breakdown the paper uses to argue about redundant compute (RBL
//! discharges), data movement, and converter overheads (BRIM's DAC).

use crate::units::Picojoules;
use std::fmt;

/// The architectural source of an energy expenditure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EnergyComponent {
    /// Read word-line activation during in-memory compute.
    RwlDrive,
    /// Read bit-line discharge (includes redundant-compute discharges).
    RblDischarge,
    /// SRAM write (fills, spin write-back).
    SramWrite,
    /// SRAM normal-mode read.
    SramRead,
    /// Storage-array to compute-array movement.
    DataMovement,
    /// Near-memory full adders (shift-and-add, accumulation).
    NearMemoryAdd,
    /// Decision logic choosing XNOR vs XNOR+1 (eqn. 4/5 select).
    DecisionLogic,
    /// Simulated-annealing block (Metropolis compare/flip).
    Annealer,
    /// DRAM array access when loading spins/ICs.
    DramAccess,
    /// DRAM controller / prefetch bookkeeping.
    DramController,
    /// BRIM coupled-oscillator fabric.
    Oscillator,
    /// BRIM per-bank DACs.
    Dac,
    /// Miscellaneous synthesized digital logic (muxes, flops).
    DigitalLogic,
}

impl EnergyComponent {
    /// All components, in ledger order.
    pub const ALL: [EnergyComponent; 13] = [
        EnergyComponent::RwlDrive,
        EnergyComponent::RblDischarge,
        EnergyComponent::SramWrite,
        EnergyComponent::SramRead,
        EnergyComponent::DataMovement,
        EnergyComponent::NearMemoryAdd,
        EnergyComponent::DecisionLogic,
        EnergyComponent::Annealer,
        EnergyComponent::DramAccess,
        EnergyComponent::DramController,
        EnergyComponent::Oscillator,
        EnergyComponent::Dac,
        EnergyComponent::DigitalLogic,
    ];

    /// Short label used in harness tables.
    pub fn label(self) -> &'static str {
        match self {
            EnergyComponent::RwlDrive => "rwl",
            EnergyComponent::RblDischarge => "rbl",
            EnergyComponent::SramWrite => "sram-write",
            EnergyComponent::SramRead => "sram-read",
            EnergyComponent::DataMovement => "movement",
            EnergyComponent::NearMemoryAdd => "adder",
            EnergyComponent::DecisionLogic => "decision",
            EnergyComponent::Annealer => "annealer",
            EnergyComponent::DramAccess => "dram",
            EnergyComponent::DramController => "dram-ctrl",
            EnergyComponent::Oscillator => "oscillator",
            EnergyComponent::Dac => "dac",
            EnergyComponent::DigitalLogic => "logic",
        }
    }

    #[inline]
    fn index(self) -> usize {
        match self {
            EnergyComponent::RwlDrive => 0,
            EnergyComponent::RblDischarge => 1,
            EnergyComponent::SramWrite => 2,
            EnergyComponent::SramRead => 3,
            EnergyComponent::DataMovement => 4,
            EnergyComponent::NearMemoryAdd => 5,
            EnergyComponent::DecisionLogic => 6,
            EnergyComponent::Annealer => 7,
            EnergyComponent::DramAccess => 8,
            EnergyComponent::DramController => 9,
            EnergyComponent::Oscillator => 10,
            EnergyComponent::Dac => 11,
            EnergyComponent::DigitalLogic => 12,
        }
    }
}

impl fmt::Display for EnergyComponent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-component energy ledger.
///
/// ```
/// use sachi_mem::energy::{EnergyComponent, EnergyLedger};
/// use sachi_mem::units::Picojoules;
///
/// let mut ledger = EnergyLedger::new();
/// ledger.record(EnergyComponent::RwlDrive, Picojoules::new(0.05));
/// ledger.record(EnergyComponent::RblDischarge, Picojoules::new(0.035));
/// assert!((ledger.total().get() - 0.085).abs() < 1e-12);
/// assert!((ledger.component(EnergyComponent::RwlDrive).get() - 0.05).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EnergyLedger {
    entries: [f64; 13],
}

impl EnergyLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        EnergyLedger::default()
    }

    /// Books `energy` against `component`.
    pub fn record(&mut self, component: EnergyComponent, energy: Picojoules) {
        self.entries[component.index()] += energy.get();
    }

    /// Energy booked against one component so far.
    pub fn component(&self, component: EnergyComponent) -> Picojoules {
        Picojoules::new(self.entries[component.index()])
    }

    /// Total energy across all components.
    pub fn total(&self) -> Picojoules {
        Picojoules::new(self.entries.iter().sum())
    }

    /// Exports per-component and total energy as `energy_*_pj` gauges.
    pub fn export(&self, reg: &mut sachi_obs::MetricsRegistry) {
        for component in EnergyComponent::ALL {
            let pj = self.component(component).get();
            if pj > 0.0 {
                let name = format!("energy_{}_pj", component.label().replace('-', "_"));
                reg.gauge_set(&name, pj);
            }
        }
        reg.gauge_set("energy_total_pj", self.total().get());
    }

    /// Adds every entry of `other` into `self` (merging tile ledgers).
    pub fn merge(&mut self, other: &EnergyLedger) {
        for (a, b) in self.entries.iter_mut().zip(other.entries.iter()) {
            *a += b;
        }
    }

    /// Iterates `(component, energy)` pairs with non-zero energy.
    pub fn iter(&self) -> impl Iterator<Item = (EnergyComponent, Picojoules)> + '_ {
        EnergyComponent::ALL
            .iter()
            .copied()
            .filter(|c| self.entries[c.index()] > 0.0)
            .map(|c| (c, Picojoules::new(self.entries[c.index()])))
    }

    /// True if nothing has been booked.
    pub fn is_empty(&self) -> bool {
        self.entries.iter().all(|&e| e == 0.0)
    }
}

impl fmt::Display for EnergyLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "EnergyLedger(empty)");
        }
        write!(f, "EnergyLedger(total={}", self.total())?;
        for (c, e) in self.iter() {
            write!(f, ", {c}={e}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_total() {
        let mut l = EnergyLedger::new();
        assert!(l.is_empty());
        l.record(EnergyComponent::Dac, Picojoules::new(2.0));
        l.record(EnergyComponent::Dac, Picojoules::new(3.0));
        l.record(EnergyComponent::Oscillator, Picojoules::new(10.0));
        assert!((l.component(EnergyComponent::Dac).get() - 5.0).abs() < 1e-12);
        assert!((l.total().get() - 15.0).abs() < 1e-12);
        assert!(!l.is_empty());
    }

    #[test]
    fn merge_adds_componentwise() {
        let mut a = EnergyLedger::new();
        a.record(EnergyComponent::RwlDrive, Picojoules::new(1.0));
        let mut b = EnergyLedger::new();
        b.record(EnergyComponent::RwlDrive, Picojoules::new(2.0));
        b.record(EnergyComponent::Annealer, Picojoules::new(0.5));
        a.merge(&b);
        assert!((a.component(EnergyComponent::RwlDrive).get() - 3.0).abs() < 1e-12);
        assert!((a.component(EnergyComponent::Annealer).get() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn iter_skips_zero_components() {
        let mut l = EnergyLedger::new();
        l.record(EnergyComponent::SramWrite, Picojoules::new(4.0));
        let items: Vec<_> = l.iter().collect();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].0, EnergyComponent::SramWrite);
    }

    #[test]
    fn all_components_have_distinct_indices_and_labels() {
        let mut seen = std::collections::BTreeSet::new();
        let mut labels = std::collections::BTreeSet::new();
        for c in EnergyComponent::ALL {
            assert!(seen.insert(c.index()), "duplicate index for {c:?}");
            assert!(labels.insert(c.label()), "duplicate label for {c:?}");
        }
        assert_eq!(seen.len(), 13);
    }

    #[test]
    fn display_formats() {
        let mut l = EnergyLedger::new();
        assert_eq!(format!("{l}"), "EnergyLedger(empty)");
        l.record(EnergyComponent::RwlDrive, Picojoules::new(1.0));
        let s = format!("{l}");
        assert!(s.contains("rwl=1.000 pJ"), "{s}");
    }
}
