//! Five-phase pipeline timing (Fig. 11f).
//!
//! A SACHI `H_σ` compute flows through: (1) in-memory XNOR, (2) XNOR
//! queue, (3) shift-and-add + decision, (4) full-adder accumulation
//! initialized with the external field, (5) negation + simulated
//! annealing. Phases 1–4 overlap across tuples; what differs per design is
//! when phase 3 can *first* activate — the "idle time" — and how big the
//! phase-2 queue must be.

use crate::config::DesignKind;
use crate::designs::stationarity;

/// Closed-form schedule of one tuple's compute under a design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSchedule {
    /// Which design this schedule describes.
    pub design: DesignKind,
    /// Phase-1 in-memory compute cycles.
    pub phase1_cycles: u64,
    /// Cycles phases 3–5 sit idle before their first activation.
    pub idle_cycles: u64,
    /// Minimum XNOR-queue capacity in bits.
    pub queue_bits: u64,
    /// SRAM read throughput in XNOR bits per cycle.
    pub throughput_bits_per_cycle: u64,
    /// Total latency from first RWL pulse to the annealer decision.
    pub total_latency_cycles: u64,
}

impl PhaseSchedule {
    /// Builds the schedule for a tuple of `n` neighbors at resolution `r`
    /// with `row_bits`-wide compute rows.
    pub fn new(design: DesignKind, n: u64, r: u32, row_bits: u64) -> Self {
        let d = stationarity(design);
        let phase1 = d.phase1_cycles(n, r, row_bits);
        let idle = d.idle_cycles(n, r);
        let queue = d.xnor_queue_bits(n, r);
        let throughput = match design {
            DesignKind::N1a | DesignKind::N1b => 1,
            DesignKind::N2 => r as u64,
            DesignKind::N3 => (n * (r as u64 + 1)).div_ceil(phase1.max(1)),
        };
        // Tail: decision (1) + accumulate (1) + negate/anneal (1).
        let total = phase1 + 3;
        PhaseSchedule {
            design,
            phase1_cycles: phase1,
            idle_cycles: idle,
            queue_bits: queue,
            throughput_bits_per_cycle: throughput,
            total_latency_cycles: total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11f_idle_times() {
        // 4x3-image example of Fig. 11: N = 2 neighbors shown per tuple
        // at R = 3 (take N = 2, R = 3).
        let n1a = PhaseSchedule::new(DesignKind::N1a, 2, 3, 800);
        let n1b = PhaseSchedule::new(DesignKind::N1b, 2, 3, 800);
        // n1a waits (R-1)*N + 1 cycles; n1b only R.
        assert_eq!(n1a.idle_cycles, 5);
        assert_eq!(n1b.idle_cycles, 3);
        assert!(n1b.idle_cycles < n1a.idle_cycles);
        // Queue: N*(R+1) = 8 bits vs a single R+1 = 4-bit entry.
        assert_eq!(n1a.queue_bits, 8);
        assert_eq!(n1b.queue_bits, 4);
    }

    #[test]
    fn throughput_ladder() {
        let (n, r) = (8u64, 4u32);
        let t = |k| PhaseSchedule::new(k, n, r, 800).throughput_bits_per_cycle;
        assert_eq!(t(DesignKind::N1a), 1);
        assert_eq!(t(DesignKind::N1b), 1);
        assert_eq!(t(DesignKind::N2), 4);
        // n3 reads the whole tuple in one cycle: N*(R+1) = 40 bits/cycle.
        assert_eq!(t(DesignKind::N3), 40);
    }

    #[test]
    fn n3_latency_independent_of_n_and_r_when_row_fits() {
        // O(1) compute (Sec. IV.D.4): latency is flat while the tuple fits
        // in one row.
        let a = PhaseSchedule::new(DesignKind::N3, 8, 4, 800);
        let b = PhaseSchedule::new(DesignKind::N3, 100, 7, 800);
        assert_eq!(a.phase1_cycles, 1);
        assert_eq!(b.phase1_cycles, 1);
        assert_eq!(a.total_latency_cycles, b.total_latency_cycles);
        // ... and grows only via row splits beyond that.
        let c = PhaseSchedule::new(DesignKind::N3, 999, 4, 800);
        assert_eq!(c.phase1_cycles, 7);
    }

    #[test]
    fn per_tuple_latency_ordering_matches_paper() {
        let (n, r) = (48u64, 6u32);
        let lat = |k| PhaseSchedule::new(k, n, r, 800).total_latency_cycles;
        assert!(lat(DesignKind::N3) < lat(DesignKind::N2));
        assert!(lat(DesignKind::N2) < lat(DesignKind::N1b));
        assert!(lat(DesignKind::N1b) <= lat(DesignKind::N1a));
    }
}
