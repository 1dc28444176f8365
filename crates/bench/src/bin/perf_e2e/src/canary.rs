//! Host-speed correction.
//!
//! On a shared host, neighbours slow this machine's memory-bound code by
//! 1.4–1.9x for seconds to minutes at a time (measured on a 2-vCPU KVM
//! guest: one `sachi solve` read 24 ms in quiet stretches and 45 ms in
//! loud ones, and runs of several minutes stayed loud). Raw wall times
//! then spread by 15–30% between runs, whatever the run length.
//!
//! The canary is a fixed sparse sweep that lives in this benchmark, not
//! in the program under test, so no change to `sachi` can speed it up.
//! It is timed right before every job (one-shot: with the machine idle;
//! daemon: while the other connection's job runs, as the jobs do). The
//! CPU-bound share of the job's wall time is then scaled by
//! `(REFERENCE_MS / reading) ^ SENSITIVITY`. Time spent waiting on timers
//! or the network does not change with host speed and is left alone. A
//! corrected time is what the job would take on the reference host when
//! the canary reads its reference value. The correction is partial, but
//! it narrows the run-to-run spread. Raw times are printed alongside.

use std::hint::black_box;
use std::time::Instant;

/// The canary's time on a quiet reference host (Xeon, Sapphire Rapids,
/// 2 vCPUs under KVM), in milliseconds.
pub const REFERENCE_MS: f64 = 1.35;

/// How much faster the solver's wall time moves than the canary's when
/// the host's speed changes: a log-log fit of `sachi solve` times against
/// the readings beside them, over 4 minutes of interleaved runs on the
/// reference host (1.43 on the dense coloring, 1.46 on the lattice).
pub const SENSITIVITY: f64 = 1.4;

const NODES: usize = 8192;
const DEGREE: usize = 8;
const SWEEPS: usize = 12;

/// The canary's graph (~0.5 MB, resident in a core's L2) and spins.
pub struct Canary {
    neighbors: Vec<u32>,
    weights: Vec<i32>,
    initial: Vec<i8>,
    spins: Vec<i8>,
}

impl Canary {
    /// Builds the fixed graph.
    pub fn new() -> Canary {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let neighbors = (0..NODES * DEGREE)
            .map(|_| (next() % NODES as u64) as u32)
            .collect();
        let weights = (0..NODES * DEGREE)
            .map(|_| (next() % 7) as i32 - 3)
            .collect();
        let initial: Vec<i8> = (0..NODES)
            .map(|_| if next() & 1 == 0 { 1 } else { -1 })
            .collect();
        Canary {
            neighbors,
            weights,
            spins: initial.clone(),
            initial,
        }
    }

    /// Times one canary sweep set, in milliseconds.
    fn once(&mut self) -> f64 {
        self.spins.copy_from_slice(&self.initial);
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let start = Instant::now();
        for _ in 0..SWEEPS {
            for i in 0..NODES {
                let edges = i * DEGREE..(i + 1) * DEGREE;
                let h: i32 = self.neighbors[edges.clone()]
                    .iter()
                    .zip(&self.weights[edges])
                    .map(|(&j, &w)| w * i32::from(self.spins[j as usize]))
                    .sum();
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if h * i32::from(self.spins[i]) < 0 || state.is_multiple_of(16) {
                    self.spins[i] = -self.spins[i];
                }
            }
        }
        black_box(&self.spins);
        start.elapsed().as_secs_f64() * 1e3
    }

    /// The fastest of three back-to-back readings, in milliseconds (the
    /// host's speed changes over seconds; the minimum drops interrupt
    /// jitter).
    pub fn read_ms(&mut self) -> f64 {
        (0..3).map(|_| self.once()).fold(f64::INFINITY, f64::min)
    }
}

/// Reads every canary at once, one thread each, and returns the slowest
/// reading: a job spread over several cores runs at the pace of the
/// slowest one.
pub fn read_slowest(canaries: &mut [Canary]) -> f64 {
    match canaries {
        [one] => one.read_ms(),
        many => std::thread::scope(|scope| {
            let readers: Vec<_> = many
                .iter_mut()
                .map(|c| scope.spawn(move || c.read_ms()))
                .collect();
            readers
                .into_iter()
                .map(|r| r.join().expect("canary threads do not panic"))
                .fold(0.0, f64::max)
        }),
    }
}

/// `raw_ms` corrected by a canary reading taken right before it, when
/// `cpu_share` of the time was CPU-bound (clamped to `0..=1`).
pub fn corrected(raw_ms: f64, canary_ms: f64, cpu_share: f64) -> f64 {
    let share = cpu_share.clamp(0.0, 1.0);
    raw_ms * (1.0 - share + share * (REFERENCE_MS / canary_ms).powf(SENSITIVITY))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canary_readings_are_positive_and_correction_scales() {
        let mut canary = Canary::new();
        let reading = canary.read_ms();
        assert!(reading > 0.0 && reading.is_finite());
        let mut pair = [Canary::new(), Canary::new()];
        assert!(read_slowest(&mut pair) > 0.0);
        let slow = 2.0 * REFERENCE_MS;
        let scaled = 10.0 * 0.5f64.powf(SENSITIVITY);
        assert!((corrected(10.0, REFERENCE_MS, 1.0) - 10.0).abs() < 1e-12);
        assert!((corrected(10.0, slow, 1.0) - scaled).abs() < 1e-12);
        // Only the CPU-bound share scales; waiting does not.
        assert!((corrected(10.0, slow, 0.5) - (5.0 + scaled / 2.0)).abs() < 1e-12);
        assert!((corrected(10.0, slow, 0.0) - 10.0).abs() < 1e-12);
        assert!((corrected(10.0, slow, 3.0) - scaled).abs() < 1e-12);
    }
}
