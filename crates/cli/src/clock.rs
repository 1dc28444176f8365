//! The wall-clock shim for the `sachi serve` daemon.
//!
//! The solver's determinism contract bans `std::time` from every module
//! a result can depend on (`xtask analyze` enforces the ban on
//! `serve.rs` and `protocol.rs`). The admission deadline, however, is a
//! genuine wall-clock concern: it bounds how long a *waiter* blocks,
//! never how much *work* a job performs (that is `step_budget`, in the
//! deterministic work domain). This module is therefore the single
//! sanctioned doorway to `std::time` on the server: everything else
//! handles opaque [`Duration`]s minted here, and a timeout can only
//! change *which typed response* a client receives — a job that runs
//! past its admission deadline is revoked before it starts or awaited
//! to its deterministic end, never truncated mid-solve.

use std::time::Duration;

/// Mints the [`Duration`] for a millisecond count. The only
/// `Duration` constructor the server modules may use.
pub fn millis(ms: u64) -> Duration {
    Duration::from_millis(ms)
}

/// Starts a stopwatch; the closure returns the wall time since. Tests
/// of the server's latency read the clock through this.
#[cfg(test)]
pub fn stopwatch() -> impl Fn() -> Duration {
    let start = std::time::Instant::now();
    move || start.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn millis_round_trips() {
        assert_eq!(millis(0), Duration::ZERO);
        assert_eq!(millis(1_500).as_millis(), 1_500);
    }
}
