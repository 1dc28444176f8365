//! Test-only support shared by the integration suites (pulled in with
//! `mod support;`).
//!
//! * [`tiled`] — the physical-residency oracle: [`tiled::ResidentN3Machine`]
//!   places every SACHI(n3) tuple at real bit addresses and writes spin
//!   updates into the resident bitcells, so `SachiMachine`'s analytic
//!   residency billing can be checked against it.

pub mod tiled;
