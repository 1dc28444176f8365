//! # sachi-mem — memory substrate for the SACHI Ising architecture
//!
//! SACHI (HPCA 2024) repurposes a CPU's L1 cache as an in-memory XNOR
//! compute array and the L2 cache as a tuple storage array, fed by DRAM
//! through a counter-based prefetcher. This crate is the *hardware
//! substrate* of the reproduction:
//!
//! * [`units`] — `Cycles` / `Picojoules` / `Nanoseconds` / `Bits` newtypes;
//! * [`params`] — the FreePDK-45 technology constants of Sec. V;
//! * [`energy`] — append-only per-component energy ledger;
//! * [`sram`] — a bit-accurate 8T SRAM tile with normal and Ising-compute
//!   modes, including redundant-discharge accounting (Fig. 5c / Fig. 10);
//! * [`cache`] — geometry/capacity arithmetic for the repurposed L1/L2
//!   (Fig. 4, Fig. 17 overflow, Sec. VII.2 scaling presets);
//! * [`dram`] — DRAM controller with the Sec. IV.A prefetcher, booked in
//!   closed form per round;
//! * [`fault`] — deterministic seeded fault injection (transient read
//!   BER, DRAM stream corruption) for the robustness layer.
//!
//! ## Example
//!
//! ```
//! use sachi_mem::prelude::*;
//!
//! // The in-memory XNOR primitive the whole architecture rests on:
//! let mut tile = SramTile::new(2, 4);
//! tile.write_row(0, &[true, false, true, true])?;
//! let xnor = tile.compute_xnor(0, true, 0..4)?; // drive RWL with J = 1
//! assert_eq!(xnor, vec![true, false, true, true]);
//!
//! // Price its word-line activations under the paper's 45 nm parameters:
//! let params = TechnologyParams::freepdk45();
//! let rwl = params.rwl_energy_per_bit() * tile.stats().rwl_activations;
//! assert!(rwl.get() > 0.0);
//! # Ok::<(), sachi_mem::sram::AccessError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
pub mod dram;
pub mod energy;
pub mod fault;
pub mod l1cache;
pub mod params;
pub mod sram;
pub mod units;

/// Convenient glob-import of the crate's main types.
pub mod prelude {
    pub use crate::cache::{CacheGeometry, CacheHierarchy};
    pub use crate::dram::DramController;
    pub use crate::energy::{EnergyComponent, EnergyLedger};
    pub use crate::fault::{FaultCounters, FaultInjector, FaultModel, FaultRate};
    pub use crate::l1cache::{Access, CacheMode, CacheStats, L1Cache};
    pub use crate::params::TechnologyParams;
    pub use crate::sram::{SramTile, TileStats};
    pub use crate::units::{Bits, Cycles, Nanoseconds, Picojoules};
}
