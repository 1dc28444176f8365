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
//! * [`sram`] — the 8T SRAM compute tile's geometry and event counters,
//!   including redundant-discharge accounting (Fig. 5c / Fig. 10);
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
//! // One in-memory XNOR access on a 4-column row, booked on a tile: two
//! // word-lines pulse and the 3 columns whose XNOR is 1 discharge.
//! let mut tile = SramTile::with_params(TileParams::new(2, 4));
//! tile.book(&TileStats {
//!     rwl_activations: 2,
//!     rbl_discharges: 3,
//!     compute_accesses: 1,
//!     ..TileStats::default()
//! });
//!
//! // Price its word-line activations under the paper's 45 nm parameters:
//! let params = TechnologyParams::freepdk45();
//! let rwl = params.rwl_energy_per_bit() * tile.stats().rwl_activations;
//! assert!(rwl.get() > 0.0);
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
    pub use crate::sram::{SramTile, TileParams, TileStats};
    pub use crate::units::{Bits, Cycles, Nanoseconds, Picojoules};
}
