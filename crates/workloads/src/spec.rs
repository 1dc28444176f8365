//! Workload taxonomy: the four COPs of Sec. V.2 and their architectural
//! shapes (Fig. 4).
//!
//! The SACHI evaluation characterizes each COP by three numbers — spin
//! count, neighbors per spin `N`, and IC resolution `R` — because every
//! cycle/energy formula in Figs. 15, 17, 18 is a function of exactly those.
//! [`WorkloadShape`] carries them; [`CopKind::standard_shape`] reproduces
//! the Fig. 4 row for each COP.

use sachi_ising::graph::IsingGraph;
use sachi_ising::spin::SpinVector;
use std::fmt;

/// The combinatorial optimization problems the workspace can build: the
/// four COPs of the paper's evaluation (Sec. V.2) plus the Lucas-library
/// extension families (Sec. VII.3 "extending the library to support
/// Ising formulation of COPs") added by the workload-diversity corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CopKind {
    /// Number partitioning of $80M across `m` assets (Sec. V.2a).
    AssetAllocation,
    /// Max-cut foreground/background split of an image (Sec. V.2b).
    ImageSegmentation,
    /// Decision-version traveling salesman (Sec. V.2c).
    TravelingSalesman,
    /// King's-graph ferromagnetic ground state (Sec. V.2d).
    MolecularDynamics,
    /// 3-SAT/max-SAT via clause penalties with one ancilla per clause
    /// (Lucas-library extension, [`crate::sat`]).
    SatThree,
    /// Graph k-coloring via one-hot color blocks (Lucas-library
    /// extension, [`crate::coloring`]).
    GraphColoring,
    /// Makespan-style job scheduling on identical machines, Lucas Sec.
    /// 6.3 "job sequencing with integer lengths"
    /// ([`crate::scheduling`]).
    JobScheduling,
}

impl CopKind {
    /// The four paper COPs in the paper's presentation order (the Fig. 4
    /// table rows; extension families live in [`CopKind::EXTENDED`]).
    pub const ALL: [CopKind; 4] = [
        CopKind::AssetAllocation,
        CopKind::ImageSegmentation,
        CopKind::TravelingSalesman,
        CopKind::MolecularDynamics,
    ];

    /// Every buildable family: the paper four plus the Lucas-library
    /// extensions (SAT, coloring, scheduling).
    pub const EXTENDED: [CopKind; 7] = [
        CopKind::AssetAllocation,
        CopKind::ImageSegmentation,
        CopKind::TravelingSalesman,
        CopKind::MolecularDynamics,
        CopKind::SatThree,
        CopKind::GraphColoring,
        CopKind::JobScheduling,
    ];

    /// Human-readable name used in harness tables.
    pub fn label(self) -> &'static str {
        match self {
            CopKind::AssetAllocation => "asset allocation",
            CopKind::ImageSegmentation => "image segmentation",
            CopKind::TravelingSalesman => "traveling salesman",
            CopKind::MolecularDynamics => "molecular dynamics",
            CopKind::SatThree => "3-sat",
            CopKind::GraphColoring => "graph coloring",
            CopKind::JobScheduling => "job scheduling",
        }
    }

    /// Fig. 4's "graph connectivity" column (qualitative description for
    /// the extension families).
    pub fn connectivity(self) -> &'static str {
        match self {
            CopKind::AssetAllocation => "sparingly connected",
            CopKind::ImageSegmentation => "densely connected",
            CopKind::TravelingSalesman => "fully connected",
            CopKind::MolecularDynamics => "King's (8-neighbor)",
            CopKind::SatThree => "clause-local (vars + ancillas)",
            CopKind::GraphColoring => "one-hot blocks + edge bundles",
            CopKind::JobScheduling => "one-hot blocks, dense per machine",
        }
    }

    /// Fig. 4's "typical problem size" column, as an inclusive range of
    /// spins (corpus-calibrated ranges for the extension families).
    pub fn typical_size_range(self) -> (u64, u64) {
        match self {
            CopKind::AssetAllocation => (100, 1_000),
            CopKind::ImageSegmentation => (1_000, 1_000_000),
            CopKind::TravelingSalesman => (10, 30_000),
            CopKind::MolecularDynamics => (100_000, 1_000_000),
            CopKind::SatThree => (50, 100_000),
            CopKind::GraphColoring => (100, 500_000),
            CopKind::JobScheduling => (50, 50_000),
        }
    }

    /// Fig. 4's minimum IC resolution for 90% accuracy at 1K spins. The
    /// extension families use the smallest resolution that holds their
    /// typical penalty coefficients: SAT and coloring couplings stay
    /// tiny multiples of the clause/one-hot weight (4-bit), scheduling
    /// carries `p_i·p_j` duration products (8-bit).
    pub fn typical_resolution_bits(self) -> u32 {
        match self {
            CopKind::AssetAllocation => 7,
            CopKind::ImageSegmentation => 6,
            CopKind::TravelingSalesman => 5,
            CopKind::MolecularDynamics => 4,
            CopKind::SatThree => 4,
            CopKind::GraphColoring => 4,
            CopKind::JobScheduling => 8,
        }
    }

    /// Neighbors per spin (`N`) for a COP of `spins` variables, as the
    /// paper assumes it:
    ///
    /// * asset allocation — 1 (each asset's tuple holds its single value
    ///   IC; reuse 4 = 1 x 4-bit in Fig. 15a);
    /// * image segmentation — 48 (dense radius-3 pixel neighborhood; the
    ///   paper's reuse 200 = ~50 x 4-bit);
    /// * traveling salesman — `spins - 1` (complete graph; reuse ~4000 at
    ///   1K cities x 4-bit);
    /// * molecular dynamics — 8 (King's graph; reuse 32 = 8 x 4-bit);
    /// * 3-SAT — 13 (at the critical clause/variable ratio ~4.3 each
    ///   variable shares clauses with ~9 other variables plus ~4
    ///   ancillas);
    /// * graph coloring — 32 (one-hot block of k-1 siblings plus k-color
    ///   bundles to ~8 graph neighbors at k = 4);
    /// * job scheduling — `spins/4 + 2` (one-hot over ~4 machines plus
    ///   every co-scheduled job on the shared machine layer).
    pub fn neighbors_per_spin(self, spins: u64) -> u64 {
        match self {
            CopKind::AssetAllocation => 1,
            CopKind::ImageSegmentation => 48.min(spins.saturating_sub(1)),
            CopKind::TravelingSalesman => spins.saturating_sub(1),
            CopKind::MolecularDynamics => 8.min(spins.saturating_sub(1)),
            CopKind::SatThree => 13.min(spins.saturating_sub(1)),
            CopKind::GraphColoring => 32.min(spins.saturating_sub(1)),
            CopKind::JobScheduling => (spins / 4).saturating_add(2).min(spins.saturating_sub(1)),
        }
    }

    /// The Fig. 4 shape of this COP at `spins` variables.
    pub fn standard_shape(self, spins: u64) -> WorkloadShape {
        WorkloadShape {
            spins,
            neighbors_per_spin: self.neighbors_per_spin(spins),
            resolution_bits: self.typical_resolution_bits(),
        }
    }
}

impl fmt::Display for CopKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The architectural footprint of a COP: everything the CPI/energy models
/// need to know about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkloadShape {
    /// Number of spins (variables).
    pub spins: u64,
    /// Neighbors per spin, the paper's `N`.
    pub neighbors_per_spin: u64,
    /// IC resolution in bits, the paper's `R`.
    pub resolution_bits: u32,
}

impl WorkloadShape {
    /// Creates a shape.
    ///
    /// # Panics
    ///
    /// Panics if `resolution_bits` is outside `2..=32` (the mixed encoding
    /// supports "any precision up to 32-bit").
    pub fn new(spins: u64, neighbors_per_spin: u64, resolution_bits: u32) -> Self {
        assert!(
            (2..=32).contains(&resolution_bits),
            "resolution must be 2..=32 bits, got {resolution_bits}"
        );
        WorkloadShape {
            spins,
            neighbors_per_spin,
            resolution_bits,
        }
    }

    /// Returns the same shape at a different IC resolution (Fig. 18
    /// sweeps).
    #[must_use]
    pub fn with_resolution(mut self, bits: u32) -> Self {
        assert!(
            (2..=32).contains(&bits),
            "resolution must be 2..=32 bits, got {bits}"
        );
        self.resolution_bits = bits;
        self
    }
}

/// A concrete COP instance: a graph to solve plus domain-level accuracy.
pub trait Workload {
    /// Which COP family this is.
    fn kind(&self) -> CopKind;

    /// Instance name for reports (includes size/seed).
    fn name(&self) -> String;

    /// The Ising graph the machines iterate on.
    fn graph(&self) -> &IsingGraph;

    /// The architectural shape (Fig. 4 view) of this instance.
    fn shape(&self) -> WorkloadShape;

    /// Domain-level solution quality in `[0, 1]` (1 = optimal/reference).
    fn accuracy(&self, spins: &SpinVector) -> f64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_rows_reproduced() {
        assert_eq!(CopKind::AssetAllocation.typical_resolution_bits(), 7);
        assert_eq!(CopKind::ImageSegmentation.typical_resolution_bits(), 6);
        assert_eq!(CopKind::TravelingSalesman.typical_resolution_bits(), 5);
        assert_eq!(CopKind::MolecularDynamics.typical_resolution_bits(), 4);
        assert_eq!(
            CopKind::MolecularDynamics.connectivity(),
            "King's (8-neighbor)"
        );
        assert_eq!(CopKind::ALL.len(), 4);
    }

    #[test]
    fn neighbors_per_spin_matches_reuse_table() {
        // Fig. 15a reuse at 4-bit: asset 4, MD 32, imgseg ~200, TSP ~4000.
        assert_eq!(CopKind::AssetAllocation.neighbors_per_spin(1_000) * 4, 4);
        assert_eq!(CopKind::MolecularDynamics.neighbors_per_spin(1_000) * 4, 32);
        assert_eq!(
            CopKind::ImageSegmentation.neighbors_per_spin(1_000) * 4,
            192
        );
        assert_eq!(
            CopKind::TravelingSalesman.neighbors_per_spin(1_000) * 4,
            3_996
        );
    }

    #[test]
    fn extended_families_registered() {
        assert_eq!(CopKind::EXTENDED.len(), 7);
        assert_eq!(&CopKind::EXTENDED[..4], &CopKind::ALL[..]);
        for kind in [
            CopKind::SatThree,
            CopKind::GraphColoring,
            CopKind::JobScheduling,
        ] {
            assert!(!CopKind::ALL.contains(&kind), "{kind} is not a paper COP");
            assert!(!kind.label().is_empty());
            assert!(!kind.connectivity().is_empty());
            let (lo, hi) = kind.typical_size_range();
            assert!(lo < hi);
            let r = kind.typical_resolution_bits();
            assert!((2..=32).contains(&r));
            // The shape machinery accepts the new families end to end.
            let shape = kind.standard_shape(1_000);
            assert!(shape.neighbors_per_spin < 1_000);
            assert!(footprint(&shape) > 0);
        }
        assert_eq!(CopKind::SatThree.neighbors_per_spin(1_000), 13);
        assert_eq!(CopKind::GraphColoring.neighbors_per_spin(1_000), 32);
        assert_eq!(CopKind::JobScheduling.neighbors_per_spin(1_000), 252);
        // Tiny instances still clamp to spins - 1.
        assert_eq!(CopKind::SatThree.neighbors_per_spin(4), 3);
        assert_eq!(CopKind::GraphColoring.neighbors_per_spin(4), 3);
        assert_eq!(CopKind::JobScheduling.neighbors_per_spin(4), 3);
    }

    #[test]
    fn neighbors_clamped_for_tiny_instances() {
        assert_eq!(CopKind::MolecularDynamics.neighbors_per_spin(4), 3);
        assert_eq!(CopKind::ImageSegmentation.neighbors_per_spin(10), 9);
        assert_eq!(CopKind::TravelingSalesman.neighbors_per_spin(1), 0);
    }

    /// Problem footprint in bits: every tuple's `N` spin copies, `N`
    /// R-bit ICs and R-bit field (Fig. 7a).
    fn footprint(s: &WorkloadShape) -> u64 {
        let r = u64::from(s.resolution_bits);
        s.spins * (s.neighbors_per_spin * (r + 1) + r)
    }

    #[test]
    fn md_footprint_at_1k() {
        // MD at 1K spins, R=4: tuple = 8*(4+1) + 4 = 44 bits.
        let s = CopKind::MolecularDynamics.standard_shape(1_000);
        assert_eq!((s.neighbors_per_spin, s.resolution_bits), (8, 4));
        assert_eq!(footprint(&s), 44_000);
    }

    #[test]
    fn fig4_l1_fit_analysis() {
        // Fig. 4's qualitative claim: at native R the 1K-spin COPs fit in
        // an L1-sized compute array except TSP; raising everything to 8-bit
        // pushes denser COPs out. Under our N model (see
        // `neighbors_per_spin`) the sparse COPs always fit — deviations
        // from the paper's table are catalogued by the fig04 harness.
        let l1_bits = 64 * 1024 * 8u64;
        let fits = |kind: CopKind, bits: u32| {
            footprint(&kind.standard_shape(1_000).with_resolution(bits)) <= l1_bits
        };
        assert!(fits(CopKind::AssetAllocation, 7));
        assert!(fits(CopKind::ImageSegmentation, 6));
        assert!(fits(CopKind::MolecularDynamics, 4));
        assert!(!fits(CopKind::TravelingSalesman, 5));
        assert!(fits(CopKind::MolecularDynamics, 8));
        assert!(!fits(CopKind::TravelingSalesman, 8));
        // 8-bit always costs at least as much as the native resolution.
        for kind in CopKind::ALL {
            let native = footprint(&kind.standard_shape(1_000));
            let eight = footprint(&kind.standard_shape(1_000).with_resolution(8));
            assert!(eight >= native, "{kind}: 8-bit smaller than native");
        }
    }

    #[test]
    #[should_panic(expected = "resolution must be")]
    fn shape_rejects_bad_resolution() {
        let _ = WorkloadShape::new(10, 2, 1);
    }

    #[test]
    fn with_resolution_changes_only_r() {
        let s = WorkloadShape::new(100, 8, 4).with_resolution(8);
        assert_eq!(s.resolution_bits, 8);
        assert_eq!(s.spins, 100);
        assert_eq!(s.neighbors_per_spin, 8);
    }

    #[test]
    fn display_and_size_ranges() {
        assert_eq!(
            format!("{}", CopKind::TravelingSalesman),
            "traveling salesman"
        );
        let (lo, hi) = CopKind::AssetAllocation.typical_size_range();
        assert!(lo < hi);
    }
}
