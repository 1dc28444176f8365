//! Cache geometry: the repurposed L1 (compute array) and L2 (storage array).
//!
//! SACHI does not modify the memory arrays; it only reinterprets them. This
//! module captures the capacity arithmetic the paper relies on in Fig. 4
//! ("does an R-bit COP fit in the L1?"), in the Fig. 17 overflow analysis,
//! and in the Sec. VII.2 cache-size scaling study.

use crate::units::convert::count_u64;
use crate::units::Bits;

/// Geometry of a memory structure repurposed as a SACHI array.
///
/// ```
/// use sachi_mem::cache::CacheGeometry;
///
/// let l1 = CacheGeometry::sachi_compute_default();
/// assert_eq!(l1.tiles(), 16);
/// assert_eq!(l1.rows_per_tile(), 100);
/// assert_eq!(l1.row_bits(), 800);            // 100 ICs x 8 bits
/// assert_eq!(l1.tile_bits().get(), 80_000);
/// ```
///
/// Note on tile size: the paper quotes "16 tiles, each tile (size 10KB)
/// capable of storing 100 spins and 8-bit ICs". 100 rows x 800 bits is
/// 80,000 bits = 9.77 KiB, i.e. the quoted "10 KB" is the usual marketing
/// rounding. We keep the exact 100x800 geometry because every schedule in
/// Figs. 11-13 is expressed in those rows/columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    tiles: usize,
    rows_per_tile: usize,
    row_bits: usize,
    read_ports: usize,
}

impl CacheGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(tiles: usize, rows_per_tile: usize, row_bits: usize, read_ports: usize) -> Self {
        assert!(
            tiles > 0 && rows_per_tile > 0 && row_bits > 0 && read_ports > 0,
            "geometry dimensions must be non-zero"
        );
        CacheGeometry {
            tiles,
            rows_per_tile,
            row_bits,
            read_ports,
        }
    }

    /// The paper's compute array: 16 tiles x 100 rows x 800 bits
    /// (100 spins with 8-bit ICs per tile), single read port per tile.
    pub fn sachi_compute_default() -> Self {
        CacheGeometry::new(16, 100, 800, 1)
    }

    /// The paper's storage array: 160 KB with 2 read ports. Modeled as one
    /// "tile" of 1,600 rows x 800 bits plus a 64-row adjacency region
    /// (see `sachi-core::storage`).
    pub fn sachi_storage_default() -> Self {
        CacheGeometry::new(1, 1_638, 800, 2)
    }

    /// Sec. VII.2 scaling preset: "64KB/1MB" modern CPU caches. Row width
    /// scales with the quoted L1 size (800 bits at 10 KB -> 5,120 bits at
    /// 64 KB); storage capacity scales to 1 MB.
    pub fn desktop_64k() -> Self {
        CacheGeometry::new(16, 100, 5_120, 1)
    }

    /// Storage-array companion of [`CacheGeometry::desktop_64k`] (1 MB).
    pub fn desktop_64k_storage() -> Self {
        CacheGeometry::new(1, 10_486, 800, 2)
    }

    /// Sec. VII.2 scaling preset: "256KB/8MB" server-class caches.
    pub fn server_256k() -> Self {
        CacheGeometry::new(16, 100, 20_480, 1)
    }

    /// Storage-array companion of [`CacheGeometry::server_256k`] (8 MB).
    pub fn server_256k_storage() -> Self {
        CacheGeometry::new(1, 83_886, 800, 2)
    }

    /// Number of independent tiles (sub-arrays computing in parallel).
    pub fn tiles(&self) -> usize {
        self.tiles
    }

    /// Rows per tile.
    pub fn rows_per_tile(&self) -> usize {
        self.rows_per_tile
    }

    /// Bits per row.
    pub fn row_bits(&self) -> usize {
        self.row_bits
    }

    /// Read ports per tile (the storage array has 2).
    pub fn read_ports(&self) -> usize {
        self.read_ports
    }

    /// Capacity of one tile.
    pub fn tile_bits(&self) -> Bits {
        Bits::new(count_u64(self.rows_per_tile * self.row_bits))
    }

    /// Total capacity across tiles.
    pub fn total_bits(&self) -> Bits {
        Bits::new(count_u64(self.tiles * self.rows_per_tile * self.row_bits))
    }

    /// Total rows across tiles.
    pub fn total_rows(&self) -> usize {
        self.tiles * self.rows_per_tile
    }

    /// Whether a payload of `need` bits fits in the whole structure.
    pub fn fits(&self, need: Bits) -> bool {
        self.total_bits().holds(need)
    }
}

/// A named pair of compute + storage geometries (Sec. VII.2 presets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheHierarchy {
    /// The repurposed L1 compute array.
    pub compute: CacheGeometry,
    /// The repurposed L2 storage array.
    pub storage: CacheGeometry,
}

impl CacheHierarchy {
    /// Paper default: "10KB/160KB".
    pub fn hpca_default() -> Self {
        CacheHierarchy {
            compute: CacheGeometry::sachi_compute_default(),
            storage: CacheGeometry::sachi_storage_default(),
        }
    }

    /// "64KB/1MB" preset of Sec. VII.2.
    pub fn desktop() -> Self {
        CacheHierarchy {
            compute: CacheGeometry::desktop_64k(),
            storage: CacheGeometry::desktop_64k_storage(),
        }
    }

    /// "256KB/8MB" preset of Sec. VII.2.
    pub fn server() -> Self {
        CacheHierarchy {
            compute: CacheGeometry::server_256k(),
            storage: CacheGeometry::server_256k_storage(),
        }
    }
}

impl Default for CacheHierarchy {
    fn default() -> Self {
        CacheHierarchy::hpca_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_compute_geometry_matches_paper() {
        let g = CacheGeometry::sachi_compute_default();
        assert_eq!(g.total_rows(), 1_600);
        assert_eq!(g.tile_bits(), Bits::new(80_000));
        assert_eq!(g.total_bits(), Bits::new(1_280_000));
        assert_eq!(g.read_ports(), 1);
    }

    #[test]
    fn storage_default_is_160kb_with_two_ports() {
        let g = CacheGeometry::sachi_storage_default();
        let kib = g.total_bits().get() as f64 / 8.0 / 1024.0;
        assert!((kib - 160.0).abs() < 0.5, "storage is {kib} KiB");
        assert_eq!(g.read_ports(), 2);
    }

    #[test]
    fn fits_checks_total_capacity() {
        let g = CacheGeometry::sachi_compute_default();
        assert!(g.fits(Bits::from_kib(100)));
        assert!(!g.fits(Bits::from_kib(200)));
    }

    #[test]
    fn hierarchy_presets_grow_monotonically() {
        let d = CacheHierarchy::hpca_default();
        let m = CacheHierarchy::desktop();
        let l = CacheHierarchy::server();
        assert!(m.compute.total_bits() > d.compute.total_bits());
        assert!(l.compute.total_bits() > m.compute.total_bits());
        assert!(m.storage.total_bits() > d.storage.total_bits());
        assert!(l.storage.total_bits() > m.storage.total_bits());
        assert_eq!(CacheHierarchy::default(), d);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_rejected() {
        let _ = CacheGeometry::new(0, 1, 1, 1);
    }
}
