//! Service-time estimation for feasibility-aware schedulers.
//!
//! The deadline-driven scheduler ([`crate::DeadlineDriven`]) needs to
//! *predict* how long a request will take before deciding where to place
//! it. [`CostModel`] provides that estimate from the seek curve plus an
//! average rotational latency and transfer rate — intentionally the same
//! level of fidelity the original algorithms assumed (they predate zoned
//! transfer models).

use crate::Micros;
use diskmodel::{ms_to_us, DiskGeometry, SeekModel};

/// Cheap service-time estimator shared by feasibility-aware schedulers.
#[derive(Debug, Clone)]
pub struct CostModel {
    seek: SeekModel,
    /// Expected rotational latency: half a revolution (µs).
    half_rev_us: Micros,
    /// Average transfer rate, bytes per second.
    bytes_per_sec: f64,
}

impl CostModel {
    /// Build from a geometry and seek model, using the disk's mid-zone
    /// transfer rate as the average.
    pub fn from_disk(geometry: &DiskGeometry, seek: SeekModel) -> Self {
        let mid = geometry.cylinders() / 2;
        CostModel {
            seek,
            half_rev_us: ms_to_us(geometry.revolution_ms() / 2.0),
            bytes_per_sec: geometry.transfer_rate(mid),
        }
    }

    /// The paper's Table-1 disk estimator.
    pub fn table1() -> Self {
        Self::from_disk(&DiskGeometry::table1(), SeekModel::table1())
    }

    /// Estimated service time for moving `from → to` and transferring
    /// `bytes` (seek + expected rotation + transfer), in µs.
    pub fn estimate_us(&self, from_cylinder: u32, to_cylinder: u32, bytes: u64) -> Micros {
        let seek = ms_to_us(self.seek.seek_ms(from_cylinder.abs_diff(to_cylinder)));
        let transfer = (bytes as f64 / self.bytes_per_sec * 1e6).round() as Micros;
        seek + self.half_rev_us + transfer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_components_add_up() {
        let m = CostModel::table1();
        let base = m.estimate_us(100, 100, 0);
        // Zero distance + zero bytes = just the expected rotation.
        assert_eq!(base, m.half_rev_us);
        let with_seek = m.estimate_us(100, 2000, 0);
        assert!(with_seek > base);
        let with_transfer = m.estimate_us(100, 100, 64 * 1024);
        assert!(with_transfer > base);
    }

    #[test]
    fn estimate_is_symmetric_in_direction() {
        let m = CostModel::table1();
        assert_eq!(m.estimate_us(10, 500, 512), m.estimate_us(500, 10, 512));
    }

    #[test]
    fn plausible_block_estimate() {
        // One 64-KB block with a mid-size seek: roughly 10–30 ms.
        let m = CostModel::table1();
        let e = m.estimate_us(0, 1900, 64 * 1024) as f64 / 1000.0;
        assert!((10.0..30.0).contains(&e), "estimate {e} ms");
    }
}
