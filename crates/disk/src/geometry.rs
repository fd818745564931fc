//! Platter geometry: cylinders, zones, and zoned transfer rates.

/// Physical layout of a zoned disk.
///
/// Cylinder 0 is the *outermost* cylinder; outer zones hold more sectors
/// per track (zoned bit recording), so transfers there are faster.
#[derive(Debug, Clone)]
pub struct DiskGeometry {
    cylinders: u32,
    tracks_per_cylinder: u32,
    sector_bytes: u32,
    rpm: u32,
    /// Number of cylinders in each zone, outermost zone first.
    zone_cylinders: Vec<u32>,
    /// Sectors per track in each zone, outermost zone first.
    zone_sectors_per_track: Vec<u32>,
    /// First cylinder of each zone (prefix sums of `zone_cylinders`).
    zone_start: Vec<u32>,
}

impl DiskGeometry {
    /// The paper's Table-1 drive: 3832 cylinders, 16 zones, 512-byte
    /// sectors, 7200 RPM, ~2.1 GB.
    ///
    /// Table 1's OCR drops the per-zone sector counts and shows an
    /// impossible "1 track/cylinder" for a 2.1 GB drive; we model 10
    /// tracks per cylinder and 16 zones ranging 130 → 85 sectors/track,
    /// which lands the capacity at ≈2.1 GB and the sustained transfer rate
    /// in the 5.2–8.0 MB/s band of that drive generation (see DESIGN.md
    /// §4, reconstruction 6).
    pub fn table1() -> Self {
        // 8 zones of 240 cylinders followed by 8 of 239 = 3832.
        let zone_cylinders: Vec<u32> = (0..16).map(|z| if z < 8 { 240 } else { 239 }).collect();
        let zone_sectors_per_track: Vec<u32> = (0..16u32).map(|z| 130 - 3 * z).collect();
        Self::new(10, 512, 7200, zone_cylinders, zone_sectors_per_track)
            .expect("table-1 geometry is valid")
    }

    /// A modern-era 7200-RPM hard drive (≈1 TB class): 150 k cylinders,
    /// 30 zones, 4-KB sectors. Not part of the paper's Table 1 — included
    /// to show the model (and the schedulers above it) are not tied to a
    /// 1990s drive. Seek anchors pair with [`crate::SeekModel::modern`].
    pub fn modern() -> Self {
        let zones = 30u32;
        let zone_cylinders: Vec<u32> = (0..zones).map(|_| 5_000).collect();
        // 4-KB sectors, 500 → 250 sectors/track outer → inner.
        let zone_sectors_per_track: Vec<u32> =
            (0..zones).map(|z| 500 - z * 250 / (zones - 1)).collect();
        Self::new(4, 4096, 7200, zone_cylinders, zone_sectors_per_track)
            .expect("modern geometry is valid")
    }

    /// Build a custom geometry.
    ///
    /// Returns `None` when any argument is degenerate (no zones, zero
    /// cylinders or sectors anywhere, zero RPM, or mismatched zone vectors).
    pub fn new(
        tracks_per_cylinder: u32,
        sector_bytes: u32,
        rpm: u32,
        zone_cylinders: Vec<u32>,
        zone_sectors_per_track: Vec<u32>,
    ) -> Option<Self> {
        if zone_cylinders.is_empty()
            || zone_cylinders.len() != zone_sectors_per_track.len()
            || zone_cylinders.contains(&0)
            || zone_sectors_per_track.contains(&0)
            || tracks_per_cylinder == 0
            || sector_bytes == 0
            || rpm == 0
        {
            return None;
        }
        let mut zone_start = Vec::with_capacity(zone_cylinders.len());
        let mut acc = 0u32;
        for &zc in &zone_cylinders {
            zone_start.push(acc);
            acc = acc.checked_add(zc)?;
        }
        Some(DiskGeometry {
            cylinders: acc,
            tracks_per_cylinder,
            sector_bytes,
            rpm,
            zone_cylinders,
            zone_sectors_per_track,
            zone_start,
        })
    }

    /// Total number of cylinders.
    pub fn cylinders(&self) -> u32 {
        self.cylinders
    }

    /// Tracks (surfaces) per cylinder.
    pub fn tracks_per_cylinder(&self) -> u32 {
        self.tracks_per_cylinder
    }

    /// Sector size in bytes.
    pub fn sector_bytes(&self) -> u32 {
        self.sector_bytes
    }

    /// Spindle speed in revolutions per minute.
    pub fn rpm(&self) -> u32 {
        self.rpm
    }

    /// Number of recording zones.
    pub fn zones(&self) -> usize {
        self.zone_cylinders.len()
    }

    /// One full revolution, in milliseconds.
    pub fn revolution_ms(&self) -> f64 {
        60_000.0 / self.rpm as f64
    }

    /// The zone containing `cylinder`.
    ///
    /// # Panics
    ///
    /// Panics if `cylinder` is out of range.
    pub fn zone_of(&self, cylinder: u32) -> usize {
        assert!(
            cylinder < self.cylinders,
            "cylinder {cylinder} out of range ({} cylinders)",
            self.cylinders
        );
        match self.zone_start.binary_search(&cylinder) {
            Ok(z) => z,
            Err(ins) => ins - 1,
        }
    }

    /// Sectors per track at `cylinder`.
    pub fn sectors_per_track(&self, cylinder: u32) -> u32 {
        self.zone_sectors_per_track[self.zone_of(cylinder)]
    }

    /// Total formatted capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.zone_cylinders
            .iter()
            .zip(&self.zone_sectors_per_track)
            .map(|(&zc, &spt)| {
                zc as u64 * self.tracks_per_cylinder as u64 * spt as u64 * self.sector_bytes as u64
            })
            .sum()
    }

    /// Sustained media transfer rate at `cylinder`, bytes per second.
    pub fn transfer_rate(&self, cylinder: u32) -> f64 {
        self.rate_at(self.sectors_per_track(cylinder))
    }

    /// [`DiskGeometry::transfer_rate`] of a zone with `spt` sectors per
    /// track.
    fn rate_at(&self, spt: u32) -> f64 {
        let per_rev = spt as f64 * self.sector_bytes as f64;
        per_rev * self.rpm as f64 / 60.0
    }

    /// Time to stream `bytes` starting at `cylinder`, in milliseconds
    /// (media time only, no seeks or rotational positioning; track and
    /// cylinder switches are assumed free as in the paper's model).
    pub fn transfer_ms(&self, cylinder: u32, bytes: u64) -> f64 {
        self.transfer_ms_at(self.sectors_per_track(cylinder), bytes)
    }

    /// [`DiskGeometry::transfer_ms`] for a caller that has already looked
    /// up the cylinder's `spt` sectors per track.
    pub(crate) fn transfer_ms_at(&self, spt: u32, bytes: u64) -> f64 {
        bytes as f64 / self.rate_at(spt) * 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let g = DiskGeometry::table1();
        assert_eq!(g.cylinders(), 3832);
        assert_eq!(g.zones(), 16);
        assert_eq!(g.sector_bytes(), 512);
        assert_eq!(g.rpm(), 7200);
        assert!((g.revolution_ms() - 8.333).abs() < 0.01);
        // Capacity ≈ 2.1 GB.
        let gb = g.capacity_bytes() as f64 / 1e9;
        assert!((1.9..2.3).contains(&gb), "capacity {gb} GB");
    }

    #[test]
    fn zones_cover_all_cylinders() {
        let g = DiskGeometry::table1();
        assert_eq!(g.zone_of(0), 0);
        assert_eq!(g.zone_of(239), 0);
        assert_eq!(g.zone_of(240), 1);
        assert_eq!(g.zone_of(3831), 15);
        // Sectors per track decrease monotonically inward.
        let mut prev = u32::MAX;
        for z in 0..16 {
            let cyl = if z < 8 { z * 240 } else { 1920 + (z - 8) * 239 };
            let spt = g.sectors_per_track(cyl as u32);
            assert!(spt < prev);
            prev = spt;
        }
    }

    #[test]
    fn outer_zone_is_faster() {
        let g = DiskGeometry::table1();
        assert!(g.transfer_rate(0) > g.transfer_rate(3831));
        // In the 5.2–8.0 MB/s band.
        assert!(g.transfer_rate(0) < 8.2e6);
        assert!(g.transfer_rate(3831) > 5.0e6);
    }

    #[test]
    fn transfer_time_scales_linearly() {
        let g = DiskGeometry::table1();
        let one = g.transfer_ms(100, 64 * 1024);
        let two = g.transfer_ms(100, 128 * 1024);
        assert!((two - 2.0 * one).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zone_of_rejects_out_of_range() {
        DiskGeometry::table1().zone_of(4000);
    }

    #[test]
    fn degenerate_geometries_rejected() {
        assert!(DiskGeometry::new(0, 512, 7200, vec![10], vec![100]).is_none());
        assert!(DiskGeometry::new(1, 512, 7200, vec![], vec![]).is_none());
        assert!(DiskGeometry::new(1, 512, 7200, vec![10], vec![100, 90]).is_none());
        assert!(DiskGeometry::new(1, 512, 0, vec![10], vec![100]).is_none());
        assert!(DiskGeometry::new(1, 512, 7200, vec![10, 0], vec![100, 90]).is_none());
    }
}

#[cfg(test)]
mod modern_tests {
    use super::*;

    #[test]
    fn modern_profile_is_terabyte_class() {
        let g = DiskGeometry::modern();
        assert_eq!(g.cylinders(), 150_000);
        let tb = g.capacity_bytes() as f64 / 1e12;
        assert!((0.6..1.4).contains(&tb), "capacity {tb:.2} TB");
        // Modern transfer rates: 120-250 MB/s.
        assert!(g.transfer_rate(0) > 1.5e8);
        assert!(g.transfer_rate(149_999) > 0.8e8);
    }

    #[test]
    fn modern_seek_anchors() {
        let m = crate::SeekModel::modern();
        let avg = m.average_random_ms(150_000);
        assert!((7.0..10.0).contains(&avg), "avg {avg:.2} ms");
        let max = m.max_ms(150_000);
        assert!((13.0..18.0).contains(&max), "max {max:.2} ms");
        assert!(m.seek_ms(1) < 1.0);
    }

    #[test]
    fn schedulers_run_on_the_modern_drive() {
        use crate::{Disk, SeekModel};
        let mut d = Disk::new(DiskGeometry::modern(), SeekModel::modern());
        let b = d.service(75_000, 1 << 20); // 1 MB read mid-platter
                                            // ≈ seek + rotation + ~5 ms transfer at ~200 MB/s.
        assert!(b.total_us() > 4_000 && b.total_us() < 40_000, "{b:?}");
    }
}
