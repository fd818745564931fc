//! The disk state machine: head position, platter angle, service times.

use crate::geometry::DiskGeometry;
use crate::seek::SeekModel;
use crate::{fract, ms_to_us, Micros};

/// Per-request service-time breakdown, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceBreakdown {
    /// Arm movement time.
    pub seek_us: Micros,
    /// Rotational positioning time.
    pub rotation_us: Micros,
    /// Media transfer time.
    pub transfer_us: Micros,
}

impl ServiceBreakdown {
    /// Total service time.
    pub fn total_us(&self) -> Micros {
        self.seek_us + self.rotation_us + self.transfer_us
    }
}

/// A single simulated disk.
///
/// The disk tracks its head cylinder and the platter's angular position
/// (as a fraction of one revolution), so rotational latency is a
/// deterministic consequence of the request sequence rather than a random
/// draw — repeated simulations of the same trace give identical timings.
#[derive(Debug, Clone)]
pub struct Disk {
    geometry: DiskGeometry,
    seek: SeekModel,
    head: u32,
    /// Platter angle in `[0, 1)` revolutions.
    angle: f64,
    /// Accumulated statistics.
    stats: DiskStats,
}

/// Aggregate statistics over all serviced requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Requests serviced.
    pub requests: u64,
    /// Total seek time.
    pub seek_us: Micros,
    /// Total rotational latency.
    pub rotation_us: Micros,
    /// Total transfer time.
    pub transfer_us: Micros,
}

impl DiskStats {
    /// Total busy time.
    pub fn busy_us(&self) -> Micros {
        self.seek_us + self.rotation_us + self.transfer_us
    }
}

impl Disk {
    /// A fresh disk with the given geometry and seek model, head parked at
    /// cylinder 0.
    pub fn new(geometry: DiskGeometry, seek: SeekModel) -> Self {
        Disk {
            geometry,
            seek,
            head: 0,
            angle: 0.0,
            stats: DiskStats::default(),
        }
    }

    /// The paper's Table-1 disk.
    pub fn table1() -> Self {
        Disk::new(DiskGeometry::table1(), SeekModel::table1())
    }

    /// Current head cylinder.
    pub fn head(&self) -> u32 {
        self.head
    }

    /// The disk's geometry.
    pub fn geometry(&self) -> &DiskGeometry {
        &self.geometry
    }

    /// The disk's seek model.
    pub fn seek_model(&self) -> &SeekModel {
        &self.seek
    }

    /// Accumulated service statistics.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    /// Absolute cylinder distance from the head to `cylinder`.
    pub fn distance_to(&self, cylinder: u32) -> u32 {
        self.head.abs_diff(cylinder)
    }

    /// Seek time (µs) the head *would* incur moving to `cylinder`, without
    /// moving it. Schedulers use this for shortest-seek decisions.
    pub fn seek_cost_us(&self, cylinder: u32) -> Micros {
        ms_to_us(self.seek.seek_ms(self.distance_to(cylinder)))
    }

    /// Service a request for `bytes` at `cylinder`: seek there, wait for
    /// the target sector, transfer. Advances head, angle, and statistics.
    ///
    /// The target start angle is derived deterministically from the
    /// cylinder number (requests address whole file blocks laid out from
    /// sector 0 upward; different cylinders start at different offsets
    /// because preceding cylinders rarely hold a whole number of blocks).
    ///
    /// # Panics
    ///
    /// Panics if `cylinder` is out of range.
    pub fn service(&mut self, cylinder: u32, bytes: u64) -> ServiceBreakdown {
        // One zone lookup serves the sector layout and the transfer rate.
        let spt = self.geometry.sectors_per_track(cylinder); // validates range
        let rev_ms = self.geometry.revolution_ms();

        // Seek.
        let seek_ms = self.seek.seek_ms(self.distance_to(cylinder));
        self.head = cylinder;
        self.advance(seek_ms);

        // Rotational latency: wait until the target sector's start angle
        // comes under the head. A simple deterministic layout: the block
        // begins at sector (cylinder * 17) mod sectors_per_track.
        let target_sector = (cylinder as u64 * 17) % spt as u64;
        let target_angle = target_sector as f64 / spt as f64;
        let mut wait = target_angle - self.angle;
        if wait < 0.0 {
            wait += 1.0;
        }
        let rotation_ms = wait * rev_ms;
        self.advance(rotation_ms);

        // Transfer.
        let transfer_ms = self.geometry.transfer_ms_at(spt, bytes);
        self.advance(transfer_ms);

        let b = ServiceBreakdown {
            seek_us: ms_to_us(seek_ms),
            rotation_us: ms_to_us(rotation_ms),
            transfer_us: ms_to_us(transfer_ms),
        };
        self.stats.requests += 1;
        self.stats.seek_us += b.seek_us;
        self.stats.rotation_us += b.rotation_us;
        self.stats.transfer_us += b.transfer_us;
        b
    }

    /// Let the platter spin for `ms` milliseconds (used for idle time too).
    pub fn advance(&mut self, ms: f64) {
        let rev = self.geometry.revolution_ms();
        self.angle = fract(self.angle + ms / rev);
        if self.angle < 0.0 {
            self.angle += 1.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_cylinder_service_has_no_seek() {
        let mut d = Disk::table1();
        d.service(500, 64 * 1024);
        let b = d.service(500, 64 * 1024);
        assert_eq!(b.seek_us, 0);
        assert!(b.transfer_us > 0);
    }

    #[test]
    fn far_seek_costs_more() {
        let mut a = Disk::table1();
        let near = a.service(10, 64 * 1024);
        let mut b = Disk::table1();
        let far = b.service(3800, 64 * 1024);
        assert!(far.seek_us > near.seek_us);
    }

    #[test]
    fn rotation_bounded_by_one_revolution() {
        let mut d = Disk::table1();
        for cyl in [0u32, 100, 3831, 77, 1918] {
            let b = d.service(cyl, 4096);
            assert!(b.rotation_us <= ms_to_us(d.geometry().revolution_ms()) + 1);
        }
    }

    #[test]
    fn deterministic_traces() {
        let trace = [(100u32, 65536u64), (2000, 32768), (1500, 65536), (4, 512)];
        let run = || {
            let mut d = Disk::table1();
            trace
                .iter()
                .map(|&(c, b)| d.service(c, b))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stats_accumulate() {
        let mut d = Disk::table1();
        d.service(100, 65536);
        d.service(200, 65536);
        let s = d.stats();
        assert_eq!(s.requests, 2);
        assert!(s.busy_us() > 0);
        assert_eq!(s.busy_us(), s.seek_us + s.rotation_us + s.transfer_us);
    }

    #[test]
    fn seek_cost_probe_does_not_move_head() {
        let d = {
            let mut d = Disk::table1();
            d.service(1000, 512);
            d
        };
        let before = d.head();
        let _ = d.seek_cost_us(3000);
        assert_eq!(d.head(), before);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn service_validates_cylinder() {
        Disk::table1().service(1_000_000, 512);
    }

    #[test]
    fn block_transfer_time_is_plausible() {
        // 64 KB at ~5–8 MB/s should take ~8–13 ms.
        let mut d = Disk::table1();
        let b = d.service(0, 64 * 1024);
        let ms = b.transfer_us as f64 / 1000.0;
        assert!((7.0..14.0).contains(&ms), "transfer {ms} ms");
    }
}
