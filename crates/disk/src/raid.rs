//! RAID-5 striping, as deployed in the PanaViss server (Table 1: five
//! disks per group, four data + one rotating parity).
//!
//! The model is block-level: logical 64-KB file blocks are striped across
//! the data disks of each stripe, with the parity block rotating
//! left-symmetrically. Reads touch one member disk; writes use the
//! read-modify-write small-write path (read old data + old parity, write
//! new data + new parity), which on the data-plus-parity pair costs two
//! extra rotations on each of the two disks involved.

use crate::disk::{Disk, ServiceBreakdown};
use crate::Micros;

/// A RAID-5 group of identical member disks.
#[derive(Debug, Clone)]
pub struct Raid5 {
    disks: Vec<Disk>,
}

/// Per-member breakdown of a small-write (read-modify-write): the data
/// and parity members each pay a read-old + write-new pair; the write
/// completes when the slower of the two finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WriteBreakdown {
    /// Combined (read-old + write-new) breakdown on the data member.
    pub data: ServiceBreakdown,
    /// Combined (read-old + write-new) breakdown on the parity member.
    pub parity: ServiceBreakdown,
}

impl WriteBreakdown {
    /// Completion time of the write: the two members work in parallel,
    /// so the slower one gates.
    pub fn total_us(&self) -> Micros {
        self.data.total_us().max(self.parity.total_us())
    }

    /// The gating member's breakdown (data on ties), for seek/rotation
    /// attribution of the write path.
    pub fn critical(&self) -> ServiceBreakdown {
        if self.parity.total_us() > self.data.total_us() {
            self.parity
        } else {
            self.data
        }
    }
}

/// Where a logical block lives inside the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockLocation {
    /// Member disk holding the data block.
    pub data_disk: usize,
    /// Member disk holding the stripe's parity block.
    pub parity_disk: usize,
    /// Stripe number, used as the per-disk block offset.
    pub stripe: u64,
}

impl Raid5 {
    /// Build a group of `members` identical disks (`members >= 3`:
    /// at least two data disks plus parity).
    ///
    /// # Panics
    ///
    /// Panics if `members < 3`.
    pub fn new(prototype: Disk, members: usize) -> Self {
        assert!(members >= 3, "RAID-5 needs at least 3 member disks");
        Raid5 {
            disks: vec![prototype; members],
        }
    }

    /// The paper's 4 data + 1 parity group of Table-1 disks.
    pub fn table1() -> Self {
        Raid5::new(Disk::table1(), 5)
    }

    /// Number of member disks.
    pub fn members(&self) -> usize {
        self.disks.len()
    }

    /// Number of data blocks per stripe.
    pub fn data_per_stripe(&self) -> usize {
        self.disks.len() - 1
    }

    /// Locate logical block `lba` (left-symmetric layout).
    pub fn locate(&self, lba: u64) -> BlockLocation {
        let n = self.disks.len() as u64;
        let d = n - 1;
        let stripe = lba / d;
        let within = lba % d;
        // Parity rotates one disk left each stripe.
        let parity_disk = ((n - 1) - (stripe % n)) as usize;
        // Data blocks fill the non-parity slots in order.
        let mut slot = within as usize;
        if slot >= parity_disk {
            slot += 1;
        }
        BlockLocation {
            data_disk: slot,
            parity_disk,
            stripe,
        }
    }

    /// Map a stripe number to a member-disk cylinder, spreading stripes
    /// sequentially across the disk.
    fn cylinder_of_stripe(&self, stripe: u64, block_bytes: u64) -> u32 {
        let g = self.disks[0].geometry();
        let cyls = g.cylinders() as u64;
        // Blocks per cylinder varies by zone; use the average for layout.
        let total_blocks = g.capacity_bytes() / block_bytes;
        let per_cyl = (total_blocks / cyls).max(1);
        ((stripe / per_cyl) % cyls) as u32
    }

    /// Read logical block `lba` of `block_bytes`. Returns the member-disk
    /// service breakdown.
    pub fn read(&mut self, lba: u64, block_bytes: u64) -> ServiceBreakdown {
        let loc = self.locate(lba);
        let cyl = self.cylinder_of_stripe(loc.stripe, block_bytes);
        self.disks[loc.data_disk].service(cyl, block_bytes)
    }

    /// Write logical block `lba` via the small-write path
    /// (read-modify-write on the data and parity disks). Returns the
    /// per-member service breakdowns; the two members work in parallel,
    /// so completion is [`WriteBreakdown::total_us`].
    pub fn write(&mut self, lba: u64, block_bytes: u64) -> WriteBreakdown {
        let loc = self.locate(lba);
        let cyl = self.cylinder_of_stripe(loc.stripe, block_bytes);
        // Read old + write new on each of the two disks.
        let pair = |d: &mut Disk| {
            let a = d.service(cyl, block_bytes);
            let b = d.service(cyl, block_bytes);
            ServiceBreakdown {
                seek_us: a.seek_us + b.seek_us,
                rotation_us: a.rotation_us + b.rotation_us,
                transfer_us: a.transfer_us + b.transfer_us,
            }
        };
        WriteBreakdown {
            data: pair(&mut self.disks[loc.data_disk]),
            parity: pair(&mut self.disks[loc.parity_disk]),
        }
    }

    /// Read logical block `lba` in *degraded mode*: member `failed` is
    /// gone, so the block is reconstructed by reading the stripe's block
    /// from every surviving member and XOR-ing. All survivors do the
    /// work (their head/angle state advances); the reconstruction
    /// completes when the slowest finishes, so the returned breakdown is
    /// the gating member's.
    ///
    /// When the block's data member is *not* the failed one, this is just
    /// a normal [`Raid5::read`].
    ///
    /// # Panics
    ///
    /// Panics if `failed` is out of range.
    pub fn degraded_read(&mut self, lba: u64, block_bytes: u64, failed: usize) -> ServiceBreakdown {
        assert!(failed < self.disks.len(), "failed member out of range");
        let loc = self.locate(lba);
        if loc.data_disk != failed {
            return self.read(lba, block_bytes);
        }
        let cyl = self.cylinder_of_stripe(loc.stripe, block_bytes);
        let mut worst = ServiceBreakdown::default();
        for (m, disk) in self.disks.iter_mut().enumerate() {
            if m == failed {
                continue;
            }
            let b = disk.service(cyl, block_bytes);
            if b.total_us() > worst.total_us() {
                worst = b;
            }
        }
        worst
    }

    /// Reconstruct one stripe of a failed member onto a hot spare: read
    /// the stripe's block from every survivor (the spare's write is
    /// overlapped with the reads and not modeled separately). Returns the
    /// gating survivor's breakdown — the bandwidth this rebuild step
    /// steals from foreground service.
    ///
    /// # Panics
    ///
    /// Panics if `failed` is out of range.
    pub fn rebuild_stripe(
        &mut self,
        stripe: u64,
        block_bytes: u64,
        failed: usize,
    ) -> ServiceBreakdown {
        assert!(failed < self.disks.len(), "failed member out of range");
        let cyl = self.cylinder_of_stripe(stripe, block_bytes);
        let mut worst = ServiceBreakdown::default();
        for (m, disk) in self.disks.iter_mut().enumerate() {
            if m == failed {
                continue;
            }
            let b = disk.service(cyl, block_bytes);
            if b.total_us() > worst.total_us() {
                worst = b;
            }
        }
        worst
    }

    /// Access a member disk (e.g. for per-disk statistics).
    pub fn disk(&self, member: usize) -> &Disk {
        &self.disks[member]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_is_4_plus_1() {
        let r = Raid5::table1();
        assert_eq!(r.members(), 5);
        assert_eq!(r.data_per_stripe(), 4);
    }

    #[test]
    fn parity_rotates_and_data_avoids_it() {
        let r = Raid5::table1();
        let mut parities = Vec::new();
        for stripe in 0..5 {
            let loc = r.locate(stripe * 4); // first block of each stripe
            assert_ne!(loc.data_disk, loc.parity_disk);
            parities.push(loc.parity_disk);
        }
        // All five members take a parity turn.
        let mut sorted = parities.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn blocks_of_one_stripe_hit_distinct_disks() {
        let r = Raid5::table1();
        let disks: Vec<usize> = (0..4).map(|i| r.locate(i).data_disk).collect();
        let mut sorted = disks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
    }

    #[test]
    fn write_costs_more_than_read() {
        let mut r = Raid5::table1();
        let read = r.read(123, 65536).total_us();
        let mut r2 = Raid5::table1();
        let write = r2.write(123, 65536);
        assert!(
            write.total_us() > read,
            "write {} <= read {read}",
            write.total_us()
        );
        // The pair exposes per-member seek/rotation attribution.
        assert_eq!(
            write.total_us(),
            write.data.total_us().max(write.parity.total_us())
        );
        assert!(write.critical().total_us() == write.total_us());
        assert!(write.data.transfer_us > 0 && write.parity.transfer_us > 0);
    }

    #[test]
    fn degraded_read_reconstructs_from_survivors() {
        // Find a block whose data lives on member 0, fail member 0, and
        // check the reconstruction equals the slowest survivor's service.
        let lba = (0..64)
            .find(|&l| Raid5::table1().locate(l).data_disk == 0)
            .unwrap();
        let mut r = Raid5::table1();
        let mut mirror = r.clone();
        let b = r.degraded_read(lba, 65536, 0);
        // Recompute on the mirror: every survivor serves the same block.
        let loc = mirror.locate(lba);
        let cyl = mirror.cylinder_of_stripe(loc.stripe, 65536);
        let expected = (1..5)
            .map(|m| mirror.disks[m].service(cyl, 65536))
            .max_by_key(|s| s.total_us())
            .unwrap();
        assert_eq!(b, expected);
    }

    #[test]
    fn degraded_read_of_healthy_member_is_a_plain_read() {
        let lba = (0..64)
            .find(|&l| Raid5::table1().locate(l).data_disk == 1)
            .unwrap();
        let mut degraded = Raid5::table1();
        let mut healthy = Raid5::table1();
        // Member 0 failed, but the block lives on member 1.
        assert_eq!(
            degraded.degraded_read(lba, 65536, 0),
            healthy.read(lba, 65536)
        );
    }

    #[test]
    fn rebuild_stripe_busies_all_survivors() {
        let mut r = Raid5::table1();
        let b = r.rebuild_stripe(7, 65536, 2);
        assert!(b.total_us() > 0);
        for m in [0usize, 1, 3, 4] {
            assert_eq!(r.disk(m).stats().requests, 1, "member {m} idle");
        }
        assert_eq!(r.disk(2).stats().requests, 0, "failed member touched");
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn rejects_tiny_groups() {
        Raid5::new(Disk::table1(), 2);
    }
}
