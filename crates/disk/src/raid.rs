//! RAID-5 striping, as deployed in the PanaViss server (Table 1: five
//! disks per group, four data + one rotating parity).
//!
//! The model is a block layout: logical 64-KB file blocks are striped
//! across the data disks of each stripe, with the parity block rotating
//! left-symmetrically. The simulator schedules one member disk, as the
//! paper does; the layout routes a group's blocks to its members.

/// The layout of a RAID-5 group of identical member disks.
#[derive(Debug, Clone)]
pub struct Raid5 {
    members: usize,
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
    /// The paper's 4 data + 1 parity group.
    pub fn table1() -> Self {
        Raid5 { members: 5 }
    }

    /// Number of member disks.
    pub fn members(&self) -> usize {
        self.members
    }

    /// Number of data blocks per stripe.
    pub fn data_per_stripe(&self) -> usize {
        self.members - 1
    }

    /// Locate logical block `lba` (left-symmetric layout).
    pub fn locate(&self, lba: u64) -> BlockLocation {
        let n = self.members as u64;
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
}
