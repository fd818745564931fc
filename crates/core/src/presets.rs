//! §4.2 — degenerate configurations that *are* classic schedulers.
//!
//! Each preset returns a [`CascadeConfig`] whose runs match the named
//! classic event for event: `tests/generalization.rs` drives both through
//! `oracle::reference::diff_pair` on ten seeds of a bursty trace and
//! demands identical engine event streams and metrics. The ties column is
//! where the two orders could part; the unit tests below pin the
//! preset's side of each.
//!
//! | Preset | Classic | Construction | Ties |
//! |---|---|---|---|
//! | [`batch_cscan`] | batch C-SCAN (`Batched<CScan>`) | SFC3 only, `R = 1`, circular distance | on one cylinder by QoS level, then id; `CScan` goes by id, so the two agree on requests without QoS levels, which is what is checked |
//! | [`edf`] | batch EDF (`Batched<Edf>`) among requests not yet past due | SFC2 only, `f → ∞`, 20-bit slack grid | past-due requests all have slack 0, so they go by level, then id; equal deadlines likewise; checked on traces where nothing is late |
//!
//! DESIGN.md §4 lists the classics §4.2 also names — batch SSTF,
//! SCAN-EDF, multi-queue — with the measured divergence that keeps each
//! out of this table.

use crate::config::{CascadeConfig, DispatchConfig, DistanceMode, Stage2, Stage2Combiner, Stage3};
use sched::Micros;

/// Batch C-SCAN: one circular scan per queue swap.
pub fn batch_cscan(cylinders: u32) -> CascadeConfig {
    CascadeConfig {
        stage1: None,
        stage2: None,
        stage3: Some(Stage3 {
            partitions: 1,
            resolution_bits: 10,
            cylinders,
            distance: DistanceMode::Circular,
        }),
        dispatch: DispatchConfig::non_preemptive(),
    }
}

/// EDF over batches: deadline-only ordering. The slack grid has `2²⁰`
/// steps, so it resolves every microsecond of a `horizon_us` below
/// `2²⁰` µs (about 1.05 s); slacks beyond the horizon tie at it.
pub fn edf(horizon_us: Micros) -> CascadeConfig {
    CascadeConfig {
        stage1: None,
        stage2: Some(Stage2 {
            combiner: Stage2Combiner::Weighted { f: 1e12 },
            horizon_us,
            resolution_bits: 20,
        }),
        stage3: None,
        dispatch: DispatchConfig::non_preemptive(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CascadedSfc;
    use sched::{DiskScheduler, HeadState, QosVector, Request};

    fn head(cyl: u32) -> HeadState {
        HeadState::new(cyl, 0, 3832)
    }

    fn drain(s: &mut dyn DiskScheduler, h: &HeadState) -> Vec<u64> {
        let mut ids = Vec::new();
        while let Some(r) = s.dequeue(h) {
            ids.push(r.id);
        }
        ids
    }

    #[test]
    fn batch_cscan_sweeps_upward_with_wraparound() {
        let mut s = CascadedSfc::new(batch_cscan(3832)).unwrap();
        let h = head(1000);
        for (id, cyl) in [(1u64, 1500), (2, 500), (3, 3000), (4, 1100)] {
            s.enqueue(
                Request::read(id, 0, u64::MAX, cyl, 512, QosVector::none()),
                &h,
            );
        }
        // Up from 1000: 1100, 1500, 3000; wrap: 500.
        assert_eq!(drain(&mut s, &h), vec![4, 1, 3, 2]);
    }

    #[test]
    fn batch_cscan_serves_one_cylinder_in_level_order() {
        let mut s = CascadedSfc::new(batch_cscan(3832)).unwrap();
        let h = head(1000);
        for (id, level) in [(1u64, 5u8), (2, 2)] {
            s.enqueue(
                Request::read(id, 0, u64::MAX, 1200, 512, QosVector::single(level)),
                &h,
            );
        }
        // `CScan` would serve id 1 first.
        assert_eq!(drain(&mut s, &h), vec![2, 1]);
    }

    #[test]
    fn edf_preset_orders_by_deadline() {
        let mut s = CascadedSfc::new(edf(1_000_000)).unwrap();
        let h = head(0);
        for (id, dl) in [(1u64, 700_000), (2, 100_000), (3, 400_000)] {
            s.enqueue(Request::read(id, 0, dl, 0, 512, QosVector::none()), &h);
        }
        assert_eq!(drain(&mut s, &h), vec![2, 3, 1]);
    }

    #[test]
    fn edf_preset_serves_past_due_requests_by_level() {
        let mut s = CascadedSfc::new(edf(1_000_000)).unwrap();
        let h = HeadState::new(0, 5_000, 3832);
        for (id, deadline, level) in [(1u64, 1_000, 5u8), (2, 3_000, 2)] {
            s.enqueue(
                Request::read(id, 0, deadline, 0, 512, QosVector::single(level)),
                &h,
            );
        }
        // EDF would serve id 1, the earlier deadline, first.
        assert_eq!(drain(&mut s, &h), vec![2, 1]);
    }
}
