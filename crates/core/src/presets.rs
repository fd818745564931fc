//! §4.2 — ready-made degenerate configurations: the Cascaded-SFC
//! scheduler *is* many classic schedulers under the right settings.
//!
//! Each preset returns a [`CascadeConfig`] whose behaviour matches the
//! named classic (the equivalences are pinned by `tests/generalization.rs`
//! and the unit tests below):
//!
//! | Preset | Classic | Construction |
//! |---|---|---|
//! | [`batch_cscan`] | batch C-SCAN | SFC3 only, `R = 1`, circular distance |
//! | [`batch_sstf`] | batch SSTF | SFC3 only, `R = 1`, absolute distance |
//! | [`edf`] | EDF (per batch) | SFC2 only, `f → ∞` |
//! | [`multi_queue`] | multi-queue priority | SFC1 only, 1 dimension |
//! | [`scan_edf`] | SCAN-EDF | SFC2 deadline-major + SFC3 `R = large`, circular |
//! | [`priority_sstf`] | multiple-priority scheduler of \[2\] | SFC1 + SFC3 |

use crate::config::{
    CascadeConfig, DispatchConfig, DistanceMode, Stage1, Stage2, Stage2Combiner, Stage3,
};
use sched::Micros;
use sfc::CurveKind;

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

/// Batch SSTF: nearest-first from the batch-start head position.
pub fn batch_sstf(cylinders: u32) -> CascadeConfig {
    CascadeConfig {
        stage3: Some(Stage3 {
            partitions: 1,
            resolution_bits: 10,
            cylinders,
            distance: DistanceMode::Absolute,
        }),
        ..batch_cscan(cylinders)
    }
}

/// EDF over batches: deadline-only ordering.
pub fn edf(horizon_us: Micros) -> CascadeConfig {
    CascadeConfig {
        stage1: None,
        stage2: Some(Stage2 {
            combiner: Stage2Combiner::Weighted { f: 1e12 },
            horizon_us,
            resolution_bits: 16,
        }),
        stage3: None,
        dispatch: DispatchConfig::non_preemptive(),
    }
}

/// The multi-queue priority scheduler on QoS dimension 0: priority-only
/// ordering, fully preemptive (the classic runs one live queue per level).
pub fn multi_queue(levels_bits: u32) -> CascadeConfig {
    CascadeConfig {
        stage1: Some(Stage1 {
            curve: CurveKind::Sweep, // 1-D identity
            dims: 1,
            level_bits: levels_bits,
        }),
        stage2: None,
        stage3: None,
        dispatch: DispatchConfig::fully_preemptive(),
    }
}

/// SCAN-EDF: deadlines first; among near-equal deadlines, scan order.
/// Realized as a deadline-major SFC2 quantized to `batch_bits` buckets
/// feeding a circular SFC3 whose partitions equal the buckets — requests
/// in the same deadline bucket are served in one scan.
pub fn scan_edf(horizon_us: Micros, batch_bits: u32, cylinders: u32) -> CascadeConfig {
    CascadeConfig {
        stage1: None,
        stage2: Some(Stage2 {
            combiner: Stage2Combiner::Weighted { f: 1e12 },
            horizon_us,
            resolution_bits: batch_bits,
        }),
        stage3: Some(Stage3 {
            partitions: 1 << batch_bits,
            resolution_bits: batch_bits,
            cylinders,
            distance: DistanceMode::Circular,
        }),
        dispatch: DispatchConfig::non_preemptive(),
    }
}

/// The multiple-priority disk scheduler of Aref et al. \[2\]: priorities
/// fold through SFC1, seeks through SFC3 — no deadlines.
pub fn priority_sstf(
    curve: CurveKind,
    dims: u32,
    level_bits: u32,
    partitions: u32,
    cylinders: u32,
) -> CascadeConfig {
    CascadeConfig {
        stage1: Some(Stage1 {
            curve,
            dims,
            level_bits,
        }),
        stage2: None,
        stage3: Some(Stage3 {
            partitions,
            resolution_bits: 10,
            cylinders,
            distance: DistanceMode::Absolute,
        }),
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
    fn batch_sstf_serves_nearest_first() {
        let mut s = CascadedSfc::new(batch_sstf(3832)).unwrap();
        let h = head(1000);
        for (id, cyl) in [(1u64, 1500), (2, 900), (3, 3000)] {
            s.enqueue(
                Request::read(id, 0, u64::MAX, cyl, 512, QosVector::none()),
                &h,
            );
        }
        assert_eq!(drain(&mut s, &h), vec![2, 1, 3]);
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
    fn multi_queue_preset_orders_by_level() {
        let mut s = CascadedSfc::new(multi_queue(3)).unwrap();
        let h = head(0);
        for (id, lvl) in [(1u64, 5u8), (2, 0), (3, 3)] {
            s.enqueue(
                Request::read(id, 0, u64::MAX, 0, 512, QosVector::single(lvl)),
                &h,
            );
        }
        assert_eq!(drain(&mut s, &h), vec![2, 3, 1]);
    }

    #[test]
    fn scan_edf_preset_scans_within_deadline_buckets() {
        // 4 buckets over 1 s (250 ms each); within a bucket, circular-scan
        // order from the head.
        let mut s = CascadedSfc::new(scan_edf(1_000_000, 2, 3832)).unwrap();
        let h = head(1000);
        for (id, dl, cyl) in [
            (1u64, 900_000u64, 1100u32), // late bucket, near
            (2, 100_000, 3000),          // early bucket, far
            (3, 200_000, 1200),          // early bucket, near
            (4, 800_000, 500),           // late bucket, behind (wraps)
        ] {
            s.enqueue(Request::read(id, 0, dl, cyl, 512, QosVector::none()), &h);
        }
        // Early bucket first (scan: 1200 then 3000), then late bucket
        // (scan: 1100 then wrap to 500).
        assert_eq!(drain(&mut s, &h), vec![3, 2, 1, 4]);
    }

    #[test]
    fn priority_sstf_balances_priority_and_seek() {
        let cfg = priority_sstf(CurveKind::Diagonal, 2, 3, 4, 3832);
        let mut s = CascadedSfc::new(cfg).unwrap();
        let h = head(0);
        s.enqueue(
            Request::read(1, 0, u64::MAX, 3800, 512, QosVector::new(&[0, 0])),
            &h,
        );
        s.enqueue(
            Request::read(2, 0, u64::MAX, 10, 512, QosVector::new(&[7, 7])),
            &h,
        );
        // Top-priority partition wins despite the long seek.
        assert_eq!(drain(&mut s, &h), vec![1, 2]);
    }
}
