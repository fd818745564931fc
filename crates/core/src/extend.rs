//! §4.3 — extending *other* schedulers with cascade stages.
//!
//! The paper's extensibility claim: any scheduler that reduces a request
//! to one absolute priority value can be made disk-aware by feeding that
//! value into SFC3 ("to extend the BUCKET algorithm to deal with disk
//! utilization, we take the output of the BUCKET algorithm and enter it
//! into SFC3 with the cylinder position"). [`Sfc3Extended`] implements
//! exactly that composition for an arbitrary priority function, serving
//! in non-preemptive batches like the cascade's own dispatcher.
//!
//! The mirror-image extension — giving a single-priority scheduler
//! multiple priority dimensions via SFC1 — is provided by
//! [`sched::DeadlineDriven::with_priority`] together with [`sfc1_mapping`].

use crate::config::Stage3;
use crate::dispatcher::Dispatcher;
use crate::DispatchConfig;
use sched::{DiskScheduler, HeadState, Micros, Request};
use sfc::{CurveKind, SfcError};

/// An absolute-priority function: maps (request, now) to a scalar,
/// lower = served first.
pub type PriorityFn = Box<dyn Fn(&Request, Micros) -> u64 + Send>;

/// A priority mapping over the request alone (no time dependence), as
/// used by [`sched::DeadlineDriven::with_priority`].
pub type RequestKeyFn = Box<dyn Fn(&Request) -> u64 + Send>;

/// An external scheduler's priority function made seek-aware via SFC3.
pub struct Sfc3Extended {
    /// Maps (request, now) to an absolute priority, lower = first.
    priority: PriorityFn,
    /// Largest value `priority` can return (for quantization).
    max_priority: u64,
    stage3: Stage3,
    dispatcher: Dispatcher,
    name: &'static str,
}

impl Sfc3Extended {
    /// Wrap `priority` (bounded by `max_priority`) with the SFC3 stage.
    pub fn new(
        name: &'static str,
        priority: PriorityFn,
        max_priority: u64,
        stage3: Stage3,
    ) -> Self {
        let max_v = stage3_max(&stage3);
        Sfc3Extended {
            priority,
            max_priority: max_priority.max(1),
            stage3,
            dispatcher: Dispatcher::new(DispatchConfig::non_preemptive(), max_v),
            name,
        }
    }

    fn characterize(&self, req: &Request, head: &HeadState) -> u128 {
        let p = (self.priority)(req, head.now_us).min(self.max_priority) as u128;
        let max_x = (1u128 << self.stage3.resolution_bits) - 1;
        let x = p * max_x / self.max_priority as u128;
        let y = head.distance_to(req.cylinder) as u128;
        stage3_value(
            x,
            y,
            max_x + 1,
            self.stage3.cylinders.max(2) as u128,
            self.stage3.partitions,
        )
    }
}

/// The SFC3 formula, shared with the encapsulator (kept private there; a
/// small copy keeps the extension self-contained).
fn stage3_value(x: u128, y: u128, width_x: u128, height_y: u128, r: u32) -> u128 {
    let r = r.max(1) as u128;
    let p_s = (width_x / r).max(1);
    let p_n = (x / p_s).min(r - 1);
    height_y * p_s * p_n + y * p_s + (x - p_s * p_n)
}

fn stage3_max(s3: &Stage3) -> u128 {
    let max_x = (1u128 << s3.resolution_bits) - 1;
    let max_y = (s3.cylinders.max(2) - 1) as u128;
    stage3_value(max_x, max_y, max_x + 1, max_y + 1, s3.partitions)
}

impl DiskScheduler for Sfc3Extended {
    fn name(&self) -> &'static str {
        self.name
    }

    fn enqueue(&mut self, req: Request, head: &HeadState) {
        let v = self.characterize(&req, head);
        self.dispatcher.insert(req, v);
    }

    fn dequeue(&mut self, head: &HeadState) -> Option<Request> {
        let priority = &self.priority;
        let max_priority = self.max_priority;
        let stage3 = self.stage3;
        let mut refresh = |r: &Request| {
            let p = (priority)(r, head.now_us).min(max_priority) as u128;
            let max_x = (1u128 << stage3.resolution_bits) - 1;
            let x = p * max_x / max_priority as u128;
            let y = head.distance_to(r.cylinder) as u128;
            stage3_value(
                x,
                y,
                max_x + 1,
                stage3.cylinders.max(2) as u128,
                stage3.partitions,
            )
        };
        self.dispatcher.pop(Some(&mut refresh))
    }

    fn len(&self) -> usize {
        self.dispatcher.len()
    }

    fn for_each_pending(&self, f: &mut dyn FnMut(&Request)) {
        self.dispatcher.for_each_pending(f);
    }
}

/// Build an SFC1 mapping usable as the priority hook of a single-priority
/// scheduler (e.g. [`sched::DeadlineDriven::with_priority`]): folds the
/// request's whole QoS vector through `curve` into one absolute value.
pub fn sfc1_mapping(
    curve: CurveKind,
    dims: u32,
    level_bits: u32,
) -> Result<RequestKeyFn, SfcError> {
    let curve = curve.build(dims, level_bits)?;
    let side = curve.side();
    Ok(Box::new(move |r: &Request| {
        let mut point = [0u64; sched::MAX_QOS_DIMS];
        let d = curve.dims() as usize;
        for (j, slot) in point.iter_mut().enumerate().take(d) {
            let level = if j < r.qos.dims() {
                r.qos.level(j) as u64
            } else {
                side - 1
            };
            *slot = level.min(side - 1);
        }
        // SFC1 outputs fit u64 for any dims*bits <= 64 configuration.
        curve.index(&point[..d]) as u64
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DistanceMode;
    use sched::{Bucket, QosVector};

    fn stage3(r: u32) -> Stage3 {
        Stage3 {
            partitions: r,
            resolution_bits: 8,
            cylinders: 3832,
            distance: DistanceMode::Absolute,
        }
    }

    fn value_deadline_priority(levels: u8) -> PriorityFn {
        // A BUCKET-style score: value (inverted level) dominates, urgency
        // refines. Lower = served first.
        Box::new(move |r: &Request, now: Micros| {
            let value = r.qos.level(0).min(levels - 1) as u64;
            let slack_ms = r.slack_us(now).min(10_000_000) / 1000;
            value * 100_000 + slack_ms
        })
    }

    fn req(id: u64, level: u8, cyl: u32) -> Request {
        Request::read(id, 0, 500_000, cyl, 4096, QosVector::single(level))
    }

    #[test]
    fn respects_the_external_priority_between_partitions() {
        let mut s = Sfc3Extended::new(
            "bucket+sfc3",
            value_deadline_priority(8),
            8 * 100_000,
            stage3(8),
        );
        let head = HeadState::new(0, 0, 3832);
        s.enqueue(req(1, 7, 10), &head); // low value, near
        s.enqueue(req(2, 0, 3800), &head); // high value, far
        assert_eq!(s.dequeue(&head).unwrap().id, 2);
    }

    #[test]
    fn r1_orders_by_seek_distance() {
        let mut s = Sfc3Extended::new(
            "bucket+sfc3",
            value_deadline_priority(8),
            8 * 100_000,
            stage3(1),
        );
        let head = HeadState::new(1000, 0, 3832);
        s.enqueue(req(1, 0, 3500), &head); // high value, far
        s.enqueue(req(2, 7, 1010), &head); // low value, near
        assert_eq!(s.dequeue(&head).unwrap().id, 2, "R=1 is seek-only");
    }

    #[test]
    fn bucket_with_sfc3_reduces_seeks_vs_plain_bucket() {
        use obs::NullSink;
        use sim::{simulate, DiskService, SimOptions};
        use workload::PoissonConfig;
        let mut wl = PoissonConfig::figure8(3_000);
        wl.mean_interarrival_us = 10_000;
        let trace: Vec<_> = wl.generate(41).collect();

        let run = |s: &mut dyn DiskScheduler| {
            let mut service = DiskService::table1();
            simulate(
                s,
                &trace,
                &mut service,
                SimOptions::with_shape(3, 8),
                &mut NullSink,
            )
        };
        let plain = run(&mut Bucket::new(1.0, 0.001, 8));
        let mut extended = Sfc3Extended::new(
            "bucket+sfc3",
            value_deadline_priority(8),
            8 * 100_000,
            stage3(3),
        );
        let ext = run(&mut extended);
        assert!(
            ext.seek_us < plain.seek_us,
            "SFC3 extension should reduce seeks: {} vs {}",
            ext.seek_us,
            plain.seek_us
        );
    }

    #[test]
    fn sfc1_mapping_orders_by_curve() {
        let map = sfc1_mapping(CurveKind::Diagonal, 3, 4).unwrap();
        let hi = Request::read(1, 0, u64::MAX, 0, 512, QosVector::new(&[0, 0, 0]));
        let lo = Request::read(2, 0, u64::MAX, 0, 512, QosVector::new(&[15, 15, 15]));
        assert!(map(&hi) < map(&lo));
    }

    #[test]
    fn sfc1_mapping_rejects_bad_config() {
        assert!(sfc1_mapping(CurveKind::Hilbert, 0, 4).is_err());
    }
}
