//! Engine options and the batch entry point.
//!
//! The engine itself is [`EngineStepper`]; [`simulate`] feeds one the
//! whole trace and runs it dry.

use crate::metrics::Metrics;
use crate::service::ServiceProvider;
use crate::step::EngineStepper;
use obs::TraceSink;
use sched::{DiskScheduler, Request};

/// Simulation policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Drop requests whose deadline has already passed when they are
    /// dispatched, without serving them (§6: "a request not serviced
    /// prior to this deadline is considered lost"). When `false`, late
    /// requests are still served and counted as late.
    pub drop_past_due: bool,
    /// QoS dimensions to track in the metrics. Priority inversions are
    /// always counted over these: the engine keeps a per-level census of
    /// the waiting set, so a dispatch costs one fixed-width masked sum
    /// over each of `dims` rows of level counts (O(dims · width), no
    /// branch on the served level), not a walk over the queue.
    pub dims: usize,
    /// Priority levels per dimension to track in the metrics.
    pub levels: usize,
    /// Total service attempts allowed per request (1 = never retry, the
    /// default). A transient media error is retried, immediately, only
    /// while fewer than this many attempts were made *and* the request's
    /// deadline has not yet passed — a retry that cannot possibly meet
    /// the deadline is pointless disk work, so the request is abandoned
    /// as a loss instead. An exhausted budget is a loss
    /// ([`Metrics::failed`]), never a hang.
    pub max_attempts: u32,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            drop_past_due: false,
            dims: sched::MAX_QOS_DIMS,
            levels: 16,
            max_attempts: 1,
        }
    }
}

impl SimOptions {
    /// Track `dims` dimensions of `levels` levels.
    pub fn with_shape(dims: usize, levels: usize) -> Self {
        SimOptions {
            dims,
            levels,
            ..Default::default()
        }
    }

    /// Enable §6-style dropping of past-due requests.
    pub fn dropping(mut self) -> Self {
        self.drop_past_due = true;
        self
    }

    /// Allow up to `max_attempts` total service attempts per request
    /// (retries stop early once the deadline has passed).
    pub fn with_retries(mut self, max_attempts: u32) -> Self {
        self.max_attempts = max_attempts.max(1);
        self
    }
}

/// Run `scheduler` over `trace` against `service`, emitting the engine's
/// event timeline into `sink`; returns the metrics.
///
/// The timeline is [`obs::TraceEvent::Arrival`] per request, then
/// [`obs::TraceEvent::ServiceStart`] or [`obs::TraceEvent::Drop`] at its
/// dispatch, the fault-path events of its service attempts, and one
/// terminal [`obs::TraceEvent::ServiceComplete`],
/// [`obs::TraceEvent::Drop`] or [`obs::TraceEvent::RequestFailed`]. Pass
/// [`obs::NullSink`] for a run with no events: the emission sites
/// compile away. To see scheduler-internal events (preemptions, sweep
/// reversals) in the same stream, build the scheduler over an
/// [`obs::SharedSink`] clone of `sink` — `tests/fault_tolerance.rs`'s
/// `shedding_accounts_for_every_arrival` has the full wiring.
///
/// The trace must be sorted by arrival time (see
/// [`workload::validate_trace`]); ids need not be dense.
///
/// # Panics
/// At the first request whose `arrival_us` precedes its predecessor's,
/// naming both times ([`EngineStepper::submit`]'s in-order contract).
pub fn simulate<S: TraceSink>(
    scheduler: &mut dyn DiskScheduler,
    trace: &[Request],
    service: &mut dyn ServiceProvider,
    options: SimOptions,
    sink: &mut S,
) -> Metrics {
    EngineStepper::run_trace(scheduler, trace, service, options, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::TransferDominated;
    use obs::NullSink;
    use sched::{Edf, Fcfs, Micros, QosVector, Sstf};

    fn req(id: u64, arrival: Micros, deadline: Micros, cyl: u32, qos: &[u8]) -> Request {
        Request::read(id, arrival, deadline, cyl, 512, QosVector::new(qos))
    }

    #[test]
    fn serves_everything_once() {
        let trace: Vec<Request> = (0..20)
            .map(|i| req(i, i * 1_000, u64::MAX, (i * 100 % 3832) as u32, &[0]))
            .collect();
        let mut service = TransferDominated::uniform(5_000, 3832);
        let m = simulate(
            &mut Fcfs::new(),
            &trace,
            &mut service,
            SimOptions::with_shape(1, 16),
            &mut NullSink,
        );
        assert_eq!(m.served, 20);
        assert_eq!(m.dropped, 0);
        assert!(m.makespan_us >= 20 * 5_000);
    }

    #[test]
    fn fcfs_has_no_arrival_inversion_but_priority_inversion_exists() {
        // Alternating priorities: FCFS serves in arrival order, so the
        // later high-priority requests wait behind low-priority ones.
        let trace: Vec<Request> = (0..10)
            .map(|i| req(i, 0, u64::MAX, 0, &[(i % 2) as u8]))
            .collect();
        let mut service = TransferDominated::uniform(1_000, 3832);
        let m = simulate(
            &mut Fcfs::new(),
            &trace,
            &mut service,
            SimOptions::with_shape(1, 2),
            &mut NullSink,
        );
        assert!(m.inversions_per_dim[0] > 0);
    }

    #[test]
    fn edf_misses_fewer_deadlines_than_fcfs_under_pressure() {
        // Deadlines force reordering: the i-th request has deadline
        // inversely related to arrival.
        let n = 40u64;
        let trace: Vec<Request> = (0..n)
            .map(|i| {
                let deadline = 1_000 + (n - i) * 2_000;
                req(i, i * 10, deadline, 0, &[0])
            })
            .collect();
        let run = |s: &mut dyn DiskScheduler| {
            let mut service = TransferDominated::uniform(1_500, 3832);
            simulate(
                s,
                &trace,
                &mut service,
                SimOptions::with_shape(1, 2),
                &mut NullSink,
            )
        };
        let fcfs = run(&mut Fcfs::new());
        let edf = run(&mut Edf::new());
        assert!(
            edf.losses_total() <= fcfs.losses_total(),
            "edf {} vs fcfs {}",
            edf.losses_total(),
            fcfs.losses_total()
        );
    }

    #[test]
    fn sstf_beats_fcfs_on_seek_time() {
        let trace: Vec<Request> = (0..60)
            .map(|i| req(i, 0, u64::MAX, ((i * 2711) % 3832) as u32, &[0]))
            .collect();
        let run = |s: &mut dyn DiskScheduler| {
            let mut service = crate::DiskService::table1();
            simulate(
                s,
                &trace,
                &mut service,
                SimOptions::with_shape(1, 2),
                &mut NullSink,
            )
        };
        let fcfs = run(&mut Fcfs::new());
        let sstf = run(&mut Sstf::new());
        assert!(
            sstf.seek_us < fcfs.seek_us / 2,
            "sstf {} vs fcfs {}",
            sstf.seek_us,
            fcfs.seek_us
        );
    }

    #[test]
    fn drop_past_due_counts_losses() {
        // Hopeless deadlines: everything arrives at once with 1 µs slack.
        let trace: Vec<Request> = (0..10).map(|i| req(i, 0, 1, 0, &[0])).collect();
        let mut service = TransferDominated::uniform(1_000, 3832);
        let m = simulate(
            &mut Fcfs::new(),
            &trace,
            &mut service,
            SimOptions::with_shape(1, 2).dropping(),
            &mut NullSink,
        );
        // The first is dispatched at t=0 (not yet late), the rest drop.
        assert_eq!(m.served, 1);
        assert_eq!(m.dropped, 9);
        assert_eq!(m.losses_total(), 10); // the served one completed late
    }

    /// Each request's terminal event, in service order.
    fn terminal_events(ring: &obs::RingSink) -> Vec<obs::TraceEvent> {
        use obs::TraceEvent;
        ring.events()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::ServiceComplete { .. }
                        | TraceEvent::Drop { .. }
                        | TraceEvent::RequestFailed { .. }
                )
            })
            .copied()
            .collect()
    }

    #[test]
    fn events_close_every_request_in_service_order() {
        use obs::{RingSink, TraceEvent};
        let trace: Vec<Request> = (0..8)
            .map(|i| req(i, 0, u64::MAX, (i * 400) as u32, &[0]))
            .collect();
        let mut service = TransferDominated::uniform(1_000, 3832);
        let mut ring = RingSink::new(1024);
        let m = simulate(
            &mut Sstf::new(),
            &trace,
            &mut service,
            SimOptions::with_shape(1, 2),
            &mut ring,
        );
        assert_eq!(m.served, 8);
        let done: Vec<(u64, Micros, bool)> = terminal_events(&ring)
            .iter()
            .map(|e| match *e {
                TraceEvent::ServiceComplete {
                    req, now_us, late, ..
                } => (req, now_us, late),
                other => panic!("unexpected terminal event {other:?}"),
            })
            .collect();
        assert_eq!(done.len(), 8);
        // Completion times are strictly increasing in service order.
        assert!(done.windows(2).all(|w| w[0].1 < w[1].1));
        // SSTF from cylinder 0 serves in cylinder order here.
        let ids: Vec<u64> = done.iter().map(|d| d.0).collect();
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
        assert!(done.iter().all(|d| !d.2));
    }

    #[test]
    fn events_mark_drops() {
        use obs::{RingSink, TraceEvent};
        let trace: Vec<Request> = (0..5).map(|i| req(i, 0, 1, 0, &[0])).collect();
        let mut service = TransferDominated::uniform(1_000, 3832);
        let mut ring = RingSink::new(1024);
        let m = simulate(
            &mut Fcfs::new(),
            &trace,
            &mut service,
            SimOptions::with_shape(1, 2).dropping(),
            &mut ring,
        );
        assert_eq!(m.dropped, 4);
        let done = terminal_events(&ring);
        assert_eq!(done.len(), 5);
        let drops = done
            .iter()
            .filter(|e| matches!(e, TraceEvent::Drop { .. }))
            .count();
        assert_eq!(drops, 4);
        // Every request lost: four dropped, the served one completed late.
        assert!(done.iter().all(|e| match *e {
            TraceEvent::ServiceComplete { late, .. } => late,
            _ => true,
        }));
    }

    #[test]
    fn traced_timeline_orders_each_request() {
        use obs::{RingSink, TraceEvent};
        let trace: Vec<Request> = (0..10)
            .map(|i| req(i, i * 100, u64::MAX, (i * 311 % 3832) as u32, &[0]))
            .collect();
        let mut ring = RingSink::new(4096);
        let mut service = TransferDominated::uniform(1_000, 3832);
        simulate(
            &mut Sstf::new(),
            &trace,
            &mut service,
            SimOptions::with_shape(1, 2),
            &mut ring,
        );
        // Per request: arrival <= service_start (the dispatch) <= complete.
        for id in 0..10u64 {
            let times: Vec<(&'static str, u64)> = ring
                .events()
                .filter(|e| e.req() == Some(id))
                .map(|e| (e.name(), e.now_us()))
                .collect();
            let names: Vec<&str> = times.iter().map(|(n, _)| *n).collect();
            assert_eq!(
                names,
                vec!["arrival", "service_start", "service_complete"],
                "request {id}"
            );
            assert!(times.windows(2).all(|w| w[0].1 <= w[1].1), "request {id}");
        }
        // Scheduling events are globally time-ordered. Arrivals are not:
        // they are delivered in batches between services, so an arrival
        // that happened mid-service is emitted after that service's
        // completion event with an earlier stamp.
        let stamps: Vec<u64> = ring
            .events()
            .filter(|e| e.name() != "arrival")
            .map(TraceEvent::now_us)
            .collect();
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn transient_errors_fail_without_retries_and_recover_with_them() {
        use crate::DiskService;
        use diskmodel::{Disk, FaultPlan};
        // 20% transient rate, generous deadlines.
        let trace: Vec<Request> = (0..200)
            .map(|i| req(i, i * 100, u64::MAX, ((i * 733) % 3832) as u32, &[0]))
            .collect();
        let plan = FaultPlan::media(99, 200_000, 0);
        let run = |retries: u32| {
            let mut service = DiskService::with_faults(Disk::table1(), plan.clone());
            let mut snapshot = obs::Snapshot::new();
            let m = simulate(
                &mut Fcfs::new(),
                &trace,
                &mut service,
                SimOptions::with_shape(1, 2).with_retries(retries),
                &mut snapshot,
            );
            (m, snapshot.counters)
        };
        let (no_retry, c) = run(1);
        assert!(c.media_errors > 10, "rate should fire");
        assert_eq!(no_retry.failed, c.media_errors, "every error fatal");
        assert_eq!(c.retries, 0);
        assert_eq!(no_retry.served + no_retry.failed, 200);
        let (with_retry, c) = run(5);
        assert!(c.retries > 0);
        assert!(
            with_retry.failed < no_retry.failed / 4,
            "retries should recover most transients: {} vs {}",
            with_retry.failed,
            no_retry.failed
        );
        assert_eq!(with_retry.served + with_retry.failed, 200);
    }

    #[test]
    fn retries_never_pass_the_deadline() {
        use crate::DiskService;
        use diskmodel::{Disk, FaultPlan};
        use obs::{RingSink, TraceEvent};
        // Half the requests get tight deadlines; a third of attempts fail.
        let trace: Vec<Request> = (0..150)
            .map(|i| {
                let deadline = if i % 2 == 0 {
                    i * 400 + 30_000
                } else {
                    u64::MAX
                };
                req(i, i * 400, deadline, ((i * 547) % 3832) as u32, &[0])
            })
            .collect();
        let mut ring = RingSink::new(1 << 16);
        let mut service = DiskService::with_faults(Disk::table1(), FaultPlan::media(5, 330_000, 0));
        let m = simulate(
            &mut Fcfs::new(),
            &trace,
            &mut service,
            SimOptions::with_shape(1, 2).with_retries(8),
            &mut ring,
        );
        let retries = ring
            .events()
            .filter(|e| matches!(e, TraceEvent::Retry { .. }))
            .count();
        assert!(retries > 0, "workload produced no retries");
        // Every retry was issued with non-negative slack: the engine
        // never spends disk time on a request that is already late.
        for e in ring.events() {
            if let TraceEvent::Retry { slack_us, .. } = e {
                assert!(*slack_us >= 0, "retry issued past deadline: {slack_us}");
            }
        }
        // Termination + accounting: everything is served, dropped, or
        // failed — never hung.
        assert_eq!(m.served + m.failed, 150);
    }

    #[test]
    fn limping_member_slows_service() {
        use crate::DiskService;
        use diskmodel::{Disk, FaultPlan};
        let trace: Vec<Request> = (0..80)
            .map(|i| req(i, 0, u64::MAX, ((i * 433) % 3832) as u32, &[0]))
            .collect();
        let run = |plan: FaultPlan| {
            let mut service = DiskService::with_faults(Disk::table1(), plan);
            simulate(
                &mut Fcfs::new(),
                &trace,
                &mut service,
                SimOptions::with_shape(1, 2),
                &mut NullSink,
            )
        };
        let healthy = run(FaultPlan::none());
        let limping = run(FaultPlan::none().with_limp(2000));
        assert!(
            limping.busy_us() > healthy.busy_us() * 3 / 2,
            "2x limp should dilate busy time: {} vs {}",
            limping.busy_us(),
            healthy.busy_us()
        );
    }

    #[test]
    #[should_panic(expected = "arrivals must be submitted in order: 50 after 100")]
    fn unsorted_trace_panics_at_the_offending_request() {
        let trace = vec![
            req(0, 100, u64::MAX, 0, &[0]),
            req(1, 50, u64::MAX, 0, &[0]),
        ];
        let mut service = TransferDominated::uniform(1_000, 3832);
        simulate(
            &mut Fcfs::new(),
            &trace,
            &mut service,
            SimOptions::default(),
            &mut NullSink,
        );
    }

    #[test]
    fn response_time_accumulates() {
        let trace = vec![req(0, 0, u64::MAX, 0, &[0])];
        let mut service = TransferDominated::uniform(7_000, 3832);
        let m = simulate(
            &mut Fcfs::new(),
            &trace,
            &mut service,
            SimOptions::default(),
            &mut NullSink,
        );
        assert_eq!(m.mean_response_us(), 7_000.0);
    }
}
