//! Engine options and the batch entry points.
//!
//! The engine itself is [`EngineStepper`]; [`simulate`] and friends feed
//! one the whole trace and run it dry.

use crate::metrics::Metrics;
use crate::service::ServiceProvider;
use crate::step::EngineStepper;
use obs::{NullSink, TraceSink};
use sched::{DiskScheduler, Micros, Request};

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
    /// the waiting set, so a dispatch costs a prefix sum over `dims` rows
    /// of level counts, not a walk over the queue.
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

/// The fate of one request, produced by [`simulate_logged`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRecord {
    /// Request id from the trace.
    pub id: u64,
    /// Arrival time (µs).
    pub arrival_us: Micros,
    /// Completion time (µs); `None` when the request was dropped unserved.
    pub completion_us: Option<Micros>,
    /// Whether the deadline was lost (dropped, or completed late).
    pub lost: bool,
}

/// Run `scheduler` over `trace` against `service`; returns the metrics.
///
/// The trace must be sorted by arrival time (see
/// [`workload::validate_trace`]); ids need not be dense.
///
/// # Panics
/// At the first request whose `arrival_us` precedes its predecessor's,
/// naming both times ([`EngineStepper::submit`]'s in-order contract).
pub fn simulate(
    scheduler: &mut dyn DiskScheduler,
    trace: &[Request],
    service: &mut dyn ServiceProvider,
    options: SimOptions,
) -> Metrics {
    simulate_traced(scheduler, trace, service, options, &mut NullSink)
}

/// Like [`simulate`], additionally returning one [`RequestRecord`] per
/// request in service order (dropped requests included) — the raw
/// material for response-time distributions and per-request analysis.
///
/// # Panics
/// On a trace that is not arrival-sorted, as [`simulate`] does.
pub fn simulate_logged(
    scheduler: &mut dyn DiskScheduler,
    trace: &[Request],
    service: &mut dyn ServiceProvider,
    options: SimOptions,
) -> (Metrics, Vec<RequestRecord>) {
    let log = Vec::with_capacity(trace.len());
    EngineStepper::run_trace(scheduler, trace, service, options, Some(log), &mut NullSink)
}

/// Like [`simulate`], additionally emitting the engine-level event
/// timeline ([`obs::TraceEvent::Arrival`], [`obs::TraceEvent::ServiceStart`]
/// or [`obs::TraceEvent::Drop`] at each dispatch,
/// [`obs::TraceEvent::ServiceComplete`]) into `sink`.
///
/// To see scheduler-internal events (preemptions, sweep reversals) in
/// the same stream, build the scheduler over an [`obs::SharedSink`]
/// clone of `sink` — see the `trace` bench binary for the full wiring.
/// With [`obs::NullSink`] this monomorphizes to exactly [`simulate`].
///
/// # Panics
/// On a trace that is not arrival-sorted, as [`simulate`] does.
pub fn simulate_traced<S: TraceSink>(
    scheduler: &mut dyn DiskScheduler,
    trace: &[Request],
    service: &mut dyn ServiceProvider,
    options: SimOptions,
    sink: &mut S,
) -> Metrics {
    EngineStepper::run_trace(scheduler, trace, service, options, None, sink).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::TransferDominated;
    use sched::{Edf, Fcfs, QosVector, Sstf};

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
            simulate(s, &trace, &mut service, SimOptions::with_shape(1, 2))
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
            simulate(s, &trace, &mut service, SimOptions::with_shape(1, 2))
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
        );
        // The first is dispatched at t=0 (not yet late), the rest drop.
        assert_eq!(m.served, 1);
        assert_eq!(m.dropped, 9);
        assert_eq!(m.losses_total(), 10); // the served one completed late
    }

    #[test]
    fn logged_records_every_request_in_service_order() {
        let trace: Vec<Request> = (0..8)
            .map(|i| req(i, 0, u64::MAX, (i * 400) as u32, &[0]))
            .collect();
        let mut service = TransferDominated::uniform(1_000, 3832);
        let mut s = Sstf::new();
        let (m, log) = simulate_logged(&mut s, &trace, &mut service, SimOptions::with_shape(1, 2));
        assert_eq!(m.served, 8);
        assert_eq!(log.len(), 8);
        // Completion times are strictly increasing in service order.
        let times: Vec<_> = log.iter().map(|r| r.completion_us.unwrap()).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]));
        // SSTF from cylinder 0 serves in cylinder order here.
        let ids: Vec<u64> = log.iter().map(|r| r.id).collect();
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
        assert!(log.iter().all(|r| !r.lost));
    }

    #[test]
    fn logged_marks_drops() {
        let trace: Vec<Request> = (0..5).map(|i| req(i, 0, 1, 0, &[0])).collect();
        let mut service = TransferDominated::uniform(1_000, 3832);
        let (m, log) = simulate_logged(
            &mut Fcfs::new(),
            &trace,
            &mut service,
            SimOptions::with_shape(1, 2).dropping(),
        );
        assert_eq!(m.dropped, 4);
        assert_eq!(log.iter().filter(|r| r.completion_us.is_none()).count(), 4);
        assert!(log.iter().all(|r| r.lost));
    }

    #[test]
    fn traced_run_reconciles_with_metrics() {
        use obs::Snapshot;
        // A deadline mix that produces served, late and dropped requests.
        let trace: Vec<Request> = (0..30)
            .map(|i| {
                let deadline = if i % 3 == 0 { 1 + i * 10 } else { u64::MAX };
                req(i, i * 500, deadline, ((i * 733) % 3832) as u32, &[0])
            })
            .collect();
        let options = SimOptions::with_shape(1, 2).dropping();
        let plain = {
            let mut service = TransferDominated::uniform(2_000, 3832);
            simulate(&mut Fcfs::new(), &trace, &mut service, options)
        };
        let mut snapshot = Snapshot::new();
        let traced = {
            let mut service = TransferDominated::uniform(2_000, 3832);
            simulate_traced(
                &mut Fcfs::new(),
                &trace,
                &mut service,
                options,
                &mut snapshot,
            )
        };
        // Tracing must not change the simulation.
        assert_eq!(plain, traced);
        // And the event counters must reconcile with the metrics exactly.
        let c = snapshot.counters;
        assert_eq!(c.arrivals, 30);
        traced.reconcile(&c).expect("events match metrics");
        assert!(traced.dropped > 0, "workload produced no drops");
        assert_eq!(snapshot.response_us.count(), traced.served);
        assert_eq!(snapshot.response_us.max(), Some(traced.max_response_us));
        assert_eq!(snapshot.seek_cylinders.count(), traced.served);
        assert_eq!(snapshot.queue_depth.count(), c.service_starts + c.drops);
    }

    #[test]
    fn traced_timeline_orders_each_request() {
        use obs::{RingSink, TraceEvent};
        let trace: Vec<Request> = (0..10)
            .map(|i| req(i, i * 100, u64::MAX, (i * 311 % 3832) as u32, &[0]))
            .collect();
        let mut ring = RingSink::new(4096);
        let mut service = TransferDominated::uniform(1_000, 3832);
        simulate_traced(
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
    fn zero_fault_plan_is_bit_identical() {
        use crate::DiskService;
        use diskmodel::{Disk, FaultPlan};
        let trace: Vec<Request> = (0..50)
            .map(|i| {
                req(
                    i,
                    i * 800,
                    60_000 + i * 800,
                    ((i * 977) % 3832) as u32,
                    &[0],
                )
            })
            .collect();
        let options = SimOptions::with_shape(1, 2).dropping().with_retries(3);
        let plain = {
            let mut service = DiskService::table1();
            simulate(&mut Fcfs::new(), &trace, &mut service, options)
        };
        let faulted = {
            let mut service = DiskService::with_faults(Disk::table1(), FaultPlan::none());
            simulate(&mut Fcfs::new(), &trace, &mut service, options)
        };
        assert_eq!(plain, faulted, "zero-fault plan must cost nothing");
        assert_eq!(faulted.media_errors, 0);
        assert_eq!(faulted.failed, 0);
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
            simulate(
                &mut Fcfs::new(),
                &trace,
                &mut service,
                SimOptions::with_shape(1, 2).with_retries(retries),
            )
        };
        let no_retry = run(1);
        assert!(no_retry.media_errors > 10, "rate should fire");
        assert_eq!(no_retry.failed, no_retry.media_errors, "every error fatal");
        assert_eq!(no_retry.retries, 0);
        assert_eq!(no_retry.served + no_retry.failed, 200);
        let with_retry = run(5);
        assert!(with_retry.retries > 0);
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
        let m = simulate_traced(
            &mut Fcfs::new(),
            &trace,
            &mut service,
            SimOptions::with_shape(1, 2).with_retries(8),
            &mut ring,
        );
        assert!(m.retries > 0, "workload produced no retries");
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
    fn fault_run_reconciles_events_with_metrics() {
        use crate::DiskService;
        use diskmodel::{Disk, FaultPlan};
        use obs::Snapshot;
        let trace: Vec<Request> = (0..300)
            .map(|i| req(i, i * 200, u64::MAX, ((i * 311) % 3832) as u32, &[0]))
            .collect();
        let mut snapshot = Snapshot::new();
        let mut service =
            DiskService::with_faults(Disk::table1(), FaultPlan::media(11, 100_000, 50_000));
        let m = simulate_traced(
            &mut Fcfs::new(),
            &trace,
            &mut service,
            SimOptions::with_shape(1, 2).with_retries(3),
            &mut snapshot,
        );
        let c = snapshot.counters;
        assert!(m.media_errors > 0 && m.sector_remaps > 0);
        m.reconcile(&c).expect("events match metrics");
    }

    #[test]
    fn member_failure_degrades_reads_and_rebuilds() {
        use crate::Raid5Service;
        use diskmodel::FaultPlan;
        // Member 2 dies at t=0; rebuild one stripe per 4 foreground
        // completions, 20 stripes total.
        let plan = FaultPlan::none()
            .with_member_failure(2, 0)
            .with_rebuild(20, 4);
        let trace: Vec<Request> = (0..160)
            .map(|i| req(i, i * 2_000, u64::MAX, (i % 500) as u32, &[0]))
            .collect();
        let mut service = Raid5Service::with_faults(plan);
        let m = simulate(
            &mut Fcfs::new(),
            &trace,
            &mut service,
            SimOptions::with_shape(1, 2),
        );
        assert_eq!(m.served, 160, "degraded group must still serve");
        assert!(m.degraded_reads > 0, "no read hit the failed member");
        assert_eq!(m.rebuild_ios, 20, "rebuild should finish its stripes");
        assert!(m.rebuild_us > 0);
        assert_eq!(service.rebuilt_stripes(), 20);
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
            )
        };
        let healthy = run(FaultPlan::none());
        let limping = run(FaultPlan::none().with_limp(0, 2000));
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
        );
        assert_eq!(m.mean_response_us(), 7_000.0);
    }
}
