//! Multi-disk striped simulation: the PanaViss deployment shape.
//!
//! The paper's server stripes every stream over a RAID-5 group and runs
//! *one scheduler per member disk* (each disk sees its share of the
//! blocks; §6 sizes the workload accordingly). This module simulates the
//! whole group: requests are routed to members by the RAID layout, each
//! member runs its own scheduler instance against its own disk timeline,
//! and the group-level metrics aggregate the members.
//!
//! The member timelines are independent (reads touch one data disk), so
//! the group behaves like `members − 1` data disks in parallel — the
//! throughput multiplier the workload crate's NewsByte stripe accounting
//! assumes, verified here end-to-end.
//!
//! Member timelines run one after another, in member order.

use crate::engine::{simulate_traced, SimOptions};
use crate::metrics::Metrics;
use crate::service::DiskService;
use diskmodel::{Disk, FaultPlan, Raid5};
use obs::TraceSink;
use sched::{DiskScheduler, Request};

/// Result of a striped run: per-member metrics plus the aggregate.
#[derive(Debug)]
pub struct StripedOutcome {
    /// Metrics per member disk (index = member id).
    pub per_member: Vec<Metrics>,
    /// Group makespan: the slowest member's makespan.
    pub makespan_us: u64,
}

impl StripedOutcome {
    /// Total requests served across members.
    pub fn served(&self) -> u64 {
        Metrics::total_served(&self.per_member)
    }

    /// Total deadline losses across members.
    pub fn losses(&self) -> u64 {
        Metrics::total_losses(&self.per_member)
    }

    /// Aggregate loss ratio.
    pub fn loss_ratio(&self) -> f64 {
        Metrics::group_loss_ratio(&self.per_member)
    }

    /// The members folded into one group-level [`Metrics`] via
    /// [`Metrics::merge`] (counts add, `makespan_us` is the slowest
    /// member's).
    pub fn aggregate(&self) -> Metrics {
        Metrics::merged(&self.per_member)
    }
}

/// Run a trace against a RAID-5 group of `members` Table-1 disks, one
/// scheduler per *data* placement. Requests address logical blocks via
/// their `cylinder` field (reinterpreted as an LBA group, matching
/// [`crate::Raid5Service`]); each request is routed to the member disk
/// that owns its data block and the member's own scheduler+disk pair
/// simulates it, emitting into `sink`. `make_scheduler` builds one
/// scheduler per member.
///
/// Member `m`'s disk draws from fault stream `m` of `plan` (transient
/// media errors, bad-sector remaps, limping members), so the group sees
/// independent but fully deterministic fault sequences; with
/// [`FaultPlan::none`] every member is a healthy Table-1 disk. Combine
/// with [`SimOptions::with_retries`] for the recovery policy. Pass a
/// [`obs::Snapshot`] as `sink` for a group-level view whose counters
/// reconcile with [`StripedOutcome::aggregate`] ([`Metrics::reconcile`]).
///
/// Full member failure, degraded reads, and background rebuild are *not*
/// available here: the striped model runs each member on an independent
/// timeline, and parity reconstruction couples a read to the other
/// members' clocks. Use [`crate::Raid5Service::with_faults`] (grouped
/// timeline) for those scenarios — see DESIGN.md §6d.
///
/// # Panics
///
/// Panics if `plan` schedules a member failure, or if `members < 3`.
pub fn simulate_striped<S: TraceSink>(
    trace: &[Request],
    members: usize,
    make_scheduler: impl Fn() -> Box<dyn DiskScheduler>,
    options: SimOptions,
    plan: &FaultPlan,
    sink: &mut S,
) -> StripedOutcome {
    assert!(
        plan.member_failure.is_none(),
        "member failure needs the grouped timeline: use Raid5Service::with_faults"
    );
    assert!(members >= 3, "RAID-5 needs at least 3 members");
    let layout = Raid5::new(Disk::table1(), members);
    let cylinders = Disk::table1().geometry().cylinders();

    // Route requests: member = data disk of the request's logical block;
    // the member-local cylinder spreads stripes across the platter. A
    // counting pass sizes each member's trace exactly, so routing does no
    // reallocation.
    let mut counts = vec![0usize; members];
    for r in trace {
        counts[layout.locate(r.cylinder as u64).data_disk] += 1;
    }
    let mut member_traces: Vec<Vec<Request>> =
        counts.iter().map(|&n| Vec::with_capacity(n)).collect();
    for r in trace {
        let loc = layout.locate(r.cylinder as u64);
        let mut routed = r.clone();
        routed.cylinder = ((loc.stripe * 37) % cylinders as u64) as u32;
        member_traces[loc.data_disk].push(routed);
    }
    for member_trace in member_traces.iter_mut() {
        // Routing preserves the trace's arrival order, so each member's
        // slice is almost always already sorted — skip the sort entirely
        // unless an out-of-order pair shows up.
        let sorted = member_trace
            .windows(2)
            .all(|w| (w[0].arrival_us, w[0].id) <= (w[1].arrival_us, w[1].id));
        if !sorted {
            member_trace.sort_by_key(|r| (r.arrival_us, r.id));
        }
    }

    let mut per_member = Vec::with_capacity(members);
    let mut makespan = 0u64;
    for (member, member_trace) in member_traces.iter().enumerate() {
        let mut scheduler = make_scheduler();
        let mut service = DiskService::with_faults_as_member(Disk::table1(), plan.clone(), member);
        let m = simulate_traced(
            scheduler.as_mut(),
            member_trace,
            &mut service,
            options,
            sink,
        );
        makespan = makespan.max(m.makespan_us);
        per_member.push(m);
    }
    StripedOutcome {
        per_member,
        makespan_us: makespan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use obs::{NullSink, Snapshot};
    use sched::{Fcfs, QosVector};

    /// A saturating batch of single-block reads over many logical blocks.
    fn batch(n: u64) -> Vec<Request> {
        (0..n)
            .map(|i| {
                Request::read(
                    i,
                    0,
                    u64::MAX,
                    (i % 3000) as u32, // logical block group
                    64 * 1024,
                    QosVector::single(0),
                )
            })
            .collect()
    }

    #[test]
    fn routes_every_request_to_exactly_one_member() {
        let trace = batch(400);
        let out = simulate_striped(
            &trace,
            5,
            || Box::new(Fcfs::new()),
            SimOptions::with_shape(1, 2),
            &FaultPlan::none(),
            &mut NullSink,
        );
        assert_eq!(out.served(), 400);
        assert_eq!(out.per_member.len(), 5);
        // Four data disks share the load; the parity rotation spreads it
        // over all five members.
        let loads: Vec<u64> = out.per_member.iter().map(|m| m.served).collect();
        assert!(loads.iter().all(|&l| l > 0), "uneven routing: {loads:?}");
    }

    #[test]
    fn striping_parallelizes_the_batch() {
        // The same batch on one disk takes ~4x the group's makespan
        // (4 data disks work in parallel).
        let trace = batch(400);
        let single = {
            let mut s = Fcfs::new();
            let mut service = DiskService::table1();
            simulate(&mut s, &trace, &mut service, SimOptions::with_shape(1, 2))
        };
        let group = simulate_striped(
            &trace,
            5,
            || Box::new(Fcfs::new()),
            SimOptions::with_shape(1, 2),
            &FaultPlan::none(),
            &mut NullSink,
        );
        let speedup = single.makespan_us as f64 / group.makespan_us as f64;
        assert!(
            (2.5..5.5).contains(&speedup),
            "striping speedup {speedup:.2} (single {} vs group {})",
            single.makespan_us,
            group.makespan_us
        );
    }

    #[test]
    fn aggregate_ratios_are_consistent() {
        let trace: Vec<Request> = (0..200)
            .map(|i| Request::read(i, 0, 1, (i % 100) as u32, 64 * 1024, QosVector::single(0)))
            .collect();
        let out = simulate_striped(
            &trace,
            5,
            || Box::new(Fcfs::new()),
            SimOptions::with_shape(1, 2).dropping(),
            &FaultPlan::none(),
            &mut NullSink,
        );
        // Hopeless deadlines: almost everything lost, ratio near 1.
        assert!(out.loss_ratio() > 0.9);
        assert_eq!(
            out.per_member
                .iter()
                .map(|m| m.requests_total())
                .sum::<u64>(),
            200
        );
    }

    #[test]
    fn aggregate_folds_members_into_group_totals() {
        let trace = batch(400);
        let out = simulate_striped(
            &trace,
            5,
            || Box::new(Fcfs::new()),
            SimOptions::with_shape(1, 2),
            &FaultPlan::none(),
            &mut NullSink,
        );
        let total = out.aggregate();
        assert_eq!(total.served, out.served());
        assert_eq!(total.losses_total(), out.losses());
        assert_eq!(total.makespan_us, out.makespan_us);
        assert_eq!(
            total.response_total_us,
            out.per_member
                .iter()
                .map(|m| m.response_total_us)
                .sum::<u128>()
        );
    }

    #[test]
    fn observed_snapshot_reconciles_with_aggregate_metrics() {
        let trace = batch(400);
        let mut snap = Snapshot::new();
        let out = simulate_striped(
            &trace,
            5,
            || Box::new(Fcfs::new()),
            SimOptions::with_shape(1, 2),
            &FaultPlan::none(),
            &mut snap,
        );
        let total = out.aggregate();
        let c = &snap.counters;
        assert_eq!(c.arrivals, 400);
        total.reconcile(c).expect("events match metrics");
        assert_eq!(snap.response_us.count(), total.served);
        assert_eq!(snap.response_us.max(), Some(total.max_response_us));
    }

    #[test]
    fn faulted_group_with_zero_plan_matches_healthy_run() {
        let trace = batch(200);
        let options = SimOptions::with_shape(1, 2);
        let healthy = simulate_striped(
            &trace,
            5,
            || Box::new(Fcfs::new()),
            options,
            &FaultPlan::none(),
            &mut NullSink,
        );
        // A seeded plan whose rates are all zero draws nothing.
        let mut snap = Snapshot::new();
        let faulted = simulate_striped(
            &trace,
            5,
            || Box::new(Fcfs::new()),
            options,
            &FaultPlan::media(77, 0, 0),
            &mut snap,
        );
        assert_eq!(healthy.aggregate(), faulted.aggregate());
        assert_eq!(snap.counters.media_errors, 0);
    }

    #[test]
    fn faulted_group_sees_member_distinct_media_errors() {
        let trace = batch(400);
        let mut snap = Snapshot::new();
        let out = simulate_striped(
            &trace,
            5,
            || Box::new(Fcfs::new()),
            SimOptions::with_shape(1, 2).with_retries(4),
            &FaultPlan::media(77, 150_000, 40_000),
            &mut snap,
        );
        let total = out.aggregate();
        assert!(total.media_errors > 0, "rate should fire");
        assert!(total.sector_remaps > 0);
        assert_eq!(snap.counters.media_errors, total.media_errors);
        assert_eq!(snap.counters.request_failures, total.failed);
        assert_eq!(total.served + total.failed, 400);
    }

    #[test]
    #[should_panic(expected = "grouped timeline")]
    fn faulted_group_rejects_member_failure_plans() {
        simulate_striped(
            &batch(10),
            5,
            || Box::new(Fcfs::new()),
            SimOptions::default(),
            &FaultPlan::none().with_member_failure(1, 0),
            &mut NullSink,
        );
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn rejects_small_groups() {
        simulate_striped(
            &batch(10),
            2,
            || Box::new(Fcfs::new()),
            SimOptions::default(),
            &FaultPlan::none(),
            &mut NullSink,
        );
    }
}
