//! Multi-disk striped simulation: the PanaViss deployment shape.
//!
//! The paper's server stripes every stream over a RAID-5 group and runs
//! *one scheduler per member disk*, yet schedules one member in its
//! experiments: §6 sizes the workload to one member's share of every
//! stream. This module simulates the whole healthy group instead —
//! requests are routed to members by the RAID layout, and each member
//! runs its own scheduler against its own disk timeline — so
//! `tests/striped_group.rs` can check that the one-member view is a
//! pessimistic bound on the group (DESIGN.md reconstruction 7).
//!
//! The member timelines are independent (reads touch one data disk), so
//! the group behaves like `members − 1` data disks in parallel — the
//! throughput multiplier the workload crate's NewsByte stripe accounting
//! assumes, verified here end-to-end.

use crate::engine::{simulate, SimOptions};
use crate::metrics::Metrics;
use crate::service::DiskService;
use diskmodel::{Disk, Raid5};
use obs::NullSink;
use sched::{DiskScheduler, Request};

/// Run a trace against the paper's 4+1 RAID-5 group of healthy Table-1
/// disks ([`Raid5::table1`]) and return each member's metrics, indexed
/// by member; [`Metrics::merged`] folds them into one group view.
/// Requests address logical blocks via their `cylinder` field; each is
/// routed to the member disk that owns its data block, and the member's
/// own scheduler (one from `make_scheduler` per member) and disk serve
/// it. Member timelines run one after another, in member order.
pub fn simulate_striped(
    trace: &[Request],
    make_scheduler: impl Fn() -> Box<dyn DiskScheduler>,
    options: SimOptions,
) -> Vec<Metrics> {
    let layout = Raid5::table1();
    let members = layout.members();
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
    member_traces
        .iter_mut()
        .map(|member_trace| {
            // Routing preserves the trace's arrival order, so each
            // member's slice is almost always already sorted — skip the
            // sort entirely unless an out-of-order pair shows up.
            let sorted = member_trace
                .windows(2)
                .all(|w| (w[0].arrival_us, w[0].id) <= (w[1].arrival_us, w[1].id));
            if !sorted {
                member_trace.sort_by_key(|r| (r.arrival_us, r.id));
            }
            simulate(
                make_scheduler().as_mut(),
                member_trace,
                &mut DiskService::table1(),
                options,
                &mut NullSink,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let per_member = simulate_striped(
            &trace,
            || Box::new(Fcfs::new()),
            SimOptions::with_shape(1, 2),
        );
        assert_eq!(Metrics::merged(&per_member).served, 400);
        assert_eq!(per_member.len(), 5);
        // Four data disks share the load; the parity rotation spreads it
        // over all five members.
        let loads: Vec<u64> = per_member.iter().map(|m| m.served).collect();
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
            simulate(
                &mut s,
                &trace,
                &mut service,
                SimOptions::with_shape(1, 2),
                &mut NullSink,
            )
        };
        let group = Metrics::merged(&simulate_striped(
            &trace,
            || Box::new(Fcfs::new()),
            SimOptions::with_shape(1, 2),
        ));
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
        let per_member = simulate_striped(
            &trace,
            || Box::new(Fcfs::new()),
            SimOptions::with_shape(1, 2).dropping(),
        );
        // Hopeless deadlines: almost everything lost, ratio near 1.
        assert!(Metrics::merged(&per_member).loss_ratio() > 0.9);
        assert_eq!(
            per_member.iter().map(|m| m.requests_total()).sum::<u64>(),
            200
        );
    }
}
