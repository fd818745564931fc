//! Property-based invariants of the fault-injection layer:
//!
//! * a degraded RAID-5 read really is the *max of the survivors* — the
//!   public result matches a mirror reconstruction from independent
//!   member-disk clones,
//! * the zero [`FaultPlan`] is bit-identical to the unfaulted baseline
//!   (pay-for-what-you-use), for both the single-disk and the grouped
//!   RAID-5 service,
//! * tracing a fault-injected run changes nothing — `NullSink` and
//!   snapshot-sink runs produce identical metrics,
//! * media-error bookkeeping balances exactly: every error either
//!   triggered a retry or failed the request,
//! * bounded-queue shedding accounts for every arrival: dispatched or
//!   shed, never both, never neither.

use cascaded_sfc::cascade::{CascadeConfig, CascadedSfc, DispatchConfig};
use cascaded_sfc::diskmodel::{Disk, FaultPlan, Raid5, ServiceBreakdown};
use cascaded_sfc::obs::{NullSink, SharedSink, Snapshot};
use cascaded_sfc::sched::{QosVector, Request};
use cascaded_sfc::sim::{
    simulate, simulate_traced, DiskService, Metrics, Raid5Service, ServiceProvider, SimOptions,
};
use proptest::prelude::*;

const BLOCK: u64 = 64 * 1024;

/// Arbitrary sorted dense-id trace over the Table-1 cylinder range.
fn arb_trace() -> impl Strategy<Value = Vec<Request>> {
    prop::collection::vec(
        (
            0u64..2_000_000,                   // arrival
            prop::option::of(0u64..1_000_000), // deadline offset (None = relaxed)
            0u32..3832,                        // cylinder / logical block
            0u8..16,                           // priority level
        ),
        1..60,
    )
    .prop_map(|rows| {
        let mut trace: Vec<Request> = rows
            .into_iter()
            .enumerate()
            .map(|(i, (arrival, dl, cyl, level))| {
                let deadline = dl.map(|d| arrival + d).unwrap_or(u64::MAX);
                Request::read(
                    i as u64,
                    arrival,
                    deadline,
                    cyl,
                    BLOCK,
                    QosVector::single(level),
                )
            })
            .collect();
        trace.sort_by_key(|r| (r.arrival_us, r.id));
        for (i, r) in trace.iter_mut().enumerate() {
            r.id = i as u64;
        }
        trace
    })
}

/// A media-fault plan with rates high enough to fire on short traces.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (0u64..1_000, 0u32..400_000, 0u32..200_000)
        .prop_map(|(seed, t, b)| FaultPlan::media(seed, t, b))
}

/// The member-disk cylinder [`Raid5`] maps a stripe to (the layout is
/// deterministic: average blocks-per-cylinder, spread sequentially).
fn stripe_cylinder(stripe: u64) -> u32 {
    let g = Disk::table1();
    let g = g.geometry();
    let cyls = g.cylinders() as u64;
    let per_cyl = (g.capacity_bytes() / BLOCK / cyls).max(1);
    ((stripe / per_cyl) % cyls) as u32
}

fn paper_scheduler() -> CascadedSfc {
    CascadedSfc::new(CascadeConfig::paper_default(1, 3832)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Degraded reads pay exactly the slowest survivor: a mirror of
    /// five independent member-disk clones, fed the same operations,
    /// predicts every breakdown the group returns.
    #[test]
    fn degraded_read_is_max_of_survivors(
        lbas in prop::collection::vec(0u64..20_000, 1..50),
        failed in 0usize..5,
    ) {
        let mut raid = Raid5::table1();
        let mut mirror: Vec<Disk> = (0..5).map(|_| Disk::table1()).collect();
        for lba in lbas {
            let loc = raid.locate(lba);
            let cyl = stripe_cylinder(loc.stripe);
            let want = if loc.data_disk == failed {
                // Reconstruction: every survivor reads, the slowest gates.
                let mut worst = ServiceBreakdown::default();
                for (m, disk) in mirror.iter_mut().enumerate() {
                    if m == failed {
                        continue;
                    }
                    let b = disk.service(cyl, BLOCK);
                    if b.total_us() > worst.total_us() {
                        worst = b;
                    }
                }
                worst
            } else {
                // Healthy member: a plain read of the data disk.
                mirror[loc.data_disk].service(cyl, BLOCK)
            };
            let got = raid.degraded_read(lba, BLOCK, failed);
            prop_assert_eq!(got, want, "lba {} (data disk {})", lba, loc.data_disk);
        }
    }

    /// The zero plan injects nothing: running through the fault layer —
    /// even with a retry budget armed — is bit-identical to the plain
    /// service, for both the single disk and the grouped RAID-5.
    #[test]
    fn zero_fault_plan_is_bit_identical_to_baseline(
        trace in arb_trace(),
        retries in 1u32..5,
        dropping in any::<bool>(),
    ) {
        let options = {
            let mut o = SimOptions::with_shape(1, 16).with_retries(retries);
            if dropping { o = o.dropping(); }
            o
        };
        let run = |mut service: Box<dyn ServiceProvider>| -> Metrics {
            simulate(&mut paper_scheduler(), &trace, service.as_mut(), options)
        };
        let plain = run(Box::new(DiskService::table1()));
        let zeroed = run(Box::new(DiskService::with_faults(
            Disk::table1(),
            FaultPlan::none(),
        )));
        prop_assert_eq!(&plain, &zeroed, "single-disk zero plan diverged");
        prop_assert_eq!(plain.media_errors, 0);

        let plain = run(Box::new(Raid5Service::table1()));
        let zeroed = run(Box::new(Raid5Service::with_faults(FaultPlan::none())));
        prop_assert_eq!(&plain, &zeroed, "RAID-5 zero plan diverged");
    }

    /// Observers never change outcomes: a fault-injected run through a
    /// `NullSink` equals the same run streaming into a live snapshot —
    /// and the snapshot's fault counters agree with the metrics.
    #[test]
    fn traced_faulted_run_is_bit_identical_to_untraced(
        trace in arb_trace(),
        plan in arb_plan(),
        retries in 1u32..5,
    ) {
        let options = SimOptions::with_shape(1, 16).dropping().with_retries(retries);
        let untraced = {
            let mut service = DiskService::with_faults(Disk::table1(), plan.clone());
            simulate_traced(
                &mut paper_scheduler(),
                &trace,
                &mut service,
                options,
                &mut NullSink,
            )
        };
        let (traced, snap) = {
            let mut service = DiskService::with_faults(Disk::table1(), plan);
            let mut snap = Snapshot::new();
            let m = simulate_traced(
                &mut paper_scheduler(),
                &trace,
                &mut service,
                options,
                &mut snap,
            );
            (m, snap)
        };
        prop_assert_eq!(&untraced, &traced);
        let c = &snap.counters;
        prop_assert_eq!(c.media_errors, traced.media_errors);
        prop_assert_eq!(c.retries, traced.retries);
        prop_assert_eq!(c.request_failures, traced.failed);
        prop_assert_eq!(c.sector_remaps, traced.sector_remaps);
    }

    /// The retry ledger balances: every media error either bought a
    /// retry or ended the request, and every request is exactly one of
    /// served / dropped / failed.
    #[test]
    fn media_error_accounting_balances(
        trace in arb_trace(),
        plan in arb_plan(),
        retries in 1u32..6,
    ) {
        let mut service = DiskService::with_faults(Disk::table1(), plan);
        let m = simulate(
            &mut paper_scheduler(),
            &trace,
            &mut service,
            SimOptions::with_shape(1, 16).dropping().with_retries(retries),
        );
        prop_assert_eq!(m.media_errors, m.retries + m.failed);
        prop_assert_eq!(m.served + m.dropped + m.failed, trace.len() as u64);
        prop_assert!(m.retries <= (retries as u64 - 1) * trace.len() as u64);
    }

    /// Bounded-queue shedding: every arrival is either dispatched or
    /// shed; an effectively-unbounded cap sheds nothing.
    #[test]
    fn shedding_accounts_for_every_arrival(
        trace in arb_trace(),
        cap in 1usize..8,
    ) {
        let run = |cap: usize| {
            let cfg = CascadeConfig::paper_default(1, 3832)
                .with_dispatch(DispatchConfig::paper_default().with_max_queue(cap));
            let shared = SharedSink::new(Snapshot::new());
            let mut engine_sink = shared.clone();
            let mut s = CascadedSfc::with_sink(cfg, shared.clone()).unwrap();
            let mut service = DiskService::table1();
            let m = simulate_traced(
                &mut s,
                &trace,
                &mut service,
                SimOptions::with_shape(1, 16),
                &mut engine_sink,
            );
            let sheds = s.sheds();
            drop(engine_sink);
            drop(s.into_sink());
            let snap = shared
                .try_unwrap()
                .unwrap_or_else(|_| panic!("all clones dropped"));
            (m, snap, sheds)
        };

        let (m, snap, sheds) = run(cap);
        let c = &snap.counters;
        prop_assert_eq!(c.sheds, sheds);
        prop_assert_eq!(c.arrivals, c.service_starts + c.drops + c.sheds);
        prop_assert_eq!(m.served + m.dropped + sheds, trace.len() as u64);

        let (_, _, sheds) = run(trace.len() + 1);
        prop_assert_eq!(sheds, 0, "cap above the trace length cannot shed");
    }
}
