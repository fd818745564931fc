//! Property-based invariants of the fault-injection layer:
//!
//! * the zero [`FaultPlan`] is bit-identical to the unfaulted baseline
//!   (pay-for-what-you-use),
//! * tracing a fault-injected run changes nothing — `NullSink` and
//!   snapshot-sink runs produce identical metrics,
//! * media-error bookkeeping balances exactly: every `MediaError` event
//!   either triggered a `Retry` or failed the request,
//! * bounded-queue shedding accounts for every arrival: dispatched or
//!   shed, never both, never neither.

use cascaded_sfc::cascade::{CascadeConfig, CascadedSfc, DispatchConfig};
use cascaded_sfc::diskmodel::{Disk, FaultPlan};
use cascaded_sfc::obs::{NullSink, SharedSink, Snapshot};
use cascaded_sfc::sched::{QosVector, Request};
use cascaded_sfc::sim::{simulate, DiskService, Metrics, ServiceProvider, SimOptions};
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

fn paper_scheduler() -> CascadedSfc {
    CascadedSfc::new(CascadeConfig::paper_default(1, 3832)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The zero plan injects nothing: running through the fault layer —
    /// even with a retry budget armed — is bit-identical to the plain
    /// service.
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
        let run = |mut service: Box<dyn ServiceProvider>| -> (Metrics, u64) {
            let mut snap = Snapshot::new();
            let m = simulate(&mut paper_scheduler(), &trace, service.as_mut(), options, &mut snap);
            (m, snap.counters.media_errors)
        };
        let plain = run(Box::new(DiskService::table1()));
        let zeroed = run(Box::new(DiskService::with_faults(
            Disk::table1(),
            FaultPlan::none(),
        )));
        prop_assert_eq!(&plain, &zeroed, "single-disk zero plan diverged");
        prop_assert_eq!(plain.1, 0);
    }

    /// Observers never change outcomes: a fault-injected run through a
    /// `NullSink` equals the same run streaming into a live snapshot —
    /// and the snapshot's dispatch and loss counters and its histograms
    /// agree with the metrics.
    #[test]
    fn traced_faulted_run_is_bit_identical_to_untraced(
        trace in arb_trace(),
        plan in arb_plan(),
        retries in 1u32..5,
    ) {
        let options = SimOptions::with_shape(1, 16).dropping().with_retries(retries);
        let untraced = {
            let mut service = DiskService::with_faults(Disk::table1(), plan.clone());
            simulate(
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
            let m = simulate(
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
        prop_assert_eq!(c.request_failures, traced.failed);
        prop_assert_eq!(traced.reconcile(c), Ok(()));
        // The histograms are fed by the same events: one response per
        // completion, its maximum the metrics' own, one seek per
        // dispatch and one queue depth per dispatch or drop.
        prop_assert_eq!(snap.response_us.count(), traced.served);
        prop_assert_eq!(snap.response_us.max().unwrap_or(0), traced.max_response_us);
        prop_assert_eq!(snap.seek_cylinders.count(), c.service_starts);
        prop_assert_eq!(snap.queue_depth.count(), c.service_starts + c.drops);
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
        let mut snap = Snapshot::new();
        let m = simulate(
            &mut paper_scheduler(),
            &trace,
            &mut service,
            SimOptions::with_shape(1, 16).dropping().with_retries(retries),
            &mut snap,
        );
        let c = &snap.counters;
        prop_assert_eq!(c.media_errors, c.retries + m.failed);
        prop_assert_eq!(m.served + m.dropped + m.failed, trace.len() as u64);
        prop_assert!(c.retries <= (retries as u64 - 1) * trace.len() as u64);
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
            let m = simulate(
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
