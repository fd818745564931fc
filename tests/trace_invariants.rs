//! Property-based invariants of the observability layer: whatever the
//! workload, the event stream must (a) change nothing — a `NullSink`
//! run is bit-identical to an untraced run, (b) tell a coherent story —
//! every request's lifecycle events appear exactly once, in order, with
//! monotone timestamps, and (c) agree with the independently-kept
//! counters in [`sim::Metrics`] and the cascade dispatcher.

use cascaded_sfc::cascade::{CascadeConfig, CascadedSfc};
use cascaded_sfc::obs::{Histogram, RingSink, SharedSink, Snapshot, TraceSink};
use cascaded_sfc::sched::{QosVector, Request};
use cascaded_sfc::sim::{simulate, simulate_traced, SimOptions, TransferDominated};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Arbitrary sorted dense-id trace: simultaneous arrivals, expired and
/// relaxed deadlines, duplicate cylinders (as in `tests/stress.rs`).
fn arb_trace() -> impl Strategy<Value = Vec<Request>> {
    prop::collection::vec(
        (
            0u64..500_000,                     // arrival
            prop::option::of(0u64..1_000_000), // deadline offset (None = relaxed)
            0u32..3832,                        // cylinder
            prop::collection::vec(0u8..16, 1..4),
        ),
        1..80,
    )
    .prop_map(|rows| {
        let mut trace: Vec<Request> = rows
            .into_iter()
            .enumerate()
            .map(|(i, (arrival, dl, cyl, qos))| {
                let deadline = dl.map(|d| arrival + d).unwrap_or(u64::MAX);
                Request::read(
                    i as u64,
                    arrival,
                    deadline,
                    cyl,
                    65_536,
                    QosVector::new(&qos),
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

/// One fully-traced paper-default run: the shared ring sees both the
/// engine's lifecycle events and the dispatcher's internal events.
fn traced_run(
    trace: &[Request],
    drop: bool,
) -> (cascaded_sfc::sim::Metrics, RingSink, (u64, u64, u64)) {
    let shared = SharedSink::new(RingSink::new(1 << 16));
    let mut engine_sink = shared.clone();
    let mut s =
        CascadedSfc::with_sink(CascadeConfig::paper_default(3, 3832), shared.clone()).unwrap();
    let mut service = TransferDominated::uniform(5_000, 3832);
    let mut options = SimOptions::with_shape(3, 16);
    if drop {
        options = options.dropping();
    }
    let m = simulate_traced(&mut s, trace, &mut service, options, &mut engine_sink);
    let counters = s.dispatch_counters();
    drop_sinks(engine_sink, s);
    let ring = shared
        .try_unwrap()
        .unwrap_or_else(|_| panic!("all clones dropped"));
    (m, ring, counters)
}

fn drop_sinks<S: TraceSink>(engine: SharedSink<S>, scheduler: CascadedSfc<SharedSink<S>>) {
    drop(engine);
    drop(scheduler.into_sink());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn null_sink_changes_nothing(trace in arb_trace(), drop in any::<bool>()) {
        let run_plain = || {
            let mut s = CascadedSfc::new(CascadeConfig::paper_default(3, 3832)).unwrap();
            let mut service = TransferDominated::uniform(5_000, 3832);
            let mut options = SimOptions::with_shape(3, 16);
            if drop { options = options.dropping(); }
            simulate(&mut s, &trace, &mut service, options)
        };
        let run_traced = || {
            let mut s = CascadedSfc::new(CascadeConfig::paper_default(3, 3832)).unwrap();
            let mut service = TransferDominated::uniform(5_000, 3832);
            let mut options = SimOptions::with_shape(3, 16);
            if drop { options = options.dropping(); }
            simulate_traced(
                &mut s,
                &trace,
                &mut service,
                options,
                &mut cascaded_sfc::obs::NullSink,
            )
        };
        prop_assert_eq!(run_plain(), run_traced());
    }

    #[test]
    fn every_request_tells_a_coherent_story(trace in arb_trace(), drop in any::<bool>()) {
        let (m, ring, _) = traced_run(&trace, drop);
        prop_assert_eq!(ring.evicted(), 0, "ring sized for the whole run");

        // Group lifecycle events (the ones that carry a request id).
        let mut per_req: BTreeMap<u64, Vec<(&'static str, u64)>> = BTreeMap::new();
        for e in ring.events() {
            if let Some(id) = e.req() {
                per_req.entry(id).or_default().push((e.name(), e.now_us()));
            }
        }
        prop_assert_eq!(per_req.len(), trace.len(), "every request traced");

        let mut served = 0u64;
        let mut dropped = 0u64;
        for (id, events) in &per_req {
            let names: Vec<&str> = events.iter().map(|(n, _)| *n).collect();
            match names.as_slice() {
                ["arrival", "service_start", "service_complete"] => served += 1,
                ["arrival", "drop"] => dropped += 1,
                other => prop_assert!(false, "request {} lifecycle: {:?}", id, other),
            }
            let stamps: Vec<u64> = events.iter().map(|&(_, t)| t).collect();
            prop_assert!(
                stamps.windows(2).all(|w| w[0] <= w[1]),
                "request {} stamps regress: {:?}", id, stamps
            );
        }
        prop_assert_eq!(served, m.served);
        prop_assert_eq!(dropped, m.dropped);
    }

    #[test]
    fn dispatcher_events_match_its_counters(trace in arb_trace()) {
        let (_, ring, (preempts, promotions, swaps)) = traced_run(&trace, false);
        let count = |name: &str| ring.events().filter(|e| e.name() == name).count() as u64;
        prop_assert_eq!(count("preempt"), preempts);
        prop_assert_eq!(count("sp_promote"), promotions);
        prop_assert_eq!(count("queue_swap"), swaps);
        // paper_default has ER on: one expansion per blocked preemption
        // or promotion, resets only at swaps that found it expanded.
        prop_assert_eq!(count("er_expand"), preempts + promotions);
        prop_assert!(count("er_reset") <= swaps);
    }

    #[test]
    fn snapshot_merge_equals_one_big_snapshot(trace in arb_trace()) {
        // Splitting the stream and merging the halves' snapshots is the
        // same as one snapshot over the whole stream — the property the
        // striped/RAID path relies on.
        let (_, ring, _) = traced_run(&trace, false);
        let events = ring.to_vec();
        let mut whole = Snapshot::new();
        for e in &events {
            whole.emit(e);
        }
        let (first, second) = events.split_at(events.len() / 2);
        let mut a = Snapshot::new();
        let mut b = Snapshot::new();
        for e in first {
            a.emit(e);
        }
        for e in second {
            b.emit(e);
        }
        a.merge(&b);
        prop_assert_eq!(a, whole);
    }

    #[test]
    fn histogram_merge_equals_concatenation(
        xs in prop::collection::vec(0u64..u64::MAX, 0..200),
        ys in prop::collection::vec(0u64..u64::MAX, 0..200),
    ) {
        let mut whole = Histogram::new();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for &x in &xs {
            whole.record(x);
            a.record(x);
        }
        for &y in &ys {
            whole.record(y);
            b.record(y);
        }
        a.merge(&b);
        prop_assert_eq!(a, whole);
    }
}
