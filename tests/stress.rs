//! Property-based stress: random traces through every scheduler against
//! every service model, checking conservation, determinism and metric
//! consistency — the "no scheduler panics, loses or duplicates a request
//! under any input" contract.

use cascaded_sfc::cascade::{CascadeConfig, CascadedSfc};
use cascaded_sfc::obs::{NullSink, RingSink, TraceEvent};
use cascaded_sfc::sched::{
    Batched, Bucket, CScan, CostModel, DeadlineDriven, DiskScheduler, Edf, Fcfs, MultiQueue,
    QosVector, Request, Scan, ScanEdf, Sstf,
};
use cascaded_sfc::sim::{simulate, DiskService, SimOptions, TransferDominated};
use proptest::prelude::*;

/// Strategy: an arbitrary (sorted, dense-id) trace of up to 120 requests
/// with adversarial coordinates: simultaneous arrivals, zero/huge sizes,
/// already-expired and relaxed deadlines, duplicate cylinders.
fn arb_trace() -> impl Strategy<Value = Vec<Request>> {
    prop::collection::vec(
        (
            0u64..2_000_000,                   // arrival
            prop::option::of(0u64..3_000_000), // deadline offset (None = relaxed)
            0u32..3832,                        // cylinder
            prop::sample::select(vec![0u64, 1, 512, 4096, 65536, 1 << 20]),
            prop::collection::vec(0u8..16, 0..4), // qos levels
        ),
        1..120,
    )
    .prop_map(|rows| {
        let mut trace: Vec<Request> = rows
            .into_iter()
            .enumerate()
            .map(|(i, (arrival, dl, cyl, bytes, qos))| {
                let deadline = dl.map(|d| arrival + d).unwrap_or(u64::MAX);
                Request::read(
                    i as u64,
                    arrival,
                    deadline,
                    cyl,
                    bytes,
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

/// Requests with no QoS vector break Bucket/MultiQueue by contract;
/// give everything at least one level.
fn with_a_level(trace: Vec<Request>) -> Vec<Request> {
    trace
        .into_iter()
        .map(|mut r| {
            if r.qos.dims() == 0 {
                r.qos = QosVector::single(0);
            }
            r
        })
        .collect()
}

fn all_schedulers() -> Vec<Box<dyn DiskScheduler>> {
    vec![
        Box::new(Fcfs::new()),
        Box::new(Sstf::new()),
        Box::new(Scan::new()),
        Box::new(CScan::new()),
        Box::new(Edf::new()),
        Box::new(ScanEdf::new(10_000)),
        Box::new(MultiQueue::new(0)),
        Box::new(Bucket::new(1.0, 0.01, 16)),
        Box::new(DeadlineDriven::new(CostModel::table1())),
        Box::new(Batched::new(Edf::new(), "batched-edf")),
        Box::new(CascadedSfc::new(CascadeConfig::paper_default(3, 3832)).unwrap()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn conservation_under_arbitrary_traces(trace in arb_trace(), drop in any::<bool>()) {
        let trace = with_a_level(trace);
        let mut options = SimOptions::with_shape(3, 16);
        if drop {
            options = options.dropping();
        }
        for mut s in all_schedulers() {
            let mut service = DiskService::table1();
            let m = simulate(s.as_mut(), &trace, &mut service, options, &mut NullSink);
            prop_assert_eq!(
                m.served + m.dropped,
                trace.len() as u64,
                "{} conservation", s.name()
            );
            prop_assert_eq!(m.losses_total(), m.dropped + m.late);
            if !drop {
                prop_assert_eq!(m.dropped, 0);
            }
        }
    }

    #[test]
    fn logged_run_covers_every_request(trace in arb_trace()) {
        // Every request's timeline ends in exactly one terminal event, and
        // the lost ones are the metrics' losses, under every policy.
        let trace = with_a_level(trace);
        for mut s in all_schedulers() {
            let mut service = TransferDominated::uniform(5_000, 3832);
            // Arrival, then ServiceStart and ServiceComplete, or Drop.
            let mut ring = RingSink::new(3 * trace.len());
            let m = simulate(
                s.as_mut(),
                &trace,
                &mut service,
                SimOptions::with_shape(3, 16).dropping(),
                &mut ring,
            );
            prop_assert_eq!(ring.evicted(), 0);
            let mut ids = Vec::new();
            let mut lost = 0u64;
            for e in ring.events() {
                match *e {
                    TraceEvent::ServiceComplete { req, late, .. } => {
                        ids.push(req);
                        lost += u64::from(late);
                    }
                    TraceEvent::Drop { req, .. } | TraceEvent::RequestFailed { req, .. } => {
                        ids.push(req);
                        lost += 1;
                    }
                    _ => {}
                }
            }
            ids.sort_unstable();
            prop_assert_eq!(ids, (0..trace.len() as u64).collect::<Vec<_>>(), "{}", s.name());
            prop_assert_eq!(lost, m.losses_total(), "{}", s.name());
        }
    }

    #[test]
    fn determinism_across_replays(trace in arb_trace()) {
        let run = || {
            let mut s = CascadedSfc::new(CascadeConfig::paper_default(2, 3832)).unwrap();
            let mut service = DiskService::table1();
            simulate(
                &mut s,
                &trace,
                &mut service,
                SimOptions::with_shape(2, 16), &mut NullSink)
        };
        prop_assert_eq!(run(), run());
    }
}
