//! Cross-crate integration: every scheduler in the workspace driven by
//! the simulator over every workload family, checking conservation,
//! determinism and basic sanity — the contract the figure harnesses rely
//! on.

use cascaded_sfc::cascade::{CascadeConfig, CascadedSfc, DispatchConfig};
use cascaded_sfc::obs::{RingSink, SharedSink, TraceEvent};
use cascaded_sfc::sched::{
    Batched, Bucket, CScan, Cello, CostModel, DeadlineDriven, DiskScheduler, Edf, Fcfs, FdScan,
    MultiQueue, QosVector, Request, Scan, ScanEdf, ScanRt, Ssedo, Ssedv, Sstf,
};
use cascaded_sfc::sim::{
    simulate, DiskService, EngineStepper, Metrics, SimOptions, TransferDominated,
};
use cascaded_sfc::workload::{NewsByteConfig, PoissonConfig};

/// Every scheduler in the workspace, freshly built.
fn all_schedulers() -> Vec<Box<dyn DiskScheduler>> {
    let cost = CostModel::table1;
    vec![
        Box::new(Fcfs::new()),
        Box::new(Sstf::new()),
        Box::new(Scan::new()),
        Box::new(CScan::new()),
        Box::new(Edf::new()),
        Box::new(ScanEdf::new(20_000)),
        Box::new(FdScan::new(cost())),
        Box::new(ScanRt::new(cost())),
        Box::new(Ssedo::new(0.5)),
        Box::new(Ssedv::new(0.5, cost())),
        Box::new(MultiQueue::new(0)),
        Box::new(Bucket::new(1.0, 0.01, 8)),
        Box::new(DeadlineDriven::new(cost())),
        Box::new(Cello::realtime_throughput(cost())),
        Box::new(Batched::new(CScan::new(), "batched-c-scan")),
        Box::new(CascadedSfc::new(CascadeConfig::paper_default(3, 3832)).unwrap()),
    ]
}

fn poisson_trace(n: usize) -> Vec<cascaded_sfc::sched::Request> {
    let mut wl = PoissonConfig::figure8(n);
    wl.mean_interarrival_us = 15_000;
    wl.generate(99)
}

#[test]
fn every_scheduler_conserves_requests() {
    let trace = poisson_trace(2_000);
    for mut s in all_schedulers() {
        let mut service = DiskService::table1();
        let m = simulate(
            s.as_mut(),
            &trace,
            &mut service,
            SimOptions::with_shape(3, 8),
        );
        assert_eq!(
            m.served + m.dropped,
            trace.len() as u64,
            "{} lost or duplicated requests",
            s.name()
        );
        assert_eq!(m.dropped, 0, "{} dropped without drop_past_due", s.name());
        assert!(m.makespan_us > 0);
    }
}

#[test]
fn every_scheduler_conserves_requests_with_dropping() {
    let trace = poisson_trace(2_000);
    for mut s in all_schedulers() {
        let mut service = DiskService::table1();
        let m = simulate(
            s.as_mut(),
            &trace,
            &mut service,
            SimOptions::with_shape(3, 8).dropping(),
        );
        assert_eq!(
            m.served + m.dropped,
            trace.len() as u64,
            "{} lost requests under dropping",
            s.name()
        );
    }
}

#[test]
fn simulation_is_deterministic() {
    let trace = poisson_trace(1_500);
    let run = || {
        let mut s = CascadedSfc::new(CascadeConfig::paper_default(3, 3832)).unwrap();
        let mut service = DiskService::table1();
        simulate(&mut s, &trace, &mut service, SimOptions::with_shape(3, 8))
    };
    let a: Metrics = run();
    let b: Metrics = run();
    assert_eq!(a, b);
}

#[test]
fn newsbyte_workload_drives_all_schedulers() {
    let mut wl = NewsByteConfig::paper(72);
    wl.duration_us = 10_000_000;
    let trace = wl.generate(5);
    assert!(!trace.is_empty());
    for mut s in all_schedulers() {
        let mut service = DiskService::table1();
        let m = simulate(
            s.as_mut(),
            &trace,
            &mut service,
            SimOptions::with_shape(1, 8).dropping(),
        );
        assert_eq!(m.served + m.dropped, trace.len() as u64, "{}", s.name());
    }
}

#[test]
fn transfer_dominated_service_matches_disk_free_schedulers() {
    // Under a uniform service model, total busy time is identical across
    // policies — only waiting differs.
    let trace = poisson_trace(1_000);
    let mut totals = Vec::new();
    for mut s in all_schedulers() {
        let mut service = TransferDominated::uniform(10_000, 3832);
        let m = simulate(
            s.as_mut(),
            &trace,
            &mut service,
            SimOptions::with_shape(3, 8),
        );
        totals.push((s.name().to_string(), m.busy_us()));
    }
    let first = totals[0].1;
    for (name, busy) in &totals {
        assert_eq!(*busy, first, "{name} busy time differs");
    }
}

#[test]
fn utilization_is_sane() {
    let trace = poisson_trace(3_000);
    let mut s = Sstf::new();
    let mut service = DiskService::table1();
    let m = simulate(&mut s, &trace, &mut service, SimOptions::with_shape(3, 8));
    let u = m.utilization();
    assert!(u > 0.3 && u <= 1.0, "utilization {u}");
}

/// How a driver decides when to pump its stepper.
#[derive(Debug, Clone, Copy)]
enum Pumping {
    /// Only when [`EngineStepper::next_action_us`] lies before the
    /// arrival — the farm daemon's rule.
    WhenDue,
    /// Before every arrival.
    AtArrivals,
    /// Before every arrival and at six horizons inside the gap leading up
    /// to it, most of which find the stepper idle.
    AtArrivalsAndIdleHorizons,
}

/// Alternating phases: 30 arrivals 1 ms apart (the queue builds, bounded
/// queues shed), then 30 arrivals 80 ms apart (the disk idles in between).
fn bursty_trace(n: u64) -> Vec<Request> {
    let mut now = 0;
    (0..n)
        .map(|i| {
            now += if (i / 30) % 2 == 0 { 1_000 } else { 80_000 };
            let mix = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
            let qos = [(mix % 8) as u8, (mix / 8 % 8) as u8, (mix / 64 % 8) as u8];
            let cylinder = (mix % 3832) as u32;
            Request::read(
                i,
                now,
                now + 400_000,
                cylinder,
                64 * 1024,
                QosVector::new(&qos),
            )
        })
        .collect()
}

/// The `i`-th policy under test: every baseline, then the cascade —
/// wired to `sink`, so its dispatcher's own events are in the stream —
/// under the four dispatcher regimes.
fn scheduler_under_test(i: usize, sink: SharedSink<RingSink>) -> Option<Box<dyn DiskScheduler>> {
    let mut baselines = all_schedulers();
    if i < baselines.len() {
        return Some(baselines.swap_remove(i));
    }
    let dispatch = [
        DispatchConfig::paper_default(),
        DispatchConfig::fully_preemptive(),
        DispatchConfig::non_preemptive(),
        DispatchConfig::paper_default().with_max_queue(16),
    ]
    .into_iter()
    .nth(i - baselines.len())?;
    let config = CascadeConfig::paper_default(3, 3832).with_dispatch(dispatch);
    Some(Box::new(CascadedSfc::with_sink(config, sink).unwrap()))
}

fn stepped(
    i: usize,
    trace: &[Request],
    pumping: Pumping,
) -> Option<(String, Metrics, Vec<TraceEvent>)> {
    let mut sink = SharedSink::new(RingSink::new(1 << 16));
    let mut scheduler = scheduler_under_test(i, sink.clone())?;
    let mut service = DiskService::table1();
    let options = SimOptions::with_shape(3, 8).dropping();
    let mut stepper = EngineStepper::new(options, 3832);
    let mut last = 0;
    for r in trace {
        // Horizons split the gap since the last arrival evenly; the last
        // one is the arrival itself.
        let horizons = match pumping {
            Pumping::WhenDue => u64::from(
                stepper
                    .next_action_us(scheduler.len())
                    .is_some_and(|at| at < r.arrival_us),
            ),
            Pumping::AtArrivals => 1,
            Pumping::AtArrivalsAndIdleHorizons => 7,
        };
        for k in 1..=horizons {
            let horizon = last + (r.arrival_us - last) * k / horizons;
            stepper.run_until(horizon, scheduler.as_mut(), &mut service, &mut sink);
        }
        stepper.submit(r.clone());
        last = r.arrival_us;
    }
    stepper.finish(scheduler.as_mut(), &mut service, &mut sink);
    let name = scheduler.name().to_string();
    drop(scheduler);
    let ring = sink.try_unwrap().expect("the scheduler is gone");
    assert_eq!(
        ring.evicted(),
        0,
        "{name}: the ring must hold the whole run"
    );
    Some((name, stepper.into_metrics(), ring.to_vec()))
}

/// The premise of the farm daemon's event loop (`farm::daemon`, "The
/// event loop"): a dequeue on an empty queue is idempotent and silent, so
/// pumps of an idle stepper can be added or skipped freely. Metrics and
/// the full event stream — the cascade's dispatcher events included —
/// must not depend on how often an idle stepper was pumped.
#[test]
fn every_scheduler_tolerates_repeated_empty_dequeues() {
    let trace = bursty_trace(360);
    let mut policies = 0;
    while let Some((name, lazy_metrics, lazy_events)) = stepped(policies, &trace, Pumping::WhenDue)
    {
        assert!(
            lazy_metrics.served > 0 && lazy_metrics.requests_total() <= trace.len() as u64,
            "{name}: {lazy_metrics:?}"
        );
        for pumping in [Pumping::AtArrivals, Pumping::AtArrivalsAndIdleHorizons] {
            let (_, metrics, events) = stepped(policies, &trace, pumping).unwrap();
            assert_eq!(metrics, lazy_metrics, "{name}: metrics under {pumping:?}");
            assert_eq!(events, lazy_events, "{name}: events under {pumping:?}");
        }
        policies += 1;
    }
    assert_eq!(policies, all_schedulers().len() + 4);
}
