//! Cross-crate integration: every scheduler in the workspace driven by
//! the simulator over every workload family, checking conservation,
//! determinism and basic sanity — the contract the figure harnesses rely
//! on.

use cascaded_sfc::cascade::{CascadeConfig, CascadedSfc, DispatchConfig};
use cascaded_sfc::obs::{NullSink, RingSink, SharedSink, TraceEvent};
use cascaded_sfc::sched::{
    Batched, Bucket, CScan, CostModel, DeadlineDriven, DiskScheduler, Edf, Fcfs, HeadState,
    MultiQueue, QosVector, Request, Retune, Scan, ScanEdf, Sstf,
};
use cascaded_sfc::sim::{
    simulate, DiskService, EngineStepper, Metrics, ServiceProvider, SimOptions, TransferDominated,
};
use cascaded_sfc::workload::{NewsByteConfig, PoissonConfig};

/// Every scheduler in the workspace, freshly built.
fn all_schedulers() -> Vec<Box<dyn DiskScheduler>> {
    vec![
        Box::new(Fcfs::new()),
        Box::new(Sstf::new()),
        Box::new(Scan::new()),
        Box::new(CScan::new()),
        Box::new(Edf::new()),
        Box::new(ScanEdf::new(20_000)),
        Box::new(MultiQueue::new(0)),
        Box::new(Bucket::new(1.0, 0.01, 8)),
        Box::new(DeadlineDriven::new(CostModel::table1())),
        Box::new(Batched::new(CScan::new(), "batched-c-scan")),
        Box::new(CascadedSfc::new(CascadeConfig::paper_default(3, 3832)).unwrap()),
    ]
}

fn poisson_trace(n: usize) -> Vec<cascaded_sfc::sched::Request> {
    let mut wl = PoissonConfig::figure8(n);
    wl.mean_interarrival_us = 15_000;
    wl.generate(99).collect()
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
            &mut NullSink,
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
            &mut NullSink,
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
        simulate(
            &mut s,
            &trace,
            &mut service,
            SimOptions::with_shape(3, 8),
            &mut NullSink,
        )
    };
    let a: Metrics = run();
    let b: Metrics = run();
    assert_eq!(a, b);
}

#[test]
fn newsbyte_workload_drives_all_schedulers() {
    let mut wl = NewsByteConfig::paper(72);
    wl.duration_us = 10_000_000;
    let trace: Vec<_> = wl.generate(5).collect();
    assert!(!trace.is_empty());
    for mut s in all_schedulers() {
        let mut service = DiskService::table1();
        let m = simulate(
            s.as_mut(),
            &trace,
            &mut service,
            SimOptions::with_shape(1, 8).dropping(),
            &mut NullSink,
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
            &mut NullSink,
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
    let m = simulate(
        &mut s,
        &trace,
        &mut service,
        SimOptions::with_shape(3, 8),
        &mut NullSink,
    );
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

/// The cascade's four dispatcher regimes.
fn cascade_regimes() -> [DispatchConfig; 4] {
    [
        DispatchConfig::paper_default(),
        DispatchConfig::fully_preemptive(),
        DispatchConfig::non_preemptive(),
        DispatchConfig::paper_default().with_max_queue(16),
    ]
}

/// The `i`-th policy under test: every baseline, then the cascade —
/// wired to `sink`, so its dispatcher's own events are in the stream —
/// under the four dispatcher regimes.
fn scheduler_under_test(i: usize, sink: SharedSink<RingSink>) -> Option<Box<dyn DiskScheduler>> {
    let mut baselines = all_schedulers();
    if i < baselines.len() {
        return Some(baselines.swap_remove(i));
    }
    let dispatch = cascade_regimes().into_iter().nth(i - baselines.len())?;
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

/// What an [`Audited`] scheduler saw.
#[derive(Default)]
struct Audit {
    /// §5.1 recounted by hand at every dequeue, one slot per dimension
    /// the engine tracks.
    inversions: Vec<u64>,
    /// Calls the engine made to `for_each_pending`.
    walks: u64,
    /// Dequeues that left somebody waiting.
    contended_dispatches: u64,
    /// Chunks in which a queued request was evicted *and* the chunk's
    /// last arrival was turned away on the spot.
    chunks_shedding_both_ways: u64,
}

impl Audit {
    /// An audit of an engine that tracks `dims` dimensions.
    fn tracking(dims: usize) -> Self {
        Audit {
            inversions: vec![0; dims],
            ..Audit::default()
        }
    }
}

/// Forwards everything to `inner`, keeping an [`Audit`]. It looks at
/// `inner`'s pending set directly, so `walks` counts only the engine's.
struct Audited {
    inner: Box<dyn DiskScheduler>,
    audit: std::rc::Rc<std::cell::RefCell<Audit>>,
}

impl Audited {
    fn pending(&self) -> Vec<Request> {
        let mut pending = Vec::with_capacity(self.inner.len());
        self.inner
            .for_each_pending(&mut |r| pending.push(r.clone()));
        pending
    }
}

impl DiskScheduler for Audited {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn enqueue(&mut self, req: Request, head: &HeadState) {
        self.inner.enqueue(req, head);
    }
    fn enqueue_batch(&mut self, batch: &[Request], head: &HeadState) {
        let before = self.pending();
        self.inner.enqueue_batch(batch, head);
        let after = self.pending();
        let queued = |set: &[Request], id: u64| set.iter().any(|r| r.id == id);
        let evicted = before.iter().any(|r| !queued(&after, r.id));
        let last_refused = !queued(&after, batch.last().expect("non-empty chunk").id);
        self.audit.borrow_mut().chunks_shedding_both_ways += u64::from(evicted && last_refused);
    }
    fn dequeue(&mut self, head: &HeadState) -> Option<Request> {
        let served = self.inner.dequeue(head)?;
        let waiting = self.pending();
        let mut audit = self.audit.borrow_mut();
        audit.contended_dispatches += u64::from(!waiting.is_empty());
        for (k, slot) in audit.inversions.iter_mut().enumerate() {
            let Some(mine) = served.qos.levels().get(k) else {
                continue;
            };
            *slot += waiting
                .iter()
                .filter(|w| w.qos.levels().get(k).is_some_and(|theirs| theirs < mine))
                .count() as u64;
        }
        Some(served)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn for_each_pending(&self, f: &mut dyn FnMut(&Request)) {
        self.audit.borrow_mut().walks += 1;
        self.inner.for_each_pending(f);
    }
    fn sheds(&self) -> u64 {
        self.inner.sheds()
    }
    fn queue_capacity(&self) -> Option<usize> {
        self.inner.queue_capacity()
    }
    fn retune(&mut self, knob: &Retune, head: &HeadState) -> bool {
        self.inner.retune(knob, head)
    }
    fn drain_pending(&mut self, head: &HeadState) -> Vec<Request> {
        self.inner.drain_pending(head)
    }
}

/// Arrivals that make a queue of 8 shed both ways inside one chunk, and
/// that do not fit the engine's 3 × 8 metric shape: some carry one or two
/// dimensions, some a level of 200.
fn census_trace() -> Vec<Request> {
    let read = |id: u64, at: u64, slack: u64, qos: &[u8]| {
        let cylinder = (id.wrapping_mul(2_654_435_761) % 3832) as u32;
        Request::read(id, at, at + slack, cylinder, 64 * 1024, QosVector::new(qos))
    };
    let mut trace = Vec::new();
    // One chunk of 8 at time 0, so it is the first thing the engine
    // delivers — and as many as the bounded queues hold, so they shed
    // exactly as many requests as were pre-loaded and end up as long as
    // the chunk alone: low priorities fill the queue, urgent ones evict them
    // and the pre-loaded backlog, and the last is the worst of all.
    for i in 0..8u64 {
        let (slack, qos) = match i {
            0..=2 => (900_000, [6, 7, 6]),
            3 => (50_000, [0, 0, 0]),
            4..=6 => (300_000 + i * 1_000, [5, 7, 5]),
            _ => (5_000_000, [7, 7, 7]),
        };
        trace.push(read(100 + i, 0, slack, &qos));
    }
    // A stream faster than the disk, in ragged shapes.
    for i in 0..24u64 {
        let mix = (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as u8;
        let qos = [mix % 8, if i % 5 == 0 { 200 } else { mix / 8 % 8 }, 5];
        let dims = 1 + (i % 3) as usize;
        trace.push(read(200 + i, 60_000 + i * 3_000, 400_000, &qos[..dims]));
    }
    // After the caller's drain: another single chunk, then a tail.
    for i in 0..12u64 {
        let qos = [(i % 8) as u8, 200, (7 - i % 8) as u8];
        trace.push(read(300 + i, 200_000, 100_000 + i * 50_000, &qos));
    }
    for i in 0..20u64 {
        let qos = [(i * 3 % 8) as u8, (i % 8) as u8];
        trace.push(read(400 + i, 205_000 + i * 5_000, 600_000, &qos));
    }
    trace
}

/// The engine counts §5.1 from a census it keeps of the waiting set, not
/// by walking the scheduler. Everything that can move the waiting set
/// behind the engine's back is thrown at it here; the count must still
/// be the one a walk at every dispatch gives.
#[test]
fn inversion_census_matches_a_naive_recount() {
    let bounded = cascade_regimes().map(|dispatch| -> Box<dyn DiskScheduler> {
        let config =
            CascadeConfig::paper_default(3, 3832).with_dispatch(dispatch.with_max_queue(8));
        Box::new(CascadedSfc::new(config).unwrap())
    });
    let trace = census_trace();
    for inner in all_schedulers().into_iter().chain(bounded) {
        let audit = std::rc::Rc::new(std::cell::RefCell::new(Audit::tracking(3)));
        let mut scheduler = Audited {
            inner,
            audit: audit.clone(),
        };
        let name = scheduler.name();
        let mut service = DiskService::table1();
        let mut stepper = EngineStepper::new(SimOptions::with_shape(3, 8), 3832);
        let mut sink = cascaded_sfc::obs::NullSink;

        // A backlog the engine never delivered, there before its first pump.
        let preloaded = 5;
        for id in 0..preloaded {
            let r = Request::read(
                id,
                0,
                2_000_000,
                40 * id as u32,
                64 * 1024,
                QosVector::new(&[6, 6, 7]),
            );
            scheduler.enqueue(r, &HeadState::new(0, 0, 3832));
        }
        let mut drained = 0;
        for r in &trace {
            stepper.run_until(r.arrival_us, &mut scheduler, &mut service, &mut sink);
            let head = HeadState::new(service.head(), stepper.now(), 3832);
            match r.id {
                // Between two pumps, mid-backlog: a live retune...
                210 => {
                    let applied = scheduler.retune(&Retune::ScanPartitions(5), &head);
                    assert_eq!(applied, name == "cascaded-sfc", "{name}");
                }
                // ...and the caller emptying the queue, as a closing drain does.
                300 => {
                    drained = scheduler.drain_pending(&head).len();
                    assert!(drained > 0 && scheduler.is_empty(), "{name}");
                }
                _ => {}
            }
            stepper.submit(r.clone());
        }
        stepper.finish(&mut scheduler, &mut service, &mut sink);

        let metrics = stepper.into_metrics();
        let audit = audit.borrow();
        assert_eq!(metrics.inversions_per_dim, audit.inversions, "{name}");
        assert!(metrics.inversions_total() > 0, "{name}");
        assert_eq!(
            metrics.served + scheduler.sheds() + drained as u64,
            preloaded + trace.len() as u64,
            "{name}"
        );
        if scheduler.queue_capacity().is_some() {
            assert!(audit.chunks_shedding_both_ways > 0, "{name}");
        } else {
            assert_eq!(scheduler.sheds(), 0, "{name}");
        }
    }
}

/// The point of the census: on a queue that never sheds, no dispatch
/// walks the pending set. (Debug builds re-derive every count taken with
/// somebody waiting by a walk, to check the census, so there the walks
/// are exactly those checks.)
#[test]
fn inversion_census_never_walks_an_unbounded_queue() {
    let trace = poisson_trace(5_000);
    let audit = std::rc::Rc::new(std::cell::RefCell::new(Audit::tracking(3)));
    let mut scheduler = Audited {
        inner: Box::new(Fcfs::new()),
        audit: audit.clone(),
    };
    let mut service = DiskService::table1();
    let m = simulate(
        &mut scheduler,
        &trace,
        &mut service,
        SimOptions::with_shape(3, 8),
        &mut NullSink,
    );
    assert_eq!(m.served, 5_000);
    let audit = audit.borrow();
    assert_eq!(m.inversions_per_dim, audit.inversions);
    assert!(
        audit.contended_dispatches > 1_000,
        "the queue never built up"
    );
    let checks = if cfg!(debug_assertions) {
        audit.contended_dispatches
    } else {
        0
    };
    assert_eq!(audit.walks, checks);
}

/// `n` arrivals, 4 ms apart (faster than the disk serves them), whose
/// QoS vectors are ragged against an engine tracking `dims` dimensions
/// of 8 levels: a third carry fewer dimensions and one in nine none at
/// all, and about one level in eleven lies past the engine's initial row
/// width, up to 255. Deadlines of 50 ms to 1.55 s make some requests
/// complete late.
fn ragged_qos_trace(dims: usize, n: u64) -> Vec<Request> {
    (0..n)
        .map(|i| {
            let mix = |salt: u64| ((i << 5) | salt).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
            let carried = if i % 9 == 4 {
                0
            } else if i % 3 == 1 {
                1 + mix(0) as usize % dims
            } else {
                dims
            };
            let qos: Vec<u8> = (0..carried as u64)
                .map(|k| match mix(k + 1) {
                    m if m % 11 == 0 => (8 + m / 11 % 248) as u8,
                    m => (m % 8) as u8,
                })
                .collect();
            let at = i * 4_000;
            let slack = 50_000 + mix(30) % 1_500_000;
            let cylinder = (mix(31) % 3832) as u32;
            Request::read(i, at, at + slack, cylinder, 64 * 1024, QosVector::new(&qos))
        })
        .collect()
}

/// The engine's per-dimension tables at 1, 3 and the most dimensions a
/// request can carry, held to a recount by definition: the requests and
/// losses at each level of each tracked dimension (a level past the
/// tables' width is not counted), and §5.1's inversions per dimension
/// at every dequeue. (The audit cannot tell a dequeue the engine drops
/// from one it serves, so nothing is dropped here: the losses are late
/// completions.)
#[test]
fn inversion_census_and_level_tables_match_a_naive_recount_at_any_shape() {
    const LEVELS: usize = 8;
    for dims in [1, 3, cascaded_sfc::sched::MAX_QOS_DIMS] {
        let trace = ragged_qos_trace(dims, 600);
        let past_width = |r: &Request| r.qos.levels().get(dims - 1) >= Some(&(LEVELS as u8));
        assert!(trace.iter().any(|r| r.qos.dims() < dims), "{dims}");
        assert!(trace.iter().any(past_width), "{dims}");
        let policies: [Box<dyn DiskScheduler>; 2] = [Box::new(Fcfs::new()), Box::new(Edf::new())];
        for inner in policies {
            let audit = std::rc::Rc::new(std::cell::RefCell::new(Audit::tracking(dims)));
            let mut scheduler = Audited {
                inner,
                audit: audit.clone(),
            };
            let at = format!("{} at {dims} dimensions", scheduler.name());
            let mut sink = RingSink::new(1 << 16);
            let m = simulate(
                &mut scheduler,
                &trace,
                &mut DiskService::table1(),
                SimOptions::with_shape(dims, LEVELS),
                &mut sink,
            );
            assert_eq!(sink.evicted(), 0, "{at}");
            let lost: std::collections::HashSet<u64> = sink
                .events()
                .filter_map(|e| match *e {
                    TraceEvent::ServiceComplete {
                        req, late: true, ..
                    } => Some(req),
                    _ => None,
                })
                .collect();
            assert!(m.late > 0, "{at}");
            assert_eq!(lost.len() as u64, m.late, "{at}");

            let mut requests = vec![vec![0u64; LEVELS]; dims];
            let mut losses = vec![vec![0u64; LEVELS]; dims];
            for r in &trace {
                for k in 0..dims.min(r.qos.dims()) {
                    let level = r.qos.level(k) as usize;
                    if level < LEVELS {
                        requests[k][level] += 1;
                        losses[k][level] += u64::from(lost.contains(&r.id));
                    }
                }
            }
            assert_eq!(m.requests_by_dim_level, requests, "{at}");
            assert_eq!(m.losses_by_dim_level, losses, "{at}");
            let audit = audit.borrow();
            assert_eq!(m.inversions_per_dim, audit.inversions, "{at}");
            assert!(audit.inversions[dims - 1] > 0, "{at}");
        }
    }
}
