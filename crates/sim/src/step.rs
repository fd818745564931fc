//! The engine's event loop.
//!
//! [`EngineStepper`] is a push/pump state machine over the engine's
//! delivery and service code (`engine`'s `EngineCore`): a caller
//! **submits** arrivals as it learns about them and **pumps** the engine
//! up to a time horizon, interleaving control actions (membership churn,
//! quarantine, migration) between pumps. The farm daemon runs one stepper
//! per shard; the batch entry points ([`crate::simulate`] and friends)
//! are a stepper fed a whole trace and run to [`EngineStepper::finish`].
//!
//! ## Pump-pattern invariance
//!
//! The stepper only dequeues once every arrival at or before the current
//! clock has been submitted (callers must pump to an event's time
//! *before* applying the event), so an arrival chunk breaks at the same
//! point whether the arrivals were all submitted up front, dribbled in
//! one pump at a time, or pulled from a lazy source. And in every idle
//! gap it attempts a dispatch on the empty queue before jumping ahead (an
//! empty dequeue resets dispatcher-internal state such as the conditional
//! preemption anchor), wherever in the gap the caller's horizons fall.
//! The metrics, the event stream and the request log of a run are
//! therefore a function of the arrivals alone, not of how the run was
//! pumped — the property the oracle's daemon replay gate leans on when it
//! compares route-everything-then-run against route-and-pump-interleaved.
//!
//! A stepper pumped again while still idle repeats that empty dequeue
//! with an unchanged head state, which [`DiskScheduler::dequeue`]
//! requires to be idempotent and silent — so extra pumps of an idle
//! stepper are harmless, and a caller running many steppers may skip
//! them: only a stepper whose [`EngineStepper::next_action_us`] lies
//! before the horizon can be changed by a pump. (With
//! [`SimOptions::stage_spans`] on, each repeat is one more `Dispatch`
//! span candidate — a wall-clock observation of a call that did happen;
//! a run pumped only where there is work has the span counts of a run
//! pumped once.)
//!
//! ## What a caller may do to the scheduler between pumps
//!
//! The scheduler is the caller's, and the engine counts priority
//! inversions from a per-level census of the scheduler's pending set that
//! it keeps alongside (see `engine`'s module docs) instead of walking the
//! queue at every dispatch. It checks that census against
//! [`DiskScheduler::len`] before each chunk it delivers and after every
//! dequeue, and recounts with one [`DiskScheduler::for_each_pending`]
//! pass when the two disagree. So between pumps a caller may pre-load the
//! scheduler, drain it ([`DiskScheduler::drain_pending`], as a closing
//! farm shard does), remove requests or retune it — anything that leaves
//! the pending set unchanged or changes its size. The one thing it may
//! not do is swap requests one for one: `len()` cannot show that, so the
//! census would keep counting the requests that left.

use std::collections::VecDeque;

use obs::TraceSink;
use sched::{DiskScheduler, Micros, Request};

use crate::engine::{EngineCore, RequestRecord};
use crate::metrics::Metrics;
use crate::service::ServiceProvider;
use crate::SimOptions;

/// The engine driver: owns the engine state and the not yet
/// delivered arrival backlog; the caller owns the scheduler, the service
/// model and the sink, passing them to every pump so the same stepper
/// can outlive any one of them.
pub struct EngineStepper {
    core: EngineCore,
    pending: VecDeque<Request>,
    last_arrival_us: Micros,
    /// One record per terminal request, for [`crate::simulate_logged`].
    log: Option<Vec<RequestRecord>>,
}

impl EngineStepper {
    /// A fresh stepper at time 0.
    pub fn new(options: SimOptions, cylinders: u32) -> Self {
        EngineStepper {
            core: EngineCore::new(options, cylinders),
            pending: VecDeque::new(),
            last_arrival_us: 0,
            log: None,
        }
    }

    /// The batch entry points ([`crate::simulate`] and friends): a fresh
    /// stepper submitted the whole of `trace` and run dry, filling `log`
    /// when one is given.
    pub(crate) fn run_trace<S: TraceSink>(
        scheduler: &mut dyn DiskScheduler,
        trace: &[Request],
        service: &mut dyn ServiceProvider,
        options: SimOptions,
        log: Option<Vec<RequestRecord>>,
        sink: &mut S,
    ) -> (Metrics, Vec<RequestRecord>) {
        let mut stepper = EngineStepper::new(options, service.cylinders());
        stepper.log = log;
        stepper.pending.reserve(trace.len());
        for r in trace {
            stepper.submit(r.clone());
        }
        stepper.finish(scheduler, service, sink);
        assert!(
            scheduler.is_empty(),
            "scheduler returned None while non-empty"
        );
        (stepper.core.metrics, stepper.log.unwrap_or_default())
    }

    /// The engine clock: everything dispatched so far started at or
    /// before this time.
    pub fn now(&self) -> Micros {
        self.core.now
    }

    /// Accumulated metrics (submitted-and-delivered requests only).
    pub fn metrics(&self) -> &Metrics {
        &self.core.metrics
    }

    /// Consume the stepper, yielding its metrics.
    pub fn into_metrics(self) -> Metrics {
        self.core.metrics
    }

    /// Arrivals submitted but not yet delivered to the scheduler.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// When this stepper next has something to do, given `queued`
    /// requests waiting in its scheduler: [`None`] when nothing is
    /// submitted or queued, else the engine clock. A pump to a horizon at
    /// or before the returned time is a no-op. A pump while this is
    /// `None` has nothing to deliver or serve; all it can do is dequeue
    /// from an empty queue, which either repeats an earlier one or can as
    /// well wait for the next pump that has something to deliver (see the
    /// module docs). So an event loop
    /// over many steppers needs to pump only those whose next action lies
    /// strictly before the event's time.
    pub fn next_action_us(&self, queued: usize) -> Option<Micros> {
        (queued > 0 || !self.pending.is_empty()).then_some(self.core.now)
    }

    /// Submit one arrival. Arrivals must come in non-decreasing
    /// `arrival_us` order (the streaming contract: the engine may already
    /// have dispatched past an arrival that turns up late).
    ///
    /// # Panics
    /// If `r.arrival_us` precedes an earlier submission's.
    pub fn submit(&mut self, r: Request) {
        assert!(
            r.arrival_us >= self.last_arrival_us,
            "arrivals must be submitted in order: {} after {}",
            r.arrival_us,
            self.last_arrival_us
        );
        self.last_arrival_us = r.arrival_us;
        self.pending.push_back(r);
    }

    /// Remove and return every submitted-but-undelivered arrival, in
    /// submission order — the migration hook: a draining shard hands
    /// these off without them ever touching its scheduler or metrics.
    pub fn take_pending(&mut self) -> Vec<Request> {
        self.pending.drain(..).collect()
    }

    /// Pump the engine until the clock reaches `horizon_us`: every
    /// dispatch decided strictly *before* the horizon is served (service
    /// is non-preemptive, so a served request may complete past it).
    /// The horizon itself is excluded so a caller can pump to an event's
    /// timestamp, apply the event (submit the arrival, drain the shard),
    /// and resume — without the engine ever dequeuing at an instant
    /// whose arrivals it has not seen yet.
    ///
    /// Streaming contract: every arrival with `arrival_us < horizon_us`
    /// must have been submitted before the pump.
    pub fn run_until<S: TraceSink>(
        &mut self,
        horizon_us: Micros,
        scheduler: &mut dyn DiskScheduler,
        service: &mut dyn ServiceProvider,
        sink: &mut S,
    ) {
        self.core.cylinders = service.cylinders();
        loop {
            if self.core.now >= horizon_us {
                return;
            }
            // Deliver every submitted arrival up to `now` as one chunk.
            // Callers pump to an event's time before acting on it, so no
            // later-submitted arrival could have joined this chunk: its
            // boundaries do not depend on how the run was pumped.
            let mut n = 0;
            while n < self.pending.len() && self.pending[n].arrival_us <= self.core.now {
                n += 1;
            }
            if n > 0 {
                let chunk = &self.pending.make_contiguous()[..n];
                for r in chunk {
                    if self.core.measured(r) {
                        self.core.metrics.record_request(r);
                    }
                }
                self.core.enqueue_chunk(chunk, scheduler, &*service, sink);
                self.pending.drain(..n);
            }
            // Attempt a dispatch even when the queue looks empty: an empty
            // dequeue is a real scheduler interaction (the conditional
            // dispatcher resets its preemption anchor on one), and every
            // idle gap must see it whatever horizons the caller picked.
            if !self.core.step(scheduler, service, self.log.as_mut(), sink) {
                // Idle: jump to the next submitted arrival inside the
                // horizon, or yield back to the caller.
                match self.pending.front() {
                    Some(r) if r.arrival_us <= horizon_us => {
                        self.core.now = self.core.now.max(r.arrival_us);
                    }
                    _ => return,
                }
            }
        }
    }

    /// Drain a pull-based [`workload::stream::TraceSource`] through the
    /// engine to completion — the streaming analogue of handing
    /// [`crate::simulate`] a whole trace, in memory proportional to the
    /// in-flight backlog instead of the trace length; a churn-free source
    /// yields the metrics and events [`crate::simulate_traced`] yields on
    /// the materialized trace. After each
    /// absorbed arrival the source's `observe` hook is fed the engine's
    /// current backlog (undelivered submissions plus the scheduler's
    /// queue), closing the loop for adaptive sources. Returns the
    /// number of requests pulled.
    pub fn run_source<T: workload::TraceSource, S: TraceSink>(
        &mut self,
        source: &mut T,
        scheduler: &mut dyn DiskScheduler,
        service: &mut dyn ServiceProvider,
        sink: &mut S,
    ) -> u64 {
        let mut pulled = 0;
        while let Some(r) = source.next() {
            self.run_until(r.arrival_us, scheduler, service, sink);
            self.submit(r);
            pulled += 1;
            source.observe(self.pending.len() + scheduler.len());
        }
        self.finish(scheduler, service, sink);
        pulled
    }

    /// Pump until both the queue and the submitted backlog are empty.
    pub fn finish<S: TraceSink>(
        &mut self,
        scheduler: &mut dyn DiskScheduler,
        service: &mut dyn ServiceProvider,
        sink: &mut S,
    ) {
        self.run_until(Micros::MAX, scheduler, service, sink);
        debug_assert!(self.pending.is_empty() && scheduler.is_empty());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate_logged, simulate_traced, TransferDominated};
    use obs::{NullSink, RingSink};
    use sched::{Fcfs, QosVector, ScanEdf, Sstf};

    /// Overloaded bursts of 64 arrivals with an idle gap after each, so a
    /// run sees deep queues, drops and the empty dequeue of an idle gap.
    fn trace(n: u64) -> Vec<Request> {
        (0..n)
            .map(|i| {
                let arrival = i * 700 + (i / 64) * 400_000;
                Request::read(
                    i,
                    arrival,
                    arrival + 90_000,
                    ((i * 911) % 3832) as u32,
                    64 * 1024,
                    QosVector::new(&[(i % 5) as u8]),
                )
            })
            .collect()
    }

    fn schedulers() -> Vec<Box<dyn DiskScheduler>> {
        vec![
            Box::new(Fcfs::new()),
            Box::new(Sstf::new()),
            Box::new(ScanEdf::new(5_000)),
        ]
    }

    /// Everything a run leaves behind: metrics, event stream, request log.
    type Run = (Metrics, Vec<String>, Vec<RequestRecord>);

    fn options() -> SimOptions {
        SimOptions::with_shape(1, 8).dropping()
    }

    fn service() -> TransferDominated {
        TransferDominated::scaled(1_500, 40, 3832)
    }

    fn events(ring: &RingSink) -> Vec<String> {
        ring.events().map(|e| format!("{e:?}")).collect()
    }

    /// The batch entry points over `t`.
    fn batch(scheduler: &mut dyn DiskScheduler, t: &[Request]) -> Run {
        let mut ring = RingSink::new(1 << 14);
        let metrics = simulate_traced(scheduler, t, &mut service(), options(), &mut ring);
        assert!(scheduler.is_empty());
        let (logged_metrics, log) = simulate_logged(scheduler, t, &mut service(), options());
        assert_eq!(logged_metrics, metrics);
        (metrics, events(&ring), log)
    }

    /// A logging stepper driven by `pump`, which must leave it finished.
    fn pumped(
        scheduler: &mut dyn DiskScheduler,
        pump: impl FnOnce(
            &mut EngineStepper,
            &mut dyn DiskScheduler,
            &mut TransferDominated,
            &mut RingSink,
        ),
    ) -> Run {
        let mut ring = RingSink::new(1 << 14);
        let mut service = service();
        let mut stepper = EngineStepper::new(options(), service.cylinders());
        stepper.log = Some(Vec::new());
        pump(&mut stepper, scheduler, &mut service, &mut ring);
        assert!(stepper.pending.is_empty() && scheduler.is_empty());
        (
            stepper.core.metrics,
            events(&ring),
            stepper.log.expect("set above"),
        )
    }

    // The next three tests hold one pump pattern each against the batch
    // entry points, so the patterns agree with each other as well: the
    // metrics, the event stream and the request log of a run do not
    // depend on how it was pumped.

    #[test]
    fn full_submission_matches_batch_engine() {
        let t = trace(300);
        for mut s in schedulers() {
            let expected = batch(s.as_mut(), &t);
            assert!(expected.0.dropped > 0 && expected.0.served > 0);
            let got = pumped(s.as_mut(), |stepper, scheduler, service, ring| {
                for r in &t {
                    stepper.submit(r.clone());
                }
                stepper.finish(scheduler, service, ring);
            });
            assert_eq!(got, expected, "policy {}", s.name());
        }
    }

    #[test]
    fn incremental_pumping_matches_batch_engine() {
        // Submit arrivals in dribbles and pump to a ragged ladder of
        // horizons: the chunk boundaries must not move.
        let t = trace(200);
        for mut s in schedulers() {
            let expected = batch(s.as_mut(), &t);
            let got = pumped(s.as_mut(), |stepper, scheduler, service, ring| {
                for (i, r) in t.iter().enumerate() {
                    // Pump to each arrival's time before submitting it —
                    // the streaming contract.
                    stepper.run_until(r.arrival_us, scheduler, service, ring);
                    stepper.submit(r.clone());
                    if i % 7 == 3 {
                        // An extra pump, capped at the next arrival's time
                        // so every arrival before the horizon is submitted.
                        let cap = t.get(i + 1).map_or(Micros::MAX, |n| n.arrival_us);
                        let horizon = cap.min(r.arrival_us + 11_000);
                        stepper.run_until(horizon, scheduler, service, ring);
                    }
                }
                stepper.finish(scheduler, service, ring);
            });
            assert_eq!(got, expected, "policy {}", s.name());
        }
    }

    #[test]
    fn lazy_source_matches_batch_engine_bit_for_bit() {
        let t = trace(250);
        for mut s in schedulers() {
            let expected = batch(s.as_mut(), &t);
            let got = pumped(s.as_mut(), |stepper, scheduler, service, ring| {
                let mut source = workload::VecSource::new(t.clone());
                let pulled = stepper.run_source(&mut source, scheduler, service, ring);
                assert_eq!(pulled as usize, t.len());
            });
            assert_eq!(got, expected, "policy {}", s.name());
        }
    }

    #[test]
    fn closed_loop_source_drains_in_bounded_memory() {
        // A live closed-loop population pumped straight into the engine:
        // everything the source emits is accounted for, and the source
        // felt backpressure (its observe hook ran).
        let cfg = workload::SessionConfig::mixed(300, 300_000_000);
        let mut source = workload::SessionSource::new(cfg, 17);
        let options = SimOptions::with_shape(1, 8).dropping();
        let mut service = TransferDominated::uniform(5_000, 3832);
        let mut scheduler = Sstf::new();
        let mut stepper = EngineStepper::new(options, service.cylinders());
        let pulled = stepper.run_source(&mut source, &mut scheduler, &mut service, &mut NullSink);
        assert_eq!(pulled, source.emitted());
        assert_eq!(source.sessions_started(), 300);
        let m = stepper.into_metrics();
        assert_eq!(m.served + m.dropped + m.failed, pulled);
    }

    #[test]
    fn take_pending_withholds_undelivered_arrivals() {
        let options = SimOptions::with_shape(1, 2);
        let mut service = TransferDominated::uniform(2_000, 3832);
        let mut scheduler = Fcfs::new();
        let mut stepper = EngineStepper::new(options, service.cylinders());
        let t = trace(10);
        for r in &t {
            stepper.submit(r.clone());
        }
        // Pump only past the first few arrivals.
        stepper.run_until(1_500, &mut scheduler, &mut service, &mut NullSink);
        let left = stepper.take_pending();
        assert!(!left.is_empty(), "some arrivals must still be pending");
        stepper.finish(&mut scheduler, &mut service, &mut NullSink);
        let m = stepper.into_metrics();
        // Only delivered requests count anywhere in the ledger.
        assert_eq!(
            (m.served + m.dropped + m.failed) as usize + left.len(),
            t.len()
        );
        assert_eq!(m.requests_total() as usize + left.len(), t.len());
    }

    #[test]
    fn next_action_is_the_clock_while_there_is_work() {
        let mut service = TransferDominated::uniform(2_000, 3832);
        let mut scheduler = Fcfs::new();
        let mut stepper = EngineStepper::new(SimOptions::with_shape(1, 2), 3832);
        assert_eq!(
            stepper.next_action_us(0),
            None,
            "nothing submitted or queued"
        );
        assert_eq!(
            stepper.next_action_us(3),
            Some(0),
            "work queued in the scheduler"
        );
        let t = trace(2);
        stepper.submit(t[1].clone());
        assert_eq!(stepper.next_action_us(0), Some(0), "a submission pending");
        // Pumping up to the arrival moves the clock there and no further.
        stepper.run_until(t[1].arrival_us, &mut scheduler, &mut service, &mut NullSink);
        assert_eq!(
            stepper.next_action_us(scheduler.len()),
            Some(t[1].arrival_us)
        );
        stepper.finish(&mut scheduler, &mut service, &mut NullSink);
        assert_eq!(stepper.next_action_us(scheduler.len()), None);
    }

    #[test]
    #[should_panic(expected = "arrivals must be submitted in order")]
    fn out_of_order_submission_panics() {
        let mut stepper = EngineStepper::new(SimOptions::with_shape(1, 2), 3832);
        let t = trace(2);
        stepper.submit(t[1].clone());
        stepper.submit(t[0].clone());
    }
}
