//! The discrete-event simulation engine.
//!
//! One disk, one scheduler, one arrival stream. The engine alternates
//! between delivering arrivals to the scheduler (at their arrival times,
//! with the head state of that moment) and letting the disk serve the
//! scheduler's next pick. Priority inversions are counted at each service
//! start against the requests still waiting, per the paper's definition.
//!
//! [`EngineStepper`] is that engine as a push/pump state machine: a
//! caller **submits** arrivals as it learns about them and **pumps** the
//! engine up to a time horizon, interleaving control actions (membership
//! churn, quarantine, migration) between pumps. The farm daemon runs one
//! stepper per shard; the batch entry point ([`crate::simulate`]) is a
//! stepper fed a whole trace and run to [`EngineStepper::finish`].
//! The pump methods are generic over the service model, so a caller
//! holding a concrete one (the daemon's [`crate::DiskService`]) calls it
//! directly, and one holding a `dyn ServiceProvider` through its vtable.
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
//! The metrics and the event stream of a run are therefore a function
//! of the arrivals alone, not of how the run was pumped — the property
//! the oracle's daemon replay gate leans on when it compares
//! route-everything-then-run against route-and-pump-interleaved.
//!
//! A stepper pumped again while still idle repeats that empty dequeue
//! with an unchanged head state, which [`DiskScheduler::dequeue`]
//! requires to be idempotent and silent — so extra pumps of an idle
//! stepper are harmless, and a caller running many steppers may skip
//! them: only a stepper whose [`EngineStepper::next_action_us`] lies
//! before the horizon can be changed by a pump.
//!
//! ## Counting inversions without walking the queue
//!
//! §5.1 asks, per QoS dimension, how many waiting requests beat the one
//! being served. The engine answers from a [`Census`] it keeps itself —
//! per tracked dimension, the number of pending requests at each `u8`
//! level — so a dispatch costs, per dimension, one fixed-width masked sum
//! over the row (the counts below the served request's level), with no
//! branch on that level: O(dims · width), whatever the queue depth and
//! whatever the policy.
//! The census follows the scheduler's pending set: a delivered chunk is
//! added, a dequeued request removed.
//!
//! Requests also leave a scheduler where the engine cannot see which
//! one left: a bounded queue sheds a victim of its own choosing
//! (possibly the arrival itself), and the caller owns the scheduler
//! between pumps (the farm daemon drains a closing shard's backlog with
//! [`DiskScheduler::drain_pending`]). One rule covers all of it:
//! **whenever the census total disagrees with `scheduler.len()` at a
//! point where the census is about to be used — before each chunk it
//! delivers and after every dequeue — it is rebuilt with one
//! [`DiskScheduler::for_each_pending`] pass.** So between pumps a caller
//! may pre-load the scheduler, drain it, remove requests or retune it —
//! anything that leaves the pending set unchanged or changes its size.
//! The one thing it may not do is swap requests one for one: a change
//! `len()` cannot show is a change the census cannot see.
//!
//! ## The clock saturates
//!
//! Arrival times come from outside (a trace file, a `DaemonEvent`), so
//! every addition to the clock saturates at [`Micros::MAX`]: a request
//! arriving at the end of time is served at the end of time, late and
//! counted, instead of wrapping the clock into the past.

use std::collections::VecDeque;

use obs::{TraceEvent, TraceSink};
use sched::{DiskScheduler, HeadState, Micros, Request};

use crate::engine::SimOptions;
use crate::metrics::Metrics;
use crate::service::ServiceProvider;

/// Dispatch slack as the events carry it: signed, clamped to `i64`.
#[inline]
fn slack_us(req: &Request, now: Micros) -> i64 {
    if req.deadline_us >= now {
        i64::try_from(req.deadline_us - now).unwrap_or(i64::MAX)
    } else {
        0i64.saturating_sub_unsigned(now - req.deadline_us)
    }
}

/// The engine: policy knobs, accumulated metrics, the simulation clock,
/// the inversion census and the not yet delivered
/// arrival backlog. The caller owns the scheduler, the service model and
/// the sink, passing them to every pump so the same stepper can outlive
/// any one of them.
pub struct EngineStepper {
    options: SimOptions,
    metrics: Metrics,
    now: Micros,
    cylinders: u32,
    census: Census,
    pending: VecDeque<Request>,
    last_arrival_us: Micros,
}

impl EngineStepper {
    /// A fresh stepper at time 0.
    pub fn new(options: SimOptions, cylinders: u32) -> Self {
        EngineStepper {
            metrics: Metrics::new(options.dims, options.levels),
            now: 0,
            cylinders,
            census: Census::new(options.dims, options.levels),
            options,
            pending: VecDeque::new(),
            last_arrival_us: 0,
        }
    }

    /// The batch entry point ([`crate::simulate`]): a fresh stepper
    /// submitted the whole of `trace` and run dry.
    pub(crate) fn run_trace<S: TraceSink>(
        scheduler: &mut dyn DiskScheduler,
        trace: &[Request],
        service: &mut dyn ServiceProvider,
        options: SimOptions,
        sink: &mut S,
    ) -> Metrics {
        let mut stepper = EngineStepper::new(options, service.cylinders());
        stepper.pending.reserve(trace.len());
        for r in trace {
            stepper.submit(r.clone());
        }
        stepper.finish(scheduler, service, sink);
        assert!(
            scheduler.is_empty(),
            "scheduler returned None while non-empty"
        );
        stepper.metrics
    }

    /// The engine clock: everything dispatched so far started at or
    /// before this time.
    pub fn now(&self) -> Micros {
        self.now
    }

    /// Accumulated metrics (submitted-and-delivered requests only).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Consume the stepper, yielding its metrics.
    pub fn into_metrics(self) -> Metrics {
        self.metrics
    }

    /// Arrivals submitted but not yet delivered to the scheduler.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Entries held: the undelivered backlog and the inversion census's
    /// level counters. The first is transient and the second fixed by the
    /// QoS shape.
    pub fn state_len(&self) -> usize {
        self.pending.len() + self.census.counts.len()
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
        (queued > 0 || !self.pending.is_empty()).then_some(self.now)
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
    pub fn run_until<P: ServiceProvider + ?Sized, S: TraceSink>(
        &mut self,
        horizon_us: Micros,
        scheduler: &mut dyn DiskScheduler,
        service: &mut P,
        sink: &mut S,
    ) {
        self.cylinders = service.cylinders();
        loop {
            if self.now >= horizon_us {
                return;
            }
            // Deliver every submitted arrival up to `now` as one chunk.
            // Callers pump to an event's time before acting on it, so no
            // later-submitted arrival could have joined this chunk: its
            // boundaries do not depend on how the run was pumped.
            let mut n = 0;
            while n < self.pending.len() && self.pending[n].arrival_us <= self.now {
                n += 1;
            }
            if n > 0 {
                self.deliver(n, scheduler, &*service, sink);
            }
            // Attempt a dispatch even when the queue looks empty: an empty
            // dequeue is a real scheduler interaction (the conditional
            // dispatcher resets its preemption anchor on one), and every
            // idle gap must see it whatever horizons the caller picked.
            if !self.dispatch(scheduler, service, sink) {
                // Idle: jump to the next submitted arrival inside the
                // horizon, or yield back to the caller.
                match self.pending.front() {
                    Some(r) if r.arrival_us <= horizon_us => {
                        self.now = self.now.max(r.arrival_us);
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
    /// yields the metrics and events [`crate::simulate`] yields on the
    /// materialized trace. After each
    /// absorbed arrival the source's `observe` hook is fed the engine's
    /// current backlog (undelivered submissions plus the scheduler's
    /// queue), closing the loop for adaptive sources. Returns the
    /// number of requests pulled.
    pub fn run_source<T: workload::TraceSource, P: ServiceProvider + ?Sized, S: TraceSink>(
        &mut self,
        source: &mut T,
        scheduler: &mut dyn DiskScheduler,
        service: &mut P,
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
    pub fn finish<P: ServiceProvider + ?Sized, S: TraceSink>(
        &mut self,
        scheduler: &mut dyn DiskScheduler,
        service: &mut P,
        sink: &mut S,
    ) {
        self.run_until(Micros::MAX, scheduler, service, sink);
        // A clock saturated at the end of time has reached every horizon,
        // so the pump above stops short of whatever arrived there: nothing
        // can arrive later, deliver and serve it all at that instant.
        if !self.pending.is_empty() {
            self.deliver(self.pending.len(), scheduler, &*service, sink);
        }
        while !scheduler.is_empty() && self.dispatch(scheduler, service, sink) {}
        debug_assert!(self.pending.is_empty() && scheduler.is_empty());
    }

    /// Deliver the first `n` submitted arrivals as one chunk. The head
    /// does not move between the arrivals of a chunk (no service runs in
    /// between), so the whole chunk shares one head position anchored at
    /// its first arrival; the scheduler anchors each request at its own
    /// arrival time.
    fn deliver<P: ServiceProvider + ?Sized, S: TraceSink>(
        &mut self,
        n: usize,
        scheduler: &mut dyn DiskScheduler,
        service: &P,
        sink: &mut S,
    ) {
        let chunk = &self.pending.make_contiguous()[..n];
        for r in chunk {
            self.metrics.record_request(r);
            if S::ENABLED {
                sink.emit(&TraceEvent::Arrival {
                    now_us: r.arrival_us,
                    req: r.id,
                    cylinder: r.cylinder,
                    deadline_us: r.deadline_us,
                });
            }
        }
        // The caller owns the scheduler between pumps: pick up whatever
        // it drained or pre-loaded before counting this chunk on top.
        if self.census.total != scheduler.len() {
            self.census.rebuild(scheduler);
        }
        let head = HeadState::new(service.head(), chunk[0].arrival_us, self.cylinders);
        scheduler.enqueue_batch(chunk, &head);
        // A bounded queue may have shed some of these, or queued victims
        // in their place; the length check at the next dequeue sees that.
        for r in chunk {
            self.census.add(r);
        }
        self.pending.drain(..n);
    }

    /// One dequeue-and-serve step at the current clock. Returns `false`
    /// when the scheduler had nothing to dispatch.
    fn dispatch<P: ServiceProvider + ?Sized, S: TraceSink>(
        &mut self,
        scheduler: &mut dyn DiskScheduler,
        service: &mut P,
        sink: &mut S,
    ) -> bool {
        let head = HeadState::new(service.head(), self.now, self.cylinders);
        let Some(req) = scheduler.dequeue(&head) else {
            return false;
        };
        let waiting = scheduler.len();
        if self.census.total == waiting + 1 {
            self.census.remove(&req);
        } else {
            self.census.rebuild(scheduler);
        }
        self.serve(req, waiting, head.cylinder, scheduler, service, sink);
        true
    }

    /// Drive one dispatched request to its terminal fate — completed,
    /// dropped or failed — advancing the clock past every service
    /// attempt. `waiting` requests stay queued behind it and the head is
    /// at `head_cylinder`: what `dispatch` read to pick it, so the events
    /// cost no second call into the scheduler or the service model.
    fn serve<P: ServiceProvider + ?Sized, S: TraceSink>(
        &mut self,
        req: Request,
        waiting: usize,
        head_cylinder: u32,
        scheduler: &mut dyn DiskScheduler,
        service: &mut P,
        sink: &mut S,
    ) {
        // The dispatched request itself still counts.
        let queue_depth = waiting as u64 + 1;
        if self.options.drop_past_due && req.is_late(self.now) {
            self.metrics.dropped += 1;
            self.metrics.record_loss(&req);
            if S::ENABLED {
                sink.emit(&TraceEvent::Drop {
                    now_us: self.now,
                    req: req.id,
                    missed_by_us: self.now.saturating_sub(req.deadline_us),
                    queue_depth,
                });
            }
            return;
        }
        // §5.1: serving `req` adds, per dimension, the number of waiting
        // requests with strictly higher priority in it. With nobody
        // waiting — most dispatches of a lightly loaded farm member —
        // that is nothing, and neither table is touched.
        if self.census.total > 0 {
            debug_assert_eq!(
                self.census.beating(&req),
                beating_by_walk(scheduler, &req, self.census.dims),
                "the census drifted from the scheduler's pending set"
            );
            self.census
                .add_beating(&req, &mut self.metrics.inversions_per_dim);
        }
        if S::ENABLED {
            sink.emit(&TraceEvent::ServiceStart {
                now_us: self.now,
                req: req.id,
                cylinder: req.cylinder,
                seek_cylinders: head_cylinder.abs_diff(req.cylinder),
                queue_depth,
                slack_us: slack_us(&req, self.now),
            });
        }
        // Serve, retrying transient media errors within the bounded,
        // deadline-aware budget. Every attempt — failed or not — pays
        // its disk time (the head moved, the platter turned), so
        // busy-time accounting covers the whole failure path.
        let max_attempts = self.options.max_attempts.max(1);
        let mut attempt: u32 = 1;
        let outcome = loop {
            let o = service.service(&req);
            self.now = self.now.saturating_add(o.breakdown.total_us());
            self.metrics.seek_us += o.breakdown.seek_us;
            self.metrics.rotation_us += o.breakdown.rotation_us;
            self.metrics.transfer_us += o.breakdown.transfer_us;
            if !o.failed {
                break Some(o);
            }
            if S::ENABLED {
                sink.emit(&TraceEvent::MediaError {
                    now_us: self.now,
                    req: req.id,
                    attempt,
                });
            }
            // Never retry past the deadline: a retry that cannot
            // complete in time only steals bandwidth from requests that
            // still can.
            if attempt >= max_attempts || req.is_late(self.now) {
                break None;
            }
            attempt += 1;
            if S::ENABLED {
                sink.emit(&TraceEvent::Retry {
                    now_us: self.now,
                    req: req.id,
                    attempt,
                    slack_us: slack_us(&req, self.now),
                });
            }
        };
        let Some(o) = outcome else {
            // Retry budget exhausted (or the deadline passed): the
            // request is abandoned — a loss, never a hang.
            if S::ENABLED {
                sink.emit(&TraceEvent::RequestFailed {
                    now_us: self.now,
                    req: req.id,
                    attempts: attempt,
                });
            }
            self.metrics.failed += 1;
            self.metrics.record_loss(&req);
            return;
        };
        if S::ENABLED && o.remap_penalty_us > 0 {
            sink.emit(&TraceEvent::SectorRemap {
                now_us: self.now,
                req: req.id,
                penalty_us: o.remap_penalty_us,
            });
        }
        let late = req.is_late(self.now);
        let response = self.now.saturating_sub(req.arrival_us);
        if S::ENABLED {
            sink.emit(&TraceEvent::ServiceComplete {
                now_us: self.now,
                req: req.id,
                response_us: response,
                late,
            });
        }
        self.metrics.served += 1;
        self.metrics.response_total_us += response as u128;
        self.metrics.max_response_us = self.metrics.max_response_us.max(response);
        self.metrics.makespan_us = self.now;
        if late {
            self.metrics.late += 1;
            self.metrics.record_loss(&req);
        }
    }
}

/// Per-level census of a scheduler's pending set: for each tracked QoS
/// dimension, how many pending requests sit at each priority level. See
/// the [module docs](self) for how it is kept in step with the scheduler.
///
/// Exact for every `u8` level, but a row starts as wide as
/// [`SimOptions::levels`] and widens only when a higher level actually
/// arrives, so the usual few-dimensions-by-few-levels shape is a cache
/// line or two per engine rather than `dims` × 256 counters — a farm
/// holds one census per member.
struct Census {
    /// `counts[k * width + level]`: pending requests at `level` in
    /// dimension `k`. `u32` holds any queue that fits in memory.
    counts: Vec<u32>,
    /// Levels per row.
    width: usize,
    /// Tracked dimensions (rows).
    dims: usize,
    /// Requests counted, whatever their dimensionality — compared with
    /// `scheduler.len()` to decide whether the census is still current.
    total: usize,
}

impl Census {
    fn new(dims: usize, levels: usize) -> Self {
        let dims = dims.min(sched::MAX_QOS_DIMS);
        let width = levels.clamp(1, 1 << u8::BITS);
        Census {
            counts: vec![0; dims * width],
            width,
            dims,
            total: 0,
        }
    }

    #[inline]
    fn add(&mut self, r: &Request) {
        self.total += 1;
        for (k, &level) in r.qos.levels().iter().take(self.dims).enumerate() {
            let level = level as usize;
            if level >= self.width {
                self.widen(level);
            }
            self.counts[k * self.width + level] += 1;
        }
    }

    /// Forget `r`, which must have been [`Census::add`]ed.
    #[inline]
    fn remove(&mut self, r: &Request) {
        self.total -= 1;
        for (k, &level) in r.qos.levels().iter().take(self.dims).enumerate() {
            self.counts[k * self.width + level as usize] -= 1;
        }
    }

    /// Re-lay the rows out wide enough to hold `level`.
    #[cold]
    fn widen(&mut self, level: usize) {
        let width = (level + 1).next_power_of_two();
        let mut counts = vec![0; self.dims * width];
        for (new, old) in counts
            .chunks_exact_mut(width)
            .zip(self.counts.chunks_exact(self.width))
        {
            new[..self.width].copy_from_slice(old);
        }
        self.counts = counts;
        self.width = width;
    }

    /// Recount from the scheduler itself — the re-sync pass.
    #[cold]
    fn rebuild(&mut self, scheduler: &dyn DiskScheduler) {
        self.counts.fill(0);
        self.total = 0;
        scheduler.for_each_pending(&mut |r| self.add(r));
    }

    /// Add to `per_dim[k]`, for each dimension `k` it has a slot for, the
    /// pending requests that beat `served` there (sit at a strictly lower
    /// level). Dimensions `served` does not carry, or the census does not
    /// track, add nothing.
    ///
    /// Each row is summed whole under a `[i < level]` mask, so the trip
    /// count is the row width rather than the served level: no
    /// data-dependent exit branch, and a loop the compiler unrolls.
    #[inline]
    fn add_beating(&self, served: &Request, per_dim: &mut [u64]) {
        let rows = self.counts.chunks_exact(self.width);
        for ((row, &level), slot) in rows.zip(served.qos.levels()).zip(per_dim) {
            let level = usize::from(level);
            *slot += row
                .iter()
                .enumerate()
                .map(|(i, &n)| u64::from(n) * u64::from(i < level))
                .sum::<u64>();
        }
    }

    /// [`Census::add_beating`] into a fresh array, the shape
    /// [`beating_by_walk`] answers in — the debug-build check's form.
    fn beating(&self, served: &Request) -> [u64; sched::MAX_QOS_DIMS] {
        let mut per_dim = [0u64; sched::MAX_QOS_DIMS];
        self.add_beating(served, &mut per_dim);
        per_dim
    }
}

/// [`Census::beating`] by definition: one pass over the scheduler's
/// pending set, comparing every waiting request with `served` in each of
/// its first `dims` dimensions. Debug builds hold the census to this at
/// every measured dispatch that leaves somebody waiting.
fn beating_by_walk(
    scheduler: &dyn DiskScheduler,
    served: &Request,
    dims: usize,
) -> [u64; sched::MAX_QOS_DIMS] {
    let mut per_dim = [0u64; sched::MAX_QOS_DIMS];
    let dims = served.qos.dims().min(dims);
    scheduler.for_each_pending(&mut |waiting: &Request| {
        for (k, slot) in per_dim[..dims].iter_mut().enumerate() {
            if waiting.qos.dims() > k && waiting.qos.beats_in_dim(&served.qos, k) {
                *slot += 1;
            }
        }
    });
    per_dim
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, TransferDominated};
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

    #[test]
    fn slack_saturates_like_the_wide_subtraction() {
        let edges = [
            0,
            1,
            90_000,
            i64::MAX as u64,
            1 << 63,
            (1 << 63) + 1,
            u64::MAX,
        ];
        for deadline in edges {
            for now in edges {
                let req = Request::read(0, 0, deadline, 0, 512, QosVector::new(&[0]));
                let wide = (deadline as i128 - now as i128).clamp(i64::MIN.into(), i64::MAX.into());
                assert_eq!(slack_us(&req, now) as i128, wide, "{deadline} - {now}");
            }
        }
    }

    fn schedulers() -> Vec<Box<dyn DiskScheduler>> {
        vec![
            Box::new(Fcfs::new()),
            Box::new(Sstf::new()),
            Box::new(ScanEdf::new(5_000)),
        ]
    }

    /// Everything a run leaves behind: metrics and event stream.
    type Run = (Metrics, Vec<String>);

    fn options() -> SimOptions {
        SimOptions::with_shape(1, 8).dropping()
    }

    fn service() -> TransferDominated {
        TransferDominated::scaled(1_500, 40, 3832)
    }

    fn events(ring: &RingSink) -> Vec<String> {
        ring.events().map(|e| format!("{e:?}")).collect()
    }

    /// The batch entry point over `t`.
    fn batch(scheduler: &mut dyn DiskScheduler, t: &[Request]) -> Run {
        let mut ring = RingSink::new(1 << 14);
        let metrics = simulate(scheduler, t, &mut service(), options(), &mut ring);
        assert!(scheduler.is_empty());
        assert_eq!(ring.evicted(), 0, "ring sized for the whole run");
        (metrics, events(&ring))
    }

    /// A stepper driven by `pump`, which must leave it finished.
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
        pump(&mut stepper, scheduler, &mut service, &mut ring);
        assert!(stepper.pending.is_empty() && scheduler.is_empty());
        (stepper.metrics, events(&ring))
    }

    // The metrics and the event stream of a run do not depend on how it
    // was pumped. The pattern of pumping to each arrival's time and then
    // submitting it is the farm daemon's, and `oracle::daemon` holds
    // that to the batch engine; this one is `run_source`'s.

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
    fn arrivals_at_the_end_of_time_saturate_the_clock() {
        // Ten microseconds before the end of time: the first service
        // already runs the clock past `u64::MAX`.
        let arrival = Micros::MAX - 10;
        let t: Vec<Request> = (0..4)
            .map(|i| {
                let qos = QosVector::new(&[0]);
                Request::read(i, arrival, Micros::MAX, (i * 500) as u32, 64 * 1024, qos)
            })
            .collect();
        let mut service = crate::DiskService::table1();
        let mut scheduler = Fcfs::new();
        let mut stepper = EngineStepper::new(SimOptions::with_shape(1, 2), service.cylinders());
        for r in &t {
            stepper.submit(r.clone());
        }
        let mut ring = RingSink::new(64);
        let mut snapshot = obs::Snapshot::new();
        stepper.finish(
            &mut scheduler,
            &mut service,
            &mut obs::Tee::new(&mut ring, &mut snapshot),
        );
        assert_eq!(stepper.now(), Micros::MAX);
        let completions: Vec<Micros> = ring
            .events()
            .filter(|e| e.name() == "service_complete")
            .map(obs::TraceEvent::now_us)
            .collect();
        assert_eq!(completions, [Micros::MAX; 4]);
        let m = stepper.into_metrics();
        assert_eq!(m.served, 4);
        assert!(m.makespan_us >= arrival && m.max_response_us <= 10);
        m.reconcile(&snapshot.counters).expect("ledger closed");
    }

    #[test]
    #[should_panic(expected = "arrivals must be submitted in order")]
    fn out_of_order_submission_panics() {
        let mut stepper = EngineStepper::new(SimOptions::with_shape(1, 2), 3832);
        let t = trace(2);
        stepper.submit(t[1].clone());
        stepper.submit(t[0].clone());
    }

    /// `add_beating` against a recount from the requests themselves: every
    /// served level at row widths 8, 16 and 256, with empty rows, and with
    /// served requests carrying fewer or more dimensions than are tracked.
    #[test]
    fn census_masked_sum_matches_a_recount() {
        const DIMS: usize = 3;
        let recount = |waiting: &[Request], served: &Request| {
            let mut per_dim = [0u64; sched::MAX_QOS_DIMS];
            for (k, slot) in per_dim[..served.qos.dims().min(DIMS)]
                .iter_mut()
                .enumerate()
            {
                *slot = waiting
                    .iter()
                    .filter(|w| w.qos.dims() > k && w.qos.beats_in_dim(&served.qos, k))
                    .count() as u64;
            }
            per_dim
        };
        let request =
            |id: u64, levels: &[u8]| Request::read(id, 0, 1, 0, 512, QosVector::new(levels));
        let mut census = Census::new(DIMS, 8);
        let mut waiting = Vec::new();
        // Each stage's arrivals widen the rows to its width. Row 1 is empty
        // at width 8, row 2 until width 256.
        let stages: [(usize, &[&[u8]]); 3] = [
            (8, &[&[0], &[3], &[3], &[7]]),
            (16, &[&[15, 2], &[9, 0]]),
            (256, &[&[255, 4, 200], &[128, 128, 0, 9], &[]]),
        ];
        for (width, arrivals) in stages {
            for levels in arrivals {
                let r = request(waiting.len() as u64, levels);
                census.add(&r);
                waiting.push(r);
            }
            assert_eq!(census.width, width);
            for level in 0..=u8::MAX {
                let shapes: [&[u8]; 5] = [
                    &[],
                    &[level],
                    &[level, level],
                    &[level, 255 - level, level / 2],
                    &[level, 0, 255, level, level, 1],
                ];
                for shape in shapes {
                    let served = request(u64::MAX, shape);
                    let expected = recount(&waiting, &served);
                    assert_eq!(
                        census.beating(&served),
                        expected,
                        "width {width}, {shape:?}"
                    );
                    assert_eq!(
                        Census::new(DIMS, width).beating(&served),
                        [0; sched::MAX_QOS_DIMS]
                    );
                }
            }
        }
    }
}
