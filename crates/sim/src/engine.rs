//! The discrete-event simulation engine.
//!
//! One disk, one scheduler, one arrival stream. The engine alternates
//! between delivering arrivals to the scheduler (at their arrival times,
//! with the head state of that moment) and letting the disk serve the
//! scheduler's next pick. Priority inversions are counted at each service
//! start against the requests still waiting, per the paper's definition.
//!
//! This module holds the two halves of that alternation
//! ([`EngineCore::enqueue_chunk`], [`EngineCore::step`]) and the batch
//! entry points; the event loop that calls them is
//! [`EngineStepper::run_until`], the only driver there is. [`simulate`]
//! and friends feed a stepper the whole trace and run it dry.
//!
//! ## Counting inversions without walking the queue
//!
//! §5.1 asks, per QoS dimension, how many waiting requests beat the one
//! being served. The engine answers from a [`Census`] it keeps itself —
//! per tracked dimension, the number of pending requests at each `u8`
//! level — so a dispatch costs a prefix sum over the levels below the
//! served request's, whatever the queue depth and whatever the policy.
//! The census follows the scheduler's pending set: a delivered chunk is
//! added, a dequeued request removed.
//!
//! Requests also leave a scheduler where the engine cannot see which
//! one left: a bounded queue sheds a victim of its own choosing
//! (possibly the arrival itself), and the caller owns the scheduler
//! between pumps (the farm daemon drains a closing shard's backlog with
//! [`DiskScheduler::drain_pending`]). One rule covers all of it:
//! **whenever the census total disagrees with `scheduler.len()` at a
//! point where the census is about to be used, it is rebuilt with one
//! [`DiskScheduler::for_each_pending`] pass.** The contract this puts on
//! a caller: between pumps it may add requests to the scheduler or
//! remove them, but not swap one for another with the count unchanged —
//! a change `len()` cannot show is a change the census cannot see.

use crate::metrics::Metrics;
use crate::service::{ServiceFault, ServiceProvider};
use crate::step::EngineStepper;
use obs::{NullSink, TraceEvent, TraceSink};
use sched::{DiskScheduler, HeadState, Micros, Request};

/// Bounded, deadline-aware retry policy for failed service attempts.
///
/// A transient media error is retried only while both budgets hold:
/// fewer than `max_attempts` attempts made, *and* the request's deadline
/// has not yet passed — a retry that cannot possibly meet the deadline is
/// pointless disk work, so the request is abandoned as a loss instead.
/// An exhausted budget is a loss ([`Metrics::failed`]), never a hang.
///
/// Retries are immediate by default. With `backoff_base_us > 0` the
/// engine waits a seeded-deterministic jittered exponential delay before
/// each retry (see [`crate::jittered_backoff_us`]): the k-th retry of a
/// request waits `base · 2^(k-1)` µs plus up to `jitter_permille`‰ of
/// that, keyed by `(seed, request id, k)`. The deadline check accounts
/// for the delay, so a retry is only taken when it can still *start*
/// within the deadline. With `backoff_base_us == 0` the engine is
/// bit-identical to the immediate-retry behavior regardless of the
/// jitter and seed fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts allowed per request (1 = never retry).
    pub max_attempts: u32,
    /// Base backoff delay before the first retry (µs); 0 = retry
    /// immediately (the default, bit-identical to the pre-backoff
    /// engine).
    pub backoff_base_us: u64,
    /// Jitter amplitude in permille of the exponential delay (0 = pure
    /// exponential).
    pub jitter_permille: u32,
    /// Seed keying the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_base_us: 0,
            jitter_permille: 0,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// Delay (µs) to wait before retry number `retry` (1-based) of
    /// request `req_id`; 0 when backoff is disabled.
    #[inline]
    pub fn backoff_us(&self, retry: u32, req_id: u64) -> u64 {
        crate::backoff::jittered_backoff_us(
            self.backoff_base_us,
            retry,
            self.jitter_permille,
            self.seed,
            req_id,
        )
    }
}

/// Simulation policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Drop requests whose deadline has already passed when they are
    /// dispatched, without serving them (§6: "a request not serviced
    /// prior to this deadline is considered lost"). When `false`, late
    /// requests are still served and counted as late.
    pub drop_past_due: bool,
    /// QoS dimensions to track in the metrics. Priority inversions are
    /// always counted over these: the engine keeps a per-level census of
    /// the waiting set, so a dispatch costs a prefix sum over `dims` rows
    /// of level counts, not a walk over the queue.
    pub dims: usize,
    /// Priority levels per dimension to track in the metrics.
    pub levels: usize,
    /// Warm-up window (µs): requests *arriving* before this instant are
    /// simulated normally but excluded from every metric, so steady-state
    /// measurements are not polluted by the empty-queue start-up
    /// transient.
    pub warmup_us: Micros,
    /// Retry policy for transient media errors (default: never retry).
    pub retry: RetryPolicy,
    /// Emit wall-clock [`TraceEvent::StageSpan`]s over the engine's
    /// enqueue/dispatch/service stages, sampled 1-in-`2^shift` per stage
    /// (`None` = off, the default). Span *durations* are wall-clock and
    /// therefore nondeterministic; span *counts* are a deterministic
    /// function of the trace, so event-reconciliation invariants still
    /// hold. Ignored when the sink is [`obs::NullSink`].
    pub stage_spans: Option<u32>,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            drop_past_due: false,
            dims: sched::MAX_QOS_DIMS,
            levels: 16,
            warmup_us: 0,
            retry: RetryPolicy::default(),
            stage_spans: None,
        }
    }
}

impl SimOptions {
    /// Track `dims` dimensions of `levels` levels.
    pub fn with_shape(dims: usize, levels: usize) -> Self {
        SimOptions {
            dims,
            levels,
            ..Default::default()
        }
    }

    /// Enable §6-style dropping of past-due requests.
    pub fn dropping(mut self) -> Self {
        self.drop_past_due = true;
        self
    }

    /// Exclude requests arriving before `warmup_us` from the metrics.
    pub fn with_warmup(mut self, warmup_us: Micros) -> Self {
        self.warmup_us = warmup_us;
        self
    }

    /// Allow up to `max_attempts` total service attempts per request
    /// (retries stop early once the deadline has passed).
    pub fn with_retries(mut self, max_attempts: u32) -> Self {
        self.retry.max_attempts = max_attempts.max(1);
        self
    }

    /// Wait a seeded-deterministic jittered exponential backoff before
    /// each retry instead of retrying immediately. See [`RetryPolicy`].
    pub fn with_retry_backoff(mut self, base_us: u64, jitter_permille: u32, seed: u64) -> Self {
        self.retry.backoff_base_us = base_us;
        self.retry.jitter_permille = jitter_permille;
        self.retry.seed = seed;
        self
    }

    /// Emit sampled wall-clock stage spans (1-in-`2^shift` per stage)
    /// into the trace sink. See [`SimOptions::stage_spans`].
    pub fn with_stage_spans(mut self, shift: u32) -> Self {
        self.stage_spans = Some(shift);
        self
    }
}

/// The fate of one request, produced by [`simulate_logged`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRecord {
    /// Request id from the trace.
    pub id: u64,
    /// Arrival time (µs).
    pub arrival_us: Micros,
    /// Completion time (µs); `None` when the request was dropped unserved.
    pub completion_us: Option<Micros>,
    /// Whether the deadline was lost (dropped, or completed late).
    pub lost: bool,
}

/// Run `scheduler` over `trace` against `service`; returns the metrics.
///
/// The trace must be sorted by arrival time (see
/// [`workload::validate_trace`]); ids need not be dense.
///
/// # Panics
/// At the first request whose `arrival_us` precedes its predecessor's,
/// naming both times ([`EngineStepper::submit`]'s in-order contract).
pub fn simulate(
    scheduler: &mut dyn DiskScheduler,
    trace: &[Request],
    service: &mut dyn ServiceProvider,
    options: SimOptions,
) -> Metrics {
    simulate_traced(scheduler, trace, service, options, &mut NullSink)
}

/// Like [`simulate`], additionally returning one [`RequestRecord`] per
/// request in service order (dropped requests included) — the raw
/// material for response-time distributions and per-request analysis.
///
/// # Panics
/// On a trace that is not arrival-sorted, as [`simulate`] does.
pub fn simulate_logged(
    scheduler: &mut dyn DiskScheduler,
    trace: &[Request],
    service: &mut dyn ServiceProvider,
    options: SimOptions,
) -> (Metrics, Vec<RequestRecord>) {
    let log = Vec::with_capacity(trace.len());
    EngineStepper::run_trace(scheduler, trace, service, options, Some(log), &mut NullSink)
}

/// Like [`simulate`], additionally emitting the engine-level event
/// timeline ([`TraceEvent::Arrival`], [`TraceEvent::Dispatch`],
/// [`TraceEvent::ServiceStart`], [`TraceEvent::ServiceComplete`],
/// [`TraceEvent::Drop`]) into `sink`.
///
/// To see scheduler-internal events (preemptions, sweep reversals) in
/// the same stream, build the scheduler over an [`obs::SharedSink`]
/// clone of `sink` — see the `trace` bench binary for the full wiring.
/// With [`obs::NullSink`] this monomorphizes to exactly [`simulate`].
///
/// # Panics
/// On a trace that is not arrival-sorted, as [`simulate`] does.
pub fn simulate_traced<S: TraceSink>(
    scheduler: &mut dyn DiskScheduler,
    trace: &[Request],
    service: &mut dyn ServiceProvider,
    options: SimOptions,
    sink: &mut S,
) -> Metrics {
    EngineStepper::run_trace(scheduler, trace, service, options, None, sink).0
}

/// Per-stage samplers for the engine's wall-clock spans; `None` unless
/// [`SimOptions::stage_spans`] is set.
struct EngineSpans {
    enqueue: obs::StageSampler,
    dispatch: obs::StageSampler,
    service: obs::StageSampler,
}

impl EngineSpans {
    fn new(shift: u32) -> Self {
        EngineSpans {
            enqueue: obs::StageSampler::every_pow2(shift),
            dispatch: obs::StageSampler::every_pow2(shift),
            service: obs::StageSampler::every_pow2(shift),
        }
    }
}

/// Start a wall clock for this stage occurrence if the sampler picks it.
/// A disabled sink ([`obs::NullSink`]) never ticks the sampler.
#[inline]
fn span_clock<S: TraceSink>(sampler: Option<&mut obs::StageSampler>) -> Option<std::time::Instant> {
    if !S::ENABLED {
        return None;
    }
    let s = sampler?;
    if s.tick() {
        Some(std::time::Instant::now())
    } else {
        None
    }
}

/// The engine's mutable spine, driven by [`EngineStepper`]: policy knobs,
/// accumulated metrics, the simulation clock, the span samplers and the
/// inversion census. Arrival delivery is [`EngineCore::enqueue_chunk`],
/// service is [`EngineCore::step`].
pub(crate) struct EngineCore {
    pub(crate) options: SimOptions,
    pub(crate) metrics: Metrics,
    pub(crate) now: Micros,
    pub(crate) cylinders: u32,
    spans: Option<EngineSpans>,
    census: Census,
}

impl EngineCore {
    pub(crate) fn new(options: SimOptions, cylinders: u32) -> Self {
        EngineCore {
            metrics: Metrics::new(options.dims, options.levels),
            now: 0,
            cylinders,
            spans: options.stage_spans.map(EngineSpans::new),
            census: Census::new(options.dims, options.levels),
            options,
        }
    }

    /// Whether `r` falls inside the measurement window (past warm-up).
    #[inline]
    pub(crate) fn measured(&self, r: &Request) -> bool {
        r.arrival_us >= self.options.warmup_us
    }

    /// Deliver one arrival chunk. The head does not move between the
    /// arrivals of a chunk (no service runs in between), so the whole
    /// chunk shares one head position anchored at its first arrival; the
    /// scheduler anchors each request at its own arrival time.
    pub(crate) fn enqueue_chunk<S: TraceSink>(
        &mut self,
        chunk: &[Request],
        scheduler: &mut dyn DiskScheduler,
        service: &dyn ServiceProvider,
        sink: &mut S,
    ) {
        if chunk.is_empty() {
            return;
        }
        if S::ENABLED {
            for r in chunk {
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
        let clock = span_clock::<S>(self.spans.as_mut().map(|s| &mut s.enqueue));
        scheduler.enqueue_batch(chunk, &head);
        // A bounded queue may have shed some of these, or queued victims
        // in their place; the length check at the next dequeue sees that.
        for r in chunk {
            self.census.add(r);
        }
        if let Some(t0) = clock {
            sink.emit(&TraceEvent::StageSpan {
                now_us: head.now_us,
                stage: obs::Stage::Enqueue,
                elapsed_ns: t0.elapsed().as_nanos() as u64,
            });
        }
    }

    /// One dequeue-and-serve step at the current clock. Returns `false`
    /// when the scheduler had nothing to dispatch (the driver decides
    /// whether to idle-jump or stop).
    pub(crate) fn step<S: TraceSink>(
        &mut self,
        scheduler: &mut dyn DiskScheduler,
        service: &mut dyn ServiceProvider,
        log: Option<&mut Vec<RequestRecord>>,
        sink: &mut S,
    ) -> bool {
        let head = HeadState::new(service.head(), self.now, self.cylinders);
        let clock = span_clock::<S>(self.spans.as_mut().map(|s| &mut s.dispatch));
        let picked = scheduler.dequeue(&head);
        if let Some(t0) = clock {
            sink.emit(&TraceEvent::StageSpan {
                now_us: self.now,
                stage: obs::Stage::Dispatch,
                elapsed_ns: t0.elapsed().as_nanos() as u64,
            });
        }
        match picked {
            Some(req) => {
                if self.census.total == scheduler.len() + 1 {
                    self.census.remove(&req);
                } else {
                    self.census.rebuild(scheduler);
                }
                self.serve(req, scheduler, service, log, sink);
                true
            }
            None => false,
        }
    }

    /// Drive one dispatched request to its terminal fate — completed,
    /// dropped or failed — advancing the clock past every service
    /// attempt.
    fn serve<S: TraceSink>(
        &mut self,
        req: Request,
        scheduler: &mut dyn DiskScheduler,
        service: &mut dyn ServiceProvider,
        mut log: Option<&mut Vec<RequestRecord>>,
        sink: &mut S,
    ) {
        let in_window = self.measured(&req);
        if S::ENABLED {
            let slack = (req.deadline_us as i128 - self.now as i128)
                .clamp(i64::MIN as i128, i64::MAX as i128) as i64;
            sink.emit(&TraceEvent::Dispatch {
                now_us: self.now,
                req: req.id,
                cylinder: req.cylinder,
                // The dispatched request itself still counts.
                queue_depth: scheduler.len() as u64 + 1,
                slack_us: slack,
            });
        }
        if self.options.drop_past_due && req.is_late(self.now) {
            if in_window {
                self.metrics.dropped += 1;
                self.metrics.record_loss(&req);
            }
            if S::ENABLED {
                sink.emit(&TraceEvent::Drop {
                    now_us: self.now,
                    req: req.id,
                    missed_by_us: self.now.saturating_sub(req.deadline_us),
                });
            }
            if let Some(log) = log.as_mut() {
                log.push(RequestRecord {
                    id: req.id,
                    arrival_us: req.arrival_us,
                    completion_us: None,
                    lost: true,
                });
            }
            return;
        }
        // §5.1: serving `req` adds, per dimension, the number of waiting
        // requests with strictly higher priority in it. With nobody
        // waiting — most dispatches of a lightly loaded farm member —
        // that is nothing, and neither table is touched.
        if in_window && self.census.total > 0 {
            let beating = self.census.beating(&req);
            debug_assert_eq!(
                beating,
                beating_by_walk(scheduler, &req, self.census.dims),
                "the census drifted from the scheduler's pending set"
            );
            for (slot, n) in self.metrics.inversions_per_dim.iter_mut().zip(beating) {
                *slot += n;
            }
        }
        if S::ENABLED {
            sink.emit(&TraceEvent::ServiceStart {
                now_us: self.now,
                req: req.id,
                cylinder: req.cylinder,
                seek_cylinders: service.head().abs_diff(req.cylinder),
            });
        }
        // Serve, retrying transient media errors within the bounded,
        // deadline-aware budget. Every attempt — failed or not — pays
        // its disk time (the head moved, the platter turned), so
        // busy-time accounting covers the whole failure path.
        let max_attempts = self.options.retry.max_attempts.max(1);
        let mut attempt: u32 = 1;
        let service_clock = span_clock::<S>(self.spans.as_mut().map(|s| &mut s.service));
        let outcome = loop {
            let o = service.service_checked(&req, self.now);
            self.now += o.breakdown.total_us();
            if in_window {
                self.metrics.seek_us += o.breakdown.seek_us;
                self.metrics.rotation_us += o.breakdown.rotation_us;
                self.metrics.transfer_us += o.breakdown.transfer_us;
            }
            let Some(fault) = o.fault else {
                break Some(o);
            };
            if S::ENABLED {
                sink.emit(&TraceEvent::MediaError {
                    now_us: self.now,
                    req: req.id,
                    attempt,
                    transient: fault == ServiceFault::Transient,
                });
            }
            if in_window {
                self.metrics.media_errors += 1;
            }
            // Never retry past the deadline: a retry that cannot
            // complete in time only steals bandwidth from requests that
            // still can. An opt-in backoff wait counts against the same
            // budget — the retry must still *start* in time.
            let mut delay = 0u64;
            let retryable = fault == ServiceFault::Transient && attempt < max_attempts && {
                delay = self.options.retry.backoff_us(attempt, req.id);
                !req.is_late(self.now.saturating_add(delay))
            };
            if !retryable {
                break None;
            }
            self.now += delay;
            attempt += 1;
            if in_window {
                self.metrics.retries += 1;
            }
            if S::ENABLED {
                let slack = (req.deadline_us as i128 - self.now as i128)
                    .clamp(i64::MIN as i128, i64::MAX as i128) as i64;
                sink.emit(&TraceEvent::Retry {
                    now_us: self.now,
                    req: req.id,
                    attempt,
                    slack_us: slack,
                });
            }
        };
        if let Some(t0) = service_clock {
            sink.emit(&TraceEvent::StageSpan {
                now_us: self.now,
                stage: obs::Stage::Service,
                elapsed_ns: t0.elapsed().as_nanos() as u64,
            });
        }
        match outcome {
            Some(o) => {
                if o.remap_penalty_us > 0 {
                    if S::ENABLED {
                        sink.emit(&TraceEvent::SectorRemap {
                            now_us: self.now,
                            req: req.id,
                            penalty_us: o.remap_penalty_us,
                        });
                    }
                    if in_window {
                        self.metrics.sector_remaps += 1;
                    }
                }
                if let Some(member) = o.degraded {
                    if S::ENABLED {
                        sink.emit(&TraceEvent::DegradedRead {
                            now_us: self.now,
                            req: req.id,
                            failed_member: member,
                        });
                    }
                    if in_window {
                        self.metrics.degraded_reads += 1;
                    }
                }
                let late = req.is_late(self.now);
                if S::ENABLED {
                    sink.emit(&TraceEvent::ServiceComplete {
                        now_us: self.now,
                        req: req.id,
                        response_us: self.now - req.arrival_us,
                        late,
                    });
                }
                if in_window {
                    self.metrics.served += 1;
                    let response = self.now - req.arrival_us;
                    self.metrics.response_total_us += response as u128;
                    self.metrics.max_response_us = self.metrics.max_response_us.max(response);
                    self.metrics.makespan_us = self.now;
                    if late {
                        self.metrics.late += 1;
                        self.metrics.record_loss(&req);
                    }
                }
                if let Some(log) = log.as_mut() {
                    log.push(RequestRecord {
                        id: req.id,
                        arrival_us: req.arrival_us,
                        completion_us: Some(self.now),
                        lost: late,
                    });
                }
                // A background rebuild I/O towed behind this request
                // occupies the member after the foreground completion.
                if let Some((stripe, service_us)) = o.rebuild {
                    self.now += service_us;
                    if S::ENABLED {
                        sink.emit(&TraceEvent::RebuildIo {
                            now_us: self.now,
                            stripe,
                            service_us,
                        });
                    }
                    if in_window {
                        self.metrics.rebuild_ios += 1;
                        self.metrics.rebuild_us += service_us;
                    }
                }
            }
            None => {
                // Retry budget exhausted (or the error was not
                // recoverable): the request is abandoned — a loss, never
                // a hang.
                if S::ENABLED {
                    sink.emit(&TraceEvent::RequestFailed {
                        now_us: self.now,
                        req: req.id,
                        attempts: attempt,
                    });
                }
                if in_window {
                    self.metrics.failed += 1;
                    self.metrics.record_loss(&req);
                }
                if let Some(log) = log.as_mut() {
                    log.push(RequestRecord {
                        id: req.id,
                        arrival_us: req.arrival_us,
                        completion_us: None,
                        lost: true,
                    });
                }
            }
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

    /// Per dimension, the pending requests that beat `served` (sit at a
    /// strictly lower level). Dimensions `served` does not carry, or the
    /// census does not track, read 0.
    #[inline]
    fn beating(&self, served: &Request) -> [u64; sched::MAX_QOS_DIMS] {
        let mut per_dim = [0u64; sched::MAX_QOS_DIMS];
        for (k, &level) in served.qos.levels().iter().take(self.dims).enumerate() {
            let below = &self.counts[k * self.width..][..(level as usize).min(self.width)];
            per_dim[k] = below.iter().map(|&n| u64::from(n)).sum();
        }
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
    use crate::service::TransferDominated;
    use sched::{Edf, Fcfs, QosVector, Sstf};

    fn req(id: u64, arrival: Micros, deadline: Micros, cyl: u32, qos: &[u8]) -> Request {
        Request::read(id, arrival, deadline, cyl, 512, QosVector::new(qos))
    }

    #[test]
    fn serves_everything_once() {
        let trace: Vec<Request> = (0..20)
            .map(|i| req(i, i * 1_000, u64::MAX, (i * 100 % 3832) as u32, &[0]))
            .collect();
        let mut service = TransferDominated::uniform(5_000, 3832);
        let m = simulate(
            &mut Fcfs::new(),
            &trace,
            &mut service,
            SimOptions::with_shape(1, 16),
        );
        assert_eq!(m.served, 20);
        assert_eq!(m.dropped, 0);
        assert!(m.makespan_us >= 20 * 5_000);
    }

    #[test]
    fn fcfs_has_no_arrival_inversion_but_priority_inversion_exists() {
        // Alternating priorities: FCFS serves in arrival order, so the
        // later high-priority requests wait behind low-priority ones.
        let trace: Vec<Request> = (0..10)
            .map(|i| req(i, 0, u64::MAX, 0, &[(i % 2) as u8]))
            .collect();
        let mut service = TransferDominated::uniform(1_000, 3832);
        let m = simulate(
            &mut Fcfs::new(),
            &trace,
            &mut service,
            SimOptions::with_shape(1, 2),
        );
        assert!(m.inversions_per_dim[0] > 0);
    }

    #[test]
    fn edf_misses_fewer_deadlines_than_fcfs_under_pressure() {
        // Deadlines force reordering: the i-th request has deadline
        // inversely related to arrival.
        let n = 40u64;
        let trace: Vec<Request> = (0..n)
            .map(|i| {
                let deadline = 1_000 + (n - i) * 2_000;
                req(i, i * 10, deadline, 0, &[0])
            })
            .collect();
        let run = |s: &mut dyn DiskScheduler| {
            let mut service = TransferDominated::uniform(1_500, 3832);
            simulate(s, &trace, &mut service, SimOptions::with_shape(1, 2))
        };
        let fcfs = run(&mut Fcfs::new());
        let edf = run(&mut Edf::new());
        assert!(
            edf.losses_total() <= fcfs.losses_total(),
            "edf {} vs fcfs {}",
            edf.losses_total(),
            fcfs.losses_total()
        );
    }

    #[test]
    fn sstf_beats_fcfs_on_seek_time() {
        let trace: Vec<Request> = (0..60)
            .map(|i| req(i, 0, u64::MAX, ((i * 2711) % 3832) as u32, &[0]))
            .collect();
        let run = |s: &mut dyn DiskScheduler| {
            let mut service = crate::DiskService::table1();
            simulate(s, &trace, &mut service, SimOptions::with_shape(1, 2))
        };
        let fcfs = run(&mut Fcfs::new());
        let sstf = run(&mut Sstf::new());
        assert!(
            sstf.seek_us < fcfs.seek_us / 2,
            "sstf {} vs fcfs {}",
            sstf.seek_us,
            fcfs.seek_us
        );
    }

    #[test]
    fn drop_past_due_counts_losses() {
        // Hopeless deadlines: everything arrives at once with 1 µs slack.
        let trace: Vec<Request> = (0..10).map(|i| req(i, 0, 1, 0, &[0])).collect();
        let mut service = TransferDominated::uniform(1_000, 3832);
        let m = simulate(
            &mut Fcfs::new(),
            &trace,
            &mut service,
            SimOptions::with_shape(1, 2).dropping(),
        );
        // The first is dispatched at t=0 (not yet late), the rest drop.
        assert_eq!(m.served, 1);
        assert_eq!(m.dropped, 9);
        assert_eq!(m.losses_total(), 10); // the served one completed late
    }

    #[test]
    fn warmup_excludes_early_arrivals() {
        // 10 requests at t=0..9ms, warmup at 5ms: only the last 5 count.
        let trace: Vec<Request> = (0..10)
            .map(|i| req(i, i * 1_000, u64::MAX, 0, &[0]))
            .collect();
        let mut service = TransferDominated::uniform(500, 3832);
        let m = simulate(
            &mut Fcfs::new(),
            &trace,
            &mut service,
            SimOptions::with_shape(1, 2).with_warmup(5_000),
        );
        assert_eq!(m.served, 5);
        assert_eq!(m.requests_by_dim_level[0][0], 5);
    }

    #[test]
    fn logged_records_every_request_in_service_order() {
        let trace: Vec<Request> = (0..8)
            .map(|i| req(i, 0, u64::MAX, (i * 400) as u32, &[0]))
            .collect();
        let mut service = TransferDominated::uniform(1_000, 3832);
        let mut s = Sstf::new();
        let (m, log) = simulate_logged(&mut s, &trace, &mut service, SimOptions::with_shape(1, 2));
        assert_eq!(m.served, 8);
        assert_eq!(log.len(), 8);
        // Completion times are strictly increasing in service order.
        let times: Vec<_> = log.iter().map(|r| r.completion_us.unwrap()).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]));
        // SSTF from cylinder 0 serves in cylinder order here.
        let ids: Vec<u64> = log.iter().map(|r| r.id).collect();
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
        assert!(log.iter().all(|r| !r.lost));
    }

    #[test]
    fn logged_marks_drops() {
        let trace: Vec<Request> = (0..5).map(|i| req(i, 0, 1, 0, &[0])).collect();
        let mut service = TransferDominated::uniform(1_000, 3832);
        let (m, log) = simulate_logged(
            &mut Fcfs::new(),
            &trace,
            &mut service,
            SimOptions::with_shape(1, 2).dropping(),
        );
        assert_eq!(m.dropped, 4);
        assert_eq!(log.iter().filter(|r| r.completion_us.is_none()).count(), 4);
        assert!(log.iter().all(|r| r.lost));
    }

    #[test]
    fn traced_run_reconciles_with_metrics() {
        use obs::Snapshot;
        // A deadline mix that produces served, late and dropped requests.
        let trace: Vec<Request> = (0..30)
            .map(|i| {
                let deadline = if i % 3 == 0 { 1 + i * 10 } else { u64::MAX };
                req(i, i * 500, deadline, ((i * 733) % 3832) as u32, &[0])
            })
            .collect();
        let options = SimOptions::with_shape(1, 2).dropping();
        let plain = {
            let mut service = TransferDominated::uniform(2_000, 3832);
            simulate(&mut Fcfs::new(), &trace, &mut service, options)
        };
        let mut snapshot = Snapshot::new();
        let traced = {
            let mut service = TransferDominated::uniform(2_000, 3832);
            simulate_traced(
                &mut Fcfs::new(),
                &trace,
                &mut service,
                options,
                &mut snapshot,
            )
        };
        // Tracing must not change the simulation.
        assert_eq!(plain, traced);
        // And the event counters must reconcile with the metrics exactly.
        let c = snapshot.counters;
        assert_eq!(c.arrivals, 30);
        traced.reconcile(&c).expect("events match metrics");
        assert!(traced.dropped > 0, "workload produced no drops");
        assert_eq!(snapshot.response_us.count(), traced.served);
        assert_eq!(snapshot.response_us.max(), Some(traced.max_response_us));
        assert_eq!(snapshot.seek_cylinders.count(), traced.served);
        assert_eq!(snapshot.queue_depth.count(), c.dispatches);
    }

    #[test]
    fn traced_timeline_orders_each_request() {
        use obs::{RingSink, TraceEvent};
        let trace: Vec<Request> = (0..10)
            .map(|i| req(i, i * 100, u64::MAX, (i * 311 % 3832) as u32, &[0]))
            .collect();
        let mut ring = RingSink::new(4096);
        let mut service = TransferDominated::uniform(1_000, 3832);
        simulate_traced(
            &mut Sstf::new(),
            &trace,
            &mut service,
            SimOptions::with_shape(1, 2),
            &mut ring,
        );
        // Per request: arrival <= dispatch == service_start <= complete.
        for id in 0..10u64 {
            let times: Vec<(&'static str, u64)> = ring
                .events()
                .filter(|e| e.req() == Some(id))
                .map(|e| (e.name(), e.now_us()))
                .collect();
            let names: Vec<&str> = times.iter().map(|(n, _)| *n).collect();
            assert_eq!(
                names,
                vec!["arrival", "dispatch", "service_start", "service_complete"],
                "request {id}"
            );
            assert!(times.windows(2).all(|w| w[0].1 <= w[1].1), "request {id}");
        }
        // Scheduling events are globally time-ordered. Arrivals are not:
        // they are delivered in batches between services, so an arrival
        // that happened mid-service is emitted after that service's
        // completion event with an earlier stamp.
        let stamps: Vec<u64> = ring
            .events()
            .filter(|e| e.name() != "arrival")
            .map(TraceEvent::now_us)
            .collect();
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn zero_fault_plan_is_bit_identical() {
        use crate::DiskService;
        use diskmodel::{Disk, FaultPlan};
        let trace: Vec<Request> = (0..50)
            .map(|i| {
                req(
                    i,
                    i * 800,
                    60_000 + i * 800,
                    ((i * 977) % 3832) as u32,
                    &[0],
                )
            })
            .collect();
        let options = SimOptions::with_shape(1, 2).dropping().with_retries(3);
        let plain = {
            let mut service = DiskService::table1();
            simulate(&mut Fcfs::new(), &trace, &mut service, options)
        };
        let faulted = {
            let mut service = DiskService::with_faults(Disk::table1(), FaultPlan::none());
            simulate(&mut Fcfs::new(), &trace, &mut service, options)
        };
        assert_eq!(plain, faulted, "zero-fault plan must cost nothing");
        assert_eq!(faulted.media_errors, 0);
        assert_eq!(faulted.failed, 0);
    }

    #[test]
    fn transient_errors_fail_without_retries_and_recover_with_them() {
        use crate::DiskService;
        use diskmodel::{Disk, FaultPlan};
        // 20% transient rate, generous deadlines.
        let trace: Vec<Request> = (0..200)
            .map(|i| req(i, i * 100, u64::MAX, ((i * 733) % 3832) as u32, &[0]))
            .collect();
        let plan = FaultPlan::media(99, 200_000, 0);
        let run = |retries: u32| {
            let mut service = DiskService::with_faults(Disk::table1(), plan.clone());
            simulate(
                &mut Fcfs::new(),
                &trace,
                &mut service,
                SimOptions::with_shape(1, 2).with_retries(retries),
            )
        };
        let no_retry = run(1);
        assert!(no_retry.media_errors > 10, "rate should fire");
        assert_eq!(no_retry.failed, no_retry.media_errors, "every error fatal");
        assert_eq!(no_retry.retries, 0);
        assert_eq!(no_retry.served + no_retry.failed, 200);
        let with_retry = run(5);
        assert!(with_retry.retries > 0);
        assert!(
            with_retry.failed < no_retry.failed / 4,
            "retries should recover most transients: {} vs {}",
            with_retry.failed,
            no_retry.failed
        );
        assert_eq!(with_retry.served + with_retry.failed, 200);
    }

    #[test]
    fn retries_never_pass_the_deadline() {
        use crate::DiskService;
        use diskmodel::{Disk, FaultPlan};
        use obs::RingSink;
        // Half the requests get tight deadlines; a third of attempts fail.
        let trace: Vec<Request> = (0..150)
            .map(|i| {
                let deadline = if i % 2 == 0 {
                    i * 400 + 30_000
                } else {
                    u64::MAX
                };
                req(i, i * 400, deadline, ((i * 547) % 3832) as u32, &[0])
            })
            .collect();
        let mut ring = RingSink::new(1 << 16);
        let mut service = DiskService::with_faults(Disk::table1(), FaultPlan::media(5, 330_000, 0));
        let m = simulate_traced(
            &mut Fcfs::new(),
            &trace,
            &mut service,
            SimOptions::with_shape(1, 2).with_retries(8),
            &mut ring,
        );
        assert!(m.retries > 0, "workload produced no retries");
        // Every retry was issued with non-negative slack: the engine
        // never spends disk time on a request that is already late.
        for e in ring.events() {
            if let TraceEvent::Retry { slack_us, .. } = e {
                assert!(*slack_us >= 0, "retry issued past deadline: {slack_us}");
            }
        }
        // Termination + accounting: everything is served, dropped, or
        // failed — never hung.
        assert_eq!(m.served + m.failed, 150);
    }

    #[test]
    fn fault_run_reconciles_events_with_metrics() {
        use crate::DiskService;
        use diskmodel::{Disk, FaultPlan};
        use obs::Snapshot;
        let trace: Vec<Request> = (0..300)
            .map(|i| req(i, i * 200, u64::MAX, ((i * 311) % 3832) as u32, &[0]))
            .collect();
        let mut snapshot = Snapshot::new();
        let mut service =
            DiskService::with_faults(Disk::table1(), FaultPlan::media(11, 100_000, 50_000));
        let m = simulate_traced(
            &mut Fcfs::new(),
            &trace,
            &mut service,
            SimOptions::with_shape(1, 2).with_retries(3),
            &mut snapshot,
        );
        let c = snapshot.counters;
        assert!(m.media_errors > 0 && m.sector_remaps > 0);
        m.reconcile(&c).expect("events match metrics");
    }

    #[test]
    fn member_failure_degrades_reads_and_rebuilds() {
        use crate::Raid5Service;
        use diskmodel::FaultPlan;
        // Member 2 dies at t=0; rebuild one stripe per 4 foreground
        // completions, 20 stripes total.
        let plan = FaultPlan::none()
            .with_member_failure(2, 0)
            .with_rebuild(20, 4);
        let trace: Vec<Request> = (0..160)
            .map(|i| req(i, i * 2_000, u64::MAX, (i % 500) as u32, &[0]))
            .collect();
        let mut service = Raid5Service::with_faults(plan);
        let m = simulate(
            &mut Fcfs::new(),
            &trace,
            &mut service,
            SimOptions::with_shape(1, 2),
        );
        assert_eq!(m.served, 160, "degraded group must still serve");
        assert!(m.degraded_reads > 0, "no read hit the failed member");
        assert_eq!(m.rebuild_ios, 20, "rebuild should finish its stripes");
        assert!(m.rebuild_us > 0);
        assert_eq!(service.rebuilt_stripes(), 20);
    }

    #[test]
    fn limping_member_slows_service() {
        use crate::DiskService;
        use diskmodel::{Disk, FaultPlan};
        let trace: Vec<Request> = (0..80)
            .map(|i| req(i, 0, u64::MAX, ((i * 433) % 3832) as u32, &[0]))
            .collect();
        let run = |plan: FaultPlan| {
            let mut service = DiskService::with_faults(Disk::table1(), plan);
            simulate(
                &mut Fcfs::new(),
                &trace,
                &mut service,
                SimOptions::with_shape(1, 2),
            )
        };
        let healthy = run(FaultPlan::none());
        let limping = run(FaultPlan::none().with_limp(0, 2000));
        assert!(
            limping.busy_us() > healthy.busy_us() * 3 / 2,
            "2x limp should dilate busy time: {} vs {}",
            limping.busy_us(),
            healthy.busy_us()
        );
    }

    #[test]
    fn stage_spans_populate_stage_histograms_deterministically() {
        use obs::{Snapshot, Stage};
        let trace: Vec<Request> = (0..40)
            .map(|i| req(i, i * 700, u64::MAX, ((i * 433) % 3832) as u32, &[0]))
            .collect();
        let options = SimOptions::with_shape(1, 2).with_stage_spans(0);
        let run = || {
            let mut snap = Snapshot::new();
            let mut service = TransferDominated::uniform(1_000, 3832);
            let m = simulate_traced(&mut Fcfs::new(), &trace, &mut service, options, &mut snap);
            (m, snap)
        };
        let (m, snap) = run();
        assert!(snap.counters.stage_spans > 0);
        // Shift 0 samples every occurrence: one dispatch span per
        // dequeue attempt, one service span per service.
        let engine_stages = [Stage::Enqueue, Stage::Dispatch, Stage::Service];
        let span_total: u64 = engine_stages
            .iter()
            .map(|s| snap.stage_ns[s.index()].count())
            .sum();
        assert_eq!(span_total, snap.counters.stage_spans);
        assert_eq!(snap.stage_ns[Stage::Service.index()].count(), m.served);
        assert!(snap.stage_ns[Stage::Enqueue.index()].count() > 0);
        // Span counts (not durations) are deterministic across runs.
        let (_, again) = run();
        assert_eq!(again.counters.stage_spans, snap.counters.stage_spans);
        // And they do not depend on how the run is pumped: the daemon's
        // pattern (pump to each arrival, then submit it) with extra
        // horizons inside the busy period counts the same spans per stage.
        let mut pumped = Snapshot::new();
        let mut service = TransferDominated::uniform(1_000, 3832);
        let mut scheduler = Fcfs::new();
        let mut stepper = EngineStepper::new(options, service.cylinders());
        for r in &trace {
            for horizon in [r.arrival_us.saturating_sub(300), r.arrival_us] {
                stepper.run_until(horizon, &mut scheduler, &mut service, &mut pumped);
            }
            stepper.submit(r.clone());
        }
        stepper.finish(&mut scheduler, &mut service, &mut pumped);
        assert_eq!(stepper.into_metrics(), m);
        for stage in engine_stages {
            assert_eq!(
                pumped.stage_ns[stage.index()].count(),
                snap.stage_ns[stage.index()].count(),
                "{stage:?}"
            );
        }
        // Untraced metrics are untouched by span emission.
        let mut service = TransferDominated::uniform(1_000, 3832);
        let plain = simulate(&mut Fcfs::new(), &trace, &mut service, options);
        assert_eq!(plain, m);
    }

    #[test]
    #[should_panic(expected = "arrivals must be submitted in order: 50 after 100")]
    fn unsorted_trace_panics_at_the_offending_request() {
        let trace = vec![
            req(0, 100, u64::MAX, 0, &[0]),
            req(1, 50, u64::MAX, 0, &[0]),
        ];
        let mut service = TransferDominated::uniform(1_000, 3832);
        simulate(
            &mut Fcfs::new(),
            &trace,
            &mut service,
            SimOptions::default(),
        );
    }

    #[test]
    fn response_time_accumulates() {
        let trace = vec![req(0, 0, u64::MAX, 0, &[0])];
        let mut service = TransferDominated::uniform(7_000, 3832);
        let m = simulate(
            &mut Fcfs::new(),
            &trace,
            &mut service,
            SimOptions::default(),
        );
        assert_eq!(m.mean_response_us(), 7_000.0);
    }
}
