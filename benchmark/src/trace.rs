//! The traced pass: wrappers around the public traits the daemon already
//! accepts, so cost is attributed to layers from outside the program.
//!
//! * [`TracedSource`] wraps the workload's [`TraceSource`]: it times
//!   `next`/`observe`, measures the gap between consecutive `next` calls
//!   (one `daemon.iter`: `handle` + `backlog` + `observe`), and captures
//!   the arrivals the replays feed to the admission gate, the router, the
//!   SFC kernel and the telemetry sink afterwards.
//! * [`TracedScheduler`] wraps each shard's [`DiskScheduler`]: it times
//!   `enqueue_batch`, `dequeue` and `for_each_pending` (the engine's
//!   inversion scan), records chunk sizes and queue depths, and runs two
//!   twins — the scheduler's own encapsulator a second time on the same
//!   chunk, and a harness-owned [`Disk`] on each dequeued request — to
//!   split characterization out of enqueue and to cost the service model,
//!   which the daemon owns concretely and cannot be wrapped.
//!
//! Counts cover every call. Clock reads cost more than many of the calls
//! they would bracket, so times are taken in one iteration of the daemon
//! loop in [`TIMED_EVERY`] (every wrapper call inside it, twins included)
//! and scaled by calls over timed calls; one timed iteration in
//! [`SPANS_EVERY`] also keeps its full spans, written out after the pass.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use cascade::CascadedSfc;
use diskmodel::Disk;
use obs::{FlightRecorder, SharedSink};
use sched::{DiskScheduler, HeadState, Request, Retune};
use workload::TraceSource;

use crate::refkernel::splitmix64;
use crate::sources::Sliced;

/// One iteration of the daemon loop in this many is timed.
pub const TIMED_EVERY: u64 = 16;
/// One timed iteration in this many keeps full spans.
pub const SPANS_EVERY: u64 = 64;
/// Arrivals captured for the replays (the prefix of the run).
pub const CAPTURE_LIMIT: usize = 1_000_000;
/// Chunk sizes at or above this share the last histogram slot.
const CHUNK_SLOTS: usize = 257;

/// Is pull number `pull` one that opens a timed iteration? One in
/// [`TIMED_EVERY`], chosen by a hash rather than a stride: arrivals come
/// in periodic patterns (a NewsByte burst group is 48 requests) that a
/// stride would sample at the same few positions every time.
fn timed_pull(pull: u64) -> bool {
    let mut state = pull;
    splitmix64(&mut state) % TIMED_EVERY == 0
}

/// One recorded span. Times are ns since the pass started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `cascade.dequeue`.
    pub name: &'static str,
    /// Start (ns since the pass started).
    pub start_ns: u64,
    /// End (ns since the pass started).
    pub end_ns: u64,
    /// Index of the enclosing `daemon.iter` span, if any.
    pub parent: Option<usize>,
    /// The request the span belongs to (the arrival for `daemon.iter`,
    /// the first request of the chunk for enqueue, the pick for dequeue).
    pub req: u64,
}

/// Calls counted, and the duration of those that were timed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timer {
    /// Every call.
    pub calls: u64,
    /// Calls that were timed.
    pub timed: u64,
    /// Summed duration of the timed calls (ns).
    pub ns: u64,
}

impl Timer {
    /// Count and time one call.
    pub fn record(&mut self, ns: u64) {
        self.calls += 1;
        self.timed += 1;
        self.ns += ns;
    }

    /// Estimated total over every call (ns): the timed calls, each with
    /// the clock reads that bracket it (`clock_ns`) taken out, scaled by
    /// calls over timed calls.
    pub fn total_ns(&self, clock_ns: f64) -> f64 {
        if self.timed == 0 {
            return 0.0;
        }
        let net = (self.ns as f64 - self.timed as f64 * clock_ns).max(0.0);
        net * self.calls as f64 / self.timed as f64
    }
}

/// Everything the wrappers record during one traced pass.
pub struct Trace {
    epoch: Instant,
    /// `TraceSource::next`, pauses included.
    pub next: Timer,
    /// `TraceSource::observe`.
    pub observe: Timer,
    /// `DiskScheduler::enqueue_batch` (characterize + insert).
    pub enqueue: Timer,
    /// Requests delivered through `enqueue_batch`.
    pub enqueued: u64,
    /// The twin encapsulator, on the chunks of timed calls.
    pub characterize_twin: Timer,
    /// `DiskScheduler::dequeue`, empty attempts included.
    pub dequeue: Timer,
    /// Dequeue attempts on an empty queue.
    pub dequeue_empty: u64,
    /// `DiskScheduler::for_each_pending` — the inversion scan.
    pub scan: Timer,
    /// The twin disk model, on the picks of timed dequeues. `calls`
    /// counts every pick.
    pub service_twin: Timer,
    /// Requests per `enqueue_batch` call: slot `n` counts chunks of `n`.
    pub chunks: Vec<u64>,
    /// Summed queue depth seen by non-empty dequeues (pick included).
    pub depth_sum: u64,
    /// Deepest queue seen by a dequeue.
    pub depth_max: u64,
    /// Gap between consecutive `next` calls (ns), one per timed
    /// iteration.
    pub iter_gaps: Vec<u64>,
    /// The first [`CAPTURE_LIMIT`] arrivals, for the replays.
    pub captured: Vec<Request>,
    /// Sampled spans.
    pub spans: Vec<Span>,
    /// Clock reads the wrappers made (each costs host time the untraced
    /// path does not pay).
    pub clock_reads: u64,
    /// Two back-to-back reads at the start of every timed iteration: what
    /// a read costs where the wrappers make them, not in a warm loop.
    pub clock_pairs: Timer,
    /// Is the current iteration timed?
    timing: bool,
    iter_start_ns: u64,
    open_iter: Option<usize>,
    twin_values: Vec<u128>,
}

/// Shared handle: the daemon owns the wrappers, the harness reads the
/// totals back after `shutdown`.
pub type TraceHandle = Rc<RefCell<Trace>>;

impl Trace {
    /// A fresh trace for a pass of `expected_arrivals` arrivals.
    pub fn new(expected_arrivals: u64) -> TraceHandle {
        Rc::new(RefCell::new(Trace {
            epoch: Instant::now(),
            next: Timer::default(),
            observe: Timer::default(),
            enqueue: Timer::default(),
            enqueued: 0,
            characterize_twin: Timer::default(),
            dequeue: Timer::default(),
            dequeue_empty: 0,
            scan: Timer::default(),
            service_twin: Timer::default(),
            chunks: vec![0; CHUNK_SLOTS],
            depth_sum: 0,
            depth_max: 0,
            iter_gaps: Vec::with_capacity((expected_arrivals / TIMED_EVERY) as usize + 1),
            captured: Vec::with_capacity(CAPTURE_LIMIT.min(expected_arrivals as usize)),
            spans: Vec::new(),
            clock_reads: 0,
            clock_pairs: Timer::default(),
            timing: false,
            iter_start_ns: 0,
            open_iter: None,
            twin_values: Vec::new(),
        }))
    }

    fn now_ns(&mut self) -> u64 {
        self.clock_reads += 1;
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Cost of one clock read (ns) as the wrappers pay it.
    pub fn clock_read_cost_ns(&self) -> f64 {
        if self.clock_pairs.timed == 0 {
            0.0
        } else {
            self.clock_pairs.ns as f64 / self.clock_pairs.timed as f64
        }
    }

    /// Record a child span of the currently sampled iteration, if any.
    fn child(&mut self, name: &'static str, start_ns: u64, end_ns: u64, req: u64) {
        if let Some(parent) = self.open_iter {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: Some(parent),
                req,
            });
        }
    }

    /// End the timed iteration in progress, if any, at `now`.
    fn close_iteration(&mut self, now: u64) {
        if self.timing {
            self.timing = false;
            self.iter_gaps.push(now - self.iter_start_ns);
            if let Some(i) = self.open_iter.take() {
                self.spans[i].end_ns = now;
            }
        }
    }

    /// Share of delivered requests that arrived in chunks of at least
    /// `min` requests.
    pub fn chunk_share_at_least(&self, min: usize) -> f64 {
        let weighted = |(n, &c): (usize, &u64)| n as u64 * c;
        let total: u64 = self.chunks.iter().enumerate().map(weighted).sum();
        let big: u64 = self.chunks.iter().enumerate().skip(min).map(weighted).sum();
        if total == 0 {
            0.0
        } else {
            big as f64 / total as f64
        }
    }

    /// Nearest-rank quantile of the chunk-size distribution over calls.
    pub fn chunk_quantile(&self, q: f64) -> u64 {
        let calls: u64 = self.chunks.iter().sum();
        let rank = ((q * calls as f64).ceil() as u64).clamp(1, calls.max(1));
        let mut seen = 0;
        for (n, &c) in self.chunks.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return n as u64;
            }
        }
        0
    }

    /// Self time per span name: duration minus the part covered by child
    /// spans, summed over the sampled spans. `(name, spans, self ns)`.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<(&'static str, u64, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            match out.iter_mut().find(|(name, ..)| *name == s.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += own;
                }
                None => out.push((s.name, 1, own)),
            }
        }
        out
    }

    /// The sampled spans as JSON lines.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                s.name, s.start_ns, s.end_ns
            );
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            let _ = writeln!(out, ",\"req\":{}}}", s.req);
        }
        out
    }
}

/// The timing wrapper around a workload source.
pub struct TracedSource<T: TraceSource> {
    inner: T,
    trace: TraceHandle,
}

impl<T: TraceSource> TracedSource<T> {
    /// Wrap `inner`, recording into `trace`.
    pub fn new(inner: T, trace: TraceHandle) -> Self {
        TracedSource { inner, trace }
    }

    /// The wrapped source.
    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: TraceSource> Iterator for TracedSource<T> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        // This pull ends the previous iteration and, one time in
        // TIMED_EVERY, starts a timed one.
        let mut t = self.trace.borrow_mut();
        let time_this = timed_pull(t.next.calls);
        let entry = if t.timing || time_this {
            let now = t.now_ns();
            t.close_iteration(now);
            now
        } else {
            0
        };
        drop(t);
        let item = self.inner.next();
        let mut t = self.trace.borrow_mut();
        t.next.calls += 1;
        // A pause or the end: no iteration follows this pull.
        let r = item.as_ref()?;
        if t.captured.len() < CAPTURE_LIMIT {
            t.captured.push(r.clone());
        }
        if time_this {
            // The pull ends at the first read; the iteration starts at
            // the second, and the pair prices a read in place.
            let exit = t.now_ns();
            let iter_start = t.now_ns();
            t.clock_pairs.record(iter_start - exit);
            t.next.timed += 1;
            t.next.ns += exit - entry;
            t.timing = true;
            t.iter_start_ns = iter_start;
            if t.next.timed % SPANS_EVERY == 0 {
                let iter = t.spans.len();
                t.spans.push(Span {
                    name: "daemon.iter",
                    start_ns: iter_start,
                    end_ns: iter_start,
                    parent: None,
                    req: r.id,
                });
                // The pull that produced this arrival belongs to its
                // request but precedes the iteration: no parent.
                t.spans.push(Span {
                    name: "workload.next",
                    start_ns: entry,
                    end_ns: exit,
                    parent: None,
                    req: r.id,
                });
                t.open_iter = Some(iter);
            }
        }
        item
    }
}

impl<T: TraceSource> TraceSource for TracedSource<T> {
    fn observe(&mut self, backlog: usize) {
        let mut t = self.trace.borrow_mut();
        if !t.timing {
            t.observe.calls += 1;
            drop(t);
            return self.inner.observe(backlog);
        }
        let start = t.now_ns();
        drop(t);
        self.inner.observe(backlog);
        let mut t = self.trace.borrow_mut();
        let end = t.now_ns();
        t.observe.record(end - start);
        t.child("workload.observe", start, end, 0);
    }
}

impl<T: Sliced> Sliced for TracedSource<T> {
    fn exhausted(&self) -> bool {
        self.inner.exhausted()
    }
}

/// A cascade shard as the daemon builds it: its sink is the member's
/// flight recorder.
pub type Shard = CascadedSfc<SharedSink<FlightRecorder>>;

/// The timing wrapper around one shard's scheduler. Forwards every trait
/// method — including the provided ones the cascade overrides — so the
/// daemon behaves exactly as it does without it.
pub struct TracedScheduler {
    inner: Shard,
    trace: TraceHandle,
    twin_disk: Disk,
}

impl TracedScheduler {
    /// Wrap `inner`, recording into `trace`.
    pub fn new(inner: Shard, trace: TraceHandle) -> Self {
        TracedScheduler {
            inner,
            trace,
            twin_disk: Disk::table1(),
        }
    }
}

/// What one untimed pass through a wrapper costs (ns per call): its
/// bookkeeping and the extra dispatch, measured as the difference between
/// dequeuing from an empty shard through the wrapper and without it. The
/// wrappers make 5 to 40 such calls per arrival, which the untraced path
/// does not pay.
pub fn bookkeeping_cost_ns(shard: impl Fn() -> Shard) -> f64 {
    const CALLS: u32 = 2_000_000;
    let head = HeadState::new(0, 0, 3832);
    let time = |scheduler: &mut dyn DiskScheduler| {
        let start = Instant::now();
        for _ in 0..CALLS {
            black_box(scheduler.dequeue(black_box(&head)));
        }
        start.elapsed().as_nanos() as f64 / f64::from(CALLS)
    };
    let mut bare: Box<dyn DiskScheduler> = Box::new(shard());
    let mut wrapped: Box<dyn DiskScheduler> =
        Box::new(TracedScheduler::new(shard(), Trace::new(0)));
    // Untimed iterations only: pull 0 would open a timed one, and no
    // pull ever happens here.
    let (warm_bare, warm_wrapped) = (time(bare.as_mut()), time(wrapped.as_mut()));
    let cost = time(wrapped.as_mut()).min(warm_wrapped) - time(bare.as_mut()).min(warm_bare);
    cost.max(0.0)
}

impl DiskScheduler for TracedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn enqueue(&mut self, req: Request, head: &HeadState) {
        // The engine only ever delivers chunks; keep the single-request
        // entry point on the same accounting.
        self.enqueue_batch(std::slice::from_ref(&req), head);
    }

    fn enqueue_batch(&mut self, batch: &[Request], head: &HeadState) {
        let mut t = self.trace.borrow_mut();
        t.enqueued += batch.len() as u64;
        t.chunks[batch.len().min(CHUNK_SLOTS - 1)] += 1;
        if !t.timing {
            t.enqueue.calls += 1;
            t.characterize_twin.calls += 1;
            drop(t);
            return self.inner.enqueue_batch(batch, head);
        }
        let start = t.now_ns();
        drop(t);
        self.inner.enqueue_batch(batch, head);
        let mut guard = self.trace.borrow_mut();
        let t = &mut *guard;
        let mid = t.now_ns();
        // The same characterization again, through the scheduler's own
        // encapsulator (so a retuned shard is costed with its live
        // tables and the twin adds no second copy of them to the cache).
        t.twin_values.clear();
        self.inner
            .encapsulator()
            .map_batch_into(batch, head, &mut t.twin_values);
        black_box(&t.twin_values);
        let end = t.now_ns();
        t.enqueue.record(mid - start);
        t.characterize_twin.record(end - mid);
        let first = batch.first().map_or(0, |r| r.id);
        t.child("cascade.enqueue", start, mid, first);
        t.child("trace.characterize_twin", mid, end, first);
    }

    fn dequeue(&mut self, head: &HeadState) -> Option<Request> {
        let depth = self.inner.len() as u64;
        let mut t = self.trace.borrow_mut();
        if depth == 0 {
            t.dequeue_empty += 1;
        } else {
            t.depth_sum += depth;
            t.depth_max = t.depth_max.max(depth);
        }
        if !t.timing {
            t.dequeue.calls += 1;
            t.service_twin.calls += u64::from(depth > 0);
            drop(t);
            return self.inner.dequeue(head);
        }
        let start = t.now_ns();
        drop(t);
        let picked = self.inner.dequeue(head);
        let mut t = self.trace.borrow_mut();
        let mid = t.now_ns();
        t.dequeue.record(mid - start);
        if let Some(r) = &picked {
            black_box(self.twin_disk.service(r.cylinder, r.bytes));
            let end = t.now_ns();
            t.service_twin.record(end - mid);
            t.child("cascade.dequeue", start, mid, r.id);
            t.child("trace.service_twin", mid, end, r.id);
        }
        picked
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn for_each_pending(&self, f: &mut dyn FnMut(&Request)) {
        let mut t = self.trace.borrow_mut();
        if !t.timing {
            t.scan.calls += 1;
            drop(t);
            return self.inner.for_each_pending(f);
        }
        let start = t.now_ns();
        drop(t);
        self.inner.for_each_pending(f);
        let mut t = self.trace.borrow_mut();
        let end = t.now_ns();
        t.scan.record(end - start);
        t.child("engine.inversion_scan", start, end, 0);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn blank() -> TraceHandle {
        Trace::new(0)
    }

    #[test]
    fn chunk_statistics_weight_by_requests() {
        let handle = blank();
        let mut t = handle.borrow_mut();
        t.chunks[1] = 6; // six singletons
        t.chunks[10] = 1; // one chunk of ten
        assert_eq!(t.chunk_share_at_least(8), 10.0 / 16.0);
        assert_eq!(t.chunk_share_at_least(1), 1.0);
        assert_eq!(t.chunk_quantile(0.5), 1);
        assert_eq!(t.chunk_quantile(0.99), 10);
    }

    #[test]
    fn timers_scale_timed_calls_to_all_calls() {
        let mut timer = Timer::default();
        timer.record(130);
        timer.record(150);
        timer.calls += 6; // six more calls counted but not timed
        assert_eq!(
            timer.total_ns(40.0),
            (130.0 + 150.0 - 2.0 * 40.0) * 8.0 / 2.0
        );
        assert_eq!(Timer::default().total_ns(40.0), 0.0);
        // A clock cost above the measured time clamps at zero.
        assert_eq!(timer.total_ns(500.0), 0.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let handle = blank();
        let mut t = handle.borrow_mut();
        t.spans.push(Span {
            name: "daemon.iter",
            start_ns: 100,
            end_ns: 1_100,
            parent: None,
            req: 0,
        });
        t.open_iter = Some(0);
        t.child("cascade.dequeue", 200, 500, 7);
        t.child("cascade.enqueue", 600, 700, 8);
        t.open_iter = None;
        t.child("cascade.enqueue", 900, 950, 9); // unsampled: dropped
        let rows = t.self_times();
        assert_eq!(rows[0], ("daemon.iter", 1, 600));
        assert_eq!(rows[1], ("cascade.dequeue", 1, 300));
        assert_eq!(rows[2], ("cascade.enqueue", 1, 100));
        let jsonl = t.spans_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.contains(
            "\"name\":\"cascade.dequeue\",\"start_ns\":200,\"end_ns\":500,\"parent\":0,\"req\":7"
        ));
    }
}
