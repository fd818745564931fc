//! Trace sinks: where emitted events go.
//!
//! The contract is [`TraceSink`]: one `emit` call per event, plus the
//! associated constant [`TraceSink::ENABLED`] that lets instrumented code
//! skip event *construction* entirely when the sink is the no-op
//! [`NullSink`]. Instrumentation sites follow the pattern
//!
//! ```ignore
//! if S::ENABLED {
//!     sink.emit(&TraceEvent::QueueSwap { now_us, batch });
//! }
//! ```
//!
//! so that with the default `NullSink` the branch is constant-folded away
//! and the instrumented hot path is byte-for-byte the uninstrumented one.

use crate::event::TraceEvent;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::Write;
use std::rc::Rc;

/// A consumer of [`TraceEvent`]s.
pub trait TraceSink {
    /// Whether this sink actually consumes events. Instrumentation sites
    /// guard event construction on this constant so a disabled sink costs
    /// nothing; only [`NullSink`] should set it to `false`.
    const ENABLED: bool = true;

    /// Consume one event.
    fn emit(&mut self, event: &TraceEvent);
}

/// A mutable borrow of a sink is itself a sink.
impl<S: TraceSink> TraceSink for &mut S {
    const ENABLED: bool = S::ENABLED;

    fn emit(&mut self, event: &TraceEvent) {
        (**self).emit(event);
    }
}

/// The no-op sink: discards everything and reports itself disabled, so
/// instrumented code monomorphizes to the uninstrumented code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    const ENABLED: bool = false;

    fn emit(&mut self, _event: &TraceEvent) {}
}

/// A bounded in-memory sink keeping the most recent events.
///
/// When full, the oldest event is evicted (and counted); the ring never
/// reallocates past its capacity, so it is safe to leave attached to
/// long runs.
#[derive(Debug, Clone)]
pub struct RingSink {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    evicted: u64,
}

impl RingSink {
    /// A ring holding at most `capacity` events (at least 1).
    pub fn new(capacity: usize) -> Self {
        RingSink {
            buf: VecDeque::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            evicted: 0,
        }
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// The held events as an owned vector, oldest first.
    pub fn to_vec(&self) -> Vec<TraceEvent> {
        self.buf.iter().copied().collect()
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The ring's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted because the ring was full.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }
}

impl TraceSink for RingSink {
    fn emit(&mut self, event: &TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.evicted += 1;
        }
        self.buf.push_back(*event);
    }
}

/// One bounded ring of recent events shared by several writers, each
/// entry tagged with the writer it came from — the storage under every
/// [`crate::FlightRecorder`] of a farm.
///
/// Unlike [`RingSink`] it is a handle: a clone writes into the same
/// slab. The slab is preallocated and overwritten at a cursor, with the
/// tags in a parallel array (a `(u32, TraceEvent)` pair would pad each
/// entry from 48 to 56 bytes), so N writers lay down one sequential
/// stream instead of N interleaved ones.
#[derive(Clone)]
pub struct FlightRing(Rc<RefCell<Slab>>);

struct Slab {
    events: Vec<TraceEvent>,
    tags: Vec<u32>,
    /// Where the next entry goes; the newest one sits just before it.
    cursor: usize,
    capacity: usize,
    next_tag: Option<u32>,
}

impl Slab {
    /// Append while the slab is short of its capacity. Out of line: a
    /// ring fills once and is overwritten ever after, and `Vec::push`'s
    /// growth path inlined into every recorder's `emit` is what made the
    /// one-shard `deep` workload dearer than a private `VecDeque` ring.
    #[cold]
    fn extend(&mut self, tag: u32, event: &TraceEvent) {
        self.events.push(*event);
        self.tags.push(tag);
        self.cursor = self.events.len();
    }
}

impl FlightRing {
    /// An empty ring with no room yet: every [`FlightRing::attach`]
    /// brings its own.
    pub fn new() -> Self {
        FlightRing(Rc::new(RefCell::new(Slab {
            events: Vec::new(),
            tags: Vec::new(),
            cursor: 0,
            capacity: 0,
            next_tag: Some(0),
        })))
    }

    /// Admit one more writer: the ring grows by `retention` entries (at
    /// least 1) and hands out a tag no other writer has or will have.
    /// `None`, with nothing changed, once the tag space is used up.
    ///
    /// Growing never evicts or reorders: the slab extends the next time
    /// the cursor reaches its end, which is the one place new slots can
    /// go without breaking the newest-to-oldest order.
    pub fn attach(&self, retention: usize) -> Option<u32> {
        let slab = &mut *self.0.borrow_mut();
        let tag = slab.next_tag?;
        slab.next_tag = tag.checked_add(1);
        slab.capacity = slab.capacity.saturating_add(retention.max(1));
        // Preallocate while there is nothing to move, which covers the
        // writers a farm starts with. A ring in use grows by `Vec`'s
        // doubling instead: reserving here would copy the whole slab on
        // every attach (`AddShard` 198 -> 1383 us on `surge`).
        if slab.events.is_empty() {
            slab.events.reserve_exact(slab.capacity);
            slab.tags.reserve_exact(slab.capacity);
        }
        Some(tag)
    }

    /// Record `event` as written by `tag`, over the oldest entry when
    /// the ring is full: one event store and one tag store.
    #[inline]
    pub fn push(&self, tag: u32, event: &TraceEvent) {
        let slab = &mut *self.0.borrow_mut();
        let mut at = slab.cursor;
        if at == slab.events.len() {
            if at < slab.capacity {
                return slab.extend(tag, event);
            }
            at = 0;
        }
        slab.events[at] = *event;
        slab.tags[at] = tag;
        slab.cursor = at + 1;
    }

    /// The newest `limit` entries `tag` still has in the ring (fewer if
    /// it has fewer), oldest first.
    pub fn newest(&self, tag: u32, limit: usize) -> Vec<TraceEvent> {
        let slab = self.0.borrow();
        let newest_first = (0..slab.cursor)
            .rev()
            .chain((slab.cursor..slab.events.len()).rev());
        let mut out: Vec<TraceEvent> = newest_first
            .filter(|&i| slab.tags[i] == tag)
            .take(limit)
            .map(|i| slab.events[i])
            .collect();
        out.reverse();
        out
    }

    /// Entries currently held, all writers together.
    pub fn len(&self) -> usize {
        self.0.borrow().events.len()
    }

    /// `true` when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sum of the attached writers' retentions.
    pub fn capacity(&self) -> usize {
        self.0.borrow().capacity
    }
}

impl Default for FlightRing {
    fn default() -> Self {
        FlightRing::new()
    }
}

/// Sizes only: a recorder's `Debug` output must not print the whole
/// farm's events once per member.
impl std::fmt::Debug for FlightRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRing")
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .finish_non_exhaustive()
    }
}

/// A sink rendering every event as one JSON object per line (JSONL) into
/// any [`Write`] target.
///
/// # Panics
///
/// `emit` panics if the underlying writer fails — a trace explicitly
/// requested and then lost would silently invalidate an experiment.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    buf: String,
    lines: u64,
}

impl<W: Write> JsonlSink<W> {
    /// Wrap a writer. Buffer the writer yourself (`BufWriter`) when it is
    /// a raw file: one write call is issued per event.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            buf: String::with_capacity(160),
            lines: 0,
        }
    }

    /// Lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Flush and return the underlying writer.
    pub fn into_inner(mut self) -> W {
        self.writer.flush().expect("trace sink flush failed");
        self.writer
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn emit(&mut self, event: &TraceEvent) {
        self.buf.clear();
        event.write_json(&mut self.buf);
        self.buf.push('\n');
        self.writer
            .write_all(self.buf.as_bytes())
            .expect("trace sink write failed");
        self.lines += 1;
    }
}

/// A sink rendering events as CSV rows (header emitted before the first
/// row; see [`TraceEvent::write_csv`] for the column contract).
///
/// # Panics
///
/// `emit` panics if the underlying writer fails, like [`JsonlSink`].
#[derive(Debug)]
pub struct CsvSink<W: Write> {
    writer: W,
    buf: String,
    wrote_header: bool,
    rows: u64,
}

impl<W: Write> CsvSink<W> {
    /// Wrap a writer (buffer it yourself when it is a raw file).
    pub fn new(writer: W) -> Self {
        CsvSink {
            writer,
            buf: String::with_capacity(128),
            wrote_header: false,
            rows: 0,
        }
    }

    /// Data rows written so far (the header is not counted).
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Flush and return the underlying writer.
    pub fn into_inner(mut self) -> W {
        self.writer.flush().expect("trace sink flush failed");
        self.writer
    }
}

impl<W: Write> TraceSink for CsvSink<W> {
    fn emit(&mut self, event: &TraceEvent) {
        self.buf.clear();
        if !self.wrote_header {
            self.buf.push_str(TraceEvent::csv_header());
            self.buf.push('\n');
            self.wrote_header = true;
        }
        event.write_csv(&mut self.buf);
        self.buf.push('\n');
        self.writer
            .write_all(self.buf.as_bytes())
            .expect("trace sink write failed");
        self.rows += 1;
    }
}

/// A sink duplicating every event into two sinks (e.g. a
/// [`crate::Snapshot`] for aggregates plus a [`JsonlSink`] for the raw
/// timeline).
#[derive(Debug, Clone, Default)]
pub struct Tee<A, B>(pub A, pub B);

impl<A: TraceSink, B: TraceSink> Tee<A, B> {
    /// Combine two sinks.
    pub fn new(a: A, b: B) -> Self {
        Tee(a, b)
    }

    /// Split back into the two sinks.
    pub fn into_inner(self) -> (A, B) {
        (self.0, self.1)
    }
}

impl<A: TraceSink, B: TraceSink> TraceSink for Tee<A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn emit(&mut self, event: &TraceEvent) {
        if A::ENABLED {
            self.0.emit(event);
        }
        if B::ENABLED {
            self.1.emit(event);
        }
    }
}

/// A cloneable handle to one shared sink, so several instrumented layers
/// (the engine and a scheduler it drives, say) can interleave events into
/// a single stream. Single-threaded by design, like the simulator.
#[derive(Debug, Default)]
pub struct SharedSink<S>(Rc<RefCell<S>>);

impl<S> Clone for SharedSink<S> {
    fn clone(&self) -> Self {
        SharedSink(Rc::clone(&self.0))
    }
}

impl<S: TraceSink> SharedSink<S> {
    /// Wrap a sink for sharing.
    pub fn new(sink: S) -> Self {
        SharedSink(Rc::new(RefCell::new(sink)))
    }

    /// Run `f` against the shared sink (e.g. to read a
    /// [`crate::Snapshot`] mid-run).
    ///
    /// # Panics
    ///
    /// Panics if called from inside the sink's own `emit`.
    pub fn with<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.0.borrow_mut())
    }

    /// Recover the inner sink. Fails (returning `self`) while other
    /// handles are still alive.
    pub fn try_unwrap(self) -> Result<S, Self> {
        Rc::try_unwrap(self.0)
            .map(RefCell::into_inner)
            .map_err(SharedSink)
    }
}

impl<S: TraceSink> TraceSink for SharedSink<S> {
    const ENABLED: bool = S::ENABLED;

    fn emit(&mut self, event: &TraceEvent) {
        self.0.borrow_mut().emit(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn swap(t: u64) -> TraceEvent {
        TraceEvent::QueueSwap {
            now_us: t,
            batch: 1,
        }
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn null_sink_is_disabled() {
        assert!(!NullSink::ENABLED);
        assert!(RingSink::ENABLED);
        // Tee is enabled iff either side is.
        assert!(!<Tee<NullSink, NullSink>>::ENABLED);
        assert!(<Tee<NullSink, RingSink>>::ENABLED);
        NullSink.emit(&swap(0)); // and harmless to call anyway
    }

    #[test]
    fn ring_keeps_the_most_recent() {
        let mut ring = RingSink::new(3);
        for t in 0..5 {
            ring.emit(&swap(t));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.capacity(), 3);
        assert_eq!(ring.evicted(), 2);
        let times: Vec<u64> = ring.events().map(|e| e.now_us()).collect();
        assert_eq!(times, vec![2, 3, 4]);
        assert_eq!(ring.to_vec().len(), 3);
        assert!(!ring.is_empty());
    }

    #[test]
    fn ring_smaller_than_stream_keeps_exactly_the_last_cap_events() {
        // Regression guard for the wraparound boundary: drive a long
        // stream through small rings and require that each one holds
        // exactly its last `cap` events, oldest first, with every other
        // event counted as evicted — no off-by-one at the fill/evict
        // transition, no reordering across many wraps.
        for cap in [1usize, 2, 3, 7, 64] {
            let mut ring = RingSink::new(cap);
            let total = 1000u64;
            for t in 0..total {
                ring.emit(&swap(t));
                assert!(ring.len() <= cap, "cap {cap} exceeded at t={t}");
            }
            assert_eq!(ring.len(), cap);
            assert_eq!(ring.evicted(), total - cap as u64);
            let times: Vec<u64> = ring.events().map(|e| e.now_us()).collect();
            let expected: Vec<u64> = (total - cap as u64..total).collect();
            assert_eq!(times, expected, "cap {cap}");
        }
        // Zero capacity is clamped to one slot, never to an empty ring.
        let mut clamped = RingSink::new(0);
        clamped.emit(&swap(1));
        clamped.emit(&swap(2));
        assert_eq!(clamped.capacity(), 1);
        assert_eq!(clamped.to_vec()[0].now_us(), 2);
        assert_eq!(clamped.evicted(), 1);
    }

    #[test]
    fn flight_ring_refuses_a_writer_once_tags_run_out() {
        let ring = FlightRing::new();
        ring.0.borrow_mut().next_tag = Some(u32::MAX);
        assert_eq!(ring.attach(4), Some(u32::MAX));
        assert_eq!(ring.attach(4), None, "no wrap back to a tag in use");
        assert_eq!(ring.capacity(), 4, "a refused writer brings no room");
        ring.push(u32::MAX, &swap(1));
        assert_eq!(ring.newest(u32::MAX, 4).len(), 1);
        assert!(ring.newest(0, 4).is_empty());
    }

    #[test]
    fn jsonl_writes_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit(&swap(1));
        sink.emit(&swap(2));
        assert_eq!(sink.lines(), 2);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"event\":\"queue_swap\""));
    }

    #[test]
    fn csv_emits_header_once() {
        let mut sink = CsvSink::new(Vec::new());
        sink.emit(&swap(1));
        sink.emit(&swap(2));
        assert_eq!(sink.rows(), 2);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], TraceEvent::csv_header());
    }

    #[test]
    fn tee_duplicates() {
        let mut tee = Tee::new(RingSink::new(8), RingSink::new(8));
        tee.emit(&swap(7));
        let (a, b) = tee.into_inner();
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn shared_sink_interleaves_and_unwraps() {
        let shared = SharedSink::new(RingSink::new(8));
        let mut a = shared.clone();
        let mut b = shared.clone();
        a.emit(&swap(1));
        b.emit(&swap(2));
        assert_eq!(shared.with(|r| r.len()), 2);
        drop(a);
        drop(b);
        let ring = shared.try_unwrap().expect("all clones dropped");
        assert_eq!(ring.len(), 2);
    }

    #[test]
    fn shared_sink_unwrap_fails_while_shared() {
        let shared = SharedSink::new(RingSink::new(1));
        let other = shared.clone();
        assert!(shared.try_unwrap().is_err());
        drop(other);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn mutable_borrow_is_a_sink() {
        let mut ring = RingSink::new(4);
        let borrow = &mut ring;
        borrow.emit(&swap(3));
        assert_eq!(ring.len(), 1);
        assert!(<&mut RingSink>::ENABLED);
        assert!(!<&mut NullSink>::ENABLED);
    }
}
