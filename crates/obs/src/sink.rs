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
use crate::pack::{kept_whole, pack, slot_tag, unpack, SLOT};
use std::cell::RefCell;
use std::collections::VecDeque;
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
/// slab. The slab is preallocated and overwritten at a cursor, so N
/// writers lay down one sequential stream instead of N interleaved
/// ones. An entry is packed into one 24-byte slot — its kind, its tag
/// and its fields at widths fixed by their types (`crate::pack`) — and
/// a dump copies the slot out as it is ([`PackedEvents`]), so an entry
/// is unpacked only when a dump is read. An event with a value too wide
/// to pack is kept whole in a second array, one [`TraceEvent`] a slot,
/// which the slab allocates the first time it meets one; no benchmark
/// workload does.
#[derive(Clone)]
pub struct FlightRing(Rc<RefCell<Slab>>);

struct Slab {
    slots: Vec<[u8; SLOT]>,
    /// The events of the slots [`pack`] could not pack, by slot; empty
    /// until the first.
    whole: Vec<TraceEvent>,
    /// Where the next entry goes; the newest one sits just before it.
    cursor: usize,
    capacity: usize,
    next_tag: Option<u32>,
    /// Dumps taken by the attached recorders, all of them together.
    dumps_total: u64,
}

impl Slab {
    /// Pack `event` by `tag` into slot `at`.
    #[inline(always)]
    fn store(&mut self, at: usize, tag: u32, event: &TraceEvent) {
        if !pack(tag, event, &mut self.slots[at]) {
            self.keep_whole(at, event);
        }
    }

    /// Keep the event of slot `at` whole.
    #[cold]
    fn keep_whole(&mut self, at: usize, event: &TraceEvent) {
        self.whole.resize(self.slots.len(), *event);
        self.whole[at] = *event;
    }

    /// Append while the slab is short of its capacity. Out of line: a
    /// ring fills once and is overwritten ever after, and `Vec::push`'s
    /// growth path inlined into every recorder's `emit` is what made the
    /// one-shard `deep` workload dearer than a private `VecDeque` ring.
    #[cold]
    fn extend(&mut self, tag: u32, event: &TraceEvent) {
        self.slots.push([0; SLOT]);
        if !self.whole.is_empty() {
            self.whole.push(*event);
        }
        self.cursor = self.slots.len();
        self.store(self.cursor - 1, tag, event);
    }
}

impl FlightRing {
    /// An empty ring with no room: it keeps nothing until a
    /// [`FlightRing::attach`] brings some.
    pub fn new() -> Self {
        FlightRing::with_capacity(0)
    }

    /// An empty ring whose slab is allocated at once for `entries`
    /// entries, the retentions of the writers it starts with summed, so
    /// that attaching them moves nothing.
    pub fn with_capacity(entries: usize) -> Self {
        FlightRing(Rc::new(RefCell::new(Slab {
            slots: Vec::with_capacity(entries),
            whole: Vec::new(),
            cursor: 0,
            capacity: 0,
            next_tag: Some(0),
            dumps_total: 0,
        })))
    }

    /// Admit one more writer: the ring grows by `retention` entries (at
    /// least 1) and hands out a tag no other writer has or will have.
    /// `None`, with nothing changed, once the tag space is used up.
    ///
    /// Growing never evicts or reorders: the slab extends the next time
    /// the cursor reaches its end, which is the one place new slots can
    /// go without breaking the newest-to-oldest order. Past the room
    /// [`FlightRing::with_capacity`] allocated, it grows by `Vec`'s
    /// doubling; reserving exactly here would copy the whole slab on
    /// every attach to a ring in use (`AddShard` 198 -> 1383 us on
    /// `surge`).
    pub fn attach(&self, retention: usize) -> Option<u32> {
        let slab = &mut *self.0.borrow_mut();
        let tag = slab.next_tag?;
        slab.next_tag = tag.checked_add(1);
        slab.capacity = slab.capacity.saturating_add(retention.max(1));
        Some(tag)
    }

    /// Record `event` as written by `tag`, over the oldest entry when
    /// the ring is full.
    #[inline(always)]
    pub fn push(&self, tag: u32, event: &TraceEvent) {
        let slab = &mut *self.0.borrow_mut();
        let mut at = slab.cursor;
        if at == slab.slots.len() {
            if at < slab.capacity {
                return slab.extend(tag, event);
            }
            if at == 0 {
                // A ring with no room (a released recorder's) keeps nothing.
                return;
            }
            at = 0;
        }
        slab.store(at, tag, event);
        slab.cursor = at + 1;
    }

    /// The newest `limit` entries `tag` still has in the ring (fewer if
    /// it has fewer), oldest first, copied out as they are packed, in a
    /// vector of exactly their length.
    pub fn newest(&self, tag: u32, limit: usize) -> PackedEvents {
        let slab = self.0.borrow();
        let mine = || {
            let newest_first = (0..slab.cursor)
                .rev()
                .chain((slab.cursor..slab.slots.len()).rev());
            newest_first
                .filter(|&i| slot_tag(&slab.slots[i]) == tag)
                .take(limit)
        };
        let mut out = PackedEvents {
            slots: Vec::with_capacity(mine().count()),
            whole: Vec::new(),
        };
        for i in mine() {
            let slot = &slab.slots[i];
            if kept_whole(slot) {
                out.whole.push(slab.whole[i]);
            }
            out.slots.push(*slot);
        }
        out.slots.reverse();
        out.whole.reverse();
        out
    }

    /// Entries currently held, all writers together.
    pub fn len(&self) -> usize {
        self.0.borrow().slots.len()
    }

    /// `true` when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sum of the attached writers' retentions.
    pub fn capacity(&self) -> usize {
        self.0.borrow().capacity
    }

    /// Dumps taken by the recorders attached to this ring, forced ones
    /// included: the sum of their [`crate::FlightRecorder::dumps_total`].
    /// A reader that remembers it can tell, in one look, whether any
    /// recorder of the ring has dumped since.
    pub fn dumps_total(&self) -> u64 {
        self.0.borrow().dumps_total
    }

    /// Count one dump taken by a recorder of this ring.
    pub(crate) fn count_dump(&self) {
        self.0.borrow_mut().dumps_total += 1;
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

/// Events copied out of a [`FlightRing`] as the ring keeps them, one
/// 24-byte slot each, oldest first: what a [`crate::DumpRecord`] holds.
/// They are unpacked only when read ([`PackedEvents::iter`]).
#[derive(Clone, Default)]
pub struct PackedEvents {
    slots: Vec<[u8; SLOT]>,
    /// The events of the slots kept whole, in the slots' order.
    whole: Vec<TraceEvent>,
}

impl PackedEvents {
    /// Number of events held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The events, unpacked, oldest first.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = TraceEvent> + '_ {
        let mut whole = self.whole.iter();
        self.slots.iter().map(move |slot| {
            unpack(slot).unwrap_or_else(|| *whole.next().expect("an event for each wide slot"))
        })
    }

    /// The events, unpacked, as an owned vector, oldest first.
    pub fn to_vec(&self) -> Vec<TraceEvent> {
        self.iter().collect()
    }
}

/// Equal when the events are: a record may be shorter than its slot,
/// and the bytes after it are left over from whatever the ring held
/// there before.
impl PartialEq for PackedEvents {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for PackedEvents {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A sink duplicating every event into two sinks (e.g. a
/// [`crate::Snapshot`] for aggregates plus a [`RingSink`] for the recent
/// events).
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

    #[inline(always)]
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
    fn a_ring_returns_every_kind_at_its_extremes_bit_for_bit() {
        use crate::event::tests::{Extreme, GOLDEN};
        let nows = [0, (1 << 40) - 1, 1 << 40, u64::MAX];
        let extremes: Vec<TraceEvent> = (GOLDEN.iter())
            .flat_map(|(e, _)| {
                let kinds = move |now| (0..u64::EXTREMES).map(move |k| e.at_extreme(now, k));
                nows.into_iter().flat_map(kinds)
            })
            .collect();
        // Rings of a third of the extremes, on which laps of short entries
        // come first, so that the extremes, some too wide to pack, arrive
        // once the cursor wraps. One writer on a ring of its own, whose
        // first event kept whole overwrites a slot; then three on one
        // ring, their tags at both ends of the range, whose first such
        // event (any by tag `u32::MAX - 1`, too wide a tag to pack)
        // extends the slab.
        let cap = extremes.len() / 3;
        let events: Vec<TraceEvent> = (0..8 * cap as u64).map(swap).chain(extremes).collect();
        let private = FlightRing::with_capacity(cap);
        let mine = private.attach(cap).unwrap();
        let shared = FlightRing::with_capacity(cap);
        let mut tags = vec![shared.attach(cap / 3).unwrap()];
        shared.0.borrow_mut().next_tag = Some(u32::MAX - 1);
        tags.push(shared.attach(cap / 3).unwrap());
        tags.push(shared.attach(cap - cap / 3 * 2).unwrap());
        assert_eq!(tags, [0, u32::MAX - 1, u32::MAX]);
        for (ring, tags, overwriting) in [(private, vec![mine], true), (shared, tags, false)] {
            assert_eq!(ring.capacity(), cap);
            let mut first_whole = None;
            let mut pushed: Vec<(u32, TraceEvent)> = Vec::new();
            for (i, event) in events.iter().enumerate() {
                let tag = tags[i % tags.len()];
                let full = ring.len() == cap;
                ring.push(tag, event);
                pushed.push((tag, *event));
                if first_whole.is_none() && !ring.0.borrow().whole.is_empty() {
                    first_whole = Some(full);
                }
                assert_eq!(ring.len(), pushed.len().min(cap));
                let held = &pushed[pushed.len() - ring.len()..];
                for &tag in &tags {
                    let mine: Vec<TraceEvent> =
                        (held.iter()).filter(|p| p.0 == tag).map(|p| p.1).collect();
                    let what = format!("tag {tag}, event {i}");
                    assert_eq!(ring.newest(tag, usize::MAX).to_vec(), mine, "{what}");
                    let newest = ring.newest(tag, 5);
                    let tail = &mine[mine.len().saturating_sub(5)..];
                    assert_eq!(newest.to_vec(), tail, "{what}");
                    assert_eq!(newest.slots.capacity(), newest.len(), "{what}");
                }
            }
            assert_eq!(
                first_whole,
                Some(overwriting),
                "where an event is first kept whole"
            );
        }
    }

    #[test]
    fn packed_events_are_equal_when_their_events_are() {
        let start = TraceEvent::ServiceStart {
            now_us: 1,
            req: 2,
            cylinder: 3,
            seek_cylinders: 4,
            queue_depth: 5,
            slack_us: -6,
        };
        let (overwritten, fresh) = (FlightRing::new(), FlightRing::new());
        for ring in [&overwritten, &fresh] {
            assert_eq!(ring.attach(1), Some(0));
        }
        overwritten.push(0, &start);
        for ring in [&overwritten, &fresh] {
            ring.push(0, &swap(7));
        }
        let (a, b) = (overwritten.newest(0, 1), fresh.newest(0, 1));
        assert_ne!(a.slots, b.slots, "the longer record's tail is left over");
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{:?}", [swap(7)]));
        fresh.push(0, &swap(8));
        assert_ne!(a, fresh.newest(0, 1));
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
