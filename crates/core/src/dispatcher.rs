//! Part 2 of the Cascaded-SFC scheduler: the dispatcher.
//!
//! Serves requests in characterization-value order under one of the three
//! regimes of §3.1, with the SP (§3.2) and ER (§3.3) refinements:
//!
//! * **Fully-preemptive** — one priority queue; every arrival competes at
//!   once. Low priorities can starve.
//! * **Non-preemptive** — arrivals collect in a waiting queue `q'` while
//!   the active queue `q` drains; when `q` empties the queues swap.
//!   Starvation-free, but high-priority arrivals wait a whole batch.
//! * **Conditionally-preemptive** — an arrival enters `q` directly (a
//!   *preemption*) only when its value beats the in-service request's
//!   value by more than the blocking window `w`; otherwise it waits in
//!   `q'`.
//!   * **SP** (Serve-and-Promote): before each dispatch, any waiting
//!     request that beats the next candidate by more than `w` is promoted
//!     into `q`, bounding the priority inversion the window causes.
//!   * **ER** (Expand-and-Reset): each preemption multiplies `w` by the
//!     expansion factor `e`; when `q` drains and the queues swap, `w`
//!     resets. A sustained burst of high-priority arrivals therefore
//!     drives the scheduler toward non-preemptive behaviour, which is
//!     starvation-free.

use crate::config::{DispatchConfig, PreemptionMode};
use obs::{NullSink, TraceEvent, TraceSink};
use sched::Request;

/// A characterization value the queues can hold: `u64` or `u128` (the
/// trait is not exported). The scheduler picks `u64` whenever every value
/// its encapsulator can emit fits, so each entry is 24 bytes instead of 32;
/// windows, the in-service value and every traced value stay `u128`
/// whichever width the entries use.
pub trait Key: Copy + Ord + Into<u128> {
    /// A value known to fit the width.
    fn from_wide(v: u128) -> Self;
}

impl Key for u64 {
    #[inline]
    fn from_wide(v: u128) -> u64 {
        debug_assert!(v <= u64::MAX as u128, "{v} does not fit a u64 key");
        v as u64
    }
}

impl Key for u128 {
    #[inline]
    fn from_wide(v: u128) -> u128 {
        v
    }
}

/// Queue entry: the characterization value, the request id (the ordering
/// tie-break), and the request's arena slot. Requests themselves live once
/// in the dispatcher's arena; the heaps sift these entries (24 bytes with a
/// `u64` value, 32 with a `u128`) instead of whole `Request` structs, and
/// every entry in a heap is live — a shed removes its victim's entry, so
/// nothing is ever skipped on the way out.
#[derive(Clone, Copy)]
struct Entry<V> {
    v: V,
    id: u64,
    /// Arena slot holding the request.
    slot: u32,
}

impl<V: Key> Entry<V> {
    /// Strict `(v, id)` order, written without short-circuits so the heap's
    /// child pick compiles to flag arithmetic instead of a branch the
    /// predictor cannot learn.
    #[inline]
    fn before(&self, other: &Entry<V>) -> bool {
        (self.v < other.v) | ((self.v == other.v) & (self.id < other.id))
    }
}

/// A binary min-heap of [`Entry`] by `(v, id)` that can also give up its
/// *largest* entry. `std::collections::BinaryHeap` has no remove-at, which
/// is what a shed needs; this one is the same array layout with the same
/// bottom-first `pop`, plus [`EntryHeap::max`] and
/// [`EntryHeap::remove_leaf`]. The maximum of a min-heap is always a leaf,
/// so finding it reads the back half of the array in order — no arena
/// loads — and removing it is one sift-up.
struct EntryHeap<V> {
    data: Vec<Entry<V>>,
}

impl<V> Default for EntryHeap<V> {
    fn default() -> Self {
        EntryHeap { data: Vec::new() }
    }
}

impl<V: Key> EntryHeap<V> {
    fn len(&self) -> usize {
        self.data.len()
    }

    fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The smallest entry.
    fn peek(&self) -> Option<&Entry<V>> {
        self.data.first()
    }

    fn iter(&self) -> std::slice::Iter<'_, Entry<V>> {
        self.data.iter()
    }

    fn push(&mut self, e: Entry<V>) {
        let pos = self.data.len();
        self.data.push(e);
        self.sift_up(pos, e);
    }

    /// Remove and return the smallest entry. Like std's heap, the hole at
    /// the root walks to the bottom along the smaller children without
    /// comparing against the displaced last element (which came from the
    /// bottom and almost always belongs there), then that element sifts up.
    fn pop(&mut self) -> Option<Entry<V>> {
        let last = self.data.pop()?;
        let Some(&top) = self.data.first() else {
            return Some(last);
        };
        let n = self.data.len();
        let mut pos = 0;
        let mut child = 1;
        while child + 1 < n {
            child += self.data[child + 1].before(&self.data[child]) as usize;
            self.data[pos] = self.data[child];
            pos = child;
            child = 2 * pos + 1;
        }
        if child + 1 == n {
            self.data[pos] = self.data[child];
            pos = child;
        }
        self.sift_up(pos, last);
        Some(top)
    }

    /// Position and copy of the largest entry: a scan of the leaves,
    /// `len() / 2` sequential entry reads.
    fn max(&self) -> Option<(usize, Entry<V>)> {
        let first_leaf = self.data.len() / 2;
        let mut leaves = self.data[first_leaf..].iter().enumerate();
        let (mut at, mut worst) = leaves.next()?;
        for (i, e) in leaves {
            if worst.before(e) {
                (at, worst) = (i, e);
            }
        }
        Some((first_leaf + at, *worst))
    }

    /// Remove the entry at leaf position `pos` (as [`EntryHeap::max`]
    /// reports it). The last element takes the vacated leaf; it has no
    /// children there, so it can only need to move up.
    fn remove_leaf(&mut self, pos: usize) {
        debug_assert!(2 * pos + 1 >= self.data.len(), "not a leaf");
        let last = self.data.pop().expect("a leaf exists");
        if pos < self.data.len() {
            self.sift_up(pos, last);
        }
    }

    /// Place `e` at `pos` or at the ancestor where the heap order holds,
    /// moving the ancestors it passes down one level.
    fn sift_up(&mut self, mut pos: usize, e: Entry<V>) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if !e.before(&self.data[parent]) {
                break;
            }
            self.data[pos] = self.data[parent];
            pos = parent;
        }
        self.data[pos] = e;
    }
}

/// The active queue `q`: the batch swapped in from `q'`, sorted once by
/// `(v, id)` and served from its front, plus a small [`EntryHeap`] for the
/// requests that join `q` mid-batch (a preemption, an SP promotion, an
/// arrival to an idle disk, every arrival of the fully-preemptive mode).
/// A pop takes the smaller of the two heads, so serving the batch costs
/// one O(n log n) sort at the swap instead of an O(log n) heap pop per
/// dispatch, and the order is the one a single heap would give.
struct ActiveQueue<V> {
    /// The swapped-in batch, ascending; `batch[head..]` is still pending.
    batch: Vec<Entry<V>>,
    head: usize,
    /// Entries that joined after the swap.
    joined: EntryHeap<V>,
}

impl<V> Default for ActiveQueue<V> {
    fn default() -> Self {
        ActiveQueue {
            batch: Vec::new(),
            head: 0,
            joined: EntryHeap::default(),
        }
    }
}

impl<V: Key> ActiveQueue<V> {
    fn len(&self) -> usize {
        self.batch.len() - self.head + self.joined.len()
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The smallest entry.
    fn peek(&self) -> Option<&Entry<V>> {
        match (self.batch.get(self.head), self.joined.peek()) {
            (Some(b), Some(j)) if j.before(b) => Some(j),
            (b, j) => b.or(j),
        }
    }

    fn iter(&self) -> impl Iterator<Item = &Entry<V>> {
        self.batch[self.head..].iter().chain(self.joined.iter())
    }

    /// Join mid-batch.
    fn push(&mut self, e: Entry<V>) {
        self.joined.push(e);
    }

    /// Remove and return the smallest entry.
    fn pop(&mut self) -> Option<Entry<V>> {
        match (self.batch.get(self.head), self.joined.peek()) {
            (Some(b), Some(j)) if j.before(b) => self.joined.pop(),
            (Some(&b), _) => {
                self.head += 1;
                Some(b)
            }
            (None, _) => self.joined.pop(),
        }
    }

    /// The batch's largest pending entry: its far end.
    fn batch_max(&self) -> Option<Entry<V>> {
        (self.head < self.batch.len()).then(|| self.batch[self.batch.len() - 1])
    }

    /// Drop the entry [`ActiveQueue::batch_max`] reports.
    fn remove_batch_max(&mut self) {
        debug_assert!(self.head < self.batch.len(), "the batch is drained");
        self.batch.pop();
    }

    /// Swap `waiting`'s entries in as the new batch: `rekey` may give them
    /// new values, then they are sorted once. The drained batch's buffer
    /// becomes `waiting`'s, so neither side allocates.
    fn swap_in(&mut self, waiting: &mut EntryHeap<V>, rekey: impl FnOnce(&mut [Entry<V>])) {
        debug_assert!(self.is_empty(), "swap with a non-empty active queue");
        self.batch.clear();
        std::mem::swap(&mut self.batch, &mut waiting.data);
        self.head = 0;
        rekey(&mut self.batch);
        self.batch.sort_unstable_by_key(|e| (e.v, e.id));
    }
}

/// Where a shed victim sits.
enum Victim {
    /// The far end of `q`'s batch.
    Batch,
    /// A leaf of `q`'s joined heap.
    Joined(usize),
    /// A leaf of `q'`.
    Waiting(usize),
}

/// The request a queued entry points at.
#[inline]
fn pending<'a, V>(slots: &'a [Option<Request>], e: &Entry<V>) -> &'a Request {
    slots[e.slot as usize]
        .as_ref()
        .expect("a queued entry's slot holds its request")
}

/// The dispatcher, over characterization values of width `V` (`u128`, or
/// `u64` when every value of the configuration fits it).
///
/// Requests are stored once, in a slab arena (`slots` + `free` list); the
/// queues hold `(v, id, slot)` entries, exactly one per pending request.
pub struct Dispatcher<V = u128> {
    config: DispatchConfig,
    /// Active queue `q`.
    q: ActiveQueue<V>,
    /// Waiting queue `q'`: a heap, because SP reads its minimum before
    /// every dispatch.
    q_wait: EntryHeap<V>,
    /// Request arena and its free list.
    slots: Vec<Option<Request>>,
    free: Vec<u32>,
    /// Base window in absolute value units.
    base_window: u128,
    /// Current (possibly ER-expanded) window.
    window: u128,
    /// Characterization value of the most recently dispatched request.
    current: Option<u128>,
    /// Counters for analysis.
    preemptions: u64,
    promotions: u64,
    swaps: u64,
    sheds: u64,
}

impl<V: Key> Dispatcher<V> {
    /// Build a dispatcher; `max_value` is the size of the scheduling space
    /// (used to resolve the fractional window of
    /// [`PreemptionMode::Conditional`]).
    pub fn new(config: DispatchConfig, max_value: u128) -> Self {
        let base_window = match config.mode {
            PreemptionMode::Conditional { window } => {
                let w = window.clamp(0.0, 1.0);
                // max_value can exceed f64 precision; scale via integer
                // arithmetic on a per-mille basis.
                let permille = (w * 1000.0).round() as u128;
                max_value / 1000 * permille + (max_value % 1000) * permille / 1000
            }
            _ => 0,
        };
        Dispatcher {
            config,
            q: ActiveQueue::default(),
            q_wait: EntryHeap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            base_window,
            window: base_window,
            current: None,
            preemptions: 0,
            promotions: 0,
            swaps: 0,
            sheds: 0,
        }
    }

    /// Number of pending requests.
    pub fn len(&self) -> usize {
        self.q.len() + self.q_wait.len()
    }

    /// `true` when no requests are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Depths of the active and waiting queues, `(q, q')`. Load-aware
    /// routers read this to steer arrivals toward lightly loaded shards.
    pub fn queue_depths(&self) -> (usize, usize) {
        (self.q.len(), self.q_wait.len())
    }

    /// Entries held: arena slots (vacant ones included), the free list,
    /// and both queues. The arena only grows to the deepest backlog the
    /// dispatcher has held, so under a bounded queue this is bounded
    /// however much traffic has passed through.
    pub fn state_len(&self) -> usize {
        self.slots.len() + self.free.len() + self.len()
    }

    /// Move a request into the arena, returning its slot.
    fn alloc(&mut self, req: Request) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = Some(req);
            slot
        } else {
            self.slots.push(Some(req));
            (self.slots.len() - 1) as u32
        }
    }

    /// Take the request out of a slot, vacating it.
    fn take(&mut self, slot: u32) -> Request {
        self.free.push(slot);
        self.slots[slot as usize]
            .take()
            .expect("a queued entry's slot holds its request")
    }

    /// (preemptions, SP promotions, queue swaps) since construction.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.preemptions, self.promotions, self.swaps)
    }

    /// Inherit another dispatcher's lifetime counters. A runtime retune
    /// rebuilds the dispatcher from scratch; carrying the counters over
    /// keeps shed/preemption ledgers (and the event-vs-counter
    /// reconciliation built on them) continuous across the swap.
    pub(crate) fn carry_counters_from<W>(&mut self, old: &Dispatcher<W>) {
        self.preemptions = old.preemptions;
        self.promotions = old.promotions;
        self.swaps = old.swaps;
        self.sheds = old.sheds;
    }

    /// Requests shed by the bounded queue since construction.
    pub fn sheds(&self) -> u64 {
        self.sheds
    }

    /// The current (possibly ER-expanded) blocking window.
    pub fn current_window(&self) -> u128 {
        self.window
    }

    /// Insert an arriving request with characterization value `v`.
    pub fn insert(&mut self, req: Request, v: V) {
        self.insert_traced(req, v, 0, &mut NullSink);
    }

    /// [`Dispatcher::insert`], additionally reporting preemption and ER
    /// window events to `sink`, timestamped `now_us`. With
    /// [`obs::NullSink`] this compiles to exactly [`Dispatcher::insert`].
    pub fn insert_traced<S: TraceSink>(&mut self, req: Request, v: V, now_us: u64, sink: &mut S) {
        // Bounded queue: a full dispatcher sheds the lowest-priority
        // pending request — possibly the arrival itself — before (or
        // instead of) inserting.
        if matches!(self.config.max_queue, Some(cap) if self.len() >= cap)
            && !self.shed_worst(v, req.id, now_us, sink)
        {
            return; // the arrival itself was the victim
        }
        let id = req.id;
        let slot = self.alloc(req);
        let entry = Entry { v, id, slot };
        match self.config.mode {
            PreemptionMode::Fully => self.q.push(entry),
            PreemptionMode::NonPreemptive => self.q_wait.push(entry),
            PreemptionMode::Conditional { .. } => {
                let significantly_higher = match self.current {
                    // Idle disk: nothing to preempt, join the active queue.
                    None => true,
                    Some(cur) => v.into() < cur.saturating_sub(self.window),
                };
                if significantly_higher {
                    if let Some(cur) = self.current {
                        self.preemptions += 1;
                        if S::ENABLED {
                            sink.emit(&TraceEvent::Preempt {
                                now_us,
                                preempted_v: cur,
                                by_v: v.into(),
                            });
                        }
                        self.expand_window(now_us, sink);
                    }
                    self.q.push(entry);
                } else {
                    self.q_wait.push(entry);
                }
            }
        }
    }

    /// Dispatch the next request (the disk became idle).
    ///
    /// `refresh` (when configured via
    /// [`DispatchConfig::refresh_on_swap`]) recomputes characterization
    /// values for the whole waiting queue at the swap boundary,
    /// re-anchoring time-dependent coordinates.
    pub fn pop(&mut self, refresh: Option<&mut dyn FnMut(&Request) -> V>) -> Option<Request> {
        self.pop_traced(refresh, 0, &mut NullSink)
    }

    /// [`Dispatcher::pop`], additionally reporting queue-swap, ER-reset
    /// and SP-promotion events to `sink`, timestamped `now_us`. With
    /// [`obs::NullSink`] this compiles to exactly [`Dispatcher::pop`].
    pub fn pop_traced<S: TraceSink>(
        &mut self,
        mut refresh: Option<&mut dyn FnMut(&Request) -> V>,
        now_us: u64,
        sink: &mut S,
    ) -> Option<Request> {
        // Swap empty active queue with the waiting queue.
        if self.q.is_empty() {
            if self.q_wait.is_empty() {
                self.current = None;
                return None;
            }
            let slots = &self.slots;
            let rekey = refresh.as_mut().filter(|_| self.config.refresh_on_swap);
            self.q.swap_in(&mut self.q_wait, |batch| {
                if let Some(f) = rekey {
                    for e in batch {
                        e.v = f(pending(slots, e));
                    }
                }
            });
            self.swaps += 1;
            if S::ENABLED {
                sink.emit(&TraceEvent::QueueSwap {
                    now_us,
                    batch: self.q.len() as u64,
                });
            }
            // ER: the active queue turned over — reset the window.
            if S::ENABLED && self.config.expand_factor.is_some() && self.window != self.base_window
            {
                sink.emit(&TraceEvent::ErReset {
                    now_us,
                    window: self.base_window,
                });
            }
            self.window = self.base_window;
        }

        // SP: promote waiting requests that now significantly beat the
        // next candidate.
        if self.config.serve_promote {
            while let Some(wait_top) = self.q_wait.peek() {
                let next_v: u128 = self.q.peek().expect("q non-empty").v.into();
                if wait_top.v.into() >= next_v.saturating_sub(self.window) {
                    break;
                }
                let e = self.q_wait.pop().expect("peeked");
                self.promotions += 1;
                if S::ENABLED {
                    sink.emit(&TraceEvent::SpPromote {
                        now_us,
                        v: e.v.into(),
                    });
                }
                self.expand_window(now_us, sink);
                self.q.push(e);
            }
        }

        let entry = self.q.pop().expect("q non-empty");
        self.current = Some(entry.v.into());
        Some(self.take(entry.slot))
    }

    /// Visit every pending request.
    pub fn for_each_pending(&self, f: &mut dyn FnMut(&Request)) {
        for e in self.q.iter().chain(self.q_wait.iter()) {
            f(pending(&self.slots, e));
        }
    }

    /// Overload victim selection: find the globally *worst* pending
    /// request (largest `(v, id)` — SFC2's victim-selection order, ties
    /// broken against the newer request) across both queues and the
    /// incoming `(v, id)`. Returns `true` when a queued request was
    /// evicted to make room, `false` when the arrival itself is the
    /// victim. `q`'s batch is sorted, so its worst is its far end; each
    /// heap's worst is one of its leaves, so the search reads the back
    /// halves of two arrays and the eviction removes the victim's entry
    /// outright.
    fn shed_worst<S: TraceSink>(&mut self, v: V, id: u64, now_us: u64, sink: &mut S) -> bool {
        // On a tie the earlier candidate wins, `q` before `q'` (ties cannot
        // actually occur — ids are unique).
        let victim = [
            self.q.batch_max().map(|e| (Victim::Batch, e)),
            self.q.joined.max().map(|(pos, e)| (Victim::Joined(pos), e)),
            self.q_wait.max().map(|(pos, e)| (Victim::Waiting(pos), e)),
        ]
        .into_iter()
        .flatten()
        .reduce(|a, b| if a.1.before(&b.1) { b } else { a });
        self.sheds += 1;
        let arrival = Entry { v, id, slot: 0 };
        match victim {
            Some((at, worst)) if arrival.before(&worst) => {
                match at {
                    Victim::Batch => self.q.remove_batch_max(),
                    Victim::Joined(pos) => self.q.joined.remove_leaf(pos),
                    Victim::Waiting(pos) => self.q_wait.remove_leaf(pos),
                }
                self.take(worst.slot);
                if S::ENABLED {
                    sink.emit(&TraceEvent::Shed {
                        now_us,
                        req: worst.id,
                        v: worst.v.into(),
                    });
                }
                true
            }
            _ => {
                // The arrival is the worst of the lot: shed it unqueued.
                if S::ENABLED {
                    sink.emit(&TraceEvent::Shed {
                        now_us,
                        req: id,
                        v: v.into(),
                    });
                }
                false
            }
        }
    }

    fn expand_window<S: TraceSink>(&mut self, now_us: u64, sink: &mut S) {
        if let Some(e) = self.config.expand_factor {
            // Windows live in the u128 value space; the float→u128 cast
            // saturates.
            let expanded = (self.window as f64 * e) as u128;
            self.window = expanded.max(self.window.saturating_add(1));
            if S::ENABLED {
                sink.emit(&TraceEvent::ErExpand {
                    now_us,
                    window: self.window,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched::{QosVector, Request};

    fn req(id: u64) -> Request {
        Request::read(id, 0, u64::MAX, 0, 512, QosVector::none())
    }

    fn fully() -> Dispatcher {
        Dispatcher::new(DispatchConfig::fully_preemptive(), 1000)
    }

    #[test]
    fn fully_preemptive_is_a_priority_queue() {
        let mut d = fully();
        d.insert(req(1), 50);
        d.insert(req(2), 10);
        d.insert(req(3), 99);
        assert_eq!(d.pop(None).unwrap().id, 2);
        d.insert(req(4), 5); // arrives mid-service, still competes
        assert_eq!(d.pop(None).unwrap().id, 4);
        assert_eq!(d.pop(None).unwrap().id, 1);
        assert_eq!(d.pop(None).unwrap().id, 3);
        assert!(d.pop(None).is_none());
    }

    #[test]
    fn non_preemptive_batches_by_swap() {
        let mut d: Dispatcher = Dispatcher::new(DispatchConfig::non_preemptive(), 1000);
        d.insert(req(1), 50);
        d.insert(req(2), 80);
        assert_eq!(d.pop(None).unwrap().id, 1); // swap happened
        d.insert(req(3), 1); // much higher priority, but must wait
        assert_eq!(d.pop(None).unwrap().id, 2);
        assert_eq!(d.pop(None).unwrap().id, 3);
    }

    fn conditional(window: f64, sp: bool, er: Option<f64>) -> Dispatcher {
        Dispatcher::new(
            DispatchConfig {
                mode: PreemptionMode::Conditional { window },
                serve_promote: sp,
                expand_factor: er,
                refresh_on_swap: false,
                max_queue: None,
            },
            1000,
        )
    }

    #[test]
    fn conditional_window_blocks_marginal_arrivals() {
        let mut d = conditional(0.1, false, None); // window = 100
        d.insert(req(1), 500);
        assert_eq!(d.pop(None).unwrap().id, 1); // current = 500
        d.insert(req(2), 450); // higher, but within the window
        d.insert(req(3), 350); // significantly higher: preempts
        assert_eq!(d.pop(None).unwrap().id, 3);
        assert_eq!(d.pop(None).unwrap().id, 2);
        assert_eq!(d.counters().0, 1); // one preemption
    }

    #[test]
    fn paper_example_figure4() {
        // Requests T1..T7 with priorities as in Figure 4; the published
        // service order is T1, T2, T5, T6, T3, T7, T4.
        // Priority line (lower = higher priority): T5 < T6 < T2 < T3 < T7
        // < T1 < T4, with T2, T3 within the window of T1, and T6 outside
        // the window of T3, T7 outside the window of T4.
        let w = 0.2; // window = 200 of 1000
        let mut d = conditional(w, true, None);
        let v = |id: u64| match id {
            1 => 600u128,
            2 => 450,
            3 => 500,
            4 => 800,
            5 => 100,
            6 => 250,
            7 => 400,
            _ => unreachable!(),
        };
        // T1 arrives on an idle disk and is served immediately.
        d.insert(req(1), v(1));
        assert_eq!(d.pop(None).unwrap().id, 1);
        // T2, T3, T4 arrive during T1's service; none beats 600-200.
        for id in [2, 3, 4] {
            d.insert(req(id), v(id));
        }
        // T1 done: swap, serve T2 (highest in the batch).
        assert_eq!(d.pop(None).unwrap().id, 2);
        // T5, T6, T7 arrive during T2; only T5 < 450-200 preempts.
        for id in [5, 6, 7] {
            d.insert(req(id), v(id));
        }
        assert_eq!(d.pop(None).unwrap().id, 5);
        // Before serving T3, SP promotes T6 (250 < 500-200).
        assert_eq!(d.pop(None).unwrap().id, 6);
        assert_eq!(d.pop(None).unwrap().id, 3);
        // Before serving T4, SP promotes T7 (400 < 800-200).
        assert_eq!(d.pop(None).unwrap().id, 7);
        assert_eq!(d.pop(None).unwrap().id, 4);
        assert!(d.pop(None).is_none());
    }

    #[test]
    fn er_expands_until_non_preemptive() {
        let mut d = conditional(0.05, false, Some(4.0)); // window 50, e=4
        d.insert(req(1), 900);
        assert_eq!(d.pop(None).unwrap().id, 1);
        // A stream of ever-higher priorities: each preemption expands w.
        d.insert(req(2), 700); // 700 < 900-50: preempts, w -> 200
        assert_eq!(d.pop(None).unwrap().id, 2); // current = 700
        d.insert(req(3), 480); // 480 < 700-200: preempts, w -> 800
        assert_eq!(d.pop(None).unwrap().id, 3); // current = 480
        d.insert(req(4), 1); // 1 > 480-800 (saturates to 0): blocked!
        assert_eq!(d.len(), 1);
        assert_eq!(d.counters().0, 2);
        // Queue drains, swap resets the window.
        assert_eq!(d.pop(None).unwrap().id, 4);
        assert_eq!(d.current_window(), d.base_window);
    }

    #[test]
    fn er_expands_windows_beyond_64_bits() {
        // A value space wider than u64 (e.g. a stage-1-only cascade of
        // 16 dims × 5 bits): the ER step must still multiply the window.
        let mut d: Dispatcher = Dispatcher::new(
            DispatchConfig {
                mode: PreemptionMode::Conditional { window: 0.1 },
                serve_promote: false,
                expand_factor: Some(2.0),
                refresh_on_swap: false,
                max_queue: None,
            },
            1 << 100,
        );
        let base = d.current_window();
        assert!(base > u64::MAX as u128);
        d.insert(req(1), 1 << 99);
        assert_eq!(d.pop(None).unwrap().id, 1);
        d.insert(req(2), 0); // beats 2^99 by more than the window: preempts
        assert_eq!(d.counters().0, 1);
        assert!(
            d.current_window() >= base * 2,
            "one preemption must at least double the window: {} -> {}",
            base,
            d.current_window()
        );
    }

    #[test]
    fn traced_events_reconcile_with_counters() {
        use obs::RingSink;
        let mut d = conditional(0.05, true, Some(4.0));
        let mut sink = RingSink::new(1024);
        let mut t = 0u64;
        // A descending-priority stream drives preemptions, promotions and
        // swaps; every counter increment must emit a matching event.
        let values = [900u128, 700, 480, 820, 10, 650, 5, 999, 300];
        for (i, &v) in values.iter().enumerate() {
            d.insert_traced(req(i as u64), v, t, &mut sink);
            t += 10;
            if i % 2 == 1 {
                let _ = d.pop_traced(None, t, &mut sink);
                t += 10;
            }
        }
        while d.pop_traced(None, t, &mut sink).is_some() {
            t += 10;
        }
        let (preempts, promotions, swaps) = d.counters();
        let count = |name: &str| sink.events().filter(|e| e.name() == name).count() as u64;
        assert_eq!(count("preempt"), preempts);
        assert_eq!(count("sp_promote"), promotions);
        assert_eq!(count("queue_swap"), swaps);
        assert!(preempts > 0 && swaps > 0, "workload too tame to test");
        // Each preemption/promotion expanded the window (e is set).
        assert_eq!(count("er_expand"), preempts + promotions);
        // Resets only happen at swaps after an expansion.
        assert!(count("er_reset") <= swaps);
    }

    #[test]
    fn untraced_and_traced_behave_identically() {
        let mut plain = conditional(0.1, true, Some(2.0));
        let mut traced = conditional(0.1, true, Some(2.0));
        let mut sink = obs::RingSink::new(256);
        let values = [500u128, 450, 350, 900, 20, 610];
        for (i, &v) in values.iter().enumerate() {
            plain.insert(req(i as u64), v);
            traced.insert_traced(req(i as u64), v, i as u64, &mut sink);
        }
        loop {
            let a = plain.pop(None);
            let b = traced.pop_traced(None, 0, &mut sink);
            assert_eq!(a.as_ref().map(|r| r.id), b.as_ref().map(|r| r.id));
            if a.is_none() {
                break;
            }
        }
        assert_eq!(plain.counters(), traced.counters());
    }

    #[test]
    fn window_fraction_resolution() {
        let d: Dispatcher = Dispatcher::new(
            DispatchConfig {
                mode: PreemptionMode::Conditional { window: 0.25 },
                serve_promote: false,
                expand_factor: None,
                refresh_on_swap: false,
                max_queue: None,
            },
            4000,
        );
        assert_eq!(d.current_window(), 1000);
    }

    #[test]
    fn bounded_queue_sheds_worst_victim() {
        let mut d: Dispatcher =
            Dispatcher::new(DispatchConfig::fully_preemptive().with_max_queue(3), 1000);
        d.insert(req(1), 50);
        d.insert(req(2), 900); // the eventual victim
        d.insert(req(3), 10);
        assert_eq!(d.len(), 3);
        // Queue full: a better arrival evicts the worst pending request.
        d.insert(req(4), 200);
        assert_eq!(d.len(), 3);
        assert_eq!(d.sheds(), 1);
        // A worse-than-everything arrival is itself the victim.
        d.insert(req(5), 999);
        assert_eq!(d.len(), 3);
        assert_eq!(d.sheds(), 2);
        // What remains is exactly the best three, in priority order.
        let order: Vec<u64> = std::iter::from_fn(|| d.pop(None).map(|r| r.id)).collect();
        assert_eq!(order, vec![3, 1, 4]);
    }

    #[test]
    fn shed_ties_evict_the_newer_request() {
        let mut d: Dispatcher =
            Dispatcher::new(DispatchConfig::fully_preemptive().with_max_queue(2), 1000);
        d.insert(req(1), 700);
        d.insert(req(2), 700);
        d.insert(req(3), 700); // same v: newest id loses
        assert_eq!(d.sheds(), 1);
        let order: Vec<u64> = std::iter::from_fn(|| d.pop(None).map(|r| r.id)).collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn shedding_spans_both_queues_of_the_conditional_mode() {
        use obs::RingSink;
        let mut d: Dispatcher = Dispatcher::new(
            DispatchConfig {
                mode: PreemptionMode::Conditional { window: 0.1 },
                serve_promote: false,
                expand_factor: None,
                refresh_on_swap: false,
                max_queue: Some(2),
            },
            1000,
        );
        let mut sink = RingSink::new(64);
        d.insert_traced(req(1), 500, 0, &mut sink);
        assert_eq!(d.pop_traced(None, 1, &mut sink).unwrap().id, 1);
        d.insert_traced(req(2), 300, 2, &mut sink); // preempts into q
        d.insert_traced(req(3), 800, 3, &mut sink); // waits in q'
                                                    // Full. A high-priority arrival evicts the q' victim (800).
        d.insert_traced(req(4), 100, 4, &mut sink);
        assert_eq!(d.len(), 2);
        assert_eq!(d.sheds(), 1);
        // The shed event names the victim.
        let shed: Vec<_> = sink
            .events()
            .filter(|e| e.name() == "shed")
            .map(|e| e.req())
            .collect();
        assert_eq!(shed, vec![Some(3)]);
        let order: Vec<u64> = std::iter::from_fn(|| d.pop(None).map(|r| r.id)).collect();
        assert_eq!(order, vec![4, 2]);
    }

    #[test]
    fn unbounded_queue_never_sheds() {
        let mut d = fully();
        for i in 0..1000 {
            d.insert(req(i), (i as u128) % 97);
        }
        assert_eq!(d.sheds(), 0);
        assert_eq!(d.len(), 1000);
    }

    /// A `u64` entry is 24 bytes, a `u128` one 32: what the width choice
    /// buys every sift.
    #[test]
    fn entry_sizes() {
        assert_eq!(std::mem::size_of::<Entry<u64>>(), 24);
        assert_eq!(std::mem::size_of::<Entry<u128>>(), 32);
    }

    /// Min-heap order at every parent/child pair.
    fn assert_heap<V: Key>(h: &EntryHeap<V>) {
        for (i, e) in h.data.iter().enumerate().skip(1) {
            let parent = &h.data[(i - 1) / 2];
            assert!(!e.before(parent), "entry {i} precedes its parent");
        }
    }

    /// The same `(v, id)` multiset drained from the front by `pop` and
    /// from the back by `max` + `remove_leaf` comes out sorted both ways,
    /// with the invariant intact after every removal — at both widths.
    #[test]
    fn heap_gives_up_both_ends_in_order() {
        heap_gives_up_both_ends_in_order_at::<u64>();
        heap_gives_up_both_ends_in_order_at::<u128>();
    }

    fn heap_gives_up_both_ends_in_order_at<V: Key>() {
        let n = 97u64;
        let inputs: [(&str, Vec<u128>); 4] = [
            ("all equal", vec![7; n as usize]),
            ("ascending", (0..n as u128).collect()),
            ("descending", (0..n as u128).rev().collect()),
            ("mixed", (0..n as u128).map(|i| i * 7919 % 31).collect()),
        ];
        for (name, values) in &inputs {
            let mut sorted: Vec<(u128, u64)> = values.iter().copied().zip(0..n).collect();
            sorted.sort_unstable();
            let build = || {
                let mut h = EntryHeap::default();
                for (id, &v) in values.iter().enumerate() {
                    h.push(Entry {
                        v: V::from_wide(v),
                        id: id as u64,
                        slot: 0,
                    });
                    assert_heap(&h);
                }
                h
            };
            let mut h = build();
            for want in &sorted {
                let e = h.pop().unwrap();
                assert_eq!((e.v.into(), e.id), *want, "{name}: pop");
                assert_heap(&h);
            }
            assert!(h.pop().is_none() && h.max().is_none());
            // From the back, alternating with pops from the front so
            // `remove_leaf` meets heaps of every shape.
            let mut h = build();
            let (mut lo, mut hi) = (0, sorted.len());
            while lo < hi {
                let (pos, worst) = h.max().unwrap();
                h.remove_leaf(pos);
                hi -= 1;
                assert_eq!((worst.v.into(), worst.id), sorted[hi], "{name}: max");
                assert_heap(&h);
                if hi % 3 == 0 && lo < hi {
                    let e = h.pop().unwrap();
                    assert_eq!((e.v.into(), e.id), sorted[lo], "{name}: pop between");
                    lo += 1;
                    assert_heap(&h);
                }
            }
            assert!(h.is_empty());
        }
    }

    /// The dispatcher's rules over two sorted `Vec`s: front = next to
    /// serve, back = shed victim.
    struct Model {
        cfg: DispatchConfig,
        q: Vec<(u128, u64)>,
        q_wait: Vec<(u128, u64)>,
        base_window: u128,
        window: u128,
        current: Option<u128>,
        sheds: u64,
        shed_log: Vec<(u64, u128)>,
    }

    fn insert_sorted(q: &mut Vec<(u128, u64)>, e: (u128, u64)) {
        let at = q.partition_point(|x| *x < e);
        q.insert(at, e);
    }

    impl Model {
        fn expand(&mut self) {
            if let Some(e) = self.cfg.expand_factor {
                self.window = ((self.window as f64 * e) as u128).max(self.window.saturating_add(1));
            }
        }

        fn insert(&mut self, id: u64, v: u128) {
            if matches!(self.cfg.max_queue, Some(cap) if self.q.len() + self.q_wait.len() >= cap) {
                self.sheds += 1;
                let from_q = match (self.q.last(), self.q_wait.last()) {
                    (Some(a), Some(b)) => a >= b,
                    (a, _) => a.is_some(),
                };
                let side = if from_q {
                    &mut self.q
                } else {
                    &mut self.q_wait
                };
                match side.last() {
                    Some(&worst) if worst > (v, id) => {
                        side.pop();
                        self.shed_log.push((worst.1, worst.0));
                    }
                    _ => {
                        self.shed_log.push((id, v));
                        return;
                    }
                }
            }
            let active = match self.cfg.mode {
                PreemptionMode::Fully => true,
                PreemptionMode::NonPreemptive => false,
                PreemptionMode::Conditional { .. } => match self.current {
                    None => true,
                    Some(cur) => {
                        let preempts = v < cur.saturating_sub(self.window);
                        if preempts {
                            self.expand();
                        }
                        preempts
                    }
                },
            };
            insert_sorted(
                if active {
                    &mut self.q
                } else {
                    &mut self.q_wait
                },
                (v, id),
            );
        }

        fn pop(&mut self, refresh: Option<fn(u64) -> u128>) -> Option<u64> {
            if self.q.is_empty() {
                if self.q_wait.is_empty() {
                    self.current = None;
                    return None;
                }
                std::mem::swap(&mut self.q, &mut self.q_wait);
                self.window = self.base_window;
                if let (true, Some(f)) = (self.cfg.refresh_on_swap, refresh) {
                    for e in &mut self.q {
                        e.0 = f(e.1);
                    }
                    self.q.sort_unstable();
                }
            }
            if self.cfg.serve_promote {
                while let Some(&top) = self.q_wait.first() {
                    if top.0 >= self.q[0].0.saturating_sub(self.window) {
                        break;
                    }
                    self.q_wait.remove(0);
                    self.expand();
                    insert_sorted(&mut self.q, top);
                }
            }
            let (v, id) = self.q.remove(0);
            self.current = Some(v);
            Some(id)
        }
    }

    /// Collects the `(req, v)` of every shed event, in order.
    struct ShedLog(Vec<(u64, u128)>);

    impl TraceSink for ShedLog {
        fn emit(&mut self, event: &TraceEvent) {
            if let TraceEvent::Shed { req, v, .. } = *event {
                self.0.push((req, v));
            }
        }
    }

    /// Random interleavings of inserts and pops, every regime, every cap:
    /// the dispatcher and the sorted-`Vec` model agree on pop order, on
    /// `(q, q')` depths after every call, on who is shed and in which
    /// order, and `for_each_pending` visits exactly the pending set — at
    /// both widths.
    #[test]
    fn dispatcher_matches_a_sorted_vec_model() {
        dispatcher_matches_a_sorted_vec_model_at::<u64>();
        dispatcher_matches_a_sorted_vec_model_at::<u128>();
    }

    fn dispatcher_matches_a_sorted_vec_model_at<V: Key>() {
        fn refreshed(id: u64) -> u128 {
            (id as u128).wrapping_mul(0x9e37_79b9) % 1000
        }
        let conditional = |sp: bool, er: Option<f64>, refresh: bool| DispatchConfig {
            mode: PreemptionMode::Conditional { window: 0.1 },
            serve_promote: sp,
            expand_factor: er,
            refresh_on_swap: refresh,
            max_queue: None,
        };
        let regimes = [
            DispatchConfig::fully_preemptive(),
            DispatchConfig::non_preemptive(),
            conditional(false, None, false),
            conditional(true, None, true),
            conditional(false, Some(2.0), true),
            conditional(true, Some(2.0), true),
        ];
        let mut seed = 0x5eed_u64;
        let mut next = move || {
            // splitmix64
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for base in regimes {
            for cap in [Some(1), Some(2), Some(16), None] {
                for with_refresh in [false, true] {
                    let cfg = DispatchConfig {
                        max_queue: cap,
                        ..base
                    };
                    let mut d = Dispatcher::<V>::new(cfg, 1000);
                    let mut m = Model {
                        cfg,
                        q: Vec::new(),
                        q_wait: Vec::new(),
                        base_window: d.base_window,
                        window: d.base_window,
                        current: None,
                        sheds: 0,
                        shed_log: Vec::new(),
                    };
                    let mut log = ShedLog(Vec::new());
                    let what = format!("{cfg:?} refresh={with_refresh}");
                    // Phases of mostly-insert and mostly-pop, so bounded
                    // queues fill and shed, and every queue drains dry.
                    for step in 0..1_500u64 {
                        let filling = (step / 100) % 2 == 0;
                        if next() % 10 < if filling { 7 } else { 3 } {
                            // Few distinct values, so ties on `v` are common.
                            let v = (next() % 40 * 25) as u128;
                            d.insert_traced(req(step), V::from_wide(v), step, &mut log);
                            m.insert(step, v);
                        } else {
                            let mut f = |r: &Request| V::from_wide(refreshed(r.id));
                            let got = d.pop_traced(
                                with_refresh.then_some(&mut f as &mut dyn FnMut(&Request) -> V),
                                step,
                                &mut log,
                            );
                            let want = m.pop(with_refresh.then_some(refreshed));
                            assert_eq!(got.map(|r| r.id), want, "{what}: pop at step {step}");
                        }
                        assert_eq!(
                            d.queue_depths(),
                            (m.q.len(), m.q_wait.len()),
                            "{what}: depths at step {step}"
                        );
                        assert_eq!(d.current_window(), m.window, "{what}: window at {step}");
                        if step % 16 == 0 {
                            let mut seen = Vec::new();
                            d.for_each_pending(&mut |r| seen.push(r.id));
                            assert_eq!(seen.len(), d.len());
                            seen.sort_unstable();
                            let mut pending: Vec<u64> =
                                m.q.iter().chain(&m.q_wait).map(|e| e.1).collect();
                            pending.sort_unstable();
                            assert_eq!(seen, pending, "{what}: pending set at step {step}");
                        }
                    }
                    assert_eq!(d.sheds(), m.sheds, "{what}");
                    assert_eq!(log.0, m.shed_log, "{what}");
                    assert_eq!(cap.is_some(), m.sheds > 0, "{what}: sheds {}", m.sheds);
                }
            }
        }
    }

    #[test]
    fn pending_iteration_covers_both_queues() {
        let mut d = conditional(0.0, false, None);
        d.insert(req(1), 10);
        assert_eq!(d.pop(None).unwrap().id, 1);
        d.insert(req(2), 5); // preempts into q (0 window, strictly higher)
        d.insert(req(3), 50); // waits
        let mut ids = Vec::new();
        d.for_each_pending(&mut |r| ids.push(r.id));
        ids.sort_unstable();
        assert_eq!(ids, vec![2, 3]);
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
    }
}
