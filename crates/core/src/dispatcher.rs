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
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Queue entry: the characterization value, the request id (the ordering
/// tie-break), and the request's arena slot. Requests themselves live once
/// in the dispatcher's arena; the heaps sift these 32-byte entries instead
/// of whole `Request` structs.
#[derive(Clone, Copy)]
struct Entry {
    v: u128,
    id: u64,
    /// Arena slot holding the request.
    slot: u32,
    /// Slot generation at insertion. A mismatch with the slot's current
    /// generation marks the entry *stale* (its request was shed); stale
    /// entries are skipped lazily instead of rebuilding the heap.
    gen: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.v == other.v && self.id == other.id
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    /// Max-heap order inverted: the *smallest* (v, id) is the maximum, so
    /// `BinaryHeap::pop` yields the highest-priority request.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.v, other.id).cmp(&(self.v, self.id))
    }
}

/// One arena slot: the request (while pending) and the slot's generation,
/// bumped every time the slot is vacated.
struct Slot {
    req: Option<Request>,
    gen: u32,
}

/// Borrow the request an entry points at, or `None` if the entry is stale.
#[inline]
fn live_req<'a>(slots: &'a [Slot], e: &Entry) -> Option<&'a Request> {
    let s = &slots[e.slot as usize];
    if s.gen != e.gen {
        return None;
    }
    s.req.as_ref()
}

/// The dispatcher. Generic over nothing: values are `u128`
/// characterization values produced by the encapsulator.
///
/// Requests are stored once, in a slab arena (`slots` + `free` list); the
/// queues hold `(v, id, slot)` entries. Shedding marks a slot stale instead
/// of rebuilding the owning heap, and `q_live`/`qw_live` track the live
/// entry counts the public accessors report.
pub struct Dispatcher {
    config: DispatchConfig,
    /// Active queue `q`.
    q: BinaryHeap<Entry>,
    /// Waiting queue `q'`.
    q_wait: BinaryHeap<Entry>,
    /// Request arena and its free list.
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Live (non-stale) entries in `q` and `q_wait`.
    q_live: usize,
    qw_live: usize,
    /// Stale entries still sitting in either heap. Staleness only arises
    /// when a shed vacates a queued victim's slot, so while this is zero
    /// (always, for unbounded queues) the pop path skips every
    /// generation check — each one is a random-access load into the
    /// arena, and they dominate dequeue cost when they miss cache.
    stale: usize,
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

impl Dispatcher {
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
            q: BinaryHeap::new(),
            q_wait: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            q_live: 0,
            qw_live: 0,
            stale: 0,
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
        self.q_live + self.qw_live
    }

    /// `true` when no requests are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Depths of the active and waiting queues, `(q, q')`. Load-aware
    /// routers read this to steer arrivals toward lightly loaded shards.
    pub fn queue_depths(&self) -> (usize, usize) {
        (self.q_live, self.qw_live)
    }

    /// Move a request into the arena, returning its slot and generation.
    fn alloc(&mut self, req: Request) -> (u32, u32) {
        if let Some(slot) = self.free.pop() {
            let s = &mut self.slots[slot as usize];
            s.req = Some(req);
            (slot, s.gen)
        } else {
            let slot = self.slots.len() as u32;
            self.slots.push(Slot {
                req: Some(req),
                gen: 0,
            });
            (slot, 0)
        }
    }

    /// Take the request out of a live slot, vacating it.
    fn take(&mut self, slot: u32) -> Request {
        let s = &mut self.slots[slot as usize];
        let req = s.req.take().expect("slot holds a live request");
        s.gen = s.gen.wrapping_add(1);
        self.free.push(slot);
        req
    }

    /// Vacate a shed victim's slot; its heap entry goes stale in place.
    fn vacate(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.req = None;
        s.gen = s.gen.wrapping_add(1);
        self.free.push(slot);
        self.stale += 1;
    }

    /// Pop stale entries off the heap top so `peek` sees a live entry.
    fn drop_stale_top(heap: &mut BinaryHeap<Entry>, slots: &[Slot], stale: &mut usize) {
        while let Some(e) = heap.peek() {
            if live_req(slots, e).is_some() {
                break;
            }
            heap.pop();
            *stale -= 1;
        }
    }

    /// (preemptions, SP promotions, queue swaps) since construction.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.preemptions, self.promotions, self.swaps)
    }

    /// Inherit another dispatcher's lifetime counters. A runtime retune
    /// rebuilds the dispatcher from scratch; carrying the counters over
    /// keeps shed/preemption ledgers (and the event-vs-counter
    /// reconciliation built on them) continuous across the swap.
    pub(crate) fn carry_counters_from(&mut self, old: &Dispatcher) {
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
    pub fn insert(&mut self, req: Request, v: u128) {
        self.insert_traced(req, v, 0, &mut NullSink);
    }

    /// [`Dispatcher::insert`], additionally reporting preemption and ER
    /// window events to `sink`, timestamped `now_us`. With
    /// [`obs::NullSink`] this compiles to exactly [`Dispatcher::insert`].
    pub fn insert_traced<S: TraceSink>(
        &mut self,
        req: Request,
        v: u128,
        now_us: u64,
        sink: &mut S,
    ) {
        // Bounded queue: a full dispatcher sheds the lowest-priority
        // pending request — possibly the arrival itself — before (or
        // instead of) inserting.
        if matches!(self.config.max_queue, Some(cap) if self.len() >= cap)
            && !self.shed_worst(v, req.id, now_us, sink)
        {
            return; // the arrival itself was the victim
        }
        let id = req.id;
        let (slot, gen) = self.alloc(req);
        let entry = Entry { v, id, slot, gen };
        match self.config.mode {
            PreemptionMode::Fully => {
                self.q.push(entry);
                self.q_live += 1;
            }
            PreemptionMode::NonPreemptive => {
                self.q_wait.push(entry);
                self.qw_live += 1;
            }
            PreemptionMode::Conditional { .. } => {
                let significantly_higher = match self.current {
                    // Idle disk: nothing to preempt, join the active queue.
                    None => true,
                    Some(cur) => v < cur.saturating_sub(self.window),
                };
                if significantly_higher {
                    if let Some(cur) = self.current {
                        self.preemptions += 1;
                        if S::ENABLED {
                            sink.emit(&TraceEvent::Preempt {
                                now_us,
                                preempted_v: cur,
                                by_v: v,
                            });
                        }
                        self.expand_window(now_us, sink);
                    }
                    self.q.push(entry);
                    self.q_live += 1;
                } else {
                    self.q_wait.push(entry);
                    self.qw_live += 1;
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
    pub fn pop(&mut self, refresh: Option<&mut dyn FnMut(&Request) -> u128>) -> Option<Request> {
        self.pop_traced(refresh, 0, &mut NullSink)
    }

    /// [`Dispatcher::pop`], additionally reporting queue-swap, ER-reset
    /// and SP-promotion events to `sink`, timestamped `now_us`. With
    /// [`obs::NullSink`] this compiles to exactly [`Dispatcher::pop`].
    pub fn pop_traced<S: TraceSink>(
        &mut self,
        mut refresh: Option<&mut dyn FnMut(&Request) -> u128>,
        now_us: u64,
        sink: &mut S,
    ) -> Option<Request> {
        // Swap empty active queue with the waiting queue.
        if self.q_live == 0 {
            if self.qw_live == 0 {
                // Fully drained: clear any stale residue so the heaps
                // don't accumulate dead entries across idle periods.
                self.q.clear();
                self.q_wait.clear();
                self.stale = 0;
                self.current = None;
                return None;
            }
            self.q.clear();
            std::mem::swap(&mut self.q, &mut self.q_wait);
            std::mem::swap(&mut self.q_live, &mut self.qw_live);
            self.swaps += 1;
            if S::ENABLED {
                sink.emit(&TraceEvent::QueueSwap {
                    now_us,
                    batch: self.q_live as u64,
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
            if self.config.refresh_on_swap {
                if let Some(f) = refresh.as_mut() {
                    let entries = std::mem::take(&mut self.q).into_vec();
                    let mut rebuilt = Vec::with_capacity(self.q_live);
                    for mut e in entries {
                        let Some(req) = live_req(&self.slots, &e) else {
                            self.stale -= 1; // dropped during the rebuild
                            continue;
                        };
                        e.v = f(req);
                        rebuilt.push(e);
                    }
                    self.q = rebuilt.into();
                }
            }
        }

        // SP: promote waiting requests that now significantly beat the
        // next candidate.
        if self.config.serve_promote && self.qw_live > 0 {
            loop {
                if self.stale > 0 {
                    Self::drop_stale_top(&mut self.q, &self.slots, &mut self.stale);
                    Self::drop_stale_top(&mut self.q_wait, &self.slots, &mut self.stale);
                }
                let next_v = self.q.peek().expect("q non-empty").v;
                let Some(wait_top) = self.q_wait.peek() else {
                    break;
                };
                if wait_top.v < next_v.saturating_sub(self.window) {
                    let e = self.q_wait.pop().expect("peeked");
                    self.qw_live -= 1;
                    self.promotions += 1;
                    if S::ENABLED {
                        sink.emit(&TraceEvent::SpPromote { now_us, v: e.v });
                    }
                    self.expand_window(now_us, sink);
                    self.q.push(e);
                    self.q_live += 1;
                } else {
                    break;
                }
            }
        }

        let entry = if self.stale == 0 {
            self.q.pop().expect("q has a live entry")
        } else {
            loop {
                let e = self.q.pop().expect("q has a live entry");
                if live_req(&self.slots, &e).is_some() {
                    break e;
                }
                self.stale -= 1;
            }
        };
        self.q_live -= 1;
        self.current = Some(entry.v);
        Some(self.take(entry.slot))
    }

    /// Visit every pending request.
    pub fn for_each_pending(&self, f: &mut dyn FnMut(&Request)) {
        for e in self.q.iter().chain(self.q_wait.iter()) {
            if let Some(r) = live_req(&self.slots, e) {
                f(r);
            }
        }
    }

    /// Overload victim selection: find the globally *worst* live pending
    /// request (largest `(v, id)` — SFC2's victim-selection order, ties
    /// broken against the newer request) across both queues and the
    /// incoming `(v, id)`. Returns `true` when a queued request was
    /// evicted to make room, `false` when the arrival itself is the
    /// victim. Eviction just vacates the victim's arena slot — its heap
    /// entry goes stale and is skipped lazily — so shedding is O(queue)
    /// scan with no heap rebuild.
    fn shed_worst<S: TraceSink>(&mut self, v: u128, id: u64, now_us: u64, sink: &mut S) -> bool {
        let worst_of = |h: &BinaryHeap<Entry>, slots: &[Slot]| {
            h.iter()
                .filter(|e| live_req(slots, e).is_some())
                .map(|e| (e.v, e.id, e.slot))
                .max_by_key(|&(v, id, _)| (v, id))
        };
        let worst_q = worst_of(&self.q, &self.slots);
        let worst_wait = worst_of(&self.q_wait, &self.slots);
        // On a cross-queue tie prefer the q victim (matches the historical
        // eviction order; ties cannot actually occur — ids are unique).
        let (victim, from_q) = match (worst_q, worst_wait) {
            (Some(a), Some(b)) => {
                if (a.0, a.1) >= (b.0, b.1) {
                    (Some(a), true)
                } else {
                    (Some(b), false)
                }
            }
            (Some(a), None) => (Some(a), true),
            (None, b) => (b, false),
        };
        self.sheds += 1;
        match victim {
            Some((wv, wid, wslot)) if (wv, wid) > (v, id) => {
                self.vacate(wslot);
                if from_q {
                    self.q_live -= 1;
                } else {
                    self.qw_live -= 1;
                }
                if S::ENABLED {
                    sink.emit(&TraceEvent::Shed {
                        now_us,
                        req: wid,
                        v: wv,
                    });
                }
                true
            }
            _ => {
                // The arrival is the worst of the lot: shed it unqueued.
                if S::ENABLED {
                    sink.emit(&TraceEvent::Shed { now_us, req: id, v });
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
        let mut d = Dispatcher::new(DispatchConfig::non_preemptive(), 1000);
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
        let mut d = Dispatcher::new(
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
        let d = Dispatcher::new(
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
        let mut d = Dispatcher::new(DispatchConfig::fully_preemptive().with_max_queue(3), 1000);
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
        let mut d = Dispatcher::new(DispatchConfig::fully_preemptive().with_max_queue(2), 1000);
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
        let mut d = Dispatcher::new(
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
