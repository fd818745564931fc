//! Admission control for periodic streams — the question a video server
//! asks *before* the disk scheduler ever sees a request: does this
//! stream get a slot? [`StreamGate`] caps the concurrently active
//! streams, and the farm daemon asks it about every arrival.

/// The online admission gate: it enforces a stream count at ingest,
/// request by request, as the farm daemon sees arrivals. A stream
/// occupies a slot from its first admitted request until it has been
/// idle for `idle_timeout_us`; requests from streams beyond the capacity
/// are rejected at the door (never reaching a scheduler queue). Entirely
/// deterministic: the decision depends only on the arrival sequence,
/// never on wall-clock or iteration order.
///
/// The streams holding a slot form a **recency list**, least recently
/// seen first, in a slab of at most `max_streams` nodes, and an index
/// maps each one to its node. Arrivals come in time order, so a
/// refreshed stream, whose `last_seen` is now the latest, belongs at the
/// tail: a refresh moves its node there (or leaves it, if it is there
/// already). The list is therefore sorted by `last_seen`, hence by
/// expiry, and retirement pops from the head while the head has idled a
/// full timeout. Every request costs O(1) — one index probe, a few link
/// updates — whether it takes, refreshes or frees a slot, and nothing
/// grows with the traffic: the slab and the index stop growing once the
/// gate has held its peak number of streams.
#[derive(Debug, Clone)]
pub struct StreamGate {
    max_streams: u32,
    idle_timeout_us: u64,
    /// The recency list's nodes. A retired stream's node goes on the
    /// free list (linked through `next`) and is handed to the next
    /// stream to take a slot, so the slab never outgrows the cap.
    nodes: Vec<Node>,
    /// Least recently seen stream holding a slot, or [`NIL`].
    head: u32,
    /// Most recently seen stream holding a slot, or [`NIL`].
    tail: u32,
    /// First free node, or [`NIL`].
    free: u32,
    index: StreamIndex,
    /// The latest `admit` time. The recency order relies on it never
    /// decreasing.
    now_us: u64,
    rejections: u64,
}

/// No node: the end of the recency list or of the free list, an empty
/// index bucket.
const NIL: u32 = u32::MAX;

/// One stream holding a slot, linked into the recency list.
#[derive(Debug, Clone, Copy)]
struct Node {
    stream: u64,
    last_seen: u64,
    prev: u32,
    next: u32,
}

/// Stream id → recency-list node: open addressing with linear probing,
/// at most half full. A removal shifts the rest of its probe run back
/// (Knuth's Algorithm R), so there are no tombstones and churn never
/// forces a rehash; the table only doubles when the gate holds more
/// streams than ever before, so it is sized by `max_streams`, never by
/// traffic.
///
/// A stream id is hashed with one multiply by 2⁶⁴/φ, keeping the high
/// bits (Fibonacci hashing). Stream ids are dense integers the workload
/// generators hand out, not keys an adversary picks, and the table never
/// holds more than `max_streams` of them (a rejected stream is not
/// stored), so a keyed hash's collision resistance buys nothing here.
#[derive(Debug, Clone)]
struct StreamIndex {
    /// `(stream, node)`, `node == NIL` for an empty bucket. The length is
    /// a power of two.
    buckets: Vec<(u64, u32)>,
    /// `64 − log2(buckets.len())`: the hash keeps the product's top bits.
    shift: u32,
    len: usize,
}

impl StreamIndex {
    fn with_buckets(n: usize) -> Self {
        debug_assert!(n.is_power_of_two() && n >= 2);
        StreamIndex {
            buckets: vec![(0, NIL); n],
            shift: 64 - n.trailing_zeros(),
            len: 0,
        }
    }

    fn home(&self, stream: u64) -> usize {
        (stream.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// `Ok(bucket)` holding `stream`, or `Err(bucket)`, the empty one its
    /// probe run ends at.
    fn find(&self, stream: u64) -> Result<usize, usize> {
        let mask = self.buckets.len() - 1;
        let mut i = self.home(stream);
        loop {
            let (s, node) = self.buckets[i];
            if node == NIL {
                return Err(i);
            }
            if s == stream {
                return Ok(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// Map `stream`, absent, to `node`. `bucket` is where
    /// [`StreamIndex::find`] ended.
    fn insert(&mut self, mut bucket: usize, stream: u64, node: u32) {
        if 2 * (self.len + 1) > self.buckets.len() {
            let mut grown = StreamIndex::with_buckets(2 * self.buckets.len());
            for &(s, n) in self.buckets.iter().filter(|(_, n)| *n != NIL) {
                let Err(b) = grown.find(s) else {
                    unreachable!("a stream is indexed once");
                };
                grown.buckets[b] = (s, n);
            }
            grown.len = self.len;
            *self = grown;
            let Err(b) = self.find(stream) else {
                unreachable!("the stream is absent");
            };
            bucket = b;
        }
        self.buckets[bucket] = (stream, node);
        self.len += 1;
    }

    /// Unmap `stream`, which must be present, shifting back every later
    /// entry of its probe run that may move into the gap.
    fn remove(&mut self, stream: u64) {
        let Ok(mut hole) = self.find(stream) else {
            unreachable!("a retired stream is indexed");
        };
        let mask = self.buckets.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let (s, node) = self.buckets[i];
            if node == NIL {
                break;
            }
            // The entry may fill the hole iff its home is not after the
            // hole on its probe run: it is at least as far from its home
            // as from the hole.
            if (i.wrapping_sub(self.home(s)) & mask) >= (i.wrapping_sub(hole) & mask) {
                self.buckets[hole] = (s, node);
                hole = i;
            }
        }
        self.buckets[hole] = (0, NIL);
        self.len -= 1;
    }
}

impl StreamGate {
    /// A gate admitting at most `max_streams` concurrently active
    /// streams, where a stream stays active until idle for
    /// `idle_timeout_us`.
    pub fn new(max_streams: u32, idle_timeout_us: u64) -> Self {
        StreamGate {
            max_streams,
            idle_timeout_us,
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            free: NIL,
            index: StreamIndex::with_buckets(8),
            now_us: 0,
            rejections: 0,
        }
    }

    /// An unbounded gate: admits everything, tracks nothing.
    pub fn open() -> Self {
        StreamGate::new(u32::MAX, u64::MAX)
    }

    /// Decide a request from `stream` arriving at `now_us`. `true`
    /// admits (and occupies/refreshes the stream's slot); `false`
    /// rejects. Calls must come in non-decreasing `now_us` order — the
    /// daemon's arrival order.
    pub fn admit(&mut self, stream: u64, now_us: u64) -> bool {
        if self.max_streams == u32::MAX {
            return true; // open gate: admit without tracking
        }
        debug_assert!(
            now_us >= self.now_us,
            "admissions must come in time order: {now_us} after {}",
            self.now_us
        );
        self.now_us = now_us;
        // Retire streams idle past the timeout: the list is in `last_seen`
        // order, so they are a prefix of it.
        while self.head != NIL {
            let node = self.nodes[self.head as usize];
            if node.last_seen.saturating_add(self.idle_timeout_us) > now_us {
                break;
            }
            self.index.remove(node.stream);
            self.nodes[self.head as usize].next = self.free;
            self.free = self.head;
            self.head = node.next;
            match self.head {
                NIL => self.tail = NIL,
                h => self.nodes[h as usize].prev = NIL,
            }
        }
        match self.index.find(stream) {
            Ok(bucket) => {
                self.refresh(self.index.buckets[bucket].1, now_us);
                true
            }
            Err(_) if self.index.len as u64 >= u64::from(self.max_streams) => {
                self.rejections += 1;
                false
            }
            Err(bucket) => {
                let node = self.push_tail(stream, now_us);
                self.index.insert(bucket, stream, node);
                true
            }
        }
    }

    /// Stamp `node` with `now_us` and move it to the tail.
    fn refresh(&mut self, node: u32, now_us: u64) {
        let n = &mut self.nodes[node as usize];
        n.last_seen = now_us;
        if node == self.tail {
            return;
        }
        // Not the tail, so it has a successor, and the tail is another node.
        let (prev, next) = (n.prev, n.next);
        n.prev = self.tail;
        n.next = NIL;
        self.nodes[next as usize].prev = prev;
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        self.nodes[self.tail as usize].next = node;
        self.tail = node;
    }

    /// Link a node for `stream`, seen at `now_us`, at the tail: a free
    /// one if there is one, else a new one.
    fn push_tail(&mut self, stream: u64, now_us: u64) -> u32 {
        let fresh = Node {
            stream,
            last_seen: now_us,
            prev: self.tail,
            next: NIL,
        };
        let node = match self.free {
            NIL => {
                self.nodes.push(fresh);
                (self.nodes.len() - 1) as u32
            }
            f => {
                self.free = self.nodes[f as usize].next;
                self.nodes[f as usize] = fresh;
                f
            }
        };
        match self.tail {
            NIL => self.head = node,
            t => self.nodes[t as usize].next = node,
        }
        self.tail = node;
        node
    }

    /// Streams currently holding a slot.
    pub fn active_streams(&self) -> usize {
        self.index.len
    }

    /// Entries held: one list node and one index entry per stream holding
    /// a slot (see the type's docs), so never more than twice the cap.
    pub fn state_len(&self) -> usize {
        2 * self.index.len
    }

    /// Requests turned away so far.
    pub fn rejections(&self) -> u64 {
        self.rejections
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use std::fmt::Debug;

    /// The gate by definition: a list of `(stream, last_seen)` scanned end
    /// to end on every request.
    struct ScanGate {
        max_streams: u32,
        idle_timeout_us: u64,
        live: Vec<(u64, u64)>,
        rejections: u64,
    }

    impl ScanGate {
        fn admit(&mut self, stream: u64, now_us: u64) -> bool {
            let idle = self.idle_timeout_us;
            self.live
                .retain(|&(_, seen)| seen.saturating_add(idle) > now_us);
            if let Some(slot) = self.live.iter_mut().find(|(s, _)| *s == stream) {
                slot.1 = now_us;
                return true;
            }
            if self.live.len() as u64 >= self.max_streams as u64 {
                self.rejections += 1;
                return false;
            }
            self.live.push((stream, now_us));
            true
        }
    }

    /// Walk the recency list, checking its links and its `last_seen`
    /// order, and that every node is indexed under its own stream.
    /// Returns its length.
    fn list_len(gate: &StreamGate) -> usize {
        let (mut len, mut prev, mut node) = (0, NIL, gate.head);
        while node != NIL {
            let n = gate.nodes[node as usize];
            assert_eq!(n.prev, prev, "back link of node {node}");
            if prev != NIL {
                assert!(gate.nodes[prev as usize].last_seen <= n.last_seen, "order");
            }
            let indexed = gate.index.find(n.stream).map(|b| gate.index.buckets[b].1);
            assert_eq!(indexed, Ok(node), "index entry of stream {}", n.stream);
            (len, prev, node) = (len + 1, node, n.next);
        }
        assert_eq!(gate.tail, prev, "tail");
        len
    }

    /// One request through both gates: the decision, the slot count, the
    /// rejection count and one list node per index entry must agree.
    /// `at` is printed on failure.
    fn step_both(
        gate: &mut StreamGate,
        model: &mut ScanGate,
        stream: u64,
        now: u64,
        at: impl Debug,
    ) {
        assert_eq!(gate.admit(stream, now), model.admit(stream, now), "{at:?}");
        assert_eq!(gate.active_streams(), model.live.len(), "{at:?}");
        assert_eq!(gate.rejections(), model.rejections, "{at:?}");
        assert_eq!(list_len(gate), gate.index.len, "{at:?}");
    }

    #[test]
    fn gate_matches_a_linear_scan_model() {
        let mut seed = 0x5eed_u64;
        let mut next = move || {
            // splitmix64
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let scan_gate = |max_streams, idle_timeout_us| ScanGate {
            max_streams,
            idle_timeout_us,
            live: Vec::new(),
            rejections: 0,
        };
        let mut pairs = 0u64;
        for max_streams in [0u32, 1, 64] {
            for idle in [1u64, 1_000, u64::MAX] {
                // The second start runs into the end of time about three
                // quarters of the way through: expiries saturate, slots
                // are held across the last timeout, and `now` ends pinned
                // at u64::MAX — the only instant an infinite timeout
                // expires.
                for start in [0u64, u64::MAX - 400_000] {
                    let mut gate = StreamGate::new(max_streams, idle);
                    let mut model = scan_gate(max_streams, idle);
                    let mut now = start;
                    for step in 0..6_000u64 {
                        // Mostly a fiftieth of a timeout, so a hot stream
                        // refreshes many times per timeout; now and then
                        // several timeouts at once — but not across the
                        // last few, where slots held through a saturated
                        // expiry are the point.
                        let step_us = match next() % 100 {
                            0..=9 => 0,
                            10..=96 => next() % 40,
                            _ => next() % 5_000,
                        };
                        let to_end = u64::MAX - now;
                        now += step_us
                            .min(if to_end < 5_000 { 40 } else { u64::MAX })
                            .min(to_end);
                        // A few hot streams (more than one slot, fewer
                        // than 64) and a long tail of cold ones.
                        let stream = if next() % 4 != 0 {
                            next() % 6
                        } else {
                            1_000 + next() % 500
                        };
                        // (cap, idle, start, step, stream, now)
                        let at = (max_streams, idle, start, step, stream, now);
                        step_both(&mut gate, &mut model, stream, now, at);
                        pairs += 1;
                    }
                    assert_eq!(now == u64::MAX, start != 0);
                }
            }
        }
        assert!(pairs >= 100_000);

        // `surge`'s shape: 768 slots, a 5 s timeout, sessions of 2–4
        // requests about 50 ms apart, 200 new sessions a second for 20 s
        // and a crowd of 650 more a second from 1 s to 3 s. The crowd
        // fills the gate within two seconds, and from the first timeouts
        // on the base load alone keeps it full: slots are freed and taken
        // again all run long, and about two requests in five are turned
        // away.
        const CAP: u32 = 768;
        const IDLE: u64 = 5_000_000;
        type Sessions = BinaryHeap<Reverse<(u64, u64, u64)>>;
        let mut sessions = Sessions::new();
        let mut birth = |sessions: &mut Sessions, from: u64, to: u64, gap: u64| {
            let mut t = from;
            while t < to {
                // Dense ids, some with high bits set: the index hashes by
                // the top bits of a product.
                let stream = 10_000 + sessions.len() as u64 + next() % 4 * (1 << 32);
                sessions.push(Reverse((t, stream, 2 + next() % 3)));
                t += 1 + next() % (2 * gap);
            }
        };
        birth(&mut sessions, 0, 20_000_000, 5_000);
        birth(&mut sessions, 1_000_000, 3_000_000, 1_540);
        let mut gate = StreamGate::new(CAP, IDLE);
        let mut model = scan_gate(CAP, IDLE);
        let (mut requests, mut full_at, mut footprint) = (0u64, None, None);
        while let Some(Reverse((now, stream, left))) = sessions.pop() {
            // ("surge", request, stream, now)
            let at = ("surge", requests, stream, now);
            step_both(&mut gate, &mut model, stream, now, at);
            requests += 1;
            if gate.active_streams() == CAP as usize {
                full_at.get_or_insert(now);
            }
            // Once the first timeout has passed, the slab and the index
            // are at their final size: no allocation, no rehash.
            let held = (
                gate.nodes.len(),
                gate.nodes.capacity(),
                gate.index.buckets.len(),
            );
            if now >= IDLE {
                assert_eq!(held, *footprint.get_or_insert(held), "{at:?}");
            }
            if left > 1 {
                let then = now + 40_000 + next() % 20_000;
                sessions.push(Reverse((then, stream, left - 1)));
            }
        }
        assert!(
            full_at.is_some_and(|t| t < 2_000_000),
            "crowd filled the gate at {full_at:?}"
        );
        assert_eq!(footprint, Some((CAP as usize, 1024, 2048)));
        let rejected = gate.rejections() as f64 / requests as f64;
        assert!(
            requests > 15_000 && (0.3..0.6).contains(&rejected),
            "{requests} requests, {rejected} rejected"
        );
    }

    #[test]
    fn open_gate_admits_everything_statelessly() {
        let mut g = StreamGate::open();
        for s in 0..10_000u64 {
            assert!(g.admit(s, s));
        }
        assert_eq!(g.active_streams(), 0);
        assert_eq!(g.rejections(), 0);
    }
}
