//! Admission control for periodic streams — the question a video server
//! asks *before* the disk scheduler ever sees a request: how many
//! concurrent streams can this disk sustain without missing deadlines?
//!
//! The classic round-based bound (used by the PanaViss-era VoD
//! literature): with `n` streams fetching one block per period `T`, a
//! SCAN-family scheduler serves each round of `n` requests in at most
//!
//! ```text
//! t_round(n) = n · (t_transfer + t_rotation) + t_sweep(n)
//! ```
//!
//! where `t_sweep(n)` bounds the total seek time of one sweep over `n`
//! requests (a full stroke is split into at most `n + 1` sub-seeks, and
//! the concave seek curve makes equal splits the worst case). The stream
//! count is admissible when `t_round(n) ≤ T`.
//!
//! The bound is validated against the discrete-event simulator by the
//! VoD scenario tests: admitted loads must simulate loss-free.
//!
//! [`StreamGate`] enforces such a count at run time: the farm daemon asks
//! it about every arrival. Its state is one map entry and one expiry-heap
//! entry per stream *holding a slot* — a stream that keeps sending only
//! overwrites its `last_seen`, and the expiry entry is corrected when it
//! surfaces — so a request costs the same whether the stream has sent ten
//! requests within the idle timeout or ten thousand.

use diskmodel::{DiskGeometry, SeekModel};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Worst-case duration of one service round of `n` block requests under a
/// sweep-order scheduler, in milliseconds.
pub fn round_ms(geometry: &DiskGeometry, seek: &SeekModel, n: u32, block_bytes: u64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    // Worst-case transfer: the innermost (slowest) zone.
    let slow_cyl = geometry.cylinders() - 1;
    let transfer = geometry.transfer_ms(slow_cyl, block_bytes);
    // Full rotational latency per request (worst case).
    let rotation = geometry.revolution_ms();
    // One sweep over n requests: n+1 sub-seeks of at most stroke/(n+1)
    // cylinders each — the concave seek curve peaks at the equal split.
    let stroke = geometry.cylinders().saturating_sub(1);
    let sub = stroke.div_ceil(n + 1);
    let sweep = (n + 1) as f64 * seek.seek_ms(sub.max(1));
    n as f64 * (transfer + rotation) + sweep
}

/// Largest stream count `n` such that a round of `n` block fetches fits
/// within the streams' common period `period_ms`.
///
/// The bracket grows by doubling until it contains the answer, then a
/// binary search over the monotone round bound pins it down — no
/// arbitrary upper sentinel to saturate at silently.
///
/// # Panics
///
/// Panics if the bracket cannot be grown to contain the answer (more
/// than `u32::MAX / 2` streams fit the period) — that means the round
/// bound is not increasing for this geometry, which is a modeling bug,
/// not an admission decision.
pub fn max_streams(
    geometry: &DiskGeometry,
    seek: &SeekModel,
    block_bytes: u64,
    period_ms: f64,
) -> u32 {
    assert!(period_ms > 0.0 && period_ms.is_finite());
    let fits = |n: u32| round_ms(geometry, seek, n, block_bytes) <= period_ms;
    // Grow until `hi` no longer fits (so the answer is in [hi/2, hi)).
    let mut hi = 1u32;
    while fits(hi) {
        hi = hi.checked_mul(2).unwrap_or_else(|| {
            panic!(
                "max_streams bracket overflow: {hi} streams of {block_bytes} bytes \
                 still fit a {period_ms} ms period — the round bound is not \
                 increasing for this geometry"
            )
        });
    }
    let (mut lo, mut hi) = (hi / 2, hi - 1);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

/// Admission decision for MPEG-style streams of `bits_per_second`
/// fetching `block_bytes` blocks: the period is `block_bytes·8/rate`.
pub fn admissible_streams(
    geometry: &DiskGeometry,
    seek: &SeekModel,
    block_bytes: u64,
    bits_per_second: u64,
) -> u32 {
    let period_ms = block_bytes as f64 * 8.0 / bits_per_second as f64 * 1000.0;
    max_streams(geometry, seek, block_bytes, period_ms)
}

/// The *online* side of admission control: the offline bound above says
/// how many concurrent streams a disk sustains; this gate enforces that
/// number at ingest, request by request, as the farm daemon sees
/// arrivals. A stream occupies a slot from its first admitted request
/// until it has been idle for `idle_timeout_us`; requests from streams
/// beyond the capacity are rejected at the door (never reaching a
/// scheduler queue). Entirely deterministic: the decision depends only
/// on the arrival sequence, never on wall-clock or iteration order.
///
/// The bookkeeping grows with the streams holding a slot, not with the
/// traffic they send: a request from a stream that already holds a slot
/// is one map lookup and one store.
#[derive(Debug, Clone)]
pub struct StreamGate {
    max_streams: u32,
    idle_timeout_us: u64,
    last_seen: HashMap<u64, u64, BuildHasherDefault<StreamIdHasher>>,
    // Min-heap of (expiry, stream), exactly one entry per stream holding a
    // slot. A refresh does not touch it, so an entry's expiry is a lower
    // bound on its stream's true one; the true one is worked out from
    // `last_seen` when the entry surfaces.
    expiries: BinaryHeap<Reverse<(u64, u64)>>,
    rejections: u64,
}

/// Hashes a stream id with one multiply. Stream ids are dense integers
/// the workload generators hand out, not keys an adversary picks, and the
/// map never holds more than `max_streams` of them (a rejected stream is
/// not stored), so SipHash's collision resistance buys nothing here and
/// costs most of a lookup. Only `write_u64` is ever called: the map's
/// keys are `u64`.
#[derive(Debug, Default, Clone, Copy)]
struct StreamIdHasher(u64);

impl Hasher for StreamIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("stream ids are hashed through write_u64");
    }

    fn write_u64(&mut self, id: u64) {
        // The odd constant is 2^64 / φ; the product's high bits depend on
        // every bit of the id and the map indexes by the low bits, hence
        // the rotation.
        self.0 = id.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(32);
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
            last_seen: HashMap::default(),
            expiries: BinaryHeap::new(),
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
        // Retire streams idle past the timeout. An entry that surfaces
        // early — its stream refreshed since it was armed — goes back in
        // at the true expiry, which is in the future, so this terminates.
        while let Some(mut top) = self.expiries.peek_mut() {
            let Reverse((expiry, s)) = *top;
            if expiry > now_us {
                break;
            }
            let Entry::Occupied(seen) = self.last_seen.entry(s) else {
                unreachable!("an expiry entry's stream holds a slot");
            };
            let true_expiry = seen.get().saturating_add(self.idle_timeout_us);
            if true_expiry <= now_us {
                PeekMut::pop(top);
                seen.remove();
            } else {
                *top = Reverse((true_expiry, s));
            }
        }
        if let Some(seen) = self.last_seen.get_mut(&stream) {
            *seen = now_us;
            return true;
        }
        if self.last_seen.len() as u64 >= self.max_streams as u64 {
            self.rejections += 1;
            return false;
        }
        self.last_seen.insert(stream, now_us);
        self.expiries.push(Reverse((
            now_us.saturating_add(self.idle_timeout_us),
            stream,
        )));
        true
    }

    /// Streams currently holding a slot.
    pub fn active_streams(&self) -> usize {
        self.last_seen.len()
    }

    /// Entries held: one map entry and one expiry entry per stream
    /// holding a slot (see the type's docs), so never more than twice the
    /// cap.
    pub fn state_len(&self) -> usize {
        self.last_seen.len() + self.expiries.len()
    }

    /// Requests turned away so far.
    pub fn rejections(&self) -> u64 {
        self.rejections
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table1() -> (DiskGeometry, SeekModel) {
        (DiskGeometry::table1(), SeekModel::table1())
    }

    #[test]
    fn round_grows_linearly_in_n() {
        let (g, s) = table1();
        let r10 = round_ms(&g, &s, 10, 64 * 1024);
        let r20 = round_ms(&g, &s, 20, 64 * 1024);
        assert!(r20 > r10 * 1.5 && r20 < r10 * 2.5);
        assert_eq!(round_ms(&g, &s, 0, 64 * 1024), 0.0);
    }

    #[test]
    fn table1_admits_a_plausible_mpeg1_count() {
        // MPEG-1 at 1.5 Mb/s, 64-KB blocks, period ≈ 349.5 ms. With
        // ~21 ms worst-case per request (12.6 ms slow-zone transfer +
        // 8.3 ms rotation) plus sweep overhead, expect roughly 14-16
        // streams per member disk.
        let (g, s) = table1();
        let n = admissible_streams(&g, &s, 64 * 1024, 1_500_000);
        assert!(
            (10..20).contains(&n),
            "admitted {n} streams (round at n: {:.1} ms)",
            round_ms(&g, &s, n, 64 * 1024)
        );
        // The next stream would not fit.
        let period = 64.0 * 1024.0 * 8.0 / 1_500_000.0 * 1000.0;
        assert!(round_ms(&g, &s, n + 1, 64 * 1024) > period);
    }

    #[test]
    fn admitted_load_simulates_loss_free() {
        // The whole point of a worst-case bound: anything it admits must
        // survive the simulator under a SCAN-family scheduler, even with
        // deadlines of one period.
        use crate::{simulate, DiskService, SimOptions};
        use sched::{Batched, CScan};
        use workload::VodConfig;

        let (g, s) = table1();
        let n = admissible_streams(&g, &s, 64 * 1024, 1_500_000);
        let mut cfg = VodConfig::mpeg1(n);
        cfg.duration_us = 20_000_000;
        let trace = cfg.generate(3);
        let mut sched = Batched::new(CScan::new(), "batched-c-scan");
        let mut service = DiskService::table1();
        let m = simulate(
            &mut sched,
            &trace,
            &mut service,
            SimOptions::with_shape(1, 4).dropping(),
        );
        assert_eq!(
            m.losses_total(),
            0,
            "admission bound admitted a lossy load of {n} streams"
        );
    }

    #[test]
    fn modern_drive_admits_more_but_rotation_bound() {
        let n_old = admissible_streams(
            &DiskGeometry::table1(),
            &SeekModel::table1(),
            64 * 1024,
            1_500_000,
        );
        let n_new = admissible_streams(
            &DiskGeometry::modern(),
            &SeekModel::modern(),
            64 * 1024,
            1_500_000,
        );
        // Transfer and seek times collapsed over two decades, but the
        // worst-case rotation (still 7200 RPM) did not — it now dominates
        // the per-request bound, so the admitted count only roughly
        // doubles (13 → 28). A nice illustration of why the bound's
        // structure matters more than raw bandwidth.
        assert!(
            n_new > n_old * 3 / 2,
            "modern {n_new} vs table-1 {n_old} streams"
        );
    }

    #[test]
    fn huge_periods_are_not_silently_capped() {
        // The old implementation saturated at a hidden hi = 100_000
        // sentinel; the growing bracket must push well past it.
        let (g, s) = table1();
        let n = max_streams(&g, &s, 64 * 1024, 1.0e8);
        assert!(n > 100_000, "bracket stuck at the old sentinel: {n}");
        // And the answer is still tight: one more stream must not fit.
        assert!(round_ms(&g, &s, n, 64 * 1024) <= 1.0e8);
        assert!(round_ms(&g, &s, n + 1, 64 * 1024) > 1.0e8);
    }

    #[test]
    fn tiny_period_admits_zero() {
        let (g, s) = table1();
        assert_eq!(max_streams(&g, &s, 64 * 1024, 0.001), 0);
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_period() {
        max_streams(&DiskGeometry::table1(), &SeekModel::table1(), 65536, 0.0);
    }

    #[test]
    fn gate_caps_concurrent_streams() {
        let mut g = StreamGate::new(2, 1_000);
        assert!(g.admit(10, 0));
        assert!(g.admit(11, 10));
        // A third stream is over capacity; existing ones keep flowing.
        assert!(!g.admit(12, 20));
        assert!(g.admit(10, 30));
        assert_eq!(g.active_streams(), 2);
        assert_eq!(g.rejections(), 1);
    }

    #[test]
    fn gate_retires_idle_streams_at_the_timeout() {
        let mut g = StreamGate::new(1, 1_000);
        assert!(g.admit(1, 0));
        // Stream 2 is blocked until stream 1 has idled a full timeout —
        // the boundary instant itself retires it.
        assert!(!g.admit(2, 999));
        assert!(g.admit(2, 1_000));
        assert_eq!(g.active_streams(), 1);
    }

    #[test]
    fn gate_refresh_extends_the_slot() {
        let mut g = StreamGate::new(1, 1_000);
        assert!(g.admit(1, 0));
        assert!(g.admit(1, 900)); // refresh: idle clock restarts
        assert!(!g.admit(2, 1_500)); // 1 only idle 600 µs — still active
        assert!(g.admit(2, 1_900)); // now idle a full timeout
    }

    #[test]
    fn zero_stream_gate_rejects_everything() {
        // max_streams = 0 is a valid configuration (a quarantined
        // member): every request bounces, nothing ever holds a slot,
        // and the rejection ledger counts each one.
        let mut g = StreamGate::new(0, 1_000);
        for (i, (s, t)) in [(1u64, 0u64), (1, 500), (2, 2_000), (3, 9_999)]
            .into_iter()
            .enumerate()
        {
            assert!(!g.admit(s, t), "request {i} slipped through a 0-slot gate");
            assert_eq!(g.active_streams(), 0);
        }
        assert_eq!(g.rejections(), 4);
    }

    #[test]
    fn single_stream_slot_cycles_through_reclamation() {
        // One slot, many claimants: the slot must pass cleanly from
        // stream to stream across idle reclamations, with refreshes in
        // between leaving no stale expiry behind to evict the new
        // holder early.
        let mut g = StreamGate::new(1, 1_000);
        assert!(g.admit(1, 0));
        assert!(g.admit(1, 400)); // refresh leaves a stale expiry at 1_000
        assert!(!g.admit(2, 1_000)); // stale entry must not free the slot
        assert!(g.admit(2, 1_400)); // true expiry: slot reclaimed, handed over
        assert_eq!(g.active_streams(), 1);
        // The slot's new holder is subject to the same clock: stream 1
        // cannot barge back in before 2 idles out…
        assert!(!g.admit(1, 2_000));
        // …but reclaims its old slot once 2 has idled a full timeout.
        assert!(g.admit(1, 2_400));
        assert_eq!(g.active_streams(), 1);
        assert_eq!(g.rejections(), 2);
    }

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
                    let mut model = ScanGate {
                        max_streams,
                        idle_timeout_us: idle,
                        live: Vec::new(),
                        rejections: 0,
                    };
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
                        // (cap, idle, start, step, stream, now), printed on failure.
                        let at = (max_streams, idle, start, step, stream, now);
                        assert_eq!(gate.admit(stream, now), model.admit(stream, now), "{at:?}");
                        assert_eq!(gate.active_streams(), model.live.len(), "{at:?}");
                        assert_eq!(gate.rejections(), model.rejections, "{at:?}");
                        // One expiry entry per stream holding a slot,
                        // however often it refreshed.
                        assert_eq!(gate.expiries.len(), gate.last_seen.len(), "{at:?}");
                        pairs += 1;
                    }
                    assert_eq!(now == u64::MAX, start != 0);
                }
            }
        }
        assert!(pairs >= 100_000);
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
