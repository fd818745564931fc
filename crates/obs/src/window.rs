//! Rotating time-window aggregation: the live view of a run.
//!
//! A [`WindowedSnapshot`] partitions simulated time into fixed
//! power-of-two windows (`epoch = now_us >> window_log2`) and keeps one
//! [`Snapshot`] per window: the **current** window, the last
//! `depth - 1` **completed** windows (together the live range a control
//! plane watches), and a **retired** accumulator absorbing everything
//! older, so the cumulative view is never lost. Completed windows are
//! additionally queued as [`WindowDelta`]s — the streaming feed a
//! reporter drains at its own cadence.
//!
//! Two invariants hold bit-for-bit, by construction, and are enforced by
//! property tests:
//!
//! 1. retired + completed + current == the [`Snapshot`] a plain
//!    cumulative sink would have produced from the same event stream
//!    (when sampling is off), and
//! 2. the sum of every drained [`WindowDelta`] over a run (with a final
//!    [`WindowedSnapshot::flush`]) equals that same cumulative snapshot —
//!    window rotation never loses a count.
//!
//! The hot path is engineered for the telemetry overhead budget: one
//! shift + compare reaches the current window, counters stay exact, and
//! distribution samples can be decimated by a deterministic 1-in-2^k
//! stride ([`TelemetryConfig::sample_shift`]) — the same
//! counters-exact/histograms-sampled split production metric pipelines
//! use. A window boundary costs what the window holds: the window stays
//! in the box it was recorded into from rotation to drain, retiring it
//! adds only the buckets it filled ([`crate::Histogram::merge`]), and a
//! sink nobody drains reopens the boxes its coalescing empties instead
//! of allocating.

use crate::event::TraceEvent;
use crate::sink::TraceSink;
use crate::snapshot::{Counters, Snapshot};
use std::collections::VecDeque;

/// Default window width: 2²² µs ≈ 4.2 s of simulated time — coarse
/// enough that rotation cost amortizes over many events at the disk
/// request rates the paper models, fine enough to localize QoS shifts.
pub const DEFAULT_WINDOW_LOG2: u32 = 22;

/// Default live-range depth (current window + 7 completed).
pub const DEFAULT_DEPTH: usize = 8;

/// The live-plane default stride: 1-in-8 histogram samples.
pub const DEFAULT_SAMPLE_SHIFT: u32 = 3;

/// Cap on undrained [`WindowDelta`]s: beyond it the two oldest are
/// coalesced, so a sink nobody drains stays bounded while the delta-sum
/// invariant keeps holding. Four live ranges: a reader that drains at
/// least once per 32 completed windows only ever sees whole windows, and
/// a sink nobody reads holds 32 snapshots (~80 KB), not a thousand.
const PENDING_CAP: usize = 4 * DEFAULT_DEPTH;

/// One completed (or flushed) window, queued for a streaming reporter.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowDelta {
    /// The window's epoch (`start_us >> window_log2`).
    pub epoch: u64,
    /// Simulated time at which the window opened (µs).
    pub start_us: u64,
    /// Window width (µs).
    pub window_us: u64,
    /// `true` when the delta is not one whole completed window: the
    /// final window drained by [`WindowedSnapshot::flush`], or a
    /// coalesced pair evicted from an undrained queue.
    pub partial: bool,
    /// The window's aggregate.
    pub snapshot: Snapshot,
}

/// Shape of the live telemetry plane: window width, live-range depth
/// and histogram decimation.
///
/// The default is the **live** configuration the overhead gate measures:
/// 4.2 s windows, an 8-window live range, and histogram samples
/// decimated to a deterministic 1-in-8 stride (counters are always
/// exact). [`TelemetryConfig::exact`] turns decimation off for
/// verification runs where bit-for-bit equality with a plain
/// [`Snapshot`] sink is asserted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// log₂ of the window width in µs of simulated time.
    pub window_log2: u32,
    /// Live-range depth in windows (current window included).
    pub depth: usize,
    /// Histogram decimation: distribution samples are taken on a
    /// 1-in-`2^sample_shift` stride per event kind (0 = exact).
    pub sample_shift: u32,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            window_log2: DEFAULT_WINDOW_LOG2,
            depth: DEFAULT_DEPTH,
            sample_shift: DEFAULT_SAMPLE_SHIFT,
        }
    }
}

impl TelemetryConfig {
    /// The default shape with decimation off: every histogram sample is
    /// recorded, so the cumulative view is bit-for-bit a plain
    /// [`Snapshot`] sink's.
    pub fn exact() -> Self {
        TelemetryConfig {
            sample_shift: 0,
            ..TelemetryConfig::default()
        }
    }

    /// This shape with `2^window_log2` µs windows.
    pub fn window_log2(mut self, window_log2: u32) -> Self {
        self.window_log2 = window_log2;
        self
    }

    /// This shape with a `depth`-window live range.
    pub fn depth(mut self, depth: usize) -> Self {
        self.depth = depth;
        self
    }

    /// This shape with a 1-in-`2^shift` histogram stride.
    pub fn sample_shift(mut self, shift: u32) -> Self {
        self.sample_shift = shift;
        self
    }

    /// One recording sink of this shape, ready to hand to a shard
    /// timeline.
    pub fn sink(&self) -> WindowedSnapshot {
        WindowedSnapshot::new(self.window_log2, self.depth).with_sample_shift(self.sample_shift)
    }
}

/// One shard's drained window, tagged with its shard index — the unit
/// of the streaming telemetry feed.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardDelta {
    /// Shard index within the farm.
    pub shard: usize,
    /// The drained window.
    pub delta: WindowDelta,
}

/// A rotating-window live aggregate of one event stream (see the module
/// docs for the scheme and its invariants).
#[derive(Debug, Clone)]
pub struct WindowedSnapshot {
    window_log2: u32,
    depth: usize,
    sample_mask: u64,
    started: bool,
    cur_epoch: u64,
    /// The open window. A window lives in one box from its first event
    /// to its drain: rotation swaps this pointer for a spare, `recent`
    /// and `pending` hand the same box along.
    cur: Box<Snapshot>,
    /// Completed live windows, epoch-ascending, all within
    /// `(cur_epoch - depth, cur_epoch)`.
    recent: VecDeque<(u64, Box<Snapshot>)>,
    retired: Snapshot,
    /// Undrained completed windows as `(epoch, partial, aggregate)`,
    /// oldest first; [`WindowedSnapshot::take_deltas`] makes
    /// [`WindowDelta`]s of them.
    pending: VecDeque<(u64, bool, Box<Snapshot>)>,
    /// Cleared boxes of windows that were merged away (the second of a
    /// coalesced pending pair), for the next rotations to open; at most
    /// [`PENDING_CAP`] of them. A `Vec` of boxes on purpose: it is the
    /// box that moves on into `cur`.
    #[allow(clippy::vec_box)]
    spare: Vec<Box<Snapshot>>,
}

impl WindowedSnapshot {
    /// A windowed aggregate with `2^window_log2` µs windows and a live
    /// range of `depth` windows (both clamped to sane minimums), with
    /// exact histograms.
    pub fn new(window_log2: u32, depth: usize) -> Self {
        WindowedSnapshot {
            window_log2: window_log2.clamp(1, 63),
            depth: depth.max(1),
            sample_mask: 0,
            started: false,
            // Sentinel no real epoch can reach (epochs are
            // `now_us >> log2` with log2 >= 1): the hot path needs only
            // one compare to cover both "same window" and "started".
            cur_epoch: u64::MAX,
            cur: Box::default(),
            recent: VecDeque::new(),
            retired: Snapshot::new(),
            pending: VecDeque::new(),
            spare: Vec::new(),
        }
    }

    /// Decimate histogram samples to a deterministic 1-in-`2^shift`
    /// stride of each per-kind count. Counters are **always exact**;
    /// only distribution samples are thinned. Shift 0 restores exact
    /// histograms.
    pub fn with_sample_shift(mut self, shift: u32) -> Self {
        self.sample_mask = (1u64 << shift.min(63)) - 1;
        self
    }

    /// The window index `now_us` falls into.
    #[inline]
    pub fn epoch_of(&self, now_us: u64) -> u64 {
        now_us >> self.window_log2
    }

    /// The current window's epoch, once anything has been recorded.
    pub fn current_epoch(&self) -> Option<u64> {
        self.started.then_some(self.cur_epoch)
    }

    /// The current (still-open) window's aggregate.
    pub fn current(&self) -> &Snapshot {
        &self.cur
    }

    /// Live windows oldest-first: completed windows still in range, then
    /// the current window.
    pub fn windows(&self) -> impl Iterator<Item = (u64, &Snapshot)> {
        self.recent
            .iter()
            .map(|(e, s)| (*e, &**s))
            .chain(self.started.then_some((self.cur_epoch, &*self.cur)))
    }

    /// The exact cumulative aggregate: retired + every live window. With
    /// sampling off this is bit-for-bit the [`Snapshot`] a plain
    /// cumulative sink would have produced from the same stream.
    pub fn cumulative(&self) -> Snapshot {
        let mut out = self.retired.clone();
        for (_, s) in self.windows() {
            out.merge(s);
        }
        out
    }

    /// The counters of [`WindowedSnapshot::cumulative`] — always exact,
    /// sampled or not — without cloning and merging the histograms around
    /// them: what a flight-recorder dump and an end-of-run reconciliation
    /// read.
    pub fn cumulative_counters(&self) -> Counters {
        let mut out = self.retired.counters;
        for (_, s) in self.windows() {
            out.merge(&s.counters);
        }
        out
    }

    /// Windows held — completed ones in the live range plus undrained
    /// deltas. Bounded by the live depth and the pending cap however long
    /// the run; the current window and the retired aggregate are one
    /// snapshot each, always. Spare boxes are not windows and are not
    /// counted: they hold nothing, and there are never more of them
    /// than the pending cap.
    pub fn state_len(&self) -> usize {
        self.recent.len() + self.pending.len()
    }

    /// Drain the completed-window delta queue (oldest first). Draining
    /// at any cadence — every window, every N windows, or only at the
    /// end — yields the same totals.
    pub fn take_deltas(&mut self) -> Vec<WindowDelta> {
        let window_log2 = self.window_log2;
        self.pending
            .drain(..)
            .map(|(epoch, partial, snapshot)| WindowDelta {
                epoch,
                start_us: epoch << window_log2,
                window_us: 1u64 << window_log2,
                partial,
                snapshot: *snapshot,
            })
            .collect()
    }

    /// Close the books: retire every live window (current included),
    /// emitting each one as a delta, and drain the whole queue. The
    /// cumulative view is unchanged, the live range comes back empty,
    /// and the sum of every delta the sink ever produced now equals
    /// [`WindowedSnapshot::cumulative`]. Recording may continue
    /// afterwards; reopened windows simply yield further deltas.
    pub fn flush(&mut self) -> Vec<WindowDelta> {
        while let Some((epoch, snap)) = self.recent.pop_front() {
            self.retired.merge(&snap);
            self.push_delta(epoch, snap, false);
        }
        // Every histogram sample comes with a counted event, so zero
        // counters mean an empty window.
        if self.started && self.cur.counters != Counters::default() {
            let done = self.swap_cur();
            self.retired.merge(&done);
            self.push_delta(self.cur_epoch, done, true);
        }
        self.take_deltas()
    }

    /// Open an empty window as the current one and hand back the one it
    /// replaces.
    fn swap_cur(&mut self) -> Box<Snapshot> {
        let fresh = self.spare.pop().unwrap_or_default();
        std::mem::replace(&mut self.cur, fresh)
    }

    /// Keep the box of a window that was merged into another, emptied.
    fn recycle(&mut self, mut snap: Box<Snapshot>) {
        if self.spare.len() < PENDING_CAP {
            snap.clear();
            self.spare.push(snap);
        }
    }

    /// The oldest epoch still inside the live range.
    fn min_live_epoch(&self) -> u64 {
        self.cur_epoch.saturating_sub(self.depth as u64 - 1)
    }

    /// Move windows older than the live range into `retired` and onto
    /// the delta stream.
    fn retire_out_of_range(&mut self) {
        let min_keep = self.min_live_epoch();
        while let Some((e, _)) = self.recent.front() {
            if *e >= min_keep {
                break;
            }
            let (epoch, snap) = self.recent.pop_front().expect("front exists");
            self.retired.merge(&snap);
            self.push_delta(epoch, snap, false);
        }
    }

    fn push_delta(&mut self, epoch: u64, snapshot: Box<Snapshot>, partial: bool) {
        if self.pending.len() >= PENDING_CAP {
            let (_, _, second) = self.pending.remove(1).expect("cap is at least 2");
            let (_, coalesced, first) = &mut self.pending[0];
            first.merge(&second);
            *coalesced = true;
            self.recycle(second);
        }
        self.pending.push_back((epoch, partial, snapshot));
    }

    /// Out-of-line slow path: first event, window rotation, or an event
    /// older than the current window.
    #[cold]
    fn emit_slow(&mut self, epoch: u64, event: &TraceEvent) {
        if !self.started {
            self.started = true;
            self.cur_epoch = epoch;
            self.cur.emit_sampled(event, self.sample_mask);
            return;
        }
        if epoch > self.cur_epoch {
            // Rotate: the current window is complete, and newer than
            // every completed one.
            let done = self.swap_cur();
            self.recent.push_back((self.cur_epoch, done));
            self.cur_epoch = epoch;
            self.retire_out_of_range();
            self.cur.emit_sampled(event, self.sample_mask);
            return;
        }
        // A late event (the engine's batched delivery can replay stamps
        // slightly in the past). Attribute it to its own window when that
        // window is still live; fold it into the oldest live window
        // otherwise, so no count is ever lost from the delta stream.
        if epoch >= self.min_live_epoch() {
            let at = self.recent.partition_point(|(e, _)| *e < epoch);
            if self.recent.get(at).is_none_or(|(e, _)| *e != epoch) {
                let empty = self.spare.pop().unwrap_or_default();
                self.recent.insert(at, (epoch, empty));
            }
            self.recent[at].1.emit_sampled(event, self.sample_mask);
        } else {
            match self.recent.front_mut() {
                Some((_, s)) => s.emit_sampled(event, self.sample_mask),
                None => self.cur.emit_sampled(event, self.sample_mask),
            }
        }
    }
}

impl TraceSink for WindowedSnapshot {
    #[inline(always)]
    fn emit(&mut self, event: &TraceEvent) {
        let epoch = event.now_us() >> self.window_log2;
        if epoch == self.cur_epoch {
            self.cur.emit_sampled(event, self.sample_mask);
        } else {
            self.emit_slow(epoch, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(now_us: u64, response_us: u64) -> TraceEvent {
        TraceEvent::ServiceComplete {
            now_us,
            req: now_us,
            response_us,
            late: false,
        }
    }

    #[test]
    fn windows_rotate_and_retire() {
        // 16 µs windows, 3-window live range.
        let mut w = WindowedSnapshot::new(4, 3);
        for t in [0u64, 5, 17, 40, 70] {
            w.emit(&complete(t, 10));
        }
        // Epochs hit: 0, 0, 1, 2, 4 → live range (2, 4] = {2.., cur 4};
        // epochs 0 and 1 retired.
        assert_eq!(w.current_epoch(), Some(4));
        let live: Vec<u64> = w.windows().map(|(e, _)| e).collect();
        assert_eq!(live, vec![2, 4]);
        let live: u64 = w.windows().map(|(_, s)| s.counters.service_completes).sum();
        assert_eq!(live, 2);
        assert_eq!(w.cumulative().counters.service_completes, 5);
    }

    #[test]
    fn cumulative_matches_plain_snapshot_bit_for_bit() {
        let mut w = WindowedSnapshot::new(4, 2);
        let mut plain = Snapshot::new();
        let mut t = 0u64;
        let mut x = 7u64;
        for _ in 0..5_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            t += x % 37;
            let e = complete(t, x % 100_000);
            w.emit(&e);
            plain.emit(&e);
        }
        assert_eq!(w.cumulative(), plain);
        assert_eq!(w.cumulative_counters(), plain.counters);
    }

    #[test]
    fn deltas_sum_to_cumulative() {
        let mut w = WindowedSnapshot::new(6, 4);
        let mut drained = Snapshot::new();
        let mut t = 0u64;
        for i in 0..2_000u64 {
            t += 13 + (i % 29);
            w.emit(&complete(t, i));
            if i % 257 == 0 {
                for d in w.take_deltas() {
                    drained.merge(&d.snapshot);
                }
            }
        }
        for d in w.flush() {
            drained.merge(&d.snapshot);
        }
        assert_eq!(drained, w.cumulative());
    }

    #[test]
    fn late_events_stay_in_the_stream() {
        let mut w = WindowedSnapshot::new(4, 2);
        w.emit(&complete(100, 1)); // epoch 6
        w.emit(&complete(40, 1)); // epoch 2: older than the live range
        w.emit(&complete(85, 1)); // epoch 5: live, completed window
        assert_eq!(w.cumulative().counters.service_completes, 3);
        let mut drained = Snapshot::new();
        for d in w.flush() {
            drained.merge(&d.snapshot);
        }
        assert_eq!(drained.counters.service_completes, 3);
    }

    #[test]
    fn sampling_thins_histograms_but_not_counters() {
        let mut exact = WindowedSnapshot::new(8, 4);
        let mut thin = WindowedSnapshot::new(8, 4).with_sample_shift(3);
        for t in 0..1_000u64 {
            exact.emit(&complete(t * 3, 50));
            thin.emit(&complete(t * 3, 50));
        }
        assert_eq!(
            thin.cumulative().counters.service_completes,
            exact.cumulative().counters.service_completes
        );
        assert!(thin.cumulative().response_us.count() < exact.cumulative().response_us.count());
        assert!(thin.cumulative().response_us.count() > 0);
    }

    #[test]
    fn an_undrained_queue_coalesces_but_conserves_counts() {
        let mut w = WindowedSnapshot::new(2, 1);
        for t in 0..3 * PENDING_CAP as u64 {
            w.emit(&complete(t * 4, 1)); // one event per window
        }
        let deltas = w.flush();
        assert!(deltas.len() <= PENDING_CAP + 1, "{} deltas", deltas.len());
        assert!(deltas[0].partial, "the oldest delta absorbed the overflow");
        let mut drained = Snapshot::new();
        for d in &deltas {
            drained.merge(&d.snapshot);
        }
        assert_eq!(drained, w.cumulative());
    }

    #[test]
    fn a_drain_within_the_cap_sees_only_whole_windows() {
        // One event per 4 µs window. A control loop draining every few
        // windows (every window, the live controller's 1–5, and the cap
        // itself) must never be handed a coalesced delta: the only
        // partial one is the open window `flush` closes.
        for cadence in [1, 2, 5, PENDING_CAP as u64] {
            let mut w = TelemetryConfig::default().window_log2(2).sink();
            for window in 0..10 * PENDING_CAP as u64 {
                w.emit(&complete(window * 4, 1));
                if (window + 1) % cadence == 0 {
                    let deltas = w.take_deltas();
                    assert!(deltas.len() as u64 <= cadence);
                    assert!(deltas.iter().all(|d| !d.partial), "cadence {cadence}");
                }
            }
            let rest = w.flush();
            let partial: Vec<u64> = rest.iter().filter(|d| d.partial).map(|d| d.epoch).collect();
            assert_eq!(partial, [10 * PENDING_CAP as u64 - 1], "cadence {cadence}");
        }
        // One window past the cap between drains is where coalescing starts.
        let mut w = TelemetryConfig::default().window_log2(2).sink();
        for window in 0..(DEFAULT_DEPTH + PENDING_CAP) as u64 + 1 {
            w.emit(&complete(window * 4, 1));
        }
        let deltas = w.take_deltas();
        assert_eq!(deltas.len(), PENDING_CAP);
        assert!(deltas[0].partial && deltas[1..].iter().all(|d| !d.partial));
    }

    /// One event of every histogram-feeding kind (and one counter-only
    /// kind) by turns, with magnitudes spread over the bucket array so
    /// consecutive windows fill different bucket ranges.
    fn mixed(now_us: u64, x: u64) -> TraceEvent {
        let wide = x >> (x % 59);
        match x % 5 {
            0 => TraceEvent::Dispatch {
                now_us,
                req: x,
                cylinder: 7,
                queue_depth: wide % 4096,
                slack_us: (wide % 1_000_000) as i64 - 1000,
            },
            1 => TraceEvent::ServiceStart {
                now_us,
                req: x,
                cylinder: 7,
                seek_cylinders: wide as u32,
            },
            2 => complete(now_us, wide),
            3 => TraceEvent::StageSpan {
                now_us,
                stage: crate::Stage::ALL[(x >> 32) as usize % crate::Stage::COUNT],
                elapsed_ns: wide,
            },
            _ => TraceEvent::Arrival {
                now_us,
                req: x,
                cylinder: 7,
                deadline_us: now_us + 5,
            },
        }
    }

    /// Run `3 * PENDING_CAP + 8` windows of 16 µs through a depth-4 sink
    /// — every seventh epoch skipped, every fifth window followed by a
    /// late event two epochs back (which opens a slot for a skipped
    /// epoch) — draining every `drain_every` windows, and hold every
    /// delta, the cumulative view and the flush against one
    /// never-recycled [`Snapshot`] per epoch.
    fn check_against_fresh_snapshots(sample_shift: u32, drain_every: Option<u64>) {
        let what = format!("shift {sample_shift}, drained {drain_every:?}");
        let mask = (1u64 << sample_shift) - 1;
        let mut w = WindowedSnapshot::new(4, 4).with_sample_shift(sample_shift);
        let mut fresh: std::collections::BTreeMap<u64, Snapshot> = Default::default();
        let mut plain = Snapshot::new();
        let mut deltas: Vec<WindowDelta> = Vec::new();
        let mut recycled = false;
        let mut x = 20040330u64;
        for window in 0..3 * PENDING_CAP as u64 + 8 {
            let late = (window % 5 == 0 && window >= 2).then(|| (window - 2, 1));
            let own = (window % 7 != 3).then(|| (window, 3 + x % 20));
            for (epoch, n) in own.into_iter().chain(late) {
                for i in 0..n {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let event = mixed(epoch * 16 + i % 16, x >> 3);
                    w.emit(&event);
                    fresh.entry(epoch).or_default().emit_sampled(&event, mask);
                    plain.emit(&event);
                }
            }
            recycled |= !w.spare.is_empty();
            assert!(w.spare.len() <= PENDING_CAP, "{what}");
            if drain_every.is_some_and(|n| (window + 1) % n == 0) {
                deltas.extend(w.take_deltas());
            }
        }
        let mut whole = Snapshot::new();
        fresh.values().for_each(|s| whole.merge(s));
        if sample_shift == 0 {
            assert_eq!(whole, plain, "{what}");
        }
        assert_eq!(w.cumulative(), whole, "{what}");
        deltas.extend(w.flush());
        assert_eq!(w.cumulative(), whole, "{what}: a flush moves nothing");
        assert_eq!(w.state_len(), 0, "{what}");
        // Delta `i` is the windows from its epoch up to the next delta's:
        // one window, unless it is marked partial.
        for (i, d) in deltas.iter().enumerate() {
            let until = deltas.get(i + 1).map_or(u64::MAX, |next| next.epoch);
            assert!(d.epoch < until, "{what}: deltas come oldest first");
            let mut covered = Snapshot::new();
            let mut windows = 0;
            for (_, s) in fresh.range(d.epoch..until) {
                covered.merge(s);
                windows += 1;
            }
            assert_eq!(d.snapshot, covered, "{what}: delta {i}, epoch {}", d.epoch);
            assert_eq!((d.start_us, d.window_us), (d.epoch * 16, 16), "{what}");
            assert!(d.partial || windows == 1, "{what}: delta {i}");
        }
        match drain_every {
            None => {
                assert!(recycled, "an undrained queue coalesces, which recycles");
                assert!(
                    deltas[0].partial && deltas.len() <= PENDING_CAP + 4,
                    "{what}"
                );
            }
            Some(_) => {
                let partial = deltas.iter().filter(|d| d.partial).count();
                assert_eq!(partial, 1, "{what}: only the window the flush closed");
            }
        }
    }

    #[test]
    fn recycled_boxes_are_indistinguishable_from_fresh_ones() {
        for sample_shift in [0, 3] {
            for drain_every in [None, Some(1), Some(5)] {
                check_against_fresh_snapshots(sample_shift, drain_every);
            }
        }
    }

    #[test]
    fn exact_config_turns_decimation_off() {
        let mut exact = TelemetryConfig::exact().sink();
        let mut live = TelemetryConfig::default().sink();
        for t in 0..64u64 {
            exact.emit(&complete(t, 50));
            live.emit(&complete(t, 50));
        }
        assert_eq!(exact.cumulative().response_us.count(), 64);
        assert_eq!(
            live.cumulative().response_us.count(),
            64 >> DEFAULT_SAMPLE_SHIFT
        );
    }

    #[test]
    fn flush_then_continue_reopens_the_window() {
        let mut w = WindowedSnapshot::new(4, 2);
        w.emit(&complete(5, 1));
        let first = w.flush();
        assert_eq!(first.len(), 1);
        assert!(first[0].partial);
        w.emit(&complete(6, 1));
        let mut drained = Snapshot::new();
        for d in first.into_iter().chain(w.flush()) {
            drained.merge(&d.snapshot);
        }
        assert_eq!(drained, w.cumulative());
        assert_eq!(drained.counters.service_completes, 2);
    }
}
