//! Rotating time-window aggregation: the live view of a run.
//!
//! A [`WindowedSnapshot`] partitions simulated time into fixed
//! power-of-two windows (`epoch = now_us >> window_log2`) and keeps one
//! [`Snapshot`] per window: the **current** window, the last
//! `depth - 1` **completed** windows (together the live range a control
//! plane watches), and a **retired** accumulator absorbing everything
//! older, so the cumulative view is never lost. A window leaving the
//! live range is also merged into one undrained [`WindowDelta`] — the
//! streaming feed a reporter drains at its own cadence, handed over
//! whole when one window left since the last drain and marked partial
//! when several did.
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
//! sink nobody drains reopens the boxes its undrained delta absorbs
//! instead of allocating.

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

/// The windows that left a sink's live range since its last drain, for
/// a streaming reporter.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowDelta {
    /// The oldest window's epoch (`start_us >> window_log2`).
    pub epoch: u64,
    /// Simulated time at which the oldest window opened (µs).
    pub start_us: u64,
    /// Window width (µs).
    pub window_us: u64,
    /// `true` when the delta is not one whole completed window: several
    /// windows left the live range between two drains and are merged
    /// here, or [`WindowedSnapshot::flush`] closed the open window.
    pub partial: bool,
    /// The aggregate of every window the delta holds.
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
    /// The windows that left the live range since the last drain, merged
    /// into the box of the oldest, as `(oldest epoch, partial,
    /// aggregate)`; [`WindowedSnapshot::take_delta`] makes a
    /// [`WindowDelta`] of it.
    pending: Option<(u64, bool, Box<Snapshot>)>,
    /// Cleared boxes of windows merged into `pending`, for the next
    /// rotations to open; at most `depth` of them. A `Vec` of boxes on
    /// purpose: it is the box that moves on into `cur`.
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
            pending: None,
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

    /// The first µs of window `epoch`.
    pub(crate) fn epoch_start(&self, epoch: u64) -> u64 {
        epoch << self.window_log2
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

    /// Windows held — completed ones in the live range plus the
    /// undrained delta: at most `depth` however long the run. The current
    /// window and the retired aggregate are one snapshot each, always.
    /// Spare boxes are not windows and are not counted: they hold
    /// nothing, and there are never more of them than `depth`.
    pub fn state_len(&self) -> usize {
        self.recent.len() + usize::from(self.pending.is_some())
    }

    /// Drain the undrained delta: every window that left the live range
    /// since the last drain, as one [`WindowDelta`] (`None` if no window
    /// left). Draining at any cadence — every window, every N windows,
    /// or only at the end — yields the same totals.
    pub fn take_delta(&mut self) -> Option<WindowDelta> {
        let window_log2 = self.window_log2;
        self.pending
            .take()
            .map(|(epoch, partial, snapshot)| WindowDelta {
                epoch,
                start_us: epoch << window_log2,
                window_us: 1u64 << window_log2,
                partial,
                snapshot: *snapshot,
            })
    }

    /// Close the books: retire every live window (current included) into
    /// the undrained delta and drain it. The cumulative view is
    /// unchanged, the live range comes back empty, and the sum of every
    /// delta the sink ever produced now equals
    /// [`WindowedSnapshot::cumulative`]. Recording may continue
    /// afterwards; reopened windows simply yield further deltas.
    pub fn flush(&mut self) -> Option<WindowDelta> {
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
        self.take_delta()
    }

    /// Open an empty window as the current one and hand back the one it
    /// replaces.
    fn swap_cur(&mut self) -> Box<Snapshot> {
        let fresh = self.spare.pop().unwrap_or_default();
        std::mem::replace(&mut self.cur, fresh)
    }

    /// Keep the box of a window that was merged into another, emptied.
    fn recycle(&mut self, mut snap: Box<Snapshot>) {
        if self.spare.len() < self.depth {
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

    /// Add a window that left the live range to the undrained delta.
    /// Windows leave oldest first, so the first one's epoch stays the
    /// delta's.
    fn push_delta(&mut self, epoch: u64, snapshot: Box<Snapshot>, partial: bool) {
        match &mut self.pending {
            None => self.pending = Some((epoch, partial, snapshot)),
            Some((_, merged, held)) => {
                held.merge(&snapshot);
                *merged = true;
                self.recycle(snapshot);
            }
        }
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
    fn an_undrained_sink_holds_one_delta_and_conserves_counts() {
        let mut w = WindowedSnapshot::new(2, 4);
        for t in 0..96u64 {
            w.emit(&complete(t * 4, 1)); // one event per window
            assert!(w.state_len() <= 4 && w.spare.len() <= 4, "window {t}");
        }
        assert_eq!(
            w.state_len(),
            4,
            "three completed live windows and the delta"
        );
        let d = w.flush().expect("96 windows to hand out");
        assert!(d.partial && d.epoch == 0);
        assert_eq!(d.snapshot.counters.service_completes, 96);
        assert_eq!(d.snapshot, w.cumulative());
        assert!(w.spare.len() <= 4);
        assert_eq!(w.state_len(), 0);
        assert_eq!(w.take_delta(), None);
    }

    #[test]
    fn a_drain_gets_the_merge_of_the_windows_that_left_whole_only_if_one_did() {
        // One event per 4 µs window, its response time the window's
        // number. After window `n` the windows below `n + 1 - depth` have
        // left the live range, so a drain gets the merge of those it has
        // not had yet: one whole window when it drains after every
        // window, `cadence` of them marked partial otherwise.
        let depth = DEFAULT_DEPTH as u64;
        for cadence in [1, 2, 5, 32] {
            let mut w = TelemetryConfig::exact().window_log2(2).sink();
            let since = |from: u64, to: u64| {
                let mut s = Snapshot::new();
                (from..to).for_each(|n| s.emit(&complete(n * 4, n)));
                s
            };
            let mut drained = 0;
            for n in 0..320 {
                w.emit(&complete(n * 4, n));
                if (n + 1) % cadence != 0 {
                    continue;
                }
                let left = (n + 1).saturating_sub(depth);
                let Some(d) = w.take_delta() else {
                    assert_eq!(left, drained, "cadence {cadence}, window {n}");
                    continue;
                };
                assert_eq!(d.epoch, drained, "cadence {cadence}");
                assert_eq!(d.partial, left - drained > 1, "cadence {cadence}");
                assert_eq!(d.snapshot, since(drained, left), "cadence {cadence}");
                assert!(cadence > 1 || !d.partial);
                drained = left;
            }
            let rest = w.flush().expect("the live range to hand out");
            assert!(rest.partial && rest.epoch == drained, "cadence {cadence}");
            assert_eq!(rest.snapshot, since(drained, 320), "cadence {cadence}");
        }
    }

    /// One event of every histogram-feeding kind (and two counter-only
    /// kinds) by turns, with magnitudes spread over the bucket array so
    /// consecutive windows fill different bucket ranges.
    fn mixed(now_us: u64, x: u64) -> TraceEvent {
        let wide = x >> (x % 59);
        match x % 5 {
            0 => TraceEvent::Drop {
                now_us,
                req: x,
                missed_by_us: wide,
                queue_depth: wide % 4096,
            },
            1 => TraceEvent::ServiceStart {
                now_us,
                req: x,
                cylinder: 7,
                seek_cylinders: wide as u32,
                queue_depth: wide % 4096,
                slack_us: (wide % 1_000_000) as i64 - 1000,
            },
            2 => complete(now_us, wide),
            3 => TraceEvent::QueueSwap {
                now_us,
                batch: wide,
            },
            _ => TraceEvent::Arrival {
                now_us,
                req: x,
                cylinder: 7,
                deadline_us: now_us + 5,
            },
        }
    }

    /// Run 104 windows of 16 µs through a depth-4 sink — every seventh
    /// epoch skipped, every fifth window followed by a late event two
    /// epochs back (which opens a slot for a skipped epoch) — draining
    /// every `drain_every` windows, and hold every delta, the cumulative
    /// view and the flush against one never-recycled [`Snapshot`] per
    /// epoch.
    fn check_against_fresh_snapshots(sample_shift: u32, drain_every: Option<u64>) {
        let what = format!("shift {sample_shift}, drained {drain_every:?}");
        let mask = (1u64 << sample_shift) - 1;
        let mut w = WindowedSnapshot::new(4, 4).with_sample_shift(sample_shift);
        let mut fresh: std::collections::BTreeMap<u64, Snapshot> = Default::default();
        let mut plain = Snapshot::new();
        let mut deltas: Vec<WindowDelta> = Vec::new();
        let mut recycled = false;
        let mut x = 20040330u64;
        for window in 0..104 {
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
            assert!(w.spare.len() <= 4 && w.state_len() <= 4, "{what}");
            if drain_every.is_some_and(|n| (window + 1) % n == 0) {
                deltas.extend(w.take_delta());
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
        // whole when that is one window, partial when it is several or
        // the flush closed the open window (the last delta).
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
            let last = i + 1 == deltas.len();
            assert_eq!(d.partial, windows > 1 || last, "{what}: delta {i}");
        }
        assert!(recycled, "{what}: a delta that merges recycles");
        if drain_every.is_none() {
            assert_eq!(deltas.len(), 1, "{what}: the flush hands out everything");
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
        assert!(first.as_ref().is_some_and(|d| d.partial));
        w.emit(&complete(6, 1));
        let mut drained = Snapshot::new();
        for d in first.into_iter().chain(w.flush()) {
            drained.merge(&d.snapshot);
        }
        assert_eq!(drained, w.cumulative());
        assert_eq!(drained.counters.service_completes, 2);
    }
}
