//! The flight recorder: a bounded ring of recent events plus anomaly
//! triggers that capture the moments worth a post-mortem.
//!
//! A [`FlightRecorder`] sits on a shard's event stream like any other
//! sink. It keeps two aggregates of the stream: its recent raw events
//! and a windowed live aggregate, which serves the trigger baselines
//! and, through its exact cumulative counters, the dumps. The raw events
//! go into a [`FlightRing`] under the recorder's tag. The ring may be
//! shared — a farm's recorders all write into one, each bringing
//! `capacity` entries of room ([`FlightRecorder::attach`]) — or the
//! recorder's alone ([`FlightRecorder::new`]); it is the same code
//! either way, a stand-alone recorder being a farm of one.
//! When an anomaly fires — a shed burst, a redirect storm, or a
//! deadline-miss p99 spike against the recent baseline — it freezes a [`DumpRecord`]: the recorder's newest events
//! still in the ring (at most `capacity` of them), the cumulative
//! counters, and their difference against a checkpoint taken at the
//! previous dump, with **exact event-vs-counter reconciliation**: the
//! retained events are replayed into fresh counters and must reproduce
//! that delta exactly (`clean` records whether they did; events the
//! delta counts that the ring no longer holds are the one legitimate
//! reason they cannot).
//!
//! The dumps are a ring too: a recorder keeps its newest
//! [`DUMP_RETENTION`] records and counts the rest. Every dump carries its
//! lifetime sequence number, so a reader that remembers the last one it
//! saw ([`FlightRecorder::dumps_from`]) can tell a dump it has handled
//! from one it never got to see, and an eviction takes nothing out of the
//! chain the next dump reconciles against: `delta` and `cumulative` come
//! from the recorder's counters, not from the records before it.

use crate::event::TraceEvent;
use crate::hist::Histogram;
use crate::sink::{FlightRing, PackedEvents, TraceSink};
use crate::snapshot::{Counters, Snapshot};
use crate::window::{TelemetryConfig, WindowedSnapshot};

/// What fired a flight-recorder dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Anomaly {
    /// Sheds in the current window crossed the threshold.
    ShedBurst = 0,
    /// Redirects in the current window crossed the threshold.
    RedirectStorm = 1,
    /// The current window's response p99 spiked against the recent
    /// completed-window baseline.
    P99Spike = 2,
    /// An explicit [`FlightRecorder::force_dump`] call.
    Manual = 3,
}

impl Anomaly {
    const COUNT: usize = 4;
}

/// Trigger thresholds; a threshold of 0 (or factor of 0.0) disables
/// that trigger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TriggerConfig {
    /// Sheds within the current window that constitute a burst.
    pub shed_burst: u64,
    /// Redirects within the current window that constitute a storm.
    pub redirect_storm: u64,
    /// Fire when the current window's response p99 exceeds the recent
    /// completed-window baseline p99 by this factor.
    pub p99_spike_factor: f64,
    /// Completions required (in the current window and in the baseline)
    /// before the p99 comparison is trusted.
    pub p99_min_completes: u64,
    /// Windows an anomaly stays quiet after firing, so one sustained
    /// incident yields one dump, not hundreds.
    pub cooldown_windows: u64,
}

impl Default for TriggerConfig {
    fn default() -> Self {
        TriggerConfig {
            shed_burst: 32,
            redirect_storm: 64,
            p99_spike_factor: 4.0,
            p99_min_completes: 64,
            cooldown_windows: 4,
        }
    }
}

impl TriggerConfig {
    /// Every trigger disabled: the recorder records and never fires, so
    /// nothing downstream of a dump (the farm supervisor) can act.
    pub const fn quiet() -> Self {
        TriggerConfig {
            shed_burst: 0,
            redirect_storm: 0,
            p99_spike_factor: 0.0,
            p99_min_completes: 0,
            cooldown_windows: 0,
        }
    }
}

/// Dumps a [`FlightRecorder`] keeps. Each one copies up to the
/// recorder's capacity of events out of the ring, at the ring's 24 bytes
/// an event ([`PackedEvents`]), so a list nobody trims is memory in
/// proportion to how long an overload has lasted. A reader that looks
/// after every few events (the farm's supervisor looks at the next
/// daemon event) finds one new dump, rarely two; it can count the times
/// four was not enough ([`FlightRecorder::dumps_from`]).
pub const DUMP_RETENTION: usize = 4;

/// One frozen post-mortem capture.
#[derive(Debug, Clone, PartialEq)]
pub struct DumpRecord {
    /// Position among all the dumps its recorder ever took, from 0.
    pub seq: u64,
    /// What fired.
    pub anomaly: Anomaly,
    /// Simulation time of the triggering event (µs).
    pub now_us: u64,
    /// Window epoch of the triggering event.
    pub epoch: u64,
    /// The recorder's newest events still in the ring at the dump, at
    /// most its own capacity of them, oldest first: copied out in the
    /// ring's packed slots and unpacked when read
    /// ([`PackedEvents::iter`]).
    pub events: PackedEvents,
    /// Exactly what was counted since the previous dump (or the start
    /// of the run).
    pub delta: Counters,
    /// Cumulative counters over the whole run so far.
    pub cumulative: Counters,
    /// Whether replaying the retained events reproduced `delta`
    /// exactly.
    pub clean: bool,
    /// How many of the events `delta` counts are missing from `events`,
    /// overwritten in the ring — when nonzero, `clean` cannot hold.
    pub evicted_since_dump: u64,
}

/// A per-shard flight recorder (see the module docs). Not `Clone`: a
/// copy would write under the same tag into the same ring.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: FlightRing,
    tag: u32,
    /// The room this recorder brought to the ring, and the most events
    /// one of its dumps copies out.
    capacity: usize,
    windows: WindowedSnapshot,
    /// The checkpoint a dump's delta is taken against: the cumulative
    /// counters at the previous dump.
    counters_at_dump: Counters,
    triggers: TriggerConfig,
    last_fired_epoch: [Option<u64>; Anomaly::COUNT],
    /// The newest [`DUMP_RETENTION`] dumps, oldest first.
    dumps: Vec<DumpRecord>,
    dumps_total: u64,
    dumps_unclean: u64,
    /// The p99 trigger's baseline, cleared and refilled at each check: a
    /// histogram kept across checks keeps its bucket span, so a check
    /// does not allocate one.
    p99_baseline: Histogram,
}

impl FlightRecorder {
    /// A recorder retaining `capacity` events in a ring of its own,
    /// aggregating over `telemetry`-shaped windows, firing on `triggers`.
    pub fn new(capacity: usize, telemetry: TelemetryConfig, triggers: TriggerConfig) -> Self {
        let ring = FlightRing::with_capacity(capacity.max(1));
        FlightRecorder::attach(&ring, capacity, telemetry, triggers)
            .expect("a new ring has every tag free")
    }

    /// A recorder writing into `ring` beside the ones already attached.
    /// The ring grows by `capacity` entries, and a dump of this recorder
    /// holds its newest events still in the ring, at most `capacity` of
    /// them however much of the ring it has come to fill. That is not
    /// what a private ring of `capacity` would keep: a busier neighbour
    /// overwrites a quiet recorder's older entries sooner, so the history
    /// before a dump's trigger window can be shorter. `None` when the
    /// ring has no tag left to tell this recorder's entries from the
    /// others'.
    pub fn attach(
        ring: &FlightRing,
        capacity: usize,
        telemetry: TelemetryConfig,
        triggers: TriggerConfig,
    ) -> Option<Self> {
        let capacity = capacity.max(1);
        Some(FlightRecorder {
            tag: ring.attach(capacity)?,
            ring: ring.clone(),
            capacity,
            windows: telemetry.sink(),
            counters_at_dump: Counters::default(),
            triggers,
            last_fired_epoch: [None; Anomaly::COUNT],
            dumps: Vec::new(),
            dumps_total: 0,
            dumps_unclean: 0,
            p99_baseline: Histogram::new(),
        })
    }

    /// A recorder with the default window shape (decimation off, so p99
    /// baselines are exact) and default triggers.
    pub fn paper_default(capacity: usize) -> Self {
        FlightRecorder::new(capacity, TelemetryConfig::exact(), TriggerConfig::default())
    }

    /// The windowed live aggregate the triggers consult.
    pub fn windows(&self) -> &WindowedSnapshot {
        &self.windows
    }

    /// Mutable access to the windowed aggregate, so a control plane can
    /// drain its window delta ([`WindowedSnapshot::take_delta`])
    /// without disturbing the ring or the dump machinery.
    pub fn windows_mut(&mut self) -> &mut WindowedSnapshot {
        &mut self.windows
    }

    /// The dumps still held — the newest [`DUMP_RETENTION`] — oldest
    /// first.
    pub fn dumps(&self) -> &[DumpRecord] {
        &self.dumps
    }

    /// The held dumps numbered `seq` and up: what a reader that has seen
    /// everything before `seq` has left to look at. Whatever it missed is
    /// `dumps_evicted().saturating_sub(seq)` dumps.
    pub fn dumps_from(&self, seq: u64) -> &[DumpRecord] {
        let skip = seq.saturating_sub(self.dumps_evicted()) as usize;
        &self.dumps[skip.min(self.dumps.len())..]
    }

    /// Dumps ever taken; the next one's sequence number.
    pub fn dumps_total(&self) -> u64 {
        self.dumps_total
    }

    /// Dumps taken and since dropped to make room; the sequence number
    /// of the oldest one still held.
    pub fn dumps_evicted(&self) -> u64 {
        self.dumps_total - self.dumps.len() as u64
    }

    /// Dumps ever taken whose retained events failed to replay into
    /// their delta, held or not.
    pub fn dumps_unclean(&self) -> u64 {
        self.dumps_unclean
    }

    /// Capture a dump right now, bypassing triggers and cooldowns.
    ///
    /// After [`FlightRecorder::release_ring`] the dump holds no events,
    /// so it is `clean` only when nothing was emitted since the last
    /// dump; take a post-mortem before the recorder is released.
    pub fn force_dump(&mut self, now_us: u64) -> &DumpRecord {
        self.capture(Anomaly::Manual, now_us);
        self.dumps.last().expect("capture just pushed a dump")
    }

    /// Let go of the shared ring, so that it is freed with its other
    /// writers rather than with this recorder. The windows, the counters
    /// and the dumps already taken stay; events emitted from here on are
    /// counted but not retained.
    pub fn release_ring(&mut self) {
        self.ring = FlightRing::new();
    }

    /// Take a dump for `anomaly` unless it is cooling down. Out of line,
    /// as is [`FlightRecorder::p99_spiked`]: every emission site inlines
    /// `emit`, and these are its rare paths.
    #[inline(never)]
    fn fire(&mut self, anomaly: Anomaly, now_us: u64) {
        let epoch = self.windows.epoch_of(now_us);
        if let Some(last) = self.last_fired_epoch[anomaly as usize] {
            if epoch.saturating_sub(last) < self.triggers.cooldown_windows.max(1) {
                return;
            }
        }
        self.last_fired_epoch[anomaly as usize] = Some(epoch);
        self.capture(anomaly, now_us);
    }

    fn capture(&mut self, anomaly: Anomaly, now_us: u64) {
        let cumulative = self.windows.cumulative_counters();
        let delta = cumulative.since(&self.counters_at_dump);
        self.counters_at_dump = cumulative;
        let events = self.ring.newest(self.tag, self.capacity);
        let evicted_since_dump = delta.total_events().saturating_sub(events.len() as u64);
        let clean = evicted_since_dump == 0 && reconciles(&events, &delta);
        if self.dumps.len() >= DUMP_RETENTION {
            self.dumps.remove(0);
        }
        self.dumps_unclean += u64::from(!clean);
        self.dumps_total += 1;
        self.ring.count_dump();
        self.dumps.push(DumpRecord {
            seq: self.dumps_total - 1,
            anomaly,
            now_us,
            epoch: self.windows.epoch_of(now_us),
            events,
            delta,
            cumulative,
            clean,
            evicted_since_dump,
        });
    }

    /// The current window's response p99 against the completed recent
    /// windows' p99, when both sides have enough samples.
    #[inline(never)]
    fn p99_spiked(&mut self) -> bool {
        let t = &self.triggers;
        if t.p99_spike_factor <= 0.0 {
            return false;
        }
        let cur = self.windows.current();
        if cur.counters.service_completes < t.p99_min_completes {
            return false;
        }
        let cur_epoch = self.windows.current_epoch();
        let baseline = &mut self.p99_baseline;
        baseline.clear();
        for (epoch, s) in self.windows.windows() {
            if Some(epoch) != cur_epoch {
                baseline.merge(&s.response_us);
            }
        }
        if baseline.count() < t.p99_min_completes {
            return false;
        }
        match (cur.response_us.p99(), baseline.p99()) {
            (Some(cur_p99), Some(base_p99)) => {
                cur_p99 as f64 > base_p99 as f64 * t.p99_spike_factor
            }
            _ => false,
        }
    }
}

impl TraceSink for FlightRecorder {
    /// Inline, so that where the event is built the ring packs it, the
    /// windows count it and the triggers test it with that one kind's
    /// code, without a dispatch on the kind.
    #[inline(always)]
    fn emit(&mut self, event: &TraceEvent) {
        self.ring.push(self.tag, event);
        self.windows.emit(event);
        let t = &self.triggers;
        let cur = &self.windows.current().counters;
        match *event {
            TraceEvent::Shed { now_us, .. } if t.shed_burst > 0 && cur.sheds >= t.shed_burst => {
                self.fire(Anomaly::ShedBurst, now_us);
            }
            TraceEvent::Redirect { now_us, .. }
                if t.redirect_storm > 0 && cur.redirects >= t.redirect_storm =>
            {
                self.fire(Anomaly::RedirectStorm, now_us);
            }
            TraceEvent::ServiceComplete { now_us, .. }
                if cur.service_completes == t.p99_min_completes && self.p99_spiked() =>
            {
                self.fire(Anomaly::P99Spike, now_us);
            }
            _ => {}
        }
    }
}

/// Replay `events`' tail into fresh counters and check it reproduces
/// `delta` exactly. The tail length is the event count the delta itself
/// claims — the reconciliation is event-vs-counter on both axes.
fn reconciles(events: &PackedEvents, delta: &Counters) -> bool {
    let n = delta.total_events() as usize;
    if n > events.len() {
        return false;
    }
    let mut replayed = Snapshot::new();
    for e in events.iter().skip(events.len() - n) {
        replayed.emit(&e);
    }
    replayed.counters == *delta
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shed(now_us: u64, req: u64) -> TraceEvent {
        TraceEvent::Shed { now_us, req, v: 1 }
    }

    fn recorder(ring: usize) -> FlightRecorder {
        // 16 µs windows so tests cross window boundaries easily.
        FlightRecorder::new(
            ring,
            TelemetryConfig::exact().window_log2(4).depth(4),
            TriggerConfig {
                shed_burst: 4,
                redirect_storm: 3,
                p99_spike_factor: 3.0,
                p99_min_completes: 8,
                cooldown_windows: 2,
            },
        )
    }

    #[test]
    fn shed_burst_fires_once_per_cooldown_and_reconciles() {
        let mut r = recorder(256);
        for i in 0..6u64 {
            r.emit(&shed(i, i));
        }
        assert_eq!(r.dumps().len(), 1, "one dump despite repeated crossing");
        let d = &r.dumps()[0];
        assert_eq!(d.anomaly, Anomaly::ShedBurst);
        assert!(d.clean, "retained events must replay into the delta");
        assert_eq!(d.delta.sheds, 4);
        assert_eq!(d.evicted_since_dump, 0);
        // Past the cooldown the trigger rearms.
        for i in 0..40u64 {
            r.emit(&shed(100 + i, i));
        }
        assert!(r.dumps().len() >= 2);
        // Captured cumulative counts everything up to the second firing:
        // the first burst of 6 plus the 4 sheds that re-crossed.
        assert_eq!(r.dumps()[1].cumulative.sheds, 10);
    }

    #[test]
    fn cooldown_rearms_at_exactly_last_plus_cooldown_windows() {
        // cooldown_windows = 2, 16 µs windows. A trigger that last fired
        // in epoch E must stay suppressed through epoch E+1 and rearm at
        // exactly E+2 — not E+3. The farm daemon's supervisor leans on
        // this boundary: a limping member that keeps shedding re-strikes
        // on the first window the cooldown permits.
        let mut r = recorder(256);
        for i in 0..4u64 {
            r.emit(&shed(i, i)); // epoch 0: fires
        }
        assert_eq!(r.dumps().len(), 1);
        assert_eq!(r.dumps()[0].epoch, 0);
        for i in 0..4u64 {
            r.emit(&shed(16 + i, i)); // epoch 1: delta 1 < 2, suppressed
        }
        assert_eq!(r.dumps().len(), 1, "epoch E+1 is inside the cooldown");
        for i in 0..4u64 {
            r.emit(&shed(32 + i, i)); // epoch 2: delta == 2, rearmed
        }
        assert_eq!(r.dumps().len(), 2, "epoch E+2 is the first rearmed window");
        assert_eq!(r.dumps()[1].epoch, 2);
        assert_eq!(r.dumps()[1].anomaly, Anomaly::ShedBurst);
    }

    #[test]
    fn second_dump_delta_covers_only_the_gap() {
        let mut r = recorder(256);
        for i in 0..4u64 {
            r.emit(&shed(i, i));
        }
        assert_eq!(r.dumps().len(), 1);
        // Cooldown is 2 windows of 16 µs; jump past it.
        for i in 0..4u64 {
            r.emit(&shed(64 + i, i));
        }
        let dumps = r.dumps();
        assert_eq!(dumps.len(), 2);
        assert_eq!(dumps[1].delta.sheds, 4);
        assert_eq!(dumps[1].cumulative.sheds, 8);
        assert!(dumps[1].clean);
    }

    #[test]
    fn eviction_is_reported_not_hidden() {
        let mut r = recorder(2);
        for i in 0..6u64 {
            r.emit(&shed(i, i));
        }
        let d = &r.dumps()[0];
        assert!(!d.clean);
        assert_eq!(d.evicted_since_dump, 2);
        // The delta comes from the counters, not the ring: it still holds
        // all four sheds, two of which no retained event accounts for.
        assert_eq!(d.delta.sheds, 4);
        assert_eq!(d.delta.total_events(), 4);
        assert_eq!(d.events.len(), 2);
    }

    #[test]
    fn a_full_ring_still_reconciles_a_short_gap() {
        // A full ring overwrites on every emit, so "anything overwritten
        // since the last dump" is true forever; what a dump is missing is
        // what its delta counts beyond the events it holds.
        let mut r = FlightRecorder::new(8, TelemetryConfig::exact(), TriggerConfig::quiet());
        for i in 0..20u64 {
            r.emit(&shed(i, i));
        }
        let d = r.force_dump(20).clone();
        assert_eq!((d.delta.total_events(), d.events.len()), (20, 8));
        assert_eq!(d.evicted_since_dump, 12);
        assert!(!d.clean);
        for i in 20..23u64 {
            r.emit(&shed(i, i));
        }
        let d = r.force_dump(23).clone();
        assert_eq!((d.delta.total_events(), d.events.len()), (3, 8));
        assert_eq!(d.evicted_since_dump, 0);
        assert!(d.clean, "the three events of the gap are all held");
    }

    /// One emission of the model test: unique by `step`, so a dump's
    /// events can be compared against a stream position by position.
    /// Two in five carry a batch too wide to pack, so that every
    /// recorder's dumps hold events kept whole between packed ones.
    fn step_event(step: usize, tag: usize) -> TraceEvent {
        let wide = if step % 5 < 2 { 1 << 32 } else { 0 };
        TraceEvent::QueueSwap {
            now_us: step as u64,
            batch: tag as u64 | wide,
        }
    }

    /// Drive three recorders on one ring — the `i`-th emission made by
    /// recorder `who(i)`, the third recorder attached only at step `join`
    /// — and check every dump against one unbounded `Vec` per recorder.
    fn check_against_model(cap: usize, join: usize, who: impl Fn(usize) -> usize) {
        let attach = |ring: &FlightRing| {
            FlightRecorder::attach(ring, cap, TelemetryConfig::exact(), TriggerConfig::quiet())
                .expect("tags to spare")
        };
        let ring = FlightRing::new();
        let mut recorders = vec![attach(&ring), attach(&ring)];
        let mut streams: Vec<Vec<TraceEvent>> = vec![Vec::new(); 3];
        let mut dumped = [0usize; 3];
        let mut log: Vec<usize> = Vec::new();
        let steps = 15 * cap;
        let dump_every = cap + cap / 2 + 1;
        for i in 0..steps {
            if i == join {
                recorders.push(attach(&ring));
            }
            let tag = who(i);
            let event = step_event(i, tag);
            recorders[tag].emit(&event);
            streams[tag].push(event);
            log.push(tag);
            assert!(ring.len() <= ring.capacity());
            if join == 0 {
                assert_eq!(ring.len(), log.len().min(3 * cap));
            }
            if i % dump_every != dump_every - 1 && i + 1 != steps {
                continue;
            }
            for (tag, r) in recorders.iter_mut().enumerate() {
                let d = r.force_dump(i as u64).clone();
                let held = log[log.len() - ring.len()..]
                    .iter()
                    .filter(|&&t| t == tag)
                    .count();
                let stream = &streams[tag];
                let what = format!("cap {cap}, step {i}, recorder {tag}");
                assert_eq!(d.events.len(), held.min(cap), "{what}");
                assert_eq!(
                    d.events.to_vec(),
                    stream[stream.len() - d.events.len()..],
                    "{what}"
                );
                let gap = stream.len() - dumped[tag];
                dumped[tag] = stream.len();
                assert_eq!(d.delta.total_events(), gap as u64, "{what}");
                let missing = gap.saturating_sub(d.events.len());
                assert_eq!(d.evicted_since_dump, missing as u64, "{what}");
                assert_eq!(d.clean, missing == 0, "{what}");
            }
        }
        assert_eq!(
            ring.len(),
            3 * cap,
            "a late joiner's room is used in the end"
        );
    }

    #[test]
    fn tagged_dumps_match_one_unbounded_stream_per_recorder() {
        for cap in [1usize, 8, 4096] {
            let third = 5 * cap;
            // Round-robin.
            check_against_model(cap, 0, |i| i % 3);
            // One hot recorder: its gaps outgrow `cap`, the others' dumps
            // must not grow into the room it fills.
            check_against_model(cap, 0, |i| if i % 16 == 0 { 1 + i / 16 % 2 } else { 0 });
            // A recorder joining a ring that is full and mid-wrap.
            check_against_model(cap, third, |i| if i < third { i % 2 } else { i % 3 });
            // A recorder going silent while the others overwrite it.
            check_against_model(cap, 0, |i| if i < third { i % 3 } else { i % 2 });
        }
    }

    #[test]
    fn a_rings_dump_count_is_the_sum_of_its_recorders() {
        let ring = FlightRing::new();
        let triggers = recorder(1).triggers;
        let telemetry = TelemetryConfig::exact().window_log2(4).depth(4);
        let mut recorders: Vec<FlightRecorder> = (0..3)
            .map(|_| FlightRecorder::attach(&ring, 64, telemetry, triggers).expect("tags"))
            .collect();
        let sum = |rs: &[FlightRecorder]| rs.iter().map(FlightRecorder::dumps_total).sum::<u64>();
        for i in 0..400u64 {
            // Recorder 0 sheds in bursts, recorder 1 trickles, recorder 2
            // only ever dumps when forced.
            let who = if i % 5 == 0 { 1 } else { 0 };
            recorders[who].emit(&shed(i, i));
            recorders[2].emit(&step_event(i as usize, 2));
            if i % 37 == 0 {
                recorders[(i / 37 % 3) as usize].force_dump(i);
            }
            assert_eq!(ring.dumps_total(), sum(&recorders), "step {i}");
        }
        assert!(recorders[0].dumps_evicted() > 0, "past the dump retention");
        assert!(recorders.iter().all(|r| r.dumps_total() > 0));
        // A recorder in a ring of its own counts into that ring only.
        let mut alone = recorder(8);
        alone.force_dump(0);
        assert_eq!(ring.dumps_total(), sum(&recorders));
    }

    #[test]
    fn a_released_recorder_keeps_its_dumps_and_retains_no_more_events() {
        let ring = FlightRing::with_capacity(8);
        let mut r =
            FlightRecorder::attach(&ring, 8, TelemetryConfig::exact(), TriggerConfig::quiet())
                .expect("tags to spare");
        for i in 0..3u64 {
            r.emit(&shed(i, i));
        }
        let held = r.force_dump(3).clone();
        assert_eq!(held.events.len(), 3);
        r.release_ring();
        assert_eq!(r.dumps(), [held]);
        let d = r.force_dump(4).clone();
        assert!(
            d.events.is_empty() && d.clean,
            "nothing since the last dump"
        );
        r.emit(&shed(5, 5));
        let d = r.force_dump(6).clone();
        assert!(d.events.is_empty());
        assert_eq!((d.evicted_since_dump, d.clean), (1, false));
        assert_eq!(r.windows().cumulative_counters().sheds, 4);
        assert_eq!(r.dumps_total(), 3);
        // The ring keeps what the recorder wrote before it let go, and
        // counts none of the dumps taken after.
        assert_eq!((ring.len(), ring.dumps_total()), (3, 1));
    }

    #[test]
    fn a_private_ring_is_the_ring_sink_it_replaced() {
        use crate::sink::RingSink;
        for cap in [1usize, 8, 4096] {
            let mut r = FlightRecorder::new(cap, TelemetryConfig::exact(), TriggerConfig::quiet());
            let mut reference = RingSink::new(cap);
            for i in 0..3 * cap + 5 {
                let event = step_event(i, 0);
                r.emit(&event);
                reference.emit(&event);
                if i % (cap / 2 + 1) == 0 {
                    assert_eq!(
                        r.force_dump(i as u64).events.to_vec(),
                        reference.to_vec(),
                        "cap {cap}"
                    );
                }
            }
        }
    }

    /// What the recorder must have done, worked out from the whole event
    /// stream and an unbounded list of dumps.
    #[derive(Default)]
    struct UnboundedModel {
        stream: Vec<TraceEvent>,
        /// A plain cumulative sink over the stream.
        total: Snapshot,
        /// `(anomaly, now_us, stream length at the dump)`.
        dumps: Vec<(Anomaly, u64, usize)>,
        /// Per anomaly: the epoch being counted, the count in it, and
        /// the epoch it last fired in.
        kinds: [(u64, u64, Option<u64>); Anomaly::COUNT],
    }

    impl UnboundedModel {
        const WINDOW_LOG2: u32 = 4;
        const THRESHOLD: u64 = 3;
        const COOLDOWN: u64 = 2;

        fn counters(events: &[TraceEvent]) -> Counters {
            let mut s = Snapshot::new();
            events.iter().for_each(|e| s.emit(e));
            s.counters
        }

        fn emit(&mut self, event: &TraceEvent) {
            self.stream.push(*event);
            self.total.emit(event);
            let anomaly = match event {
                TraceEvent::Shed { .. } => Anomaly::ShedBurst,
                TraceEvent::Redirect { .. } => Anomaly::RedirectStorm,
                _ => return,
            };
            let epoch = event.now_us() >> Self::WINDOW_LOG2;
            let (counting, count, last) = &mut self.kinds[anomaly as usize];
            if *counting != epoch {
                (*counting, *count) = (epoch, 0);
            }
            *count += 1;
            let rearmed = last.is_none_or(|l| epoch - l >= Self::COOLDOWN);
            if *count >= Self::THRESHOLD && rearmed {
                *last = Some(epoch);
                self.dumps
                    .push((anomaly, event.now_us(), self.stream.len()));
            }
        }

        /// Hold dump `i` of the model, just taken, against the record the
        /// recorder made of it.
        fn check(&self, i: usize, d: &DumpRecord, cap: usize, what: &str) {
            let (anomaly, now_us, at) = self.dumps[i];
            let since = if i == 0 { 0 } else { self.dumps[i - 1].2 };
            assert_eq!((d.seq, d.anomaly, d.now_us), (i as u64, anomaly, now_us));
            assert_eq!(d.epoch, now_us >> Self::WINDOW_LOG2, "{what}");
            assert_eq!(d.delta, Self::counters(&self.stream[since..at]), "{what}");
            assert_eq!((at, d.cumulative), (self.stream.len(), self.total.counters));
            assert_eq!(
                d.events.to_vec(),
                self.stream[at - at.min(cap)..at],
                "{what}"
            );
            assert_eq!(d.clean, at - since <= cap, "{what}");
        }
    }

    #[test]
    fn the_dump_ring_is_the_tail_of_an_unbounded_list() {
        let mut unclean_seen = false;
        for (seed, cap) in [(1u64, 4096usize), (2, 64), (3, 16), (20040330, 5)] {
            let mut r = FlightRecorder::new(
                cap,
                TelemetryConfig::exact()
                    .window_log2(UnboundedModel::WINDOW_LOG2)
                    .depth(3),
                TriggerConfig {
                    shed_burst: UnboundedModel::THRESHOLD,
                    redirect_storm: UnboundedModel::THRESHOLD,
                    p99_spike_factor: 0.0,
                    p99_min_completes: 0,
                    cooldown_windows: UnboundedModel::COOLDOWN,
                },
            );
            let mut model = UnboundedModel::default();
            let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let (mut now_us, mut checked) = (0u64, 0usize);
            for req in 0..6_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                now_us += x >> 61; // 0..8 µs a step, 16 µs windows
                let event = match (x >> 32) % 8 {
                    0 | 1 => TraceEvent::Shed { now_us, req, v: 1 },
                    2 | 3 => TraceEvent::Redirect {
                        now_us,
                        req,
                        from_shard: 0,
                        to_shard: 1,
                        queue_depth: 9,
                    },
                    _ => TraceEvent::QueueSwap { now_us, batch: req },
                };
                let what = format!("seed {seed}, cap {cap}, step {req}");
                r.emit(&event);
                model.emit(&event);
                if (x >> 40) % 97 == 0 {
                    r.force_dump(now_us);
                    model
                        .dumps
                        .push((Anomaly::Manual, now_us, model.stream.len()));
                }
                // The same dumps, in the same order, at the same events…
                assert_eq!(r.dumps_total(), model.dumps.len() as u64, "{what}");
                // …of which the recorder holds the tail.
                let held = r.dumps();
                assert_eq!(held.len(), model.dumps.len().min(DUMP_RETENTION), "{what}");
                assert_eq!(r.dumps_total() - r.dumps_evicted(), held.len() as u64);
                let first = model.dumps.len() - held.len();
                let seqs: Vec<u64> = held.iter().map(|d| d.seq).collect();
                assert!(seqs.iter().copied().eq(first as u64..r.dumps_total()));
                // A record does not change once made: checking each one as
                // it appears checks them all, evicted or not.
                // (A step adds at most a triggered and a forced one.)
                while checked < model.dumps.len() {
                    let d = &held[held.len() - (model.dumps.len() - checked)];
                    model.check(checked, d, cap, &what);
                    checked += 1;
                }
                // A reader that keeps up misses nothing; one that stopped
                // looking at `seen` is told what it has left.
                let seen = model.dumps.len().saturating_sub(DUMP_RETENTION + 2) as u64;
                assert_eq!(r.dumps_from(seen).len(), held.len(), "{what}");
                assert_eq!(r.dumps_evicted().saturating_sub(seen), first as u64 - seen);
                let newest = r.dumps_from(r.dumps_total().saturating_sub(1));
                assert_eq!(newest.first().map(|d| d.seq), held.last().map(|d| d.seq));
                assert!(r.dumps_from(r.dumps_total()).is_empty());
            }
            let unclean = (0..model.dumps.len())
                .filter(|&i| {
                    let since = if i == 0 { 0 } else { model.dumps[i - 1].2 };
                    model.dumps[i].2 - since > cap
                })
                .count();
            assert_eq!(r.dumps_unclean(), unclean as u64, "seed {seed}, cap {cap}");
            assert!(
                model.dumps.len() > 10 * DUMP_RETENTION,
                "seed {seed}: only {} dumps",
                model.dumps.len()
            );
            unclean_seen |= unclean > 0;
        }
        assert!(unclean_seen, "no stream outran its ring between two dumps");
    }

    #[test]
    fn p99_spike_fires_against_recent_baseline() {
        let mut r = recorder(1024);
        let complete = |now_us: u64, response_us: u64| TraceEvent::ServiceComplete {
            now_us,
            req: now_us,
            response_us,
            late: false,
        };
        // Two calm windows of baseline (epochs 0 and 1), then a spiked one.
        for i in 0..8u64 {
            r.emit(&complete(i, 100));
        }
        for i in 0..8u64 {
            r.emit(&complete(16 + i, 100));
        }
        assert!(r.dumps().is_empty());
        for i in 0..8u64 {
            r.emit(&complete(32 + i, 50_000));
            // The comparison is made once, at the window's
            // `p99_min_completes`-th completion.
            assert_eq!(r.dumps().len(), usize::from(i == 7), "completion {i}");
        }
        let d = &r.dumps()[0];
        assert_eq!(
            (d.seq, d.anomaly, d.now_us, d.epoch),
            (0, Anomaly::P99Spike, 39, 2)
        );
        assert_eq!(d.delta.service_completes, 24);
        assert!(d.clean);
        // A baseline short of samples is not trusted, whatever it reads.
        let mut r = recorder(1024);
        for i in 0..7u64 {
            r.emit(&complete(i, 100));
        }
        for i in 0..8u64 {
            r.emit(&complete(32 + i, 50_000));
        }
        assert!(r.dumps().is_empty());
    }
}
