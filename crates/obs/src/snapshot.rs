//! The aggregate view of a trace: counters plus histograms, itself a
//! [`TraceSink`] so it can record directly or sit on one arm of a
//! [`crate::Tee`] next to a raw-timeline sink.

use crate::event::TraceEvent;
use crate::hist::Histogram;
use crate::sink::TraceSink;
use crate::span::Stage;
use std::fmt::Write as _;

/// One counter per event kind (plus late completions, split out of
/// `service_completes` because they are the §6 loss signal).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// `Arrival` events.
    pub arrivals: u64,
    /// `Dispatch` events.
    pub dispatches: u64,
    /// `ServiceStart` events.
    pub service_starts: u64,
    /// `ServiceComplete` events.
    pub service_completes: u64,
    /// `ServiceComplete` events with `late` set.
    pub late_completions: u64,
    /// `Drop` events.
    pub drops: u64,
    /// `Preempt` events.
    pub preemptions: u64,
    /// `SpPromote` events.
    pub sp_promotions: u64,
    /// `ErExpand` events.
    pub er_expands: u64,
    /// `ErReset` events.
    pub er_resets: u64,
    /// `QueueSwap` events.
    pub queue_swaps: u64,
    /// `SweepReverse` events.
    pub sweep_reversals: u64,
    /// `MediaError` events (transient + bad-sector discoveries).
    pub media_errors: u64,
    /// `Retry` events.
    pub retries: u64,
    /// `RequestFailed` events (retry budget exhausted).
    pub request_failures: u64,
    /// `SectorRemap` events.
    pub sector_remaps: u64,
    /// `DegradedRead` events.
    pub degraded_reads: u64,
    /// `RebuildIo` events.
    pub rebuild_ios: u64,
    /// `Shed` events (bounded-queue overload drops).
    pub sheds: u64,
    /// `Redirect` events (farm router overload redirections).
    pub redirects: u64,
    /// `ShardReport` events (one per finished farm shard timeline).
    pub shard_reports: u64,
    /// `Migrate` events (drained-shard in-flight handoffs).
    pub migrations: u64,
    /// `Quarantine` events (supervisor pulled a shard from routing).
    pub quarantines: u64,
    /// `Retune` events (control plane applied a live knob/policy change).
    pub retunes: u64,
    /// `StageSpan` events (sampled pipeline-stage timings).
    pub stage_spans: u64,
}

impl Counters {
    /// Add another set of counters into this one.
    pub fn merge(&mut self, other: &Counters) {
        self.arrivals += other.arrivals;
        self.dispatches += other.dispatches;
        self.service_starts += other.service_starts;
        self.service_completes += other.service_completes;
        self.late_completions += other.late_completions;
        self.drops += other.drops;
        self.preemptions += other.preemptions;
        self.sp_promotions += other.sp_promotions;
        self.er_expands += other.er_expands;
        self.er_resets += other.er_resets;
        self.queue_swaps += other.queue_swaps;
        self.sweep_reversals += other.sweep_reversals;
        self.media_errors += other.media_errors;
        self.retries += other.retries;
        self.request_failures += other.request_failures;
        self.sector_remaps += other.sector_remaps;
        self.degraded_reads += other.degraded_reads;
        self.rebuild_ios += other.rebuild_ios;
        self.sheds += other.sheds;
        self.redirects += other.redirects;
        self.shard_reports += other.shard_reports;
        self.migrations += other.migrations;
        self.quarantines += other.quarantines;
        self.retunes += other.retunes;
        self.stage_spans += other.stage_spans;
    }

    /// What was counted since `earlier`, an older reading of the same
    /// counters: the inverse of [`Counters::merge`]. Counters only grow,
    /// so every difference is exact.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            arrivals: self.arrivals - earlier.arrivals,
            dispatches: self.dispatches - earlier.dispatches,
            service_starts: self.service_starts - earlier.service_starts,
            service_completes: self.service_completes - earlier.service_completes,
            late_completions: self.late_completions - earlier.late_completions,
            drops: self.drops - earlier.drops,
            preemptions: self.preemptions - earlier.preemptions,
            sp_promotions: self.sp_promotions - earlier.sp_promotions,
            er_expands: self.er_expands - earlier.er_expands,
            er_resets: self.er_resets - earlier.er_resets,
            queue_swaps: self.queue_swaps - earlier.queue_swaps,
            sweep_reversals: self.sweep_reversals - earlier.sweep_reversals,
            media_errors: self.media_errors - earlier.media_errors,
            retries: self.retries - earlier.retries,
            request_failures: self.request_failures - earlier.request_failures,
            sector_remaps: self.sector_remaps - earlier.sector_remaps,
            degraded_reads: self.degraded_reads - earlier.degraded_reads,
            rebuild_ios: self.rebuild_ios - earlier.rebuild_ios,
            sheds: self.sheds - earlier.sheds,
            redirects: self.redirects - earlier.redirects,
            shard_reports: self.shard_reports - earlier.shard_reports,
            migrations: self.migrations - earlier.migrations,
            quarantines: self.quarantines - earlier.quarantines,
            retunes: self.retunes - earlier.retunes,
            stage_spans: self.stage_spans - earlier.stage_spans,
        }
    }

    /// Every counter as a `(stable_name, value)` pair, in declaration
    /// order — the iteration base for exposition encoders and dump
    /// renderers.
    pub fn items(&self) -> [(&'static str, u64); 25] {
        [
            ("arrivals", self.arrivals),
            ("dispatches", self.dispatches),
            ("service_starts", self.service_starts),
            ("service_completes", self.service_completes),
            ("late_completions", self.late_completions),
            ("drops", self.drops),
            ("preemptions", self.preemptions),
            ("sp_promotions", self.sp_promotions),
            ("er_expands", self.er_expands),
            ("er_resets", self.er_resets),
            ("queue_swaps", self.queue_swaps),
            ("sweep_reversals", self.sweep_reversals),
            ("media_errors", self.media_errors),
            ("retries", self.retries),
            ("request_failures", self.request_failures),
            ("sector_remaps", self.sector_remaps),
            ("degraded_reads", self.degraded_reads),
            ("rebuild_ios", self.rebuild_ios),
            ("sheds", self.sheds),
            ("redirects", self.redirects),
            ("shard_reports", self.shard_reports),
            ("migrations", self.migrations),
            ("quarantines", self.quarantines),
            ("retunes", self.retunes),
            ("stage_spans", self.stage_spans),
        ]
    }

    /// Total events these counters witnessed. Every event increments
    /// exactly one counter; `late_completions` is excluded because it is
    /// a sub-count of `service_completes`, not an event kind of its own.
    pub fn total_events(&self) -> u64 {
        self.items()
            .into_iter()
            .filter(|(name, _)| *name != "late_completions")
            .map(|(_, v)| v)
            .sum()
    }
}

/// Aggregated observations of one (or, after [`Snapshot::merge`],
/// several) traced runs: event counters and the four distribution
/// histograms the paper's analysis cares about.
///
/// Mergeability is the point: the striped/RAID path runs one simulation
/// per member disk and folds the members' snapshots into one group view.
///
/// The per-stage histograms are allocated by the first `StageSpan` that
/// lands in one; a snapshot of a run without stage spans — every farm
/// member — never carries them. **Absent is empty**: [`Snapshot::stage`]
/// answers an empty histogram, and two snapshots are equal when every
/// stage compares equal through it, allocated or not.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Event counts.
    pub counters: Counters,
    /// Response time of completed requests (µs, from `ServiceComplete`).
    pub response_us: Histogram,
    /// Seek distance per service (cylinders, from `ServiceStart`).
    pub seek_cylinders: Histogram,
    /// Pending-queue depth at each dispatch (from `Dispatch`).
    pub queue_depth: Histogram,
    /// Slack at dispatch (µs, from `Dispatch`), clamped at 0: past-due
    /// dispatches record 0.
    pub slack_us: Histogram,
    /// Per-stage histograms by [`Stage::index`], once a `StageSpan` was
    /// recorded; read through [`Snapshot::stage`].
    stage_ns: Option<Box<[Histogram; Stage::COUNT]>>,
}

impl PartialEq for Snapshot {
    fn eq(&self, other: &Snapshot) -> bool {
        self.counters == other.counters
            && self.response_us == other.response_us
            && self.seek_cylinders == other.seek_cylinders
            && self.queue_depth == other.queue_depth
            && self.slack_us == other.slack_us
            && Stage::ALL.iter().all(|&s| self.stage(s) == other.stage(s))
    }
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Snapshot::default()
    }

    /// Sampled wall-clock cost of one pipeline stage (ns, from
    /// `StageSpan`); empty when no span was ever recorded.
    pub fn stage(&self, stage: Stage) -> &Histogram {
        static EMPTY: Histogram = Histogram::new();
        match &self.stage_ns {
            Some(stages) => &stages[stage.index()],
            None => &EMPTY,
        }
    }

    /// Fold another snapshot into this one (exact: counters add,
    /// histograms concatenate).
    pub fn merge(&mut self, other: &Snapshot) {
        self.counters.merge(&other.counters);
        self.response_us.merge(&other.response_us);
        self.seek_cylinders.merge(&other.seek_cylinders);
        self.queue_depth.merge(&other.queue_depth);
        self.slack_us.merge(&other.slack_us);
        if let Some(theirs) = &other.stage_ns {
            let mine = self.stage_ns.get_or_insert_with(Default::default);
            for (mine, theirs) in mine.iter_mut().zip(theirs.iter()) {
                mine.merge(theirs);
            }
        }
    }

    /// Forget everything recorded: afterwards the snapshot equals
    /// [`Snapshot::new`], having touched only the buckets it had filled
    /// ([`Histogram::clear`]). Stage histograms stay allocated for the
    /// next window to record into.
    pub fn clear(&mut self) {
        self.counters = Counters::default();
        self.response_us.clear();
        self.seek_cylinders.clear();
        self.queue_depth.clear();
        self.slack_us.clear();
        for stage in self.stage_ns.iter_mut().flat_map(|s| s.iter_mut()) {
            stage.clear();
        }
    }

    /// The `StageSpan` arm of [`Snapshot::emit_sampled`], out of line:
    /// no farm member emits one, and inline its allocation check costs
    /// every other event.
    #[cold]
    #[inline(never)]
    fn record_stage_span(&mut self, stage: Stage, elapsed_ns: u64, mask: u64) {
        if self.counters.stage_spans & mask == 0 {
            self.stage_ns.get_or_insert_with(Default::default)[stage.index()].record(elapsed_ns);
        }
        self.counters.stage_spans += 1;
    }

    /// Every distribution as a `(stable_name, histogram)` pair: the four
    /// paper-analysis distributions followed by one `stage_<name>_ns`
    /// entry per pipeline stage.
    pub fn histograms(&self) -> [(&'static str, &Histogram); 4 + Stage::COUNT] {
        [
            ("response_us", &self.response_us),
            ("seek_cylinders", &self.seek_cylinders),
            ("queue_depth", &self.queue_depth),
            ("slack_us", &self.slack_us),
            ("stage_characterize_ns", self.stage(Stage::Characterize)),
            ("stage_encapsulate_ns", self.stage(Stage::Encapsulate)),
            ("stage_enqueue_ns", self.stage(Stage::Enqueue)),
            ("stage_dispatch_ns", self.stage(Stage::Dispatch)),
            ("stage_service_ns", self.stage(Stage::Service)),
        ]
    }

    /// Record one event with the histogram updates gated by `mask`: the
    /// counters stay **exact** while distribution samples are taken on a
    /// deterministic 1-in-`mask + 1` stride of the per-kind count
    /// (`mask` must be `2^k - 1`; 0 records every sample and is exactly
    /// [`TraceSink::emit`]). This is the hot-path variant the windowed
    /// live sinks use to stay inside the telemetry overhead budget.
    #[inline(always)]
    pub fn emit_sampled(&mut self, event: &TraceEvent, mask: u64) {
        let c = &mut self.counters;
        match *event {
            TraceEvent::Arrival { .. } => c.arrivals += 1,
            TraceEvent::Dispatch {
                queue_depth,
                slack_us,
                ..
            } => {
                if c.dispatches & mask == 0 {
                    self.queue_depth.record(queue_depth);
                    self.slack_us.record(slack_us.max(0) as u64);
                }
                c.dispatches += 1;
            }
            TraceEvent::ServiceStart { seek_cylinders, .. } => {
                if c.service_starts & mask == 0 {
                    self.seek_cylinders.record(seek_cylinders as u64);
                }
                c.service_starts += 1;
            }
            TraceEvent::ServiceComplete {
                response_us, late, ..
            } => {
                if c.service_completes & mask == 0 {
                    self.response_us.record(response_us);
                }
                c.service_completes += 1;
                if late {
                    c.late_completions += 1;
                }
            }
            TraceEvent::Drop { .. } => c.drops += 1,
            TraceEvent::Preempt { .. } => c.preemptions += 1,
            TraceEvent::SpPromote { .. } => c.sp_promotions += 1,
            TraceEvent::ErExpand { .. } => c.er_expands += 1,
            TraceEvent::ErReset { .. } => c.er_resets += 1,
            TraceEvent::QueueSwap { .. } => c.queue_swaps += 1,
            TraceEvent::SweepReverse { .. } => c.sweep_reversals += 1,
            TraceEvent::MediaError { .. } => c.media_errors += 1,
            TraceEvent::Retry { .. } => c.retries += 1,
            TraceEvent::RequestFailed { .. } => c.request_failures += 1,
            TraceEvent::SectorRemap { .. } => c.sector_remaps += 1,
            TraceEvent::DegradedRead { .. } => c.degraded_reads += 1,
            TraceEvent::RebuildIo { .. } => c.rebuild_ios += 1,
            TraceEvent::Shed { .. } => c.sheds += 1,
            TraceEvent::Redirect { .. } => c.redirects += 1,
            TraceEvent::ShardReport { .. } => c.shard_reports += 1,
            TraceEvent::Migrate { .. } => c.migrations += 1,
            TraceEvent::Quarantine { .. } => c.quarantines += 1,
            TraceEvent::Retune { .. } => c.retunes += 1,
            TraceEvent::StageSpan {
                stage, elapsed_ns, ..
            } => self.record_stage_span(stage, elapsed_ns, mask),
        }
    }

    /// A human-readable multi-line report of the snapshot.
    pub fn report(&self) -> String {
        let c = &self.counters;
        let mut out = String::with_capacity(1024);
        let _ = writeln!(out, "events");
        let _ = writeln!(
            out,
            "  arrivals {}  dispatches {}  service {}/{}  late {}  drops {}",
            c.arrivals,
            c.dispatches,
            c.service_starts,
            c.service_completes,
            c.late_completions,
            c.drops
        );
        let _ = writeln!(
            out,
            "  preemptions {}  sp-promotions {}  er-expands {}  er-resets {}  \
             queue-swaps {}  sweep-reversals {}",
            c.preemptions,
            c.sp_promotions,
            c.er_expands,
            c.er_resets,
            c.queue_swaps,
            c.sweep_reversals
        );
        let faults = c.media_errors
            + c.retries
            + c.request_failures
            + c.sector_remaps
            + c.degraded_reads
            + c.rebuild_ios
            + c.sheds;
        if faults > 0 {
            let _ = writeln!(
                out,
                "  media-errors {}  retries {}  failures {}  remaps {}  \
                 degraded-reads {}  rebuild-ios {}  sheds {}",
                c.media_errors,
                c.retries,
                c.request_failures,
                c.sector_remaps,
                c.degraded_reads,
                c.rebuild_ios,
                c.sheds
            );
        }
        if c.redirects + c.shard_reports + c.migrations + c.quarantines + c.retunes > 0 {
            let _ = writeln!(
                out,
                "  redirects {}  shard-reports {}  migrations {}  quarantines {}  retunes {}",
                c.redirects, c.shard_reports, c.migrations, c.quarantines, c.retunes
            );
        }
        let hist =
            |out: &mut String, name: &str, unit: &str, h: &Histogram| match (h.min(), h.max()) {
                (Some(min), Some(max)) => {
                    let _ = writeln!(
                        out,
                        "{name}: n {}  mean {:.1}{unit}  p50 {}  p95 {}  p99 {}  \
                         p999 {}  min {min}  max {max}",
                        h.count(),
                        h.mean(),
                        h.p50().unwrap(),
                        h.p95().unwrap(),
                        h.p99().unwrap(),
                        h.p999().unwrap(),
                    );
                }
                _ => {
                    let _ = writeln!(out, "{name}: (no samples)");
                }
            };
        hist(&mut out, "response_us", "µs", &self.response_us);
        hist(&mut out, "seek_cylinders", "cyl", &self.seek_cylinders);
        hist(&mut out, "queue_depth", "", &self.queue_depth);
        hist(&mut out, "slack_us", "µs", &self.slack_us);
        if c.stage_spans > 0 {
            for stage in Stage::ALL {
                let name = format!("stage_{}_ns", stage.name());
                hist(&mut out, &name, "ns", self.stage(stage));
            }
        }
        out
    }
}

impl TraceSink for Snapshot {
    #[inline]
    fn emit(&mut self, event: &TraceEvent) {
        self.emit_sampled(event, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(s: &mut Snapshot) {
        feed_without_spans(s);
        s.emit(&TraceEvent::StageSpan {
            now_us: 87,
            stage: Stage::Dispatch,
            elapsed_ns: 250,
        });
    }

    /// One event of every kind a farm member emits: everything but the
    /// opt-in `StageSpan`.
    fn feed_without_spans(s: &mut Snapshot) {
        s.emit(&TraceEvent::Arrival {
            now_us: 0,
            req: 1,
            cylinder: 5,
            deadline_us: 100,
        });
        s.emit(&TraceEvent::Dispatch {
            now_us: 10,
            req: 1,
            cylinder: 5,
            queue_depth: 3,
            slack_us: -7,
        });
        s.emit(&TraceEvent::ServiceStart {
            now_us: 10,
            req: 1,
            cylinder: 5,
            seek_cylinders: 40,
        });
        s.emit(&TraceEvent::ServiceComplete {
            now_us: 30,
            req: 1,
            response_us: 30,
            late: true,
        });
        s.emit(&TraceEvent::Preempt {
            now_us: 31,
            preempted_v: 9,
            by_v: 2,
        });
        s.emit(&TraceEvent::ErExpand {
            now_us: 31,
            window: 8,
        });
        s.emit(&TraceEvent::QueueSwap {
            now_us: 40,
            batch: 2,
        });
        s.emit(&TraceEvent::ErReset {
            now_us: 40,
            window: 4,
        });
        s.emit(&TraceEvent::SpPromote { now_us: 41, v: 3 });
        s.emit(&TraceEvent::Drop {
            now_us: 50,
            req: 2,
            missed_by_us: 6,
        });
        s.emit(&TraceEvent::SweepReverse {
            now_us: 60,
            cylinder: 5,
        });
        s.emit(&TraceEvent::MediaError {
            now_us: 70,
            req: 3,
            attempt: 1,
            transient: true,
        });
        s.emit(&TraceEvent::Retry {
            now_us: 71,
            req: 3,
            attempt: 2,
            slack_us: 12,
        });
        s.emit(&TraceEvent::RequestFailed {
            now_us: 80,
            req: 3,
            attempts: 2,
        });
        s.emit(&TraceEvent::SectorRemap {
            now_us: 81,
            req: 4,
            penalty_us: 5_000,
        });
        s.emit(&TraceEvent::DegradedRead {
            now_us: 82,
            req: 5,
            failed_member: 2,
        });
        s.emit(&TraceEvent::RebuildIo {
            now_us: 83,
            stripe: 9,
            service_us: 1_500,
        });
        s.emit(&TraceEvent::Shed {
            now_us: 84,
            req: 6,
            v: 77,
        });
        s.emit(&TraceEvent::Redirect {
            now_us: 85,
            req: 7,
            from_shard: 0,
            to_shard: 3,
            queue_depth: 16,
        });
        s.emit(&TraceEvent::ShardReport {
            now_us: 86,
            shard: 3,
            served: 42,
            sheds: 1,
        });
        s.emit(&TraceEvent::Migrate {
            now_us: 86,
            req: 8,
            from_shard: 1,
            to_shard: 2,
        });
        s.emit(&TraceEvent::Quarantine {
            now_us: 87,
            shard: 2,
            until_us: 187,
        });
        s.emit(&TraceEvent::Retune {
            now_us: 88,
            shard: 1,
            knob: 2,
        });
    }

    #[test]
    fn records_every_event_kind() {
        let mut s = Snapshot::new();
        feed(&mut s);
        let c = s.counters;
        assert_eq!(
            (
                c.arrivals,
                c.dispatches,
                c.service_starts,
                c.service_completes
            ),
            (1, 1, 1, 1)
        );
        assert_eq!((c.late_completions, c.drops), (1, 1));
        assert_eq!(
            (c.preemptions, c.sp_promotions, c.er_expands, c.er_resets),
            (1, 1, 1, 1)
        );
        assert_eq!((c.queue_swaps, c.sweep_reversals), (1, 1));
        assert_eq!((c.media_errors, c.retries, c.request_failures), (1, 1, 1));
        assert_eq!(
            (c.sector_remaps, c.degraded_reads, c.rebuild_ios, c.sheds),
            (1, 1, 1, 1)
        );
        assert_eq!((c.redirects, c.shard_reports), (1, 1));
        assert_eq!((c.migrations, c.quarantines, c.retunes), (1, 1, 1));
        assert_eq!(c.stage_spans, 1);
        assert_eq!(c.total_events(), 24);
        assert_eq!(s.stage(Stage::Dispatch).max(), Some(250));
        assert_eq!(s.response_us.count(), 1);
        assert_eq!(s.seek_cylinders.max(), Some(40));
        assert_eq!(s.queue_depth.max(), Some(3));
        // Negative slack clamps to 0.
        assert_eq!(s.slack_us.max(), Some(0));
    }

    #[test]
    fn sampled_emit_keeps_counters_exact() {
        let mut exact = Snapshot::new();
        let mut sampled = Snapshot::new();
        for i in 0..100u64 {
            let e = TraceEvent::ServiceComplete {
                now_us: i,
                req: i,
                response_us: 10 + i,
                late: i % 2 == 0,
            };
            exact.emit(&e);
            sampled.emit_sampled(&e, 7);
        }
        assert_eq!(sampled.counters, exact.counters);
        assert_eq!(exact.response_us.count(), 100);
        // Pre-increment stride: samples at counts 0, 8, …, 96.
        assert_eq!(sampled.response_us.count(), 13);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = Snapshot::new();
        let mut b = Snapshot::new();
        feed(&mut a);
        feed(&mut b);
        let mut both = Snapshot::new();
        feed(&mut both);
        feed(&mut both);
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn report_mentions_the_headline_numbers() {
        let mut s = Snapshot::new();
        feed(&mut s);
        let r = s.report();
        assert!(r.contains("preemptions 1"));
        assert!(r.contains("response_us"));
        assert!(r.contains("sweep-reversals 1"));
        assert!(r.contains("degraded-reads 1"));
        assert!(r.contains("sheds 1"));
        assert!(r.contains("redirects 1"));
        // Empty histogram branch renders too — and a fault-free snapshot
        // omits the fault-counter line entirely.
        let empty = Snapshot::new().report();
        assert!(empty.contains("(no samples)"));
        assert!(!empty.contains("media-errors"));
    }

    #[test]
    fn a_snapshot_stays_under_two_and_a_half_kilobytes() {
        // Four inline histograms and the counters; the five stage
        // histograms (2,800 bytes) are behind a pointer. A farm holds 41
        // of these a member.
        assert!(std::mem::size_of::<Snapshot>() <= 2_560);
    }

    #[test]
    fn absent_stage_histograms_are_empty_ones() {
        let mut absent = Snapshot::new();
        feed_without_spans(&mut absent);
        assert!(absent.stage_ns.is_none());
        assert_eq!(absent.stage(Stage::Service), &Histogram::new());
        // Present but never recorded into: a window that held a span,
        // recycled.
        let mut emptied = Snapshot::new();
        feed(&mut emptied);
        emptied.clear();
        assert!(emptied.stage_ns.is_some());
        assert_eq!(emptied, Snapshot::new());
        assert_eq!(Snapshot::new(), emptied);
        feed_without_spans(&mut emptied);
        assert_eq!(emptied, absent);
        // Present and recorded into differs, from either side.
        let mut spanned = Snapshot::new();
        feed(&mut spanned);
        assert_ne!(spanned, absent);
        assert_ne!(absent, spanned);
        assert_ne!(spanned, emptied);
        // Merging across the three: the spans arrive whichever side held
        // them, and an empty operand adds nothing.
        let mut twice = Snapshot::new();
        feed(&mut twice);
        feed_without_spans(&mut twice);
        for (mut into, from) in [
            (absent.clone(), &spanned),
            (spanned.clone(), &absent),
            (spanned.clone(), &emptied),
            (emptied.clone(), &spanned),
        ] {
            into.merge(from);
            assert_eq!(into, twice);
        }
        let mut both_absent = absent.clone();
        both_absent.merge(&absent);
        assert!(both_absent.stage_ns.is_none(), "nothing to allocate for");
        both_absent.merge(&emptied);
        let mut thrice = Snapshot::new();
        (0..3).for_each(|_| feed_without_spans(&mut thrice));
        assert_eq!(both_absent, thrice);
    }

    /// What PR 22's dense snapshot rendered for `feed_without_spans`,
    /// after its 50 counter lines.
    const EXPOSITION_TAIL: &str = "\
# TYPE sched_response_us histogram
sched_response_us_bucket{shard=\"3\",le=\"31\"} 1
sched_response_us_bucket{shard=\"3\",le=\"+Inf\"} 1
sched_response_us_sum{shard=\"3\"} 30
sched_response_us_count{shard=\"3\"} 1
# TYPE sched_seek_cylinders histogram
sched_seek_cylinders_bucket{shard=\"3\",le=\"63\"} 1
sched_seek_cylinders_bucket{shard=\"3\",le=\"+Inf\"} 1
sched_seek_cylinders_sum{shard=\"3\"} 40
sched_seek_cylinders_count{shard=\"3\"} 1
# TYPE sched_queue_depth histogram
sched_queue_depth_bucket{shard=\"3\",le=\"3\"} 1
sched_queue_depth_bucket{shard=\"3\",le=\"+Inf\"} 1
sched_queue_depth_sum{shard=\"3\"} 3
sched_queue_depth_count{shard=\"3\"} 1
# TYPE sched_slack_us histogram
sched_slack_us_bucket{shard=\"3\",le=\"0\"} 1
sched_slack_us_bucket{shard=\"3\",le=\"+Inf\"} 1
sched_slack_us_sum{shard=\"3\"} 0
sched_slack_us_count{shard=\"3\"} 1
";

    /// And its `report()` of the same.
    const REPORT: &str = "\
events
  arrivals 1  dispatches 1  service 1/1  late 1  drops 1
  preemptions 1  sp-promotions 1  er-expands 1  er-resets 1  queue-swaps 1  sweep-reversals 1
  media-errors 1  retries 1  failures 1  remaps 1  degraded-reads 1  rebuild-ios 1  sheds 1
  redirects 1  shard-reports 1  migrations 1  quarantines 1  retunes 1
response_us: n 1  mean 30.0µs  p50 30  p95 30  p99 30  p999 30  min 30  max 30
seek_cylinders: n 1  mean 40.0cyl  p50 40  p95 40  p99 40  p999 40  min 40  max 40
queue_depth: n 1  mean 3.0  p50 3  p95 3  p99 3  p999 3  min 3  max 3
slack_us: n 1  mean 0.0µs  p50 0  p95 0  p99 0  p999 0  min 0  max 0
";

    #[test]
    fn a_snapshot_without_spans_renders_as_the_dense_one_did() {
        let mut absent = Snapshot::new();
        feed_without_spans(&mut absent);
        let mut emptied = Snapshot::new();
        feed(&mut emptied);
        emptied.clear();
        feed_without_spans(&mut emptied);
        for s in [&absent, &emptied] {
            assert_eq!(s.report(), REPORT);
            let mut out = String::new();
            crate::encode_snapshot(&mut out, "sched", &[("shard", "3")], s);
            assert!(out.ends_with(EXPOSITION_TAIL), "{out}");
            assert_eq!(out.lines().count(), 50 + EXPOSITION_TAIL.lines().count());
            assert!(!out.contains("_ns"), "no stage series without a span");
        }
    }
}
