//! The aggregate view of a trace: counters plus histograms, itself a
//! [`TraceSink`] so it can record directly or sit on one arm of a
//! [`crate::Tee`] next to a raw-timeline sink.

use crate::event::TraceEvent;
use crate::hist::Histogram;
use crate::sink::TraceSink;
use std::fmt::Write as _;

/// Generates [`Counters`] and its per-field methods from one row per
/// counter, in [`Counters::items`] order.
macro_rules! counter_table {
    (
        $(#[$meta:meta])*
        pub struct Counters {
            $( $(#[$fmeta:meta])* $field:ident, )*
        }
    ) => {
        $(#[$meta])*
        pub struct Counters {
            $( $(#[$fmeta])* pub $field: u64, )*
        }

        /// How many counters [`Counters`] holds.
        const COUNTERS: usize = [$(stringify!($field)),*].len();

        impl Counters {
            /// Add another set of counters into this one.
            pub fn merge(&mut self, other: &Counters) {
                $( self.$field += other.$field; )*
            }

            /// What was counted since `earlier`, an older reading of the
            /// same counters: the inverse of [`Counters::merge`]. Counters
            /// only grow, so every difference is exact.
            pub fn since(&self, earlier: &Counters) -> Counters {
                Counters {
                    $( $field: self.$field - earlier.$field, )*
                }
            }

            /// Every counter as a `(stable_name, value)` pair, in
            /// declaration order — the iteration base for the event
            /// total.
            pub fn items(&self) -> [(&'static str, u64); COUNTERS] {
                [ $( (stringify!($field), self.$field), )* ]
            }
        }
    };
}

counter_table! {
    /// One counter per event kind (plus late completions, split out of
    /// `service_completes` because they are the §6 loss signal).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct Counters {
        /// `Arrival` events.
        arrivals,
        /// `ServiceStart` events.
        service_starts,
        /// `ServiceComplete` events.
        service_completes,
        /// `ServiceComplete` events with `late` set.
        late_completions,
        /// `Drop` events.
        drops,
        /// `Preempt` events.
        preemptions,
        /// `SpPromote` events.
        sp_promotions,
        /// `ErExpand` events.
        er_expands,
        /// `ErReset` events.
        er_resets,
        /// `QueueSwap` events.
        queue_swaps,
        /// `SweepReverse` events.
        sweep_reversals,
        /// `MediaError` events (transient + bad-sector discoveries).
        media_errors,
        /// `Retry` events.
        retries,
        /// `RequestFailed` events (retry budget exhausted).
        request_failures,
        /// `SectorRemap` events.
        sector_remaps,
        /// `Shed` events (bounded-queue overload drops).
        sheds,
        /// `Redirect` events (farm router overload redirections).
        redirects,
        /// `Migrate` events (drained-shard in-flight handoffs).
        migrations,
        /// `Quarantine` events (supervisor pulled a shard from routing).
        quarantines,
        /// `Retune` events (control plane applied a live knob/policy change).
        retunes,
    }
}

impl Counters {
    /// Total events these counters witnessed. Every event increments
    /// exactly one counter; `late_completions` is taken back out because
    /// it is a sub-count of `service_completes`, not an event kind of its
    /// own.
    pub fn total_events(&self) -> u64 {
        let all: u64 = self.items().iter().map(|&(_, v)| v).sum();
        all - self.late_completions
    }
}

/// Aggregated observations of one (or, after [`Snapshot::merge`],
/// several) traced runs: event counters and the four distribution
/// histograms the paper's analysis cares about.
///
/// Mergeability is the point: a farm keeps one per shard and folds the
/// shards' snapshots into one farm view.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Event counts.
    pub counters: Counters,
    /// Response time of completed requests (µs, from `ServiceComplete`).
    pub response_us: Histogram,
    /// Seek distance per service (cylinders, from `ServiceStart`).
    pub seek_cylinders: Histogram,
    /// Pending-queue depth at each dispatch (from `ServiceStart` and
    /// `Drop`).
    pub queue_depth: Histogram,
    /// Slack at dispatch (µs, from `ServiceStart` and `Drop`), clamped at
    /// 0: past-due dispatches, every drop among them, record 0.
    pub slack_us: Histogram,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Snapshot::default()
    }

    /// Fold another snapshot into this one (exact: counters add,
    /// histograms concatenate).
    pub fn merge(&mut self, other: &Snapshot) {
        self.counters.merge(&other.counters);
        self.response_us.merge(&other.response_us);
        self.seek_cylinders.merge(&other.seek_cylinders);
        self.queue_depth.merge(&other.queue_depth);
        self.slack_us.merge(&other.slack_us);
    }

    /// Forget everything recorded: afterwards the snapshot equals
    /// [`Snapshot::new`], having touched only the buckets it had filled
    /// ([`Histogram::clear`]).
    pub fn clear(&mut self) {
        self.counters = Counters::default();
        self.response_us.clear();
        self.seek_cylinders.clear();
        self.queue_depth.clear();
        self.slack_us.clear();
    }

    /// Record one event with the histogram updates gated by `mask`: the
    /// counters stay **exact** while distribution samples are taken on a
    /// deterministic 1-in-`mask + 1` stride of the per-kind count
    /// (`mask` must be `2^k - 1`; 0 records every sample and is exactly
    /// [`TraceSink::emit`]). This is the hot-path variant the windowed
    /// live sinks use to stay inside the telemetry overhead budget.
    ///
    /// Every dispatch ends in one `ServiceStart` or one `Drop`, so the
    /// queue-depth and slack samples stride over their sum, the number of
    /// dispatches so far.
    #[inline(always)]
    pub fn emit_sampled(&mut self, event: &TraceEvent, mask: u64) {
        let c = &mut self.counters;
        match *event {
            TraceEvent::Arrival { .. } => c.arrivals += 1,
            TraceEvent::ServiceStart {
                seek_cylinders,
                queue_depth,
                slack_us,
                ..
            } => {
                if (c.service_starts + c.drops) & mask == 0 {
                    self.queue_depth.record(queue_depth);
                    self.slack_us.record(slack_us.max(0) as u64);
                }
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
            TraceEvent::Drop { queue_depth, .. } => {
                if (c.service_starts + c.drops) & mask == 0 {
                    self.queue_depth.record(queue_depth);
                    // Slack `−missed_by_us` clamps to 0.
                    self.slack_us.record(0);
                }
                c.drops += 1;
            }
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
            TraceEvent::Shed { .. } => c.sheds += 1,
            TraceEvent::Redirect { .. } => c.redirects += 1,
            TraceEvent::Migrate { .. } => c.migrations += 1,
            TraceEvent::Quarantine { .. } => c.quarantines += 1,
            TraceEvent::Retune { .. } => c.retunes += 1,
        }
    }

    /// A human-readable multi-line report of the snapshot.
    pub fn report(&self) -> String {
        let c = &self.counters;
        let mut out = String::with_capacity(1024);
        let _ = writeln!(out, "events");
        let _ = writeln!(
            out,
            "  arrivals {}  service {}/{}  late {}  drops {}",
            c.arrivals, c.service_starts, c.service_completes, c.late_completions, c.drops
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
        let faults = c.media_errors + c.retries + c.request_failures + c.sector_remaps + c.sheds;
        if faults > 0 {
            let _ = writeln!(
                out,
                "  media-errors {}  retries {}  failures {}  remaps {}  sheds {}",
                c.media_errors, c.retries, c.request_failures, c.sector_remaps, c.sheds
            );
        }
        if c.redirects + c.migrations + c.quarantines + c.retunes > 0 {
            let _ = writeln!(
                out,
                "  redirects {}  migrations {}  quarantines {}  retunes {}",
                c.redirects, c.migrations, c.quarantines, c.retunes
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

    /// One event of every kind.
    fn feed(s: &mut Snapshot) {
        for (e, _) in crate::event::tests::GOLDEN {
            s.emit(&e);
        }
    }

    #[test]
    fn records_every_event_kind() {
        let mut s = Snapshot::new();
        feed(&mut s);
        let c = s.counters;
        assert_eq!(
            (c.arrivals, c.service_starts, c.service_completes),
            (1, 1, 1)
        );
        assert_eq!((c.late_completions, c.drops), (1, 1));
        assert_eq!(
            (c.preemptions, c.sp_promotions, c.er_expands, c.er_resets),
            (1, 1, 1, 1)
        );
        assert_eq!((c.queue_swaps, c.sweep_reversals), (1, 1));
        assert_eq!((c.media_errors, c.retries, c.request_failures), (1, 1, 1));
        assert_eq!((c.sector_remaps, c.sheds), (1, 1));
        assert_eq!(c.redirects, 1);
        assert_eq!((c.migrations, c.quarantines, c.retunes), (1, 1, 1));
        assert_eq!(c.total_events(), 19);
        assert_eq!(s.response_us.count(), 1);
        assert_eq!(s.seek_cylinders.max(), Some(40));
        // The service start and the drop both sample the dispatch-time
        // distributions.
        assert_eq!((s.queue_depth.count(), s.queue_depth.max()), (2, Some(3)));
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
        // Clearing restores `new()`, and an emptied operand adds nothing.
        b.clear();
        assert_eq!(b, Snapshot::new());
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
        assert!(r.contains("remaps 1"));
        assert!(r.contains("sheds 1"));
        assert!(r.contains("redirects 1"));
        // Empty histogram branch renders too — and a fault-free snapshot
        // omits the fault-counter line entirely.
        let empty = Snapshot::new().report();
        assert!(empty.contains("(no samples)"));
        assert!(!empty.contains("media-errors"));
    }

    #[test]
    fn a_snapshot_is_its_counters_and_four_histogram_headers() {
        // 20 eight-byte counters and four 80-byte histogram headers, whose
        // buckets live in spans on the heap: 20 × 8 + 4 × 80 = 480 bytes.
        // A farm holds 41 of these a member, so a counter more is 328
        // bytes a member and has to show up here.
        assert_eq!(std::mem::size_of::<Counters>(), 20 * 8);
        assert_eq!(std::mem::size_of::<Snapshot>(), 480);
    }

    #[test]
    fn a_trace_event_is_forty_eight_bytes() {
        // A dump copies up to its recorder's capacity of events out of
        // the flight ring, so a member's held dumps weigh up to
        // DUMP_RETENTION × capacity × 48 B: one fatter variant would grow
        // every farm's post-mortems with it.
        assert_eq!(std::mem::size_of::<TraceEvent>(), 48);
    }

    /// The `report()` of `feed`'s snapshot.
    const REPORT: &str = "\
events
  arrivals 1  service 1/1  late 1  drops 1
  preemptions 1  sp-promotions 1  er-expands 1  er-resets 1  queue-swaps 1  sweep-reversals 1
  media-errors 1  retries 1  failures 1  remaps 1  sheds 1
  redirects 1  migrations 1  quarantines 1  retunes 1
response_us: n 1  mean 30.0µs  p50 30  p95 30  p99 30  p999 30  min 30  max 30
seek_cylinders: n 1  mean 40.0cyl  p50 40  p95 40  p99 40  p999 40  min 40  max 40
queue_depth: n 2  mean 3.0  p50 3  p95 3  p99 3  p999 3  min 3  max 3
slack_us: n 2  mean 0.0µs  p50 0  p95 0  p99 0  p999 0  min 0  max 0
";

    #[test]
    fn fresh_and_recycled_snapshots_render_the_same_goldens() {
        let mut fresh = Snapshot::new();
        feed(&mut fresh);
        let mut recycled = Snapshot::new();
        feed(&mut recycled);
        recycled.clear();
        feed(&mut recycled);
        for s in [&fresh, &recycled] {
            assert_eq!(s.report(), REPORT);
        }
    }
}
