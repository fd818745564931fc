//! Property-based tests of the windowed-telemetry invariants.
//!
//! A [`WindowedSnapshot`] partitions one event stream by time but must
//! never lose or duplicate anything: its cumulative view has to equal a
//! plain [`Snapshot`] of the same stream bit-for-bit, and draining
//! deltas at any cadence has to sum back to the whole. The properties
//! are exercised over randomly drawn event streams — including
//! out-of-order timestamps, which rotation must tolerate — and randomly
//! drawn window shapes. The flight recorder's dump deltas lean on one
//! more: subtracting a counter checkpoint undoes a merge exactly.

use obs::{Snapshot, Stage, TraceEvent, TraceSink, WindowedSnapshot};
use proptest::prelude::*;

/// Strategy: one trace event with an arbitrary timestamp. Covers the
/// variants that exercise every aggregation path: counters only
/// (`Arrival`, `Shed`, `Redirect`), histogram feeders (`ServiceComplete`
/// for response/lateness, `Dispatch` for queue depth and slack,
/// `ServiceStart` for seeks, `StageSpan` for stage timings), and the
/// farm roll-up (`ShardReport`).
fn event() -> impl Strategy<Value = TraceEvent> {
    (0u8..7, 0u64..200_000, any::<u64>(), any::<u32>()).prop_map(
        |(kind, now_us, a, b)| match kind {
            0 => TraceEvent::Arrival {
                now_us,
                req: a,
                cylinder: b,
                deadline_us: now_us + 1000,
            },
            1 => TraceEvent::Dispatch {
                now_us,
                req: a,
                cylinder: b,
                queue_depth: a % 64,
                slack_us: (a % 10_000) as i64 - 5000,
            },
            2 => TraceEvent::ServiceStart {
                now_us,
                req: a,
                cylinder: b,
                seek_cylinders: b % 4000,
            },
            3 => TraceEvent::ServiceComplete {
                now_us,
                req: a,
                response_us: a % 100_000,
                late: a % 3 == 0,
            },
            4 => TraceEvent::Shed {
                now_us,
                req: a,
                v: a as u128,
            },
            5 => TraceEvent::Redirect {
                now_us,
                req: a,
                from_shard: b % 8,
                to_shard: (b + 1) % 8,
                queue_depth: a % 64,
            },
            _ => TraceEvent::StageSpan {
                now_us,
                stage: Stage::ALL[(b as usize) % Stage::ALL.len()],
                elapsed_ns: a % 1_000_000,
            },
        },
    )
}

/// Strategy: an event stream long enough to force several rotations at
/// small window widths, with no ordering guarantee on timestamps.
fn stream() -> impl Strategy<Value = Vec<TraceEvent>> {
    prop::collection::vec(event(), 0..200)
}

fn feed<S: TraceSink>(sink: &mut S, events: &[TraceEvent]) {
    for e in events {
        sink.emit(e);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Rotation and retirement never lose counts: with decimation off,
    /// the windowed cumulative equals a plain snapshot of the same
    /// stream, and so does the sum of every flushed delta.
    #[test]
    fn rotation_never_loses_counts(
        events in stream(),
        window_log2 in 4u32..24,
        depth in 1usize..5,
    ) {
        let mut plain = Snapshot::new();
        feed(&mut plain, &events);

        let mut windowed = WindowedSnapshot::new(window_log2, depth);
        feed(&mut windowed, &events);
        prop_assert_eq!(windowed.cumulative(), plain.clone());

        let mut summed = Snapshot::new();
        for d in windowed.flush() {
            summed.merge(&d.snapshot);
        }
        prop_assert_eq!(summed, plain);
    }

    /// Draining deltas mid-stream at any cadence, then flushing the
    /// tail, reproduces the cumulative aggregate exactly — no event is
    /// lost or double-counted across a `take_deltas` boundary.
    #[test]
    fn polling_cadence_is_invariant(
        events in stream(),
        window_log2 in 4u32..20,
        poll_every in 1usize..40,
    ) {
        let mut windowed = WindowedSnapshot::new(window_log2, 3);
        let mut polled = Snapshot::new();
        for chunk in events.chunks(poll_every) {
            feed(&mut windowed, chunk);
            for d in windowed.take_deltas() {
                polled.merge(&d.snapshot);
            }
        }
        for d in windowed.flush() {
            polled.merge(&d.snapshot);
        }
        prop_assert_eq!(polled, windowed.cumulative());
    }

    /// `Counters::since` is the inverse of `Counters::merge`: merging
    /// `b` into a copy of `a` and subtracting `a` gives `b` back, which
    /// is what makes a flight-recorder dump's delta (cumulative counters
    /// minus the checkpoint at the previous dump) exact.
    #[test]
    fn counters_since_inverts_merge(a_events in stream(), b_events in stream()) {
        let (mut a, mut b) = (Snapshot::new(), Snapshot::new());
        feed(&mut a, &a_events);
        feed(&mut b, &b_events);
        let mut sum = a.counters;
        sum.merge(&b.counters);
        prop_assert_eq!(sum.since(&a.counters), b.counters);
        prop_assert_eq!(sum.since(&b.counters), a.counters);
    }
}
