//! # obs — event-trace and histogram observability for the scheduler stack
//!
//! A zero-dependency layer the rest of the workspace threads through the
//! dispatcher, the baseline schedulers and the simulation engine:
//!
//! * [`TraceEvent`] — the event taxonomy, 19 kinds generated from one
//!   table: arrivals, service starts/completions, drops, preemptions, SP
//!   promotions, ER expand/reset, queue swaps, sweep reversals, the
//!   fault path (media errors, retries, failures, remaps), sheds, and
//!   the farm's redirects, migrations, quarantines and retunes;
//! * [`TraceSink`] — the consumer contract, with
//!   [`NullSink`] (free: instrumentation compiles out),
//!   [`RingSink`] (bounded in-memory tail), [`Tee`] (duplicate), and
//!   [`SharedSink`] (one stream shared by several layers);
//! * [`Histogram`] — log₂-bucketed distributions with
//!   p50/p95/p99/p999, and [`nearest_rank`], the exact percentile the
//!   analysis code shares;
//! * [`Snapshot`] — counters + histograms, itself a sink, mergeable
//!   across a farm's shards. Its [`Counters`] are the only count of
//!   what the events carry: the engine's `sim::Metrics` keeps no
//!   media-error, retry or remap count,
//!   and the cascade dispatcher none of its preemptions, SP promotions
//!   or queue swaps, so a caller that wants them attaches a `Snapshot`
//!   as the sink.
//!
//! On top of the cumulative layer sits the **live telemetry plane**:
//!
//! * [`WindowedSnapshot`] — rotating time-window aggregation (current
//!   window + recent live range + retired accumulator) with a lossless
//!   [`WindowDelta`] stream for mid-run reporting;
//! * [`TelemetryConfig`] — the shape of one shard's windowed sink, and
//!   [`ShardDelta`], the unit of the per-shard delta feed;
//! * [`FlightRecorder`] — a bounded tail of recent events, kept in a
//!   [`FlightRing`] that a farm's recorders share, with anomaly
//!   triggers ([`TriggerConfig`]) that freeze reconciled [`DumpRecord`]s
//!   for post-mortems.
//!
//! The overhead contract: instrumented code guards every emission on
//! `S::ENABLED`, so with the default [`NullSink`] the instrumented paths
//! monomorphize to the uninstrumented machine code — and the live plane
//! itself is budgeted: CI gates the fully-instrumented hot path within
//! 5% of the `NullSink` baseline (`bench perf`).
//!
//! ```
//! use obs::{RingSink, Snapshot, Tee, TraceEvent, TraceSink};
//!
//! let mut sink = Tee::new(Snapshot::new(), RingSink::new(1024));
//! sink.emit(&TraceEvent::QueueSwap { now_us: 10, batch: 3 });
//! let (snapshot, ring) = sink.into_inner();
//! assert_eq!(snapshot.counters.queue_swaps, 1);
//! assert_eq!(ring.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod event;
mod hist;
mod recorder;
mod sink;
mod snapshot;
mod window;

pub use event::TraceEvent;
pub use hist::{nearest_rank, Histogram, HISTOGRAM_BUCKETS};
pub use recorder::{Anomaly, DumpRecord, FlightRecorder, TriggerConfig, DUMP_RETENTION};
pub use sink::{FlightRing, NullSink, RingSink, SharedSink, Tee, TraceSink};
pub use snapshot::{Counters, Snapshot};
pub use window::{
    ShardDelta, TelemetryConfig, WindowDelta, WindowedSnapshot, DEFAULT_DEPTH,
    DEFAULT_SAMPLE_SHIFT, DEFAULT_WINDOW_LOG2,
};
