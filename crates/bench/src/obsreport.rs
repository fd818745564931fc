//! Telemetry stream harness — the `obsreport` subcommand.
//!
//! Not a paper figure: this is the operational face of the live
//! telemetry plane. One seeded overloaded farm run (bounded-queue
//! cascades, hash routing with redirect-on-overload) is executed with
//! one windowed live sink per shard at the live plane's default
//! histogram stride ([`obs::DEFAULT_SAMPLE_SHIFT`]). The per-shard sinks
//! are then drained and printed as one JSONL line per completed window
//! per shard (epoch, start, width, exact counters, and response p50/p99
//! when the window saw completions), followed by one `summary` line.
//! This is the feed a control plane polls mid-run via
//! [`WindowedSnapshot::take_deltas`].
//!
//! The output is deterministic given `--seed`. That the windowed sinks
//! reproduce a plain [`obs::Snapshot`] farm run bit for bit, and that
//! every shard's window deltas sum to its cumulative, is asserted by the
//! farm crate's `per_shard_windowed_sinks_reconcile_with_the_merged_snapshot`.

use crate::vod;
use farm::{simulate_farm_traced, FarmConfig, FarmOutcome, RoutePolicy};
use obs::{ShardDelta, TelemetryConfig, WindowedSnapshot};
use std::fmt::Write as _;

/// Scenario parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// RNG seed (workload generation).
    pub seed: u64,
    /// Concurrent MPEG-1 streams feeding the farm.
    pub streams: u32,
    /// Simulated duration (µs).
    pub duration_us: u64,
    /// Bounded-queue capacity per shard scheduler.
    pub max_queue: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: crate::DEFAULT_SEED,
            // Just past the aggregate capacity of four Table-1 disks, so
            // the stream carries sheds and redirects, not just happy-path
            // service events.
            streams: 90,
            duration_us: 10_000_000,
            max_queue: 24,
        }
    }
}

/// Farm shards.
const SHARDS: usize = 4;
/// log₂ of the telemetry window width (µs of simulated time): 2^19 µs ≈
/// 0.52 s windows, ~19 completed windows over the run, enough to make
/// the stream a stream.
const WINDOW_LOG2: u32 = 19;

/// Run the scenario with one windowed sink per shard. The sinks come
/// back in shard order, still holding every shard's cumulative and live
/// state; [`flush`] drains their window deltas.
pub fn run(cfg: &Config) -> (FarmOutcome, Vec<WindowedSnapshot>) {
    let telemetry = TelemetryConfig::default().window_log2(WINDOW_LOG2);
    simulate_farm_traced(
        &vod::trace(cfg.streams, cfg.duration_us, cfg.seed),
        &FarmConfig::new(SHARDS)
            .with_policy(RoutePolicy::HashStream)
            .with_redirects(),
        |_| vod::bounded_scheduler(cfg.max_queue),
        vod::options(),
        |_| telemetry.sink(),
    )
}

/// Close every shard's books ([`WindowedSnapshot::flush`]) and drain
/// everything, shard-major and oldest-first within a shard, final
/// partial windows included.
pub fn flush(sinks: &mut [WindowedSnapshot]) -> Vec<ShardDelta> {
    let mut out = Vec::new();
    for (shard, sink) in sinks.iter_mut().enumerate() {
        out.extend(
            sink.flush()
                .into_iter()
                .map(|delta| ShardDelta { shard, delta }),
        );
    }
    out
}

/// Render drained window deltas as JSONL, one line per window.
pub fn render_windows_jsonl(deltas: &[ShardDelta]) -> String {
    let mut out = String::with_capacity(deltas.len() * 256);
    for d in deltas {
        let w = &d.delta;
        let _ = write!(
            out,
            "{{\"record\":\"window\",\"shard\":{},\"epoch\":{},\"start_us\":{},\
             \"window_us\":{},\"partial\":{}",
            d.shard, w.epoch, w.start_us, w.window_us, w.partial
        );
        if let (Some(p50), Some(p99)) = (w.snapshot.response_us.p50(), w.snapshot.response_us.p99())
        {
            let _ = write!(out, ",\"response_p50_us\":{p50},\"response_p99_us\":{p99}");
        }
        let _ = write!(out, ",\"counters\":");
        w.snapshot.counters.write_json(&mut out);
        out.push_str("}\n");
    }
    out
}

/// Render the end-of-run summary line appended to the stream output.
pub fn render_summary_jsonl(outcome: &FarmOutcome, sinks: &[WindowedSnapshot]) -> String {
    let events: u64 = sinks
        .iter()
        .map(|s| s.cumulative().counters.total_events())
        .sum();
    format!(
        "{{\"record\":\"summary\",\"shards\":{},\"served\":{},\"losses\":{},\
         \"sheds\":{},\"redirects\":{},\"makespan_us\":{},\"events\":{}}}\n",
        sinks.len(),
        outcome.served(),
        outcome.losses(),
        outcome.sheds(),
        outcome.redirects,
        outcome.makespan_us,
        events,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Config {
        Config {
            streams: 40,
            duration_us: 2_000_000,
            ..Config::default()
        }
    }

    #[test]
    fn stream_output_has_windows_and_a_summary() {
        let cfg = quick();
        let (outcome, mut sinks) = run(&cfg);
        let deltas = flush(&mut sinks);
        assert!(!deltas.is_empty());
        let jsonl = render_windows_jsonl(&deltas);
        assert!(jsonl.lines().count() >= deltas.len());
        assert!(jsonl.starts_with("{\"record\":\"window\",\"shard\":0,"));
        assert!(jsonl.contains("\"counters\":{\"arrivals\":"));
        let summary = render_summary_jsonl(&outcome, &sinks);
        assert!(summary.starts_with("{\"record\":\"summary\""));
        assert!(summary.contains("\"shards\":4"));
    }
}
