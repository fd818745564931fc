//! Telemetry stream harness — the `obsreport` subcommand.
//!
//! Not a paper figure: this is the operational face of the live
//! telemetry plane. One seeded overloaded farm (bounded-queue cascades,
//! hash routing with redirect-on-overload) runs on the farm daemon with
//! its anomaly triggers off, each member's recorder keeping windowed
//! telemetry at the live plane's default histogram stride
//! ([`obs::DEFAULT_SAMPLE_SHIFT`]). Every recorder's windows are then
//! flushed and printed as one JSONL line per window per shard (epoch,
//! start, width, exact counters, and response p50/p99 when the window
//! saw completions), followed by one `summary` line. This is the feed a
//! control plane polls mid-run via [`farm::FarmDaemon::take_shard_deltas`].
//!
//! The output is deterministic given `--seed`. Every event lands in the
//! window of its own time: each shard prints every epoch of the run, and
//! the windows' arrivals and sheds add up to the trace and the report
//! (this module's tests).

use crate::vod;
use farm::{DaemonConfig, DaemonEvent, DaemonReport, FarmConfig, FarmDaemon, RoutePolicy};
use obs::{ShardDelta, TelemetryConfig, TriggerConfig};
use sim::DiskService;
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
/// 0.52 s windows, 20 windows over the run, enough to make the stream a
/// stream.
const WINDOW_LOG2: u32 = 19;

/// Run the scenario on the daemon. The report's recorders come back in
/// shard order, still holding every shard's cumulative and live
/// telemetry; [`flush`] drains their window deltas.
pub fn run(cfg: &Config) -> DaemonReport {
    let telemetry = TelemetryConfig::default().window_log2(WINDOW_LOG2);
    let farm = FarmConfig::new(SHARDS)
        .with_policy(RoutePolicy::HashStream)
        .with_redirects();
    let max_queue = cfg.max_queue;
    let daemon = FarmDaemon::new(
        DaemonConfig::new(farm, vod::options()).with_telemetry(telemetry, TriggerConfig::quiet()),
        move |_, sink| vod::sinked_scheduler(max_queue, sink),
        |_| DiskService::table1(),
    );
    let trace = vod::trace(cfg.streams, cfg.duration_us, cfg.seed);
    daemon.run(trace.into_iter().map(DaemonEvent::Arrival))
}

/// Close every shard's books ([`obs::WindowedSnapshot::flush`]) and drain
/// everything, shard-major and oldest-first within a shard, final
/// partial windows included.
pub fn flush(report: &mut DaemonReport) -> Vec<ShardDelta> {
    let mut out = Vec::new();
    for (shard, recorder) in report.recorders.iter_mut().enumerate() {
        out.extend(
            recorder
                .windows_mut()
                .flush()
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
pub fn render_summary_jsonl(report: &DaemonReport) -> String {
    let events: u64 = report
        .recorders
        .iter()
        .map(|r| r.windows().cumulative_counters().total_events())
        .sum();
    format!(
        "{{\"record\":\"summary\",\"shards\":{},\"served\":{},\"losses\":{},\
         \"sheds\":{},\"redirects\":{},\"makespan_us\":{},\"events\":{}}}\n",
        report.recorders.len(),
        report.served(),
        report.aggregate().losses_total(),
        report.sheds(),
        report.redirects,
        report.makespan_us,
        events,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_output_has_windows_and_a_summary() {
        let cfg = Config {
            streams: 40,
            duration_us: 2_000_000,
            ..Config::default()
        };
        let mut report = run(&cfg);
        let deltas = flush(&mut report);
        assert!(!deltas.is_empty());
        let jsonl = render_windows_jsonl(&deltas);
        assert!(jsonl.lines().count() >= deltas.len());
        assert!(jsonl.starts_with("{\"record\":\"window\",\"shard\":0,"));
        assert!(jsonl.contains("\"counters\":{\"arrivals\":"));
        let summary = render_summary_jsonl(&report);
        assert!(summary.starts_with("{\"record\":\"summary\""));
        assert!(summary.contains("\"shards\":4"));
    }

    /// Every event is counted in the window of its own time: each shard
    /// reports every epoch of the run, each epoch's arrivals over the
    /// shards are the trace's arrivals in that epoch, and the stream
    /// counts every shed the report does.
    #[test]
    fn every_event_lands_in_the_window_of_its_time() {
        let cfg = Config::default();
        let trace = vod::trace(cfg.streams, cfg.duration_us, cfg.seed);
        let mut report = run(&cfg);
        let deltas = flush(&mut report);
        for shard in 0..SHARDS {
            let epochs: Vec<u64> = deltas
                .iter()
                .filter(|d| d.shard == shard)
                .map(|d| d.delta.epoch)
                .collect();
            assert_eq!(epochs, (0..=19).collect::<Vec<u64>>(), "shard {shard}");
        }
        let mut arrivals = [0u64; 20];
        for d in &deltas {
            arrivals[d.delta.epoch as usize] += d.delta.snapshot.counters.arrivals;
        }
        let mut expected = [0u64; 20];
        for r in &trace {
            expected[(r.arrival_us >> WINDOW_LOG2) as usize] += 1;
        }
        assert_eq!(arrivals, expected);
        let sheds: u64 = deltas.iter().map(|d| d.delta.snapshot.counters.sheds).sum();
        assert_eq!(sheds, report.sheds());
    }

    #[test]
    fn the_summary_at_the_default_seed_is_pinned() {
        let mut report = run(&Config::default());
        flush(&mut report);
        assert_eq!(
            render_summary_jsonl(&report),
            "{\"record\":\"summary\",\"shards\":4,\"served\":2136,\"losses\":549,\
             \"sheds\":1,\"redirects\":59,\"makespan_us\":10311314,\"events\":8307}\n"
        );
    }
}
