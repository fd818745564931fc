//! Telemetry exposition harness — the `obsreport` binary.
//!
//! Not a paper figure: this is the operational face of the live
//! telemetry plane. One seeded overloaded farm run (bounded-queue
//! cascades, hash routing with redirect-on-overload) is executed with
//! one windowed live sink per shard, and the results are reported in
//! three modes:
//!
//! * **stream** — drain the per-shard sinks and print one JSONL line
//!   per completed window per shard (epoch, start, width, exact
//!   counters, and response p50/p99 when the window saw completions),
//!   followed by one `summary` line. This is the feed a control plane
//!   polls mid-run via [`WindowedSnapshot::take_deltas`].
//! * **prom** — print the end-of-run per-shard cumulatives in the
//!   Prometheus text exposition format (`# TYPE` lines, `_total`
//!   counters and cumulative-bucket histograms, one sample per `shard`
//!   label).
//! * **smoke** — the CI gate. Checks, on seeded runs: the merged
//!   per-shard windowed cumulatives reproduce a plain [`Snapshot`] farm
//!   run bit-for-bit; every shard's drained window deltas sum to its
//!   cumulative; an overload run through a shared
//!   [`FlightRecorder`] fires at least one shed-burst dump; and every
//!   dump (anomaly-triggered and forced) passes exact event-vs-counter
//!   reconciliation. Exits 1 on any violation.
//!
//! All modes are deterministic given `--seed` (span timing is off, so
//! no wall-clock enters the event stream).

use crate::vod;
use cascade::CascadedSfc;
use farm::{simulate_farm, simulate_farm_traced, FarmConfig, FarmOutcome, RoutePolicy};
use obs::{
    Anomaly, FlightRecorder, ShardDelta, SharedSink, Snapshot, TelemetryConfig, TriggerConfig,
    WindowedSnapshot,
};
use sim::{simulate_traced, DiskService};
use std::fmt::Write as _;

/// Scenario parameters shared by all three modes.
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
    /// Histogram decimation stride shift (0 = exact).
    pub sample_shift: u32,
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
            sample_shift: obs::DEFAULT_SAMPLE_SHIFT,
        }
    }
}

/// Farm shards.
const SHARDS: usize = 4;
/// log₂ of the telemetry window width (µs of simulated time): 2^19 µs ≈
/// 0.52 s windows, ~19 completed windows over the run, enough to make
/// the stream a stream.
const WINDOW_LOG2: u32 = 19;

impl Config {
    fn farm(&self) -> FarmConfig {
        FarmConfig::new(SHARDS)
            .with_policy(RoutePolicy::HashStream)
            .with_redirects()
    }

    fn trace(&self) -> Vec<sched::Request> {
        vod::trace(self.streams, self.duration_us, self.seed)
    }
}

/// Run the scenario with one windowed sink per shard. The sinks come
/// back in shard order, still holding every shard's cumulative and live
/// state; [`flush`] drains their window deltas.
pub fn run(cfg: &Config) -> (FarmOutcome, Vec<WindowedSnapshot>) {
    let telemetry = TelemetryConfig::default()
        .window_log2(WINDOW_LOG2)
        .sample_shift(cfg.sample_shift);
    simulate_farm_traced(
        &cfg.trace(),
        &cfg.farm(),
        |_| vod::bounded_scheduler(cfg.max_queue),
        vod::options(),
        |_| DiskService::table1(),
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

fn cumulatives(sinks: &[WindowedSnapshot]) -> Vec<Snapshot> {
    sinks.iter().map(WindowedSnapshot::cumulative).collect()
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
        out.push_str(",\"counters\":{");
        for (i, (name, value)) in w.snapshot.counters.items().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{value}");
        }
        out.push_str("}}\n");
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

/// Render the per-shard cumulatives in the Prometheus text exposition
/// format.
pub fn render_prometheus(sinks: &[WindowedSnapshot]) -> String {
    let mut out = String::with_capacity(16 * 1024);
    obs::encode_registry(&mut out, obs::DEFAULT_PREFIX, &cumulatives(sinks));
    out
}

/// Drive the single-disk overload scenario through one shared
/// [`FlightRecorder`]: the bounded cascade (shed events) and the engine
/// (arrival/dispatch/service events) interleave into the same ring.
fn record_overload(cfg: &Config) -> FlightRecorder {
    // Sized so a full run never evicts: every dump must be able to
    // reconcile, making any unclean dump a real defect.
    let recorder = FlightRecorder::new(1 << 17, TelemetryConfig::exact(), TriggerConfig::default());
    let shared = SharedSink::new(recorder);
    let mut scheduler = CascadedSfc::with_sink(vod::bounded_cascade(cfg.max_queue), shared.clone())
        .expect("valid cascade config");
    let mut service = DiskService::table1();
    let trace = cfg.trace();
    let mut engine_handle = shared.clone();
    let m = simulate_traced(
        &mut scheduler,
        &trace,
        &mut service,
        vod::options(),
        &mut engine_handle,
    );
    drop(engine_handle);
    drop(scheduler.into_sink());
    let mut recorder = shared
        .try_unwrap()
        .expect("all sink handles dropped after the run");
    recorder.force_dump(m.makespan_us);
    recorder
}

/// The telemetry CI gate (see the module docs for the checklist).
/// Returns one report line per passed check; `Err` carries the report
/// up to and including the failed check.
pub fn smoke(seed: u64) -> Result<Vec<String>, Vec<String>> {
    let cfg = Config {
        seed,
        ..Config::default()
    };
    let mut lines = Vec::new();
    let fail = |mut lines: Vec<String>, msg: String| {
        lines.push(format!("FAIL: {msg}"));
        lines
    };

    // 1. Windowed farm telemetry vs the plain Snapshot path, bit for bit.
    //    Decimation off so histograms must agree exactly too.
    let exact_cfg = Config {
        sample_shift: 0,
        ..cfg.clone()
    };
    let (plain_out, plain_snap) = simulate_farm(
        &exact_cfg.trace(),
        &exact_cfg.farm(),
        |_| vod::bounded_scheduler(exact_cfg.max_queue),
        vod::options(),
    );
    let (out, mut sinks) = run(&exact_cfg);
    if out.per_shard != plain_out.per_shard || out.redirects != plain_out.redirects {
        return Err(fail(
            lines,
            "windowed and plain farm runs diverged in metrics".into(),
        ));
    }
    let per_shard_cumulative = cumulatives(&sinks);
    let mut merged = Snapshot::new();
    for s in &per_shard_cumulative {
        merged.merge(s);
    }
    if merged != plain_snap {
        return Err(fail(
            lines,
            "merged windowed cumulative != plain farm snapshot".into(),
        ));
    }
    lines.push(format!(
        "windowed farm run reproduces the plain snapshot bit-for-bit \
         ({} events across {} shards)",
        plain_snap.counters.total_events(),
        sinks.len(),
    ));

    // 2. Delta-sum invariant per shard: everything ever drained sums to
    //    the cumulative aggregate.
    let deltas = flush(&mut sinks);
    let mut sums = vec![Snapshot::new(); sinks.len()];
    let mut windows = 0usize;
    for d in &deltas {
        sums[d.shard].merge(&d.delta.snapshot);
        windows += 1;
    }
    for (i, (sum, cumulative)) in sums.iter().zip(&per_shard_cumulative).enumerate() {
        if sum != cumulative {
            return Err(fail(
                lines,
                format!("shard {i}: window delta sum != cumulative snapshot"),
            ));
        }
    }
    lines.push(format!(
        "per-shard window deltas sum to the cumulative snapshots \
         ({windows} windows, {} shards)",
        sinks.len(),
    ));

    // 3. Flight recorder under overload: the shed burst must fire, and
    //    every dump — triggered and forced — must reconcile exactly.
    let recorder = record_overload(&cfg);
    let dumps = recorder.dumps();
    if !dumps.iter().any(|d| d.anomaly == Anomaly::ShedBurst) {
        return Err(fail(
            lines,
            format!(
                "overload run fired no shed-burst dump ({} dumps total)",
                dumps.len()
            ),
        ));
    }
    if let Some(bad) = dumps.iter().find(|d| !d.clean) {
        return Err(fail(
            lines,
            format!(
                "{} dump at t={}µs failed event-vs-counter reconciliation \
                 ({} evictions since previous dump)",
                bad.anomaly.name(),
                bad.now_us,
                bad.evicted_since_dump
            ),
        ));
    }
    // The recorder holds only its newest dumps; its lifetime count says
    // whether one it has already let go failed too.
    if recorder.dumps_unclean() != 0 {
        return Err(fail(
            lines,
            format!(
                "{} of {} dumps failed event-vs-counter reconciliation \
                 ({} no longer held)",
                recorder.dumps_unclean(),
                recorder.dumps_total(),
                recorder.dumps_evicted()
            ),
        ));
    }
    let last = dumps.last().expect("force_dump always captures");
    if last.anomaly != Anomaly::Manual {
        return Err(fail(lines, "final forced dump missing".into()));
    }
    let mut rendered = String::new();
    last.write_jsonl(&mut rendered);
    if !rendered.starts_with("{\"record\":\"flight_dump\"") {
        return Err(fail(lines, "dump JSONL header malformed".into()));
    }
    lines.push(format!(
        "flight recorder fired {} dump(s) under overload, all reconciled \
         exactly (cumulative sheds {})",
        recorder.dumps_total(),
        last.cumulative.sheds,
    ));

    Ok(lines)
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

    #[test]
    fn prometheus_output_covers_every_shard() {
        let (_, sinks) = run(&quick());
        let prom = render_prometheus(&sinks);
        assert!(prom.contains("# TYPE sched_arrivals_total counter"));
        for shard in 0..4 {
            assert!(prom.contains(&format!("sched_arrivals_total{{shard=\"{shard}\"}}")));
        }
        assert!(prom.contains("# TYPE sched_response_us histogram"));
    }

    #[test]
    fn smoke_passes_on_the_default_seed() {
        let lines = smoke(crate::DEFAULT_SEED).expect("telemetry smoke must pass");
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("bit-for-bit"));
        assert!(lines[2].contains("reconciled"));
    }
}
