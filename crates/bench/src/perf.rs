//! Telemetry overhead gate: the live windowed sink measured against the
//! disabled [`NullSink`] on the engine and dispatch hot paths, in one
//! process, and checked against a fractional budget in CI.
//!
//! Both sides of each pair run the identical workload back to back, so
//! the ratio is self-relative and needs no committed baseline. Absolute
//! performance is gated elsewhere: `ci.sh` runs the daemon-path
//! benchmark (`benchmark/run.sh`) and compares it with the committed
//! `perf-history.jsonl`.

use std::hint::black_box;
use std::time::Instant;

use cascade::{CascadeConfig, CascadedSfc};
use obs::{NullSink, TelemetryConfig, TraceSink};
use sched::{DiskScheduler, HeadState, Request};
use sim::{simulate, DiskService, SimOptions};
use workload::PoissonConfig;

/// Telemetry off-vs-on throughput on the two hot paths the live sink
/// instruments. Both sides of each pair run the identical workload in
/// the same process; the ratio is self-relative, so the overhead gate
/// does not depend on a committed baseline or on machine speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadReport {
    /// Engine throughput with the disabled [`NullSink`] (requests/s).
    pub engine_null_reqs_per_s: f64,
    /// Engine throughput with the default live windowed sink.
    pub engine_live_reqs_per_s: f64,
    /// Dispatch throughput with the disabled [`NullSink`] (ops/s).
    pub dispatch_null_ops_per_s: f64,
    /// Dispatch throughput with the default live windowed sink.
    pub dispatch_live_ops_per_s: f64,
}

impl OverheadReport {
    /// Fractional engine slowdown with telemetry on (0.05 = 5% slower).
    pub fn engine_overhead(&self) -> f64 {
        self.engine_null_reqs_per_s / self.engine_live_reqs_per_s.max(1e-9) - 1.0
    }

    /// Fractional dispatch slowdown with telemetry on.
    pub fn dispatch_overhead(&self) -> f64 {
        self.dispatch_null_ops_per_s / self.dispatch_live_ops_per_s.max(1e-9) - 1.0
    }
}

/// The overhead-gate workload: the Figure-8 Poisson mix pushed to ~78%
/// utilization (near saturation — the paper's interesting regime, and
/// the regime where per-request scheduling work is largest, so the gate
/// measures telemetry against a realistic denominator rather than an
/// artificially cheap drop-everything loop).
fn overhead_trace(seed: u64) -> Vec<Request> {
    let mut cfg = PoissonConfig::figure8(60_000);
    cfg.mean_interarrival_us = 18_000;
    cfg.generate(seed).collect()
}

fn overhead_engine_run<S: TraceSink>(trace: &[Request], sink: &mut S) -> f64 {
    let mut s = CascadedSfc::new(CascadeConfig::paper_default(3, 3832)).expect("valid config");
    let mut service = DiskService::table1();
    let options = SimOptions::with_shape(3, 16).dropping();
    let start = Instant::now();
    let m = simulate(&mut s, trace, &mut service, options, sink);
    black_box(m.served);
    trace.len() as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

fn overhead_dispatch_run<S: TraceSink>(trace: &[Request], sink: S) -> f64 {
    let mut s =
        CascadedSfc::with_sink(CascadeConfig::paper_default(3, 3832), sink).expect("valid config");
    let head = HeadState::new(0, 0, 3832);
    let mut ops = 0u64;
    let start = Instant::now();
    for chunk in trace.chunks(8) {
        for r in chunk {
            s.enqueue(r.clone(), &head);
            ops += 1;
        }
        for _ in 0..4 {
            if let Some(r) = s.dequeue(&head) {
                black_box(r.id);
                ops += 1;
            }
        }
    }
    while let Some(r) = s.dequeue(&head) {
        black_box(r.id);
        ops += 1;
    }
    ops as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Measure telemetry overhead over `samples` *interleaved* pairs: each
/// round runs the off and on variants back to back, so slow drift
/// (thermal, cache, scheduler) perturbs both sides of a pair alike, and
/// the report carries the pair whose off/on ratio is the median — a host
/// that changes speed mid-measurement skews a best-of on either side,
/// but not the middle of the per-pair ratios. One untimed warmup round
/// first faults in the traces and code paths, so cold-start cost never
/// lands asymmetrically on either side.
pub fn measure_overhead(seed: u64, samples: u32) -> OverheadReport {
    let trace = overhead_trace(seed);
    let dispatch_trace: Vec<_> = PoissonConfig::figure8(8_000).generate(seed).collect();
    let mut engine = Vec::new();
    let mut dispatch = Vec::new();
    // Round 0 is the warmup.
    for round in 0..=samples.max(1) {
        let engine_null = overhead_engine_run(&trace, &mut NullSink);
        let mut live = TelemetryConfig::default().sink();
        let engine_live = overhead_engine_run(&trace, &mut live);
        black_box(live.cumulative().counters.arrivals);
        let dispatch_null = overhead_dispatch_run(&dispatch_trace, NullSink);
        let dispatch_live =
            overhead_dispatch_run(&dispatch_trace, TelemetryConfig::default().sink());
        if round > 0 {
            engine.push((engine_null, engine_live));
            dispatch.push((dispatch_null, dispatch_live));
        }
    }
    let (engine_null_reqs_per_s, engine_live_reqs_per_s) = median_pair(engine);
    let (dispatch_null_ops_per_s, dispatch_live_ops_per_s) = median_pair(dispatch);
    OverheadReport {
        engine_null_reqs_per_s,
        engine_live_reqs_per_s,
        dispatch_null_ops_per_s,
        dispatch_live_ops_per_s,
    }
}

/// The `(off, on)` pair whose off/on ratio is the median of `pairs`'.
fn median_pair(mut pairs: Vec<(f64, f64)>) -> (f64, f64) {
    pairs.sort_by(|a, b| (a.0 / a.1).total_cmp(&(b.0 / b.1)));
    pairs[pairs.len() / 2]
}

/// Gate a measured [`OverheadReport`] against a fractional `budget`
/// (0.05 = telemetry may cost at most 5% of NullSink throughput). On
/// failure the `Err` still carries every line, so the CI log shows both
/// paths' numbers. Each line also gives the sink's absolute cost
/// (`1e9/on − 1e9/off`, ns per request or operation): the gated ratio
/// moves whenever the *un*instrumented path gets faster or slower, and
/// the absolute figure is what tells that apart from a costlier sink.
pub fn check_overhead(report: &OverheadReport, budget: f64) -> Result<Vec<String>, Vec<String>> {
    let mut lines = Vec::new();
    let mut over = false;
    let mut gauge = |name: &str, unit: &str, null: f64, live: f64, overhead: f64| {
        let ok = overhead <= budget;
        over |= !ok;
        lines.push(format!(
            "{name}: off {null:.0}/s, on {live:.0}/s, sink {:+.1} ns/{unit}, \
             overhead {:+.2}% (budget {:.1}%) {}",
            1e9 / live.max(1e-9) - 1e9 / null.max(1e-9),
            overhead * 100.0,
            budget * 100.0,
            if ok { "ok" } else { "OVER BUDGET" }
        ));
    };
    gauge(
        "engine",
        "req",
        report.engine_null_reqs_per_s,
        report.engine_live_reqs_per_s,
        report.engine_overhead(),
    );
    gauge(
        "dispatch",
        "op",
        report.dispatch_null_ops_per_s,
        report.dispatch_live_ops_per_s,
        report.dispatch_overhead(),
    );
    if over {
        Err(lines)
    } else {
        Ok(lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_gate_passes_within_budget_and_fails_over_it() {
        let report = OverheadReport {
            engine_null_reqs_per_s: 1000.0,
            engine_live_reqs_per_s: 970.0, // +3.1% overhead
            dispatch_null_ops_per_s: 1000.0,
            dispatch_live_ops_per_s: 990.0, // +1.0%
        };
        let lines = check_overhead(&report, 0.05).expect("within budget");
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().all(|l| l.ends_with("ok")));
        // 1e9/970 - 1e9/1000 ns: the sink's absolute cost rides along.
        assert!(lines[0].contains("sink +30927.8 ns/req"), "{}", lines[0]);
        // Telemetry *speeding things up* (noise) is never a failure.
        let noisy = OverheadReport {
            engine_live_reqs_per_s: 1010.0,
            ..report
        };
        assert!(check_overhead(&noisy, 0.05).is_ok());
        // Past-budget slowdown fails, and the report carries both paths.
        let slow = OverheadReport {
            engine_live_reqs_per_s: 900.0, // +11.1%
            ..report
        };
        let lines = check_overhead(&slow, 0.05).unwrap_err();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines.iter().filter(|l| l.contains("OVER BUDGET")).count(),
            1
        );
        assert!(lines[0].contains("engine"));
    }

    #[test]
    fn measure_overhead_produces_positive_pairs() {
        let r = measure_overhead(crate::DEFAULT_SEED, 1);
        assert!(r.engine_null_reqs_per_s > 0.0);
        assert!(r.engine_live_reqs_per_s > 0.0);
        assert!(r.dispatch_null_ops_per_s > 0.0);
        assert!(r.dispatch_live_ops_per_s > 0.0);
    }
}
