//! Telemetry exposition runner.
//!
//! ```text
//! cargo run -p bench --release --bin obsreport -- --mode stream|prom|smoke
//!     [--seed N] [--shards N] [--streams N] [--duration-ms N]
//!     [--window-log2 N] [--sample-shift N]
//! ```
//!
//! * `stream` (default) prints one JSONL line per completed telemetry
//!   window per shard, then a summary line.
//! * `prom` prints the end-of-run per-shard cumulatives in the
//!   Prometheus text exposition format.
//! * `smoke` runs the telemetry CI gate (windowed-vs-plain bit-equality,
//!   per-shard delta-sum invariant, flight-recorder dump
//!   reconciliation) and exits 1 on any violation.

use bench::args::Args;
use bench::obsreport::{
    flush, render_prometheus, render_summary_jsonl, render_windows_jsonl, run, smoke, Config,
};

fn main() {
    let args = Args::parse(&[
        "mode",
        "seed",
        "shards",
        "streams",
        "duration-ms",
        "window-log2",
        "sample-shift",
    ]);
    let defaults = Config::default();
    let cfg = Config {
        seed: args.get("seed", defaults.seed),
        shards: args.get("shards", defaults.shards).max(1),
        streams: args.get("streams", defaults.streams),
        duration_us: args.get("duration-ms", defaults.duration_us / 1_000) * 1_000,
        window_log2: args.get("window-log2", defaults.window_log2),
        sample_shift: args.get("sample-shift", defaults.sample_shift),
        ..defaults
    };

    match args.one_of("mode", &["stream", "prom", "smoke"]) {
        "stream" => {
            let (outcome, mut sinks) = run(&cfg);
            let deltas = flush(&mut sinks);
            print!("{}", render_windows_jsonl(&deltas));
            print!("{}", render_summary_jsonl(&outcome, &sinks));
        }
        "prom" => {
            let (_, sinks) = run(&cfg);
            print!("{}", render_prometheus(&sinks));
        }
        "smoke" => match smoke(cfg.seed) {
            Ok(lines) => {
                for line in lines {
                    eprintln!("# {line}");
                }
                eprintln!("# telemetry smoke OK");
            }
            Err(lines) => {
                for line in lines {
                    eprintln!("# {line}");
                }
                eprintln!("# telemetry smoke FAILED");
                std::process::exit(1);
            }
        },
        _ => unreachable!("one_of limits the choices"),
    }
}
