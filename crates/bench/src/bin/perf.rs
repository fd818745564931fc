//! Telemetry overhead gate runner.
//!
//! ```text
//! cargo run -p bench --release --bin perf -- [--budget F] [--seed N] [--samples N]
//! ```
//!
//! Measures telemetry-off vs telemetry-on throughput on the engine and
//! dispatch hot paths (the median of `--samples` interleaved off/on
//! pairs) and exits 1 when the live sink costs more than `--budget`
//! (default 0.05 = 5%) of the NullSink baseline. Self-relative: no
//! baseline file involved. Run in release.

use bench::args::Args;
use bench::perf::{check_overhead, measure_overhead};

fn main() {
    let args = Args::parse(&["seed", "samples", "budget"]);
    let seed = args.get("seed", bench::DEFAULT_SEED);
    let samples: u32 = args.get("samples", 61u32);
    let budget: f64 = args.get("budget", 0.05f64);

    let report = measure_overhead(seed, samples);
    match check_overhead(&report, budget) {
        Ok(lines) => {
            for line in lines {
                eprintln!("# {line}");
            }
            eprintln!(
                "# telemetry overhead OK: within {:.1}% budget",
                budget * 100.0
            );
        }
        Err(failures) => {
            for line in failures {
                eprintln!("# {line}");
            }
            eprintln!(
                "# telemetry overhead FAILED: live sink costs more than {:.1}%",
                budget * 100.0
            );
            std::process::exit(1);
        }
    }
}
