//! `bench` — every harness of the crate behind one command line.
//!
//! ```text
//! cargo run -p bench --release --bin bench -- <subcommand> [--flag value]...
//! ```
//!
//! The crate documentation (`src/lib.rs`) tabulates the subcommands and
//! their flags, and `bench --help` lists them. Every gate exits 1 on a
//! violation and names it; a malformed command line exits 2.

use bench::args::Args;
use bench::{ctrl, perf};
use bench::{DEFAULT_SEED, FIGURES};
use std::process::exit;

fn main() {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().unwrap_or_default();
    let argv: Vec<String> = argv.collect();
    let parse = |allowed: &[&'static str]| Args::parse(&format!("bench {cmd}"), argv, allowed);

    if let Some((_, render)) = FIGURES.iter().find(|(file, _)| stem(file) == cmd) {
        print!("{}", render(parse(&["seed"]).get("seed", DEFAULT_SEED)));
        return;
    }
    match cmd.as_str() {
        "experiments" => experiments(&parse(&["seed", "out"])),
        "ctrl" => run_ctrl(&parse(&["mode", "seed", "csv", "f", "r", "w"])),
        "perf" => run_perf(&parse(&["seed", "budget"])),
        _ => {
            let figures: Vec<&str> = FIGURES.iter().map(|(file, _)| stem(file)).collect();
            eprintln!(
                "usage: bench <subcommand> [--flag value]...\nsubcommands: {} experiments \
                 ctrl perf",
                figures.join(" ")
            );
            exit(if cmd == "--help" || cmd == "-h" { 0 } else { 2 });
        }
    }
}

/// `fig5.csv` → `fig5`: a figure's subcommand is its file's stem.
fn stem(file: &str) -> &str {
    file.strip_suffix(".csv").expect("FIGURES holds CSV files")
}

/// A gate's verdict: the value on success, or the violation and exit 1.
fn pass<T>(gate: &str, result: Result<T, String>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("# {gate} FAILED: {e}");
        exit(1)
    })
}

fn experiments(args: &Args) {
    let seed = args.get("seed", DEFAULT_SEED);
    let out = std::path::PathBuf::from(args.get("out", "results".to_string()));
    std::fs::create_dir_all(&out).expect("create output directory");
    for (file, render) in FIGURES {
        let path = out.join(file);
        std::fs::write(&path, render(seed)).unwrap_or_else(|e| panic!("writing {path:?}: {e}"));
        eprintln!("wrote {}", path.display());
    }
    eprintln!("all experiments complete");
}

fn run_ctrl(args: &Args) {
    let defaults = ctrl::Config::default();
    let cfg = ctrl::Config {
        seed: args.get("seed", DEFAULT_SEED),
        f_axis: args.list("f", &defaults.f_axis),
        r_axis: args.list("r", &defaults.r_axis),
        w_axis: args.list("w", &defaults.w_axis),
        ..defaults
    };
    if args.one_of("mode", &["smoke", "sweep"]) == "smoke" {
        let s = pass("ctrl smoke", ctrl::smoke(&cfg));
        eprintln!(
            "# ctrl smoke OK: miss rate {:.4} -> {:.4}, p99 {} µs -> {} µs \
             under {} scored windows and {} live retunes; two controlled \
             runs bit-identical (fingerprint {:016x})",
            s.static_miss_rate,
            s.tuned_miss_rate,
            s.static_p99_us,
            s.tuned_p99_us,
            s.decisions,
            s.retunes,
            s.fingerprint
        );
    } else {
        let c = pass("ctrl sweep", ctrl::sweep(&cfg));
        if args.get("csv", false) {
            ctrl::print_csv(&c);
        }
        eprintln!(
            "# ctrl sweep OK: guided best (f={}, R={}, w={}) score {:.6} \
             in {}/{} evals vs exhaustive best (f={}, R={}, w={}) score \
             {:.6} over {} points; two guided runs bit-identical \
             (fingerprint {:016x})",
            c.guided_best.f,
            c.guided_best.r,
            c.guided_best.w,
            c.guided_best.score,
            c.guided_evals,
            c.budget,
            c.exhaustive_best.f,
            c.exhaustive_best.r,
            c.exhaustive_best.w,
            c.exhaustive_best.score,
            c.rows.len(),
            c.guided_fingerprint
        );
    }
}

/// Self-relative: telemetry-off vs telemetry-on throughput on the engine
/// and dispatch hot paths, the median of 61 interleaved off/on pairs; no
/// baseline file involved. Run in release.
fn run_perf(args: &Args) {
    let budget: f64 = args.get("budget", 0.05);
    let report = perf::measure_overhead(args.get("seed", DEFAULT_SEED), 61);
    report_lines("telemetry overhead", perf::check_overhead(&report, budget));
}

/// Print a line-per-check verdict; exit 1 when it is the failing side.
fn report_lines(gate: &str, verdict: Result<Vec<String>, Vec<String>>) {
    let failed = verdict.is_err();
    for line in verdict.unwrap_or_else(|lines| lines) {
        eprintln!("# {line}");
    }
    if failed {
        eprintln!("# {gate} FAILED");
        exit(1);
    }
    eprintln!("# {gate} OK");
}
