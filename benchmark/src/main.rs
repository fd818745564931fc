//! Daemon-path benchmark harness. See `README.md` beside this package
//! for the metric glossary; `run.sh` is the entry point.
//!
//! ```text
//! daemon-bench --workload NAME --seed N --seconds S --trace 0|1
//!              [--history FILE] [--spans-dir DIR]
//! daemon-bench --compare SET_A.jsonl SET_B.jsonl
//! ```
//!
//! One process measures one workload. `--trace 0` runs the untraced
//! repetitions and prints the end-to-end metrics; `--trace 1` adds the
//! traced pass, the layer replays and the FCFS floor and prints the
//! per-layer metrics. The last line of standard output is the result
//! object; the process exits non-zero if a ledger fails to close, events
//! fail to reconcile, or any repetition's fingerprint differs.

mod alloc;
mod endtoend;
mod json;
mod layers;
mod metrics;
mod refkernel;
mod replay;
mod reps;
mod run;
mod sources;
mod stats;
mod trace;
mod workloads;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use metrics::{Better, Def, Values, END_TO_END, PER_LAYER};
use workloads::Workload;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Default seed (`run.sh` passes it when none is given).
const DEFAULT_SEED: u64 = 20_040_330;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    history: Option<PathBuf>,
    spans_dir: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: daemon-bench --workload {{{}}} [--seed N] [--seconds S] [--trace 0|1] \
         [--history FILE] [--spans-dir DIR]\n       daemon-bench --compare SET_A.jsonl SET_B.jsonl",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Steady,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        history: None,
        spans_dir: None,
    };
    let mut named = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => {
                args.workload = Workload::parse(value)
                    .ok_or_else(|| format!("unknown workload {value}\n{}", usage()))?;
                named = true;
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--history" => args.history = Some(PathBuf::from(value)),
            "--spans-dir" => args.spans_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    if !named {
        return Err(usage());
    }
    Ok(args)
}

fn print_table(table: &[Def], values: &Values) {
    for (d, v) in values.in_order(table) {
        let bound = if d.bound > 0.0 {
            format!("  regression bound {:.0}%", d.bound * 100.0)
        } else {
            String::new()
        };
        println!(
            "  {:<38} {:>16.6} {:<6} ({} is better){bound}",
            d.name,
            v,
            d.unit,
            d.better.word()
        );
    }
}

fn append_history(path: &PathBuf, args: &Args, values: &Values) -> Result<(), String> {
    let env = |key: &str| Json::Str(std::env::var(key).unwrap_or_else(|_| "unknown".into()));
    let line = metrics::history_line(
        &[
            ("commit", env("BENCH_COMMIT")),
            ("date", env("BENCH_DATE")),
            ("nproc", Json::Num(values.get("host.nproc").unwrap_or(0.0))),
            ("workload", Json::Str(args.workload.name().into())),
            ("seed", Json::Num(args.seed as f64)),
            ("trace", Json::Num(f64::from(u8::from(args.trace)))),
        ],
        values,
    );
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| writeln!(f, "{line}"))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn measure(args: &Args) -> Result<(), String> {
    let (w, seed, seconds) = (args.workload, args.seed, args.seconds);
    let (table, (values, handled)) = if args.trace {
        let spans_dir = args.spans_dir.as_deref();
        (
            &PER_LAYER[..],
            layers::per_layer(w, seed, seconds, spans_dir)?,
        )
    } else {
        (&END_TO_END[..], endtoend::end_to_end(w, seed, seconds)?)
    };
    print_table(table, &values);
    if let Some(path) = &args.history {
        append_history(path, args, &values)?;
    }
    // Every arrival of every repetition was handled and its ledger
    // closed, or `check` would have ended the run: nothing failed.
    println!("{}", metrics::result_line(table, &values, handled, 0));
    Ok(())
}

/// Read one set of history records, one JSON object per line.
fn read_set(path: &str) -> Result<Vec<Json>, String> {
    std::fs::read_to_string(path)
        .map_err(|e| format!("{path}: {e}"))?
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| json::parse(l).map_err(|e| format!("{path}: {e}")))
        .collect()
}

/// Two sets of end-to-end records of the same code, side by side; fails
/// unless simulated metrics are equal and host metrics agree within
/// their bounds.
fn compare(a_path: &str, b_path: &str) -> Result<(), String> {
    let (a, b) = (read_set(a_path)?, read_set(b_path)?);
    let mut failures = Vec::new();
    let key = |r: &Json| {
        (
            r.get("workload").and_then(Json::str).map(str::to_string),
            r.get("seed").and_then(Json::num).map(f64::to_bits),
            r.get("trace").and_then(Json::num).map(f64::to_bits),
        )
    };
    let mut pairs = 0;
    for ra in a
        .iter()
        .filter(|r| r.get("trace").and_then(Json::num) == Some(0.0))
    {
        let Some(rb) = b.iter().find(|rb| key(rb) == key(ra)) else {
            continue;
        };
        pairs += 1;
        let workload = ra.get("workload").and_then(Json::str).unwrap_or("?");
        let spread_of = |r: &Json| r.get("host.rep_spread").and_then(Json::num).unwrap_or(0.0);
        println!(
            "{workload}: host.rep_spread {:.4} / {:.4}",
            spread_of(ra),
            spread_of(rb)
        );
        for d in &END_TO_END {
            let (Some(va), Some(vb)) = (
                ra.get(d.name).and_then(Json::num),
                rb.get(d.name).and_then(Json::num),
            ) else {
                failures.push(format!("{workload}: {} missing from a set", d.name));
                continue;
            };
            let drift = stats::ratio(vb - va, va);
            let ok = if d.simulated {
                va == vb
            } else {
                drift.abs() <= d.bound
            };
            let rule = if d.simulated {
                "equal".to_string()
            } else {
                format!("within {:.0}%", d.bound * 100.0)
            };
            println!(
                "  {:<24} {:>16.6} {:>16.6} {:<6} {:>+8.2}%  {} {}",
                d.name,
                va,
                vb,
                d.unit,
                drift * 100.0,
                rule,
                if ok { "ok" } else { "FAIL" }
            );
            if !ok {
                let worse = (d.better == Better::Lower) == (vb > va);
                failures.push(format!(
                    "{workload}: {} {va} vs {vb} ({}, must be {rule})",
                    d.name,
                    if worse { "worse" } else { "better" }
                ));
            }
        }
    }
    if pairs == 0 {
        return Err("the two sets share no (workload, seed) record".into());
    }
    if failures.is_empty() {
        println!("both sets agree on {pairs} workloads");
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.as_slice() {
        [flag, a, b] if flag == "--compare" => compare(a, b),
        _ => match parse_args(&argv) {
            Ok(args) => measure(&args),
            Err(message) => {
                eprintln!("{message}");
                return ExitCode::from(2);
            }
        },
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("daemon-bench: {message}");
            ExitCode::FAILURE
        }
    }
}
