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
use bench::{ablation, ctrl, daemon, farm, fault, obsreport, perf, scenario, trace};
use bench::{DEFAULT_SEED, FIGURES};
use obs::{CsvSink, JsonlSink};
use sfc::{quality, CurveKind};
use std::io::Write;
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
        "ablation" => {
            let seed = parse(&["seed"]).get("seed", DEFAULT_SEED);
            eprintln!("# dispatcher ablation (seed {seed})");
            ablation::print_report(seed);
        }
        "curves" => {
            parse(&[]);
            curves();
        }
        "trace" => run_trace(&parse(&[
            "seed",
            "requests",
            "dims",
            "service-us",
            "window",
            "transient-ppm",
            "bad-sector-ppm",
            "retries",
            "max-queue",
            "out",
            "format",
        ])),
        "faults" => faults(&parse(&[
            "mode",
            "seed",
            "members",
            "streams",
            "duration-ms",
            "retries",
            "rate-ppm",
        ])),
        "farm" => run_farm(&parse(&[
            "mode",
            "seed",
            "shards",
            "streams",
            "duration-ms",
            "max-queue",
        ])),
        "daemon" => run_daemon(&parse(&["mode", "seed"])),
        "scenario" => run_scenario(&parse(&[
            "mode",
            "seed",
            "sessions",
            "horizon-s",
            "shards",
            "max-queue",
            "max-streams",
            "trials",
        ])),
        "ctrl" => run_ctrl(&parse(&["mode", "seed", "csv", "f", "r", "w"])),
        "obsreport" => run_obsreport(&parse(&["mode", "seed"])),
        "perf" => run_perf(&parse(&["seed", "budget"])),
        _ => {
            let figures: Vec<&str> = FIGURES.iter().map(|(file, _)| stem(file)).collect();
            eprintln!(
                "usage: bench <subcommand> [--flag value]...\nsubcommands: {} experiments \
                 ablation curves trace faults farm daemon scenario ctrl obsreport perf",
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

/// The geometric numbers behind the paper's scheduler rankings (and the
/// subject of its companion papers [18, 19]).
fn curves() {
    let (dims, order) = (2, 4);
    println!(
        "curve,continuous,max_jump,mean_jump,mean_clusters_4,irregularity_per_dim,bias_per_dim"
    );
    for kind in CurveKind::ALL {
        // Peano's radix-3 grid: pick the order that keeps sizes comparable.
        let order = if kind == CurveKind::Peano {
            (order * 2_u32).div_ceil(3)
        } else {
            order
        };
        let curve = kind.build(dims, order).expect("every curve has a 2-D grid");
        let cont = quality::continuity(curve.as_ref()).expect("a 256-cell grid is walkable");
        let clusters = quality::mean_clusters(curve.as_ref(), 4).expect("grid fits");
        let irr = quality::irregularity(curve.as_ref()).expect("grid fits");
        let bias = quality::dimension_bias(curve.as_ref(), 20_000);
        let irr_s: Vec<String> = irr.iter().map(|x| x.to_string()).collect();
        let bias_s: Vec<String> = bias
            .inversion_rate
            .iter()
            .map(|x| format!("{x:.3}"))
            .collect();
        println!(
            "{},{},{},{:.2},{:.2},{},{}",
            kind,
            cont.is_continuous(),
            cont.max_jump,
            cont.mean_jump,
            clusters,
            irr_s.join("|"),
            bias_s.join("|"),
        );
    }
    eprintln!();
    eprintln!("# reading guide:");
    eprintln!("#  - continuous/max_jump: seek behaviour when the curve orders cylinders (SFC3)");
    eprintln!("#  - mean_clusters (4-wide boxes): locality, Hilbert's specialty");
    eprintln!("#  - irregularity: backward steps per dimension (CIKM'01)");
    eprintln!("#  - bias: pairwise inversion rate per dimension; 0.0 = dimension fully respected,");
    eprintln!("#    equal values = fair (the Diagonal), skewed = favoring (Sweep/C-Scan)");
}

/// Nonzero fault rates switch the service model to the Table-1 disk
/// behind a fault injector (media errors, retries, remaps appear in the
/// timeline); `--max-queue` bounds the dispatcher queue and sheds the
/// lowest-priority victim on overflow. The timeline goes to `--out` and
/// everything else to stderr, so the command composes with `jq`/`awk`
/// pipelines over the timeline file.
fn run_trace(args: &Args) {
    let cfg = trace::Config {
        seed: args.get("seed", DEFAULT_SEED),
        requests: args.get("requests", 5_000),
        dims: args.get("dims", 2),
        service_us: args.get("service-us", 20_000),
        window_pct: args.get("window", 10),
        transient_ppm: args.get("transient-ppm", 0),
        bad_sector_ppm: args.get("bad-sector-ppm", 0),
        retries: args.get("retries", 1),
        max_queue: args.get("max-queue", 0),
    };
    let format = args.one_of("format", &["jsonl", "csv"]);
    let out: String = args.get("out", format!("trace.{format}"));
    let file = std::fs::File::create(&out).unwrap_or_else(|e| {
        eprintln!("cannot create {out}: {e}");
        exit(2);
    });
    let writer = std::io::BufWriter::new(file);

    eprintln!(
        "# trace — paper-default cascade, {} requests, {} dims, window {}%, seed {}",
        cfg.requests, cfg.dims, cfg.window_pct, cfg.seed
    );
    let (report, events, mut writer) = if format == "jsonl" {
        let (report, sink) = trace::run_with_sink(&cfg, JsonlSink::new(writer));
        (report, sink.lines(), sink.into_inner())
    } else {
        let (report, sink) = trace::run_with_sink(&cfg, CsvSink::new(writer));
        (report, sink.rows(), sink.into_inner())
    };
    writer.flush().expect("flush timeline");

    eprintln!("# {events} events -> {out}");
    eprint!("{}", report.snapshot.report());
    pass("reconciliation", report.reconcile());
    eprintln!("# reconciliation: events match Metrics and dispatcher counters");
}

/// `--rate-ppm` replaces the swept rate list with a single rate (sweep)
/// or sets the high rate (smoke).
fn faults(args: &Args) {
    let mut cfg = fault::Config {
        seed: args.get("seed", DEFAULT_SEED),
        members: args.get("members", 5),
        streams: args.get("streams", 0),
        duration_us: args.get("duration-ms", 20_000u64) * 1_000,
        retries: args.get("retries", 4),
        ..Default::default()
    };
    if args.provided("rate-ppm") {
        cfg.rates_ppm = vec![args.get("rate-ppm", 250_000u32)];
    }
    match args.one_of("mode", &["sweep", "smoke", "degraded"]) {
        "sweep" => {
            eprintln!(
                "# faults sweep — {} members, {} streams, {} ms, {} attempts, seed {}",
                cfg.members,
                cfg.effective_streams(),
                cfg.duration_us / 1_000,
                cfg.retries,
                cfg.seed
            );
            fault::print_csv(&fault::sweep(&cfg));
        }
        "smoke" => {
            let (zero, high) = pass("smoke", fault::smoke(&cfg));
            eprintln!(
                "# smoke OK: zero-fault loss-free ({} served), \
                 {} ppm lost {}/{} gracefully ({} media errors, {} retries)",
                zero.served,
                high.transient_ppm,
                high.losses,
                high.served + high.losses,
                high.media_errors,
                high.retries
            );
        }
        _ => {
            let report = pass("degraded run", fault::degraded(&cfg));
            let m = &report.metrics;
            eprintln!(
                "# degraded — member {} died at {} ms; rebuild interleaved",
                report.failed_member,
                report.fail_at_us / 1_000
            );
            println!(
                "served,{}\nfailed,{}\nlosses,{}\ndegraded_reads,{}\n\
                 rebuild_ios,{}\nrebuilt_stripes,{}\nrebuild_ms,{}\n\
                 p99_response_us,{}\nmakespan_ms,{}",
                m.served,
                m.failed,
                m.losses_total(),
                m.degraded_reads,
                m.rebuild_ios,
                report.rebuilt_stripes,
                m.rebuild_us / 1_000,
                report.snapshot.response_us.p99().unwrap_or(0),
                m.makespan_us / 1_000
            );
        }
    }
}

fn run_farm(args: &Args) {
    let defaults = farm::Config::default();
    let cfg = farm::Config {
        seed: args.get("seed", DEFAULT_SEED),
        shards: args.list("shards", &defaults.shards),
        streams: args.get("streams", defaults.streams),
        duration_us: args.get("duration-ms", 10_000u64) * 1_000,
        max_queue: args.get("max-queue", defaults.max_queue),
    };
    if args.one_of("mode", &["sweep", "smoke"]) == "sweep" {
        eprintln!(
            "# farm sweep — shards {:?}, {} streams, {} ms, queue {}, seed {}",
            cfg.shards,
            cfg.streams,
            cfg.duration_us / 1_000,
            cfg.max_queue,
            cfg.seed
        );
        farm::print_csv(&farm::sweep(&cfg));
    } else {
        let (hash, least_loaded, redirected) = pass("smoke", farm::smoke(&cfg));
        eprintln!(
            "# smoke OK: hash shed {}, least-loaded shed {}, \
             redirect-on-overload rerouted {} (shed {}); all {} \
             arrivals accounted",
            hash.sheds, least_loaded.sheds, redirected.redirects, redirected.sheds, hash.arrivals
        );
    }
}

fn run_daemon(args: &Args) {
    let cfg = daemon::Config {
        seed: args.get("seed", DEFAULT_SEED),
        ..Default::default()
    };
    args.one_of("mode", &["smoke"]);
    let s = pass("smoke", daemon::smoke(&cfg));
    eprintln!(
        "# smoke OK: prefix of {} arrivals bit-identical to the \
         batch farm; drain migrated {}, supervisor quarantined {} \
         time(s), {} reroutes, {} redirects, {} sheds; all {} \
         arrivals accounted; two runs bit-identical",
        s.prefix_arrivals, s.migrated, s.quarantines, s.reroutes, s.redirects, s.sheds, s.arrivals
    );
}

fn run_scenario(args: &Args) {
    let defaults = scenario::Config::default();
    let cfg = scenario::Config {
        seed: args.get("seed", DEFAULT_SEED),
        sessions: args.get("sessions", defaults.sessions),
        horizon_us: args.get("horizon-s", defaults.horizon_us / 1_000_000) * 1_000_000,
        shards: args.get("shards", defaults.shards),
        max_queue: args.get("max-queue", defaults.max_queue),
        max_streams: args.get("max-streams", defaults.max_streams),
        trials: args.get("trials", defaults.trials),
        ..defaults
    };
    let mode = args.one_of("mode", &["smoke", "scale"]);
    let s = pass(mode, scenario::smoke(&cfg));
    let last = s.convergence.last().expect("non-empty sweep");
    let census: Vec<String> = s.census.iter().map(|(k, n)| format!("{k} {n}")).collect();
    eprintln!(
        "# {mode} OK: {} sessions ({:.0}/s wall) emitted {} requests over \
         {:.1} simulated hours; served {}, shed {}, rejected {}; peak live \
         {} ({}x below total), peak backlog {}, entries held at the end: {}; \
         seek law converged to rel err {:.5} at n={}",
        s.sessions,
        s.sessions_per_s,
        s.arrivals,
        s.makespan_us as f64 / 3.6e9,
        s.served,
        s.sheds,
        s.rejections,
        s.peak_live,
        s.sessions as usize / s.peak_live.max(1),
        s.peak_backlog,
        census.join(", "),
        last.rel_err(),
        last.batch
    );
    if mode == "scale" {
        print!("{}", scenario::convergence_csv(&s.convergence));
    }
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

fn run_obsreport(args: &Args) {
    let cfg = obsreport::Config {
        seed: args.get("seed", DEFAULT_SEED),
        ..Default::default()
    };
    match args.one_of("mode", &["stream", "prom", "smoke"]) {
        "stream" => {
            let (outcome, mut sinks) = obsreport::run(&cfg);
            let deltas = obsreport::flush(&mut sinks);
            print!("{}", obsreport::render_windows_jsonl(&deltas));
            print!("{}", obsreport::render_summary_jsonl(&outcome, &sinks));
        }
        "prom" => {
            let (_, sinks) = obsreport::run(&cfg);
            print!("{}", obsreport::render_prometheus(&sinks));
        }
        _ => report_lines("telemetry smoke", obsreport::smoke(cfg.seed)),
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
