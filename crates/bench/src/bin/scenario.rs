//! Scenario runner: the million-stream closed-loop CI gate.
//!
//! ```text
//! cargo run -p bench --release --bin scenario -- --mode smoke
//!     [--seed N] [--sessions N] [--horizon-s N] [--shards N]
//!     [--max-queue N] [--max-streams N] [--trials N]
//! ```
//!
//! `smoke` streams a ≥1M-session closed-loop population (diurnal base +
//! flash crowd, mixed VoD/NewsByte tenants) through the farm daemon in
//! bounded memory, requires exact ledger closure with the admission
//! gate and bounded queues both exercised, checks run-to-run
//! bit-identity at a reduced scale, and asserts the cascade's measured
//! batch seek converges monotonically onto the analytic closed form.
//! `scale` runs the same gate at a caller-chosen population and prints
//! the convergence table as CSV on stdout. Exits 1 on any violation.

use bench::args::Args;
use bench::scenario::{self, Config};

fn main() {
    let args = Args::parse(&[
        "mode",
        "seed",
        "sessions",
        "horizon-s",
        "shards",
        "max-queue",
        "max-streams",
        "trials",
    ]);
    let defaults = Config::default();
    let cfg = Config {
        seed: args.get("seed", bench::DEFAULT_SEED),
        sessions: args.get("sessions", defaults.sessions),
        horizon_us: args.get("horizon-s", defaults.horizon_us / 1_000_000) * 1_000_000,
        shards: args.get("shards", defaults.shards),
        max_queue: args.get("max-queue", defaults.max_queue),
        max_streams: args.get("max-streams", defaults.max_streams),
        trials: args.get("trials", defaults.trials),
        ..defaults
    };

    let mode = args.one_of("mode", &["smoke", "scale"]);
    match scenario::smoke(&cfg) {
        Ok(s) => {
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
        Err(e) => {
            eprintln!("# {mode} FAILED: {e}");
            std::process::exit(1);
        }
    }
}
