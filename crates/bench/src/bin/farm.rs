//! Farm runner: shard-count scaling sweep and the farm CI smoke gate.
//!
//! ```text
//! cargo run -p bench --release --bin farm -- --mode sweep|smoke
//!     [--seed N] [--shards 1,2,4,8] [--streams N]
//!     [--duration-ms N] [--max-queue N]
//! ```
//!
//! * `sweep` (default) prints the scaling table as CSV on stdout: one
//!   row per (shard count, routing policy) with served/loss/shed/
//!   redirect counts and the simulated makespan.
//! * `smoke` runs the CI gate: for every policy, redirect counters
//!   reconciled against traced events and every arrival accounted for,
//!   and least-loaded shedding strictly less than hash under overload.
//!   Exits 1 on any violation.

use bench::args::Args;
use bench::farm::{self, Config};

fn main() {
    let args = Args::parse(&[
        "mode",
        "seed",
        "shards",
        "streams",
        "duration-ms",
        "max-queue",
    ]);
    let mut cfg = Config {
        seed: args.get("seed", bench::DEFAULT_SEED),
        streams: args.get("streams", Config::default().streams),
        duration_us: args.get("duration-ms", 10_000u64) * 1_000,
        max_queue: args.get("max-queue", Config::default().max_queue),
        ..Default::default()
    };
    if args.provided("shards") {
        let list: String = args.get("shards", String::new());
        cfg.shards = list
            .split(',')
            .map(|s| {
                s.trim().parse().unwrap_or_else(|_| {
                    eprintln!("cannot parse --shards entry {s:?}");
                    std::process::exit(2);
                })
            })
            .collect();
    }

    match args.one_of("mode", &["sweep", "smoke"]) {
        "sweep" => {
            eprintln!(
                "# farm sweep — shards {:?}, {} streams, {} ms, queue {}, seed {}",
                cfg.shards,
                cfg.streams,
                cfg.duration_us / 1_000,
                cfg.max_queue,
                cfg.seed
            );
            farm::print_csv(&farm::sweep(&cfg));
        }
        "smoke" => match farm::smoke(&cfg) {
            Ok((hash, least_loaded, redirected)) => {
                eprintln!(
                    "# smoke OK: hash shed {}, least-loaded shed {}, \
                     redirect-on-overload rerouted {} (shed {}); all {} \
                     arrivals accounted",
                    hash.sheds,
                    least_loaded.sheds,
                    redirected.redirects,
                    redirected.sheds,
                    hash.arrivals
                );
            }
            Err(e) => {
                eprintln!("# smoke FAILED: {e}");
                std::process::exit(1);
            }
        },
        _ => unreachable!("one_of limits the choices"),
    }
}
