//! Oracle runner: the differential/metamorphic CI gate, the seeded fuzz
//! driver, and corpus replay/regeneration.
//!
//! ```text
//! cargo run -p oracle --release --bin oracle -- --mode smoke|fuzz|replay|corpus|perf-parity
//!     [--seed N] [--cases N] [--corpus DIR]
//! ```
//!
//! * `smoke` (default) runs the fixed CI battery: cascade and baseline
//!   differential oracles on three seeded workloads, the farm routing
//!   replay under every policy, one fuzz case per archetype, and the
//!   metamorphic quick pass. Exits 1 on any divergence.
//! * `fuzz` runs `--cases` seeded adversarial cases; a failure is
//!   minimized and saved as a replayable `.case` file under `--corpus`.
//! * `replay` re-runs every `.case` file in `--corpus`.
//! * `corpus` regenerates the committed regression corpus: one `.case`
//!   per archetype at the given seed (each verified to pass).
//! * `perf-parity` diffs the optimized engine against the naive
//!   reference on every corpus trace under all four dispatcher regimes —
//!   the quick semantic gate to run after a hot-path optimization.

use bench::args::Args;
use oracle::fuzz::{self, Scenario, ARCHETYPES};
use std::path::PathBuf;

fn main() {
    let args = Args::parse(
        "oracle",
        std::env::args().skip(1).collect(),
        &["mode", "seed", "cases", "corpus"],
    );
    let seed = args.get("seed", bench::DEFAULT_SEED);
    let cases: u64 = args.get("cases", 24u64);
    let corpus: PathBuf = PathBuf::from(args.get("corpus", "tests/corpus".to_string()));

    match args.one_of(
        "mode",
        &["smoke", "fuzz", "replay", "corpus", "perf-parity"],
    ) {
        "smoke" => match oracle::smoke::run(seed) {
            Ok(report) => {
                eprintln!(
                    "# oracle smoke OK: {} differential runs agreed across {} \
                     requests; metamorphic pass clean (seed {seed})",
                    report.differential_runs, report.requests_checked
                );
            }
            Err(e) => {
                eprintln!("# oracle smoke FAILED: {e}");
                std::process::exit(1);
            }
        },
        "fuzz" => match fuzz::fuzz(seed, cases, Some(&corpus)) {
            Ok(n) => eprintln!("# oracle fuzz OK: {n} cases, no divergence (seed {seed})"),
            Err(e) => {
                eprintln!("# oracle fuzz FAILED: {e}");
                std::process::exit(1);
            }
        },
        "replay" => match fuzz::replay_dir(&corpus) {
            Ok(n) => eprintln!("# oracle replay OK: {n} corpus cases re-checked clean"),
            Err(e) => {
                eprintln!("# oracle replay FAILED: {e}");
                std::process::exit(1);
            }
        },
        "perf-parity" => match oracle::smoke::perf_parity(&corpus) {
            Ok(report) => {
                eprintln!(
                    "# oracle perf-parity OK: {} differential runs agreed across {} \
                     requests on the corpus",
                    report.differential_runs, report.requests_checked
                );
            }
            Err(e) => {
                eprintln!("# oracle perf-parity FAILED: {e}");
                std::process::exit(1);
            }
        },
        "corpus" => {
            if let Err(e) = std::fs::create_dir_all(&corpus) {
                eprintln!("# cannot create {}: {e}", corpus.display());
                std::process::exit(1);
            }
            for archetype in ARCHETYPES {
                let scenario = Scenario { archetype, seed };
                let trace = scenario.trace();
                if let Err(e) = scenario.check(&trace) {
                    eprintln!("# corpus seed {seed} fails {archetype}: {e}");
                    std::process::exit(1);
                }
                let path = corpus.join(format!("{archetype}-{seed}.case"));
                if let Err(e) = std::fs::write(&path, fuzz::case_text(&scenario, &trace)) {
                    eprintln!("# cannot write {}: {e}", path.display());
                    std::process::exit(1);
                }
                eprintln!("# wrote {} ({} requests)", path.display(), trace.len());
            }
        }
        _ => unreachable!("one_of limits the choices"),
    }
}
