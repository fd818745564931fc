//! # bench — experiment harnesses for every table and figure
//!
//! Each figure module regenerates one table or figure of the paper:
//! `run(&Config)` measures the series and `csv(&rows)` renders the bytes
//! `results/` holds. [`FIGURES`] lists every committed file with the
//! function that writes it, and the one `bench` binary (`src/main.rs`)
//! drives them: `bench fig5` prints a file to stdout, `bench experiments`
//! writes them all, and `ci.sh` diffs that against `results/`. The
//! implementation's own speed is measured by the daemon-path benchmark
//! in `benchmark/` (its own package), not here.
//!
//! | Module | Paper artifact | What it shows |
//! |---|---|---|
//! | [`fig5`]  | Figure 5  | priority inversion vs. blocking window, 7 SFC1 curves |
//! | [`fig6`]  | Figure 6  | scalability: inversion vs. QoS dimensionality |
//! | [`fig7`]  | Figure 7  | fairness: per-dimension inversion spread |
//! | [`fig8`]  | Figure 8  | the deadline balance factor `f` in SFC2 |
//! | [`fig9`]  | Figure 9  | selectivity: which priority levels miss deadlines |
//! | [`fig10`] | Figure 10 | the scan-partition count `R` in SFC3 |
//! | [`fig11`] | Figure 11 | NewsByte5 editing server: weighted aggregate losses |
//! | [`table1`]| Table 1   | the disk model and its calibration |
//! | [`ablation`] | §3 | dispatcher regimes, SP, ER, starvation bounds |
//!
//! The subcommands of `bench` (`cargo run -p bench --release --bin bench --
//! <subcommand> [--flag value]...`; the first `--mode` listed is the
//! default, and what each gate checks is in its module's documentation):
//!
//! | Subcommand | Flags | Output |
//! |---|---|---|
//! | `table1`, `fig5`, `fig5_high_load`, `fig6`, `fig7`, `fig8`, `fig9`, `fig9_centroids`, `fig10`, `fig11` | `--seed` | one row of [`FIGURES`] each: the bytes of `results/<name>.csv` on stdout |
//! | `experiments` | `--seed --out` | every row of [`FIGURES`] written into `--out` (default `results`) |
//! | `ablation` | `--seed` | [`ablation`]: preemption regimes and SP/ER under a mixed load and the adversarial starvation stream |
//! | `curves` | | [`sfc::quality`]: the geometric quality table of the whole curve catalogue (2-D, order 4) |
//! | `trace` | `--seed --requests --dims --service-us --window --transient-ppm --bad-sector-ppm --retries --max-queue --out --format jsonl\|csv` | [`trace`]: a fully-instrumented run's per-request event timeline into `--out`; histogram summary and reconciliation verdict on stderr |
//! | `faults` | `--mode sweep\|smoke\|degraded --seed --members --streams --duration-ms --retries --rate-ppm` | [`fault`]: loss/seek/p99 degradation curves under injected media errors, the fault smoke gate, or the degraded-RAID report |
//! | `farm` | `--mode sweep\|smoke --seed --shards 1,2,4,8 --streams --duration-ms --max-queue` | [`farm`]: shard-count scaling under the three routing policies, or the farm smoke gate |
//! | `daemon` | `--mode smoke --seed` | [`daemon`]: the continuous-operation smoke gate — prefix parity with the batch farm, drain/quarantine churn with a closed ledger, bit-identity |
//! | `scenario` | `--mode smoke\|scale --seed --sessions --horizon-s --shards --max-queue --max-streams --trials` | [`scenario`]: the million-stream closed-loop gate; `scale` also prints the analytic seek-convergence table as CSV |
//! | `ctrl` | `--mode smoke\|sweep --seed --csv true --f 0,0.5 --r 1,3 --w 0,0.1` | [`ctrl`]: the live-improvement smoke gate, or the `(f, R, w)` convergence sweep against exhaustive search (`--csv true` prints its table) |
//! | `obsreport` | `--mode stream\|prom\|smoke --seed` | [`obsreport`]: per-window telemetry JSONL, the Prometheus text format, or the telemetry smoke gate |
//! | `perf` | `--seed --budget` | [`perf`]: the self-relative telemetry overhead gate; exits 1 when the live sink costs more than `--budget` (default 0.05) of NullSink throughput |
//!
//! All experiments are deterministic given a seed; every subcommand that
//! draws random numbers takes `--seed N`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod args;
pub mod ctrl;
pub mod daemon;
pub mod farm;
pub mod fault;
pub mod fig10;
pub mod fig11;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod obsreport;
pub mod perf;
pub mod scenario;
pub mod table1;
pub mod trace;
mod vod;

/// The seven SFC1 curves of the paper's Figure 1 (see DESIGN.md §4 for
/// the reconstruction of the OCR-dropped labels).
pub use sfc::CurveKind;

/// Default RNG seed used by every experiment.
pub const DEFAULT_SEED: u64 = 20040330; // ICDE 2004 ran March 30, 2004

/// One row of [`FIGURES`]: a figure module's default experiment at a
/// seed (and any named `Config` overrides), rendered by its `csv`.
macro_rules! figure {
    ($module:ident $(, $field:ident: $value:expr)*) => {
        |seed| {
            $module::csv(&$module::run(&$module::Config {
                seed,
                $($field: $value,)*
                ..Default::default()
            }))
        }
    };
}

/// The bytes of one `results/` file at a seed.
pub type Render = fn(u64) -> String;

/// Every file of `results/` and the function that renders it at a seed:
/// `bench <stem>` prints one, `bench experiments` writes them all.
pub const FIGURES: [(&str, Render); 10] = [
    ("table1.csv", |_| table1::csv(&table1::run())),
    ("fig5.csv", figure!(fig5)),
    // "Normal and high system load", §5.1.
    ("fig5_high_load.csv", figure!(fig5, service_us: 24_000)),
    ("fig6.csv", figure!(fig6)),
    ("fig7.csv", figure!(fig7)),
    ("fig8.csv", figure!(fig8)),
    ("fig9.csv", |seed| fig9::csv(&fig9_rows(seed))),
    ("fig9_centroids.csv", |seed| {
        fig9::centroids_csv(&fig9_rows(seed))
    }),
    ("fig10.csv", figure!(fig10)),
    ("fig11.csv", figure!(fig11)),
];

fn fig9_rows(seed: u64) -> Vec<fig9::Row> {
    fig9::run(&fig9::Config {
        base: fig8::Config {
            seed,
            ..Default::default()
        },
        ..Default::default()
    })
}
