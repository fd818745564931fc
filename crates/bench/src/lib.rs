//! # bench — experiment harnesses for every table and figure
//!
//! Each module regenerates one table or figure of the paper; the
//! binaries in `src/bin/` print the series as CSV. The implementation's
//! own speed is measured by the daemon-path benchmark in `benchmark/`
//! (its own package), not here.
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
//! Extra binaries: `curves` (the geometric quality table of the whole
//! curve catalogue), `experiments` (runs everything into `results/`),
//! `trace` (a fully-instrumented run emitting the per-request event
//! timeline as JSONL/CSV plus a histogram summary — see [`trace`]), and
//! `faults` (loss/seek/p99 degradation curves under injected media
//! errors, a degraded-RAID scenario, and the CI smoke gate — see
//! [`fault`]), and `farm` (shard-count scaling under the three routing
//! policies and the farm smoke gate — see
//! [`farm`]), and `daemon` (the continuous-operation smoke gate:
//! quiescent-prefix parity with the batch farm, drain/quarantine churn
//! with a closed ledger, and run-to-run bit-identity — see [`daemon`]),
//! and `ctrl` (the self-tuning control plane's gates: the offline
//! `(f, R, w)` convergence sweep against exhaustive grid search and the
//! live-improvement smoke gate — see [`ctrl`]), and `perf` (the
//! self-relative telemetry overhead gate — see [`perf`]), and `obsreport` (the live telemetry plane's exposition:
//! streaming per-window JSONL, Prometheus text format, and the
//! telemetry smoke gate — see [`obsreport`]), and `scenario` (the
//! million-stream closed-loop gate: a bounded-memory session population
//! streamed through the farm daemon with an exact ledger, plus the
//! analytic seek-distance convergence check — see [`scenario`]).
//!
//! All experiments are deterministic given a seed; run any binary with
//! `--seed N` to change it.

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

/// The seven SFC1 curves of the paper's Figure 1 (see DESIGN.md §4 for
/// the reconstruction of the OCR-dropped labels).
pub use sfc::CurveKind;

/// Default RNG seed used by every experiment.
pub const DEFAULT_SEED: u64 = 20040330; // ICDE 2004 ran March 30, 2004
