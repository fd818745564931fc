//! # workload — multimedia request-stream generators
//!
//! Synthetic workloads matching the paper's experimental setups:
//!
//! * [`PoissonConfig`] — the §5 micro-benchmarks: Poisson arrivals with a
//!   configurable mean interarrival time, `D` priority dimensions with
//!   uniform or normal level assignment, uniform deadline windows, uniform
//!   cylinders, and priority-dependent request sizes ("high priority
//!   requests are smaller", §5.2).
//! * [`VodConfig`] — classic video-on-demand: free-running periodic
//!   streams with sequential layout and one-period deadlines.
//! * [`NewsByteConfig`] — the §6 non-linear-editing server: 68–91 users
//!   each streaming MPEG-1 at 1.5 Mb/s in periodic bursts of 64-KB block
//!   requests (striped over a 4-data-disk RAID-5, so one simulated disk
//!   sees a quarter of the blocks), 8 priority levels with a normal
//!   distribution, deadlines uniform in 75–150 ms, and a read/write mix.
//! * [`stream`] — the pull-based [`TraceSource`] interface every
//!   generator implements: [`SessionSource`] grows a closed-loop
//!   population of mixed VoD/NewsByte sessions (diurnal and flash-crowd
//!   arrival curves, think times, consumer backpressure) in memory
//!   proportional to the *live* session count, and [`VecSource`] adapts
//!   any materialized trace to the same interface.
//!
//! `generate(seed)` returns a stream — [`PoissonStream`],
//! [`NewsByteStream`], [`VodStream`] — not a `Vec`: it holds one chunk or
//! burst tick at a time, knows its exact remaining length, and emits the
//! requests, order and ids the materialized [`Trace`] would hold.
//! `.collect()` it where a [`Trace`] is needed; hand it straight to a
//! streaming consumer where it is not.
//!
//! All generators are fully deterministic given a seed. The distribution
//! primitives in [`dist`] are derived from `rand`'s uniform source, so no
//! extra distribution crates are needed.
//!
//! ```
//! use workload::{PoissonConfig, Trace, validate_trace};
//!
//! let stream = PoissonConfig::figure5(4, 100).generate(42);
//! assert_eq!(stream.len(), 100);
//! let trace: Trace = stream.collect();
//! assert!(validate_trace(&trace));
//! assert!(PoissonConfig::figure5(4, 100).generate(42).eq(trace)); // deterministic
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod io;
mod newsbyte;
mod poisson;
pub mod stream;
mod ticks;
mod vod;

pub use newsbyte::{NewsByteConfig, NewsByteStream};
pub use poisson::{DeadlineDist, LevelDist, PoissonConfig, PoissonStream, Sizing};
pub use stream::{uniform_batch, RateCurve, SessionConfig, SessionSource, TraceSource, VecSource};
pub use vod::{VodConfig, VodStream};

use sched::Request;

/// A generated trace: requests sorted by arrival time.
pub type Trace = Vec<Request>;

/// Check a trace invariant used across the test-suite: arrivals sorted,
/// ids unique and dense.
pub fn validate_trace(trace: &Trace) -> bool {
    trace.windows(2).all(|w| w[0].arrival_us <= w[1].arrival_us)
        && trace.iter().enumerate().all(|(i, r)| r.id == i as u64)
}
