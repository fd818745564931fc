//! # cascaded-sfc — scalable multimedia disk scheduling
//!
//! Umbrella crate for the reproduction of *"Scalable Multimedia Disk
//! Scheduling"* (Mokbel, Aref, Elbassioni, Kamel — ICDE 2004). It
//! re-exports the workspace crates under one roof:
//!
//! * [`sfc`] — space-filling curves (the scheduling substrate),
//! * [`diskmodel`] — the simulated disk of the paper's Table 1,
//! * [`sched`] — request model and baseline disk schedulers,
//! * [`cascade`] — the Cascaded-SFC scheduler itself,
//! * [`workload`] — multimedia workload generators,
//! * [`sim`] — the discrete-event simulator and QoS metrics,
//! * [`obs`] — the zero-dependency event-trace and histogram
//!   observability layer (sinks, log2 histograms, snapshots),
//! * [`farm`] — the sharded multi-disk scheduling farm (routing
//!   policies, redirect-on-overload, the daemon).
//!
//! See `README.md` for a tour and `examples/` for runnable entry points.

#![forbid(unsafe_code)]

pub use cascade;
pub use diskmodel;
pub use farm;
pub use obs;
pub use sched;
pub use sfc;
pub use sim;
pub use workload;

/// One-line imports for the common path: build a scheduler, generate a
/// workload, simulate, read the metrics.
///
/// ```
/// use cascaded_sfc::obs::NullSink;
/// use cascaded_sfc::prelude::*;
///
/// let mut s = CascadedSfc::new(CascadeConfig::paper_default(2, 3832)).unwrap();
/// let trace: Vec<Request> = PoissonConfig::figure5(2, 200).generate(1).collect();
/// let mut disk = DiskService::table1();
/// let options = SimOptions::with_shape(2, 16);
/// let m = simulate(&mut s, &trace, &mut disk, options, &mut NullSink);
/// assert_eq!(m.served, 200);
/// ```
pub mod prelude {
    pub use cascade::{CascadeConfig, CascadedSfc, DispatchConfig};
    pub use diskmodel::{Disk, DiskGeometry, SeekModel};
    pub use sched::{DiskScheduler, HeadState, QosVector, Request};
    pub use sfc::{CurveKind, SpaceFillingCurve};
    pub use sim::{simulate, DiskService, Metrics, SimOptions, TransferDominated};
    pub use workload::{NewsByteConfig, PoissonConfig, VodConfig};
}
