//! # sim — discrete-event disk-scheduling simulator and QoS metrics
//!
//! Drives any [`sched::DiskScheduler`] over a workload trace against a
//! service-time model, collecting the paper's evaluation metrics:
//!
//! * **priority inversion** per QoS dimension (normalized to FCFS, §5.1),
//! * **deadline misses**, broken down per priority level per dimension
//!   (the selectivity analysis of Figure 9),
//! * **fairness** — the standard deviation of per-dimension inversion,
//! * **disk utilization** — seek/rotation/transfer breakdowns,
//! * §6's **weighted aggregate loss** cost function
//!   `f = Σ wᵢ·mᵢ/rᵢ` with linearly decreasing weights.
//!
//! Two service models mirror the paper's experimental assumptions: the
//! full Table-1 [`diskmodel::Disk`] (Figures 10–11), and a
//! transfer-dominated model where seek time is negligible (Figures 5–9:
//! "the disk block size is large enough to make the transfer time of disk
//! requests dominate the seek time").
//!
//! ```
//! use sched::Fcfs;
//! use sim::{simulate, SimOptions, TransferDominated};
//! use workload::PoissonConfig;
//!
//! let trace = PoissonConfig::figure5(2, 500).generate(42);
//! let mut service = TransferDominated::uniform(20_000, 3832);
//! let m = simulate(&mut Fcfs::new(), &trace, &mut service, SimOptions::default());
//! assert_eq!(m.served + m.dropped, 500);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod analysis;
mod backoff;
mod engine;
mod metrics;
mod service;
mod step;
mod striped;

pub use backoff::jittered_backoff_us;
pub use engine::{simulate, simulate_logged, simulate_traced, RequestRecord, SimOptions};
pub use metrics::{fifo_inversion_baseline, Metrics};
pub use service::{
    DiskService, Raid5Service, ServiceFault, ServiceOutcome, ServiceProvider, TransferDominated,
};
pub use step::EngineStepper;
pub use striped::{simulate_striped, StripedOutcome};

pub use sched::Micros;
