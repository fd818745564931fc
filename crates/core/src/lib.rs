//! # cascade — the Cascaded-SFC multimedia disk scheduler
//!
//! The primary contribution of *"Scalable Multimedia Disk Scheduling"*
//! (Mokbel, Aref, Elbassioni, Kamel — ICDE 2004), implemented as a
//! [`sched::DiskScheduler`].
//!
//! A disk request carrying `D` priority-like QoS parameters, a real-time
//! deadline, and a cylinder position is a point in `(D+2)`-dimensional
//! space. The **encapsulator** folds that point into a single
//! *characterization value* `v_c` through up to three cascaded
//! space-filling-curve stages:
//!
//! ```text
//!  D priorities ──SFC1──┐
//!                       ├──SFC2──┐
//!  deadline ────────────┘        ├──SFC3──► v_c ──► priority queue
//!  cylinder ─────────────────────┘
//! ```
//!
//! * **SFC1** — any catalogue curve ([`sfc::CurveKind`]) over the priority
//!   grid; the Diagonal minimizes total priority inversion, lexicographic
//!   curves protect one dimension absolutely (paper §5.1).
//! * **SFC2** — the weighted-diagonal family `v = priority + f·deadline`
//!   (or any 2-D catalogue curve); `f` dials between priority fidelity and
//!   deadline fidelity (§5.2).
//! * **SFC3** — the paper's partitioned sweep over (priority-deadline,
//!   cylinder distance), tuned by the scan-partition count `R` (§5.3).
//!
//! Every stage is optional (§4.1 flexibility): skip SFC2 when deadlines
//! are relaxed, SFC3 when transfers dominate seeks, SFC1 when there is a
//! single priority.
//!
//! The **dispatcher** serves requests in `v_c` order under one of three
//! regimes (§3.1): fully-preemptive, non-preemptive (double-queue swap),
//! or the paper's *conditionally-preemptive* scheduler with blocking
//! window `w`, the SP (Serve-and-Promote) anti-inversion policy, and the
//! ER (Expand-and-Reset) anti-starvation policy.
//!
//! ```
//! use cascade::{CascadeConfig, CascadedSfc};
//! use sched::{DiskScheduler, HeadState, QosVector, Request};
//!
//! // 3 QoS dimensions with 16 levels each, deadline horizon 1 s, f = 1,
//! // SFC3 with R = 3 over a 3832-cylinder disk.
//! let config = CascadeConfig::paper_default(3, 3832);
//! let mut sched = CascadedSfc::new(config).unwrap();
//!
//! let head = HeadState::new(0, 0, 3832);
//! let req = Request::read(1, 0, 500_000, 1200, 65536, QosVector::new(&[2, 0, 5]));
//! sched.enqueue(req, &head);
//! assert_eq!(sched.dequeue(&head).unwrap().id, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod dispatcher;
mod encapsulator;
pub mod presets;
mod scheduler;

pub use config::{
    CascadeConfig, DispatchConfig, DistanceMode, PreemptionMode, Stage1, Stage2, Stage2Combiner,
    Stage3,
};
pub use dispatcher::Dispatcher;
pub use encapsulator::Encapsulator;
pub use scheduler::CascadedSfc;
