//! # sched — multimedia disk requests and baseline schedulers
//!
//! The request/QoS model shared by the whole workspace, the object-safe
//! [`DiskScheduler`] trait, and every baseline scheduler the paper compares
//! against or generalizes:
//!
//! | Scheduler | Optimizes | Reference |
//! |---|---|---|
//! | [`Fcfs`] | arrival fairness | classic |
//! | [`Sstf`] | seek time | classic |
//! | [`Scan`] / [`CScan`] | seek time (elevator) | Denning 1967 |
//! | [`Edf`] | deadlines | Liu & Layland 1973 |
//! | [`ScanEdf`] | deadlines, then seek | Reddy & Wyllie 1993 |
//! | [`MultiQueue`] | one priority dimension | Carey, Jauhari & Livny 1989 |
//! | [`Bucket`] | value + deadline | Haritsa, Carey & Livny 1993 |
//! | [`DeadlineDriven`] | priority + deadline + seek | Kamel, Niranjan & Ghandeharizadeh, ICDE 2000 |
//!
//! The Cascaded-SFC scheduler itself lives in the `cascade` crate and
//! implements the same [`DiskScheduler`] trait, so the simulator can drive
//! any of them interchangeably.
//!
//! ```
//! use sched::{DiskScheduler, Edf, HeadState, QosVector, Request};
//!
//! let mut edf = Edf::new();
//! let head = HeadState::new(0, 0, 3832);
//! edf.enqueue(Request::read(1, 0, 900_000, 10, 512, QosVector::none()), &head);
//! edf.enqueue(Request::read(2, 0, 100_000, 20, 512, QosVector::none()), &head);
//! assert_eq!(edf.dequeue(&head).unwrap().id, 2); // earliest deadline first
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baselines;
mod cost;
mod request;
mod scheduler;

pub use baselines::batched::Batched;
pub use baselines::bucket::Bucket;
pub use baselines::deadline_driven::DeadlineDriven;
pub use baselines::edf::Edf;
pub use baselines::fcfs::Fcfs;
pub use baselines::multi_queue::MultiQueue;
pub use baselines::scan::{CScan, Scan};
pub use baselines::scan_edf::ScanEdf;
pub use baselines::sstf::Sstf;
pub use cost::CostModel;
pub use request::{OpKind, QosVector, Request, MAX_QOS_DIMS};
pub use scheduler::{DiskScheduler, HeadState, Retune, SweepDirection};

/// Microseconds — the integer time unit shared with the simulator.
pub type Micros = u64;
