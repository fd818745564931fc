//! # farm — sharded multi-disk scheduling at fleet scale
//!
//! The paper's PanaViss deployment runs one Cascaded-SFC scheduler per
//! member disk of a single RAID group. A production service runs *many*
//! such groups: this crate scales the simulator from one group to a farm
//! of N shards, each shard owning its own disk, scheduler, and flight
//! recorder, run by one [`FarmDaemon`].
//!
//! Three pieces:
//!
//! * **Routing** ([`RoutePolicy`]): an arriving request is placed on
//!   exactly one shard by the configured policy — [`RoutePolicy::HashStream`]
//!   (sticky per stream), [`RoutePolicy::CylinderRange`]
//!   (placement-affine bands) or [`RoutePolicy::LeastLoaded`]
//!   (queue-depth feedback). The [`OnlineRouter`] decides against a
//!   modeled per-shard load fed by arrival times alone, so placements
//!   never depend on execution timing.
//! * **Execution**: [`FarmDaemon`] submits each placed arrival to its
//!   shard's engine stepper and interleaves the shards event by event;
//!   a shard's timeline depends only on its own arrivals, so a quiet
//!   daemon's shards are exactly what one plain [`sim::simulate`] per
//!   shard sub-trace produces (the oracle's daemon gate holds it to
//!   that).
//! * **Overload handling**: shard schedulers with a bounded queue
//!   ([`sched::DiskScheduler::queue_capacity`]) shed under overload.
//!   With [`FarmConfig::redirect_on_overload`], the router steers an
//!   arrival away from a projected-full shard to the least-loaded one
//!   with room instead, counting the detour and emitting an
//!   [`obs::TraceEvent::Redirect`] event.
//!
//! ```
//! use farm::{DaemonConfig, DaemonEvent, FarmConfig, FarmDaemon, RoutePolicy};
//! use sched::Fcfs;
//! use sim::{DiskService, SimOptions};
//! use workload::VodConfig;
//!
//! // A generator is a lazy stream: the daemon pulls it one arrival at a time.
//! let trace = VodConfig::mpeg1(24).generate(42);
//! let arrivals = trace.len() as u64;
//! let cfg = FarmConfig::new(4).with_policy(RoutePolicy::HashStream);
//! let daemon = FarmDaemon::new(
//!     DaemonConfig::new(cfg, SimOptions::with_shape(1, 4)),
//!     |_shard, _sink| Box::new(Fcfs::new()),
//!     |_shard| DiskService::table1(),
//! );
//! let report = daemon.run(trace.map(DaemonEvent::Arrival));
//! assert_eq!(report.served(), arrivals);
//! report.ledger().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;
mod online;
mod router;

pub use daemon::{
    DaemonConfig, DaemonEvent, DaemonReport, FarmDaemon, MemberStatus, SupervisorConfig,
};
pub use online::{OnlineRouter, RouteDecision};
pub use router::RoutePolicy;

/// Configuration of a farm run.
#[derive(Debug, Clone)]
pub struct FarmConfig {
    /// Number of shards (disk + scheduler pairs).
    pub shards: usize,
    /// Routing policy placing arrivals onto shards.
    pub policy: RoutePolicy,
    /// Steer arrivals away from projected-full shards to the least-loaded
    /// shard with room, instead of letting the bounded queue shed.
    pub redirect_on_overload: bool,
    /// Modeled mean service time per request (µs) — drives the router's
    /// queue-depth model. The default approximates one Table-1
    /// 64-KB access (seek + half a rotation + transfer).
    pub est_service_us: u64,
    /// Cylinders per shard disk (sizes the range partition).
    pub cylinders: u32,
}

impl FarmConfig {
    /// A farm of `shards` Table-1 disks, hash routing, no redirects.
    pub fn new(shards: usize) -> Self {
        FarmConfig {
            shards,
            policy: RoutePolicy::HashStream,
            redirect_on_overload: false,
            est_service_us: 15_000,
            cylinders: 3832,
        }
    }

    /// Set the routing policy.
    pub fn with_policy(mut self, policy: RoutePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enable redirect-on-overload.
    pub fn with_redirects(mut self) -> Self {
        self.redirect_on_overload = true;
        self
    }
}
