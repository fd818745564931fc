//! # farm — sharded multi-disk scheduling at fleet scale
//!
//! The paper's PanaViss deployment runs one Cascaded-SFC scheduler per
//! member disk of a single RAID group. A production service runs *many*
//! such groups: this crate scales the simulator from one group to a farm
//! of N shards, each shard owning its own disk, scheduler, and trace
//! sink.
//!
//! Three pieces:
//!
//! * **Routing** ([`RoutePolicy`]): an arriving request is placed on
//!   exactly one shard by the configured policy — [`RoutePolicy::HashStream`]
//!   (sticky per stream), [`RoutePolicy::CylinderRange`]
//!   (placement-affine bands) or [`RoutePolicy::LeastLoaded`]
//!   (queue-depth feedback). Routing runs as a serial deterministic pass
//!   over the arrival-ordered trace against a modeled per-shard load, so
//!   placements never depend on execution timing.
//! * **Execution**: once placements are fixed the shard timelines are
//!   mutually independent; [`simulate_farm`] runs them one after another
//!   in shard order, each a [`sim::simulate_traced`] over its sub-trace.
//!   [`FarmDaemon`] interleaves the same routing and the same engine
//!   stepper event by event, and is checked against this batch run.
//! * **Overload handling**: shard schedulers with a bounded queue
//!   ([`sched::DiskScheduler::queue_capacity`]) shed under overload.
//!   With [`FarmConfig::redirect_on_overload`], the routing pass steers
//!   an arrival away from a projected-full shard to the least-loaded one
//!   with room instead, counting the detour and emitting an
//!   [`obs::TraceEvent::Redirect`] event.
//!
//! ```
//! use farm::{simulate_farm, FarmConfig, RoutePolicy};
//! use sched::Fcfs;
//! use sim::SimOptions;
//! use workload::VodConfig;
//!
//! let trace = VodConfig::mpeg1(24).generate(42);
//! let cfg = FarmConfig::new(4).with_policy(RoutePolicy::HashStream);
//! let (out, snap) = simulate_farm(
//!     &trace,
//!     &cfg,
//!     |_shard| Box::new(Fcfs::new()),
//!     SimOptions::with_shape(1, 4),
//! );
//! assert_eq!(out.served(), trace.len() as u64);
//! assert_eq!(snap.counters.arrivals, trace.len() as u64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;
mod online;
mod router;

pub use daemon::{
    DaemonConfig, DaemonEvent, DaemonReport, FarmDaemon, MemberStatus, RetuneAction,
    SupervisorConfig,
};
pub use online::{OnlineRouter, RouteDecision};
pub use router::{least_loaded, least_loaded_among, RoutePolicy, ShardLoad};

use obs::{Snapshot, TraceEvent, TraceSink};
use sched::{DiskScheduler, Request};
use sim::{simulate_traced, DiskService, Metrics, SimOptions};

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
    /// Modeled mean service time per request (µs) — drives the routing
    /// pass's queue-depth model. The default approximates one Table-1
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

/// The routing pass's output: per-shard sub-traces plus placement
/// accounting.
#[derive(Debug)]
pub struct Placement {
    /// Requests routed to each shard, in arrival order.
    pub shard_traces: Vec<Vec<Request>>,
    /// Requests placed on each shard.
    pub routed_per_shard: Vec<u64>,
    /// Arrivals steered away from a projected-full shard.
    pub redirects: u64,
}

/// Place every request of `trace` (arrival-ordered) onto a shard.
///
/// `capacities[i]` is shard `i`'s bounded-queue capacity (probed from its
/// scheduler). Redirect decisions emit [`TraceEvent::Redirect`] into
/// `sink`. The pass is serial and model-driven, so placements are a pure
/// function of the trace and configuration — and it is a thin loop over
/// [`OnlineRouter`] with every shard eligible, so the farm daemon's
/// incremental placements coincide with this pass by construction
/// whenever no membership event fires (the oracle's parity gate).
pub fn route_trace<S: TraceSink>(
    trace: &[Request],
    cfg: &FarmConfig,
    capacities: &[Option<usize>],
    sink: &mut S,
) -> Placement {
    let mut router = OnlineRouter::new(cfg, capacities);
    // Routing is stateful (load-model feedback), so exact per-shard counts
    // can't be precomputed; seed each shard near the balanced share to
    // avoid the early doubling churn.
    let mut shard_traces: Vec<Vec<Request>> = (0..cfg.shards)
        .map(|_| Vec::with_capacity(trace.len() / cfg.shards + 16))
        .collect();
    let mut routed_per_shard = vec![0u64; cfg.shards];

    for r in trace {
        let decision = router.route(r);
        if S::ENABLED {
            if let Some(event) = decision.redirect_event(r) {
                sink.emit(&event);
            }
        }
        routed_per_shard[decision.shard] += 1;
        shard_traces[decision.shard].push(r.clone());
    }

    Placement {
        shard_traces,
        routed_per_shard,
        redirects: router.redirects(),
    }
}

/// Result of a farm run: per-shard metrics plus farm-level accounting.
#[derive(Debug)]
pub struct FarmOutcome {
    /// Metrics per shard (index = shard id).
    pub per_shard: Vec<Metrics>,
    /// Bounded-queue sheds per shard (from the shards' schedulers).
    pub sheds_per_shard: Vec<u64>,
    /// Requests the router placed on each shard.
    pub routed_per_shard: Vec<u64>,
    /// Arrivals steered away from a projected-full shard.
    pub redirects: u64,
    /// Farm makespan: the slowest shard's makespan.
    pub makespan_us: u64,
}

impl FarmOutcome {
    /// Total requests served across shards.
    pub fn served(&self) -> u64 {
        Metrics::total_served(&self.per_shard)
    }

    /// Total deadline losses across shards.
    pub fn losses(&self) -> u64 {
        Metrics::total_losses(&self.per_shard)
    }

    /// Aggregate loss ratio.
    pub fn loss_ratio(&self) -> f64 {
        Metrics::group_loss_ratio(&self.per_shard)
    }

    /// Total bounded-queue sheds across shards.
    pub fn sheds(&self) -> u64 {
        self.sheds_per_shard.iter().sum()
    }

    /// The shards folded into one farm-level [`Metrics`] via
    /// [`Metrics::merge`].
    pub fn aggregate(&self) -> Metrics {
        Metrics::merged(&self.per_shard)
    }
}

/// Run `trace` through a farm of [`FarmConfig::shards`] Table-1 disks.
///
/// `make_scheduler(shard)` builds each shard's scheduler; it is also
/// called once per shard up front (and the instance discarded) to probe
/// [`sched::DiskScheduler::queue_capacity`] for the routing model. The
/// returned [`Snapshot`] merges the router's redirect events with every
/// shard's engine events and one [`TraceEvent::ShardReport`] per shard,
/// in shard order.
pub fn simulate_farm(
    trace: &[Request],
    cfg: &FarmConfig,
    make_scheduler: impl Fn(usize) -> Box<dyn DiskScheduler>,
    options: SimOptions,
) -> (FarmOutcome, Snapshot) {
    let (outcome, sinks) =
        simulate_farm_traced(trace, cfg, make_scheduler, options, |_| Snapshot::new());
    // Snapshot accumulation is commutative, so folding per-shard sinks in
    // shard order reproduces the single-sink totals bit for bit.
    let mut group = Snapshot::new();
    for sink in &sinks {
        group.merge(sink);
    }
    (outcome, group)
}

/// Demultiplexes the routing pass's [`TraceEvent::Redirect`] events into
/// the per-shard sink of the shard the arrival was steered *away from*,
/// so each shard's telemetry carries its own overload evidence.
struct RouterDemux<'a, S> {
    sinks: &'a mut [S],
}

impl<S: TraceSink> TraceSink for RouterDemux<'_, S> {
    const ENABLED: bool = S::ENABLED;

    fn emit(&mut self, event: &TraceEvent) {
        if let TraceEvent::Redirect { from_shard, .. } = event {
            self.sinks[*from_shard as usize].emit(event);
        }
    }
}

/// [`simulate_farm`] with one caller-built [`TraceSink`] per shard.
///
/// `make_sink(shard)` runs up front for every shard; each sink then
/// receives, in order: the routing pass's [`TraceEvent::Redirect`] events
/// whose `from_shard` is that shard, the shard engine's full event
/// stream, and one closing [`TraceEvent::ShardReport`]. The sinks come
/// back in shard order, so per-shard telemetry — e.g. an
/// [`obs::WindowedSnapshot`] or a flight recorder per shard — is a pure
/// function of the trace and the configuration.
pub fn simulate_farm_traced<S: TraceSink>(
    trace: &[Request],
    cfg: &FarmConfig,
    make_scheduler: impl Fn(usize) -> Box<dyn DiskScheduler>,
    options: SimOptions,
    make_sink: impl Fn(usize) -> S,
) -> (FarmOutcome, Vec<S>) {
    let capacities: Vec<Option<usize>> = (0..cfg.shards)
        .map(|s| make_scheduler(s).queue_capacity())
        .collect();

    let mut sinks: Vec<S> = (0..cfg.shards).map(make_sink).collect();
    let placement = {
        let mut demux = RouterDemux { sinks: &mut sinks };
        route_trace(trace, cfg, &capacities, &mut demux)
    };

    let mut per_shard = Vec::with_capacity(cfg.shards);
    let mut sheds_per_shard = Vec::with_capacity(cfg.shards);
    let mut makespan = 0u64;
    for (shard, sink) in sinks.iter_mut().enumerate() {
        let mut scheduler = make_scheduler(shard);
        let mut service = DiskService::table1();
        let m = simulate_traced(
            scheduler.as_mut(),
            &placement.shard_traces[shard],
            &mut service,
            options,
            sink,
        );
        let sheds = scheduler.sheds();
        if S::ENABLED {
            sink.emit(&TraceEvent::ShardReport {
                now_us: m.makespan_us,
                shard: shard as u32,
                served: m.served,
                sheds,
            });
        }
        makespan = makespan.max(m.makespan_us);
        per_shard.push(m);
        sheds_per_shard.push(sheds);
    }

    (
        FarmOutcome {
            per_shard,
            sheds_per_shard,
            routed_per_shard: placement.routed_per_shard,
            redirects: placement.redirects,
            makespan_us: makespan,
        },
        sinks,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched::{Fcfs, QosVector};

    fn batch(n: u64) -> Vec<Request> {
        (0..n)
            .map(|i| {
                Request::read(
                    i,
                    i * 200,
                    u64::MAX,
                    (i * 37 % 3832) as u32,
                    64 * 1024,
                    QosVector::single(0),
                )
                .with_stream(i % 16)
            })
            .collect()
    }

    #[test]
    fn every_request_lands_on_exactly_one_shard() {
        let trace = batch(300);
        for policy in [
            RoutePolicy::HashStream,
            RoutePolicy::CylinderRange,
            RoutePolicy::LeastLoaded,
        ] {
            let cfg = FarmConfig::new(4).with_policy(policy);
            let (out, snap) = simulate_farm(
                &trace,
                &cfg,
                |_| Box::new(Fcfs::new()),
                SimOptions::with_shape(1, 4),
            );
            assert_eq!(out.routed_per_shard.iter().sum::<u64>(), 300, "{policy:?}");
            assert_eq!(out.served(), 300, "{policy:?}");
            assert_eq!(snap.counters.arrivals, 300, "{policy:?}");
            assert_eq!(snap.counters.shard_reports, 4, "{policy:?}");
        }
    }

    #[test]
    fn sharding_shortens_the_makespan() {
        let trace = batch(600);
        let one = FarmConfig::new(1);
        let four = FarmConfig::new(4).with_policy(RoutePolicy::LeastLoaded);
        let mk = |_: usize| -> Box<dyn DiskScheduler> { Box::new(Fcfs::new()) };
        let (o1, _) = simulate_farm(&trace, &one, mk, SimOptions::with_shape(1, 4));
        let (o4, _) = simulate_farm(&trace, &four, mk, SimOptions::with_shape(1, 4));
        let speedup = o1.makespan_us as f64 / o4.makespan_us as f64;
        assert!(
            speedup > 2.0,
            "4 shards should beat 1 disk: speedup {speedup:.2}"
        );
    }

    #[test]
    fn least_loaded_balances_the_load() {
        let trace = batch(400);
        let cfg = FarmConfig::new(4).with_policy(RoutePolicy::LeastLoaded);
        let (out, _) = simulate_farm(
            &trace,
            &cfg,
            |_| Box::new(Fcfs::new()),
            SimOptions::with_shape(1, 4),
        );
        let min = *out.routed_per_shard.iter().min().unwrap();
        let max = *out.routed_per_shard.iter().max().unwrap();
        assert!(
            max - min <= 8,
            "feedback routing should balance: {:?}",
            out.routed_per_shard
        );
    }

    #[test]
    fn single_shard_farm_matches_plain_simulation() {
        let trace = batch(200);
        let cfg = FarmConfig::new(1);
        let (out, _) = simulate_farm(
            &trace,
            &cfg,
            |_| Box::new(Fcfs::new()),
            SimOptions::with_shape(1, 4),
        );
        let mut fcfs = Fcfs::new();
        let mut service = DiskService::table1();
        let direct = sim::simulate(
            &mut fcfs,
            &trace,
            &mut service,
            SimOptions::with_shape(1, 4),
        );
        assert_eq!(out.per_shard[0], direct);
    }
}
