//! The five workloads: what each one runs and why it exists.
//!
//! Every number here is a committed constant — the benchmark's inputs are
//! a pure function of `(workload, seed)`, and the arrival counts are fixed
//! so that host time is "work completed per second at a stated input
//! size" and every simulated metric repeats exactly for a given seed.

use cascade::{CascadeConfig, CascadedSfc, DispatchConfig};
use farm::{DaemonConfig, FarmConfig, FarmDaemon, RoutePolicy};
use obs::{FlightRecorder, SharedSink, TelemetryConfig, TriggerConfig};
use sched::{DiskScheduler, Fcfs};
use sim::{DiskService, SimOptions};
use workload::{
    DeadlineDist, NewsByteConfig, PoissonConfig, RateCurve, SessionConfig, SessionSource,
};

use crate::sources::{Generator, NewsByteSegments, PoissonSegments, Source, LEVELS};
use crate::trace::{Shard, TraceHandle, TracedScheduler};

/// Cylinders of the Table-1 disk every shard models.
pub const CYLINDERS: u32 = 3832;
/// QoS dimensions of the scheduler shape (`paper_default(3, ..)`).
pub const DIMS: u32 = 3;

/// Which scheduler the shards run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPolicy {
    /// The paper's three-stage scheduler, `CascadeConfig::paper_default`.
    Cascade,
    /// `sched::Fcfs` — the daemon floor `ref.fcfs_cost_ratio` reports.
    Fcfs,
}

/// One of the five named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop mixed sessions over 8 shards, near saturation.
    Steady,
    /// Open-loop Poisson on one saturated shard with a deep queue.
    Deep,
    /// The session model over 64 half-idle shards.
    Wide,
    /// Overload, admission pressure, membership churn and a live
    /// controller.
    Surge,
    /// Open-loop NewsByte bursts that arrive in chunks.
    Burst,
}

/// Admission gate shape: `(max concurrently active streams, idle µs)`.
type Gate = Option<(u32, u64)>;

/// Membership churn and control for `surge`: every `churn_every`
/// arrivals one shard is added and the oldest one drained; the
/// controller decides every `cadence` arrivals.
#[derive(Debug, Clone, Copy)]
pub struct Script {
    /// Arrivals between `AddShard` + `DrainShard` pairs.
    pub churn_every: u64,
    /// Hand-off window of each drain (µs).
    pub handoff_us: u64,
    /// Arrival index of the single operator `Quarantine`.
    pub quarantine_at: u64,
    /// Arrivals between controller rounds.
    pub cadence: u64,
    /// Members the farm ends up with, drained ones included.
    pub max_members: usize,
}

/// Churn rounds per `surge` run: one every 200 k arrivals at the
/// committed count.
const CHURN_ROUNDS: u64 = 15;

impl Workload {
    /// All workloads, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::Steady,
        Workload::Deep,
        Workload::Wide,
        Workload::Surge,
        Workload::Burst,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady => "steady",
            Workload::Deep => "deep",
            Workload::Wide => "wide",
            Workload::Surge => "surge",
            Workload::Burst => "burst",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Arrivals per repetition. Sized so one repetition's timed region is
    /// a little over two seconds on the 2-core reference host.
    pub fn arrivals(self) -> u64 {
        match self {
            Workload::Steady => 2_500_000,
            Workload::Deep => 900_000,
            Workload::Wide => 950_000,
            Workload::Surge => 2_000_000,
            Workload::Burst => 3_800_000,
        }
    }

    /// Shards the daemon starts with.
    pub fn shards(self) -> usize {
        match self {
            Workload::Steady => 8,
            Workload::Deep => 1,
            Workload::Wide => 64,
            Workload::Surge | Workload::Burst => 4,
        }
    }

    /// Session births per minute at `shards` shards (closed-loop
    /// workloads). `wide` keeps the per-shard load constant when the
    /// scaling curve varies the shard count.
    fn sessions_per_minute(self, shards: usize) -> f64 {
        match self {
            Workload::Steady => 600.0,
            Workload::Wide => 2_200.0 * shards as f64 / 64.0,
            Workload::Surge => 4_500.0,
            Workload::Deep | Workload::Burst => 0.0,
        }
    }

    /// Blocks per session, inclusive.
    fn blocks(self) -> (u32, u32) {
        match self {
            Workload::Surge => (2, 4),
            _ => (20, 60),
        }
    }

    /// Simulated span (µs) the committed arrival count nominally covers,
    /// from the mean birth rate and mean session length — used only to
    /// place the diurnal cycles and the flash crowd.
    fn nominal_span_us(self) -> u64 {
        let (lo, hi) = self.blocks();
        let per_minute = self.sessions_per_minute(self.shards()) * f64::from(lo + hi) / 2.0;
        (self.arrivals() as f64 / per_minute * 60e6) as u64
    }

    fn session_config(self, shards: usize) -> SessionConfig {
        let rate = self.sessions_per_minute(shards);
        let span = self.nominal_span_us();
        let curves = match self {
            // A flat base the farm just copes with, plus a crowd of 2.5x
            // the base rate a little before mid-run.
            Workload::Surge => vec![
                RateCurve::Constant { per_minute: rate },
                RateCurve::FlashCrowd {
                    spike_per_minute: 2.5 * rate,
                    at_us: span * 9 / 20,
                    width_us: span / 40,
                },
            ],
            // Four day/night cycles swinging 0.8x..1.2x of the mean.
            _ => vec![RateCurve::Diurnal {
                base_per_minute: 0.8 * rate,
                peak_per_minute: 1.2 * rate,
                period_us: span / 4,
            }],
        };
        SessionConfig {
            curves,
            max_sessions: u64::MAX,
            horizon_us: u64::MAX,
            newsbyte_fraction: 0.3,
            blocks: self.blocks(),
            think_mean_us: 50_000,
            levels: LEVELS,
            cylinders: CYLINDERS,
            block_bytes: 64 * 1024,
            backpressure_backlog: 1024,
        }
    }

    /// The request stream: `arrivals` requests generated from `seed`,
    /// for a farm of `shards` shards.
    pub fn source_for(self, seed: u64, arrivals: u64, shards: usize) -> Source {
        let generator = match self {
            Workload::Steady | Workload::Wide | Workload::Surge => {
                Generator::Sessions(SessionSource::new(self.session_config(shards), seed))
            }
            Workload::Deep => Generator::Poisson(PoissonSegments::new(
                PoissonConfig {
                    // rho ~ 1 on the Table-1 disk for Figure 8's
                    // priority-scaled sizes; deadlines long enough that
                    // the queue, not the drop rule, absorbs the load.
                    mean_interarrival_us: 23_000,
                    deadline: DeadlineDist::Uniform {
                        lo_us: 4_000_000,
                        hi_us: 8_000_000,
                    },
                    ..PoissonConfig::figure8(50_000)
                },
                seed,
            )),
            // 48 users per shard: the single Table-1 disk saturates below
            // the 68-91 users the paper's RAID-5 group carries.
            Workload::Burst => {
                Generator::NewsByte(NewsByteSegments::new(NewsByteConfig::paper(192), seed))
            }
        };
        Source::new(generator, arrivals)
    }

    /// [`Workload::source_for`] at the workload's own shard count.
    pub fn source(self, seed: u64, arrivals: u64) -> Source {
        self.source_for(seed, arrivals, self.shards())
    }

    fn routing(self) -> (RoutePolicy, bool) {
        match self {
            Workload::Steady => (RoutePolicy::LeastLoaded, true),
            Workload::Surge => (RoutePolicy::HashStream, true),
            Workload::Deep | Workload::Wide | Workload::Burst => (RoutePolicy::HashStream, false),
        }
    }

    fn gate(self) -> Gate {
        match self {
            Workload::Steady => Some((4096, 5_000_000)),
            Workload::Surge => Some((768, 5_000_000)),
            Workload::Deep | Workload::Wide | Workload::Burst => None,
        }
    }

    /// Bounded-queue capacity per shard (`None` = unbounded).
    pub fn max_queue(self) -> Option<usize> {
        match self {
            Workload::Deep => None,
            Workload::Surge => Some(16),
            Workload::Steady | Workload::Wide | Workload::Burst => Some(64),
        }
    }

    /// The churn/control script (`surge` only) for a run of `arrivals`
    /// arrivals: the round spacing scales with the run so a short slice
    /// sees the same number of membership events as the committed count.
    pub fn script(self, arrivals: u64) -> Option<Script> {
        (self == Workload::Surge).then_some(Script {
            churn_every: (arrivals / CHURN_ROUNDS).max(1),
            handoff_us: 100_000,
            quarantine_at: arrivals / 10,
            cadence: 4096,
            max_members: self.shards() + CHURN_ROUNDS as usize + 1,
        })
    }

    /// The farm configuration the daemon (and the router replay) uses.
    pub fn farm_config(self, shards: usize) -> FarmConfig {
        let (policy, redirects) = self.routing();
        let cfg = FarmConfig::new(shards).with_policy(policy);
        if redirects {
            cfg.with_redirects()
        } else {
            cfg
        }
    }

    /// The scheduler configuration of a cascade shard.
    pub fn cascade_config(self) -> CascadeConfig {
        let dispatch = match self.max_queue() {
            Some(cap) => DispatchConfig::paper_default().with_max_queue(cap),
            None => DispatchConfig::paper_default(),
        };
        CascadeConfig::paper_default(DIMS, CYLINDERS).with_dispatch(dispatch)
    }

    /// One cascade shard whose dispatcher events go to `sink`.
    pub fn shard(self, sink: SharedSink<FlightRecorder>) -> Shard {
        CascadedSfc::with_sink(self.cascade_config(), sink)
            .expect("the paper-default cascade is valid")
    }

    /// Engine options shared by every member (inversions counted — the
    /// paper's headline metric).
    pub fn options() -> SimOptions {
        SimOptions::with_shape(DIMS as usize, usize::from(LEVELS)).dropping()
    }

    /// Build a fresh daemon of `shards` members. With a trace handle
    /// every scheduler is handed out behind the timing wrapper.
    pub fn daemon(
        self,
        shards: usize,
        policy: ShardPolicy,
        trace: Option<TraceHandle>,
    ) -> FarmDaemon {
        let mut cfg = DaemonConfig::new(self.farm_config(shards), Workload::options())
            .with_telemetry(TelemetryConfig::default(), TriggerConfig::default());
        if let Some((max_streams, idle_us)) = self.gate() {
            cfg = cfg.with_admission(max_streams, idle_us);
        }
        FarmDaemon::new(
            cfg,
            move |_, sink| -> Box<dyn DiskScheduler> {
                if policy == ShardPolicy::Fcfs {
                    return Box::new(Fcfs::new());
                }
                let shard = self.shard(sink);
                match &trace {
                    Some(t) => Box::new(TracedScheduler::new(shard, t.clone())),
                    None => Box::new(shard),
                }
            },
            |_| DiskService::table1(),
        )
    }

    /// The gate the daemon builds, for the admission replay.
    pub fn stream_gate(self) -> sim::admission::StreamGate {
        match self.gate() {
            Some((max, idle)) => sim::admission::StreamGate::new(max, idle),
            None => sim::admission::StreamGate::open(),
        }
    }

    /// Why the workload exists (one line, mirrored in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Steady => {
                "closed-loop mixed VoD/NewsByte sessions on 8 shards near saturation (queue \
                 depth ~5, chunks of 1-2): every layer contributes and none dominates"
            }
            Workload::Deep => {
                "open-loop Poisson on 1 saturated shard with a ~100-deep queue: the cascade \
                 dispatcher and the engine's inversion scan do most of the work"
            }
            Workload::Wide => {
                "the session model on 64 half-idle shards: per-event O(shards) work in the \
                 daemon loop dominates"
            }
            Workload::Surge => {
                "overload with a flash crowd, a tight admission gate, membership churn and a \
                 live controller: the shed, redirect, reject, quarantine and retune paths"
            }
            Workload::Burst => {
                "open-loop NewsByte bursts on 4 shards: the only mix whose arrivals reach \
                 the scheduler in chunks of 8 or more, so the batch path fires"
            }
        }
    }
}
