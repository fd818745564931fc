//! Scenario harness — the million-stream closed-loop CI gate.
//!
//! Not a paper figure: the paper's evaluation stops at open-loop
//! Poisson traces over a few hundred streams. This harness drives the
//! ROADMAP's north-star claim — a farm that provably serves millions of
//! sessions — end to end (`scenario` binary; exits 1 on any violation):
//!
//! 1. **bounded-memory scale** — a ≥1M-session closed-loop population
//!    ([`workload::SessionSource`]: diurnal base + flash crowd, mixed
//!    VoD/NewsByte tenants, think times, backpressure) streams through
//!    [`farm::FarmDaemon::ingest`] over a multi-hour simulated horizon
//!    with the peak *live* session count and the farm backlog both
//!    orders of magnitude below the session total — nothing is ever
//!    materialized — and what the daemon itself holds when the
//!    population runs out reported structure by structure
//!    ([`farm::FarmDaemon::state_census`]; the equality gate on it is
//!    `tests/state_census.rs`);
//! 2. **ledger closure** — every emitted request is accounted for:
//!    served + deadline-dropped + shed + admission-rejected equals
//!    arrivals, exactly, and the traced events reconcile with the
//!    daemon's counters;
//! 3. **the flash crowd bites** — the admission gate rejects during the
//!    surge and the bounded queues shed, so the run exercises the
//!    overload machinery rather than idling below capacity;
//! 4. **analytic convergence** — the seek-optimizing cascade's measured
//!    mean batch seek climbs monotonically into the Bachmat-style
//!    closed form ([`sim::analysis::expected_sweep_seek`]) inside a
//!    tolerance band that shrinks as the batch grows
//!    ([`sim::analysis::check_convergence`]);
//! 5. **determinism** — a scaled-down population run twice is
//!    bit-identical.
//!
//! `--mode scale` runs the same gate at a caller-chosen population and
//! prints the convergence table as CSV. Everything is deterministic
//! given `--seed`.

use crate::vod::{self, CYLINDERS};
use farm::{DaemonConfig, DaemonReport, FarmConfig, FarmDaemon, RoutePolicy};
use obs::{TelemetryConfig, TriggerConfig};
use sim::analysis::{check_convergence, sweep_convergence, ConvergencePoint};
use sim::DiskService;
use workload::{SessionConfig, SessionSource, TraceSource};

/// Scenario parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// RNG seed (session population and analytic batches).
    pub seed: u64,
    /// Total closed-loop sessions to create (the acceptance floor is
    /// one million).
    pub sessions: u64,
    /// Simulated horizon for session births (µs); live sessions run to
    /// completion past it.
    pub horizon_us: u64,
    /// Farm members.
    pub shards: usize,
    /// Fraction of sessions on the NewsByte editing tenant.
    pub newsbyte_fraction: f64,
    /// Bounded-queue capacity per shard scheduler (sheds on overflow).
    pub max_queue: usize,
    /// Admission-gate capacity (concurrently active streams); sized so
    /// the flash crowd overruns it.
    pub max_streams: u32,
    /// A stream's gate slot is reclaimed after this much idle time (µs).
    pub idle_timeout_us: u64,
    /// Hard ceiling on simultaneously live sessions — the
    /// bounded-memory witness.
    pub live_bound: usize,
    /// Batch sizes for the analytic convergence sweep (ascending).
    pub batches: Vec<u64>,
    /// Seeded batches averaged per batch size.
    pub trials: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: crate::DEFAULT_SEED,
            sessions: 1_000_000,
            // Six simulated hours: ~46 births/s sustained keeps the farm
            // under capacity between surges, so sheds and rejections
            // concentrate where they should — at the flash crowd.
            horizon_us: 21_600_000_000,
            shards: 4,
            newsbyte_fraction: 0.3,
            // Below the ~23-deep steady state a deadline-dropping queue
            // settles at under overload, so the surge actually sheds
            // instead of quietly dropping at dispatch.
            max_queue: 16,
            max_streams: 768,
            idle_timeout_us: 5_000_000,
            live_bound: 16_384,
            batches: vec![8, 32, 128, 512, 2_048],
            trials: 24,
        }
    }
}

/// What the closed-loop run produced, for the one-line report.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Sessions created (must equal the configured population).
    pub sessions: u64,
    /// Requests the population emitted (= daemon arrivals).
    pub arrivals: u64,
    /// Requests served across members.
    pub served: u64,
    /// Bounded-queue sheds across members.
    pub sheds: u64,
    /// Admission-gate rejections.
    pub rejections: u64,
    /// Peak simultaneously live sessions (the bounded-memory witness).
    pub peak_live: usize,
    /// Peak farm backlog observed by the closed loop (requests).
    pub peak_backlog: usize,
    /// What the daemon held when the population ran out, structure by
    /// structure ([`FarmDaemon::state_census`]), in entries.
    pub census: Vec<(&'static str, usize)>,
    /// Slowest member's makespan (µs of simulated time).
    pub makespan_us: u64,
    /// Sessions driven per wall-clock second, end to end.
    pub sessions_per_s: f64,
    /// The analytic sweep, smallest to largest batch.
    pub convergence: Vec<ConvergencePoint>,
}

/// Relative-error ceiling at the largest batch of the convergence sweep.
const FINAL_REL_ERR: f64 = 0.005;

fn session_config(cfg: &Config) -> SessionConfig {
    let mut sc = SessionConfig::mixed(cfg.sessions, cfg.horizon_us);
    sc.newsbyte_fraction = cfg.newsbyte_fraction;
    sc.cylinders = CYLINDERS;
    sc
}

fn daemon(cfg: &Config) -> FarmDaemon {
    let farm_cfg = FarmConfig::new(cfg.shards)
        .with_policy(RoutePolicy::LeastLoaded)
        .with_redirects();
    let max_queue = cfg.max_queue;
    FarmDaemon::new(
        DaemonConfig::new(farm_cfg, vod::options())
            .with_admission(cfg.max_streams, cfg.idle_timeout_us)
            .with_telemetry(TelemetryConfig::exact(), TriggerConfig::default()),
        move |_, sink| vod::sinked_scheduler(max_queue, sink),
        |_| DiskService::table1(),
    )
}

/// A [`TraceSource`] shim that records the largest backlog the consumer
/// ever reported — the closed loop's memory high-water mark.
struct Meter<T: TraceSource> {
    inner: T,
    peak_backlog: usize,
}

impl<T: TraceSource> Iterator for Meter<T> {
    type Item = sched::Request;
    fn next(&mut self) -> Option<sched::Request> {
        self.inner.next()
    }
}

impl<T: TraceSource> TraceSource for Meter<T> {
    fn observe(&mut self, backlog: usize) {
        self.peak_backlog = self.peak_backlog.max(backlog);
        self.inner.observe(backlog);
    }
}

/// The source-side witnesses of one closed-loop pass, plus the daemon's
/// own census taken as the population ran out.
struct Witness {
    started: u64,
    peak_live: usize,
    peak_backlog: usize,
    census: Vec<(&'static str, usize)>,
}

/// One full closed-loop pass: population → daemon, with the backlog
/// meter in between. Returns the report plus the witnesses.
fn closed_loop(cfg: &Config) -> (DaemonReport, Witness) {
    let mut source = Meter {
        inner: SessionSource::new(session_config(cfg), cfg.seed),
        peak_backlog: 0,
    };
    let mut farm = daemon(cfg);
    farm.ingest(&mut source);
    let witness = Witness {
        started: source.inner.sessions_started(),
        peak_live: source.inner.peak_live_sessions(),
        peak_backlog: source.peak_backlog,
        census: farm.state_census(),
    };
    (farm.shutdown(), witness)
}

fn fingerprint(r: &DaemonReport) -> impl PartialEq + std::fmt::Debug {
    (
        r.per_shard.clone(),
        r.routed_per_shard.clone(),
        r.sheds_per_shard.clone(),
        (r.arrivals, r.admission_rejections, r.redirects),
    )
}

/// The CI gate. Returns the [`Summary`] on success; the error names the
/// violated guarantee.
pub fn smoke(cfg: &Config) -> Result<Summary, String> {
    // 4. The analytic convergence sweep (cheap — run it first so a
    // broken scheduler fails fast).
    let points = sweep_convergence(
        &mut vod::unbounded_scheduler,
        cfg.seed,
        &cfg.batches,
        cfg.trials,
        CYLINDERS,
    );
    check_convergence(&points, CYLINDERS, cfg.trials, FINAL_REL_ERR)?;

    // 5. Determinism on a scaled-down population (a full-size double
    // run would double the gate's wall-clock for no extra coverage).
    let small = Config {
        sessions: (cfg.sessions / 50).clamp(1_000, 50_000),
        horizon_us: cfg.horizon_us / 50,
        ..cfg.clone()
    };
    let (first, _) = closed_loop(&small);
    let (second, _) = closed_loop(&small);
    if fingerprint(&first) != fingerprint(&second) {
        return Err("two identical closed-loop runs diverge — nondeterministic".into());
    }

    // 1–3. The full population.
    let start = std::time::Instant::now();
    let (report, witness) = closed_loop(cfg);
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let Witness {
        started,
        peak_live,
        peak_backlog,
        census,
    } = witness;

    if started != cfg.sessions {
        return Err(format!(
            "population fell short: {started} of {} sessions born",
            cfg.sessions
        ));
    }
    if peak_live > cfg.live_bound {
        return Err(format!(
            "live-session high-water mark {peak_live} breaches the {} bound",
            cfg.live_bound
        ));
    }
    if peak_live as u64 >= cfg.sessions / 20 {
        return Err(format!(
            "peak live {peak_live} is not far below the {}-session total — \
             the bounded-memory claim is vacuous at this shape",
            cfg.sessions
        ));
    }
    let backlog_bound = cfg.shards * cfg.max_queue + 1_024;
    if peak_backlog > backlog_bound {
        return Err(format!(
            "farm backlog peaked at {peak_backlog}, past the {backlog_bound} bound"
        ));
    }
    report.ledger()?;
    report.reconcile_events()?;
    if report.admission_rejections == 0 {
        return Err(format!(
            "the flash crowd never overran the {}-slot admission gate",
            cfg.max_streams
        ));
    }
    if report.sheds() == 0 {
        return Err("the surge never shed — the bounded queues went unexercised".into());
    }
    if report.served() == 0 {
        return Err("nothing served".into());
    }

    Ok(Summary {
        sessions: started,
        arrivals: report.arrivals,
        served: report.served(),
        sheds: report.sheds(),
        rejections: report.admission_rejections,
        peak_live,
        peak_backlog,
        census,
        makespan_us: report.makespan_us,
        sessions_per_s: started as f64 / elapsed,
        convergence: points,
    })
}

/// Render the convergence sweep as CSV (`--mode scale` output).
pub fn convergence_csv(points: &[ConvergencePoint]) -> String {
    let mut out = String::from("batch,mean_seek,expected,rel_err\n");
    for p in points {
        out.push_str(&format!(
            "{},{:.3},{:.3},{:.6}\n",
            p.batch,
            p.mean_seek,
            p.expected,
            p.rel_err()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Config {
        Config {
            sessions: 20_000,
            horizon_us: 432_000_000, // the default shape, 1/50 scale
            ..Default::default()
        }
    }

    #[test]
    fn smoke_gate_passes_at_test_scale() {
        let s = smoke(&small()).expect("scenario smoke gate");
        assert_eq!(s.sessions, 20_000);
        assert!(s.arrivals > 2 * s.sessions, "2–4 blocks per session");
        assert!(s.rejections > 0 && s.sheds > 0);
        assert!(s.peak_live < 16_384);
        assert_eq!(s.convergence.len(), 5);
        assert!(s.convergence.last().unwrap().rel_err() < FINAL_REL_ERR);
    }

    #[test]
    fn smoke_is_seed_sensitive_but_stable() {
        for seed in [7u64, 20040330] {
            let cfg = Config { seed, ..small() };
            smoke(&cfg).expect("scenario gate across seeds");
        }
    }

    #[test]
    fn convergence_csv_is_well_formed() {
        let points = vec![ConvergencePoint {
            batch: 8,
            mean_seek: 3400.0,
            expected: 3405.9,
        }];
        let csv = convergence_csv(&points);
        assert!(csv.starts_with("batch,mean_seek,expected,rel_err\n"));
        assert_eq!(csv.lines().count(), 2);
    }
}
