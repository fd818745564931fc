//! Daemon harness — the continuous-operation CI smoke gate.
//!
//! Not a paper figure: the paper's farm is re-run from scratch per
//! configuration, while `farm::FarmDaemon` keeps one farm alive across
//! membership churn and member failures. This harness drives the daemon
//! through a seeded churn script sized to the same just-past-saturation
//! operating point as the `farm` harness and checks the guarantees the
//! continuous-operation layer claims (the `daemon` binary, `--mode
//! smoke`; exits 1 on any violation):
//!
//! 1. **quiescent-prefix parity** — on the arrivals that precede the
//!    first churn event, a daemon with supervision disabled and healthy
//!    disks is bit-identical to the batch farm: per-shard metrics,
//!    placements, sheds and redirects;
//! 2. **drain closure** — draining one shard mid-run with a bounded
//!    handoff window migrates a non-empty backlog, retires the member,
//!    and the request ledger still closes exactly;
//! 3. **failure-aware supervision** — one member limps (its service
//!    times scaled up by a fault plan), floods its bounded queue, and
//!    the shed-burst dump must drive the supervisor to quarantine it,
//!    rerouting subsequent arrivals around the victim;
//! 4. **event reconciliation** — the traced Arrival/Shed/Redirect/
//!    Migrate/Quarantine events across every member's flight recorder
//!    match the daemon's own counters exactly;
//! 5. **determinism** — a second identical run is bit-identical.
//!
//! Everything is deterministic given `--seed`.

use crate::vod;
use diskmodel::{Disk, FaultPlan};
use farm::{
    simulate_farm, DaemonConfig, DaemonEvent, DaemonReport, FarmConfig, FarmDaemon, MemberStatus,
    RoutePolicy,
};
use obs::{TelemetryConfig, TriggerConfig};
use sim::DiskService;

/// Daemon-scenario parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// RNG seed (workload generation).
    pub seed: u64,
    /// Members at start of run.
    pub shards: usize,
    /// Simulated duration (µs).
    pub duration_us: u64,
    /// The member whose disk limps (service times scaled up).
    pub limp_shard: usize,
    /// Limp factor in permille (2500 = 2.5× service time).
    pub limp_permille: u32,
    /// The member drained mid-run.
    pub drain_shard: usize,
    /// When the drain begins (µs); arrivals before this form the
    /// quiescent prefix of check 1.
    pub drain_at_us: u64,
}

/// Concurrent MPEG-1 streams feeding the whole farm — the farm harness's
/// operating point: 90 sit just past the aggregate capacity of four
/// Table-1 disks, so a 2.5×-limping member is hopelessly behind and must
/// shed.
const STREAMS: u32 = 90;
/// Bounded-queue capacity per shard scheduler (sheds on overflow).
const MAX_QUEUE: usize = 24;
/// How long the draining member may keep serving residents (µs).
const HANDOFF_WINDOW_US: u64 = 25_000;

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: crate::DEFAULT_SEED,
            shards: 4,
            duration_us: 10_000_000,
            limp_shard: 1,
            limp_permille: 2_500,
            drain_shard: 3,
            drain_at_us: 3_000_000,
        }
    }
}

/// What the churn run produced, for the one-line report.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Requests offered to the farm.
    pub arrivals: u64,
    /// Arrivals in the quiescent prefix checked against the batch farm.
    pub prefix_arrivals: u64,
    /// Requests served across members.
    pub served: u64,
    /// Bounded-queue sheds across members.
    pub sheds: u64,
    /// Requests migrated off the drained member.
    pub migrated: u64,
    /// Quarantines imposed by the supervisor.
    pub quarantines: u64,
    /// Arrivals rerouted off ineligible (drained/quarantined) members.
    pub reroutes: u64,
    /// Overload redirects taken by the router.
    pub redirects: u64,
    /// Slowest member's makespan (µs).
    pub makespan_us: u64,
}

fn farm_config(cfg: &Config) -> FarmConfig {
    FarmConfig::new(cfg.shards)
        .with_policy(RoutePolicy::HashStream)
        .with_redirects()
}

/// Check 1: on the churn-free prefix, a supervision-disabled daemon with
/// healthy disks must match the batch farm bit for bit.
fn prefix_parity(cfg: &Config, prefix: &[sched::Request]) -> Result<(), String> {
    let farm_cfg = farm_config(cfg);
    let (batch, _) = simulate_farm(
        prefix,
        &farm_cfg,
        |_| vod::bounded_scheduler(MAX_QUEUE),
        vod::options(),
    );
    let daemon = FarmDaemon::new(
        // Triggers off: the supervisor must not perturb routing, or the
        // daemon would (correctly) diverge from the batch farm, which has
        // no supervisor.
        DaemonConfig::new(farm_cfg, vod::options())
            .with_telemetry(TelemetryConfig::exact(), TriggerConfig::quiet()),
        |_, sink| vod::sinked_scheduler(MAX_QUEUE, sink),
        |_| DiskService::table1(),
    );
    let report = daemon.run(prefix.iter().cloned().map(DaemonEvent::Arrival));
    if report.per_shard != batch.per_shard {
        return Err("prefix parity: per-shard metrics diverge from the batch farm".into());
    }
    if report.routed_per_shard != batch.routed_per_shard {
        return Err(format!(
            "prefix parity: placements diverge: {:?} vs {:?}",
            report.routed_per_shard, batch.routed_per_shard
        ));
    }
    if report.sheds_per_shard != batch.sheds_per_shard {
        return Err(format!(
            "prefix parity: shed counts diverge: {:?} vs {:?}",
            report.sheds_per_shard, batch.sheds_per_shard
        ));
    }
    if report.redirects != batch.redirects {
        return Err(format!(
            "prefix parity: redirects diverge: {} vs {}",
            report.redirects, batch.redirects
        ));
    }
    if report.reroutes != 0 || report.quarantines != 0 {
        return Err(format!(
            "prefix parity: spurious membership activity: {} reroutes, {} quarantines",
            report.reroutes, report.quarantines
        ));
    }
    report
        .ledger()
        .and_then(|()| report.reconcile_events())
        .map_err(|e| format!("prefix parity: {e}"))
}

/// One full churn run: all arrivals, a mid-run drain, and the limping
/// member left to the supervisor. Default triggers and supervisor
/// policy (seeded jittered backoff) apply.
fn churn_run(cfg: &Config, trace: &[sched::Request]) -> DaemonReport {
    let mut events: Vec<DaemonEvent> = trace.iter().cloned().map(DaemonEvent::Arrival).collect();
    events.push(DaemonEvent::DrainShard {
        at_us: cfg.drain_at_us,
        shard: cfg.drain_shard,
        handoff_window_us: HANDOFF_WINDOW_US,
    });
    events.sort_by_key(DaemonEvent::at_us);
    let services = cfg.clone();
    let daemon = FarmDaemon::new(
        DaemonConfig::new(farm_config(cfg), vod::options())
            .with_telemetry(TelemetryConfig::exact(), TriggerConfig::default()),
        |_, sink| vod::sinked_scheduler(MAX_QUEUE, sink),
        move |shard| {
            if shard == services.limp_shard {
                DiskService::with_faults(
                    Disk::table1(),
                    FaultPlan::none().with_limp(0, services.limp_permille),
                )
            } else {
                DiskService::table1()
            }
        },
    );
    daemon.run(events)
}

fn fingerprint(r: &DaemonReport) -> impl PartialEq + std::fmt::Debug {
    (
        r.per_shard.clone(),
        r.routed_per_shard.clone(),
        r.sheds_per_shard.clone(),
        (r.arrivals, r.migrated, r.migrated_undelivered),
        (r.redirects, r.reroutes, r.quarantines, r.refused_events),
    )
}

/// The CI smoke gate. Returns the churn-run [`Summary`] on success; the
/// error names the violated guarantee.
pub fn smoke(cfg: &Config) -> Result<Summary, String> {
    assert_ne!(
        cfg.limp_shard, cfg.drain_shard,
        "the script drains a healthy member and leaves the limping one \
         to the supervisor"
    );
    let trace = vod::trace(STREAMS, cfg.duration_us, cfg.seed);

    // 1. Quiescent-prefix parity against the batch farm.
    let prefix: Vec<sched::Request> = trace
        .iter()
        .filter(|r| r.arrival_us < cfg.drain_at_us)
        .cloned()
        .collect();
    if prefix.is_empty() {
        return Err(format!(
            "no arrivals before the drain at {} µs — nothing to check parity on",
            cfg.drain_at_us
        ));
    }
    prefix_parity(cfg, &prefix)?;

    // 2–4. The full churn run.
    let report = churn_run(cfg, &trace);
    report.ledger()?;
    report.reconcile_events()?;
    if report.statuses[cfg.drain_shard] != MemberStatus::Drained {
        return Err(format!(
            "shard {} never finished draining: {:?}",
            cfg.drain_shard, report.statuses[cfg.drain_shard]
        ));
    }
    if report.migrated == 0 {
        return Err(format!(
            "drain closed with nothing to migrate — a {HANDOFF_WINDOW_US} µs handoff \
             window under overload must leave a backlog"
        ));
    }
    if report.quarantines == 0 {
        return Err(format!(
            "the limping member (shard {}, {}‰ service time) never tripped \
             the supervisor",
            cfg.limp_shard, cfg.limp_permille
        ));
    }
    if report.reroutes == 0 {
        return Err("no arrival ever rerouted around the drained/quarantined members".into());
    }

    // 5. Determinism: a second identical run is bit-identical.
    let second = churn_run(cfg, &trace);
    if fingerprint(&report) != fingerprint(&second) {
        return Err("two identical churn runs diverge — the daemon is nondeterministic".into());
    }

    Ok(Summary {
        arrivals: report.arrivals,
        prefix_arrivals: prefix.len() as u64,
        served: report.served(),
        sheds: report.sheds(),
        migrated: report.migrated,
        quarantines: report.quarantines,
        reroutes: report.reroutes,
        redirects: report.redirects,
        makespan_us: report.makespan_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Config {
        Config {
            duration_us: 6_000_000,
            drain_at_us: 2_000_000,
            ..Default::default()
        }
    }

    #[test]
    fn smoke_gate_passes() {
        let s = smoke(&small()).expect("daemon smoke gate");
        assert!(s.prefix_arrivals > 0 && s.prefix_arrivals < s.arrivals);
        assert!(s.migrated > 0);
        assert!(s.quarantines > 0);
        assert!(s.reroutes > 0);
    }

    #[test]
    fn smoke_is_seed_sensitive_but_stable() {
        // Two different seeds produce different traffic; each must still
        // pass the gate (the guarantees are seed-independent).
        for seed in [7u64, 20040330] {
            let cfg = Config { seed, ..small() };
            smoke(&cfg).expect("daemon smoke gate across seeds");
        }
    }
}
