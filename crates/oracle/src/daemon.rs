//! Daemon replay gate: the continuous-operation farm daemon checked
//! against the batch farm and against its own ledger.
//!
//! Three oracles:
//!
//! * [`diff_daemon`] — **offline/online parity**: a [`FarmDaemon`] fed
//!   nothing but arrivals must make placements, per-shard metrics and
//!   redirect counts bit-identical to [`farm::simulate_farm`] on the
//!   same trace. The daemon routes through the same [`farm::OnlineRouter`]
//!   core the batch pass wraps, so this gate pins the "by construction"
//!   claim down to observed equality. [`diff_daemon_streamed`] repeats
//!   the comparison through the pull-based [`FarmDaemon::ingest`] path
//!   (the trace wrapped in a lazy `workload` source), so the streaming
//!   ingest the scenario suite scales on is held to the same bit-level
//!   standard.
//! * [`check_churn`] — **churn robustness**: a seed-derived membership
//!   script (drain, add, operator quarantine) interleaved with the
//!   trace. The run must be deterministic, its request ledger must
//!   close exactly, its traced events must reconcile with the daemon's
//!   counters, and the quiescent prefix (arrivals before the first
//!   churn event) must still pass [`diff_daemon`]. The script depends
//!   only on the seed — never the trace — so greedy shrinking replays
//!   the identical schedule over smaller traces.

use cascade::{CascadeConfig, CascadedSfc, DispatchConfig};
use farm::{DaemonConfig, DaemonEvent, DaemonReport, FarmConfig, FarmDaemon, RoutePolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sched::{DiskScheduler, Fcfs, Request};
use sim::{DiskService, SimOptions};

fn cascade_config(cylinders: u32, cap: usize) -> CascadeConfig {
    CascadeConfig::paper_default(1, cylinders)
        .with_dispatch(DispatchConfig::paper_default().with_max_queue(cap))
}

fn batch_scheduler(cylinders: u32, bounded: Option<usize>) -> Box<dyn DiskScheduler> {
    match bounded {
        None => Box::new(Fcfs::new()),
        Some(cap) => Box::new(
            CascadedSfc::new(cascade_config(cylinders, cap)).expect("valid cascade config"),
        ),
    }
}

pub(crate) fn daemon_for(
    cfg: &FarmConfig,
    options: SimOptions,
    bounded: Option<usize>,
    triggers: obs::TriggerConfig,
) -> FarmDaemon {
    daemon_shaped(
        cfg,
        options,
        bounded,
        triggers,
        obs::TelemetryConfig::exact(),
    )
}

/// [`daemon_for`] with an explicit telemetry shape — the control-plane
/// gates need windows short enough to complete within a few-second
/// trace, or the controller starves.
pub(crate) fn daemon_shaped(
    cfg: &FarmConfig,
    options: SimOptions,
    bounded: Option<usize>,
    triggers: obs::TriggerConfig,
    telemetry: obs::TelemetryConfig,
) -> FarmDaemon {
    let cylinders = cfg.cylinders;
    FarmDaemon::new(
        DaemonConfig::new(cfg.clone(), options).with_telemetry(telemetry, triggers),
        move |_, sink| match bounded {
            None => Box::new(Fcfs::new()),
            Some(cap) => Box::new(
                CascadedSfc::with_sink(cascade_config(cylinders, cap), sink)
                    .expect("valid cascade config"),
            ),
        },
        |_| DiskService::table1(),
    )
}

/// Offline/online parity: a daemon fed only arrivals must match the
/// batch farm bit for bit — per-shard metrics, placements per shard and
/// redirect count — take no eligibility reroutes, impose no
/// quarantines, close its ledger and reconcile its traced events.
///
/// `bounded` selects the shard scheduler on both sides: `None` runs
/// FCFS (unbounded), `Some(cap)` a bounded Cascaded-SFC so overload
/// sheds and redirects are exercised too. The daemon runs with every
/// recorder trigger off: a supervisor reroute would (correctly) diverge
/// from the batch pass, which has no supervisor.
pub fn diff_daemon(
    trace: &[Request],
    cfg: &FarmConfig,
    options: SimOptions,
    bounded: Option<usize>,
) -> Result<(), String> {
    let daemon = daemon_for(cfg, options, bounded, obs::TriggerConfig::quiet());
    let report = daemon.run(trace.iter().cloned().map(DaemonEvent::Arrival));
    check_against_batch(&report, trace, cfg, options, bounded)
}

/// [`diff_daemon`] through the streaming ingest path: the daemon pulls
/// the same trace from a [`workload::VecSource`] via
/// [`FarmDaemon::ingest`] instead of being pushed
/// [`DaemonEvent::Arrival`]s, and must still match the batch farm bit
/// for bit — the lazy-iterator ingest cannot be distinguishable from
/// the event loop.
pub fn diff_daemon_streamed(
    trace: &[Request],
    cfg: &FarmConfig,
    options: SimOptions,
    bounded: Option<usize>,
) -> Result<(), String> {
    let mut daemon = daemon_for(cfg, options, bounded, obs::TriggerConfig::quiet());
    let mut source = workload::VecSource::new(trace.to_vec());
    let pulled = daemon.ingest(&mut source);
    if pulled as usize != trace.len() {
        return Err(format!(
            "daemon (streamed): ingested {pulled} of {} arrivals",
            trace.len()
        ));
    }
    let report = daemon.shutdown();
    check_against_batch(&report, trace, cfg, options, bounded).map_err(|e| format!("streamed: {e}"))
}

/// The shared comparison body: a quiet daemon's report against the
/// batch farm on the same trace.
fn check_against_batch(
    report: &DaemonReport,
    trace: &[Request],
    cfg: &FarmConfig,
    options: SimOptions,
    bounded: Option<usize>,
) -> Result<(), String> {
    let cylinders = cfg.cylinders;
    let (batch, _) =
        farm::simulate_farm(trace, cfg, |_| batch_scheduler(cylinders, bounded), options);
    let policy = cfg.policy.name();
    if report.per_shard != batch.per_shard {
        return Err(format!(
            "daemon ({policy}): per-shard metrics diverge from the batch farm"
        ));
    }
    if report.routed_per_shard != batch.routed_per_shard {
        return Err(format!(
            "daemon ({policy}): placements diverge: {:?} vs {:?}",
            report.routed_per_shard, batch.routed_per_shard
        ));
    }
    if report.sheds_per_shard != batch.sheds_per_shard {
        return Err(format!(
            "daemon ({policy}): shed counts diverge: {:?} vs {:?}",
            report.sheds_per_shard, batch.sheds_per_shard
        ));
    }
    if report.redirects != batch.redirects {
        return Err(format!(
            "daemon ({policy}): redirects diverge: {} vs {}",
            report.redirects, batch.redirects
        ));
    }
    if report.reroutes != 0 || report.quarantines != 0 {
        return Err(format!(
            "daemon ({policy}): spurious membership activity on a quiet run: \
             {} reroutes, {} quarantines",
            report.reroutes, report.quarantines
        ));
    }
    report
        .ledger()
        .map_err(|e| format!("daemon ({policy}): {e}"))?;
    report
        .reconcile_events()
        .map_err(|e| format!("daemon ({policy}): {e}"))
}

/// `n` single-dimension reads over `streams` streams, in groups of `tie`
/// sharing one timestamp, the groups `gap_us` apart. The two shapes the
/// daemon's lazy pumping has to get right: [`sparse_trace`] and
/// [`tied_trace`].
fn paced(n: u64, streams: u64, gap_us: u64, tie: u64) -> Vec<Request> {
    (0..n)
        .map(|i| {
            let at = i / tie * gap_us;
            let cylinder = (i * 37 % 3832) as u32;
            let qos = sched::QosVector::single((i % 8) as u8);
            Request::read(i, at, at + 150_000, cylinder, 64 * 1024, qos).with_stream(i % streams)
        })
        .collect()
}

/// Thousands of arrivals so thin over 32 shards that most members sit
/// idle — and unpumped — across most events.
pub(crate) fn sparse_trace() -> Vec<Request> {
    paced(3_000, 256, 5_000, 1)
}

/// Bursts of twelve arrivals sharing one timestamp: ties at the pump
/// horizon, where "due before `t`" and "due at `t`" part ways.
pub(crate) fn tied_trace() -> Vec<Request> {
    paced(720, 48, 30_000, 12)
}

/// Merge arrivals with a churn script into one time-ordered event
/// stream. The sort is stable and arrivals are pushed first, so
/// same-instant ties resolve arrivals-before-membership,
/// deterministically.
pub(crate) fn merge_events(trace: &[Request], churn: Vec<DaemonEvent>) -> Vec<DaemonEvent> {
    let mut events: Vec<DaemonEvent> = trace.iter().cloned().map(DaemonEvent::Arrival).collect();
    events.extend(churn);
    events.sort_by_key(DaemonEvent::at_us);
    events
}

/// Every flight-recorder dump must have been in front of the supervisor
/// before its member's bounded dump ring let it go.
pub(crate) fn supervisor_kept_up(r: &DaemonReport) -> Result<(), String> {
    match r.dumps_missed {
        0 => Ok(()),
        n => Err(format!("{n} dump(s) evicted before the supervisor looked")),
    }
}

pub(crate) fn fingerprint(r: &DaemonReport) -> impl PartialEq + std::fmt::Debug {
    (
        r.per_shard.clone(),
        r.routed_per_shard.clone(),
        r.sheds_per_shard.clone(),
        (r.arrivals, r.migrated, r.migrated_undelivered),
        (r.redirects, r.reroutes, r.quarantines, r.refused_events),
        r.retunes,
    )
}

/// The membership-churn oracle behind [`crate::fuzz::Archetype::MembershipChurn`].
///
/// Expands `seed` into a farm shape (policy, bounded-queue capacity)
/// and a churn script — drain one shard with a bounded handoff window,
/// add a shard, quarantine one member — then requires:
///
/// 1. the quiescent prefix (arrivals before the first churn event)
///    passes [`diff_daemon`] against the batch farm,
/// 2. the full churn run closes its request ledger exactly,
/// 3. its traced Migrate/Quarantine/Shed/Redirect/Arrival events
///    reconcile with the daemon's counters, and
/// 4. a second identical run is bit-identical (determinism under
///    churn).
pub fn check_churn(seed: u64, trace: &[Request]) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6368_7572_6e21);
    let policy = match rng.gen_range(0..3u8) {
        0 => RoutePolicy::HashStream,
        1 => RoutePolicy::CylinderRange,
        _ => RoutePolicy::LeastLoaded,
    };
    let cap = rng.gen_range(8..17usize);
    let cfg = FarmConfig::new(3).with_policy(policy);
    let options = SimOptions::with_shape(1, 8).dropping();

    // The churn script: derived from the seed alone so a shrunk trace
    // replays the identical schedule.
    let drain_at = rng.gen_range(200_000..700_000u64);
    let handoff_window_us = rng.gen_range(5_000..40_000u64);
    let add_at = rng.gen_range(700_000..1_100_000u64);
    let quarantine_at = rng.gen_range(1_100_000..1_600_000u64);
    let drain_shard = rng.gen_range(0..3usize);
    let quarantine_shard = rng.gen_range(0..3usize);

    // 1. Quiescent-prefix parity.
    let prefix: Vec<Request> = trace
        .iter()
        .filter(|r| r.arrival_us < drain_at)
        .cloned()
        .collect();
    diff_daemon(&prefix, &cfg, options, Some(cap)).map_err(|e| format!("churn prefix: {e}"))?;

    // 2–4. The full churn run, twice.
    let churn = vec![
        DaemonEvent::DrainShard {
            at_us: drain_at,
            shard: drain_shard,
            handoff_window_us,
        },
        DaemonEvent::AddShard { at_us: add_at },
        DaemonEvent::Quarantine {
            at_us: quarantine_at,
            shard: quarantine_shard,
        },
    ];
    let events = merge_events(trace, churn);
    // `backlog()` re-derives the daemon's backlog counter from its members
    // in debug builds, so asking after every event holds the counter to
    // the drain, add, quarantine and every pump in between.
    let run = |events: Vec<DaemonEvent>| {
        let mut daemon = daemon_for(&cfg, options, Some(cap), obs::TriggerConfig::default());
        for event in events {
            daemon.handle(event);
            daemon.backlog();
        }
        daemon.shutdown()
    };
    let first = run(events.clone());
    first
        .ledger()
        .map_err(|e| format!("churn ({}): {e}", policy.name()))?;
    first
        .reconcile_events()
        .map_err(|e| format!("churn ({}): {e}", policy.name()))?;
    supervisor_kept_up(&first).map_err(|e| format!("churn ({}): {e}", policy.name()))?;
    let second = run(events);
    if fingerprint(&first) != fingerprint(&second) {
        return Err(format!(
            "churn ({}): two identical runs diverge — daemon is nondeterministic",
            policy.name()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::VodConfig;

    fn vod(streams: u32, seed: u64) -> Vec<Request> {
        let mut wl = VodConfig::mpeg1(streams);
        wl.duration_us = 3_000_000;
        wl.generate(seed)
    }

    #[test]
    fn quiet_daemon_matches_the_batch_farm_across_policies() {
        let trace = vod(24, 5);
        for policy in [
            RoutePolicy::HashStream,
            RoutePolicy::CylinderRange,
            RoutePolicy::LeastLoaded,
        ] {
            let cfg = FarmConfig::new(4).with_policy(policy);
            diff_daemon(&trace, &cfg, SimOptions::with_shape(1, 8).dropping(), None)
                .expect("parity");
        }
    }

    #[test]
    fn quiet_daemon_matches_under_bounded_queues_and_redirects() {
        let trace = vod(48, 6);
        let cfg = FarmConfig::new(3).with_redirects();
        diff_daemon(
            &trace,
            &cfg,
            SimOptions::with_shape(1, 8).dropping(),
            Some(8),
        )
        .expect("parity under overload");
    }

    #[test]
    fn streamed_ingest_matches_the_batch_farm() {
        let trace = vod(24, 5);
        for policy in [
            RoutePolicy::HashStream,
            RoutePolicy::CylinderRange,
            RoutePolicy::LeastLoaded,
        ] {
            let cfg = FarmConfig::new(4).with_policy(policy);
            diff_daemon_streamed(&trace, &cfg, SimOptions::with_shape(1, 8).dropping(), None)
                .expect("streamed parity");
        }
        // And under bounded queues with redirect-on-overload.
        let trace = vod(48, 6);
        let cfg = FarmConfig::new(3).with_redirects();
        diff_daemon_streamed(
            &trace,
            &cfg,
            SimOptions::with_shape(1, 8).dropping(),
            Some(8),
        )
        .expect("streamed parity under overload");
    }

    #[test]
    fn sparse_and_tied_arrivals_match_the_batch_farm() {
        let options = SimOptions::with_shape(1, 8).dropping();
        for (shards, trace) in [(32, sparse_trace()), (4, tied_trace())] {
            for policy in [
                RoutePolicy::HashStream,
                RoutePolicy::CylinderRange,
                RoutePolicy::LeastLoaded,
            ] {
                let cfg = FarmConfig::new(shards).with_policy(policy);
                diff_daemon(&trace, &cfg, options, None).expect("parity");
            }
            let cfg = FarmConfig::new(shards).with_redirects();
            diff_daemon(&trace, &cfg, options, Some(8)).expect("parity, bounded cascade");
            diff_daemon_streamed(&trace, &cfg, options, Some(8)).expect("streamed parity");
        }
    }

    #[test]
    fn churn_oracle_holds_over_seeds() {
        for seed in [1u64, 20040330, 0xdead_beef] {
            let trace = vod(24, seed);
            check_churn(seed, &trace).expect("churn oracle");
        }
    }
}
