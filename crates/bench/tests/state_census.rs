//! The bounded-state gate: what a daemon holds is sized by its shape,
//! not by the traffic that has passed through it.
//!
//! One `surge`-shaped scenario — a closed-loop session population with a
//! flash crowd, a 768-stream admission gate, 16-deep bounded cascade
//! queues, scripted membership churn, an operator quarantine and a live
//! controller — is run at 1× and at 10× arrivals from the same seed. The
//! script's events sit at fixed arrival indices inside the 1× run, so the
//! 10× run *is* the 1× run followed by nine times as much steady
//! overload: over ten times the sheds, the quarantines, the anomaly
//! dumps and the controller rounds. Both runs are then brought to rest the same way
//! (the gate topped up from fresh streams, every queue run dry, the
//! telemetry drained) and [`farm::FarmDaemon::state_census`] plus the
//! controller's own count must come out equal, structure by structure:
//! anything that keeps an entry per request, per anomaly or per decision
//! reads higher after the longer run.
//!
//! Mutation check, tried on this file: setting `obs::DUMP_RETENTION` to
//! `usize::MAX` fails it on "dumps" (66 entries against 843), and a
//! flight ring that never wraps (`FlightRing::push` always extending)
//! on "flight_ring" (84 319 against 1 158 479) — an entry per anomaly
//! and an entry per event. Restoring `ctrl`'s unbounded decision
//! log (`DECISION_TAIL` = `usize::MAX`) does **not**: a search stops
//! acting once its evaluation budget is spent, so both runs take the
//! same 49 actions and the log was never a function of traffic — that
//! bound is held by `ctrl`'s own
//! `the_fingerprint_covers_the_whole_log_and_the_tail_stays_bounded`.
//!
//! Three shape parameters make the scenario stationary enough for
//! equality rather than a bound (DESIGN.md §6h): one-second telemetry
//! windows, a six-evaluation search budget, a zero supervisor cooldown.

use cascade::{CascadeConfig, CascadedSfc, DispatchConfig};
use ctrl::{Controller, ControllerConfig};
use farm::{DaemonConfig, DaemonEvent, FarmConfig, FarmDaemon, RoutePolicy};
use obs::{TelemetryConfig, TriggerConfig};
use sim::{DiskService, SimOptions};
use workload::{RateCurve, SessionConfig, SessionSource, TraceSource};

const CYLINDERS: u32 = 3832;
const SHARDS: usize = 4;
const MAX_STREAMS: u32 = 768;
const IDLE_TIMEOUT_US: u64 = 5_000_000;
/// Arrivals of the 1× run.
const ARRIVALS: u64 = 30_000;
/// `AddShard` + `DrainShard` (oldest member) pairs, by arrival index.
const CHURN_AT: [u64; 3] = [2_000, 4_000, 6_000];
/// The operator `Quarantine` of the newest member, by arrival index.
const QUARANTINE_AT: u64 = 1_000;
/// Arrivals between controller rounds.
const CADENCE: u64 = 512;

type Census = Vec<(&'static str, usize)>;

fn population() -> SessionSource {
    // `surge`'s population: a flat base the four shards just fail to
    // cope with and a crowd of 2.5x on top, here early enough that the
    // 1x run has seen it and settled again.
    let per_minute = 6_000.0;
    let cfg = SessionConfig {
        curves: vec![
            RateCurve::Constant { per_minute },
            RateCurve::FlashCrowd {
                spike_per_minute: 2.5 * per_minute,
                at_us: 40_000_000,
                width_us: 5_000_000,
            },
        ],
        max_sessions: u64::MAX,
        horizon_us: u64::MAX,
        ..SessionConfig::mixed(1, 1)
    };
    SessionSource::new(cfg, 20040330)
}

fn daemon() -> FarmDaemon {
    let farm = FarmConfig::new(SHARDS)
        .with_policy(RoutePolicy::HashStream)
        .with_redirects();
    // One-second windows, so cooldowns, live ranges and the controller's
    // search budget all run out well inside the 1x run.
    let cfg = DaemonConfig::new(farm, SimOptions::with_shape(1, 8).dropping())
        .with_admission(MAX_STREAMS, IDLE_TIMEOUT_US)
        .with_telemetry(
            TelemetryConfig::default().window_log2(20),
            TriggerConfig {
                shed_burst: 4,
                ..TriggerConfig::default()
            },
        )
        .with_supervisor(farm::SupervisorConfig {
            cooldown_us: 0,
            jitter_permille: 0,
            seed: 1,
        });
    FarmDaemon::new(
        cfg,
        |_, sink| {
            let cascade = CascadeConfig::paper_default(1, CYLINDERS)
                .with_dispatch(DispatchConfig::paper_default().with_max_queue(16));
            Box::new(CascadedSfc::with_sink(cascade, sink).expect("valid cascade config"))
        },
        |_| DiskService::table1(),
    )
}

fn control_round(daemon: &mut FarmDaemon, controller: &mut Controller, t: u64) {
    for delta in daemon.take_shard_deltas() {
        controller.observe(&delta);
    }
    for action in controller.decide(t) {
        daemon.handle(action.into_event(t));
    }
}

/// Run the scenario over `arrivals` arrivals, bring it to rest, and count
/// what is held. Also returns what the run did, for the vacuity checks.
fn census_after(arrivals: u64) -> (Census, farm::DaemonReport, u64) {
    let mut source = population();
    let mut daemon = daemon();
    let mut controller = Controller::new(
        SHARDS + CHURN_AT.len(),
        ControllerConfig {
            search: ctrl::SearchConfig {
                max_evals: 6,
                ..ctrl::SearchConfig::default()
            },
            ..ControllerConfig::default()
        },
    );
    let (mut seen, mut oldest, mut t) = (0u64, 0usize, 0u64);
    while seen < arrivals {
        let r = source.next().expect("the population never runs out");
        t = r.arrival_us;
        daemon.handle(DaemonEvent::Arrival(r));
        seen += 1;
        source.observe(daemon.backlog());
        if CHURN_AT.contains(&seen) {
            daemon.handle(DaemonEvent::AddShard { at_us: t });
            daemon.handle(DaemonEvent::DrainShard {
                at_us: t,
                shard: oldest,
                handoff_window_us: 100_000,
            });
            oldest += 1;
        }
        if seen == QUARANTINE_AT {
            let shard = daemon.shards() - 1;
            daemon.handle(DaemonEvent::Quarantine { at_us: t, shard });
        }
        if seen % CADENCE == 0 {
            control_round(&mut daemon, &mut controller, t);
        }
    }

    // To rest. The gate retires idle streams only when asked about an
    // arrival, so how many it holds at an arbitrary instant is a few
    // short of its cap: fill it, at the same instant, from streams it has
    // never seen. (Nothing expires at an unchanged clock, so an entry
    // leaked per request would still be there to count.)
    let probe = |i: u64| {
        let qos = sched::QosVector::single((i % 8) as u8);
        sched::Request::read(u64::MAX - i, t, t + 1_000_000, 7, 64 * 1024, qos)
            .with_stream(u64::MAX - i)
    };
    for i in 0..2 * u64::from(MAX_STREAMS) {
        daemon.handle(DaemonEvent::Arrival(probe(i)));
    }
    // Then, long after: an event into every member's recorder (a policy
    // swap to the policy in force; retired members refuse it), which
    // runs every queue dry on the way and closes every telemetry window
    // that was open; and one more event, which the daemon refuses, for
    // the supervisor to look at what that shook loose.
    for shard in 0..daemon.shards() {
        daemon.handle(DaemonEvent::Retune {
            at_us: u64::MAX / 2,
            shard,
            action: farm::RetuneAction::Policy(daemon.router().policy()),
        });
    }
    daemon.handle(DaemonEvent::Quarantine {
        at_us: u64::MAX,
        shard: usize::MAX,
    });
    assert_eq!(daemon.backlog(), 0, "the farm is at rest");
    control_round(&mut daemon, &mut controller, u64::MAX);

    let mut census = daemon.state_census();
    census.push(("controller", controller.state_len()));
    (census, daemon.shutdown(), controller.decisions())
}

#[test]
fn ten_times_the_traffic_leaves_the_same_state() {
    let (short, short_report, short_rounds) = census_after(ARRIVALS);
    let (long, long_report, long_rounds) = census_after(10 * ARRIVALS);
    for report in [&short_report, &long_report] {
        report.ledger().expect("ledger closes");
        report.reconcile_events().expect("events reconcile");
        assert_eq!(report.dumps_missed, 0);
    }
    println!("entries held at rest: {short:?}");
    assert_eq!(short, long, "state grew with traffic (1x left, 10x right)");

    // Every structure was looked into (the three the run leaves empty at
    // rest apart)...
    let names: Vec<&str> = short.iter().map(|&(name, _)| name).collect();
    assert_eq!(
        names,
        [
            "gate",
            "router",
            "steppers",
            "schedulers",
            "flight_ring",
            "dumps",
            "windows",
            "members",
            "wake",
            "timers",
            "touched",
            "controller"
        ]
    );
    let empty: Vec<&str> = short.iter().filter(|e| e.1 == 0).map(|e| e.0).collect();
    assert_eq!(empty, ["wake", "timers", "touched"]);

    // ...the scenario is the overload it claims to be, and the long run
    // is more of all of it: more than the bounded structures keep.
    let dumps = |r: &farm::DaemonReport| r.recorders.iter().map(|d| d.dumps_total()).sum::<u64>();
    let s = &short_report;
    assert!(s.admission_rejections > 0 && s.sheds() > 0 && s.redirects > 0);
    assert!(s.quarantines > 1 && s.retunes > 0 && s.migrated > 0);
    let held = s.recorders.iter().map(|d| d.dumps().len()).sum::<usize>();
    assert!(dumps(s) > 2 * held as u64, "{} dumps", dumps(s));
    assert!(long_report.sheds() > 5 * s.sheds());
    assert!(long_report.quarantines > 5 * s.quarantines);
    assert!(dumps(&long_report) > 5 * dumps(s));
    assert!(long_rounds > 5 * short_rounds);
}
