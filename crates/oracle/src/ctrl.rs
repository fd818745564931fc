//! Control-plane gates: the self-tuning controller checked for
//! do-no-harm neutrality and for determinism under a retune storm.
//!
//! Two oracles:
//!
//! * [`diff_ctrl`] — **pin-to-seed neutrality**: a [`ctrl::Controller`]
//!   whose grid is pinned ([`ctrl::Grid::pinned`]) to the exact knobs
//!   the shards were built with must leave a [`farm::FarmDaemon`]
//!   bit-identical to an uncontrolled run — zero retunes, zero
//!   decisions logged, identical report fingerprint. This pins the
//!   whole observe→score→search→apply loop as a no-op when there is
//!   nothing to change, which in turn rests on same-value knob retunes
//!   being true no-ops in the scheduler.
//! * [`check_controller_storm`] — **retune-under-churn**: a
//!   seed-derived storm of operator retunes (valid and invalid knob
//!   values, dead shard indices) plus a mid-run drain,
//!   with a live controller retuning on top. The run must close its
//!   request ledger, reconcile its traced events with the daemon's
//!   counters, and two identical runs must be bit-identical down to the
//!   controller's decision log.

use crate::daemon::{daemon_shaped, fingerprint, merge_events, supervisor_kept_up};
use ctrl::{drive, Controller, ControllerConfig, Grid, GridPoint, SearchConfig};
use farm::{DaemonEvent, FarmConfig, RoutePolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sched::{Request, Retune};
use sim::SimOptions;

/// The knobs `crate::daemon`'s shard schedulers are actually built with
/// (`CascadeConfig::paper_default`): the pin target.
const SEED_POINT: GridPoint = GridPoint {
    f: 1.0,
    r: 3,
    w: 0.10,
};

/// Exact telemetry over ~0.5 s windows with a two-window live range:
/// deltas stream only when a completed window retires *out of* the live
/// range, so a few-second trace must both complete several windows per
/// shard and push most of them past the live depth, or the controller
/// starves.
fn telemetry() -> obs::TelemetryConfig {
    obs::TelemetryConfig::exact().window_log2(19).depth(2)
}

/// Pin-to-seed neutrality (module docs). Returns how many windows the
/// controller scored — callers that want a non-vacuous run assert it is
/// positive.
pub fn diff_ctrl(
    trace: &[Request],
    cfg: &FarmConfig,
    options: SimOptions,
    cap: usize,
    cadence: usize,
) -> Result<u64, String> {
    let base = daemon_shaped(
        cfg,
        options,
        Some(cap),
        obs::TriggerConfig::quiet(),
        telemetry(),
    )
    .run(trace.iter().cloned().map(DaemonEvent::Arrival));
    let mut daemon = daemon_shaped(
        cfg,
        options,
        Some(cap),
        obs::TriggerConfig::quiet(),
        telemetry(),
    );
    let mut controller = Controller::new(
        cfg.shards,
        ControllerConfig {
            grid: Grid::pinned(SEED_POINT),
            seed_point: SEED_POINT,
            ..ControllerConfig::default()
        },
    );
    drive(
        &mut daemon,
        &mut controller,
        trace.iter().cloned().map(DaemonEvent::Arrival),
        cadence,
    );
    let report = daemon.shutdown();
    if !controller.decision_log().is_empty() {
        return Err(format!(
            "ctrl: a pinned controller logged {} decisions",
            controller.decision_log().len()
        ));
    }
    if report.retunes != 0 {
        return Err(format!(
            "ctrl: a pinned controller applied {} retunes",
            report.retunes
        ));
    }
    if fingerprint(&report) != fingerprint(&base) {
        return Err(
            "ctrl: a pinned controller perturbed the daemon — run diverges from uncontrolled"
                .to_string(),
        );
    }
    report.ledger().map_err(|e| format!("ctrl: {e}"))?;
    report
        .reconcile_events()
        .map_err(|e| format!("ctrl: {e}"))?;
    Ok(controller.decisions())
}

/// The controller-storm oracle behind
/// [`crate::fuzz::Archetype::ControllerStorm`] (module docs).
///
/// The storm script and farm shape derive from `seed` alone, so greedy
/// shrinking replays the identical schedule over smaller traces.
pub fn check_controller_storm(seed: u64, trace: &[Request]) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6374_726c_2173); // "ctrl!s"
    let policy = match rng.gen_range(0..3u8) {
        0 => RoutePolicy::HashStream,
        1 => RoutePolicy::CylinderRange,
        _ => RoutePolicy::LeastLoaded,
    };
    let cap = rng.gen_range(8..17usize);
    let cadence = rng.gen_range(8..33usize);
    let cfg = FarmConfig::new(3).with_policy(policy);
    let options = SimOptions::with_shape(1, 8).dropping();

    // A dozen operator retunes: knob values off the grid, out-of-range
    // values the setters must refuse, dead shard indices — plus one
    // mid-run drain so retunes land on a Draining/Drained member and get
    // refused without disturbing the ledger.
    let mut script = Vec::new();
    for _ in 0..12 {
        let at_us = rng.gen_range(100_000..1_600_000u64);
        let shard = rng.gen_range(0..4usize); // 3 = out of range, refused
        let knob = match rng.gen_range(0..3u8) {
            0 => Retune::BalanceFactor(rng.gen_range(-1.0..5.0)),
            1 => Retune::ScanPartitions(rng.gen_range(0..8u32)),
            _ => Retune::Window(rng.gen_range(-0.2..1.2)),
        };
        script.push(DaemonEvent::Retune { at_us, shard, knob });
    }
    script.push(DaemonEvent::DrainShard {
        at_us: rng.gen_range(400_000..900_000u64),
        shard: rng.gen_range(0..3usize),
        handoff_window_us: rng.gen_range(5_000..40_000u64),
    });

    let events = merge_events(trace, script);
    let run = |events: Vec<DaemonEvent>| {
        let mut daemon = daemon_shaped(
            &cfg,
            options,
            Some(cap),
            obs::TriggerConfig::default(),
            telemetry(),
        );
        let mut controller = Controller::new(
            cfg.shards,
            ControllerConfig {
                seed_point: SEED_POINT,
                search: SearchConfig {
                    seed,
                    ..SearchConfig::default()
                },
                ..ControllerConfig::default()
            },
        );
        drive(&mut daemon, &mut controller, events, cadence);
        (daemon.shutdown(), controller)
    };
    let (first, ctrl_a) = run(events.clone());
    first
        .ledger()
        .map_err(|e| format!("controller storm ({}): {e}", policy.name()))?;
    first
        .reconcile_events()
        .map_err(|e| format!("controller storm ({}): {e}", policy.name()))?;
    supervisor_kept_up(&first).map_err(|e| format!("controller storm ({}): {e}", policy.name()))?;
    let (second, ctrl_b) = run(events);
    if fingerprint(&first) != fingerprint(&second) {
        return Err(format!(
            "controller storm ({}): two identical runs diverge — daemon is nondeterministic",
            policy.name()
        ));
    }
    if ctrl_a.fingerprint() != ctrl_b.fingerprint()
        || ctrl_a.decision_log() != ctrl_b.decision_log()
    {
        return Err(format!(
            "controller storm ({}): decision logs diverge — controller is nondeterministic",
            policy.name()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::cascade_config;
    use cascade::CascadedSfc;
    use farm::{DaemonConfig, FarmDaemon};
    use obs::{DumpRecord, FlightRecorder, SharedSink};
    use sim::DiskService;
    use std::cell::RefCell;
    use std::rc::Rc;
    use workload::VodConfig;

    fn vod(streams: u32, seed: u64) -> Vec<Request> {
        let mut wl = VodConfig::mpeg1(streams);
        wl.duration_us = 3_000_000;
        wl.generate(seed).collect()
    }

    #[test]
    fn pinned_controller_is_bit_identical_to_no_controller() {
        let trace = vod(48, 9);
        let cfg = FarmConfig::new(3).with_redirects();
        let decisions = diff_ctrl(&trace, &cfg, SimOptions::with_shape(1, 8).dropping(), 8, 16)
            .expect("pin-to-seed neutrality");
        assert!(
            decisions > 0,
            "the neutrality gate must not be vacuous: the controller never scored a window"
        );
    }

    #[test]
    fn controller_storm_oracle_holds_over_seeds() {
        for seed in [2u64, 20040330, 0xfeed_f00d] {
            let trace = vod(24, seed);
            check_controller_storm(seed, &trace).expect("controller-storm oracle");
        }
    }

    #[test]
    fn an_unpinned_controller_on_an_overloaded_farm_actually_retunes() {
        // Not a differential check — an anti-vacuity probe: the storm
        // archetype is only worth fuzzing if live retunes really land.
        let trace = vod(64, 11);
        let cfg = FarmConfig::new(2).with_policy(RoutePolicy::HashStream);
        let options = SimOptions::with_shape(1, 8).dropping();
        let mut daemon = daemon_shaped(
            &cfg,
            options,
            Some(8),
            obs::TriggerConfig::quiet(),
            telemetry(),
        );
        let mut controller = Controller::new(
            cfg.shards,
            ControllerConfig {
                seed_point: SEED_POINT,
                ..ControllerConfig::default()
            },
        );
        drive(
            &mut daemon,
            &mut controller,
            trace.iter().cloned().map(DaemonEvent::Arrival),
            16,
        );
        let report = daemon.shutdown();
        assert!(
            report.retunes > 0,
            "an overloaded farm under a live controller must see retunes"
        );
        assert!(!controller.decision_log().is_empty());
        report.ledger().expect("ledger closes under live retuning");
        report.reconcile_events().expect("retune events reconcile");
    }

    #[test]
    fn each_decision_carries_the_knob_code_of_the_retune_event_it_causes() {
        // Small enough that no member's ring wraps and the decision log
        // is never trimmed: every retune the daemon applied is still in
        // a dump, and every decision the controller took is in its log.
        let trace: Vec<Request> = vod(64, 11).into_iter().take(150).collect();
        let cfg = FarmConfig::new(2).with_policy(RoutePolicy::HashStream);
        // Each member's recorder handle, for the dumps taken before
        // `shutdown` releases the farm's ring.
        let sinks: Rc<RefCell<Vec<SharedSink<FlightRecorder>>>> = Default::default();
        let kept = sinks.clone();
        let cylinders = cfg.cylinders;
        let mut daemon = FarmDaemon::new(
            DaemonConfig::new(cfg.clone(), SimOptions::with_shape(1, 8).dropping()).with_telemetry(
                obs::TelemetryConfig::exact().window_log2(17).depth(2),
                obs::TriggerConfig::quiet(),
            ),
            move |_, sink| {
                kept.borrow_mut().push(sink.clone());
                Box::new(
                    CascadedSfc::with_sink(cascade_config(cylinders, 8), sink)
                        .expect("valid cascade config"),
                )
            },
            |_| DiskService::table1(),
        );
        let mut controller = Controller::new(
            cfg.shards,
            ControllerConfig {
                seed_point: SEED_POINT,
                ..ControllerConfig::default()
            },
        );
        drive(
            &mut daemon,
            &mut controller,
            trace.iter().cloned().map(DaemonEvent::Arrival),
            8,
        );
        let end = daemon.now_us();
        let dumps: Vec<DumpRecord> = sinks
            .borrow()
            .iter()
            .map(|sink| sink.with(|recorder| recorder.force_dump(end).clone()))
            .collect();
        sinks.borrow_mut().clear();
        let report = daemon.shutdown();
        let log = controller.decision_log();
        assert!(log.len() < 32, "the log was trimmed: {}", log.len());
        for knob in 0..3 {
            assert!(
                log.iter().any(|d| d.knob == knob),
                "knob {knob} never moved"
            );
        }
        assert_eq!(report.retunes, log.len() as u64);
        assert_eq!(dumps.len(), cfg.shards);
        for (k, dump) in dumps.iter().enumerate() {
            assert!(
                dump.clean && dump.evicted_since_dump == 0,
                "member {k}'s ring wrapped"
            );
            let traced: Vec<u32> = dump
                .events
                .iter()
                .filter_map(|e| match e {
                    obs::TraceEvent::Retune { knob, .. } => Some(knob),
                    _ => None,
                })
                .collect();
            let decided: Vec<u32> = log
                .iter()
                .filter(|d| d.shard as usize == k)
                .map(|d| d.knob)
                .collect();
            assert_eq!(decided, traced, "member {k}");
        }
    }
}
