//! One repetition: a fresh daemon over the workload's fixed arrival
//! count, timed from the first `handle`/`ingest` call through
//! `shutdown()` in slices interleaved with the reference kernel, plus the
//! correctness checks every repetition must pass.

use std::rc::Rc;
use std::time::Instant;

use ctrl::{Controller, ControllerConfig};
use farm::{DaemonEvent, DaemonReport, FarmDaemon};
use sim::Metrics;
use workload::TraceSource;

use crate::alloc;
use crate::refkernel::Reference;
use crate::sources::Sliced;
use crate::trace::{Timer, Trace, TracedSource};
use crate::workloads::{Script, ShardPolicy, Workload};

/// What must be identical across every repetition of one `(workload,
/// seed)` — traced or not — for the run to count as deterministic and
/// the wrappers as transparent.
#[derive(Debug, PartialEq)]
pub struct Fingerprint {
    per_shard: Vec<Metrics>,
    routed_per_shard: Vec<u64>,
    sheds_per_shard: Vec<u64>,
    arrivals: u64,
    rejections: u64,
    redirects: u64,
    reroutes: u64,
    migrated: u64,
    quarantines: u64,
    retunes: u64,
}

impl Fingerprint {
    /// Extract the fingerprint of a finished run.
    pub fn of(r: &DaemonReport) -> Self {
        Fingerprint {
            per_shard: r.per_shard.clone(),
            routed_per_shard: r.routed_per_shard.clone(),
            sheds_per_shard: r.sheds_per_shard.clone(),
            arrivals: r.arrivals,
            rejections: r.admission_rejections,
            redirects: r.redirects,
            reroutes: r.reroutes,
            migrated: r.migrated,
            quarantines: r.quarantines,
            retunes: r.retunes,
        }
    }
}

/// Host time spent in the control plane and on membership events
/// (`surge` only; zero elsewhere).
#[derive(Debug, Clone, Copy, Default)]
pub struct ControlTimes {
    /// `handle(Retune)` calls.
    pub retune: Timer,
    /// `handle(AddShard)` calls.
    pub add_shard: Timer,
    /// `handle(DrainShard)` calls (the drain *closes* later, inside
    /// whichever arrival's `handle` crosses the hand-off deadline).
    pub drain: Timer,
    /// `Controller::observe`, one call per shard delta.
    pub observe: Timer,
    /// `Controller::decide`, one call per round.
    pub decide: Timer,
    /// Windows the controller scored.
    pub decisions: u64,
    /// Knob moves and policy swaps it emitted.
    pub actions: u64,
}

impl ControlTimes {
    /// Fold another repetition's times in.
    pub fn merge(&mut self, other: &ControlTimes) {
        for (mine, theirs) in [
            (&mut self.retune, &other.retune),
            (&mut self.add_shard, &other.add_shard),
            (&mut self.drain, &other.drain),
            (&mut self.observe, &other.observe),
            (&mut self.decide, &other.decide),
        ] {
            mine.ns += theirs.ns;
            mine.calls += theirs.calls;
            mine.timed += theirs.timed;
        }
        self.decisions += other.decisions;
        self.actions += other.actions;
    }
}

/// Daemon slices per repetition; a slice of the reference kernel runs
/// before, between and after them.
pub const SLICES: u64 = 16;

/// One finished repetition: the daemon's report and what the harness
/// measured around it.
pub struct Rep {
    /// The daemon's report.
    pub report: DaemonReport,
    /// Host-side measurements.
    pub times: Times,
}

/// The host-side measurements of one repetition.
#[derive(Debug, Clone, Copy)]
pub struct Times {
    /// Arrivals the daemon handled.
    pub arrivals: u64,
    /// Timed region: every `handle`/`ingest` slice plus `shutdown()`
    /// (the reference slices in between are not part of it).
    pub wall_ns: u64,
    /// The timed region in reference operations: each slice's ns divided
    /// by the reference ns/op measured on either side of it.
    pub ref_ops: f64,
    /// Mean reference speed over the repetition (ns/op).
    pub ref_ns_per_op: f64,
    /// The `shutdown()` part of the timed region.
    pub shutdown_ns: u64,
    /// Building the source (first generator segment) and the daemon
    /// (scheduler tables, recorders), before the timed region.
    pub build_ns: u64,
    /// The same in reference operations.
    pub build_ref_ops: f64,
    /// Allocation calls inside the timed region.
    pub alloc_calls: u64,
    /// Bytes requested inside the timed region.
    pub alloc_bytes: u64,
    /// Control-plane and membership-event times.
    pub control: ControlTimes,
    /// High-water mark of live sessions in the source.
    pub peak_live_sessions: usize,
}

impl Times {
    /// Host ns per arrival over the timed region.
    pub fn ns_per_req(&self) -> f64 {
        self.wall_ns as f64 / self.arrivals as f64
    }

    /// Reference operations per arrival: the host-normalised cost.
    pub fn cost_ratio(&self) -> f64 {
        self.ref_ops / self.arrivals as f64
    }
}

fn timed<R>(timer: &mut Timer, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    timer.record(start.elapsed().as_nanos() as u64);
    out
}

/// `surge`'s loop state: the controller and the churn cursor, kept
/// across slices.
struct Scripted {
    script: Script,
    controller: Controller,
    oldest: usize,
    seen: u64,
}

impl Scripted {
    fn new(script: Script) -> Self {
        Scripted {
            script,
            // Sized for every shard the script will ever add: deltas of
            // unknown shards would be ignored.
            controller: Controller::new(script.max_members, ControllerConfig::default()),
            oldest: 0,
            seen: 0,
        }
    }

    /// The body of `ctrl::drive` plus the closed loop's `observe`, with
    /// scripted membership churn in between; runs until `source` pauses
    /// or ends.
    fn slice<S: TraceSource>(
        &mut self,
        daemon: &mut FarmDaemon,
        source: &mut S,
        control: &mut ControlTimes,
    ) {
        let script = self.script;
        while let Some(r) = source.next() {
            let t = r.arrival_us;
            daemon.handle(DaemonEvent::Arrival(r));
            self.seen += 1;
            source.observe(daemon.backlog());
            if self.seen % script.churn_every == 0 {
                timed(&mut control.add_shard, || {
                    daemon.handle(DaemonEvent::AddShard { at_us: t })
                });
                timed(&mut control.drain, || {
                    daemon.handle(DaemonEvent::DrainShard {
                        at_us: t,
                        shard: self.oldest,
                        handoff_window_us: script.handoff_us,
                    })
                });
                self.oldest += 1;
            }
            if self.seen == script.quarantine_at {
                let shard = daemon.shards() - 1;
                daemon.handle(DaemonEvent::Quarantine { at_us: t, shard });
            }
            if self.seen % script.cadence == 0 {
                for delta in daemon.take_shard_deltas() {
                    timed(&mut control.observe, || self.controller.observe(&delta));
                }
                let actions = timed(&mut control.decide, || self.controller.decide(t));
                control.actions += actions.len() as u64;
                for action in actions {
                    timed(&mut control.retune, || daemon.handle(action.into_event(t)));
                }
            }
        }
        control.decisions = self.controller.decisions();
    }
}

/// Time one pass of `source` through `daemon`, slice by slice, with the
/// reference kernel in between. `build` constructs the two; it runs
/// between two reference slices of its own.
fn measure<S: Sliced>(
    reference: &mut Reference,
    w: Workload,
    arrivals: u64,
    build: impl FnOnce() -> (S, FarmDaemon),
) -> (Rep, S) {
    let before_build = reference.slice();
    let build_start = Instant::now();
    let (mut source, daemon) = build();
    let mut scripted = w.script(arrivals).map(Scripted::new);
    let build_ns = build_start.elapsed().as_nanos() as u64;
    let mut before = reference.slice();
    let build_ref_ops = build_ns as f64 / ((before_build + before) / 2.0);

    let mut control = ControlTimes::default();
    let mut daemon = Some(daemon);
    let (mut wall_ns, mut shutdown_ns, mut ref_ops) = (0u64, 0u64, 0.0);
    let mut speeds = vec![before];
    let (calls0, bytes0) = alloc::counters();
    let report = loop {
        let start = Instant::now();
        let live = daemon.as_mut().expect("the daemon lives until shutdown");
        match &mut scripted {
            Some(s) => s.slice(live, &mut source, &mut control),
            None => {
                live.ingest(&mut source);
            }
        }
        let report = source.exhausted().then(|| {
            let shutdown_start = Instant::now();
            let report = daemon.take().expect("shut down once").shutdown();
            shutdown_ns = shutdown_start.elapsed().as_nanos() as u64;
            report
        });
        let ns = start.elapsed().as_nanos() as u64;
        let after = reference.slice();
        wall_ns += ns;
        ref_ops += ns as f64 / ((before + after) / 2.0);
        speeds.push(after);
        before = after;
        if let Some(report) = report {
            break report;
        }
    };
    let (calls1, bytes1) = alloc::counters();
    let times = Times {
        arrivals: report.arrivals,
        wall_ns,
        ref_ops,
        ref_ns_per_op: speeds.iter().sum::<f64>() / speeds.len() as f64,
        shutdown_ns,
        build_ns,
        build_ref_ops,
        alloc_calls: calls1 - calls0,
        alloc_bytes: bytes1 - bytes0,
        control,
        peak_live_sessions: 0,
    };
    (Rep { report, times }, source)
}

/// One untraced repetition over `arrivals` arrivals on `shards` shards.
pub fn untraced(
    reference: &mut Reference,
    w: Workload,
    seed: u64,
    arrivals: u64,
    shards: usize,
    policy: ShardPolicy,
) -> Rep {
    let (mut rep, source) = measure(reference, w, arrivals, || {
        (
            w.source_for(seed, arrivals, shards)
                .sliced(arrivals.div_ceil(SLICES)),
            w.daemon(shards, policy, None),
        )
    });
    rep.times.peak_live_sessions = source.peak_live_sessions();
    rep
}

/// The traced pass: the same repetition with both wrappers live.
pub fn traced(reference: &mut Reference, w: Workload, seed: u64, arrivals: u64) -> (Rep, Trace) {
    let handle = Trace::new(arrivals);
    let (mut rep, source) = measure(reference, w, arrivals, || {
        let source = w.source(seed, arrivals).sliced(arrivals.div_ceil(SLICES));
        (
            TracedSource::new(source, handle.clone()),
            w.daemon(w.shards(), ShardPolicy::Cascade, Some(handle.clone())),
        )
    });
    rep.times.peak_live_sessions = source.inner().peak_live_sessions();
    drop(source);
    let trace = Rc::try_unwrap(handle)
        .ok()
        .expect("shutdown dropped every wrapper")
        .into_inner();
    (rep, trace)
}

/// The checks every repetition must pass: the ledger closes, traced
/// events reconcile with the daemon's counters, and the daemon saw
/// exactly the committed number of arrivals.
pub fn check(report: &DaemonReport, arrivals: u64) -> Result<(), String> {
    report.ledger()?;
    report.reconcile_events()?;
    if report.arrivals != arrivals {
        return Err(format!(
            "the daemon saw {} arrivals, the workload commits to {arrivals}",
            report.arrivals
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain(w: Workload, seed: u64, arrivals: u64, policy: ShardPolicy) -> Rep {
        untraced(&mut Reference::new(), w, seed, arrivals, w.shards(), policy)
    }

    #[test]
    fn wrappers_are_transparent_on_every_workload() {
        for w in Workload::ALL {
            let plain = plain(w, 7, 20_000, ShardPolicy::Cascade);
            let (wrapped, trace) = traced(&mut Reference::new(), w, 7, 20_000);
            check(&plain.report, 20_000).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            check(&wrapped.report, 20_000).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert_eq!(
                Fingerprint::of(&plain.report),
                Fingerprint::of(&wrapped.report),
                "{}: the traced pass must not change the run",
                w.name()
            );
            // One pull per arrival, one per pause, one at the end.
            assert_eq!(trace.next.calls, 20_000 + SLICES, "{}", w.name());
            // About one pull in TIMED_EVERY opens a timed iteration.
            let expected = 20_000 / crate::trace::TIMED_EVERY as usize;
            assert!(
                (expected * 8 / 10..=expected * 12 / 10).contains(&trace.iter_gaps.len()),
                "{}: {} timed iterations",
                w.name(),
                trace.iter_gaps.len()
            );
            assert_eq!(trace.observe.calls, 20_000, "{}", w.name());
            assert_eq!(trace.captured.len(), 20_000, "{}", w.name());
            let delivered = plain.report.arrivals
                - plain.report.admission_rejections
                - plain.report.migrated_undelivered;
            assert_eq!(trace.enqueued, delivered, "{}", w.name());
            assert!(!trace.spans.is_empty(), "{}", w.name());
        }
    }

    #[test]
    fn surge_slice_exercises_churn_and_control() {
        let rep = plain(Workload::Surge, 7, 60_000, ShardPolicy::Cascade);
        check(&rep.report, 60_000).unwrap();
        assert_eq!(rep.times.control.add_shard.calls, 15);
        assert_eq!(rep.times.control.drain.calls, 15);
        assert!(rep.times.control.decide.calls >= 14);
        assert!(rep.report.per_shard.len() > 4, "shards were added");
        assert!(rep.report.reroutes > 0 || rep.report.migrated > 0);
    }

    #[test]
    fn slices_cover_the_timed_region_in_both_currencies() {
        let rep = plain(Workload::Burst, 1, 40_000, ShardPolicy::Cascade);
        let t = rep.times;
        assert!(t.wall_ns > 0 && t.shutdown_ns <= t.wall_ns);
        // ns and reference ops describe the same region, so their ratio
        // is a reference speed some slice actually measured.
        let implied = t.wall_ns as f64 / t.ref_ops;
        assert!(
            implied > t.ref_ns_per_op / 3.0 && implied < t.ref_ns_per_op * 3.0,
            "{implied} vs {}",
            t.ref_ns_per_op
        );
        assert!(t.build_ref_ops > 0.0);
    }

    #[test]
    fn a_different_seed_changes_the_fingerprint() {
        let a = plain(Workload::Steady, 1, 5_000, ShardPolicy::Cascade);
        let b = plain(Workload::Steady, 1, 5_000, ShardPolicy::Cascade);
        let c = plain(Workload::Steady, 2, 5_000, ShardPolicy::Cascade);
        assert_eq!(Fingerprint::of(&a.report), Fingerprint::of(&b.report));
        assert_ne!(Fingerprint::of(&a.report), Fingerprint::of(&c.report));
    }

    #[test]
    fn fcfs_shards_close_the_same_ledger() {
        for w in [Workload::Surge, Workload::Burst] {
            let rep = plain(w, 3, 20_000, ShardPolicy::Fcfs);
            check(&rep.report, 20_000).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        }
    }
}
