//! `--trace 1`: the per-layer metrics — a few untraced repetitions for
//! the base line, the traced pass, the layer replays, the FCFS floor and
//! (`wide`) the shard-count scaling curve.
//!
//! The traced total is split as
//!
//! ```text
//! traced = harness + daemon path
//! path   = front end (workload + admission + router)
//!        + scheduler and inversion scan
//!        + service + obs + daemon.self
//! ```
//!
//! where the harness part is the pass's measured overhead over an
//! untraced repetition, the inline layers come from the wrappers, the
//! replayed ones (admission, router, obs) and the service twin are
//! estimates, and `daemon.self` is what remains: the event loop, the
//! member pump and the engine stepper.

use std::path::Path;

use farm::DaemonReport;

use crate::metrics::Values;
use crate::refkernel::Reference;
use crate::replay;
use crate::reps::{setup, untraced_reps, Untraced};
use crate::run::{self, ControlTimes, Fingerprint};
use crate::stats::{median, ratio};
use crate::trace::{self, Timer, Trace, SPANS_EVERY, TIMED_EVERY};
use crate::workloads::{ShardPolicy, Workload};

/// Arrivals per point of `wide`'s shard-count scaling curve.
const SCALE_ARRIVALS: u64 = 300_000;
const SCALE_SHARDS: [usize; 4] = [1, 4, 16, 64];

/// Host ns per arrival of the layers the wrappers time inline.
struct Inline {
    workload: f64,
    enqueue: f64,
    dequeue: f64,
    scan: f64,
    /// The service twin, per pick.
    service_each: f64,
    /// What the harness added to the pass: clock reads, twin runs and
    /// the wrappers' bookkeeping.
    harness: f64,
}

/// Timed calls scaled to all calls, clock reads taken out of every
/// interval; plus the counts the wrappers keep on every call.
fn inline_layers(
    t: &Trace,
    clock_ns: f64,
    bookkeeping_ns: f64,
    a: f64,
    values: &mut Values,
) -> Inline {
    let workload = (t.next.total_ns(clock_ns) + t.observe.total_ns(clock_ns)) / a;
    let enqueue = t.enqueue.total_ns(clock_ns) / a;
    let characterize = t.characterize_twin.total_ns(clock_ns) / a;
    let dequeue = t.dequeue.total_ns(clock_ns) / a;
    let scan = t.scan.total_ns(clock_ns) / a;
    let picks = t.service_twin.calls as f64;
    let service_each = ratio(t.service_twin.total_ns(clock_ns), picks);
    let twins_ran: f64 = [t.characterize_twin, t.service_twin]
        .iter()
        .map(|twin| (twin.ns as f64 - twin.timed as f64 * clock_ns).max(0.0))
        .sum();
    let wrapper_calls =
        t.next.calls + t.observe.calls + t.enqueue.calls + t.dequeue.calls + t.scan.calls;
    let harness =
        twins_ran + t.clock_reads as f64 * clock_ns + wrapper_calls as f64 * bookkeeping_ns;
    values.set("workload.next_ns_per_req", workload);
    values.set("cascade.enqueue_ns_per_req", enqueue);
    values.set("cascade.characterize_ns_per_req", characterize);
    values.set(
        "cascade.insert_ns_per_req",
        (enqueue - characterize).max(0.0),
    );
    values.set("cascade.dequeue_ns_per_req", dequeue);
    values.set("cascade.dequeue_calls_per_req", t.dequeue.calls as f64 / a);
    values.set(
        "cascade.dequeue_empty_share",
        ratio(t.dequeue_empty as f64, t.dequeue.calls as f64),
    );
    values.set(
        "cascade.chunk_mean",
        ratio(t.enqueued as f64, t.enqueue.calls as f64),
    );
    values.set("cascade.chunk_p99", t.chunk_quantile(0.99) as f64);
    values.set("cascade.chunk_ge8_share", t.chunk_share_at_least(8));
    values.set("cascade.depth_mean", ratio(t.depth_sum as f64, picks));
    values.set("cascade.depth_max", t.depth_max as f64);
    values.set("engine.inversion_scan_ns_per_req", scan);
    values.set(
        "engine.inversion_scan_calls_per_req",
        t.scan.calls as f64 / a,
    );
    values.set("service.ns_per_served", service_each);
    Inline {
        workload,
        enqueue,
        dequeue,
        scan,
        service_each,
        harness: harness / a,
    }
}

/// Exact counts the later steps need.
struct Counts {
    served: f64,
    routed: f64,
    events_per_req: f64,
}

/// Exact-repeat counts from the daemon's own report and recorders.
fn exact_counts(w: Workload, report: &DaemonReport, a: f64, values: &mut Values) -> Counts {
    let m = report.aggregate();
    let served = m.served as f64;
    let mut counters = obs::Counters::default();
    for r in &report.recorders {
        counters.merge(&r.windows().cumulative().counters);
    }
    values.set(
        "cascade.preemptions_per_req",
        counters.preemptions as f64 / a,
    );
    values.set(
        "cascade.sp_promotions_per_req",
        counters.sp_promotions as f64 / a,
    );
    values.set("cascade.er_expands_per_req", counters.er_expands as f64 / a);
    values.set(
        "cascade.queue_swaps_per_req",
        counters.queue_swaps as f64 / a,
    );
    values.set("cascade.shed_ratio", report.sheds() as f64 / a);
    values.set("engine.drop_ratio", m.dropped as f64 / a);
    values.set("engine.late_ratio", m.late as f64 / a);
    values.set(
        "service.seek_ms_per_served",
        m.seek_us as f64 / served / 1e3,
    );
    values.set(
        "service.rotation_ms_per_served",
        m.rotation_us as f64 / served / 1e3,
    );
    values.set(
        "service.transfer_ms_per_served",
        m.transfer_us as f64 / served / 1e3,
    );
    // Busy share of the farm's nominal capacity: the shards it starts
    // with (`surge` swaps members but keeps that many in rotation).
    let capacity_us = report.makespan_us as f64 * w.shards() as f64;
    values.set(
        "service.utilisation",
        ratio(m.busy_us() as f64, capacity_us),
    );
    let routed = report.routed_per_shard.iter().sum::<u64>() as f64;
    values.set(
        "admission.reject_ratio",
        report.admission_rejections as f64 / a,
    );
    values.set(
        "router.redirect_ratio",
        ratio(report.redirects as f64, routed),
    );
    values.set(
        "router.reroute_ratio",
        ratio(report.reroutes as f64, routed),
    );
    let used: Vec<f64> = report
        .routed_per_shard
        .iter()
        .filter(|&&n| n > 0)
        .map(|&n| n as f64)
        .collect();
    let mean_routed = used.iter().sum::<f64>() / used.len().max(1) as f64;
    values.set(
        "router.imbalance",
        ratio(used.iter().copied().fold(0.0, f64::max), mean_routed),
    );
    let events_per_req = counters.total_events() as f64 / a;
    values.set("obs.events_per_req", events_per_req);
    let dumps: usize = report.recorders.iter().map(|r| r.dumps().len()).sum();
    values.set("obs.dumps", dumps as f64);
    values.set("daemon.quarantines", report.quarantines as f64);
    values.set("daemon.retunes", report.retunes as f64);
    values.set("daemon.refused_events", report.refused_events as f64);
    values.set("daemon.migrated_ratio", report.migrated as f64 / a);
    Counts {
        served,
        routed,
        events_per_req,
    }
}

/// Host ns per arrival of the layers estimated by replay.
struct Replayed {
    admission: f64,
    router: f64,
    obs: f64,
    obs_events: usize,
}

/// Replay the layers the daemon owns concretely on the captured inputs.
fn replay_layers(w: Workload, t: &Trace, counts: &Counts, a: f64, values: &mut Values) -> Replayed {
    let gate = replay::admission(w, &t.captured);
    let route_ns = replay::router(w, a as u64, &t.captured, &gate.admitted);
    let obs = replay::obs(w, &t.captured);
    values.set("admission.admit_ns_per_req", gate.ns_per_req);
    values.set(
        "admission.active_streams_peak",
        gate.active_streams_peak as f64,
    );
    values.set("router.route_ns_per_req", route_ns);
    values.set("sfc.index_ns_per_point", replay::sfc(&t.captured));
    values.set("obs.emit_ns_per_event", obs.emit_ns_per_event);
    let obs_ns = counts.events_per_req * obs.emit_ns_per_event;
    values.set("obs.ns_per_req", obs_ns);
    Replayed {
        admission: gate.ns_per_req,
        router: route_ns * counts.routed / a,
        obs: obs_ns,
        obs_events: obs.events,
    }
}

/// Membership events and the control plane (zero outside `surge`).
fn control_plane(c: &ControlTimes, reps: f64, values: &mut Values) {
    let each = |t: Timer, unit_ns: f64| ratio(t.ns as f64 / unit_ns, t.calls as f64);
    values.set("daemon.retune_us_per_event", each(c.retune, 1e3));
    values.set("daemon.add_shard_us_per_event", each(c.add_shard, 1e3));
    values.set("daemon.drain_us_per_event", each(c.drain, 1e3));
    values.set("ctrl.decide_us_per_round", each(c.decide, 1e3));
    values.set("ctrl.observe_ns_per_delta", each(c.observe, 1.0));
    values.set("ctrl.decisions", c.decisions as f64 / reps);
    values.set("ctrl.actions", c.actions as f64 / reps);
}

/// The sampled spans, kept in memory during the pass, written afterwards.
fn write_spans(dir: &Path, w: Workload, t: &Trace) -> Result<(), String> {
    let path = dir.join(format!("{}.spans.jsonl", w.name()));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, t.spans_jsonl()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("  {} spans written to {}", t.spans.len(), path.display());
    Ok(())
}

/// Measure one workload layer by layer. Returns the values and the
/// number of arrivals handled.
pub fn per_layer(
    w: Workload,
    seed: u64,
    seconds: f64,
    spans_dir: Option<&Path>,
) -> Result<(Values, u64), String> {
    let arrivals = w.arrivals();
    let a = arrivals as f64;
    let mut reference = Reference::new();
    setup(&mut reference, w, seed)?;
    let u: Untraced = untraced_reps(&mut reference, w, seed, seconds / 2.0)?;
    let mut values = Values::default();
    u.host_values(&mut values);
    values.set("alloc.count_per_req", u.alloc.0 as f64 / a);
    values.set("alloc.bytes_per_req", u.alloc.1 as f64 / a);
    values.set("daemon.shutdown_ms", median(&u.shutdown_ms));
    values.set("daemon.build_ms", median(&u.build_ms));
    control_plane(&u.control, u.reps() as f64, &mut values);
    let mut handled = u.arrivals_handled();

    // The traced pass: the same run with the wrappers live.
    let (rep, mut t) = run::traced(&mut reference, w, seed, arrivals);
    let clock_ns = t.clock_read_cost_ns();
    let bookkeeping_ns = trace::bookkeeping_cost_ns(|| {
        w.shard(obs::SharedSink::new(obs::FlightRecorder::paper_default(1)))
    });
    run::check(&rep.report, arrivals)?;
    if Fingerprint::of(&rep.report) != u.fingerprint {
        return Err("the traced pass changed the run: a wrapper is not transparent".into());
    }
    handled += arrivals;
    values.set(
        "workload.peak_live_sessions",
        rep.times.peak_live_sessions.max(u.peak_live_sessions) as f64,
    );
    let inline = inline_layers(&t, clock_ns, bookkeeping_ns, a, &mut values);
    let counts = exact_counts(w, &rep.report, a, &mut values);
    let replayed = replay_layers(w, &t, &counts, a, &mut values);

    // The harness's share of the traced total is built up from what it
    // did — clock reads, twin runs, wrapper calls — each priced in place.
    // The measured overhead over an untraced repetition (in reference
    // operations, so host drift between the two does not count) is
    // printed beside it, but it is a ratio of two noisy figures and too
    // coarse to subtract.
    let total = rep.times.ns_per_req();
    let harness = inline.harness;
    let path = total - harness;
    values.set(
        "host.trace_overhead",
        rep.times.cost_ratio() / median(&u.cost_ratios),
    );
    values.set("trace.total_ns_per_req", total);
    values.set("trace.harness_ns_per_req", harness);

    // The twin serves every pick; the engine does not serve the picks it
    // drops as past due, so only the served share is the layer's.
    let service = inline.service_each * counts.served / a;
    let front_end = inline.workload + replayed.admission + replayed.router;
    let scheduler_and_scan = inline.enqueue + inline.dequeue + inline.scan;
    let daemon_self = path - front_end - scheduler_and_scan - service - replayed.obs;
    values.set("daemon.self_ns_per_req", daemon_self);
    values.set("share.scheduler_and_scan", scheduler_and_scan / path);
    values.set("share.front_end", front_end / path);
    values.set("share.daemon_self", daemon_self / path);
    t.iter_gaps.sort_unstable();
    for (name, q) in [
        ("daemon.iter_ns_p50", 0.5),
        ("daemon.iter_ns_p99", 0.99),
        ("daemon.iter_ns_p999", 0.999),
    ] {
        values.set(name, obs::nearest_rank(&t.iter_gaps, q).unwrap_or(0) as f64);
    }

    // The daemon floor: the same workload on FCFS shards.
    let shards = w.shards();
    let fcfs = run::untraced(&mut reference, w, seed, arrivals, shards, ShardPolicy::Fcfs);
    run::check(&fcfs.report, arrivals)?;
    handled += arrivals;
    let fcfs_cost = fcfs.times.cost_ratio();
    values.set("ref.fcfs_cost_ratio", fcfs_cost);
    values.set("ref.cascade_over_fcfs", median(&u.cost_ratios) / fcfs_cost);

    // `wide` only: the same per-shard load at 1, 4, 16 and 64 shards.
    for shards in SCALE_SHARDS {
        let name = format!("daemon.scale_ns_per_req.s{shards}");
        if w != Workload::Wide {
            values.set(&name, 0.0);
            continue;
        }
        let policy = ShardPolicy::Cascade;
        let rep = run::untraced(&mut reference, w, seed, SCALE_ARRIVALS, shards, policy);
        run::check(&rep.report, SCALE_ARRIVALS)?;
        handled += SCALE_ARRIVALS;
        values.set(&name, rep.times.ns_per_req());
    }

    println!("{}: {}", w.name(), w.why());
    println!(
        "  seed {seed}, {arrivals} arrivals; {} untraced repetitions, one traced pass (clock \
         read {clock_ns:.1} ns x {}, wrapper call {bookkeeping_ns:.1} ns), obs replay of {} events, FCFS floor",
        u.reps(),
        t.clock_reads,
        replayed.obs_events
    );
    println!(
        "  traced {total:.0} ns/req = harness {harness:.0} + daemon path {path:.0}; the path = \
         front end {front_end:.0} + scheduler+scan {scheduler_and_scan:.0} + service \
         {service:.0} + obs {:.0} + daemon.self {daemon_self:.0}",
        replayed.obs
    );
    println!(
        "  times from 1 iteration in {TIMED_EVERY}; spans kept for 1 in {} (raw self time, \
         harness work included):",
        TIMED_EVERY * SPANS_EVERY
    );
    for (name, spans, self_ns) in t.self_times() {
        println!(
            "    {name:<26} {spans:>7} spans  {:>9.0} ns self each",
            self_ns as f64 / spans as f64
        );
    }
    if let Some(dir) = spans_dir {
        write_spans(dir, w, &t)?;
    }
    Ok((values, handled))
}
