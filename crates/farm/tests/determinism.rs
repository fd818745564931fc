//! Farm determinism, routing quality and per-shard telemetry.
//!
//! The farm's contract: placements and outcomes are a pure function of
//! (trace, config) — metrics *and* every member's telemetry repeat bit
//! for bit, media faults and retries included. Redirect and shed accounting must reconcile exactly between
//! the report's counters and the traced events. Every test runs the
//! [`FarmDaemon`] with its anomaly triggers off, so no supervisor
//! quarantine moves a placement; where each request lands is held to
//! the routing rules by `oracle::routing`, decision by decision.

use cascade::{CascadeConfig, CascadedSfc, DispatchConfig};
use diskmodel::{Disk, FaultPlan};
use farm::{DaemonConfig, DaemonEvent, DaemonReport, FarmConfig, FarmDaemon, RoutePolicy};
use obs::{NullSink, ShardDelta, Snapshot, TelemetryConfig, TriggerConfig, WindowDelta};
use sched::{DiskScheduler, Fcfs, QosVector, Request};
use sim::{DiskService, SimOptions};
use workload::{NewsByteConfig, PoissonConfig, TraceSource, VecSource, VodConfig};

const POLICIES: [RoutePolicy; 3] = [
    RoutePolicy::HashStream,
    RoutePolicy::CylinderRange,
    RoutePolicy::LeastLoaded,
];

/// A VoD mix light enough that an unbounded farm serves everything.
fn light_trace() -> Vec<Request> {
    let mut cfg = VodConfig::mpeg1(32);
    cfg.duration_us = 10_000_000;
    cfg.generate(42).collect()
}

/// 90 streams against four Table-1 disks: just past saturation. Far past
/// it every policy sheds the same capacity-bound excess; *near* it the
/// sheds come from hash collisions piling streams onto one shard, which
/// balanced routing avoids — the regime where routing quality shows.
fn overload_trace() -> Vec<Request> {
    let mut cfg = VodConfig::mpeg1(90);
    cfg.duration_us = 10_000_000;
    cfg.generate(7).collect()
}

/// `n` reads 200 µs apart over 16 streams, with no deadline.
fn batch(n: u64) -> Vec<Request> {
    (0..n)
        .map(|i| {
            let cylinder = (i * 37 % 3832) as u32;
            Request::read(
                i,
                i * 200,
                u64::MAX,
                cylinder,
                64 * 1024,
                QosVector::single(0),
            )
            .with_stream(i % 16)
        })
        .collect()
}

/// Run `trace` through a quiet daemon: FCFS shards, or bounded cascades
/// whose sheds reach the member's recorder.
fn run(
    trace: &[Request],
    cfg: &FarmConfig,
    bounded: Option<usize>,
    telemetry: TelemetryConfig,
) -> DaemonReport {
    daemon(cfg, bounded, telemetry).run(trace.iter().cloned().map(DaemonEvent::Arrival))
}

/// The quiet daemon [`run`] drives.
fn daemon(cfg: &FarmConfig, bounded: Option<usize>, telemetry: TelemetryConfig) -> FarmDaemon {
    FarmDaemon::new(
        DaemonConfig::new(cfg.clone(), SimOptions::with_shape(1, 4))
            .with_telemetry(telemetry, TriggerConfig::quiet()),
        move |_, sink| -> Box<dyn DiskScheduler> {
            match bounded {
                None => Box::new(Fcfs::new()),
                Some(cap) => {
                    let cfg = CascadeConfig::paper_default(1, 3832)
                        .with_dispatch(DispatchConfig::paper_default().with_max_queue(cap));
                    Box::new(CascadedSfc::with_sink(cfg, sink).expect("valid config"))
                }
            }
        },
        |_| DiskService::table1(),
    )
}

/// Every member's cumulative telemetry, in shard order.
fn telemetry(report: &DaemonReport) -> Vec<Snapshot> {
    report
        .recorders
        .iter()
        .map(|r| r.windows().cumulative())
        .collect()
}

/// All members' cumulative telemetry folded into one snapshot.
fn merged(report: &DaemonReport) -> Snapshot {
    let mut all = Snapshot::new();
    for snap in telemetry(report) {
        all.merge(&snap);
    }
    all
}

#[test]
fn repeat_runs_are_deterministic() {
    let trace = light_trace();
    for policy in POLICIES {
        let cfg = FarmConfig::new(3).with_policy(policy);
        let a = run(&trace, &cfg, None, TelemetryConfig::exact());
        let b = run(&trace, &cfg, None, TelemetryConfig::exact());
        assert_eq!(a.routed_per_shard, b.routed_per_shard, "{policy:?}");
        assert_eq!(a.per_shard, b.per_shard, "{policy:?}");
        assert_eq!(telemetry(&a), telemetry(&b), "{policy:?}");
    }
}

#[test]
fn every_request_lands_on_exactly_one_shard() {
    let trace = batch(300);
    for policy in POLICIES {
        let cfg = FarmConfig::new(4).with_policy(policy);
        let report = run(&trace, &cfg, None, TelemetryConfig::exact());
        assert_eq!(
            report.routed_per_shard.iter().sum::<u64>(),
            300,
            "{policy:?}"
        );
        assert_eq!(report.served(), 300, "{policy:?}");
        assert_eq!(merged(&report).counters.arrivals, 300, "{policy:?}");
    }
}

#[test]
fn a_single_shard_farm_is_a_plain_simulation() {
    let trace = batch(200);
    let report = run(&trace, &FarmConfig::new(1), None, TelemetryConfig::exact());
    let direct = sim::simulate(
        &mut Fcfs::new(),
        &trace,
        &mut DiskService::table1(),
        SimOptions::with_shape(1, 4),
        &mut NullSink,
    );
    assert_eq!(report.per_shard, [direct]);
}

#[test]
fn sharding_shortens_the_makespan() {
    let trace = batch(600);
    let one = run(&trace, &FarmConfig::new(1), None, TelemetryConfig::exact());
    let four = FarmConfig::new(4).with_policy(RoutePolicy::LeastLoaded);
    let four = run(&trace, &four, None, TelemetryConfig::exact());
    let speedup = one.makespan_us as f64 / four.makespan_us as f64;
    assert!(
        speedup > 2.0,
        "4 shards should beat 1 disk: speedup {speedup:.2}"
    );
}

#[test]
fn least_loaded_routing_sheds_less_than_hash_under_overload() {
    let trace = overload_trace();
    let reports = POLICIES.map(|policy| {
        let cfg = FarmConfig::new(4).with_policy(policy);
        let report = run(&trace, &cfg, Some(24), TelemetryConfig::exact());
        // Under every policy each arrival is inside a shard's engine
        // metrics or was shed, and the traced arrivals, sheds and
        // redirects count the same as the report's counters.
        report.ledger().expect("ledger must close");
        report.reconcile_events().expect("events must reconcile");
        assert_eq!(
            merged(&report).counters.arrivals,
            trace.len() as u64,
            "{policy:?}"
        );
        report
    });
    let [hash, _, ll] = &reports;
    assert!(hash.sheds() > 0, "overload workload must actually shed");
    assert!(
        ll.sheds() < hash.sheds(),
        "least-loaded should shed strictly less: least-loaded {} vs hash {}",
        ll.sheds(),
        hash.sheds()
    );
}

#[test]
fn a_farm_of_media_faulted_disks_closes_its_ledger_and_repeats() {
    // Each member's disk draws transient errors and bad-sector remaps
    // from its own seeded plan, and the engines retry within the
    // deadline; bounded cascades wire their sheds into the recorders.
    let trace = overload_trace();
    let cfg = FarmConfig::new(4).with_policy(RoutePolicy::LeastLoaded);
    let run = || {
        FarmDaemon::new(
            DaemonConfig::new(cfg.clone(), SimOptions::with_shape(1, 4).with_retries(3))
                .with_telemetry(TelemetryConfig::exact(), TriggerConfig::quiet()),
            |_, sink| -> Box<dyn DiskScheduler> {
                let cfg = CascadeConfig::paper_default(1, 3832)
                    .with_dispatch(DispatchConfig::paper_default().with_max_queue(24));
                Box::new(CascadedSfc::with_sink(cfg, sink).expect("valid config"))
            },
            |shard| {
                let plan = FaultPlan::media(31 + shard as u64, 150_000, 40_000);
                DiskService::with_faults(Disk::table1(), plan)
            },
        )
        .run(trace.iter().cloned().map(DaemonEvent::Arrival))
    };
    let a = run();
    a.ledger().expect("ledger must close");
    a.reconcile_events().expect("events must reconcile");
    let total = a.aggregate();
    assert!(total.failed > 0, "some request must exhaust its retries");
    let c = merged(&a).counters;
    assert!(c.sector_remaps > 0);
    assert_eq!(c.media_errors, c.retries + total.failed);
    let b = run();
    assert_eq!(a.routed_per_shard, b.routed_per_shard);
    assert_eq!(a.per_shard, b.per_shard);
    assert_eq!(telemetry(&a), telemetry(&b));
}

#[test]
fn redirect_counter_reconciles_with_traced_events() {
    let trace = overload_trace();
    let cfg = FarmConfig::new(4)
        .with_policy(RoutePolicy::HashStream)
        .with_redirects();
    let report = run(&trace, &cfg, Some(24), TelemetryConfig::exact());
    assert!(
        report.redirects > 0,
        "overloaded hash routing should redirect"
    );
    let counters = merged(&report).counters;
    assert_eq!(
        counters.redirects, report.redirects,
        "traced Redirect events must reconcile with the report's counter"
    );
    assert_eq!(counters.arrivals, trace.len() as u64);
    report.ledger().expect("ledger must close");
    report.reconcile_events().expect("events must reconcile");
}

#[test]
fn per_shard_windows_sum_to_a_cumulative_any_window_width_agrees_on() {
    let trace = overload_trace();
    let cfg = FarmConfig::new(4)
        .with_policy(RoutePolicy::HashStream)
        .with_redirects();
    // The narrow run drains every member's delta after every event, as a
    // controller does, so each window that leaves a live range leaves
    // alone and is handed over whole.
    let mut narrow = daemon(&cfg, Some(24), TelemetryConfig::exact().window_log2(19));
    let mut drained: Vec<Vec<WindowDelta>> = vec![Vec::new(); cfg.shards];
    for r in &trace {
        narrow.handle(DaemonEvent::Arrival(r.clone()));
        for ShardDelta { shard, delta } in narrow.take_shard_deltas() {
            drained[shard].push(delta);
        }
    }
    let narrow = narrow.shutdown();
    let wide = run(
        &trace,
        &cfg,
        Some(24),
        TelemetryConfig::exact().window_log2(24),
    );
    assert_eq!(narrow.per_shard, wide.per_shard);
    assert_eq!(narrow.redirects, wide.redirects);
    assert_eq!(
        telemetry(&narrow),
        telemetry(&wide),
        "a member's cumulative telemetry must not depend on its window width"
    );
    let events: u64 = telemetry(&narrow)
        .iter()
        .map(|s| s.counters.total_events())
        .sum();
    let summary = (
        narrow.served(),
        narrow.aggregate().losses_total(),
        narrow.sheds(),
        narrow.redirects,
        narrow.makespan_us,
        events,
    );
    assert_eq!(
        summary,
        (2280, 1017, 299, 60, 10_424_680, 8197),
        "served, losses, sheds, redirects, makespan, events"
    );
    // Every event lands in the window of its own time: each shard reports
    // every 2^19 µs epoch of the run as a whole window (drained during
    // the run or still live at its end), each epoch's arrivals over the
    // shards are the trace's in that epoch, and the windows count every
    // shed the report does.
    let (mut arrivals, mut expected) = ([0u64; 20], [0u64; 20]);
    for r in &trace {
        expected[(r.arrival_us >> 19) as usize] += 1;
    }
    let mut sheds = 0;
    for (shard, (mut recorder, mut whole)) in narrow.recorders.into_iter().zip(drained).enumerate()
    {
        let windows = recorder.windows_mut();
        whole.extend(windows.take_delta());
        assert!(whole.iter().all(|d| !d.partial), "shard {shard}");
        let mut epochs: Vec<(u64, Snapshot)> =
            whole.into_iter().map(|d| (d.epoch, d.snapshot)).collect();
        let mut live = Snapshot::new();
        for (epoch, s) in windows.windows() {
            live.merge(s);
            epochs.push((epoch, s.clone()));
        }
        let cumulative = windows.cumulative();
        let rest = windows.flush().expect("the live range to hand out");
        assert_eq!(rest.snapshot, live, "the flush hands out the live range");
        let numbers: Vec<u64> = epochs.iter().map(|(e, _)| *e).collect();
        assert_eq!(numbers, (0..20).collect::<Vec<u64>>(), "shard {shard}");
        let mut delta_sum = Snapshot::new();
        for (epoch, s) in &epochs {
            delta_sum.merge(s);
            arrivals[*epoch as usize] += s.counters.arrivals;
            sheds += s.counters.sheds;
        }
        assert_eq!(
            delta_sum, cumulative,
            "window deltas must sum to the shard's cumulative snapshot"
        );
    }
    assert_eq!(arrivals, expected);
    assert_eq!(sheds, summary.2);
}

#[test]
fn redirects_reduce_sheds_for_hash_routing() {
    let trace = overload_trace();
    let hash = FarmConfig::new(4).with_policy(RoutePolicy::HashStream);
    let plain = run(&trace, &hash, Some(24), TelemetryConfig::exact());
    let redirected = run(
        &trace,
        &hash.with_redirects(),
        Some(24),
        TelemetryConfig::exact(),
    );
    assert!(
        redirected.sheds() < plain.sheds(),
        "redirect-on-overload should cut sheds: {} vs {}",
        redirected.sheds(),
        plain.sheds()
    );
}

/// `source` ingested by the quiet daemon, which must pull all `len` of it.
fn ingested(
    mut source: impl TraceSource,
    len: usize,
    cfg: &FarmConfig,
    bounded: Option<usize>,
) -> DaemonReport {
    let mut daemon = daemon(cfg, bounded, TelemetryConfig::exact());
    assert_eq!(daemon.ingest(&mut source), len as u64);
    daemon.shutdown()
}

fn assert_same_report(streamed: &DaemonReport, collected: &DaemonReport, what: &str) {
    streamed.ledger().unwrap();
    assert_eq!(streamed.arrivals, collected.arrivals, "{what}");
    assert_eq!(streamed.per_shard, collected.per_shard, "{what}");
    assert_eq!(
        streamed.routed_per_shard, collected.routed_per_shard,
        "{what}"
    );
    assert_eq!(
        streamed.sheds_per_shard, collected.sheds_per_shard,
        "{what}"
    );
    assert_eq!(
        streamed.admission_rejections, collected.admission_rejections,
        "{what}"
    );
    assert_eq!(streamed.migrated, collected.migrated, "{what}");
    assert_eq!(streamed.makespan_us, collected.makespan_us, "{what}");
    assert_eq!(telemetry(streamed), telemetry(collected), "{what}");
}

#[test]
fn a_streamed_generator_ingests_like_its_collected_trace() {
    let poisson = PoissonConfig {
        mean_interarrival_us: 8_000,
        ..PoissonConfig::figure8(2_000)
    };
    let news = NewsByteConfig {
        duration_us: 15_000_000,
        ..NewsByteConfig::paper(192)
    };
    let cfg = FarmConfig::new(3).with_policy(RoutePolicy::LeastLoaded);
    for seed in [5, 6] {
        let trace: Vec<Request> = poisson.generate(seed).collect();
        let n = trace.len();
        let streamed = ingested(poisson.generate(seed), n, &cfg, None);
        let collected = ingested(VecSource::new(trace), n, &cfg, None);
        assert_same_report(&streamed, &collected, "poisson");

        let trace: Vec<Request> = news.generate(seed).collect();
        let n = trace.len();
        let streamed = ingested(news.generate(seed), n, &cfg, Some(6));
        let collected = ingested(VecSource::new(trace), n, &cfg, Some(6));
        assert!(streamed.sheds() > 0, "bursts past the bound are shed");
        assert_same_report(&streamed, &collected, "newsbyte");
    }
}
