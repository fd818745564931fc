//! Routing determinism and per-shard telemetry.
//!
//! The farm's contract: placements and outcomes are a pure function of
//! (trace, config) — metrics *and* merged trace snapshots repeat bit for
//! bit. Redirect accounting must reconcile exactly between the outcome
//! counter and the traced events.

use cascade::{CascadeConfig, CascadedSfc, DispatchConfig};
use farm::{simulate_farm, FarmConfig, RoutePolicy};
use sched::{DiskScheduler, Fcfs};
use sim::SimOptions;
use workload::VodConfig;

const POLICIES: [RoutePolicy; 3] = [
    RoutePolicy::HashStream,
    RoutePolicy::CylinderRange,
    RoutePolicy::LeastLoaded,
];

/// A VoD mix light enough that an unbounded farm serves everything.
fn light_trace() -> Vec<sched::Request> {
    let mut cfg = VodConfig::mpeg1(32);
    cfg.duration_us = 10_000_000;
    cfg.generate(42)
}

/// 90 streams against four Table-1 disks: just past saturation. Far past
/// it every policy sheds the same capacity-bound excess; *near* it the
/// sheds come from hash collisions piling streams onto one shard, which
/// balanced routing avoids — the regime where routing quality shows.
fn overload_trace() -> Vec<sched::Request> {
    let mut cfg = VodConfig::mpeg1(90);
    cfg.duration_us = 10_000_000;
    cfg.generate(7)
}

fn bounded_cascade(cap: usize) -> Box<dyn DiskScheduler> {
    let cfg = CascadeConfig::paper_default(1, 3832)
        .with_dispatch(DispatchConfig::paper_default().with_max_queue(cap));
    Box::new(CascadedSfc::new(cfg).expect("valid config"))
}

#[test]
fn repeat_runs_are_deterministic() {
    let trace = light_trace();
    for policy in POLICIES {
        let cfg = FarmConfig::new(3).with_policy(policy);
        let run = || {
            simulate_farm(
                &trace,
                &cfg,
                |_| Box::new(Fcfs::new()),
                SimOptions::with_shape(1, 4),
            )
        };
        let (oa, sa) = run();
        let (ob, sb) = run();
        assert_eq!(oa.routed_per_shard, ob.routed_per_shard, "{policy:?}");
        assert_eq!(oa.per_shard, ob.per_shard, "{policy:?}");
        assert_eq!(sa, sb, "{policy:?}");
    }
}

#[test]
fn hash_routing_is_sticky_per_stream_end_to_end() {
    let trace = light_trace();
    let cfg = FarmConfig::new(4).with_policy(RoutePolicy::HashStream);
    let mut sink = obs::Snapshot::new();
    let placement = farm::route_trace(&trace, &cfg, &[None; 4], &mut sink);
    // Every stream's requests live on exactly one shard.
    for (shard, sub) in placement.shard_traces.iter().enumerate() {
        for r in sub {
            let home = placement
                .shard_traces
                .iter()
                .position(|s| s.iter().any(|q| q.stream == r.stream))
                .unwrap();
            assert_eq!(home, shard, "stream {} split across shards", r.stream);
        }
    }
}

#[test]
fn range_routing_bands_the_cylinder_space() {
    let trace = light_trace();
    let cfg = FarmConfig::new(4).with_policy(RoutePolicy::CylinderRange);
    let mut sink = obs::Snapshot::new();
    let placement = farm::route_trace(&trace, &cfg, &[None; 4], &mut sink);
    // Shard i's cylinders all precede shard i+1's.
    let ranges: Vec<(u32, u32)> = placement
        .shard_traces
        .iter()
        .map(|sub| {
            let lo = sub.iter().map(|r| r.cylinder).min().unwrap_or(0);
            let hi = sub.iter().map(|r| r.cylinder).max().unwrap_or(0);
            (lo, hi)
        })
        .collect();
    for w in ranges.windows(2) {
        assert!(w[0].1 <= w[1].0, "bands overlap: {ranges:?}");
    }
}

#[test]
fn least_loaded_routing_sheds_less_than_hash_under_overload() {
    let trace = overload_trace();
    let arrivals = trace.len() as u64;
    let outcomes = POLICIES.map(|policy| {
        let cfg = FarmConfig::new(4).with_policy(policy);
        let (out, snap) = simulate_farm(
            &trace,
            &cfg,
            |_| bounded_cascade(24),
            SimOptions::with_shape(1, 4),
        );
        // Under every policy each arrival is inside a shard's engine
        // metrics or was shed, and the traced events count the same.
        let accounted = out.aggregate().requests_total() + out.sheds();
        assert_eq!(accounted, arrivals, "{policy:?}");
        assert_eq!(snap.counters.arrivals, arrivals, "{policy:?}");
        assert_eq!(snap.counters.shard_reports, 4, "{policy:?}");
        assert_eq!(snap.counters.redirects, out.redirects, "{policy:?}");
        out
    });
    let [hash, _, ll] = &outcomes;
    assert!(hash.sheds() > 0, "overload workload must actually shed");
    assert!(
        ll.sheds() < hash.sheds(),
        "least-loaded should shed strictly less: least-loaded {} vs hash {}",
        ll.sheds(),
        hash.sheds()
    );
}

#[test]
fn redirect_counter_reconciles_with_traced_events() {
    let trace = overload_trace();
    let cfg = FarmConfig::new(4)
        .with_policy(RoutePolicy::HashStream)
        .with_redirects();
    let (out, snap) = simulate_farm(
        &trace,
        &cfg,
        |_| bounded_cascade(24),
        SimOptions::with_shape(1, 4),
    );
    assert!(out.redirects > 0, "overloaded hash routing should redirect");
    assert_eq!(
        snap.counters.redirects, out.redirects,
        "traced Redirect events must reconcile with the outcome counter"
    );
    assert_eq!(snap.counters.shard_reports, 4);
    assert_eq!(snap.counters.arrivals, trace.len() as u64);
    // Ledger: every arrival is either inside a shard's engine metrics or
    // was shed by a bounded queue.
    let accounted = out.aggregate().requests_total() + out.sheds();
    assert_eq!(accounted, trace.len() as u64);
}

#[test]
fn per_shard_windowed_sinks_reconcile_with_the_merged_snapshot() {
    let trace = overload_trace();
    let cfg = FarmConfig::new(4)
        .with_policy(RoutePolicy::HashStream)
        .with_redirects();
    let (plain_out, plain_snap) = simulate_farm(
        &trace,
        &cfg,
        |_| bounded_cascade(24),
        SimOptions::with_shape(1, 4),
    );
    let (out, sinks) = farm::simulate_farm_traced(
        &trace,
        &cfg,
        |_| bounded_cascade(24),
        SimOptions::with_shape(1, 4),
        |_| obs::WindowedSnapshot::new(19, 4),
    );
    assert_eq!(plain_out.per_shard, out.per_shard);
    assert_eq!(plain_out.redirects, out.redirects);
    assert_eq!(sinks.len(), 4);
    let mut merged = obs::Snapshot::new();
    for mut w in sinks {
        let deltas = w.flush();
        assert!(deltas.len() > 1, "a 10 s shard run spans several windows");
        let mut delta_sum = obs::Snapshot::new();
        for d in &deltas {
            delta_sum.merge(&d.snapshot);
        }
        let cumulative = w.cumulative();
        assert_eq!(
            delta_sum, cumulative,
            "window deltas must sum to the shard's cumulative snapshot"
        );
        merged.merge(&cumulative);
    }
    assert_eq!(
        merged, plain_snap,
        "windowed per-shard telemetry must reproduce the plain farm snapshot"
    );
}

#[test]
fn redirects_reduce_sheds_for_hash_routing() {
    let trace = overload_trace();
    let run = |redirect: bool| {
        let mut cfg = FarmConfig::new(4).with_policy(RoutePolicy::HashStream);
        if redirect {
            cfg = cfg.with_redirects();
        }
        simulate_farm(
            &trace,
            &cfg,
            |_| bounded_cascade(24),
            SimOptions::with_shape(1, 4),
        )
    };
    let (plain, _) = run(false);
    let (redirected, _) = run(true);
    assert!(
        redirected.sheds() < plain.sheds(),
        "redirect-on-overload should cut sheds: {} vs {}",
        redirected.sheds(),
        plain.sheds()
    );
}
