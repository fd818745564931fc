//! The CI smoke gate: a fixed battery of differential and metamorphic
//! checks sized to run in seconds, exercised on every push.

use cascade::{CascadeConfig, DispatchConfig};
use farm::{FarmConfig, RoutePolicy};
use sim::{DiskService, SimOptions};
use workload::{PoissonConfig, VodConfig};

use crate::ctrl::diff_ctrl;
use crate::daemon::{diff_daemon, diff_daemon_streamed};
use crate::fuzz::{Archetype, Scenario, ARCHETYPES};
use crate::metamorphic;
use crate::reference::{diff_baselines, diff_cascade, diff_characterize};
use crate::routing::diff_routing;

/// What the smoke gate verified, for the one-line report.
#[derive(Debug, Clone, Copy, Default)]
pub struct SmokeReport {
    /// Differential runs (optimized vs reference) that agreed.
    pub differential_runs: u64,
    /// Requests covered across all differential runs.
    pub requests_checked: u64,
}

/// Run the smoke battery. Covers: the cascade differential oracle on
/// three seeded workload families under four dispatcher regimes, the
/// brute-force baseline oracles, the farm routing replay under every
/// policy (with and without redirects), the daemon replay gate (the
/// online daemon bit-identical to the naive routing replay followed by
/// one plain simulation per shard on churn-free streams, through both
/// the event loop and the streaming ingest path), the analytic seek-law battery (measured sweep totals against
/// closed-form expectations), the control-plane neutrality gate (a
/// controller pinned to
/// the seed knobs leaves the daemon bit-identical to an uncontrolled
/// run), one fuzz case per archetype, the live-telemetry
/// relations, and the metamorphic quick pass. Any divergence is the
/// error.
pub fn run(seed: u64) -> Result<SmokeReport, String> {
    let mut report = SmokeReport::default();

    // Three seeded workloads for the headline claim: the optimized
    // cascade's dispatch order is bit-identical to the naive reference.
    let poisson: Vec<_> = PoissonConfig::figure8(400).generate(seed).collect();
    let mut wl = VodConfig::mpeg1(24);
    wl.duration_us = 4_000_000;
    let vod: Vec<_> = wl.generate(seed.wrapping_add(1)).collect();
    let clusters = Scenario {
        archetype: crate::fuzz::Archetype::DeadlineClusters,
        seed: seed.wrapping_add(2),
    }
    .trace();

    let dims = |trace: &str| if trace == "clusters" { 2u32 } else { 1 };
    for (name, trace) in [
        ("poisson", &poisson),
        ("vod", &vod),
        ("clusters", &clusters),
    ] {
        let d = dims(name);
        let options = SimOptions::with_shape(d as usize, 16).dropping();
        for (regime, dispatch) in [
            ("paper", DispatchConfig::paper_default()),
            ("fully", DispatchConfig::fully_preemptive()),
            ("non-preemptive", DispatchConfig::non_preemptive()),
            (
                "bounded",
                DispatchConfig::paper_default().with_max_queue(16),
            ),
        ] {
            let config = CascadeConfig::paper_default(d, 3832).with_dispatch(dispatch);
            diff_cascade(&config, trace, options, DiskService::table1)
                .map_err(|e| format!("[{name}/{regime}] {e}"))?;
            report.differential_runs += 1;
            report.requests_checked += trace.len() as u64;
        }
        diff_baselines(trace, options).map_err(|e| format!("[{name}/baselines] {e}"))?;
        report.differential_runs += 3;
        report.requests_checked += 3 * trace.len() as u64;
    }

    // Router replay: every policy, then redirect-on-overload.
    for policy in [
        RoutePolicy::HashStream,
        RoutePolicy::CylinderRange,
        RoutePolicy::LeastLoaded,
    ] {
        let cfg = FarmConfig::new(4).with_policy(policy);
        diff_routing(&vod, &cfg, &[None; 4]).map_err(|e| format!("[routing] {e}"))?;
        report.differential_runs += 1;
        report.requests_checked += vod.len() as u64;
    }
    let cfg = FarmConfig::new(4).with_redirects();
    diff_routing(&vod, &cfg, &[Some(8); 4]).map_err(|e| format!("[routing/redirects] {e}"))?;
    report.differential_runs += 1;
    report.requests_checked += vod.len() as u64;

    // Daemon replay gate: the continuous-operation daemon fed only
    // arrivals must be bit-identical to its judge (the naive routing
    // replay, then one plain simulation per shard) — every policy, then
    // bounded queues with redirect-on-overload.
    for policy in [
        RoutePolicy::HashStream,
        RoutePolicy::CylinderRange,
        RoutePolicy::LeastLoaded,
    ] {
        let cfg = FarmConfig::new(4).with_policy(policy);
        diff_daemon(&vod, &cfg, SimOptions::with_shape(1, 8).dropping(), None)
            .map_err(|e| format!("[daemon] {e}"))?;
        report.differential_runs += 1;
        report.requests_checked += vod.len() as u64;
    }
    let cfg = FarmConfig::new(3).with_redirects();
    diff_daemon(&vod, &cfg, SimOptions::with_shape(1, 8).dropping(), Some(8))
        .map_err(|e| format!("[daemon/redirects] {e}"))?;
    report.differential_runs += 1;
    report.requests_checked += vod.len() as u64;

    // The two arrival shapes the daemon's lazy pumping has to get right:
    // a sparse trace on 32 shards (most members idle and unpumped across
    // thousands of events) and bursts sharing one timestamp (ties at the
    // pump horizon) — bounded cascades, so dispatcher state is in play.
    for (what, shards, trace) in [
        ("sparse", 32, crate::daemon::sparse_trace()),
        ("tied", 4, crate::daemon::tied_trace()),
    ] {
        let cfg = FarmConfig::new(shards).with_redirects();
        diff_daemon(
            &trace,
            &cfg,
            SimOptions::with_shape(1, 8).dropping(),
            Some(8),
        )
        .map_err(|e| format!("[daemon/{what}] {e}"))?;
        report.differential_runs += 1;
        report.requests_checked += trace.len() as u64;
    }

    // The streaming ingest path (lazy iterator source) must be held to
    // the same bit-level standard as the event loop — open and bounded.
    for bounded in [None, Some(8)] {
        let cfg = FarmConfig::new(3).with_redirects();
        diff_daemon_streamed(&vod, &cfg, SimOptions::with_shape(1, 8).dropping(), bounded)
            .map_err(|e| format!("[daemon/streamed] {e}"))?;
        report.differential_runs += 1;
        report.requests_checked += vod.len() as u64;
    }

    // The analytic seek-law battery: measured seek totals against
    // Bachmat-style closed forms — no implementation on the far side.
    let analytic_runs =
        crate::analytic::check_seek_law(seed).map_err(|e| format!("[analytic] {e}"))?;
    report.differential_runs += analytic_runs;

    // Control-plane neutrality: a controller pinned to the seed knobs
    // must leave the daemon bit-identical to an uncontrolled run — and
    // must actually have scored windows, or the gate is vacuous.
    let cfg = FarmConfig::new(3).with_redirects();
    let decisions = diff_ctrl(&vod, &cfg, SimOptions::with_shape(1, 8).dropping(), 8, 16)
        .map_err(|e| format!("[ctrl/pinned] {e}"))?;
    if decisions == 0 {
        return Err("[ctrl/pinned] vacuous: the controller never scored a window".into());
    }
    report.differential_runs += 1;
    report.requests_checked += vod.len() as u64;

    // One fuzz case per archetype at the smoke seed.
    for archetype in ARCHETYPES {
        let scenario = Scenario {
            archetype,
            seed: seed.wrapping_add(3),
        };
        scenario.run().map_err(|e| format!("[{archetype}] {e}"))?;
        report.differential_runs += 1;
        report.requests_checked += scenario.trace().len() as u64;
    }

    // Telemetry relations: windowed-vs-plain equivalence, window-width
    // invariance, and delta-polling cadence invariance on the Poisson
    // trace.
    crate::telemetry::diff_telemetry(&poisson, SimOptions::with_shape(1, 16).dropping(), 64)
        .map_err(|e| format!("[telemetry] {e}"))?;
    report.differential_runs += 1;
    report.requests_checked += poisson.len() as u64;

    // Metamorphic quick pass.
    metamorphic::quick_pass(seed).map_err(|e| format!("[metamorphic] {e}"))?;

    Ok(report)
}

/// Perf-parity gate: after a hot-path optimization (the folded stage-1
/// table, the 64-bit `Narrow` path, the arena dispatcher), prove the
/// optimized engine is still *semantically* identical by diffing it
/// against the naive reference on every committed corpus trace, under all
/// four dispatcher regimes, and its characterization against
/// [`crate::reference_characterize`] — plus each case's own archetype
/// oracle via replay.
pub fn perf_parity(corpus: &std::path::Path) -> Result<SmokeReport, String> {
    let mut report = SmokeReport::default();

    // Each case first replays under its archetype-specific oracle…
    let replayed = crate::fuzz::replay_dir(corpus)?;
    if replayed == 0 {
        return Err(format!("no .case files under {}", corpus.display()));
    }
    report.differential_runs += replayed as u64;

    // …then its trace is run through the optimized cascade vs the
    // reference under every dispatcher regime.
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(corpus)
        .map_err(|e| format!("read {}: {e}", corpus.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "case"))
        .collect();
    paths.sort();
    for path in &paths {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let (scenario, trace) =
            crate::fuzz::parse_case(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let dims = match scenario.archetype {
            Archetype::DeadlineClusters | Archetype::ShedBursts => 2u32,
            Archetype::CylinderSweeps
            | Archetype::FaultPlans
            | Archetype::MembershipChurn
            | Archetype::ControllerStorm => 1,
        };
        let options = SimOptions::with_shape(dims as usize, 16).dropping();
        for (regime, dispatch) in [
            ("paper", DispatchConfig::paper_default()),
            ("fully", DispatchConfig::fully_preemptive()),
            ("non-preemptive", DispatchConfig::non_preemptive()),
            (
                "bounded",
                DispatchConfig::paper_default().with_max_queue(16),
            ),
        ] {
            let config = CascadeConfig::paper_default(dims, 3832).with_dispatch(dispatch);
            diff_cascade(&config, &trace, options, DiskService::table1)
                .map_err(|e| format!("[{}/{regime}] {e}", path.display()))?;
            report.differential_runs += 1;
            report.requests_checked += trace.len() as u64;
        }
        // …and every request's characterization against the from-scratch
        // restatement of the three stages.
        diff_characterize(&trace, dims).map_err(|e| format!("[{}] {e}", path.display()))?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_gate_passes() {
        let report = run(bench::DEFAULT_SEED).expect("oracle smoke gate");
        assert!(report.differential_runs >= 20);
        assert!(report.requests_checked > 5_000);
    }

    #[test]
    fn perf_parity_gate_passes_on_the_committed_corpus() {
        let corpus =
            std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus"));
        let report = perf_parity(corpus).expect("perf-parity gate");
        // 6 corpus cases: 6 replays + 4 regimes each.
        assert!(report.differential_runs >= 30);
        assert!(report.requests_checked > 0);
    }
}
