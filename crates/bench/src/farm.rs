//! Farm harness — shard-count scaling, routing-policy quality, and the
//! farm CI smoke gate.
//!
//! Not a paper figure: §5–6 evaluate one disk (and PR 2's striping one
//! RAID group). The farm crate scales the same workload across N
//! independent shards, and this harness measures what that buys, in two
//! modes (the `farm` binary):
//!
//! * **sweep** — a fixed VoD load sized to saturate a small farm is
//!   re-run at increasing shard counts under all three routing
//!   policies; the CSV reports per-policy served/loss/shed/redirect
//!   counts and the simulated makespan.
//! * **smoke** — the CI gate: for every policy, redirect counters must
//!   reconcile exactly with the traced Redirect events, every arrival must be
//!   accounted for (served + dropped + failed + shed), and least-loaded
//!   routing must shed strictly less than hash routing at the
//!   just-past-saturation operating point. Exits 1 on any violation.
//!
//! Both modes are deterministic given `--seed`.

use crate::vod;
use farm::{simulate_farm, FarmConfig, FarmOutcome, RoutePolicy};
use obs::Snapshot;
use sim::Metrics;

/// The three routing policies, in report order.
pub const POLICIES: [RoutePolicy; 3] = [
    RoutePolicy::HashStream,
    RoutePolicy::CylinderRange,
    RoutePolicy::LeastLoaded,
];

/// Farm-scenario parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// RNG seed (workload generation).
    pub seed: u64,
    /// Shard counts to sweep.
    pub shards: Vec<usize>,
    /// Concurrent MPEG-1 streams feeding the whole farm.
    pub streams: u32,
    /// Simulated duration (µs).
    pub duration_us: u64,
    /// Bounded-queue capacity per shard scheduler (sheds on overflow).
    pub max_queue: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: crate::DEFAULT_SEED,
            shards: vec![1, 2, 4, 8],
            // 90 MPEG-1 streams sit just past the aggregate capacity of
            // four Table-1 disks — the regime where routing quality (not
            // raw capacity) decides the shed count.
            streams: 90,
            duration_us: 10_000_000,
            max_queue: 24,
        }
    }
}

fn vod_trace(cfg: &Config) -> Vec<sched::Request> {
    vod::trace(cfg.streams, cfg.duration_us, cfg.seed)
}

/// One measured point of the sweep.
#[derive(Debug, Clone)]
pub struct Row {
    /// Shard count.
    pub shards: usize,
    /// Routing policy name (`hash`, `range`, `least-loaded`).
    pub policy: &'static str,
    /// Requests in the trace.
    pub arrivals: u64,
    /// Requests served.
    pub served: u64,
    /// Deadline losses (dropped + late + failed).
    pub losses: u64,
    /// Bounded-queue sheds across shards.
    pub sheds: u64,
    /// Arrivals steered away from a projected-full shard.
    pub redirects: u64,
    /// Aggregate loss ratio including sheds.
    pub loss_ratio: f64,
    /// Simulated farm makespan (µs).
    pub makespan_us: u64,
}

/// Run one farm configuration.
pub fn run_point(
    cfg: &Config,
    shards: usize,
    policy: RoutePolicy,
    redirects: bool,
) -> (FarmOutcome, Snapshot) {
    let trace = vod_trace(cfg);
    let mut farm_cfg = FarmConfig::new(shards).with_policy(policy);
    if redirects {
        farm_cfg = farm_cfg.with_redirects();
    }
    simulate_farm(
        &trace,
        &farm_cfg,
        |_| vod::bounded_scheduler(cfg.max_queue),
        vod::options(),
    )
}

fn row(cfg: &Config, shards: usize, policy: RoutePolicy, out: &FarmOutcome) -> Row {
    let arrivals = vod_trace(cfg).len() as u64;
    let total = out.aggregate();
    let lost = total.losses_total() + out.sheds();
    Row {
        shards,
        policy: policy.name(),
        arrivals,
        served: out.served(),
        losses: total.losses_total(),
        sheds: out.sheds(),
        redirects: out.redirects,
        loss_ratio: if arrivals == 0 {
            0.0
        } else {
            lost as f64 / arrivals as f64
        },
        makespan_us: out.makespan_us,
    }
}

/// Produce the scaling table: one [`Row`] per (shard count, policy).
pub fn sweep(cfg: &Config) -> Vec<Row> {
    let mut rows = Vec::new();
    for &shards in &cfg.shards {
        for policy in POLICIES {
            let (out, _) = run_point(cfg, shards, policy, false);
            rows.push(row(cfg, shards, policy, &out));
        }
    }
    rows
}

/// Print the sweep as CSV.
pub fn print_csv(rows: &[Row]) {
    println!("shards,policy,arrivals,served,losses,sheds,redirects,loss_ratio,makespan_ms");
    for r in rows {
        println!(
            "{},{},{},{},{},{},{},{:.4},{}",
            r.shards,
            r.policy,
            r.arrivals,
            r.served,
            r.losses,
            r.sheds,
            r.redirects,
            r.loss_ratio,
            r.makespan_us / 1_000
        );
    }
}

/// Check the arrival ledger: every request is inside some shard's engine
/// metrics (served + dropped + failed) or was shed by a bounded queue.
pub fn reconcile(out: &FarmOutcome, snap: &Snapshot, arrivals: u64) -> Result<(), String> {
    let total = Metrics::merged(&out.per_shard);
    let accounted = total.requests_total() + out.sheds();
    if accounted != arrivals {
        return Err(format!(
            "arrival ledger: {accounted} accounted of {arrivals} \
             (served {} dropped {} failed {} shed {})",
            total.served,
            total.dropped,
            total.failed,
            out.sheds()
        ));
    }
    if snap.counters.arrivals != arrivals {
        return Err(format!(
            "arrival events: {} != {arrivals}",
            snap.counters.arrivals
        ));
    }
    if snap.counters.redirects != out.redirects {
        return Err(format!(
            "redirect events vs outcome counter: {} != {}",
            snap.counters.redirects, out.redirects
        ));
    }
    if snap.counters.shard_reports != out.per_shard.len() as u64 {
        return Err(format!(
            "shard_report events: {} != {} shards",
            snap.counters.shard_reports,
            out.per_shard.len()
        ));
    }
    Ok(())
}

/// The CI smoke gate. Returns the (hash, least-loaded, redirected-hash)
/// rows at 4 shards on success; the error names the violated guarantee.
pub fn smoke(cfg: &Config) -> Result<(Row, Row, Row), String> {
    let arrivals = vod_trace(cfg).len() as u64;
    let shards = 4;

    // The ledger must reconcile for every policy.
    let mut per_policy = Vec::new();
    for policy in POLICIES {
        let (out, snap) = run_point(cfg, shards, policy, false);
        reconcile(&out, &snap, arrivals)?;
        per_policy.push(row(cfg, shards, policy, &out));
    }
    let hash = per_policy[0].clone();
    let least_loaded = per_policy[2].clone();

    // Load-aware routing must beat load-blind hashing under overload.
    if hash.sheds == 0 {
        return Err(format!(
            "operating point is not overloaded: hash routing shed nothing \
             ({} streams, {} shards, queue {})",
            cfg.streams, shards, cfg.max_queue
        ));
    }
    if least_loaded.sheds >= hash.sheds {
        return Err(format!(
            "least-loaded should shed strictly less than hash: {} vs {}",
            least_loaded.sheds, hash.sheds
        ));
    }

    // Redirect-on-overload must fire, reconcile, and not make hash worse.
    let (out, snap) = run_point(cfg, shards, RoutePolicy::HashStream, true);
    reconcile(&out, &snap, arrivals)?;
    if out.redirects == 0 {
        return Err("redirect-on-overload never fired under overload".into());
    }
    let redirected = row(cfg, shards, RoutePolicy::HashStream, &out);
    if redirected.sheds > hash.sheds {
        return Err(format!(
            "redirects made shedding worse: {} vs {}",
            redirected.sheds, hash.sheds
        ));
    }
    Ok((hash, least_loaded, redirected))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Config {
        Config {
            duration_us: 6_000_000,
            ..Default::default()
        }
    }

    #[test]
    fn smoke_gate_passes() {
        let (hash, least_loaded, redirected) = smoke(&small()).expect("farm smoke gate");
        assert!(hash.sheds > 0);
        assert!(least_loaded.sheds < hash.sheds);
        assert!(redirected.redirects > 0);
    }

    #[test]
    fn sweep_capacity_scales_with_shards() {
        let cfg = Config {
            shards: vec![1, 4],
            ..small()
        };
        let rows = sweep(&cfg);
        assert_eq!(rows.len(), 2 * POLICIES.len());
        for policy in POLICIES {
            let one = rows
                .iter()
                .find(|r| r.shards == 1 && r.policy == policy.name())
                .unwrap();
            let four = rows
                .iter()
                .find(|r| r.shards == 4 && r.policy == policy.name())
                .unwrap();
            assert!(
                four.served > one.served,
                "{}: 4 shards should serve more ({} vs {})",
                policy.name(),
                four.served,
                one.served
            );
            assert!(four.makespan_us < one.makespan_us);
        }
    }
}
