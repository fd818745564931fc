//! Farm harness — shard-count scaling under the three routing policies.
//!
//! Not a paper figure: §5–6 evaluate one disk (and the striped path one
//! RAID group). The farm crate scales the same workload across N
//! independent shards, and this harness measures what that buys (the
//! `farm` subcommand): a fixed VoD load sized to saturate a small farm
//! is re-run at increasing shard counts under all three routing
//! policies, and the CSV reports per-policy served/loss/shed/redirect
//! counts and the simulated makespan. Deterministic given `--seed`.
//!
//! What the farm guarantees at the overloaded operating point — the
//! ledger and event counts under every policy, least-loaded shedding
//! less than hash, redirects reconciling — is asserted by the farm
//! crate's own `tests/determinism.rs`.

use crate::vod;
use farm::{simulate_farm, FarmConfig, FarmOutcome, RoutePolicy};

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

fn row(shards: usize, policy: RoutePolicy, arrivals: u64, out: &FarmOutcome) -> Row {
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
    let trace = vod::trace(cfg.streams, cfg.duration_us, cfg.seed);
    let mut rows = Vec::new();
    for &shards in &cfg.shards {
        for policy in POLICIES {
            let (out, _) = simulate_farm(
                &trace,
                &FarmConfig::new(shards).with_policy(policy),
                |_| vod::bounded_scheduler(cfg.max_queue),
                vod::options(),
            );
            rows.push(row(shards, policy, trace.len() as u64, &out));
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
