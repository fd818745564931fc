//! Figure 11 — the NewsByte5 non-linear editing server (§6).
//!
//! 68–91 users stream MPEG-1 at 1.5 Mb/s in periodic bursts of 64-KB
//! block requests against the Table-1 disk; requests not serviced before
//! their 75–150 ms deadline are *lost*. Five schedulers are compared on
//! the weighted aggregate-loss cost `f = Σ wᵢ·mᵢ/rᵢ` with weights
//! decreasing linearly 11:1 from the highest priority level to the
//! lowest:
//!
//! * **fcfs** — the arrival-order strawman;
//! * **sweep-x** — 2-D curve with the deadline axis most significant:
//!   effectively EDF (priority-blind);
//! * **sweep-y** — priority axis most significant: effectively the
//!   multi-queue scheduler;
//! * **hilbert**, **gray** — recursive curves over (priority, deadline).
//!
//! Paper's observations to reproduce: sweep-y wins under light load; as
//! the user count grows, losing *wisely* matters and the recursive curves
//! (and even sweep-x at the very end) close in — Hilbert and Gray track
//! each other and land between sweep-x and sweep-y, balancing losses
//! across levels while favoring high priorities.

use cascade::{CascadeConfig, CascadedSfc, DispatchConfig, Stage1, Stage2, Stage2Combiner};
use sched::{DiskScheduler, Fcfs};
use sfc::CurveKind;
use sim::{simulate, DiskService, Metrics, SimOptions};
use workload::NewsByteConfig;

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// RNG seed.
    pub seed: u64,
    /// User counts to sweep (the paper uses 68–91).
    pub users: Vec<u32>,
    /// Simulated duration per run (µs).
    pub duration_us: u64,
    /// Weight ratio of the §6 cost function (highest : lowest priority).
    pub weight_ratio: f64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: crate::DEFAULT_SEED,
            users: vec![68, 71, 74, 77, 80, 83, 86, 89, 91],
            duration_us: 60_000_000,
            weight_ratio: 11.0,
        }
    }
}

/// One measured point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Scheduler label.
    pub scheduler: String,
    /// User count.
    pub users: u32,
    /// §6 weighted aggregate loss.
    pub aggregate_loss: f64,
    /// Raw loss ratio (lost / total).
    pub loss_ratio: f64,
}

/// The 2-D-curve schedulers of §6: a 1-D identity SFC1 (8 levels) feeding
/// a 2-D catalogue curve over (priority, deadline); served in
/// non-preemptive batches as the editing server does.
fn curve_scheduler(kind: CurveKind) -> CascadedSfc {
    let cfg = CascadeConfig {
        stage1: Some(Stage1 {
            // 1-D Sweep = identity: the user's priority level passes
            // through unchanged.
            curve: CurveKind::Sweep,
            dims: 1,
            level_bits: 3,
        }),
        stage2: Some(Stage2 {
            combiner: Stage2Combiner::Curve(kind),
            horizon_us: 150_000,
            resolution_bits: 8,
        }),
        stage3: None,
        dispatch: DispatchConfig::non_preemptive(),
    };
    CascadedSfc::new(cfg).expect("valid cascade config")
}

/// Run one scheduler at one user count.
pub fn run_sim(cfg: &Config, users: u32, sched: &mut dyn DiskScheduler) -> Metrics {
    let mut wl = NewsByteConfig::paper(users);
    wl.duration_us = cfg.duration_us;
    let trace = wl.generate(cfg.seed ^ users as u64);
    let mut service = DiskService::table1();
    simulate(
        sched,
        &trace,
        &mut service,
        SimOptions::with_shape(1, 8).dropping(),
    )
}

/// The five §6 schedulers, freshly constructed.
pub fn schedulers() -> Vec<(String, Box<dyn DiskScheduler>)> {
    vec![
        (
            "fcfs".into(),
            Box::new(Fcfs::new()) as Box<dyn DiskScheduler>,
        ),
        // Deadline-major lexicographic curve = EDF within each batch.
        (
            "sweep-x".into(),
            Box::new(curve_scheduler(CurveKind::CScan)),
        ),
        // Priority-major lexicographic curve = multi-queue within batches.
        (
            "sweep-y".into(),
            Box::new(curve_scheduler(CurveKind::Sweep)),
        ),
        (
            "hilbert".into(),
            Box::new(curve_scheduler(CurveKind::Hilbert)),
        ),
        ("gray".into(), Box::new(curve_scheduler(CurveKind::Gray))),
    ]
}

/// Produce the Figure-11 series.
pub fn run(cfg: &Config) -> Vec<Row> {
    let mut rows = Vec::new();
    for &users in &cfg.users {
        for (label, mut sched) in schedulers() {
            let m = run_sim(cfg, users, sched.as_mut());
            rows.push(Row {
                scheduler: label,
                users,
                aggregate_loss: m.weighted_loss(0, cfg.weight_ratio),
                loss_ratio: m.loss_ratio(),
            });
        }
    }
    rows
}

/// Render the series as `results/fig11.csv` holds it, one row per point.
pub fn csv(rows: &[Row]) -> String {
    let mut out = String::from("users,scheduler,aggregate_loss,loss_ratio\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{:.3},{:.4}\n",
            r.users, r.scheduler, r.aggregate_loss, r.loss_ratio
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Config {
        Config {
            users: vec![70, 88],
            duration_us: 30_000_000,
            ..Default::default()
        }
    }

    #[test]
    fn losses_grow_with_users() {
        let rows = run(&small());
        for (label, _) in schedulers() {
            let lo = rows
                .iter()
                .find(|r| r.scheduler == label && r.users == 70)
                .unwrap();
            let hi = rows
                .iter()
                .find(|r| r.scheduler == label && r.users == 88)
                .unwrap();
            assert!(
                hi.aggregate_loss >= lo.aggregate_loss,
                "{label}: {:.3} -> {:.3}",
                lo.aggregate_loss,
                hi.aggregate_loss
            );
        }
    }

    #[test]
    fn fcfs_loses_to_every_priority_aware_curve() {
        // FCFS is blind to both priority and deadline; every curve that
        // sees priorities must beat it on the weighted cost. (Sweep-x is
        // *deadline*-only — under drop-late overload it can collapse past
        // FCFS, so it is not part of this comparison.)
        let rows = run(&small());
        let at = |label: &str, users: u32| {
            rows.iter()
                .find(|r| r.scheduler == label && r.users == users)
                .unwrap()
                .aggregate_loss
        };
        for users in [70, 88] {
            for other in ["sweep-y", "hilbert"] {
                assert!(
                    at("fcfs", users) > at(other, users),
                    "users={users}: fcfs {:.3} should exceed {other} {:.3}",
                    at("fcfs", users),
                    at(other, users)
                );
            }
        }
    }

    #[test]
    fn priority_aware_curves_beat_priority_blind_edf_under_load() {
        let rows = run(&small());
        let at = |label: &str| {
            rows.iter()
                .find(|r| r.scheduler == label && r.users == 88)
                .unwrap()
                .aggregate_loss
        };
        // When misses are unavoidable, choosing low-priority victims
        // (sweep-y, hilbert, gray) must beat the priority-blind sweep-x.
        assert!(at("sweep-y") < at("sweep-x"));
        assert!(at("hilbert") < at("sweep-x"));
        assert!(at("gray") < at("sweep-x"));
    }

    #[test]
    fn hilbert_and_gray_track_each_other() {
        let rows = run(&small());
        for users in [70u32, 88] {
            let h = rows
                .iter()
                .find(|r| r.scheduler == "hilbert" && r.users == users)
                .unwrap()
                .aggregate_loss;
            let g = rows
                .iter()
                .find(|r| r.scheduler == "gray" && r.users == users)
                .unwrap()
                .aggregate_loss;
            let scale = h.max(g).max(0.05);
            assert!(
                (h - g).abs() / scale < 0.5,
                "users={users}: hilbert {h:.3} vs gray {g:.3}"
            );
        }
    }
}
