//! The paper's §6 case study: the NewsByte5 non-linear editing server.
//! 80 broadcast users stream, ingest and edit MPEG-1 material with hard
//! per-block deadlines; blocks that miss are lost. Shows *who* loses
//! under each scheduler: the per-priority-level loss breakdown and the
//! weighted aggregate cost.
//!
//! ```text
//! cargo run --release --example nonlinear_editing [users]
//! ```

use cascaded_sfc::cascade::{
    CascadeConfig, CascadedSfc, DispatchConfig, Stage1, Stage2, Stage2Combiner,
};
use cascaded_sfc::obs::NullSink;
use cascaded_sfc::sched::{DiskScheduler, Fcfs};
use cascaded_sfc::sfc::CurveKind;
use cascaded_sfc::sim::{simulate, DiskService, SimOptions};
use cascaded_sfc::workload::NewsByteConfig;

fn curve_scheduler(kind: CurveKind) -> CascadedSfc {
    let cfg = CascadeConfig {
        stage1: Some(Stage1 {
            curve: CurveKind::Sweep, // 1-D identity
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
    CascadedSfc::new(cfg).expect("valid configuration")
}

fn main() {
    let users: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(80);

    let mut wl = NewsByteConfig::paper(users);
    wl.duration_us = 45_000_000;
    let trace: Vec<_> = wl.generate(11).collect();
    println!(
        "NewsByte5 editing server: {users} users, {} requests over {} s, deadlines 75-150 ms\n",
        trace.len(),
        wl.duration_us / 1_000_000
    );

    let schedulers: Vec<(&str, Box<dyn DiskScheduler>)> = vec![
        ("fcfs", Box::new(Fcfs::new())),
        (
            "sweep-x (EDF-like)",
            Box::new(curve_scheduler(CurveKind::CScan)),
        ),
        (
            "sweep-y (multi-queue)",
            Box::new(curve_scheduler(CurveKind::Sweep)),
        ),
        ("hilbert", Box::new(curve_scheduler(CurveKind::Hilbert))),
        ("gray", Box::new(curve_scheduler(CurveKind::Gray))),
    ];

    println!(
        "{:<22} {:>7} {:>9}   losses per priority level 0(hi)..7(lo)",
        "scheduler", "lost-%", "weighted"
    );
    for (name, mut s) in schedulers {
        let mut service = DiskService::table1();
        let m = simulate(
            s.as_mut(),
            &trace,
            &mut service,
            SimOptions::with_shape(1, 8).dropping(),
            &mut NullSink,
        );
        let levels: Vec<String> = m.losses_by_dim_level[0]
            .iter()
            .map(|n| format!("{n:>5}"))
            .collect();
        println!(
            "{:<22} {:>6.1}% {:>9.2}   [{}]",
            name,
            m.loss_ratio() * 100.0,
            m.weighted_loss(0, 11.0),
            levels.join(" ")
        );
    }
    println!(
        "\nA good multimedia scheduler loses from the right side of the \
         bracket (low priorities). FCFS and the EDF-like sweep lose \
         indiscriminately; the priority-aware curves shift losses rightward."
    );
}
