//! Beyond disks (§1, §4.1): the Cascaded-SFC framework as a *CPU / thread
//! scheduler*. When there is no seek time to optimize, SFC3 is simply
//! skipped — the cascade becomes a priority+deadline scheduler for
//! real-time tasks with multiple QoS dimensions (user priority, tenant
//! class, energy budget …).
//!
//! This example schedules a mixed real-time task set on one core and
//! compares the cascade against EDF on deadline misses *and* on which
//! tenants miss.
//!
//! ```text
//! cargo run --release --example cpu_scheduler
//! ```

use cascaded_sfc::cascade::{CascadeConfig, CascadedSfc, DispatchConfig, Stage2Combiner};
use cascaded_sfc::obs::NullSink;
use cascaded_sfc::sched::{DiskScheduler, Edf, QosVector, Request};
use cascaded_sfc::sfc::CurveKind;
use cascaded_sfc::sim::{simulate, Metrics, SimOptions, TransferDominated};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A task set: bursts of jobs from 3 tenant classes × 4 urgency classes.
/// "Cylinder" is unused (single core, no spatial dimension); job cost is
/// carried in `bytes` (1 byte = 1 ns of CPU here).
fn task_set(seed: u64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut jobs = Vec::new();
    let mut id = 0;
    for burst in 0..200u64 {
        for _ in 0..12 {
            let arrival = burst * 40_000 + rng.gen_range(0..2_000);
            // Two QoS dimensions: tenant class (0 = platinum) and an
            // internal job class.
            let tenant = rng.gen_range(0..3u8) * 3; // 0, 3, 6 of 8 levels
            let class = rng.gen_range(0..8u8);
            let cost_us = rng.gen_range(1_000..8_000u64);
            let deadline = arrival + rng.gen_range(30_000..120_000);
            jobs.push(Request::read(
                id,
                arrival,
                deadline,
                0,
                cost_us * 1000, // ns
                QosVector::new(&[tenant, class]),
            ));
            id += 1;
        }
    }
    jobs.sort_by_key(|r| (r.arrival_us, r.id));
    jobs
}

fn run(s: &mut dyn DiskScheduler, jobs: &[Request]) -> Metrics {
    // 1 ns of CPU per "byte": a pure computation-time service model.
    let mut cpu = TransferDominated::scaled(0, 1, 1);
    simulate(
        s,
        jobs,
        &mut cpu,
        SimOptions::with_shape(2, 8).dropping(),
        &mut NullSink,
    )
}

fn main() {
    let jobs = task_set(17);
    println!(
        "CPU scheduling: {} jobs, 3 tenant classes, deadlines 30-120 ms\n",
        jobs.len()
    );

    // The cascade without SFC3 (no spatial dimension to optimize).
    let cascade_cfg = CascadeConfig::priority_deadline(
        CurveKind::Diagonal,
        2,
        3,
        Stage2Combiner::Weighted { f: 1.0 },
        120_000,
    )
    .with_dispatch(DispatchConfig::non_preemptive());

    let mut results = Vec::new();
    results.push(("edf", run(&mut Edf::new(), &jobs)));
    let mut cascade = CascadedSfc::new(cascade_cfg).unwrap();
    results.push(("cascaded-sfc", run(&mut cascade, &jobs)));

    println!(
        "{:<14} {:>8} {:>10}   misses by tenant class (platinum, gold, bronze)",
        "scheduler", "misses", "weighted"
    );
    for (name, m) in &results {
        let by_tenant: Vec<u64> = [0usize, 3, 6]
            .iter()
            .map(|&lvl| m.losses_by_dim_level[0][lvl])
            .collect();
        println!(
            "{:<14} {:>8} {:>10.2}   {:?}",
            name,
            m.losses_total(),
            m.weighted_loss(0, 11.0),
            by_tenant
        );
    }
    println!(
        "\nEDF is tenant-blind: platinum misses as often as bronze. The \
         cascade concentrates the unavoidable misses on the bronze class — \
         the same selectivity the paper shows for disks, with SFC3 simply \
         turned off."
    );
}
