//! Video-on-demand server scenario: a loaded disk receiving prioritized
//! real-time block requests, served by six different schedulers. Prints a
//! per-policy comparison of deadline losses, seek time, priority
//! inversion and response time — the trade-off space the paper's
//! Cascaded-SFC navigates.
//!
//! ```text
//! cargo run --release --example video_server [requests]
//! ```

use cascaded_sfc::cascade::{CascadeConfig, CascadedSfc};
use cascaded_sfc::obs::{NullSink, SharedSink, Snapshot};
use cascaded_sfc::sched::{Batched, CScan, DiskScheduler, Edf, Fcfs, ScanEdf, Sstf};
use cascaded_sfc::sim::{simulate, DiskService, SimOptions};
use cascaded_sfc::workload::{DeadlineDist, PoissonConfig, Sizing};

fn main() {
    let requests: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);

    // Prioritized real-time workload: 2 QoS dimensions, 8 levels,
    // 300-500 ms deadlines, 16-KB blocks, heavy load.
    let mut wl = PoissonConfig::figure8(requests);
    wl.dims = 2;
    wl.mean_interarrival_us = 9_000;
    wl.sizing = Sizing::Fixed(16 * 1024);
    wl.deadline = DeadlineDist::Uniform {
        lo_us: 300_000,
        hi_us: 500_000,
    };
    let trace: Vec<_> = wl.generate(7).collect();

    let schedulers: Vec<(&str, Box<dyn DiskScheduler>)> = vec![
        ("fcfs", Box::new(Fcfs::new())),
        ("sstf", Box::new(Sstf::new())),
        ("edf", Box::new(Edf::new())),
        ("scan-edf", Box::new(ScanEdf::new(50_000))),
        (
            "batch c-scan",
            Box::new(Batched::new(CScan::new(), "batched-c-scan")),
        ),
        (
            "cascaded-sfc",
            Box::new(CascadedSfc::new(CascadeConfig::paper_default(2, 3832)).unwrap()),
        ),
    ];

    println!(
        "{:<14} {:>8} {:>10} {:>12} {:>12} {:>12}",
        "scheduler", "losses", "loss-%", "seek ms/req", "resp ms", "inversions"
    );
    for (name, mut s) in schedulers {
        let mut service = DiskService::table1();
        let m = simulate(
            s.as_mut(),
            &trace,
            &mut service,
            SimOptions::with_shape(2, 8).dropping(),
            &mut NullSink,
        );
        println!(
            "{:<14} {:>8} {:>9.1}% {:>12.2} {:>12.1} {:>12}",
            name,
            m.losses_total(),
            m.loss_ratio() * 100.0,
            m.seek_us as f64 / 1000.0 / m.served.max(1) as f64,
            m.mean_response_us() / 1000.0,
            m.inversions_total(),
        );
    }
    println!(
        "\nNote how EDF minimizes losses only while the disk keeps up, SSTF \
         minimizes seeks but ignores deadlines, and the Cascaded-SFC holds \
         losses low while also keeping inversions and seeks down."
    );

    // Beyond the means: rerun the cascade with a trace sink attached and
    // print the full response/seek/queue-depth distributions.
    let sink = SharedSink::new(Snapshot::new());
    let mut s =
        CascadedSfc::with_sink(CascadeConfig::paper_default(2, 3832), sink.clone()).unwrap();
    let mut service = DiskService::table1();
    simulate(
        &mut s,
        &trace,
        &mut service,
        SimOptions::with_shape(2, 8).dropping(),
        &mut sink.clone(),
    );
    println!("\ncascaded-sfc distributions (traced rerun):");
    sink.with(|snapshot| print!("{}", snapshot.report()));
}
