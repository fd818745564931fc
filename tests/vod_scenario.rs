//! End-to-end VoD scenario: free-running periodic streams with
//! sequential layout — the workload SCAN-family schedulers were made
//! for, and a sanity check that the simulator's admission boundary
//! (streams × rate vs. disk bandwidth) behaves like queueing theory says
//! it should.

use cascaded_sfc::cascade::{CascadeConfig, CascadedSfc};
use cascaded_sfc::obs::NullSink;
use cascaded_sfc::sched::{CScan, DiskScheduler, Fcfs, Scan, Sstf};
use cascaded_sfc::sim::{simulate, DiskService, Metrics, SimOptions};
use cascaded_sfc::workload::VodConfig;

fn run(s: &mut dyn DiskScheduler, streams: u32, seed: u64) -> Metrics {
    let mut cfg = VodConfig::mpeg1(streams);
    cfg.duration_us = 20_000_000;
    let trace: Vec<_> = cfg.generate(seed).collect();
    let mut service = DiskService::table1();
    simulate(
        s,
        &trace,
        &mut service,
        SimOptions::with_shape(1, 4).dropping(),
        &mut NullSink,
    )
}

#[test]
fn light_load_meets_every_deadline() {
    // 6 MPEG-1 streams ≈ 1.1 MB/s against a 5-8 MB/s disk: everyone wins.
    for mut s in [
        Box::new(Fcfs::new()) as Box<dyn DiskScheduler>,
        Box::new(Scan::new()),
        Box::new(CScan::new()),
    ] {
        let m = run(s.as_mut(), 6, 1);
        assert_eq!(m.losses_total(), 0, "{} lost requests", s.name());
    }
}

#[test]
fn scan_sustains_more_streams_than_fcfs() {
    // Near the admission boundary the elevator's seek efficiency decides:
    // find the highest sustainable stream count (zero losses) per policy.
    let sustainable = |make: &dyn Fn() -> Box<dyn DiskScheduler>| -> u32 {
        let mut best = 0;
        for streams in (8..=36).step_by(4) {
            let mut s = make();
            if run(s.as_mut(), streams, 2).losses_total() == 0 {
                best = streams;
            }
        }
        best
    };
    let fcfs = sustainable(&|| Box::new(Fcfs::new()));
    let scan = sustainable(&|| Box::new(Scan::new()));
    assert!(scan >= fcfs, "scan sustains {scan} streams, fcfs {fcfs}");
}

#[test]
fn sequential_streams_keep_seeks_tiny_under_scan() {
    let mut scan = Scan::new();
    let m = run(&mut scan, 20, 3);
    let mean_seek_ms = m.seek_us as f64 / 1000.0 / m.served.max(1) as f64;
    // Random full-stroke seeks on this disk average ~13 ms; sequential
    // streams under an elevator should stay well under half that. The
    // exact figure is RNG-stream-sensitive (stream start cylinders are
    // drawn uniformly), so keep headroom above the observed ~4 ms.
    assert!(
        mean_seek_ms < 6.0,
        "sequential VoD under SCAN should seek little: {mean_seek_ms:.2} ms"
    );
    // SSTF also does well here.
    let mut sstf = Sstf::new();
    let m2 = run(&mut sstf, 20, 3);
    assert!(m2.seek_us as f64 / m2.served.max(1) as f64 / 1000.0 < 6.0);
}

#[test]
fn cascade_handles_vod_streams() {
    let mut s = CascadedSfc::new(CascadeConfig::paper_default(1, 3832)).unwrap();
    let m = run(&mut s, 14, 4);
    assert_eq!(m.served + m.dropped, m.requests_total());
    assert!(
        m.loss_ratio() < 0.05,
        "cascade lost {:.1}% on a feasible VoD load",
        m.loss_ratio() * 100.0
    );
}

#[test]
fn overload_degrades_gracefully() {
    // 40 streams (~7.5 MB/s demand) exceed inner-zone bandwidth: losses
    // appear but the simulator conserves every request.
    let mut s = CScan::new();
    let m = run(&mut s, 40, 5);
    assert!(m.losses_total() > 0);
    assert_eq!(m.served + m.dropped, m.requests_total());
}
