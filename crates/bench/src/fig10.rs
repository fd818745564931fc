//! Figure 10 — the scan-partition count `R` in SFC3.
//!
//! Setup (§5.3): the Figure-8 workload with *small* blocks so seek time
//! matters, served by the full Table-1 disk model. The full cascade runs
//! with SFC1 = Diagonal, SFC2 = weighted (`f = 4`, so the partitioning
//! of SFC3 carries a strong deadline signal), and SFC3's partition count
//! `R` swept from 1 upward; batch-mode C-SCAN and EDF are the baselines
//! (the PanaViss server serves in batches, §6).
//!
//! Paper's observations to reproduce:
//! * `R = 1` sorts on seek distance only: good seek times but high
//!   deadline losses (yet still below EDF, whose utilization is poor);
//! * moderate `R` (≈3–4) takes priority and deadline into account and
//!   minimizes losses, beating C-SCAN on losses, seek time *and*
//!   priority inversion;
//! * large `R` degenerates toward pure priority order: seeks and losses
//!   grow again.

use cascade::{
    CascadeConfig, CascadedSfc, DispatchConfig, DistanceMode, Stage1, Stage2, Stage2Combiner,
    Stage3,
};
use obs::NullSink;
use sched::{Batched, CScan, DiskScheduler, Edf, Micros, Request};
use sfc::CurveKind;
use sim::{simulate, DiskService, Metrics, SimOptions};

/// Experiment parameters.
///
/// Requests arrive in periodic *bursts* (the regime of the paper's video
/// server, §6: "we assume that these requests arrive in bursts") sized so
/// that draining one burst takes longer than the shortest deadlines — the
/// situation where the *order* within a batch decides who meets its
/// deadline.
#[derive(Debug, Clone)]
pub struct Config {
    /// RNG seed.
    pub seed: u64,
    /// Number of bursts to generate.
    pub bursts: usize,
    /// Time between bursts (µs).
    pub burst_gap_us: Micros,
    /// Block size (small, so seeks matter).
    pub block_bytes: u64,
    /// Deadline window after arrival.
    pub deadline_lo_us: Micros,
    /// Upper end of the deadline window.
    pub deadline_hi_us: Micros,
    /// Partition counts `R` to sweep.
    pub rs: Vec<u32>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: crate::DEFAULT_SEED,
            bursts: 400,
            burst_gap_us: 420_000,
            block_bytes: 4 * 1024,
            deadline_lo_us: 150_000,
            deadline_hi_us: 500_000,
            rs: (1..=10).collect(),
        }
    }
}

/// Requests per burst; at ~9 ms per 4-KB request a 45-request burst
/// takes ≈400 ms to drain, past the 250–350 ms deadlines.
const BURST_SIZE: u32 = 45;

/// One measured point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Series label: `r=<n>`, `c-scan`, or `edf`.
    pub series: String,
    /// Partition count for cascade rows.
    pub r: Option<u32>,
    /// Priority inversion as % of C-SCAN's.
    pub inversion_pct_of_cscan: f64,
    /// Deadline losses as % of C-SCAN's.
    pub losses_pct_of_cscan: f64,
    /// Mean seek time per request, ms.
    pub mean_seek_ms: f64,
}

fn trace_of(cfg: &Config) -> Vec<Request> {
    let deadlines = cfg.deadline_lo_us..=cfg.deadline_hi_us;
    let bursts = cfg.bursts as u64;
    crate::fig8::bursty_trace(
        cfg.seed,
        bursts,
        BURST_SIZE,
        cfg.burst_gap_us,
        deadlines,
        |_| cfg.block_bytes,
    )
}

/// Run one scheduler over the Figure-10 trace on the Table-1 disk.
/// Past-due requests are dropped at dispatch (the video-server regime):
/// this bounds queues under overload so every policy's losses are
/// measured rather than its queue explosion.
pub fn run_sim(trace: &[Request], sched: &mut dyn DiskScheduler) -> Metrics {
    let mut service = DiskService::table1();
    simulate(
        sched,
        trace,
        &mut service,
        SimOptions::with_shape(3, 8).dropping(),
        &mut NullSink,
    )
}

fn cascade_with_r(r: u32, horizon_us: Micros) -> CascadedSfc {
    let cfg = CascadeConfig {
        stage1: Some(Stage1 {
            curve: CurveKind::Diagonal,
            dims: 3,
            level_bits: 3,
        }),
        stage2: Some(Stage2 {
            combiner: Stage2Combiner::Weighted { f: 4.0 },
            horizon_us,
            resolution_bits: 10,
        }),
        stage3: Some(Stage3 {
            partitions: r,
            resolution_bits: 10,
            cylinders: 3832,
            distance: DistanceMode::Circular,
        }),
        // Non-preemptive batches: each swapped-in queue is served in one
        // SFC3 pass, the regime §5.3 describes.
        dispatch: DispatchConfig::non_preemptive(),
    };
    CascadedSfc::new(cfg).expect("valid cascade config")
}

/// Produce the Figure-10 series.
pub fn run(cfg: &Config) -> Vec<Row> {
    let trace = trace_of(cfg);
    // The baselines run batch-mode too (the PanaViss server serves in
    // batches, §6), so the comparison isolates the *ordering* policies.
    let cscan = run_sim(&trace, &mut Batched::new(CScan::new(), "batched-c-scan"));
    let edf = run_sim(&trace, &mut Batched::new(Edf::new(), "batched-edf"));
    let inv_base = cscan.inversions_total().max(1) as f64;
    let loss_base = cscan.losses_total().max(1) as f64;

    let row = |label: String, r: Option<u32>, m: &Metrics| Row {
        series: label,
        r,
        inversion_pct_of_cscan: m.inversions_total() as f64 / inv_base * 100.0,
        losses_pct_of_cscan: m.losses_total() as f64 / loss_base * 100.0,
        mean_seek_ms: m.seek_us as f64 / 1000.0 / m.served.max(1) as f64,
    };

    let mut rows = Vec::new();
    for &r_val in &cfg.rs {
        let mut s = cascade_with_r(r_val, cfg.deadline_hi_us);
        let m = run_sim(&trace, &mut s);
        rows.push(row(format!("r={r_val}"), Some(r_val), &m));
    }
    rows.push(row("c-scan".into(), None, &cscan));
    rows.push(row("edf".into(), None, &edf));
    rows
}

/// Render the three panels as `results/fig10.csv` holds them.
pub fn csv(rows: &[Row]) -> String {
    let mut out =
        String::from("series,r,inversion_pct_of_cscan,losses_pct_of_cscan,mean_seek_ms\n");
    for r in rows {
        let rv = r.r.map(|v| v.to_string()).unwrap_or_default();
        out.push_str(&format!(
            "{},{rv},{:.2},{:.2},{:.3}\n",
            r.series, r.inversion_pct_of_cscan, r.losses_pct_of_cscan, r.mean_seek_ms
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Config {
        Config {
            bursts: 150,
            rs: vec![1, 3, 10],
            ..Default::default()
        }
    }

    #[test]
    fn r1_has_best_seek_times() {
        let rows = run(&small());
        let seek = |label: &str| {
            rows.iter()
                .find(|r| r.series == label)
                .unwrap()
                .mean_seek_ms
        };
        assert!(seek("r=1") < seek("r=10"), "seek should grow with R");
        assert!(seek("r=1") < seek("edf"), "R=1 should beat EDF on seeks");
    }

    #[test]
    fn moderate_r_beats_cscan_on_losses() {
        let rows = run(&small());
        let at = |label: &str| rows.iter().find(|r| r.series == label).unwrap();
        assert!(
            at("r=3").losses_pct_of_cscan < 100.0,
            "r=3 losses {:.0}% of c-scan",
            at("r=3").losses_pct_of_cscan
        );
    }

    #[test]
    fn edf_has_poor_utilization() {
        let rows = run(&small());
        let at = |label: &str| rows.iter().find(|r| r.series == label).unwrap();
        assert!(at("edf").mean_seek_ms > at("c-scan").mean_seek_ms * 2.0);
    }

    #[test]
    fn cascade_beats_cscan_on_inversion_at_moderate_r() {
        let rows = run(&small());
        let at = |label: &str| rows.iter().find(|r| r.series == label).unwrap();
        assert!(at("r=3").inversion_pct_of_cscan < 100.0);
    }
}
