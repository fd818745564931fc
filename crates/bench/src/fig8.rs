//! Figure 8 — the deadline balance factor `f` in SFC2.
//!
//! Setup (§5.2): three priority dimensions (8 levels), real-time
//! deadlines, transfer-dominated service where high-priority requests are
//! smaller and therefore faster, SFC3 skipped. SFC1 is the Diagonal; SFC2
//! is the weighted family `v = priority + f·deadline` swept over `f`,
//! compared against SFC2 = Hilbert and SFC2 = Gray (which do not depend
//! on `f`). Both metrics are normalized to EDF on the same trace.
//!
//! Requests arrive in periodic bursts slightly larger than the deadline
//! window allows (the paper's video-server regime, §6), so a few misses
//! per burst are *unavoidable* and the within-batch order decides both
//! how many and who — a stationary contrast that does not wash out with
//! run length, unlike a near-critical Poisson queue.
//!
//! Paper's observations to reproduce:
//! * `f = 0` ignores deadlines: deadline misses several times EDF's,
//!   priority inversion far below EDF's;
//! * growing `f` trades inversion for misses;
//! * around `f = 1` the weighted Diagonal reaches EDF's miss count while
//!   keeping inversion around 90 % of EDF's.

use cascade::{CascadeConfig, CascadedSfc, DispatchConfig, Stage2Combiner};
use obs::NullSink;
use sched::{DiskScheduler, Edf, Micros, Request};
use sfc::CurveKind;
use sim::{simulate, Metrics, SimOptions, TransferDominated};

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// RNG seed.
    pub seed: u64,
    /// Requests per simulation run (rounded down to whole bursts).
    pub requests: usize,
    /// Time between bursts (µs); must exceed the burst drain time.
    pub burst_gap_us: Micros,
    /// Balance factors to sweep.
    pub fs: Vec<f64>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: crate::DEFAULT_SEED,
            requests: 20_000,
            burst_gap_us: 900_000,
            fs: vec![0.0, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0],
        }
    }
}

/// Requests per burst: ~16 ms of service each, so 42 requests are
/// ~690 ms of work against deadlines that end at 700 ms — the burst is
/// barely infeasible, so EDF misses few while deadline-blind orders miss
/// many.
const BURST_SIZE: u32 = 42;
/// Deadline window after arrival (µs) — DESIGN.md reconstruction 4
/// (lower end widened to 300 ms so EDF has reordering room).
const DEADLINE_LO_US: Micros = 300_000;
/// Upper end of the deadline window, and SFC2's deadline horizon.
const DEADLINE_HI_US: Micros = 700_000;

/// One measured point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Series label (`f=<x>` for the weighted family, or a curve name).
    pub series: String,
    /// Balance factor (`None` for the Hilbert/Gray reference series).
    pub f: Option<f64>,
    /// Priority inversion as % of EDF's.
    pub inversion_pct_of_edf: f64,
    /// Deadline losses as % of EDF's.
    pub losses_pct_of_edf: f64,
}

/// Build the bursty §5.2 trace: priority-scaled sizes, uniform
/// priorities over 3 dimensions of 8 levels. Exposed for Figure 9.
pub fn trace_of(cfg: &Config) -> Vec<Request> {
    let bursts = (cfg.requests / BURST_SIZE as usize).max(1) as u64;
    // §5.2: high-priority requests are small (audio/video chunks),
    // low-priority ones large (FTP) — 16 KB + 24 KB per level.
    let bytes = |level: u8| 16 * 1024 + level as u64 * 24 * 1024;
    let deadlines = DEADLINE_LO_US..=DEADLINE_HI_US;
    bursty_trace(
        cfg.seed,
        bursts,
        BURST_SIZE,
        cfg.burst_gap_us,
        deadlines,
        bytes,
    )
}

/// The periodic-burst trace of Figures 8–10: `bursts` bursts of
/// `burst_size` requests `gap_us` apart, uniform priorities over 3
/// dimensions of 8 levels, a deadline drawn from `deadlines` after each
/// arrival, a uniform cylinder, and `bytes(level in dimension 0)` to read.
pub(crate) fn bursty_trace(
    seed: u64,
    bursts: u64,
    burst_size: u32,
    gap_us: Micros,
    deadlines: std::ops::RangeInclusive<Micros>,
    bytes: impl Fn(u8) -> u64,
) -> Vec<Request> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sched::QosVector;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = Vec::with_capacity((bursts * burst_size as u64) as usize);
    for b in 0..bursts {
        for _ in 0..burst_size {
            let arrival = b * gap_us + rng.gen_range(0..1_000);
            let qos = QosVector::new(&[
                rng.gen_range(0..8u8),
                rng.gen_range(0..8u8),
                rng.gen_range(0..8u8),
            ]);
            let deadline = arrival + rng.gen_range(deadlines.clone());
            let cylinder = rng.gen_range(0..3832);
            let id = trace.len() as u64;
            let size = bytes(qos.level(0));
            trace.push(Request::read(id, arrival, deadline, cylinder, size, qos));
        }
    }
    trace.sort_by_key(|r| (r.arrival_us, r.id));
    trace
}

/// Run a scheduler over the Figure-8 trace with the §5.2 service model.
pub fn run_sim(trace: &[Request], sched: &mut dyn DiskScheduler) -> Metrics {
    // ~6.7 MB/s transfer-dominated service: sizes span 16–184 KB, so
    // service spans ~3.4–28.6 ms (mean ≈ 16 ms).
    let mut service = TransferDominated::scaled(1_000, 150, 3832);
    simulate(
        sched,
        trace,
        &mut service,
        SimOptions::with_shape(3, 8),
        &mut NullSink,
    )
}

/// The §5.2 cascade: SFC1 = `curve` over 3 dimensions of 8 levels, SFC2 =
/// `combiner` out to the last deadline, SFC3 skipped, served in batches.
pub(crate) fn cascade_with(curve: CurveKind, combiner: Stage2Combiner) -> CascadedSfc {
    let cfg = CascadeConfig::priority_deadline(curve, 3, 3, combiner, DEADLINE_HI_US)
        .with_dispatch(DispatchConfig::non_preemptive());
    CascadedSfc::new(cfg).expect("valid cascade config")
}

/// Produce the Figure-8 series.
pub fn run(cfg: &Config) -> Vec<Row> {
    let trace = trace_of(cfg);
    let edf = run_sim(&trace, &mut Edf::new());
    let inv_base = edf.inversions_total().max(1) as f64;
    let loss_base = edf.losses_total().max(1) as f64;

    let mut rows = Vec::new();
    for &f in &cfg.fs {
        let mut s = cascade_with(CurveKind::Diagonal, Stage2Combiner::Weighted { f });
        let m = run_sim(&trace, &mut s);
        rows.push(Row {
            series: format!("weighted f={f}"),
            f: Some(f),
            inversion_pct_of_edf: m.inversions_total() as f64 / inv_base * 100.0,
            losses_pct_of_edf: m.losses_total() as f64 / loss_base * 100.0,
        });
    }
    for kind in [CurveKind::Hilbert, CurveKind::Gray] {
        let mut s = cascade_with(CurveKind::Diagonal, Stage2Combiner::Curve(kind));
        let m = run_sim(&trace, &mut s);
        rows.push(Row {
            series: kind.name().to_string(),
            f: None,
            inversion_pct_of_edf: m.inversions_total() as f64 / inv_base * 100.0,
            losses_pct_of_edf: m.losses_total() as f64 / loss_base * 100.0,
        });
    }
    rows
}

/// Render both panels as `results/fig8.csv` holds them.
pub fn csv(rows: &[Row]) -> String {
    let mut out = String::from("series,f,inversion_pct_of_edf,losses_pct_of_edf\n");
    for r in rows {
        let f = r.f.map(|f| f.to_string()).unwrap_or_default();
        out.push_str(&format!(
            "{},{f},{:.2},{:.2}\n",
            r.series, r.inversion_pct_of_edf, r.losses_pct_of_edf
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Config {
        Config {
            requests: 6_000,
            fs: vec![0.0, 1.0, 8.0],
            ..Default::default()
        }
    }

    #[test]
    fn edf_actually_misses_deadlines_at_this_load() {
        let cfg = small();
        let trace = trace_of(&cfg);
        let m = run_sim(&trace, &mut Edf::new());
        assert!(
            m.losses_total() > 20,
            "tune the load: EDF lost only {}",
            m.losses_total()
        );
    }

    #[test]
    fn f_zero_trades_misses_for_inversion() {
        let rows = run(&small());
        let f0 = rows.iter().find(|r| r.f == Some(0.0)).unwrap();
        let f8 = rows.iter().find(|r| r.f == Some(8.0)).unwrap();
        // f = 0: many more losses than EDF, much less inversion.
        assert!(
            f0.losses_pct_of_edf > 150.0,
            "f=0 losses {:.0}%",
            f0.losses_pct_of_edf
        );
        assert!(f0.inversion_pct_of_edf < f8.inversion_pct_of_edf);
        // large f: losses near EDF.
        assert!(
            f8.losses_pct_of_edf < f0.losses_pct_of_edf,
            "losses should fall as f grows"
        );
    }

    #[test]
    fn f_one_is_a_reasonable_tradeoff() {
        let rows = run(&small());
        let f1 = rows.iter().find(|r| r.f == Some(1.0)).unwrap();
        assert!(
            f1.losses_pct_of_edf < 250.0,
            "f=1 losses {:.0}%",
            f1.losses_pct_of_edf
        );
        assert!(
            f1.inversion_pct_of_edf < 100.0,
            "f=1 inversion {:.0}%",
            f1.inversion_pct_of_edf
        );
    }
}
