//! Figure 6 — scalability with the number of QoS parameters.
//!
//! Setup (§5.1): the Figure-5 experiment swept over dimensionality 1–12
//! (16 priority levels per dimension, 25 ms mean interarrival). The paper
//! reports mean priority inversion per dimensionality; the Diagonal keeps
//! the lead as dimensions grow, while Sweep, C-Scan and Spiral cluster
//! together.

use crate::fig5::{run_fifo, run_priority_sim};
use sfc::CurveKind;
use workload::PoissonConfig;

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// RNG seed.
    pub seed: u64,
    /// Requests per simulation run.
    pub requests: usize,
    /// Dimensionalities to sweep.
    pub dims: Vec<u32>,
    /// Per-request service time (µs).
    pub service_us: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: crate::DEFAULT_SEED,
            requests: 20_000,
            dims: (1..=12).collect(),
            service_us: 20_000,
        }
    }
}

/// Blocking window (percent of the space) of the conditional dispatcher.
const WINDOW_PCT: u32 = 10;

/// One measured point.
#[derive(Debug, Clone)]
pub struct Row {
    /// SFC1 curve.
    pub curve: CurveKind,
    /// QoS dimensionality.
    pub dims: u32,
    /// Total priority inversion as % of FIFO's on the same trace.
    pub inversion_pct_of_fifo: f64,
}

/// Produce the Figure-6 series.
pub fn run(cfg: &Config) -> Vec<Row> {
    let mut rows = Vec::new();
    for &dims in &cfg.dims {
        let trace = PoissonConfig::figure5(dims, cfg.requests).generate(cfg.seed);
        let fifo = run_fifo(&trace, dims, cfg.service_us);
        let baseline = fifo.inversions_total().max(1) as f64;
        for curve in CurveKind::FIGURE1 {
            let m = run_priority_sim(&trace, curve, dims, 4, WINDOW_PCT, cfg.service_us);
            rows.push(Row {
                curve,
                dims,
                inversion_pct_of_fifo: m.inversions_total() as f64 / baseline * 100.0,
            });
        }
    }
    rows
}

/// Render the series as `results/fig6.csv` holds it, one row per point.
pub fn csv(rows: &[Row]) -> String {
    let mut out = String::from("dims,curve,inversion_pct_of_fifo\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{:.2}\n",
            r.dims, r.curve, r.inversion_pct_of_fifo
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_to_twelve_dimensions() {
        let cfg = Config {
            requests: 1_500,
            dims: vec![1, 6, 12],
            ..Default::default()
        };
        let rows = run(&cfg);
        assert_eq!(rows.len(), 7 * 3);
        assert!(rows.iter().all(|r| r.inversion_pct_of_fifo.is_finite()));
    }

    #[test]
    fn diagonal_leads_at_high_dimensionality() {
        let cfg = Config {
            requests: 3_000,
            dims: vec![8],
            ..Default::default()
        };
        let rows = run(&cfg);
        let diag = rows
            .iter()
            .find(|r| r.curve == CurveKind::Diagonal)
            .unwrap()
            .inversion_pct_of_fifo;
        for r in &rows {
            if r.curve != CurveKind::Diagonal {
                assert!(
                    diag <= r.inversion_pct_of_fifo + 1.0,
                    "diagonal {diag:.1} vs {} {:.1}",
                    r.curve,
                    r.inversion_pct_of_fifo
                );
            }
        }
    }

    #[test]
    fn one_dimension_equalizes_monotone_curves() {
        // In 1-D, Sweep, C-Scan, Scan and Diagonal are all the identity
        // order, so their inversion counts coincide.
        let cfg = Config {
            requests: 1_500,
            dims: vec![1],
            ..Default::default()
        };
        let rows = run(&cfg);
        let val = |c: CurveKind| {
            rows.iter()
                .find(|r| r.curve == c)
                .unwrap()
                .inversion_pct_of_fifo
        };
        let sweep = val(CurveKind::Sweep);
        for c in [CurveKind::CScan, CurveKind::Scan, CurveKind::Diagonal] {
            assert!(
                (val(c) - sweep).abs() < 1e-9,
                "{c} differs from sweep in 1-D"
            );
        }
    }
}
