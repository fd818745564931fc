//! Figure 7 — fairness across QoS dimensions.
//!
//! Setup (§5.1): four dimensions, 25 ms interarrival, window sweep. Two
//! views:
//!
//! * **(a)** the standard deviation of per-dimension inversion (each
//!   dimension normalized to FIFO's inversion in that dimension) — the
//!   Diagonal is the most fair (std-dev below ~1 %), Sweep and C-Scan the
//!   least (they fully protect one dimension and sacrifice the rest);
//! * **(b)** the most-favored dimension's inversion — where Sweep and
//!   C-Scan shine (zero inversion in their favored dimension), useful
//!   when one QoS parameter must dominate.

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
    /// QoS dimensions (the paper uses 4 here).
    pub dims: u32,
    /// Per-request service time (µs).
    pub service_us: u64,
    /// Window sizes to sweep (percent of the space).
    pub windows_pct: Vec<u32>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: crate::DEFAULT_SEED,
            requests: 20_000,
            dims: 4,
            service_us: 20_000,
            windows_pct: (0..=100).step_by(10).collect(),
        }
    }
}

/// One measured point.
#[derive(Debug, Clone)]
pub struct Row {
    /// SFC1 curve.
    pub curve: CurveKind,
    /// Window size (percent).
    pub window_pct: u32,
    /// Per-dimension inversion as % of FIFO's per-dimension inversion.
    pub per_dim_pct: Vec<f64>,
    /// Standard deviation of `per_dim_pct` (Figure 7a).
    pub stddev: f64,
    /// Smallest entry of `per_dim_pct` (Figure 7b: the favored dimension).
    pub favored_pct: f64,
}

/// Produce the Figure-7 series.
pub fn run(cfg: &Config) -> Vec<Row> {
    let trace: Vec<_> = PoissonConfig::figure5(cfg.dims, cfg.requests)
        .generate(cfg.seed)
        .collect();
    let fifo = run_fifo(&trace, cfg.dims, cfg.service_us);
    let mut rows = Vec::new();
    for curve in CurveKind::ALL {
        for &w in &cfg.windows_pct {
            let m = run_priority_sim(&trace, curve, cfg.dims, 4, w, cfg.service_us);
            let per_dim_pct: Vec<f64> = m
                .inversions_per_dim
                .iter()
                .take(cfg.dims as usize)
                .zip(fifo.inversions_per_dim.iter())
                .map(|(&inv, &base)| inv as f64 / base.max(1) as f64 * 100.0)
                .collect();
            let mean = per_dim_pct.iter().sum::<f64>() / per_dim_pct.len() as f64;
            let stddev = (per_dim_pct.iter().map(|p| (p - mean).powi(2)).sum::<f64>()
                / per_dim_pct.len() as f64)
                .sqrt();
            let favored = per_dim_pct.iter().copied().fold(f64::INFINITY, f64::min);
            rows.push(Row {
                curve,
                window_pct: w,
                per_dim_pct,
                stddev,
                favored_pct: favored,
            });
        }
    }
    rows
}

/// Render both panels as `results/fig7.csv` holds them, one row per
/// point.
pub fn csv(rows: &[Row]) -> String {
    let mut out = String::from("window_pct,curve,stddev,favored_pct\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{:.2},{:.2}\n",
            r.window_pct, r.curve, r.stddev, r.favored_pct
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Config {
        Config {
            requests: 3_000,
            windows_pct: vec![0, 20],
            ..Default::default()
        }
    }

    #[test]
    fn diagonal_is_fairest() {
        let rows = run(&small());
        let at = |c: CurveKind| {
            rows.iter()
                .find(|r| r.curve == c && r.window_pct == 0)
                .unwrap()
        };
        let diag = at(CurveKind::Diagonal).stddev;
        for c in [CurveKind::Sweep, CurveKind::CScan] {
            assert!(
                diag < at(c).stddev,
                "diagonal stddev {diag:.2} should beat {c} {:.2}",
                at(c).stddev
            );
        }
    }

    #[test]
    fn sweep_and_cscan_own_the_favored_dimension() {
        let rows = run(&small());
        let at = |c: CurveKind| {
            rows.iter()
                .find(|r| r.curve == c && r.window_pct == 0)
                .unwrap()
        };
        // Their favored dimension has (near-)zero inversion, far below
        // the Diagonal's most-favored dimension.
        assert!(at(CurveKind::Sweep).favored_pct < 5.0);
        assert!(at(CurveKind::CScan).favored_pct < 5.0);
        assert!(at(CurveKind::Diagonal).favored_pct > at(CurveKind::Sweep).favored_pct);
    }

    #[test]
    fn sweep_favors_dim0_cscan_favors_last() {
        let rows = run(&small());
        let at = |c: CurveKind| {
            rows.iter()
                .find(|r| r.curve == c && r.window_pct == 0)
                .unwrap()
        };
        let sweep = &at(CurveKind::Sweep).per_dim_pct;
        assert!(sweep[0] < sweep[1] && sweep[0] < sweep[3]);
        let cscan = &at(CurveKind::CScan).per_dim_pct;
        assert!(cscan[3] < cscan[0] && cscan[3] < cscan[2]);
    }
}
