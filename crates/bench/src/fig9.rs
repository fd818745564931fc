//! Figure 9 — selectivity: *which* requests miss their deadlines.
//!
//! Same setup as Figure 8 with the weighted combiner fixed at `f = 1`.
//! For EDF and for Cascaded-SFC variants whose SFC1 differs (Diagonal,
//! C-Scan, Sweep, Gray), the deadline losses are broken down per priority
//! level (8) per dimension (3).
//!
//! Paper's observations to reproduce:
//! * EDF loses requests indiscriminately across priority levels;
//! * the Diagonal shifts losses toward low-priority levels in *all three*
//!   dimensions, with a similar pattern in each (fairness);
//! * C-Scan (last-dimension-major) fully protects high priorities of the
//!   last dimension while behaving EDF-like in the others;
//! * Sweep does the same for the *first* dimension.

use crate::fig8::{cascade_with, run_sim, Config as Fig8Config};
use cascade::Stage2Combiner;
use sched::Edf;
use sfc::CurveKind;
use sim::Metrics;

/// Experiment parameters (shared with Figure 8 where applicable).
#[derive(Debug, Clone)]
pub struct Config {
    /// Figure-8 base parameters (load, deadlines, seed).
    pub base: Fig8Config,
    /// SFC1 curves to compare against EDF.
    pub curves: Vec<CurveKind>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            base: Fig8Config::default(),
            curves: vec![
                CurveKind::Diagonal,
                CurveKind::CScan,
                CurveKind::Sweep,
                CurveKind::Gray,
            ],
        }
    }
}

/// The fixed balance factor.
const F: f64 = 1.0;

/// Loss breakdown of one scheduler.
#[derive(Debug, Clone)]
pub struct Row {
    /// Scheduler label ("edf" or the SFC1 curve name).
    pub scheduler: String,
    /// `losses[dim][level]`.
    pub losses: Vec<Vec<u64>>,
    /// Total losses.
    pub total: u64,
}

fn breakdown(label: &str, m: &Metrics) -> Row {
    Row {
        scheduler: label.to_string(),
        losses: m.losses_by_dim_level.iter().take(3).cloned().collect(),
        total: m.losses_total(),
    }
}

/// Produce the Figure-9 breakdowns.
pub fn run(cfg: &Config) -> Vec<Row> {
    let trace = crate::fig8::trace_of(&cfg.base);

    let mut rows = Vec::new();
    let mut edf = Edf::new();
    rows.push(breakdown("edf", &run_sim(&trace, &mut edf)));

    for &curve in &cfg.curves {
        let mut s = cascade_with(curve, Stage2Combiner::Weighted { f: F });
        rows.push(breakdown(curve.name(), &run_sim(&trace, &mut s)));
    }
    rows
}

/// Render the per-level losses as `results/fig9.csv` holds them.
pub fn csv(rows: &[Row]) -> String {
    let mut out = String::from("scheduler,dimension,level,losses\n");
    for r in rows {
        for (dim, levels) in r.losses.iter().enumerate() {
            for (level, &n) in levels.iter().enumerate() {
                out.push_str(&format!("{},{dim},{level},{n}\n", r.scheduler));
            }
        }
    }
    out
}

/// Render each scheduler's [`loss_centroid`] per dimension as
/// `results/fig9_centroids.csv` holds them.
pub fn centroids_csv(rows: &[Row]) -> String {
    let mut out = String::from("scheduler,centroid_dim0,centroid_dim1,centroid_dim2\n");
    for r in rows {
        out.push_str(&format!(
            "{},{:.2},{:.2},{:.2}\n",
            r.scheduler,
            loss_centroid(r, 0),
            loss_centroid(r, 1),
            loss_centroid(r, 2)
        ));
    }
    out
}

/// Weighted center of the loss distribution over levels for one
/// dimension: 0 = all losses at the highest priority, 7 = all at the
/// lowest. Higher is better (victims are low-priority).
pub fn loss_centroid(row: &Row, dim: usize) -> f64 {
    let levels = &row.losses[dim];
    let total: u64 = levels.iter().sum();
    if total == 0 {
        return f64::NAN;
    }
    levels
        .iter()
        .enumerate()
        .map(|(l, &n)| l as f64 * n as f64)
        .sum::<f64>()
        / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Config {
        Config {
            base: Fig8Config {
                requests: 8_000,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn diagonal_sacrifices_low_priorities_in_every_dimension() {
        let rows = run(&small());
        let edf = rows.iter().find(|r| r.scheduler == "edf").unwrap();
        let diag = rows.iter().find(|r| r.scheduler == "diagonal").unwrap();
        for dim in 0..3 {
            let e = loss_centroid(edf, dim);
            let d = loss_centroid(diag, dim);
            assert!(
                d > e,
                "dim {dim}: diagonal centroid {d:.2} should sit below (higher level than) EDF {e:.2}"
            );
        }
    }

    #[test]
    fn cscan_protects_the_last_dimension() {
        let rows = run(&small());
        let cscan = rows.iter().find(|r| r.scheduler == "c-scan").unwrap();
        // High-priority levels (0–1) of dimension 2 lose (almost) nothing.
        let protected: u64 = cscan.losses[2][..2].iter().sum();
        let sacrificed: u64 = cscan.losses[2][6..].iter().sum();
        assert!(
            protected * 5 < sacrificed.max(1),
            "dim2 high-priority losses {protected} vs low {sacrificed}"
        );
    }

    #[test]
    fn sweep_protects_the_first_dimension() {
        let rows = run(&small());
        let sweep = rows.iter().find(|r| r.scheduler == "sweep").unwrap();
        let protected: u64 = sweep.losses[0][..2].iter().sum();
        let sacrificed: u64 = sweep.losses[0][6..].iter().sum();
        assert!(protected * 5 < sacrificed.max(1));
    }

    #[test]
    fn edf_loses_indiscriminately() {
        let rows = run(&small());
        let edf = rows.iter().find(|r| r.scheduler == "edf").unwrap();
        // EDF's loss centroid sits near the middle level in each dim.
        for dim in 0..3 {
            let c = loss_centroid(edf, dim);
            assert!(
                (2.0..5.5).contains(&c),
                "dim {dim}: EDF centroid {c:.2} not level-blind"
            );
        }
    }
}
