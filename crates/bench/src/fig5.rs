//! Figure 5 — minimizing priority inversion.
//!
//! Setup (§5.1): 4-dimensional priorities with 16 levels each, relaxed
//! deadlines (SFC2 skipped), transfer-dominated blocks (SFC3 skipped),
//! Poisson arrivals with 25 ms mean interarrival. The blocking window `w`
//! sweeps 0–100 % of the scheduling space; each SFC1 curve's total
//! priority inversion is reported as a percentage of the FIFO policy's.
//!
//! Paper's observations to reproduce:
//! * the Diagonal gives the lowest inversion for small windows (w < 60 %),
//!   roughly 10 % below the runner-up;
//! * Gray and Hilbert have very high inversion;
//! * for large windows the Sweep and C-Scan curves are best (they suit
//!   the non-preemptive regime).

use cascade::{CascadeConfig, CascadedSfc, DispatchConfig, PreemptionMode};
use sched::Request;
use sfc::CurveKind;
use sim::{simulate, Metrics, SimOptions, TransferDominated};
use workload::PoissonConfig;

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// RNG seed.
    pub seed: u64,
    /// Requests per simulation run.
    pub requests: usize,
    /// Per-request service time (µs); 25 ms mean interarrival makes
    /// 20 ms ≈ "normal" load and 24 ms ≈ "high" load.
    pub service_us: u64,
    /// Window sizes to sweep, in percent of the scheduling space.
    pub windows_pct: Vec<u32>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: crate::DEFAULT_SEED,
            requests: 20_000,
            service_us: 20_000,
            windows_pct: (0..=100).step_by(10).collect(),
        }
    }
}

/// QoS dimensions of the §5.1 setup.
const DIMS: u32 = 4;

/// One measured point.
#[derive(Debug, Clone)]
pub struct Row {
    /// SFC1 curve.
    pub curve: CurveKind,
    /// Window size in percent of the space.
    pub window_pct: u32,
    /// Total priority inversion as % of FIFO's.
    pub inversion_pct_of_fifo: f64,
}

/// Run one conditionally-preemptive priority-only cascade simulation.
/// Shared by Figures 5–7.
pub fn run_priority_sim(
    trace: &[Request],
    curve: CurveKind,
    dims: u32,
    level_bits: u32,
    window_pct: u32,
    service_us: u64,
) -> Metrics {
    let cfg = CascadeConfig::priority_only(curve, dims, level_bits).with_dispatch(DispatchConfig {
        mode: PreemptionMode::Conditional {
            window: window_pct as f64 / 100.0,
        },
        serve_promote: true,
        expand_factor: None,
        refresh_on_swap: false, // priorities are time-independent here
        max_queue: None,
    });
    let mut sched = CascadedSfc::new(cfg).expect("valid cascade config");
    let mut service = TransferDominated::uniform(service_us, 3832);
    simulate(
        &mut sched,
        trace,
        &mut service,
        SimOptions::with_shape(dims as usize, 16),
    )
}

/// Run FIFO over the same trace (the normalization baseline).
pub fn run_fifo(trace: &[Request], dims: u32, service_us: u64) -> Metrics {
    let mut fifo = sched::Fcfs::new();
    let mut service = TransferDominated::uniform(service_us, 3832);
    simulate(
        &mut fifo,
        trace,
        &mut service,
        SimOptions::with_shape(dims as usize, 16),
    )
}

/// Produce the Figure-5 series.
pub fn run(cfg: &Config) -> Vec<Row> {
    let trace = PoissonConfig::figure5(DIMS, cfg.requests).generate(cfg.seed);
    let fifo = run_fifo(&trace, DIMS, cfg.service_us);
    let baseline = fifo.inversions_total().max(1) as f64;

    let mut rows = Vec::new();
    for curve in CurveKind::FIGURE1 {
        for &w in &cfg.windows_pct {
            let m = run_priority_sim(&trace, curve, DIMS, 4, w, cfg.service_us);
            rows.push(Row {
                curve,
                window_pct: w,
                inversion_pct_of_fifo: m.inversions_total() as f64 / baseline * 100.0,
            });
        }
    }
    rows
}

/// Render the series as `results/fig5.csv` holds it, one row per point.
pub fn csv(rows: &[Row]) -> String {
    let mut out = String::from("window_pct,curve,inversion_pct_of_fifo\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{:.2}\n",
            r.window_pct, r.curve, r.inversion_pct_of_fifo
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
            windows_pct: vec![0, 10, 50, 100],
            ..Default::default()
        }
    }

    #[test]
    fn produces_complete_grid() {
        let cfg = small();
        let rows = run(&cfg);
        assert_eq!(rows.len(), 7 * 4);
        assert!(rows.iter().all(|r| r.inversion_pct_of_fifo.is_finite()));
    }

    #[test]
    fn diagonal_beats_gray_and_hilbert_at_small_windows() {
        let cfg = small();
        let rows = run(&cfg);
        let at = |c: CurveKind, w: u32| {
            rows.iter()
                .find(|r| r.curve == c && r.window_pct == w)
                .unwrap()
                .inversion_pct_of_fifo
        };
        for w in [0, 10] {
            assert!(
                at(CurveKind::Diagonal, w) < at(CurveKind::Gray, w),
                "diagonal should beat gray at w={w}"
            );
            assert!(
                at(CurveKind::Diagonal, w) < at(CurveKind::Hilbert, w),
                "diagonal should beat hilbert at w={w}"
            );
        }
    }

    #[test]
    fn monotone_curves_beat_fifo_at_zero_window() {
        // Gray and Hilbert may exceed FIFO ("very high priority
        // inversion", §5.1); the other five should clearly beat it.
        let cfg = small();
        let rows = run(&cfg);
        for r in rows.iter().filter(|r| r.window_pct == 0) {
            match r.curve {
                CurveKind::Gray | CurveKind::Hilbert => {
                    assert!(r.inversion_pct_of_fifo < 130.0)
                }
                _ => assert!(
                    r.inversion_pct_of_fifo < 95.0,
                    "{} at w=0: {:.1}%",
                    r.curve,
                    r.inversion_pct_of_fifo
                ),
            }
        }
    }

    #[test]
    fn pairwise_bias_predicts_the_simulated_ranking() {
        // The paper's "analyzability" claim (§1, advantage 3), made
        // executable: the curves' *geometric* mean pairwise-inversion
        // rate (sfc::quality::dimension_bias, no simulation involved)
        // ranks them the same way the full discrete-event simulation
        // does at w = 0. Spearman rank correlation must be strong.
        let cfg = small();
        let rows = run(&cfg);
        let simulated: Vec<(CurveKind, f64)> = CurveKind::FIGURE1
            .into_iter()
            .map(|c| {
                let v = rows
                    .iter()
                    .find(|r| r.curve == c && r.window_pct == 0)
                    .unwrap()
                    .inversion_pct_of_fifo;
                (c, v)
            })
            .collect();
        let geometric: Vec<(CurveKind, f64)> = CurveKind::FIGURE1
            .into_iter()
            .map(|c| {
                let curve = c.build(DIMS, 4).unwrap();
                let bias = sfc::quality::dimension_bias(curve.as_ref(), 20_000);
                let mean =
                    bias.inversion_rate.iter().sum::<f64>() / bias.inversion_rate.len() as f64;
                (c, mean)
            })
            .collect();

        let rank = |xs: &[(CurveKind, f64)]| -> Vec<usize> {
            let mut order: Vec<usize> = (0..xs.len()).collect();
            order.sort_by(|&a, &b| xs[a].1.partial_cmp(&xs[b].1).unwrap());
            let mut ranks = vec![0usize; xs.len()];
            for (r, &i) in order.iter().enumerate() {
                ranks[i] = r;
            }
            ranks
        };
        let ra = rank(&simulated);
        let rb = rank(&geometric);
        let n = ra.len() as f64;
        let d2: f64 = ra
            .iter()
            .zip(&rb)
            .map(|(&a, &b)| ((a as f64) - (b as f64)).powi(2))
            .sum();
        let rho = 1.0 - 6.0 * d2 / (n * (n * n - 1.0));
        assert!(
            rho > 0.6,
            "geometry should predict simulation: rho = {rho:.2}\nsim {simulated:?}\ngeo {geometric:?}"
        );
    }

    #[test]
    fn window_growth_raises_diagonal_inversion() {
        // Larger windows block more preemptions, so the conditionally-
        // preemptive diagonal loses ground as w grows.
        let cfg = small();
        let rows = run(&cfg);
        let at = |w: u32| {
            rows.iter()
                .find(|r| r.curve == CurveKind::Diagonal && r.window_pct == w)
                .unwrap()
                .inversion_pct_of_fifo
        };
        assert!(at(0) < at(50));
        assert!(at(50) < at(100) + 1e-9);
    }
}
