//! The analytic seek law: "the cascade is seek-efficient at scale" as
//! closed-form arithmetic, in the spirit of Bachmat's
//! space-time-geometry tour-length analysis.
//!
//! Serve a batch of `n` requests with independently uniform cylinders
//! from a head parked at
//! cylinder 0 with any *sweep-order* scheduler (the cascade's SFC3
//! stage, SSTF, SCAN — anything that visits the batch in one ascending
//! pass): the head's total travel is exactly the batch's **maximum**
//! cylinder, so the expected total seek is the expectation of the
//! maximum of `n` uniform draws —
//! [`expected_sweep_seek`]` = Σ_{t=1}^{C−1} (1 − (t/C)^n)`,
//! which climbs monotonically in `n` toward the [`sweep_asymptote`]
//! `C − 1` with a bias shrinking like `C/(n+1)`. FCFS by contrast pays
//! an *expected distance per hop* — [`expected_fcfs_seek`] grows
//! **linearly** in `n` — so the two laws separate by a factor of
//! `Θ(n)`. [`measure_batch_seek`] measures a real scheduler against
//! these laws, [`sweep_convergence`] sweeps batch sizes over seeded
//! uniform batches, and [`check_convergence`] asserts the measured
//! means land inside a [`seek_tolerance`] band that *shrinks* as the
//! batch grows — `oracle::analytic`'s theory-backed check.

use sched::{DiskScheduler, HeadState};

/// Expected total seek distance (cylinders) for a sweep-order scheduler
/// serving `n` independently uniform requests from a head at cylinder 0:
/// `E[max of n uniform over 0..C−1] = Σ_{t=1}^{C−1} (1 − (t/C)^n)`.
/// Strictly increasing in `n`, approaching [`sweep_asymptote`] with a
/// gap of roughly `C/(n+1)`.
pub fn expected_sweep_seek(n: u64, cylinders: u32) -> f64 {
    assert!(n > 0 && cylinders > 0);
    let c = cylinders as f64;
    (1..cylinders)
        .map(|t| 1.0 - (t as f64 / c).powf(n as f64))
        .sum()
}

/// Expected total seek distance for FCFS on the same batch: the first
/// hop leaves cylinder 0 (mean `(C−1)/2`), every later hop connects two
/// independent uniform cylinders (mean `(C²−1)/(3C)` each) — linear in
/// `n`, against the sweep law's bounded `C−1`.
pub fn expected_fcfs_seek(n: u64, cylinders: u32) -> f64 {
    assert!(n > 0 && cylinders > 0);
    let c = cylinders as f64;
    (c - 1.0) / 2.0 + (n as f64 - 1.0) * (c * c - 1.0) / (3.0 * c)
}

/// The sweep law's ceiling: a full one-way pass over the disk, `C − 1`
/// cylinders. No batch can make a single ascending sweep travel more.
pub fn sweep_asymptote(cylinders: u32) -> f64 {
    assert!(cylinders > 0);
    (cylinders - 1) as f64
}

/// Relative-error band for comparing a measured mean over `trials`
/// seeded batches of size `n` against [`expected_sweep_seek`]: the
/// sampling noise of the max-of-uniforms shrinks like `1/(n√trials)`,
/// so the band tightens as the batch grows — a sloppy scheduler cannot
/// hide behind a fixed tolerance at large `n`. The `0.001` floor covers
/// discretization (integer cylinders vs. the continuous law).
pub fn seek_tolerance(n: u64, trials: u64) -> f64 {
    assert!(n > 0 && trials > 0);
    4.0 / (n as f64 * (trials as f64).sqrt()) + 0.001
}

/// Serve one simultaneous batch through a scheduler from a head parked
/// at cylinder 0 and return the head's total travel in cylinders. The
/// scheduler must serve the entire batch (use an unbounded
/// configuration — a shedding queue would silently shorten the tour).
///
/// # Panics
/// If the scheduler fails to return every enqueued request.
pub fn measure_batch_seek(
    scheduler: &mut dyn DiskScheduler,
    batch: &[sched::Request],
    cylinders: u32,
) -> u64 {
    scheduler.enqueue_batch(batch, &HeadState::new(0, 0, cylinders));
    let mut cylinder = 0u32;
    let mut total = 0u64;
    let mut served = 0usize;
    while let Some(r) = scheduler.dequeue(&HeadState::new(cylinder, 0, cylinders)) {
        total += u64::from(cylinder.abs_diff(r.cylinder));
        cylinder = r.cylinder;
        served += 1;
    }
    assert_eq!(
        served,
        batch.len(),
        "scheduler must serve the whole batch (is its queue bounded?)"
    );
    total
}

/// One point of a batch-size sweep: the measured mean seek against the
/// closed-form expectation.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergencePoint {
    /// Batch size `n`.
    pub batch: u64,
    /// Mean measured total seek over the trials (cylinders).
    pub mean_seek: f64,
    /// [`expected_sweep_seek`] at this batch size.
    pub expected: f64,
}

impl ConvergencePoint {
    /// Relative error of the measurement against the closed form.
    pub fn rel_err(&self) -> f64 {
        (self.mean_seek - self.expected).abs() / self.expected
    }
}

/// Sweep batch sizes against the analytic law: for each `n` in
/// `batches`, serve `trials` seeded uniform batches
/// ([`workload::uniform_batch`]) through a fresh scheduler from
/// `make_scheduler` and average the measured total seek. Deterministic
/// given `seed`.
pub fn sweep_convergence(
    make_scheduler: &mut dyn FnMut() -> Box<dyn DiskScheduler>,
    seed: u64,
    batches: &[u64],
    trials: u64,
    cylinders: u32,
) -> Vec<ConvergencePoint> {
    assert!(trials > 0);
    batches
        .iter()
        .map(|&n| {
            let total: u64 = (0..trials)
                .map(|t| {
                    let batch = workload::uniform_batch(
                        seed ^ (n.rotate_left(32)).wrapping_add(t.wrapping_mul(0x9e37)),
                        n,
                        cylinders,
                    );
                    measure_batch_seek(make_scheduler().as_mut(), &batch, cylinders)
                })
                .sum();
            ConvergencePoint {
                batch: n,
                mean_seek: total as f64 / trials as f64,
                expected: expected_sweep_seek(n, cylinders),
            }
        })
        .collect()
}

/// The convergence gate: measured means must sit inside the shrinking
/// [`seek_tolerance`] band at every batch size, climb strictly
/// monotonically, and close their gap to the [`sweep_asymptote`]
/// strictly monotonically.
pub fn check_convergence(
    points: &[ConvergencePoint],
    cylinders: u32,
    trials: u64,
) -> Result<(), String> {
    if points.len() < 2 {
        return Err("convergence needs at least two batch sizes".into());
    }
    for w in points.windows(2) {
        if w[0].batch >= w[1].batch {
            return Err(format!(
                "batch sizes must increase: {} then {}",
                w[0].batch, w[1].batch
            ));
        }
        if w[0].mean_seek >= w[1].mean_seek {
            return Err(format!(
                "mean seek must climb with the batch: {:.1} at n={} vs {:.1} at n={}",
                w[0].mean_seek, w[0].batch, w[1].mean_seek, w[1].batch
            ));
        }
        let ceiling = sweep_asymptote(cylinders);
        let (g0, g1) = (
            (ceiling - w[0].mean_seek).abs(),
            (ceiling - w[1].mean_seek).abs(),
        );
        if g0 <= g1 {
            return Err(format!(
                "gap to the asymptote must shrink: {g0:.1} at n={} vs {g1:.1} at n={}",
                w[0].batch, w[1].batch
            ));
        }
    }
    for p in points {
        let band = seek_tolerance(p.batch, trials);
        if p.rel_err() > band {
            return Err(format!(
                "n={}: measured {:.1} vs analytic {:.1} — rel err {:.4} outside the \
                 {:.4} band",
                p.batch,
                p.mean_seek,
                p.expected,
                p.rel_err(),
                band
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_law_closed_form_sanity() {
        // n=1 over C cylinders: E[uniform] = (C−1)/2, and FCFS agrees
        // (a single hop is a single hop).
        let c = 101u32;
        assert!((expected_sweep_seek(1, c) - 50.0).abs() < 1e-9);
        assert!((expected_fcfs_seek(1, c) - 50.0).abs() < 1e-9);
        // Monotone in n, below the asymptote, gap ~ C/(n+1).
        let mut prev = 0.0;
        for n in [1u64, 4, 16, 64, 256, 1024] {
            let e = expected_sweep_seek(n, 3832);
            assert!(e > prev && e < sweep_asymptote(3832));
            prev = e;
        }
        let gap = sweep_asymptote(3832) - expected_sweep_seek(255, 3832);
        assert!((gap - 3832.0 / 256.0).abs() < 1.0, "gap {gap}");
        // FCFS is linear: it dwarfs the sweep law already at modest n.
        assert!(expected_fcfs_seek(64, 3832) > 10.0 * expected_sweep_seek(64, 3832));
    }

    #[test]
    fn measured_sweep_schedulers_hit_the_band_and_fcfs_does_not() {
        use sched::{Fcfs, Sstf};
        let cylinders = 3832;
        let batches = [8u64, 32, 128, 512];
        let trials = 24;
        let points = sweep_convergence(
            &mut || Box::new(Sstf::new()),
            20040330,
            &batches,
            trials,
            cylinders,
        );
        check_convergence(&points, cylinders, trials).expect("SSTF follows the sweep law");

        // FCFS violates the law loudly: at n=128 its measured seek is
        // orders of magnitude past the sweep expectation.
        let fcfs = sweep_convergence(
            &mut || Box::new(Fcfs::new()),
            20040330,
            &[128],
            4,
            cylinders,
        );
        assert!(fcfs[0].mean_seek > 20.0 * fcfs[0].expected);
        assert!(check_convergence(&fcfs, cylinders, 4).is_err());
    }

    #[test]
    fn convergence_gate_rejects_non_monotone_and_off_band_series() {
        let c = 3832;
        let good = |n: u64| ConvergencePoint {
            batch: n,
            mean_seek: expected_sweep_seek(n, c),
            expected: expected_sweep_seek(n, c),
        };
        let series = vec![good(8), good(64), good(512)];
        check_convergence(&series, c, 16).expect("the exact law passes");

        let mut stalled = series.clone();
        stalled[2].mean_seek = stalled[1].mean_seek; // convergence stalls
        assert!(check_convergence(&stalled, c, 16).is_err());

        let mut biased = series;
        biased[2].mean_seek = biased[2].expected * 1.2; // off the band
        assert!(check_convergence(&biased, c, 16).is_err());

        assert!(check_convergence(&[good(8)], c, 16).is_err(), "one point");
    }

    #[test]
    #[should_panic(expected = "whole batch")]
    fn measure_batch_seek_rejects_shedding_schedulers() {
        use sched::QosVector;
        // A scheduler that loses requests must be caught, not averaged.
        struct Lossy;
        impl DiskScheduler for Lossy {
            fn name(&self) -> &'static str {
                "lossy"
            }
            fn enqueue(&mut self, _: sched::Request, _: &HeadState) {}
            fn dequeue(&mut self, _: &HeadState) -> Option<sched::Request> {
                None
            }
            fn len(&self) -> usize {
                0
            }
            fn for_each_pending(&self, _: &mut dyn FnMut(&sched::Request)) {}
        }
        let batch = vec![sched::Request::read(
            0,
            0,
            u64::MAX,
            7,
            512,
            QosVector::single(0),
        )];
        measure_batch_seek(&mut Lossy, &batch, 100);
    }
}
