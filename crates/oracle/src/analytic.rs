//! The analytic seek-distance oracle: measured schedulers against
//! closed-form theory.
//!
//! Every other oracle in this crate compares one implementation against
//! another; if both shared a bug, both would agree. This module breaks
//! the circle with mathematics: for a simultaneous batch of `n`
//! independently uniform cylinders served from a head parked at
//! cylinder 0, any sweep-order scheduler's total travel is exactly the
//! batch's maximum cylinder, whose expectation
//! ([`sim::analysis::expected_sweep_seek`]) is a Bachmat-style closed
//! form with no free parameters. The checks in [`check_seek_law`]:
//!
//! 1. **Cross-scheduler equality** — the cascade, SSTF and SCAN must
//!    pay *identical* totals on every batch (they all reduce to one
//!    ascending sweep on this population), and the optimized cascade's
//!    dequeue order must match the naive [`ReferenceCascade`] on small
//!    instances.
//! 2. **Convergence** — the cascade's measured mean seek must climb
//!    monotonically into a tolerance band around the closed form that
//!    *shrinks* as the batch grows ([`sim::analysis::check_convergence`]).
//! 3. **Separation** — FCFS on the same batches must pay the *linear*
//!    law ([`sim::analysis::expected_fcfs_seek`]), far above the sweep
//!    law, proving the gate could not pass vacuously.

use cascade::{CascadeConfig, CascadedSfc};
use sched::{DiskScheduler, Fcfs, HeadState, Sstf};
use sim::analysis::{check_convergence, expected_fcfs_seek, measure_batch_seek, sweep_convergence};
use workload::uniform_batch;

use crate::reference::{ReferenceCascade, ReferenceScan};

/// Cylinder count used throughout (the paper's disk geometry).
const CYLINDERS: u32 = 3832;

fn cascade() -> Box<dyn DiskScheduler> {
    Box::new(
        CascadedSfc::new(CascadeConfig::paper_default(1, CYLINDERS)).expect("valid cascade config"),
    )
}

/// Run the analytic battery at `seed`. Returns the number of
/// closed-form comparisons made (the smoke report's currency), or the
/// first violation.
pub fn check_seek_law(seed: u64) -> Result<u64, String> {
    let mut runs = 0u64;

    // 1a. Cross-scheduler equality: cascade, SSTF and SCAN pay the same
    // total on every batch — each is one ascending sweep from head 0.
    for (i, &n) in [5u64, 16, 64, 256].iter().enumerate() {
        let batch = uniform_batch(seed.wrapping_add(i as u64), n, CYLINDERS);
        let by_cascade = measure_batch_seek(cascade().as_mut(), &batch, CYLINDERS);
        let by_sstf = measure_batch_seek(&mut Sstf::new(), &batch, CYLINDERS);
        let by_scan = measure_batch_seek(&mut ReferenceScan::new(), &batch, CYLINDERS);
        if by_cascade != by_sstf || by_cascade != by_scan {
            return Err(format!(
                "[analytic] n={n}: sweep totals diverge — cascade {by_cascade}, \
                 SSTF {by_sstf}, SCAN {by_scan}"
            ));
        }
        let max = batch.iter().map(|r| u64::from(r.cylinder)).max().unwrap();
        if by_cascade != max {
            return Err(format!(
                "[analytic] n={n}: sweep total {by_cascade} is not the batch maximum {max}"
            ));
        }
        runs += 3;
    }

    // 1b. Order cross-check on small instances: the optimized cascade's
    // dequeue sequence must match the naive reference restatement.
    for (i, &n) in [3u64, 9, 27].iter().enumerate() {
        let batch = uniform_batch(seed.wrapping_add(100 + i as u64), n, CYLINDERS);
        let fast_order = dequeue_order(cascade().as_mut(), &batch);
        let mut reference = ReferenceCascade::new(CascadeConfig::paper_default(1, CYLINDERS))
            .map_err(|e| format!("[analytic] reference cascade: {e:?}"))?;
        let slow_order = dequeue_order(&mut reference, &batch);
        if fast_order != slow_order {
            return Err(format!(
                "[analytic] n={n}: cascade dequeue order diverges from the reference: \
                 {fast_order:?} vs {slow_order:?}"
            ));
        }
        runs += 1;
    }

    // 2. Convergence of the cascade's measured mean onto the closed
    // form, inside the shrinking band. The 2,048 batch fills the
    // dispatcher's heaps past ten levels, deeper than any other input of
    // the test suite: a sift that stops ten levels down passes every
    // smaller batch.
    let batches = [8u64, 32, 128, 512, 2_048];
    let trials = 20;
    let points = sweep_convergence(&mut cascade, seed, &batches, trials, CYLINDERS);
    check_convergence(&points, CYLINDERS, trials).map_err(|e| format!("[analytic] {e}"))?;
    runs += batches.len() as u64;

    // 3. Separation: FCFS pays the linear law — within a loose factor
    // of its own closed form, and far above the sweep law.
    let n = 128u64;
    let fcfs_total: u64 = (0..8)
        .map(|t| {
            let batch = uniform_batch(seed.wrapping_add(200 + t), n, CYLINDERS);
            measure_batch_seek(&mut Fcfs::new(), &batch, CYLINDERS)
        })
        .sum();
    let fcfs_mean = fcfs_total as f64 / 8.0;
    let fcfs_expected = expected_fcfs_seek(n, CYLINDERS);
    if (fcfs_mean - fcfs_expected).abs() / fcfs_expected > 0.1 {
        return Err(format!(
            "[analytic] FCFS off its own law: measured {fcfs_mean:.0} vs {fcfs_expected:.0}"
        ));
    }
    let last = points.last().unwrap();
    if fcfs_mean < 10.0 * last.mean_seek {
        return Err(format!(
            "[analytic] separation lost: FCFS {fcfs_mean:.0} vs sweep {:.0}",
            last.mean_seek
        ));
    }
    runs += 1;

    Ok(runs)
}

/// Drain a scheduler's full dequeue sequence for a simultaneous batch,
/// tracking the head like the seek measurement does.
fn dequeue_order(scheduler: &mut dyn DiskScheduler, batch: &[sched::Request]) -> Vec<u64> {
    scheduler.enqueue_batch(batch, &HeadState::new(0, 0, CYLINDERS));
    let mut cylinder = 0;
    let mut order = Vec::with_capacity(batch.len());
    while let Some(r) = scheduler.dequeue(&HeadState::new(cylinder, 0, CYLINDERS)) {
        cylinder = r.cylinder;
        order.push(r.id);
    }
    assert_eq!(order.len(), batch.len(), "the whole batch must be served");
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seek_law_holds_over_seeds() {
        for seed in [1u64, 20040330, 0xfeed_f00d] {
            let runs = check_seek_law(seed).expect("analytic oracle");
            assert!(runs >= 20, "{runs} comparisons");
        }
    }

    #[test]
    fn convergence_is_monotone_toward_the_asymptote() {
        let trials = 16;
        let points = sweep_convergence(&mut cascade, 7, &[8, 64, 512], trials, CYLINDERS);
        let ceiling = sim::analysis::sweep_asymptote(CYLINDERS);
        for w in points.windows(2) {
            assert!(w[0].mean_seek < w[1].mean_seek);
            assert!(ceiling - w[1].mean_seek < ceiling - w[0].mean_seek);
        }
        assert!(points.last().unwrap().rel_err() < 0.01);
    }
}
