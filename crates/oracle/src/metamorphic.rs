//! Metamorphic properties: relations that must hold between *pairs* of
//! runs even where no reference implementation exists.
//!
//! * **Permutation invariance** — a fully-preemptive cascade serves a
//!   batch in characterization order, so the arrival permutation of a
//!   same-instant batch cannot change the service order.
//! * **Deadline monotonicity** — under SFC2's weighted combiner, relaxing
//!   a request's deadline (more slack) never *raises* its priority, for
//!   any balance factor `f`; and as `f` grows the deadline dominates any
//!   priority difference (the EDF generalization of §4.2).
//! * **CSV idempotence** — `to_csv ∘ from_csv` is the identity on the
//!   8-column trace format, and `to_csv` output is a fixpoint.

use cascade::{CascadeConfig, CascadedSfc, DispatchConfig, Encapsulator, Stage2Combiner};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sched::{DiskScheduler, HeadState, OpKind, QosVector, Request};
use sfc::CurveKind;
use workload::VodConfig;

fn batch(seed: u64, n: usize) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n as u64)
        .map(|id| {
            let qos = [rng.gen_range(0..16u8), rng.gen_range(0..16u8)];
            Request::read(
                id,
                0,
                200_000 + rng.gen_range(0..800_000u64),
                rng.gen_range(0..3832u32),
                65_536,
                QosVector::new(&qos),
            )
        })
        .collect()
}

fn drain(s: &mut impl DiskScheduler, head: &HeadState) -> Vec<u64> {
    std::iter::from_fn(|| s.dequeue(head).map(|r| r.id)).collect()
}

/// A same-instant batch must be served in the same order no matter how
/// its arrivals were permuted (fully-preemptive cascade).
pub fn permutation_invariance(seed: u64, n: usize) -> Result<(), String> {
    let cfg =
        CascadeConfig::paper_default(2, 3832).with_dispatch(DispatchConfig::fully_preemptive());
    let head = HeadState::new(1200, 0, 3832);
    let base = batch(seed, n);
    let mut shuffled = base.clone();
    shuffled.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x5ca1ab1e));

    let order_of = |requests: &[Request]| -> Result<Vec<u64>, String> {
        let mut s = CascadedSfc::new(cfg.clone()).map_err(|e| format!("config rejected: {e}"))?;
        for r in requests {
            s.enqueue(r.clone(), &head);
        }
        Ok(drain(&mut s, &head))
    };
    let a = order_of(&base)?;
    let b = order_of(&shuffled)?;
    if a != b {
        let at = a
            .iter()
            .zip(&b)
            .position(|(x, y)| x != y)
            .unwrap_or(a.len().min(b.len()));
        return Err(format!(
            "permutation invariance (seed {seed}): service order depends on \
             arrival permutation at position {at}: {:?} vs {:?}",
            a.get(at),
            b.get(at)
        ));
    }
    Ok(())
}

/// Relaxing a deadline must never raise a request's priority, for every
/// balance factor `f`; and with a huge `f` the deadline dominates any
/// priority-level difference (the EDF limit).
pub fn deadline_monotonicity() -> Result<(), String> {
    let head = HeadState::new(0, 0, 3832);
    let horizon = 1_000_000;
    let req = |level: u8, deadline: u64| {
        Request::read(0, 0, deadline, 500, 65_536, QosVector::single(level))
    };
    for f in [0.0, 0.25, 1.0, 4.0, 64.0] {
        let cfg = CascadeConfig::priority_deadline(
            CurveKind::Diagonal,
            1,
            4,
            Stage2Combiner::Weighted { f },
            horizon,
        );
        let enc = Encapsulator::new(cfg).map_err(|e| format!("config rejected: {e}"))?;
        let mut last = 0u128;
        for k in 0..40u64 {
            let deadline = k * 30_000;
            let v = enc.characterize(&req(5, deadline), &head);
            if v < last {
                return Err(format!(
                    "deadline monotonicity (f={f}): deadline {deadline} maps to \
                     value {v} < value {last} of an earlier deadline"
                ));
            }
            last = v;
        }
    }
    // f → ∞: the deadline dominates any priority difference — the EDF
    // generalization of §4.2 (`tests/generalization.rs` holds
    // `presets::edf` to batch EDF event for event).
    let cfg = CascadeConfig::priority_deadline(
        CurveKind::Diagonal,
        1,
        4,
        Stage2Combiner::Weighted { f: 1e9 },
        horizon,
    );
    let enc = Encapsulator::new(cfg).map_err(|e| format!("config rejected: {e}"))?;
    let urgent_worst = enc.characterize(&req(15, 1_000), &head);
    let relaxed_best = enc.characterize(&req(0, horizon), &head);
    if urgent_worst >= relaxed_best {
        return Err(format!(
            "f-scaling: at f=1e9 an urgent deadline must dominate any \
             priority level (EDF limit), but the urgent request got \
             {urgent_worst} >= {relaxed_best} of the relaxed one"
        ));
    }
    Ok(())
}

/// `from_csv ∘ to_csv` is the identity on traces, and the CSV text is a
/// fixpoint of another replay cycle.
pub fn csv_idempotence(seed: u64) -> Result<(), String> {
    let mut wl = VodConfig::mpeg1(6);
    wl.duration_us = 2_000_000;
    let mut trace: Vec<_> = wl.generate(seed).collect();
    trace.truncate(200);
    if trace.len() < 3 {
        return Err("csv idempotence: workload generator returned a trivial trace".into());
    }
    // Exercise the corner encodings: relaxed deadline, no QoS, a write.
    trace[0].deadline_us = u64::MAX;
    trace[1].qos = QosVector::none();
    trace[2].kind = OpKind::Write;

    let csv = workload::io::to_csv(&trace);
    let back = workload::io::from_csv(&csv).map_err(|e| format!("csv idempotence: {e}"))?;
    if back != trace {
        return Err(format!(
            "csv idempotence (seed {seed}): trace -> csv -> trace is not the \
             identity ({} vs {} requests)",
            trace.len(),
            back.len()
        ));
    }
    let again = workload::io::to_csv(&back);
    if again != csv {
        return Err(format!(
            "csv idempotence (seed {seed}): to_csv is not a fixpoint across a \
             replay cycle"
        ));
    }
    Ok(())
}

/// The quick metamorphic pass used by the CI smoke gate: every property
/// once, on workloads sized for seconds not minutes.
pub fn quick_pass(seed: u64) -> Result<(), String> {
    permutation_invariance(seed, 160)?;
    deadline_monotonicity()?;
    csv_idempotence(seed)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_properties_hold_on_three_seeds() {
        for seed in [1, 2, 20040330] {
            quick_pass(seed).expect("metamorphic pass");
        }
    }
}
