//! Batch differential gate: the vectorized characterization pipeline
//! and the bulk enqueue held to the scalar/serial reference bit for bit,
//! on every committed corpus trace.
//!
//! Two comparisons per case:
//!
//! * **characterization** — [`cascade::Encapsulator::map_batch_into`]
//!   (the 8-lane batch pass) against per-request
//!   [`cascade::Encapsulator::characterize`], elementwise on the `u128`
//!   values,
//! * **batched enqueue** — [`sched::DiskScheduler::enqueue_batch`] (the
//!   bulk heapify-append insert) against the trait-default per-request
//!   enqueue loop, under every dispatcher regime.
//!
//! Agreement is judged on the full observable surface: queue depths,
//! dequeue order, dispatch counters, and shed ledgers. The fast paths
//! are only admissible because this gate proves they compute the same
//! schedule.

use cascade::{CascadeConfig, CascadedSfc, DispatchConfig};
use sched::{DiskScheduler, HeadState};

use crate::fuzz::{self, Archetype};
use crate::smoke::SmokeReport;

fn drain_ids(s: &mut CascadedSfc, head: &HeadState) -> Vec<u64> {
    let mut out = Vec::new();
    let mut h = *head;
    while let Some(r) = s.dequeue(&h) {
        h.cylinder = r.cylinder;
        out.push(r.id);
    }
    out
}

/// Diff the batch fast paths against the scalar/serial
/// reference on every `.case` file under `corpus`. Any divergence —
/// one characterization value, one dequeued id, one counter — is the
/// error.
pub fn diff_batch(corpus: &std::path::Path) -> Result<SmokeReport, String> {
    let mut report = SmokeReport::default();

    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(corpus)
        .map_err(|e| format!("read {}: {e}", corpus.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "case"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no .case files under {}", corpus.display()));
    }

    for path in &paths {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let (scenario, trace) =
            fuzz::parse_case(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let dims = match scenario.archetype {
            Archetype::DeadlineClusters | Archetype::ShedBursts => 2u32,
            Archetype::CylinderSweeps
            | Archetype::FaultPlans
            | Archetype::MembershipChurn
            | Archetype::ControllerStorm => 1,
        };
        let head = HeadState::new(1700, trace.first().map_or(0, |r| r.arrival_us), 3832);

        // Vectorized characterization: the lane-parallel batch pass must
        // produce exactly the scalar per-point values, each anchored at
        // its own arrival time (the `enqueue_batch` convention).
        let probe = CascadedSfc::new(CascadeConfig::paper_default(dims, 3832))
            .map_err(|e| format!("{}: {e:?}", path.display()))?;
        let enc = probe.encapsulator();
        let mut batch_values = Vec::new();
        enc.map_batch_into(&trace, &head, &mut batch_values);
        for (i, (r, &batch)) in trace.iter().zip(&batch_values).enumerate() {
            let at_arrival = HeadState::new(head.cylinder, r.arrival_us, head.cylinders);
            let scalar = enc.characterize(r, &at_arrival);
            if scalar != batch {
                return Err(format!(
                    "[{}/characterize] request {i} (id {}): scalar {scalar} != batch {batch}",
                    path.display(),
                    r.id
                ));
            }
        }
        report.differential_runs += 1;
        report.requests_checked += trace.len() as u64;

        // Batched enqueue vs the trait-default per-request loop, under
        // every dispatcher regime.
        for (regime, dispatch) in [
            ("paper", DispatchConfig::paper_default()),
            ("fully", DispatchConfig::fully_preemptive()),
            ("non-preemptive", DispatchConfig::non_preemptive()),
            (
                "bounded",
                DispatchConfig::paper_default().with_max_queue(16),
            ),
        ] {
            let config = CascadeConfig::paper_default(dims, 3832).with_dispatch(dispatch);
            let tag = format!("{}/{regime}", path.display());
            let mut serial =
                CascadedSfc::new(config.clone()).map_err(|e| format!("[{tag}/serial] {e:?}"))?;
            let mut batch = CascadedSfc::new(config).map_err(|e| format!("[{tag}/batch] {e:?}"))?;

            for r in &trace {
                let h = HeadState::new(head.cylinder, r.arrival_us, head.cylinders);
                serial.enqueue(r.clone(), &h);
            }
            batch.enqueue_batch(&trace, &head);

            let reference = drain_ids(&mut serial, &head);
            let counters = serial.dispatch_counters();
            let sheds = serial.sheds();
            if batch.sheds() != sheds {
                return Err(format!(
                    "[{tag}/batch] sheds {} != serial {sheds}",
                    batch.sheds()
                ));
            }
            let ids = drain_ids(&mut batch, &head);
            if ids != reference {
                let at = ids
                    .iter()
                    .zip(&reference)
                    .position(|(a, b)| a != b)
                    .unwrap_or_else(|| ids.len().min(reference.len()));
                return Err(format!(
                    "[{tag}/batch] dequeue order diverges from serial at position {at} \
                     ({} vs {} served)",
                    ids.len(),
                    reference.len()
                ));
            }
            if batch.dispatch_counters() != counters {
                return Err(format!(
                    "[{tag}/batch] dispatch counters {:?} != serial {counters:?}",
                    batch.dispatch_counters()
                ));
            }
            report.differential_runs += 1;
            report.requests_checked += trace.len() as u64;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_batch_gate_passes_on_the_committed_corpus() {
        let corpus =
            std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus"));
        let report = diff_batch(corpus).expect("batch differential gate");
        // 6 corpus cases: 1 characterization diff + 4 regimes.
        assert!(report.differential_runs >= 6 * 5);
        assert!(report.requests_checked > 0);
    }

    #[test]
    fn missing_corpus_is_an_error_not_a_vacuous_pass() {
        let err = diff_batch(std::path::Path::new("/nonexistent/corpus"))
            .expect_err("must not pass vacuously");
        assert!(err.contains("/nonexistent/corpus"));
    }
}
