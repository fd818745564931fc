//! Telemetry oracles: the live windowed plane re-derived from first
//! principles.
//!
//! A [`obs::WindowedSnapshot`] partitions one event stream by time; a
//! plain [`obs::Snapshot`] ignores time entirely. Both see the same
//! events, so three relations must hold on any trace:
//!
//! * **cumulative equivalence** — with decimation off, the windowed
//!   sink's cumulative aggregate is bit-for-bit the plain snapshot;
//! * **window-width invariance** — the cumulative aggregate is the same
//!   for *any* window width (the partition changes, the total cannot);
//! * **cadence invariance** — draining deltas mid-run at any polling
//!   cadence and summing them reproduces the cumulative aggregate
//!   exactly (no event is lost or double-counted at a rotation).

use cascade::{CascadeConfig, CascadedSfc};
use obs::{Snapshot, TelemetryConfig, WindowedSnapshot};
use sched::Request;
use sim::{simulate, DiskService, SimOptions};

fn run_with<S: obs::TraceSink>(trace: &[Request], options: SimOptions, sink: &mut S) {
    let mut scheduler =
        CascadedSfc::new(CascadeConfig::paper_default(1, 3832)).expect("valid cascade config");
    let mut service = DiskService::table1();
    simulate(&mut scheduler, trace, &mut service, options, sink);
}

fn drain_summed(sink: &mut WindowedSnapshot) -> Snapshot {
    sink.flush().map_or_else(Snapshot::new, |d| d.snapshot)
}

/// Check the three telemetry relations on one trace. `poll_every` sets
/// the mid-run drain cadence (in requests) for the cadence-invariance
/// leg; the same engine run is repeated per sink, so every leg sees the
/// identical event stream.
pub fn diff_telemetry(
    trace: &[Request],
    options: SimOptions,
    poll_every: usize,
) -> Result<(), String> {
    let mut plain = Snapshot::new();
    run_with(trace, options, &mut plain);

    // Cumulative equivalence, and width invariance across three shapes.
    for window_log2 in [12, 19, obs::DEFAULT_WINDOW_LOG2] {
        let mut windowed = TelemetryConfig::exact().window_log2(window_log2).sink();
        run_with(trace, options, &mut windowed);
        if windowed.cumulative() != plain {
            return Err(format!(
                "windowed cumulative (window_log2={window_log2}) diverges from the plain snapshot"
            ));
        }
        let summed = drain_summed(&mut windowed);
        if summed != plain {
            return Err(format!(
                "flushed delta sum (window_log2={window_log2}) diverges from the plain snapshot"
            ));
        }
    }

    // Cadence invariance: poll mid-run every `poll_every` requests, then
    // flush the remainder; the drained pieces must sum to the whole.
    let mut windowed = TelemetryConfig::exact().window_log2(14).sink();
    let mut polled = Snapshot::new();
    {
        let mut scheduler =
            CascadedSfc::new(CascadeConfig::paper_default(1, 3832)).expect("valid cascade config");
        let mut service = DiskService::table1();
        for chunk in trace.chunks(poll_every.max(1)) {
            simulate(&mut scheduler, chunk, &mut service, options, &mut windowed);
            if let Some(d) = windowed.take_delta() {
                polled.merge(&d.snapshot);
            }
        }
    }
    let tail = drain_summed(&mut windowed);
    polled.merge(&tail);
    // Flushing folds everything into the sink's retired aggregate, so
    // its cumulative view is the ground truth for what it witnessed.
    if polled != windowed.cumulative() {
        return Err(format!(
            "polling every {poll_every} requests lost or duplicated events \
             (drained sum != cumulative)"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::PoissonConfig;

    #[test]
    fn telemetry_oracle_passes_on_a_seeded_trace() {
        let trace: Vec<_> = PoissonConfig::figure8(600).generate(7).collect();
        let options = SimOptions::with_shape(1, 16).dropping();
        diff_telemetry(&trace, options, 64).expect("telemetry relations hold");
    }
}
