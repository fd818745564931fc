//! Layer replays: the public function of a layer the daemon owns
//! concretely (and so cannot be wrapped), timed standalone on the inputs
//! the traced pass captured.

use std::hint::black_box;
use std::time::Instant;

use cascade::CascadedSfc;
use farm::OnlineRouter;
use obs::{FlightRecorder, RingSink, SharedSink, TelemetryConfig, TraceSink, TriggerConfig};
use sched::Request;
use sfc::{CurveKernel, CurveKind};
use sim::{DiskService, EngineStepper, ServiceProvider};

use crate::stats::{median, ratio};
use crate::workloads::{Workload, DIMS};

/// Requests fed to the single-engine run behind the `obs` replay.
const OBS_REPLAY_REQUESTS: usize = 200_000;
/// Ring slots per replayed request (the daemon path emits ~5 events per
/// request; the ring must not evict).
const EVENTS_PER_REQUEST_BOUND: usize = 10;

fn per(ns: u128, n: usize) -> f64 {
    ratio(ns as f64, n as f64)
}

/// `StreamGate::admit` over the captured `(stream, arrival)` pairs.
pub struct Admission {
    /// Host ns per `admit` call.
    pub ns_per_req: f64,
    /// Peak concurrently active streams over the captured prefix.
    pub active_streams_peak: usize,
    /// Per captured arrival: did the gate admit it? The gate's verdicts
    /// depend only on the arrival sequence, so these are the daemon's.
    pub admitted: Vec<bool>,
}

/// Replay the workload's admission gate.
pub fn admission(w: Workload, captured: &[Request]) -> Admission {
    let mut gate = w.stream_gate();
    let mut admitted = Vec::with_capacity(captured.len());
    let start = Instant::now();
    for r in captured {
        admitted.push(gate.admit(r.stream, r.arrival_us));
    }
    let ns = start.elapsed().as_nanos();
    // A second, untimed pass for the high-water mark, so reading it does
    // not sit inside the timed loop.
    let mut gate = w.stream_gate();
    let mut peak = 0;
    for r in captured {
        gate.admit(r.stream, r.arrival_us);
        peak = peak.max(gate.active_streams());
    }
    Admission {
        ns_per_req: per(ns, captured.len()),
        active_streams_peak: peak,
        admitted,
    }
}

/// `OnlineRouter::route` over the admitted captured arrivals, with the
/// workload's `FarmConfig` and queue capacities. `surge`'s scripted
/// `AddShard`/`DrainShard` are mirrored on the router at the same arrival
/// indices; supervisor quarantines are not (they are not visible from
/// outside), so the replay routes around fewer shards than the run did.
/// Returns host ns per routed request.
pub fn router(w: Workload, arrivals: u64, captured: &[Request], admitted: &[bool]) -> f64 {
    let shards = w.shards();
    let capacity = w.max_queue();
    let mut router = OnlineRouter::new(&w.farm_config(shards), &vec![capacity; shards]);
    let script = w.script(arrivals);
    let mut oldest = 0;
    let mut routed = 0;
    let start = Instant::now();
    for (i, r) in captured.iter().enumerate() {
        if admitted[i] {
            black_box(router.route(r));
            routed += 1;
        }
        if let Some(s) = script {
            if (i as u64 + 1) % s.churn_every == 0 {
                router.add_shard(capacity);
                router.set_eligible(oldest, false);
                oldest += 1;
            }
        }
    }
    per(start.elapsed().as_nanos(), routed)
}

/// `CurveKernel::index_batch` for SFC1's shape (Diagonal, 3 dimensions of
/// 4 bits) on the run's QoS points; median of five passes, ns per point.
pub fn sfc(captured: &[Request]) -> f64 {
    let kernel = CurveKernel::build(CurveKind::Diagonal, DIMS, 4).expect("SFC1's shape is valid");
    let points: Vec<[u64; 3]> = captured
        .iter()
        .map(|r| {
            let l = r.qos.levels();
            [u64::from(l[0]), u64::from(l[1]), u64::from(l[2])]
        })
        .collect();
    let mut out = vec![0u128; points.len()];
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            kernel.index_batch(black_box(&points), &mut out);
            let ns = start.elapsed().as_nanos();
            black_box(&out);
            per(ns, points.len())
        })
        .collect();
    median(&passes)
}

/// What re-emitting a captured event stream into a flight recorder costs.
pub struct ObsReplay {
    /// Host ns per `FlightRecorder::emit`.
    pub emit_ns_per_event: f64,
    /// Events replayed.
    pub events: usize,
}

/// Capture the event stream of one `EngineStepper::run_source` over a
/// one-shard share of the captured arrivals (every `shards`-th request,
/// so the engine sees about the load one member saw), then time
/// re-emitting it into a fresh `FlightRecorder` of the run's shape. An
/// approximation: the real recorders see the daemon's interleaving and
/// its router/supervisor events too.
pub fn obs(w: Workload, captured: &[Request]) -> ObsReplay {
    let share: Vec<Request> = captured
        .iter()
        .step_by(w.shards())
        .take(OBS_REPLAY_REQUESTS)
        .cloned()
        .collect();
    let ring = SharedSink::new(RingSink::new(share.len().max(1) * EVENTS_PER_REQUEST_BOUND));
    let mut scheduler =
        CascadedSfc::with_sink(w.cascade_config(), ring.clone()).expect("valid cascade");
    let mut service = DiskService::table1();
    let mut stepper = EngineStepper::new(Workload::options(), service.cylinders());
    let mut source = workload::VecSource::new(share);
    let mut engine_sink = ring.clone();
    stepper.run_source(&mut source, &mut scheduler, &mut service, &mut engine_sink);
    drop(scheduler);
    drop(engine_sink);
    let ring = ring
        .try_unwrap()
        .expect("every clone of the ring handle was dropped");
    assert_eq!(ring.evicted(), 0, "the capture ring must hold the stream");

    let mut recorder = FlightRecorder::new(
        1 << 12,
        TelemetryConfig::default(),
        TriggerConfig::default(),
    );
    let start = Instant::now();
    for event in ring.events() {
        recorder.emit(event);
    }
    let ns = start.elapsed().as_nanos();
    black_box(recorder.dumps().len());
    ObsReplay {
        emit_ns_per_event: per(ns, ring.len()),
        events: ring.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refkernel::Reference;
    use crate::run;

    #[test]
    fn replays_agree_with_the_run_they_replay() {
        for w in [Workload::Steady, Workload::Surge] {
            let (rep, trace) = run::traced(&mut Reference::new(), w, 5, 30_000);
            let gate = admission(w, &trace.captured);
            let rejected = gate.admitted.iter().filter(|a| !**a).count() as u64;
            assert_eq!(
                rejected,
                rep.report.admission_rejections,
                "{}: the replayed gate must reject what the daemon's did",
                w.name()
            );
            assert!(gate.active_streams_peak > 0, "{}", w.name());
            assert!(router(w, 30_000, &trace.captured, &gate.admitted) > 0.0);
            assert!(sfc(&trace.captured) > 0.0);
            let o = obs(w, &trace.captured);
            assert!(o.events > 30_000 / w.shards(), "{}", w.name());
            assert!(o.emit_ns_per_event > 0.0);
        }
    }
}
