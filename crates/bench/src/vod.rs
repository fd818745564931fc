//! What the farm-side harnesses (`scenario`, `ctrl`) share: the MPEG-1
//! VoD load, the engine options of its one-dimensional, four-level
//! priority shape, and the paper-default cascade over the Table-1 disk,
//! with or without a bounded queue.

use cascade::{CascadeConfig, CascadedSfc, DispatchConfig};
use obs::{FlightRecorder, SharedSink};
use sched::{DiskScheduler, Request};
use sim::SimOptions;
use workload::VodConfig;

/// Cylinders of the Table-1 disk.
pub(crate) const CYLINDERS: u32 = 3832;

/// `streams` concurrent MPEG-1 streams over `duration_us`.
pub(crate) fn trace(streams: u32, duration_us: u64, seed: u64) -> Vec<Request> {
    let mut wl = VodConfig::mpeg1(streams.max(1));
    wl.duration_us = duration_us;
    wl.generate(seed).collect()
}

/// Past-due requests are dropped at dispatch (the video-server regime).
pub(crate) fn options() -> SimOptions {
    SimOptions::with_shape(1, 4).dropping()
}

/// The paper-default cascade, shedding past `max_queue` pending requests.
pub(crate) fn bounded_cascade(max_queue: usize) -> CascadeConfig {
    CascadeConfig::paper_default(1, CYLINDERS)
        .with_dispatch(DispatchConfig::paper_default().with_max_queue(max_queue))
}

/// The [`bounded_cascade`] emitting into a daemon member's flight
/// recorder.
pub(crate) fn sinked_scheduler(
    max_queue: usize,
    sink: SharedSink<FlightRecorder>,
) -> Box<dyn DiskScheduler> {
    Box::new(
        CascadedSfc::with_sink(bounded_cascade(max_queue), sink).expect("valid cascade config"),
    )
}

pub(crate) fn unbounded_scheduler() -> Box<dyn DiskScheduler> {
    Box::new(
        CascadedSfc::new(CascadeConfig::paper_default(1, CYLINDERS)).expect("valid cascade config"),
    )
}
