//! Per-request event timeline of one Cascaded-SFC run.
//!
//! Runs the paper-default three-stage scheduler over a Figure-5 Poisson
//! workload with *every* trace hook live: the engine's request
//! lifecycle events (arrival → dispatch → service → complete/drop) and
//! the dispatcher's internal events (preemptions, SP promotions, ER
//! expansions/resets, queue swaps) interleave into one stream. A
//! [`obs::SharedSink`] fans the stream into a [`obs::Snapshot`] (for
//! the printed summary) *and* the caller's own sink (JSONL or CSV on
//! disk for the `trace` binary).
//!
//! The run double-checks itself: [`Report::reconcile`] verifies that
//! the event-derived counters agree exactly with the simulator's
//! [`Metrics`] and the dispatcher's own counters, so a timeline on disk
//! is guaranteed complete — every served request really has its four
//! lifecycle events, every preemption its event.

use cascade::{CascadeConfig, CascadedSfc, PreemptionMode};
use diskmodel::{Disk, FaultPlan};
use obs::{SharedSink, Snapshot, Tee, TraceSink};
use sim::{simulate_traced, DiskService, Metrics, ServiceProvider, SimOptions, TransferDominated};
use workload::PoissonConfig;

/// Traced-run parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// RNG seed.
    pub seed: u64,
    /// Requests to generate.
    pub requests: usize,
    /// QoS dimensions.
    pub dims: u32,
    /// Per-request service time (µs).
    pub service_us: u64,
    /// Blocking window, percent of the scheduling space.
    pub window_pct: u32,
    /// Transient media-error rate (ppm per request). Any nonzero fault
    /// rate switches the service model from the transfer-dominated
    /// abstraction to the full Table-1 disk behind a fault injector.
    pub transient_ppm: u32,
    /// Latent bad-sector rate (ppm per request).
    pub bad_sector_ppm: u32,
    /// Retry budget per request (attempts, 1 = never retry).
    pub retries: u32,
    /// Bounded-queue load shedding: hold at most this many pending
    /// requests, shedding the lowest-priority victim on overflow.
    /// 0 = unbounded.
    pub max_queue: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: crate::DEFAULT_SEED,
            requests: 5_000,
            dims: 2,
            service_us: 20_000,
            window_pct: 10,
            transient_ppm: 0,
            bad_sector_ppm: 0,
            retries: 1,
            max_queue: 0,
        }
    }
}

/// Everything one traced run produced, minus the raw event stream
/// (which went to the caller's sink).
#[derive(Debug)]
pub struct Report {
    /// The simulator's aggregate metrics.
    pub metrics: Metrics,
    /// Histograms and counters distilled from the event stream.
    pub snapshot: Snapshot,
    /// Dispatcher's own count of preemptions.
    pub preemptions: u64,
    /// Dispatcher's own count of serve-promote promotions.
    pub promotions: u64,
    /// Dispatcher's own count of queue swaps.
    pub swaps: u64,
    /// Dispatcher's own count of shed requests (bounded queue).
    pub sheds: u64,
}

impl Report {
    /// Cross-check the event stream against the independently-kept
    /// [`Metrics`] and dispatcher counters. Any mismatch means events
    /// were lost or double-emitted; the error names the first
    /// discrepancy.
    pub fn reconcile(&self) -> Result<(), String> {
        let c = &self.snapshot.counters;
        let m = &self.metrics;
        m.reconcile(c)?;
        let checks = [
            (
                "arrivals vs dispatches+sheds",
                c.arrivals,
                c.dispatches + c.sheds,
            ),
            ("shed events vs dispatcher", c.sheds, self.sheds),
            (
                "preempt events vs dispatcher",
                c.preemptions,
                self.preemptions,
            ),
            (
                "sp_promote events vs dispatcher",
                c.sp_promotions,
                self.promotions,
            ),
            ("queue_swap events vs dispatcher", c.queue_swaps, self.swaps),
            // paper_default has ER on: the window expands at every
            // blocked preemption and every SP promotion.
            (
                "er_expands vs preempts+promotions",
                c.er_expands,
                self.preemptions + self.promotions,
            ),
        ];
        for (what, got, want) in checks {
            if got != want {
                return Err(format!("{what}: {got} != {want}"));
            }
        }
        if self.snapshot.response_us.count() != m.served {
            return Err("response histogram count vs served".into());
        }
        if m.served > 0 && self.snapshot.response_us.max() != Some(m.max_response_us) {
            return Err("response histogram max vs max_response_us".into());
        }
        Ok(())
    }
}

/// Run one fully-traced paper-default simulation, interleaving engine
/// and dispatcher events into `event_sink`. Returns the report and the
/// sink (with the complete stream) back to the caller.
pub fn run_with_sink<E: TraceSink>(cfg: &Config, event_sink: E) -> (Report, E) {
    let mut cascade_cfg = CascadeConfig::paper_default(cfg.dims, 3832);
    cascade_cfg.dispatch.mode = PreemptionMode::Conditional {
        window: cfg.window_pct as f64 / 100.0,
    };
    if cfg.max_queue > 0 {
        cascade_cfg.dispatch = cascade_cfg.dispatch.with_max_queue(cfg.max_queue);
    }

    let shared = SharedSink::new(Tee::new(Snapshot::new(), event_sink));
    let mut engine_sink = shared.clone();
    let mut scheduler =
        CascadedSfc::with_sink(cascade_cfg, shared.clone()).expect("valid cascade config");

    let trace = PoissonConfig::figure5(cfg.dims, cfg.requests).generate(cfg.seed);
    // Fault injection needs a disk with real per-attempt timing (the
    // retry pays another revolution); the healthy run keeps the
    // transfer-dominated abstraction the Figure-5 setting assumes.
    let mut service: Box<dyn ServiceProvider> = if cfg.transient_ppm > 0 || cfg.bad_sector_ppm > 0 {
        let plan = FaultPlan::media(cfg.seed, cfg.transient_ppm, cfg.bad_sector_ppm);
        Box::new(DiskService::with_faults(Disk::table1(), plan))
    } else {
        Box::new(TransferDominated::uniform(cfg.service_us, 3832))
    };
    let metrics = simulate_traced(
        &mut scheduler,
        &trace,
        service.as_mut(),
        SimOptions::with_shape(cfg.dims as usize, 16).with_retries(cfg.retries),
        &mut engine_sink,
    );

    let (preemptions, promotions, swaps) = scheduler.dispatch_counters();
    let sheds = scheduler.sheds();
    drop(engine_sink);
    drop(scheduler.into_sink());
    let tee = shared
        .try_unwrap()
        .unwrap_or_else(|_| panic!("all sink clones dropped"));
    let (snapshot, event_sink) = tee.into_inner();
    (
        Report {
            metrics,
            snapshot,
            preemptions,
            promotions,
            swaps,
            sheds,
        },
        event_sink,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::{JsonlSink, NullSink, RingSink};

    fn small() -> Config {
        Config {
            requests: 800,
            ..Default::default()
        }
    }

    #[test]
    fn traced_run_reconciles() {
        let (report, _) = run_with_sink(&small(), NullSink);
        report.reconcile().expect("events reconcile");
        assert_eq!(
            report.metrics.served + report.metrics.dropped,
            800,
            "every request accounted for"
        );
        assert!(report.swaps > 0, "a saturating run swaps queues");
    }

    #[test]
    fn jsonl_stream_has_one_line_per_event() {
        let (report, sink) = run_with_sink(&small(), JsonlSink::new(Vec::new()));
        let buf = sink.into_inner();
        let text = String::from_utf8(buf).expect("utf-8 jsonl");
        let lines = text.lines().count() as u64;
        let c = &report.snapshot.counters;
        let events = c.arrivals
            + c.dispatches
            + c.service_starts
            + c.service_completes
            + c.drops
            + c.preemptions
            + c.sp_promotions
            + c.er_expands
            + c.er_resets
            + c.queue_swaps
            + c.sweep_reversals
            + c.media_errors
            + c.retries
            + c.request_failures
            + c.sector_remaps
            + c.degraded_reads
            + c.rebuild_ios
            + c.sheds;
        assert_eq!(lines, events);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn faulted_run_reconciles_and_streams_fault_events() {
        let cfg = Config {
            transient_ppm: 120_000,
            bad_sector_ppm: 30_000,
            retries: 3,
            ..small()
        };
        let (report, sink) = run_with_sink(&cfg, JsonlSink::new(Vec::new()));
        report.reconcile().expect("faulted events reconcile");
        let m = &report.metrics;
        assert!(m.media_errors > 0, "rate should fire");
        assert!(m.retries > 0);
        assert!(m.sector_remaps > 0);
        assert_eq!(m.served + m.dropped + m.failed, 800);
        let text = String::from_utf8(sink.into_inner()).expect("utf-8 jsonl");
        assert!(text.contains("\"media_error\""));
        assert!(text.contains("\"retry\""));
        assert!(text.contains("\"sector_remap\""));
    }

    #[test]
    fn bounded_queue_run_sheds_and_reconciles() {
        let cfg = Config {
            max_queue: 16,
            // Service slower than the 25 ms mean interarrival: the queue
            // grows without bound, so the cap must shed.
            service_us: 40_000,
            ..small()
        };
        let (report, _) = run_with_sink(&cfg, NullSink);
        report.reconcile().expect("shedding run reconciles");
        assert!(report.sheds > 0, "a saturating run must overflow cap 16");
        assert_eq!(
            report.snapshot.counters.dispatches + report.sheds,
            800,
            "every request either dispatched or shed"
        );
    }

    #[test]
    fn ring_and_snapshot_see_the_same_stream() {
        let (report, ring) = run_with_sink(&small(), RingSink::new(1 << 20));
        let arrivals = ring.events().filter(|e| e.name() == "arrival").count() as u64;
        assert_eq!(arrivals, report.snapshot.counters.arrivals);
        assert_eq!(ring.evicted(), 0, "ring sized for the whole run");
    }
}
