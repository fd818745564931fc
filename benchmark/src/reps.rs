//! What both modes share: set-ups, and the untraced repetitions every
//! host-time figure comes from.

use farm::DaemonReport;

use crate::metrics::Values;
use crate::refkernel::{Reference, NOMINAL_NS_PER_OP};
use crate::run::{self, ControlTimes, Fingerprint, Rep, Times};
use crate::stats::{median, spread};
use crate::workloads::{ShardPolicy, Workload};

/// A set-up's warm-up pass covers this share of the committed arrivals.
const WARMUP_DIVISOR: u64 = 8;
/// Untraced repetitions: at least this many, then until the summed timed
/// regions reach the budget, but never more than `MAX_REPS`.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 9;

/// One set-up: build the source (first generator segment) and the daemon
/// (scheduler tables, recorders), then a warm-up pass that fills caches
/// and grows the allocator's arenas. Returns its duration in seconds.
///
/// Like every host-time figure the duration is normalised by the
/// reference kernel running beside it — measured in reference operations
/// — and then expressed in seconds at the reference host's nominal speed,
/// so a slow quarter of an hour on a shared host does not read as a
/// set-up regression.
pub fn setup(reference: &mut Reference, w: Workload, seed: u64) -> Result<f64, String> {
    let arrivals = w.arrivals() / WARMUP_DIVISOR;
    let rep = run::untraced(
        reference,
        w,
        seed,
        arrivals,
        w.shards(),
        ShardPolicy::Cascade,
    );
    run::check(&rep.report, arrivals)?;
    Ok((rep.times.build_ref_ops + rep.times.ref_ops) * NOMINAL_NS_PER_OP / 1e9)
}

/// What the untraced repetitions of one process measured.
pub struct Untraced {
    /// The first repetition's report (all are fingerprint-identical).
    pub report: DaemonReport,
    /// What every later repetition, traced or not, must reproduce.
    pub fingerprint: Fingerprint,
    /// Reference operations per arrival, one per repetition.
    pub cost_ratios: Vec<f64>,
    /// Host ns per arrival, one per repetition.
    pub ns_per_req: Vec<f64>,
    /// Mean reference speed during each repetition (ns/op).
    pub ref_ns_per_op: Vec<f64>,
    /// `shutdown()` per repetition (ms).
    pub shutdown_ms: Vec<f64>,
    /// Building source and daemon, per repetition (ms).
    pub build_ms: Vec<f64>,
    /// Allocation calls and bytes inside one timed region (exact repeat).
    pub alloc: (u64, u64),
    /// Control-plane and membership-event times, summed over repetitions.
    pub control: ControlTimes,
    /// High-water mark of live sessions in the source.
    pub peak_live_sessions: usize,
    timed_s: f64,
}

impl Untraced {
    fn start(first: Rep) -> Self {
        let mut u = Untraced {
            fingerprint: Fingerprint::of(&first.report),
            report: first.report,
            cost_ratios: Vec::new(),
            ns_per_req: Vec::new(),
            ref_ns_per_op: Vec::new(),
            shutdown_ms: Vec::new(),
            build_ms: Vec::new(),
            alloc: (first.times.alloc_calls, first.times.alloc_bytes),
            control: ControlTimes::default(),
            peak_live_sessions: first.times.peak_live_sessions,
            timed_s: 0.0,
        };
        u.record(&first.times);
        u
    }

    fn record(&mut self, t: &Times) {
        self.cost_ratios.push(t.cost_ratio());
        self.ns_per_req.push(t.ns_per_req());
        self.ref_ns_per_op.push(t.ref_ns_per_op);
        self.shutdown_ms.push(t.shutdown_ns as f64 / 1e6);
        self.build_ms.push(t.build_ns as f64 / 1e6);
        self.control.merge(&t.control);
        self.timed_s += t.wall_ns as f64 / 1e9;
    }

    /// Repetitions run.
    pub fn reps(&self) -> usize {
        self.cost_ratios.len()
    }

    /// Arrivals handled over all repetitions.
    pub fn arrivals_handled(&self) -> u64 {
        self.report.arrivals * self.reps() as u64
    }

    /// Host-side figures both modes report (the end-to-end run keeps
    /// them in its history record, beside the metrics proper).
    pub fn host_values(&self, values: &mut Values) {
        let ns = median(&self.ns_per_req);
        values.set("host.ns_per_req", ns);
        values.set("host.reqs_per_s", 1e9 / ns);
        values.set("host.ref_ns_per_op", median(&self.ref_ns_per_op));
        values.set("host.rep_spread", spread(&self.cost_ratios));
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        values.set("host.nproc", nproc as f64);
    }
}

/// Repetitions of the untraced daemon path, each a fresh daemon over the
/// committed arrival count with the reference kernel interleaved, until
/// their timed regions sum to `budget_s`.
pub fn untraced_reps(
    reference: &mut Reference,
    w: Workload,
    seed: u64,
    budget_s: f64,
) -> Result<Untraced, String> {
    let arrivals = w.arrivals();
    let mut repetition = || -> Result<Rep, String> {
        let rep = run::untraced(
            reference,
            w,
            seed,
            arrivals,
            w.shards(),
            ShardPolicy::Cascade,
        );
        run::check(&rep.report, arrivals)?;
        Ok(rep)
    };
    let mut u = Untraced::start(repetition()?);
    while (u.reps() < MIN_REPS || u.timed_s < budget_s) && u.reps() < MAX_REPS {
        let rep = repetition()?;
        if Fingerprint::of(&rep.report) != u.fingerprint {
            return Err(format!(
                "repetition {} differs from the first: the run is not deterministic",
                u.reps() + 1
            ));
        }
        u.record(&rep.times);
    }
    Ok(u)
}
