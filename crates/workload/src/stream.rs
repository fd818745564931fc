//! Streaming trace sources: pull-based request generation for horizons
//! too long to materialize.
//!
//! A materialized trace — a [`crate::Trace`], a `Vec<Request>` — is fine
//! for a 30-second figure reproduction and hopeless for the ROADMAP's
//! north star: a farm serving **millions of sessions over multi-hour
//! horizons**, where the trace would be gigabytes. [`TraceSource`] is
//! the pull-based alternative: a time-ordered iterator of requests that
//! the consumer (the [`sim::EngineStepper`] pump or the farm daemon's
//! ingest loop) drains one arrival at a time, in bounded memory.
//!
//! Every generator in this crate is a source, and so is any materialized
//! trace:
//!
//! * the open-loop generators — [`crate::PoissonConfig::generate`],
//!   [`crate::NewsByteConfig::generate`] and
//!   [`crate::VodConfig::generate`] — return streams that hold one small
//!   buffer (a chunk of Poisson arrivals, one burst tick of NewsByte or
//!   VoD requests) and emit exactly the requests, order and ids a
//!   materialized trace would; `.collect()` one where a [`crate::Trace`]
//!   is needed;
//! * [`VecSource`] — the adapter: any materialized trace becomes a
//!   source, which is how the oracle proves the streaming ingest paths
//!   bit-identical to the batch engines;
//! * [`SessionSource`] — the **closed-loop client population**: stream
//!   sessions are born from a non-homogeneous Poisson process over a
//!   [`RateCurve`] (constant, diurnal, flash-crowd — curves compose by
//!   summing), live through a per-session playback loop (one block per
//!   period plus an exponential think gap), and die after a bounded
//!   number of blocks, freeing their state. Only *live* sessions occupy
//!   memory — a million-session day fits in a heap of a few hundred
//!   entries. Mixed tenancy (VoD playback vs. NewsByte-style editing
//!   bursts) is drawn per session, and the consumer can push back:
//!   [`TraceSource::observe`] reports its backlog, and the source
//!   stretches future think times in response — the closed loop the
//!   open-loop generators cannot express.
//!
//! Everything is deterministic given the seed *and* the observe
//! sequence: session birth times depend only on the seed (Poisson
//! thinning), per-session draws come from a splitmix-derived private
//! stream keyed by `(seed, session id)`, and backpressure only scales
//! think-time means going forward.
//!
//! [`sim::EngineStepper`]: ../sim/struct.EngineStepper.html

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sched::{Micros, OpKind, QosVector, Request};

use crate::dist;

/// A pull-based, time-ordered request source.
///
/// The iterator contract: `next()` yields requests with non-decreasing
/// `arrival_us` and densely increasing ids (the [`crate::validate_trace`]
/// invariant, streamed). The extra hook closes the loop: a consumer may
/// call [`TraceSource::observe`] after absorbing each arrival to report
/// how much work it still has queued, and adaptive sources slow their
/// clients down.
pub trait TraceSource: Iterator<Item = Request> {
    /// Backpressure feedback: the consumer's current backlog (queued +
    /// undelivered requests) after absorbing the latest arrival.
    /// Open-loop sources ignore it.
    fn observe(&mut self, _backlog: usize) {}
}

/// A materialized trace as a source — the batch/streaming bridge.
#[derive(Debug)]
pub struct VecSource {
    items: std::vec::IntoIter<Request>,
    last_us: Micros,
}

impl VecSource {
    /// Wrap a trace. The trace must be arrival-sorted (every generator
    /// in this crate produces that); violations panic at the offending
    /// element rather than desynchronizing a downstream engine.
    pub fn new(trace: crate::Trace) -> Self {
        VecSource {
            items: trace.into_iter(),
            last_us: 0,
        }
    }
}

impl Iterator for VecSource {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let r = self.items.next()?;
        assert!(
            r.arrival_us >= self.last_us,
            "VecSource requires an arrival-sorted trace: {} after {}",
            r.arrival_us,
            self.last_us
        );
        self.last_us = r.arrival_us;
        Some(r)
    }
}

impl TraceSource for VecSource {}

/// Session arrival-rate curve, in sessions per minute. Curves compose
/// by summation (a [`SessionConfig`] takes a list), so "diurnal base
/// plus a lunchtime flash crowd" is two entries.
#[derive(Debug, Clone, Copy)]
pub enum RateCurve {
    /// A flat rate.
    Constant {
        /// Sessions per minute.
        per_minute: f64,
    },
    /// A raised-cosine day/night cycle: the rate swings between `base`
    /// (at phase 0) and `peak` (half a period later).
    Diurnal {
        /// Trough rate (sessions per minute).
        base_per_minute: f64,
        /// Crest rate (sessions per minute).
        peak_per_minute: f64,
        /// Cycle length (µs) — 24 simulated hours for a true diurnal.
        period_us: u64,
    },
    /// A Gaussian surge centred at `at_us`: everyone shows up for the
    /// premiere.
    FlashCrowd {
        /// Extra sessions per minute at the crest.
        spike_per_minute: f64,
        /// Crest time (µs).
        at_us: u64,
        /// Standard deviation of the surge (µs).
        width_us: u64,
    },
}

impl RateCurve {
    /// Instantaneous rate at `t`, in sessions per µs.
    pub fn rate_per_us(&self, t: u64) -> f64 {
        const US_PER_MINUTE: f64 = 60_000_000.0;
        match *self {
            RateCurve::Constant { per_minute } => per_minute / US_PER_MINUTE,
            RateCurve::Diurnal {
                base_per_minute,
                peak_per_minute,
                period_us,
            } => {
                let phase = (t % period_us.max(1)) as f64 / period_us.max(1) as f64;
                let swing = 0.5 * (1.0 - (std::f64::consts::TAU * phase).cos());
                (base_per_minute + (peak_per_minute - base_per_minute) * swing) / US_PER_MINUTE
            }
            RateCurve::FlashCrowd {
                spike_per_minute,
                at_us,
                width_us,
            } => {
                let z = (t as f64 - at_us as f64) / width_us.max(1) as f64;
                spike_per_minute * (-0.5 * z * z).exp() / US_PER_MINUTE
            }
        }
    }

    /// An upper bound on [`RateCurve::rate_per_us`] over all `t` — the
    /// majorant the Poisson thinning rejects against.
    pub fn peak_per_us(&self) -> f64 {
        const US_PER_MINUTE: f64 = 60_000_000.0;
        match *self {
            RateCurve::Constant { per_minute } => per_minute / US_PER_MINUTE,
            RateCurve::Diurnal {
                base_per_minute,
                peak_per_minute,
                ..
            } => base_per_minute.max(peak_per_minute) / US_PER_MINUTE,
            RateCurve::FlashCrowd {
                spike_per_minute, ..
            } => spike_per_minute / US_PER_MINUTE,
        }
    }
}

/// Which tenant a session belongs to — the two workload families of the
/// paper, now sharing one farm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tenant {
    /// VoD playback: one 64-KB block per MPEG-1 period, read-only,
    /// one-period deadlines, sequential cylinder walk.
    Vod,
    /// NewsByte-style editing: blocks on the striped period, tight
    /// 75–150 ms deadlines, a read/write mix, normal priority levels.
    NewsByte,
}

/// Configuration of the closed-loop session population.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Arrival-rate curves, summed. Must not be empty.
    pub curves: Vec<RateCurve>,
    /// Stop creating sessions after this many (the population cap).
    pub max_sessions: u64,
    /// No session is born at or after this time (µs); already-live
    /// sessions run to completion past it.
    pub horizon_us: u64,
    /// Fraction of sessions on the NewsByte editing tenant; the rest
    /// are VoD playback.
    pub newsbyte_fraction: f64,
    /// Blocks per session, drawn uniformly from this inclusive range.
    pub blocks: (u32, u32),
    /// Mean exponential think gap appended to each playback period (µs).
    pub think_mean_us: u64,
    /// Priority levels (QoS dimension 0).
    pub levels: u8,
    /// Cylinders on the target disk(s).
    pub cylinders: u32,
    /// Bytes per block request.
    pub block_bytes: u64,
    /// Backlog (requests) at which backpressure doubles think times;
    /// the stretch grows linearly with the reported backlog and is
    /// capped at 8×.
    pub backpressure_backlog: usize,
}

impl SessionConfig {
    /// A mixed-tenant population: a diurnal VoD/editing base with an
    /// evening flash crowd, sized so the cap of `max_sessions` binds
    /// before `horizon_us` (the curves overshoot by design — the cap is
    /// the contract, the curves are the shape).
    pub fn mixed(max_sessions: u64, horizon_us: u64) -> Self {
        // Average ~1.4× the rate that would spread max_sessions evenly
        // over the horizon, so the cap binds with margin.
        let per_minute = max_sessions as f64 / (horizon_us as f64 / 60_000_000.0) * 1.4;
        SessionConfig {
            curves: vec![
                RateCurve::Diurnal {
                    base_per_minute: per_minute * 0.4,
                    peak_per_minute: per_minute * 1.2,
                    period_us: horizon_us.max(2),
                },
                RateCurve::FlashCrowd {
                    spike_per_minute: per_minute * 2.0,
                    at_us: horizon_us / 2,
                    width_us: (horizon_us / 40).max(1),
                },
            ],
            max_sessions,
            horizon_us,
            newsbyte_fraction: 0.3,
            blocks: (2, 4),
            think_mean_us: 50_000,
            levels: 8,
            cylinders: 3832,
            block_bytes: 64 * 1024,
            backpressure_backlog: 1024,
        }
    }
}

/// One live session's playback state.
#[derive(Debug)]
struct Session {
    sid: u64,
    tenant: Tenant,
    level: u8,
    writes: bool,
    cylinder: u32,
    blocks_left: u32,
    block_index: u32,
    rng: StdRng,
}

/// Heap entry ordered by (time, session id); the session payload is
/// carried along but never compared (its RNG has no order).
struct Pending {
    at_us: Micros,
    session: Session,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        (self.at_us, self.session.sid) == (other.at_us, other.session.sid)
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        (other.at_us, other.session.sid).cmp(&(self.at_us, self.session.sid))
    }
}

impl Pending {
    /// Build the request due at `at_us` (with the given id) and advance
    /// the session past it: `at_us` becomes its next block time, unless
    /// that was its last block (`blocks_left == 0`).
    fn play(&mut self, cfg: &SessionConfig, pressure: f64, id: u64) -> Request {
        let s = &mut self.session;
        let arrival = self.at_us;
        let period = match s.tenant {
            Tenant::Vod => VOD_PERIOD_US,
            Tenant::NewsByte => NEWSBYTE_PERIOD_US,
        };
        let deadline = match s.tenant {
            Tenant::Vod => arrival + period,
            Tenant::NewsByte => arrival + s.rng.gen_range(75_000..=150_000),
        };
        let cylinder = match s.tenant {
            Tenant::Vod => (s.cylinder + s.block_index) % cfg.cylinders,
            Tenant::NewsByte => (s.cylinder + s.block_index % 32) % cfg.cylinders,
        };
        let mut r = Request::read(
            id,
            arrival,
            deadline,
            cylinder,
            cfg.block_bytes,
            QosVector::single(s.level),
        )
        .with_stream(s.sid);
        if s.writes && s.block_index % 2 == 1 {
            r.kind = OpKind::Write;
        }
        s.blocks_left -= 1;
        s.block_index += 1;
        if s.blocks_left > 0 {
            let think_mean = (cfg.think_mean_us as f64 * pressure).round() as u64;
            let think = if think_mean == 0 {
                0
            } else {
                dist::exp_us(&mut s.rng, think_mean)
            };
            self.at_us = arrival + period + think;
        }
        r
    }
}

/// MPEG-1 block period: 64 KB × 8 / 1.5 Mb/s ≈ 349.5 ms.
const VOD_PERIOD_US: Micros = 349_525;
/// The NewsByte on-disk period: one block in four lands here (RAID-5
/// striping over 4 data disks), so the per-disk period is 4× longer.
const NEWSBYTE_PERIOD_US: Micros = 1_398_101;

/// The closed-loop session population. See the module docs for the
/// model; drive it like any iterator, feeding [`TraceSource::observe`]
/// after each absorbed arrival to close the loop.
pub struct SessionSource {
    cfg: SessionConfig,
    seed: u64,
    /// The arrival process' own RNG (births only).
    births: StdRng,
    /// Next session birth, if the process is still running.
    next_birth_us: Option<Micros>,
    /// Live sessions keyed by their next request time.
    heap: BinaryHeap<Pending>,
    sessions_started: u64,
    peak_live: usize,
    emitted: u64,
    last_emitted_us: Micros,
    /// Current think-time stretch from consumer backpressure (≥ 1).
    pressure: f64,
}

impl SessionSource {
    /// Build the population. Panics on an empty curve list, a zero
    /// session cap, or a zero-rate curve sum (no session could ever be
    /// born).
    pub fn new(cfg: SessionConfig, seed: u64) -> Self {
        assert!(!cfg.curves.is_empty(), "at least one rate curve");
        assert!(cfg.max_sessions > 0, "a zero-session population");
        assert!(cfg.blocks.0 >= 1 && cfg.blocks.0 <= cfg.blocks.1);
        assert!(cfg.levels > 0 && cfg.cylinders > 0);
        let peak: f64 = cfg.curves.iter().map(RateCurve::peak_per_us).sum();
        assert!(peak > 0.0, "the summed rate curves never fire");
        let mut source = SessionSource {
            cfg,
            seed,
            births: StdRng::seed_from_u64(seed ^ 0x5e55_1055),
            next_birth_us: Some(0),
            heap: BinaryHeap::new(),
            sessions_started: 0,
            peak_live: 0,
            emitted: 0,
            last_emitted_us: 0,
            pressure: 1.0,
        };
        source.advance_birth(0);
        source
    }

    /// Sessions created so far.
    pub fn sessions_started(&self) -> u64 {
        self.sessions_started
    }

    /// High-water mark of simultaneously live sessions — the
    /// bounded-memory witness: this, not the total session count, is
    /// what the source keeps in memory.
    pub fn peak_live_sessions(&self) -> usize {
        self.peak_live
    }

    /// Requests emitted so far (also the next request id).
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Current think-time stretch factor (1.0 = no backpressure).
    pub fn pressure(&self) -> f64 {
        self.pressure
    }

    fn rate_per_us(&self, t: u64) -> f64 {
        self.cfg.curves.iter().map(|c| c.rate_per_us(t)).sum()
    }

    /// Advance the birth process past `from` by Poisson thinning: draw
    /// candidate gaps at the majorant rate, accept each with
    /// probability `rate(t)/peak`. Terminates at the horizon or the
    /// session cap.
    fn advance_birth(&mut self, from: Micros) {
        if self.sessions_started >= self.cfg.max_sessions {
            self.next_birth_us = None;
            return;
        }
        let peak: f64 = self.cfg.curves.iter().map(RateCurve::peak_per_us).sum();
        let mean_gap_us = (1.0 / peak).round().max(1.0) as u64;
        let mut t = from;
        loop {
            t = t.saturating_add(dist::exp_us(&mut self.births, mean_gap_us).max(1));
            if t >= self.cfg.horizon_us {
                self.next_birth_us = None;
                return;
            }
            if self.births.gen::<f64>() * peak <= self.rate_per_us(t) {
                self.next_birth_us = Some(t);
                return;
            }
        }
    }

    /// Create the session due at `at_us` and queue its first request.
    fn spawn(&mut self, at_us: Micros) {
        let sid = self.sessions_started;
        self.sessions_started += 1;
        // Private per-session stream: splitmix over (seed, sid) — the
        // session's draws never depend on sibling order.
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ sid.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17),
        );
        let tenant = if rng.gen::<f64>() < self.cfg.newsbyte_fraction {
            Tenant::NewsByte
        } else {
            Tenant::Vod
        };
        let level = match tenant {
            Tenant::Vod => rng.gen_range(0..self.cfg.levels),
            Tenant::NewsByte => dist::normal_level(&mut rng, self.cfg.levels),
        };
        let writes = tenant == Tenant::NewsByte && rng.gen::<f64>() < 0.3;
        let session = Session {
            sid,
            tenant,
            level,
            writes,
            cylinder: rng.gen_range(0..self.cfg.cylinders),
            blocks_left: rng.gen_range(self.cfg.blocks.0..=self.cfg.blocks.1),
            block_index: 0,
            rng,
        };
        self.heap.push(Pending { at_us, session });
        self.peak_live = self.peak_live.max(self.heap.len());
        self.advance_birth(at_us);
    }

    /// Emit the earliest pending session's next request, then either
    /// reschedule it in place — one sift when the guard drops, where a
    /// pop and a push make three — or retire it.
    fn emit(&mut self) -> Request {
        let mut top = self.heap.peek_mut().expect("peeked entry");
        let r = top.play(&self.cfg, self.pressure, self.emitted);
        if top.session.blocks_left == 0 {
            // A retired session's slot is gone.
            PeekMut::pop(top);
        }
        self.emitted += 1;
        self.last_emitted_us = r.arrival_us;
        r
    }
}

impl Iterator for SessionSource {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        loop {
            match (self.next_birth_us, self.heap.peek()) {
                // Births at or before the next playback event happen
                // first, so a newborn's first request interleaves at its
                // true time.
                (Some(b), Some(top)) if b <= top.at_us => self.spawn(b),
                (Some(b), None) => self.spawn(b),
                (None, None) => return None,
                _ => return Some(self.emit()),
            }
        }
    }
}

impl TraceSource for SessionSource {
    fn observe(&mut self, backlog: usize) {
        let stretch = 1.0 + backlog as f64 / self.cfg.backpressure_backlog.max(1) as f64;
        self.pressure = stretch.min(8.0);
    }
}

/// A seeded batch for the analytic seek oracle: `n` simultaneous
/// requests at time 0 with independently uniform cylinders, one shared
/// QoS level and relaxed deadlines — the population for which the
/// closed-form sweep expectation
/// (`sim::analysis::expected_sweep_seek`) holds exactly.
pub fn uniform_batch(seed: u64, n: u64, cylinders: u32) -> crate::Trace {
    assert!(cylinders > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            Request::read(
                i,
                0,
                Micros::MAX,
                rng.gen_range(0..cylinders),
                64 * 1024,
                QosVector::single(0),
            )
            .with_stream(i)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate_trace;

    fn small() -> SessionConfig {
        SessionConfig::mixed(500, 600_000_000) // 500 sessions over 10 min
    }

    #[test]
    fn vec_source_streams_a_trace_verbatim() {
        let trace: Vec<_> = crate::VodConfig::mpeg1(6).generate(3).collect();
        let out: Vec<Request> = VecSource::new(trace.clone()).collect();
        assert_eq!(out, trace);
    }

    #[test]
    #[should_panic(expected = "arrival-sorted")]
    fn vec_source_rejects_unsorted_input() {
        let mut trace: Vec<_> = crate::VodConfig::mpeg1(4).generate(1).collect();
        let last = trace.len() - 1;
        trace.swap(0, last);
        let _: Vec<Request> = VecSource::new(trace).collect();
    }

    #[test]
    fn sessions_emit_a_valid_dense_sorted_stream() {
        let mut src = SessionSource::new(small(), 42);
        let trace: Vec<Request> = src.by_ref().collect();
        assert!(validate_trace(&trace), "sorted arrivals, dense ids");
        assert_eq!(src.sessions_started(), 500, "the cap binds");
        assert_eq!(src.emitted() as usize, trace.len());
        assert_eq!(src.heap.len(), 0, "every session retired");
        // 2–4 blocks per session.
        assert!(
            trace.len() >= 1_000 && trace.len() <= 2_000,
            "{}",
            trace.len()
        );
    }

    #[test]
    fn deterministic_across_runs_and_seed_sensitive() {
        let a: Vec<Request> = SessionSource::new(small(), 7).collect();
        let b: Vec<Request> = SessionSource::new(small(), 7).collect();
        let c: Vec<Request> = SessionSource::new(small(), 8).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    /// `Iterator::next` as it was before the in-place reschedule: take
    /// the earliest entry out, play it, put it back.
    fn next_pop_then_push(src: &mut SessionSource) -> Option<Request> {
        loop {
            match (src.next_birth_us, src.heap.peek()) {
                (Some(b), Some(top)) if b <= top.at_us => src.spawn(b),
                (Some(b), None) => src.spawn(b),
                (None, None) => return None,
                _ => {
                    let mut p = src.heap.pop().expect("peeked entry");
                    let r = p.play(&src.cfg, src.pressure, src.emitted);
                    if p.session.blocks_left > 0 {
                        src.heap.push(p);
                    }
                    src.emitted += 1;
                    src.last_emitted_us = r.arrival_us;
                    return Some(r);
                }
            }
        }
    }

    #[test]
    fn rescheduling_in_place_emits_the_pop_then_push_stream() {
        // Enough concurrent sessions that equal block times occur and the
        // heap is a few levels deep; long sessions so reschedules dominate.
        let mut cfg = SessionConfig::mixed(20_000, 600_000_000);
        cfg.blocks = (2, 30);
        let mut in_place = SessionSource::new(cfg.clone(), 20040330);
        let mut reference = SessionSource::new(cfg, 20040330);
        let mut backlog = 0usize;
        for i in 0..200_000u64 {
            let want = next_pop_then_push(&mut reference).expect("200k requests");
            assert_eq!(in_place.next().as_ref(), Some(&want), "request {i}");
            // A consumer whose backlog wanders over the whole stretch
            // range, so think times (hence the order) depend on it.
            backlog = (backlog * 31 + want.cylinder as usize) % 9_000;
            in_place.observe(backlog);
            reference.observe(backlog);
        }
        assert_eq!(in_place.heap.len(), reference.heap.len());
        assert_eq!(
            in_place.peak_live_sessions(),
            reference.peak_live_sessions()
        );
        assert!(in_place.peak_live_sessions() > 100);
    }

    #[test]
    fn live_population_is_bounded_far_below_total() {
        let mut cfg = SessionConfig::mixed(5_000, 3_600_000_000); // an hour
        cfg.blocks = (2, 3);
        let mut src = SessionSource::new(cfg, 11);
        let n = src.by_ref().count();
        assert!(n >= 10_000);
        assert_eq!(src.sessions_started(), 5_000);
        // Sessions last ~1–2 s against an hour-long horizon: the live
        // set must be orders of magnitude below the total population.
        assert!(
            src.peak_live_sessions() < 500,
            "peak live {} of 5000 total",
            src.peak_live_sessions()
        );
    }

    #[test]
    fn both_tenants_and_both_op_kinds_appear() {
        let trace: Vec<Request> = SessionSource::new(small(), 5).collect();
        let vod_deadlines = trace
            .iter()
            .filter(|r| r.deadline_us - r.arrival_us == VOD_PERIOD_US)
            .count();
        let editing_deadlines = trace
            .iter()
            .filter(|r| (75_000..=150_000).contains(&(r.deadline_us - r.arrival_us)))
            .count();
        assert!(vod_deadlines > 0, "VoD tenant missing");
        assert!(editing_deadlines > 0, "NewsByte tenant missing");
        assert!(trace.iter().any(|r| r.kind == OpKind::Write));
        assert!(trace.iter().any(|r| r.kind == OpKind::Read));
    }

    #[test]
    fn backpressure_stretches_think_times() {
        // Same seed, one run with a persistently swamped consumer: the
        // pressured run must spread the same sessions over a longer
        // span (think gaps scale with pressure).
        let mut relaxed = SessionSource::new(small(), 9);
        let mut swamped = SessionSource::new(small(), 9);
        let mut relaxed_last = 0;
        while let Some(r) = relaxed.next() {
            relaxed.observe(0);
            relaxed_last = r.arrival_us;
        }
        let mut swamped_last = 0;
        while let Some(r) = swamped.next() {
            swamped.observe(1 << 20); // way past the backlog knee
            swamped_last = r.arrival_us;
        }
        assert!(swamped.pressure() > relaxed.pressure());
        assert!(
            swamped_last > relaxed_last,
            "pressure must defer the tail: {swamped_last} vs {relaxed_last}"
        );
    }

    #[test]
    fn flash_crowd_concentrates_births() {
        let horizon = 600_000_000u64;
        let cfg = SessionConfig {
            curves: vec![RateCurve::FlashCrowd {
                spike_per_minute: 2_000.0,
                at_us: horizon / 2,
                width_us: horizon / 40,
            }],
            ..SessionConfig::mixed(400, horizon)
        };
        let trace: Vec<Request> = SessionSource::new(cfg, 13).collect();
        // The crowd must cluster around the crest: at least 2/3 of
        // arrivals within ±3σ of it.
        let (lo, hi) = (
            horizon / 2 - 3 * (horizon / 40),
            horizon / 2 + 3 * (horizon / 40),
        );
        let inside = trace
            .iter()
            .filter(|r| (lo..=hi).contains(&r.arrival_us))
            .count();
        assert!(
            inside * 3 >= trace.len() * 2,
            "{inside} of {} inside the surge window",
            trace.len()
        );
    }

    #[test]
    fn uniform_batch_is_simultaneous_uniform_and_relaxed() {
        let batch = uniform_batch(21, 4_096, 3832);
        assert_eq!(batch.len(), 4_096);
        assert!(validate_trace(&batch));
        assert!(batch.iter().all(|r| r.arrival_us == 0));
        assert!(batch.iter().all(|r| r.deadline_us == Micros::MAX));
        assert!(batch.iter().all(|r| r.cylinder < 3832));
        // Coarse uniformity: each third of the disk gets a fair share.
        let third = 3832 / 3;
        let low = batch.iter().filter(|r| r.cylinder < third).count();
        let mid = batch
            .iter()
            .filter(|r| (third..2 * third).contains(&r.cylinder))
            .count();
        assert!((low as i64 - mid as i64).abs() < 400, "{low} vs {mid}");
    }
}
