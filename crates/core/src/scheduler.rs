//! The Cascaded-SFC scheduler: encapsulator + dispatcher behind the
//! workspace-wide [`DiskScheduler`] trait.

use crate::config::{CascadeConfig, PreemptionMode, Stage2Combiner};
use crate::dispatcher::{Dispatcher, Key};
use crate::encapsulator::Encapsulator;
use obs::{NullSink, Stage, StageSampler, TraceEvent, TraceSink};
use sched::{DiskScheduler, HeadState, Request, Retune};
use sfc::SfcError;

/// The Cascaded-SFC multimedia disk scheduler (see the crate docs for the
/// architecture).
///
/// The sink parameter defaults to [`obs::NullSink`], so existing code —
/// `CascadedSfc::new(config)` — is untraced and pays nothing. Pass a real
/// sink via [`CascadedSfc::with_sink`] to observe the dispatcher's
/// preemption/SP/ER/swap events.
pub struct CascadedSfc<S: TraceSink = NullSink> {
    encapsulator: Encapsulator,
    queues: Queues,
    sink: S,
    spans: Option<SchedulerSpans>,
}

/// The dispatcher at the width the configuration's values need, chosen
/// at construction and at every retune rebuild: `u64` whenever every value
/// the encapsulator can emit fits — every stage-3 shape short of a stage-3
/// grid tens of bits wide (the paper default tops out near 2²² on the disk
/// and 2⁴¹ at the farthest cylinder a `u32` names) — and `u128` otherwise:
/// stage-2-only shapes such as Fig. 8/9's 75-bit composite and
/// [`crate::presets::edf`].
enum Queues {
    U64(Dispatcher<u64>),
    U128(Dispatcher<u128>),
}

/// Run `$body` with `$d` bound to whichever dispatcher `$queues` holds.
macro_rules! with_dispatcher {
    ($queues:expr, $d:ident => $body:expr) => {
        match $queues {
            Queues::U64($d) => $body,
            Queues::U128($d) => $body,
        }
    };
}

impl Queues {
    fn new(encapsulator: &Encapsulator) -> Queues {
        let dispatch = encapsulator.config().dispatch;
        let max_value = encapsulator.max_value().max(1);
        if encapsulator.fits_u64() {
            Queues::U64(Dispatcher::new(dispatch, max_value))
        } else {
            Queues::U128(Dispatcher::new(dispatch, max_value))
        }
    }
}

/// Per-stage samplers for the scheduler's opt-in wall-clock spans.
struct SchedulerSpans {
    characterize: StageSampler,
    encapsulate: StageSampler,
}

impl CascadedSfc {
    /// Build the (untraced) scheduler from a configuration.
    pub fn new(config: CascadeConfig) -> Result<Self, SfcError> {
        Self::with_sink(config, NullSink)
    }
}

impl<S: TraceSink> CascadedSfc<S> {
    /// Build the scheduler with a trace sink receiving dispatcher events.
    pub fn with_sink(config: CascadeConfig, sink: S) -> Result<Self, SfcError> {
        let encapsulator = Encapsulator::new(config)?;
        Ok(CascadedSfc {
            queues: Queues::new(&encapsulator),
            encapsulator,
            sink,
            spans: None,
        })
    }

    /// Emit sampled wall-clock [`TraceEvent::StageSpan`]s (1-in-`2^shift`
    /// per stage) over the characterize (SFC mapping) and encapsulate
    /// (dispatcher insert) stages. Span durations are wall-clock and thus
    /// nondeterministic; span counts are a deterministic function of the
    /// request stream. A no-op with a [`NullSink`].
    pub fn with_stage_spans(mut self, shift: u32) -> Self {
        self.spans = Some(SchedulerSpans {
            characterize: StageSampler::every_pow2(shift),
            encapsulate: StageSampler::every_pow2(shift),
        });
        self
    }

    /// Start a wall clock for this stage occurrence if tracing is live
    /// and the sampler picks it.
    #[inline]
    fn span_clock(sampler: Option<&mut StageSampler>) -> Option<std::time::Instant> {
        if !S::ENABLED {
            return None;
        }
        let s = sampler?;
        if s.tick() {
            Some(std::time::Instant::now())
        } else {
            None
        }
    }

    /// The encapsulator (e.g. to characterize hypothetical requests).
    pub fn encapsulator(&self) -> &Encapsulator {
        &self.encapsulator
    }

    /// Dispatcher counters: (preemptions, SP promotions, queue swaps).
    pub fn dispatch_counters(&self) -> (u64, u64, u64) {
        with_dispatcher!(&self.queues, d => d.counters())
    }

    /// Requests shed by the bounded queue
    /// ([`crate::config::DispatchConfig::with_max_queue`]) since
    /// construction.
    pub fn sheds(&self) -> u64 {
        with_dispatcher!(&self.queues, d => d.sheds())
    }

    /// Depths of the dispatcher's active and waiting queues, `(q, q')`.
    pub fn queue_depths(&self) -> (usize, usize) {
        with_dispatcher!(&self.queues, d => d.queue_depths())
    }

    /// Insert `req` with characterization value `v`.
    fn insert(&mut self, req: Request, v: u128, now_us: u64) {
        let sink = &mut self.sink;
        with_dispatcher!(&mut self.queues, d => d.insert_traced(req, Key::from_wide(v), now_us, sink));
    }

    /// Reconfigure the encapsulator in place and rebuild the dispatcher
    /// around a mutated configuration, re-inserting the pending backlog in
    /// `(arrival, id)` order anchored at the current head position. Because
    /// the rebuilt dispatcher starts idle (`current == None`), every
    /// re-insert joins the active queue directly — exactly the state a
    /// *fresh* scheduler reaches when fed the same backlog, which is what
    /// makes a retune equivalent to restarting with the new values.
    /// Lifetime counters (preemptions/promotions/swaps/sheds) carry over so
    /// ledgers stay continuous. Returns `false` (leaving the scheduler
    /// untouched) when the mutated configuration is invalid.
    fn retune_with(&mut self, head: &HeadState, mutate: impl FnOnce(&mut CascadeConfig)) -> bool {
        let mut config = self.encapsulator.config().clone();
        mutate(&mut config);
        if self.encapsulator.reconfigure(config).is_err() {
            return false;
        }
        let mut queues = Queues::new(&self.encapsulator);
        with_dispatcher!(&mut queues, new => {
            with_dispatcher!(&self.queues, old => new.carry_counters_from(old))
        });
        let mut backlog = Vec::with_capacity(self.len());
        self.for_each_pending(&mut |r| backlog.push(r.clone()));
        backlog.sort_by_key(|r| (r.arrival_us, r.id));
        self.queues = queues;
        for r in backlog {
            let h = HeadState::new(head.cylinder, r.arrival_us, head.cylinders);
            let v = self.encapsulator.characterize(&r, &h);
            self.insert(r, v, head.now_us);
        }
        true
    }

    /// Retune SFC2's balance factor `f` at a safe epoch boundary.
    /// Returns `false` (no change) unless the configuration uses the
    /// weighted stage-2 combiner and `f` is finite and non-negative.
    /// Setting the current value is a no-op that still returns `true`.
    pub fn set_balance_factor(&mut self, f: f64, head: &HeadState) -> bool {
        if !f.is_finite() || f < 0.0 {
            return false;
        }
        match self.encapsulator.config().stage2.map(|s| s.combiner) {
            Some(Stage2Combiner::Weighted { f: cur }) => {
                cur == f
                    || self.retune_with(head, |c| {
                        c.stage2.as_mut().expect("stage2 present").combiner =
                            Stage2Combiner::Weighted { f };
                    })
            }
            _ => false,
        }
    }

    /// Retune SFC3's scan-partition count `R` at a safe epoch boundary.
    /// Returns `false` (no change) unless stage 3 is configured and
    /// `r >= 1`. Setting the current value is a no-op that returns `true`.
    pub fn set_scan_partitions(&mut self, r: u32, head: &HeadState) -> bool {
        if r == 0 {
            return false;
        }
        match self.encapsulator.config().stage3 {
            Some(s3) => {
                s3.partitions == r
                    || self.retune_with(head, |c| {
                        c.stage3.as_mut().expect("stage3 present").partitions = r;
                    })
            }
            None => false,
        }
    }

    /// Retune the conditional dispatcher's blocking window `w` (a
    /// fraction of the value space, `0.0..=1.0`) at a safe epoch
    /// boundary. Returns `false` (no change) unless the dispatcher runs
    /// in conditional mode and `w` is in range. Setting the current
    /// value is a no-op that returns `true`.
    pub fn set_window(&mut self, w: f64, head: &HeadState) -> bool {
        if !w.is_finite() || !(0.0..=1.0).contains(&w) {
            return false;
        }
        match self.encapsulator.config().dispatch.mode {
            PreemptionMode::Conditional { window } => {
                window == w
                    || self.retune_with(head, |c| {
                        c.dispatch.mode = PreemptionMode::Conditional { window: w };
                    })
            }
            _ => false,
        }
    }

    /// The attached trace sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Consume the scheduler, returning its trace sink.
    pub fn into_sink(self) -> S {
        self.sink
    }
}

impl<S: TraceSink> DiskScheduler for CascadedSfc<S> {
    fn name(&self) -> &'static str {
        "cascaded-sfc"
    }

    fn enqueue(&mut self, req: Request, head: &HeadState) {
        let clock = Self::span_clock(self.spans.as_mut().map(|s| &mut s.characterize));
        let v = self.encapsulator.characterize(&req, head);
        if let Some(t0) = clock {
            self.sink.emit(&TraceEvent::StageSpan {
                now_us: head.now_us,
                stage: Stage::Characterize,
                elapsed_ns: t0.elapsed().as_nanos() as u64,
            });
        }
        let clock = Self::span_clock(self.spans.as_mut().map(|s| &mut s.encapsulate));
        self.insert(req, v, head.now_us);
        if let Some(t0) = clock {
            self.sink.emit(&TraceEvent::StageSpan {
                now_us: head.now_us,
                stage: Stage::Encapsulate,
                elapsed_ns: t0.elapsed().as_nanos() as u64,
            });
        }
    }

    fn dequeue(&mut self, head: &HeadState) -> Option<Request> {
        let enc = &self.encapsulator;
        let sink = &mut self.sink;
        with_dispatcher!(&mut self.queues, d => {
            if enc.config().dispatch.refresh_on_swap {
                let mut refresh = |r: &Request| Key::from_wide(enc.characterize(r, head));
                d.pop_traced(Some(&mut refresh), head.now_us, sink)
            } else {
                d.pop_traced(None, head.now_us, sink)
            }
        })
    }

    fn len(&self) -> usize {
        with_dispatcher!(&self.queues, d => d.len())
    }

    fn for_each_pending(&self, f: &mut dyn FnMut(&Request)) {
        with_dispatcher!(&self.queues, d => d.for_each_pending(f))
    }

    fn state_len(&self) -> usize {
        with_dispatcher!(&self.queues, d => d.state_len())
    }

    fn sheds(&self) -> u64 {
        CascadedSfc::sheds(self)
    }

    fn queue_capacity(&self) -> Option<usize> {
        self.encapsulator.config().dispatch.max_queue
    }

    fn retune(&mut self, knob: &Retune, head: &HeadState) -> bool {
        match *knob {
            Retune::BalanceFactor(f) => self.set_balance_factor(f, head),
            Retune::ScanPartitions(r) => self.set_scan_partitions(r, head),
            Retune::Window(w) => self.set_window(w, head),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DispatchConfig, PreemptionMode, Stage2Combiner};
    use sched::{Edf, Micros, MultiQueue, QosVector};
    use sfc::CurveKind;

    fn head() -> HeadState {
        HeadState::new(0, 0, 3832)
    }

    fn req(id: u64, qos: &[u8], deadline: Micros, cyl: u32) -> Request {
        Request::read(id, 0, deadline, cyl, 65536, QosVector::new(qos))
    }

    /// §4.2 generalization: stage 2 only, f → ∞, fully-preemptive — the
    /// cascade orders a batch exactly like EDF.
    #[test]
    fn generalizes_edf() {
        let cfg = CascadeConfig::priority_deadline(
            CurveKind::Diagonal,
            1,
            4,
            Stage2Combiner::Weighted { f: 1e9 },
            1_000_000,
        )
        .with_dispatch(DispatchConfig::fully_preemptive());
        let mut cascade = CascadedSfc::new(cfg).unwrap();
        let mut edf = Edf::new();
        // All requests arrive at t = 0 so slack order = deadline order.
        let batch = [
            req(1, &[3], 700_000, 100),
            req(2, &[0], 200_000, 3000),
            req(3, &[9], 450_000, 50),
            req(4, &[1], 90_000, 2000),
        ];
        for r in &batch {
            cascade.enqueue(r.clone(), &head());
            edf.enqueue(r.clone(), &head());
        }
        for _ in 0..batch.len() {
            assert_eq!(
                cascade.dequeue(&head()).unwrap().id,
                edf.dequeue(&head()).unwrap().id
            );
        }
    }

    /// §4.2 generalization: stage 1 only on one dimension — the cascade
    /// orders a batch like the multi-queue priority scheduler (ignoring
    /// the intra-level SCAN refinement, which needs SFC3).
    #[test]
    fn generalizes_priority_order() {
        let cfg = CascadeConfig::priority_only(CurveKind::Diagonal, 1, 4);
        let mut cascade = CascadedSfc::new(cfg).unwrap();
        let mut mq = MultiQueue::new(0);
        let batch = [
            req(1, &[5], u64::MAX, 0),
            req(2, &[0], u64::MAX, 0),
            req(3, &[15], u64::MAX, 0),
            req(4, &[2], u64::MAX, 0),
        ];
        for r in &batch {
            cascade.enqueue(r.clone(), &head());
            mq.enqueue(r.clone(), &head());
        }
        for _ in 0..batch.len() {
            assert_eq!(
                cascade.dequeue(&head()).unwrap().id,
                mq.dequeue(&head()).unwrap().id
            );
        }
    }

    /// `queue_depths` exposes the `(q, q')` split of §3: arrivals that
    /// beat the in-service value land in the active queue, the rest wait.
    #[test]
    fn queue_depths_track_active_and_waiting() {
        let cfg =
            CascadeConfig::priority_only(CurveKind::Diagonal, 1, 4).with_dispatch(DispatchConfig {
                mode: PreemptionMode::Conditional { window: 0.0 },
                serve_promote: false,
                expand_factor: None,
                refresh_on_swap: false,
                max_queue: None,
            });
        let mut s = CascadedSfc::new(cfg).unwrap();
        assert_eq!(s.queue_depths(), (0, 0));

        // Idle: the arrival goes straight into the active queue.
        s.enqueue(req(1, &[5], u64::MAX, 100), &head());
        assert_eq!(s.queue_depths(), (1, 0));
        assert_eq!(s.dequeue(&head()).unwrap().id, 1);
        assert_eq!(s.queue_depths(), (0, 0));

        // Worse than the in-service level 5: waits in q'.
        s.enqueue(req(2, &[9], u64::MAX, 100), &head());
        assert_eq!(s.queue_depths(), (0, 1));
        // Better: preempts into the active queue.
        s.enqueue(req(3, &[2], u64::MAX, 100), &head());
        assert_eq!(s.queue_depths(), (1, 1));
        assert_eq!(s.len(), 2);

        // Draining serves the active queue first, then swaps q' in.
        assert_eq!(s.dequeue(&head()).unwrap().id, 3);
        assert_eq!(s.dequeue(&head()).unwrap().id, 2);
        assert_eq!(s.queue_depths(), (0, 0));
    }

    #[test]
    fn full_cascade_round_trips_requests() {
        let mut s = CascadedSfc::new(CascadeConfig::paper_default(3, 3832)).unwrap();
        for i in 0..50u64 {
            s.enqueue(
                req(
                    i,
                    &[(i % 16) as u8, ((i * 7) % 16) as u8, 3],
                    500_000,
                    (i * 71 % 3832) as u32,
                ),
                &head(),
            );
        }
        assert_eq!(s.len(), 50);
        let mut seen = Vec::new();
        while let Some(r) = s.dequeue(&head()) {
            seen.push(r.id);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sink_observes_dispatcher_events() {
        use obs::RingSink;
        let mut s =
            CascadedSfc::with_sink(CascadeConfig::paper_default(2, 3832), RingSink::new(4096))
                .unwrap();
        for i in 0..40u64 {
            let h = HeadState::new((i * 90 % 3832) as u32, i * 1_000, 3832);
            s.enqueue(
                req(
                    i,
                    &[(i % 16) as u8, ((i * 5) % 16) as u8],
                    200_000 + i * 1_000,
                    (i * 131 % 3832) as u32,
                ),
                &h,
            );
            if i % 3 == 0 {
                let _ = s.dequeue(&h);
            }
        }
        let (preempts, promotions, swaps) = s.dispatch_counters();
        let ring = s.into_sink();
        let count = |name: &str| ring.events().filter(|e| e.name() == name).count() as u64;
        assert_eq!(count("preempt"), preempts);
        assert_eq!(count("sp_promote"), promotions);
        assert_eq!(count("queue_swap"), swaps);
        assert!(swaps > 0, "no dispatch activity traced");
    }

    #[test]
    fn stage_spans_cover_characterize_and_encapsulate() {
        use obs::{RingSink, Stage};
        let mut s =
            CascadedSfc::with_sink(CascadeConfig::paper_default(2, 3832), RingSink::new(4096))
                .unwrap()
                .with_stage_spans(0);
        let batch: Vec<Request> = (0..20u64)
            .map(|i| {
                req(
                    i,
                    &[(i % 16) as u8, ((i * 5) % 16) as u8],
                    200_000,
                    (i * 131 % 3832) as u32,
                )
            })
            .collect();
        let h = head();
        for r in &batch[..10] {
            s.enqueue(r.clone(), &h);
        }
        s.enqueue_batch(&batch[10..], &h);
        let ring = s.into_sink();
        let stage_count = |want: Stage| {
            ring.events()
                .filter(|e| matches!(e, TraceEvent::StageSpan { stage, .. } if *stage == want))
                .count()
        };
        // Shift 0 samples every occurrence: one characterize + one
        // encapsulate span per request, whether it arrived alone or in a
        // chunk.
        assert_eq!(stage_count(Stage::Characterize), 20);
        assert_eq!(stage_count(Stage::Encapsulate), 20);
    }

    #[test]
    fn name_and_counters() {
        let s = CascadedSfc::new(CascadeConfig::paper_default(2, 100)).unwrap();
        assert_eq!(s.name(), "cascaded-sfc");
        assert_eq!(s.dispatch_counters(), (0, 0, 0));
    }

    /// Satellite: a mid-trace retune of all three knobs must behave
    /// exactly like a fresh scheduler constructed with the new values and
    /// fed the same queue state — and lifetime counters must survive the
    /// rebuild.
    #[test]
    fn mid_trace_retune_matches_fresh_scheduler() {
        let mut live = CascadedSfc::new(CascadeConfig::paper_default(3, 3832)).unwrap();
        // Drive the scheduler partway through a trace: 60 arrivals with a
        // wandering head, 20 interleaved dispatches, so both queues and
        // the ER window hold real state at the retune point.
        let mut hd = head();
        for i in 0..60u64 {
            let h = HeadState::new(hd.cylinder, i * 1_500, 3832);
            live.enqueue(
                req(
                    i,
                    &[(i % 16) as u8, ((i * 7) % 16) as u8, ((i * 3) % 16) as u8],
                    200_000 + i * 9_000,
                    (i * 173 % 3832) as u32,
                ),
                &h,
            );
            if i % 3 == 2 {
                if let Some(r) = live.dequeue(&HeadState::new(hd.cylinder, i * 1_500 + 700, 3832)) {
                    hd.cylinder = r.cylinder;
                }
            }
        }
        let at = HeadState::new(hd.cylinder, 120_000, 3832);
        let before = live.dispatch_counters();

        // Capture the queue state a fresh scheduler would be fed.
        let mut backlog = Vec::new();
        live.for_each_pending(&mut |r| backlog.push(r.clone()));
        backlog.sort_by_key(|r| (r.arrival_us, r.id));
        assert!(!backlog.is_empty(), "retune point must have a backlog");

        assert!(live.set_balance_factor(2.5, &at));
        assert!(live.set_scan_partitions(5, &at));
        assert!(live.set_window(0.25, &at));
        // Re-inserting an idle dispatcher cannot preempt or shed, so the
        // carried counters are exactly the pre-retune ones.
        assert_eq!(live.dispatch_counters(), before);

        let mut cfg = CascadeConfig::paper_default(3, 3832);
        cfg.stage2.as_mut().unwrap().combiner = Stage2Combiner::Weighted { f: 2.5 };
        cfg.stage3.as_mut().unwrap().partitions = 5;
        cfg.dispatch.mode = PreemptionMode::Conditional { window: 0.25 };
        let mut fresh = CascadedSfc::new(cfg).unwrap();
        for r in &backlog {
            fresh.enqueue(
                r.clone(),
                &HeadState::new(at.cylinder, r.arrival_us, at.cylinders),
            );
        }

        assert_eq!(live.len(), fresh.len());
        assert_eq!(live.queue_depths(), fresh.queue_depths());
        // Identical dequeue order down the same head walk.
        let mut h = at;
        loop {
            let a = live.dequeue(&h);
            let b = fresh.dequeue(&h);
            assert_eq!(a.as_ref().map(|r| r.id), b.as_ref().map(|r| r.id));
            match a {
                Some(r) => h.cylinder = r.cylinder,
                None => break,
            }
        }
    }

    /// Feed `config` a trace with interleaved dispatches, retune `knob`
    /// mid-way, and require the rest to be served exactly as a fresh
    /// `retuned` scheduler fed the same backlog serves it. Returns whether
    /// the dispatcher held `u128` values before and after the retune.
    fn retune_matches_fresh(
        config: CascadeConfig,
        knob: Retune,
        retuned: CascadeConfig,
    ) -> (bool, bool) {
        let wide = |s: &CascadedSfc| matches!(s.queues, Queues::U128(_));
        let mut live = CascadedSfc::new(config).unwrap();
        let before = wide(&live);
        let mut cylinder = 0;
        for i in 0..60u64 {
            let r = req(
                i,
                &[(i % 16) as u8],
                200_000 + i * 9_000,
                (i * 173 % 3832) as u32,
            );
            live.enqueue(r, &HeadState::new(cylinder, i * 1_500, 3832));
            if i % 3 == 2 {
                let h = HeadState::new(cylinder, i * 1_500 + 700, 3832);
                cylinder = live.dequeue(&h).map_or(cylinder, |r| r.cylinder);
            }
        }
        let at = HeadState::new(cylinder, 120_000, 3832);
        let mut backlog = Vec::new();
        live.for_each_pending(&mut |r| backlog.push(r.clone()));
        backlog.sort_by_key(|r| (r.arrival_us, r.id));
        assert!(live.retune(&knob, &at), "{knob:?} refused");
        let mut fresh = CascadedSfc::new(retuned).unwrap();
        for r in backlog {
            let h = HeadState::new(at.cylinder, r.arrival_us, at.cylinders);
            fresh.enqueue(r, &h);
        }
        let mut h = at;
        loop {
            let (a, b) = (live.dequeue(&h), fresh.dequeue(&h));
            assert_eq!(a.as_ref().map(|r| r.id), b.as_ref().map(|r| r.id));
            match a {
                Some(r) => h.cylinder = r.cylinder,
                None => break,
            }
        }
        assert_eq!(wide(&live), wide(&fresh));
        (before, wide(&live))
    }

    /// The dispatcher's width follows the reach of the values: `u128` for
    /// the stage-2-only composite (at least `G·2⁶⁴` for every `f`, so no
    /// retune of it leaves `u128`), `u64` for the paper default — and a
    /// retune that moves the reach across `2⁶⁴`, `R` on a 40-bit stage-3
    /// grid (the farthest cylinder's sweep value is ≈ 2⁷² at `R = 1`,
    /// ≈ 2⁶⁰ at `R = 4096`), rebuilds at the new width in either direction.
    #[test]
    fn dispatcher_width_follows_the_value_reach() {
        let wide =
            |cfg: CascadeConfig| matches!(CascadedSfc::new(cfg).unwrap().queues, Queues::U128(_));
        assert!(!wide(CascadeConfig::paper_default(3, 3832)));
        assert!(wide(crate::presets::edf(1_000_000)));

        let stage2_only = |f| {
            CascadeConfig::priority_deadline(
                CurveKind::Diagonal,
                1,
                4,
                Stage2Combiner::Weighted { f },
                1_000_000,
            )
            .with_dispatch(DispatchConfig::paper_default())
        };
        let knob = Retune::BalanceFactor(3.0);
        assert_eq!(
            retune_matches_fresh(stage2_only(1.0), knob, stage2_only(3.0)),
            (true, true)
        );

        let grid40 = |r| {
            let mut cfg = CascadeConfig::paper_default(1, 3832);
            let s3 = cfg.stage3.as_mut().unwrap();
            s3.resolution_bits = 40;
            s3.partitions = r;
            cfg
        };
        let knob = Retune::ScanPartitions(4096);
        assert_eq!(
            retune_matches_fresh(grid40(1), knob, grid40(4096)),
            (true, false)
        );
        let knob = Retune::ScanPartitions(1);
        assert_eq!(
            retune_matches_fresh(grid40(4096), knob, grid40(1)),
            (false, true)
        );
    }

    /// Retuning a knob to its current value is a no-op: no rebuild, so
    /// the `(q, q')` split is untouched (a rebuild would collapse the
    /// waiting queue into the active one).
    #[test]
    fn retune_to_same_value_is_a_no_op() {
        let mut s = CascadedSfc::new(CascadeConfig::paper_default(2, 3832)).unwrap();
        for i in 0..24u64 {
            let h = HeadState::new((i * 53 % 3832) as u32, i * 1_000, 3832);
            s.enqueue(
                req(
                    i,
                    &[(i % 16) as u8, 3],
                    300_000 + i * 4_000,
                    (i * 211 % 3832) as u32,
                ),
                &h,
            );
            if i % 4 == 3 {
                let _ = s.dequeue(&h);
            }
        }
        let depths = s.queue_depths();
        assert!(depths.1 > 0, "need a waiting queue to observe the no-op");
        let at = HeadState::new(900, 30_000, 3832);
        // Paper defaults: f = 1.0, R = 3, w = 0.10.
        assert!(s.set_balance_factor(1.0, &at));
        assert!(s.set_scan_partitions(3, &at));
        assert!(s.set_window(0.10, &at));
        assert_eq!(s.queue_depths(), depths);
    }

    /// Knobs absent from the configuration (or invalid values) are
    /// refused and leave the scheduler untouched.
    #[test]
    fn retune_refuses_missing_knobs_and_bad_values() {
        let at = head();
        // Priority-only: no stage2, no stage3, fully-preemptive.
        let mut s =
            CascadedSfc::new(CascadeConfig::priority_only(CurveKind::Diagonal, 2, 4)).unwrap();
        assert!(!s.set_balance_factor(2.0, &at));
        assert!(!s.set_scan_partitions(4, &at));
        assert!(!s.set_window(0.5, &at));
        // Full cascade, but out-of-range values.
        let mut s = CascadedSfc::new(CascadeConfig::paper_default(2, 3832)).unwrap();
        assert!(!s.set_balance_factor(-1.0, &at));
        assert!(!s.set_balance_factor(f64::NAN, &at));
        assert!(!s.set_scan_partitions(0, &at));
        assert!(!s.set_window(1.5, &at));
        assert!(!s.set_window(f64::NAN, &at));
        // The trait hook routes to the same setters.
        assert!(s.retune(&Retune::BalanceFactor(2.0), &at));
        assert!(s.retune(&Retune::ScanPartitions(4), &at));
        assert!(s.retune(&Retune::Window(0.5), &at));
        assert!(!s.retune(&Retune::ScanPartitions(0), &at));
    }

    /// The invalid knob values, refused mid-trace with both queues
    /// populated, change nothing: the rest of the trace is served in the
    /// order an untouched twin serves it, with the same counters.
    #[test]
    fn refused_retunes_mid_trace_change_nothing() {
        let mut live = CascadedSfc::new(CascadeConfig::paper_default(3, 3832)).unwrap();
        let mut twin = CascadedSfc::new(CascadeConfig::paper_default(3, 3832)).unwrap();
        let mut cylinder = 0;
        for i in 0..120u64 {
            if i == 60 {
                assert!(live.queue_depths().1 > 0, "need a waiting queue");
                let at = HeadState::new(cylinder, i * 1_500, 3832);
                assert!(!live.retune(&Retune::ScanPartitions(0), &at));
                assert!(!live.retune(&Retune::BalanceFactor(f64::NAN), &at));
                // Finite, but its composite overflows: refused at assembly.
                assert!(!live.retune(&Retune::BalanceFactor(1e300), &at));
                assert!(!live.retune(&Retune::Window(2.0), &at));
            }
            let h = HeadState::new(cylinder, i * 1_500, 3832);
            let r = req(
                i,
                &[(i % 16) as u8, ((i * 7) % 16) as u8, ((i * 3) % 16) as u8],
                200_000 + i * 9_000,
                (i * 173 % 3832) as u32,
            );
            live.enqueue(r.clone(), &h);
            twin.enqueue(r, &h);
            if i % 3 == 2 {
                let h = HeadState::new(cylinder, i * 1_500 + 700, 3832);
                let (a, b) = (live.dequeue(&h), twin.dequeue(&h));
                assert_eq!(a.as_ref().map(|r| r.id), b.as_ref().map(|r| r.id));
                cylinder = a.map_or(cylinder, |r| r.cylinder);
            }
            assert_eq!(live.queue_depths(), twin.queue_depths());
        }
        let mut h = HeadState::new(cylinder, 200_000, 3832);
        loop {
            let (a, b) = (live.dequeue(&h), twin.dequeue(&h));
            assert_eq!(a.as_ref().map(|r| r.id), b.as_ref().map(|r| r.id));
            match a {
                Some(r) => h.cylinder = r.cylinder,
                None => break,
            }
        }
        assert_eq!(live.dispatch_counters(), twin.dispatch_counters());
    }

    #[test]
    fn higher_priority_served_first_within_batch() {
        let mut s = CascadedSfc::new(
            CascadeConfig::paper_default(2, 3832).with_dispatch(DispatchConfig::fully_preemptive()),
        )
        .unwrap();
        // Identical deadline and cylinder: QoS decides.
        s.enqueue(req(1, &[12, 12], 500_000, 100), &head());
        s.enqueue(req(2, &[1, 1], 500_000, 100), &head());
        assert_eq!(s.dequeue(&head()).unwrap().id, 2);
    }
}
