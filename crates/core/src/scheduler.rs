//! The Cascaded-SFC scheduler: encapsulator + dispatcher behind the
//! workspace-wide [`DiskScheduler`] trait.

use crate::config::{CascadeConfig, PreemptionMode, Stage2Combiner};
use crate::dispatcher::{Dispatcher, Key};
use crate::encapsulator::Encapsulator;
use obs::{NullSink, TraceSink};
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
        })
    }

    /// The encapsulator (e.g. to characterize hypothetical requests).
    pub fn encapsulator(&self) -> &Encapsulator {
        &self.encapsulator
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
    /// around `config`, re-inserting the pending backlog in
    /// `(arrival, id)` order anchored at the current head position. Because
    /// the rebuilt dispatcher starts idle (`current == None`), every
    /// re-insert joins the active queue directly — exactly the state a
    /// *fresh* scheduler reaches when fed the same backlog, which is what
    /// makes a retune equivalent to restarting with the new values.
    /// The shed count carries over so the shed ledger stays continuous.
    /// Returns `false` (leaving the scheduler untouched) when `config` is
    /// invalid.
    fn rebuild(&mut self, head: &HeadState, config: CascadeConfig) -> bool {
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
        let v = self.encapsulator.characterize(&req, head);
        self.insert(req, v, head.now_us);
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

    /// Retune one knob at a safe epoch boundary: SFC2's balance factor
    /// `f` (the weighted stage-2 combiner only; finite and non-negative),
    /// SFC3's scan-partition count `R` (stage 3 only; `R ≥ 1`) or the
    /// conditional dispatcher's blocking window `w` (conditional mode
    /// only; a fraction of the value space in `0.0..=1.0`). Anything else
    /// is refused with `false` and changes nothing. Setting the current
    /// value is a no-op that returns `true`.
    fn retune(&mut self, knob: &Retune, head: &HeadState) -> bool {
        let mut config = self.encapsulator.config().clone();
        let unchanged = match *knob {
            Retune::BalanceFactor(f) => match config.stage2.as_mut().map(|s| &mut s.combiner) {
                Some(Stage2Combiner::Weighted { f: cur }) if f.is_finite() && f >= 0.0 => {
                    std::mem::replace(cur, f) == f
                }
                _ => return false,
            },
            Retune::ScanPartitions(r) => match config.stage3.as_mut() {
                Some(s3) if r >= 1 => std::mem::replace(&mut s3.partitions, r) == r,
                _ => return false,
            },
            Retune::Window(w) => match &mut config.dispatch.mode {
                PreemptionMode::Conditional { window } if (0.0..=1.0).contains(&w) => {
                    std::mem::replace(window, w) == w
                }
                _ => return false,
            },
        };
        unchanged || self.rebuild(head, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DispatchConfig, PreemptionMode, Stage2Combiner};
    use sched::{Micros, QosVector};
    use sfc::CurveKind;

    fn head() -> HeadState {
        HeadState::new(0, 0, 3832)
    }

    fn req(id: u64, qos: &[u8], deadline: Micros, cyl: u32) -> Request {
        Request::read(id, 0, deadline, cyl, 65536, QosVector::new(qos))
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
        let ring = s.into_sink();
        let count = |name: &str| ring.events().filter(|e| e.name() == name).count() as u64;
        assert!(count("queue_swap") > 0, "no dispatch activity traced");
        // The paper default has ER on: the window expands at every
        // preemption and every SP promotion.
        assert_eq!(count("er_expand"), count("preempt") + count("sp_promote"));
    }

    #[test]
    fn name_and_counters() {
        let s = CascadedSfc::new(CascadeConfig::paper_default(2, 100)).unwrap();
        assert_eq!(s.name(), "cascaded-sfc");
        assert_eq!(s.sheds(), 0);
    }

    /// A mid-trace retune of all three knobs must behave exactly like a
    /// fresh scheduler constructed with the new values and fed the same
    /// queue state — and the rebuild itself must decide nothing a counter
    /// would see.
    #[test]
    fn mid_trace_retune_matches_fresh_scheduler() {
        let mut cfg = CascadeConfig::paper_default(3, 3832);
        cfg.stage2.as_mut().unwrap().combiner = Stage2Combiner::Weighted { f: 2.5 };
        cfg.stage3.as_mut().unwrap().partitions = 5;
        cfg.dispatch.mode = PreemptionMode::Conditional { window: 0.25 };
        let knobs = [
            Retune::BalanceFactor(2.5),
            Retune::ScanPartitions(5),
            Retune::Window(0.25),
        ];
        retune_matches_fresh(CascadeConfig::paper_default(3, 3832), &knobs, cfg);
    }

    /// Feed `config` a trace with interleaved dispatches and a wandering
    /// head, so both queues and the ER window hold real state, retune
    /// `knobs` mid-way, and require the rest to be served exactly as a
    /// fresh `retuned` scheduler fed the same backlog serves it; the
    /// rebuild emits no dispatcher event (re-inserting into an idle
    /// dispatcher cannot preempt, promote, swap or shed). Returns whether
    /// the dispatcher held `u128` values before and after the retune.
    fn retune_matches_fresh(
        config: CascadeConfig,
        knobs: &[Retune],
        retuned: CascadeConfig,
    ) -> (bool, bool) {
        let wide = |q: &Queues| matches!(q, Queues::U128(_));
        let dims = config.stage1.map_or(1, |s1| s1.dims as usize);
        let mut live = CascadedSfc::with_sink(config, obs::Snapshot::new()).unwrap();
        let before = wide(&live.queues);
        let mut cylinder = 0;
        for i in 0..60u64 {
            let qos = [(i % 16) as u8, ((i * 7) % 16) as u8, ((i * 3) % 16) as u8];
            let r = req(
                i,
                &qos[..dims],
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
        let counters = live.sink().counters;
        let mut backlog = Vec::new();
        live.for_each_pending(&mut |r| backlog.push(r.clone()));
        backlog.sort_by_key(|r| (r.arrival_us, r.id));
        assert!(!backlog.is_empty(), "retune point must have a backlog");
        for knob in knobs {
            assert!(live.retune(knob, &at), "{knob:?} refused");
        }
        assert_eq!(live.sink().counters, counters);
        let mut fresh = CascadedSfc::new(retuned).unwrap();
        for r in backlog {
            let h = HeadState::new(at.cylinder, r.arrival_us, at.cylinders);
            fresh.enqueue(r, &h);
        }
        assert_eq!(live.queue_depths(), fresh.queue_depths());
        let mut h = at;
        loop {
            let (a, b) = (live.dequeue(&h), fresh.dequeue(&h));
            assert_eq!(a.as_ref().map(|r| r.id), b.as_ref().map(|r| r.id));
            match a {
                Some(r) => h.cylinder = r.cylinder,
                None => break,
            }
        }
        assert_eq!(wide(&live.queues), wide(&fresh.queues));
        (before, wide(&live.queues))
    }

    /// Configurations whose stage arithmetic would overflow `u128` are
    /// refused when built instead of wrapping (or panicking, in a debug
    /// build): a 128-bit stage-2 or stage-3 grid, a stage-3 sweep whose
    /// corner overflows, a balance factor whose composite does.
    #[test]
    fn overflowing_stages_are_refused_when_built() {
        use crate::config::{DistanceMode, Stage2, Stage3};
        let stage2 = |resolution_bits, f| CascadeConfig {
            stage1: None,
            stage2: Some(Stage2 {
                combiner: Stage2Combiner::Weighted { f },
                horizon_us: 1_000_000,
                resolution_bits,
            }),
            stage3: None,
            dispatch: DispatchConfig::paper_default(),
        };
        let stage3 = |resolution_bits| CascadeConfig {
            stage1: None,
            stage2: None,
            stage3: Some(Stage3 {
                partitions: 3,
                resolution_bits,
                cylinders: 100,
                distance: DistanceMode::Absolute,
            }),
            dispatch: DispatchConfig::paper_default(),
        };
        for config in [
            stage2(128, 1.0),
            stage3(128),
            stage3(127),
            stage2(10, 1e300),
        ] {
            let built = CascadedSfc::new(config.clone());
            assert!(
                matches!(built, Err(SfcError::TooLarge { .. })),
                "{config:?}"
            );
        }
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
            retune_matches_fresh(stage2_only(1.0), &[knob], stage2_only(3.0)),
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
            retune_matches_fresh(grid40(1), &[knob], grid40(4096)),
            (true, false)
        );
        let knob = Retune::ScanPartitions(1);
        assert_eq!(
            retune_matches_fresh(grid40(4096), &[knob], grid40(1)),
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
        assert!(s.retune(&Retune::BalanceFactor(1.0), &at));
        assert!(s.retune(&Retune::ScanPartitions(3), &at));
        assert!(s.retune(&Retune::Window(0.10), &at));
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
        assert!(!s.retune(&Retune::BalanceFactor(2.0), &at));
        assert!(!s.retune(&Retune::ScanPartitions(4), &at));
        assert!(!s.retune(&Retune::Window(0.5), &at));
        // Full cascade, but out-of-range values.
        let mut s = CascadedSfc::new(CascadeConfig::paper_default(2, 3832)).unwrap();
        assert!(!s.retune(&Retune::BalanceFactor(-1.0), &at));
        assert!(!s.retune(&Retune::BalanceFactor(f64::NAN), &at));
        assert!(!s.retune(&Retune::ScanPartitions(0), &at));
        assert!(!s.retune(&Retune::Window(1.5), &at));
        assert!(!s.retune(&Retune::Window(f64::NAN), &at));
        // In-range values for the knobs it has are taken.
        assert!(s.retune(&Retune::BalanceFactor(2.0), &at));
        assert!(s.retune(&Retune::ScanPartitions(4), &at));
        assert!(s.retune(&Retune::Window(0.5), &at));
    }

    /// The invalid knob values, refused mid-trace with both queues
    /// populated, change nothing: the rest of the trace is served in the
    /// order an untouched twin serves it, with the same dispatcher events.
    #[test]
    fn refused_retunes_mid_trace_change_nothing() {
        let traced = || {
            CascadedSfc::with_sink(CascadeConfig::paper_default(3, 3832), obs::Snapshot::new())
                .unwrap()
        };
        let (mut live, mut twin) = (traced(), traced());
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
        assert_eq!(live.sink().counters, twin.sink().counters);
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
