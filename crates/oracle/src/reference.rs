//! Naive, obviously-correct reference schedulers and the differential
//! harness that pits them against the optimized implementations.
//!
//! Every reference here trades all the data structures of the real code
//! for flat `Vec`s: linearly re-scanned on every dispatch, or, for the
//! cascade's two queues, kept sorted by insertion. The specification each one
//! implements is written in terms the paper uses — "serve the smallest
//! characterization value, ties to the oldest id" — not in terms of
//! heaps, swap-removes or peek orders, so a bug in the optimized queue
//! machinery cannot also hide here.
//!
//! The differential harness runs both implementations through
//! [`sim::simulate`] on the *same* trace against identical disk models
//! and demands bit-identical metrics and engine event streams: every
//! arrival, dispatch, fault and terminal fate, in order, with its time.

use cascade::{
    CascadeConfig, CascadedSfc, DispatchConfig, DistanceMode, Encapsulator, PreemptionMode,
    Stage2Combiner,
};
use obs::{Snapshot, TraceEvent, TraceSink};
use sched::{DiskScheduler, Edf, HeadState, Request, Scan, Sstf, SweepDirection};
use sfc::{SfcError, WeightedDiagonal};
use sim::{simulate, DiskService, Metrics, SimOptions};

/// The characterization value of `req` under `config`, restated from the
/// paper with nothing shared with [`cascade::Encapsulator`]: the catalogue
/// curve (`CurveKind::build(..).index`) over the QoS point for SFC1, the
/// weighted order's [`WeightedDiagonal::value`] or the catalogue curve's
/// index for SFC2, the §5.3 partitioned sweep for SFC3, and between stages
/// the plain rescale `⌊v·M/D⌋` of `[0, D]` onto `[0, M]` in `u128`.
///
/// `None` when a rescale's product `v·M` does not fit `u128` (the
/// encapsulator rounds those through `f64`, which no exact restatement
/// reproduces). `config` must be one `Encapsulator::new` accepts.
pub fn reference_characterize(
    config: &CascadeConfig,
    req: &Request,
    head: &HeadState,
) -> Option<u128> {
    let rescale = |v: u128, d: u128, m: u128| match d {
        0 => Some(0),
        _ => Some(v.min(d).checked_mul(m)? / d),
    };
    // SFC1: missing QoS dimensions are the lowest priority, levels beyond
    // the grid clamp to its edge; without SFC1, the first level.
    let levels = req.qos.levels();
    let (v1, max_v1) = match &config.stage1 {
        Some(s1) => {
            let curve = s1.curve.build(s1.dims, s1.level_bits).ok()?;
            let top = curve.side() - 1;
            let point: Vec<u64> = (0..s1.dims as usize)
                .map(|j| levels.get(j).map_or(top, |&l| u64::from(l).min(top)))
                .collect();
            (curve.index(&point), curve.cells() - 1)
        }
        None => (levels.first().map_or(0, |&l| l.into()), u8::MAX.into()),
    };
    // SFC2: priority and deadline slack (clamped to the horizon), each
    // rescaled onto the stage's grid.
    let (v2, max_v2) = match &config.stage2 {
        None => (v1, max_v1),
        Some(s2) => {
            let g = (1u128 << s2.resolution_bits) - 1;
            let x = rescale(v1, max_v1, g)? as u64;
            let slack = req.slack_us(head.now_us).min(s2.horizon_us);
            let y = rescale(slack.into(), s2.horizon_us.max(1).into(), g)? as u64;
            match s2.combiner {
                Stage2Combiner::Weighted { f } => {
                    let w = WeightedDiagonal::new(f);
                    (w.value(x, y), w.value(g as u64, g as u64))
                }
                Stage2Combiner::Curve(kind) => {
                    let curve = kind.build(2, s2.resolution_bits).ok()?;
                    (curve.index(&[x, y]), curve.cells() - 1)
                }
            }
        }
    };
    // SFC3 (§5.3): `r` strips of width `p_s` over the rescaled abscissa,
    // each swept by head distance first.
    let Some(s3) = &config.stage3 else {
        return Some(v2);
    };
    let max_x = (1u128 << s3.resolution_bits) - 1;
    let x = rescale(v2, max_v2, max_x)?;
    let y: u128 = match s3.distance {
        DistanceMode::Absolute => req.cylinder.abs_diff(head.cylinder).into(),
        DistanceMode::Circular => (i64::from(req.cylinder) - i64::from(head.cylinder))
            .rem_euclid(s3.cylinders.into()) as u128,
    };
    let height = u128::from(s3.cylinders.max(2));
    let r = u128::from(s3.partitions.max(1));
    let p_s = ((max_x + 1) / r).max(1);
    let p_n = (x / p_s).min(r - 1);
    Some(height * p_s * p_n + y * p_s + (x - p_s * p_n))
}

/// The §3 dispatcher restated over two `Vec`s sorted by `(v, id)`:
/// front = next to serve, back = shed victim. Mirrors the documented
/// semantics of [`cascade::Dispatcher`]: the preemption window in
/// absolute value units resolved per-mille of the value space, idle
/// arrivals join `q` without counting a preemption, ER expansion
/// `w ← max(w·e, w+1)` at every preemption and SP promotion, window reset
/// and optional re-characterization at every queue swap, and overload
/// shedding that evicts the largest `(v, id)` among pending *and*
/// incoming. It counts what the dispatcher's `Preempt`, `SpPromote`,
/// `QueueSwap` and `Shed` events report.
pub struct ReferenceDispatcher {
    config: DispatchConfig,
    q: Vec<(u128, Request)>,
    q_wait: Vec<(u128, Request)>,
    base_window: u128,
    window: u128,
    current: Option<u128>,
    preemptions: u64,
    promotions: u64,
    swaps: u64,
    /// `(id, v)` of every request shed, in order.
    shed_log: Vec<(u64, u128)>,
}

/// The order both queues keep.
fn key(e: &(u128, Request)) -> (u128, u64) {
    (e.0, e.1.id)
}

/// Insert `e` behind every entry that does not sort after it.
fn insert_sorted(queue: &mut Vec<(u128, Request)>, e: (u128, Request)) {
    let at = queue.partition_point(|x| key(x) <= key(&e));
    queue.insert(at, e);
}

impl ReferenceDispatcher {
    /// An idle dispatcher over a value space of `max_value`.
    pub fn new(config: DispatchConfig, max_value: u128) -> Self {
        let base_window = match config.mode {
            PreemptionMode::Conditional { window } => {
                // ⌊max_value · ‰ / 1000⌋, split so the product cannot overflow.
                let permille = (window.clamp(0.0, 1.0) * 1000.0).round() as u128;
                max_value / 1000 * permille + max_value % 1000 * permille / 1000
            }
            _ => 0,
        };
        ReferenceDispatcher {
            config,
            q: Vec::new(),
            q_wait: Vec::new(),
            base_window,
            window: base_window,
            current: None,
            preemptions: 0,
            promotions: 0,
            swaps: 0,
            shed_log: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.q.len() + self.q_wait.len()
    }

    /// Depths of the active and waiting queues, `(q, q')`.
    pub fn queue_depths(&self) -> (usize, usize) {
        (self.q.len(), self.q_wait.len())
    }

    /// The current (possibly ER-expanded) blocking window.
    pub fn window(&self) -> u128 {
        self.window
    }

    /// (preemptions, SP promotions, queue swaps).
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.preemptions, self.promotions, self.swaps)
    }

    /// `(id, v)` of every request shed, in order.
    pub fn shed_log(&self) -> &[(u64, u128)] {
        &self.shed_log
    }

    /// Visit every pending request.
    pub fn for_each_pending(&self, f: &mut dyn FnMut(&Request)) {
        self.q.iter().chain(&self.q_wait).for_each(|(_, r)| f(r));
    }

    fn expand_window(&mut self) {
        if let Some(e) = self.config.expand_factor {
            let expanded = (self.window as f64 * e) as u128;
            self.window = expanded.max(self.window.saturating_add(1));
        }
    }

    /// Insert an arrival with value `v`. A full dispatcher first sheds
    /// the largest `(v, id)` among everything pending and the arrival.
    pub fn insert(&mut self, req: Request, v: u128) {
        if self.config.max_queue.is_some_and(|cap| self.len() >= cap) {
            // The larger back, `q`'s on a tie; an empty queue has none.
            let side = if self.q.last().map(key) >= self.q_wait.last().map(key) {
                &mut self.q
            } else {
                &mut self.q_wait
            };
            match side.last() {
                Some(worst) if key(worst) > (v, req.id) => {
                    self.shed_log.push((worst.1.id, worst.0));
                    side.pop();
                }
                _ => {
                    self.shed_log.push((req.id, v));
                    return;
                }
            }
        }
        let active = match self.config.mode {
            PreemptionMode::Fully => true,
            PreemptionMode::NonPreemptive => false,
            PreemptionMode::Conditional { .. } => match self.current {
                None => true, // idle disk: nothing to preempt
                Some(cur) => {
                    let preempts = v < cur.saturating_sub(self.window);
                    if preempts {
                        self.preemptions += 1;
                        self.expand_window();
                    }
                    preempts
                }
            },
        };
        let queue = if active {
            &mut self.q
        } else {
            &mut self.q_wait
        };
        insert_sorted(queue, (v, req));
    }

    /// Serve the next request. `refresh` re-characterizes the batch at a
    /// queue swap when the configuration asks for it.
    pub fn pop(&mut self, refresh: Option<&mut dyn FnMut(&Request) -> u128>) -> Option<Request> {
        if self.q.is_empty() {
            if self.q_wait.is_empty() {
                self.current = None;
                return None;
            }
            std::mem::swap(&mut self.q, &mut self.q_wait);
            self.swaps += 1;
            self.window = self.base_window;
            if let (true, Some(f)) = (self.config.refresh_on_swap, refresh) {
                for e in &mut self.q {
                    e.0 = f(&e.1);
                }
                self.q.sort_by_key(key);
            }
        }
        if self.config.serve_promote {
            // SP: promote any waiter that beats the next candidate by more
            // than the window.
            while self
                .q_wait
                .first()
                .is_some_and(|w| w.0 < self.q[0].0.saturating_sub(self.window))
            {
                let e = self.q_wait.remove(0);
                self.promotions += 1;
                self.expand_window();
                insert_sorted(&mut self.q, e);
            }
        }
        let (v, req) = self.q.remove(0);
        self.current = Some(v);
        Some(req)
    }
}

/// Naive reference for [`cascade::CascadedSfc`]: the shared
/// [`Encapsulator`] (the three SFC stages are the *subject* of
/// [`reference_characterize`], not of this oracle) in front of a
/// [`ReferenceDispatcher`].
pub struct ReferenceCascade {
    enc: Encapsulator,
    dispatcher: ReferenceDispatcher,
}

impl ReferenceCascade {
    /// Build the reference from the same configuration the optimized
    /// scheduler takes.
    pub fn new(config: CascadeConfig) -> Result<Self, SfcError> {
        let enc = Encapsulator::new(config)?;
        let dispatcher = ReferenceDispatcher::new(enc.config().dispatch, enc.max_value().max(1));
        Ok(ReferenceCascade { enc, dispatcher })
    }

    /// (preemptions, SP promotions, queue swaps) — what the optimized
    /// dispatcher's `Preempt`, `SpPromote` and `QueueSwap` events count
    /// ([`obs::Counters`]).
    pub fn counters(&self) -> (u64, u64, u64) {
        self.dispatcher.counters()
    }
}

impl DiskScheduler for ReferenceCascade {
    fn name(&self) -> &'static str {
        "reference-cascaded-sfc"
    }

    fn enqueue(&mut self, req: Request, head: &HeadState) {
        let v = self.enc.characterize(&req, head);
        self.dispatcher.insert(req, v);
    }

    fn dequeue(&mut self, head: &HeadState) -> Option<Request> {
        let enc = &self.enc;
        self.dispatcher
            .pop(Some(&mut |r: &Request| enc.characterize(r, head)))
    }

    fn len(&self) -> usize {
        self.dispatcher.len()
    }

    fn for_each_pending(&self, f: &mut dyn FnMut(&Request)) {
        self.dispatcher.for_each_pending(f);
    }

    fn sheds(&self) -> u64 {
        self.dispatcher.shed_log().len() as u64
    }

    fn queue_capacity(&self) -> Option<usize> {
        self.enc.config().dispatch.max_queue
    }
}

/// Brute-force EDF: scan the whole queue for the earliest deadline
/// (ties to the lowest id) on every dispatch.
#[derive(Default)]
pub struct ReferenceEdf {
    queue: Vec<Request>,
}

impl ReferenceEdf {
    /// An empty reference EDF queue.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Brute-force SSTF: scan for the pending request closest to the head.
#[derive(Default)]
pub struct ReferenceSstf {
    queue: Vec<Request>,
}

impl ReferenceSstf {
    /// An empty reference SSTF queue.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Brute-force SCAN (elevator with LOOK): serve the nearest request in
/// the sweep direction; reverse when nothing lies ahead.
pub struct ReferenceScan {
    queue: Vec<Request>,
    direction: SweepDirection,
}

impl ReferenceScan {
    /// An empty reference SCAN queue, initially sweeping up.
    pub fn new() -> Self {
        ReferenceScan {
            queue: Vec::new(),
            direction: SweepDirection::Up,
        }
    }
}

impl Default for ReferenceScan {
    fn default() -> Self {
        Self::new()
    }
}

/// Remove the queue element with the smallest `(key, id)`.
fn take_best<K: Ord>(queue: &mut Vec<Request>, key: impl Fn(&Request) -> K) -> Option<Request> {
    let best = queue
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| (key(a), a.id).cmp(&(key(b), b.id)))
        .map(|(i, _)| i)?;
    Some(queue.remove(best))
}

impl DiskScheduler for ReferenceEdf {
    fn name(&self) -> &'static str {
        "reference-edf"
    }

    fn enqueue(&mut self, req: Request, _head: &HeadState) {
        self.queue.push(req);
    }

    fn dequeue(&mut self, _head: &HeadState) -> Option<Request> {
        take_best(&mut self.queue, |r| r.deadline_us)
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    fn for_each_pending(&self, f: &mut dyn FnMut(&Request)) {
        self.queue.iter().for_each(f);
    }
}

impl DiskScheduler for ReferenceSstf {
    fn name(&self) -> &'static str {
        "reference-sstf"
    }

    fn enqueue(&mut self, req: Request, _head: &HeadState) {
        self.queue.push(req);
    }

    fn dequeue(&mut self, head: &HeadState) -> Option<Request> {
        take_best(&mut self.queue, |r| head.distance_to(r.cylinder))
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    fn for_each_pending(&self, f: &mut dyn FnMut(&Request)) {
        self.queue.iter().for_each(f);
    }
}

impl ReferenceScan {
    fn ahead(&self, head: &HeadState, r: &Request) -> bool {
        match self.direction {
            SweepDirection::Up => r.cylinder >= head.cylinder,
            SweepDirection::Down => r.cylinder <= head.cylinder,
        }
    }

    fn take_ahead(&mut self, head: &HeadState) -> Option<Request> {
        let best = self
            .queue
            .iter()
            .enumerate()
            .filter(|(_, r)| self.ahead(head, r))
            .min_by_key(|(_, r)| (head.distance_to(r.cylinder), r.id))
            .map(|(i, _)| i)?;
        Some(self.queue.remove(best))
    }
}

impl DiskScheduler for ReferenceScan {
    fn name(&self) -> &'static str {
        "reference-scan"
    }

    fn enqueue(&mut self, req: Request, _head: &HeadState) {
        self.queue.push(req);
    }

    fn dequeue(&mut self, head: &HeadState) -> Option<Request> {
        if self.queue.is_empty() {
            return None;
        }
        if let Some(r) = self.take_ahead(head) {
            return Some(r);
        }
        self.direction = self.direction.flip();
        self.take_ahead(head)
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    fn for_each_pending(&self, f: &mut dyn FnMut(&Request)) {
        self.queue.iter().for_each(f);
    }
}

/// Report the first divergence between two engine event streams: the
/// index of the first differing event and both events, or the lengths
/// when one stream is a prefix of the other.
pub fn compare_events(
    what: &str,
    optimized: &[TraceEvent],
    reference: &[TraceEvent],
) -> Result<(), String> {
    if let Some(i) =
        (0..optimized.len().min(reference.len())).find(|&i| optimized[i] != reference[i])
    {
        return Err(format!(
            "{what}: event streams diverge at event {i}: optimized {:?} but reference {:?}",
            optimized[i], reference[i]
        ));
    }
    if optimized.len() != reference.len() {
        return Err(format!(
            "{what}: event stream lengths diverge: optimized {} vs reference {}",
            optimized.len(),
            reference.len()
        ));
    }
    Ok(())
}

/// Every event the engine emits, in order: the run's full timeline.
struct Timeline(Vec<TraceEvent>);

impl TraceSink for Timeline {
    fn emit(&mut self, event: &TraceEvent) {
        self.0.push(*event);
    }
}

/// One engine run's metrics and event timeline.
type Run = (Metrics, Vec<TraceEvent>);

fn run_one(
    scheduler: &mut dyn DiskScheduler,
    trace: &[Request],
    options: SimOptions,
    make_service: &impl Fn() -> DiskService,
) -> Run {
    let mut service = make_service();
    let mut timeline = Timeline(Vec::with_capacity(3 * trace.len()));
    let metrics = simulate(scheduler, trace, &mut service, options, &mut timeline);
    (metrics, timeline.0)
}

/// Hold an optimized run to the reference run: the same event timeline,
/// then the same metrics.
fn compare_runs(what: &str, optimized: &Run, reference: &Run) -> Result<(), String> {
    compare_events(what, &optimized.1, &reference.1)?;
    if optimized.0 != reference.0 {
        return Err(format!(
            "{what}: metrics diverge with identical events: {:?} vs {:?}",
            optimized.0, reference.0
        ));
    }
    Ok(())
}

/// Differential oracle for one scheduler pair: run `optimized` and
/// `reference` through [`sim::simulate`] on the same trace against
/// identical fresh disk models and demand bit-identical event streams and
/// metrics.
pub fn diff_pair(
    what: &str,
    optimized: &mut dyn DiskScheduler,
    reference: &mut dyn DiskScheduler,
    trace: &[Request],
    options: SimOptions,
    make_service: impl Fn() -> DiskService,
) -> Result<Metrics, String> {
    let expected = run_one(reference, trace, options, &make_service);
    compare_runs(
        what,
        &run_one(optimized, trace, options, &make_service),
        &expected,
    )?;
    Ok(expected.0)
}

/// Differential oracle for the cascade: optimized [`cascade::CascadedSfc`]
/// vs [`ReferenceCascade`] built from the same configuration. The
/// untraced scheduler, as callers run it, must match the reference's
/// event stream, metrics and shed count. A twin built over an
/// [`obs::Snapshot`] must match them too, and its `Preempt`, `SpPromote`
/// and `QueueSwap` events must count what the reference counted.
pub fn diff_cascade(
    config: &CascadeConfig,
    trace: &[Request],
    options: SimOptions,
    make_service: impl Fn() -> DiskService,
) -> Result<Metrics, String> {
    let rejected = |e: SfcError| format!("cascade config rejected: {e}");
    let mut reference = ReferenceCascade::new(config.clone()).map_err(rejected)?;
    let expected = run_one(&mut reference, trace, options, &make_service);
    let mut plain = CascadedSfc::new(config.clone()).map_err(rejected)?;
    let got = run_one(&mut plain, trace, options, &make_service);
    compare_runs("cascaded-sfc", &got, &expected)?;
    if plain.sheds() != DiskScheduler::sheds(&reference) {
        return Err(format!(
            "cascaded-sfc: shed counts diverge: {} vs {}",
            plain.sheds(),
            DiskScheduler::sheds(&reference)
        ));
    }
    let mut traced = CascadedSfc::with_sink(config.clone(), Snapshot::new()).map_err(rejected)?;
    let got = run_one(&mut traced, trace, options, &make_service);
    compare_runs("cascaded-sfc (traced)", &got, &expected)?;
    let c = traced.sink().counters;
    let counted = (c.preemptions, c.sp_promotions, c.queue_swaps);
    if counted != reference.counters() {
        return Err(format!(
            "cascaded-sfc: (preemptions, promotions, swaps) events diverge from the reference: \
             {counted:?} vs {:?}",
            reference.counters()
        ));
    }
    Ok(expected.0)
}

/// Differential oracle for the encapsulator alone:
/// [`cascade::Encapsulator::characterize`] against
/// [`reference_characterize`] on every request of `trace`, each at its
/// arrival with the head on the previous request's cylinder, under the
/// paper-default cascade over `dims` QoS dimensions at every balance
/// factor of the controller's grid plus `1e12`, and every partition count
/// of the grid at `f = 1`.
pub(crate) fn diff_characterize(trace: &[Request], dims: u32) -> Result<(), String> {
    let grid = ctrl::Grid::default();
    let points: Vec<ctrl::GridPoint> = (0..grid.len()).map(|i| grid.point(i)).collect();
    let mut knobs: Vec<(f64, u32)> = points.iter().map(|p| (p.f, 3)).collect();
    knobs.push((1e12, 3));
    knobs.extend(points.iter().map(|p| (1.0, p.r)));
    knobs.sort_by(|a, b| a.partial_cmp(b).expect("finite knobs"));
    knobs.dedup();
    for (f, r) in knobs {
        let mut config = CascadeConfig::paper_default(dims, 3832);
        config.stage2.as_mut().expect("paper default").combiner = Stage2Combiner::Weighted { f };
        config.stage3.as_mut().expect("paper default").partitions = r;
        let enc = Encapsulator::new(config.clone()).map_err(|e| format!("f={f} R={r}: {e}"))?;
        let mut cylinder = 0;
        for req in trace {
            let head = HeadState::new(cylinder, req.arrival_us, 3832);
            let got = enc.characterize(req, &head);
            let want = reference_characterize(&config, req, &head);
            if want != Some(got) {
                return Err(format!(
                    "characterize: f={f} R={r} req {} at head {cylinder}: encapsulator {got}, \
                     reference {want:?}",
                    req.id
                ));
            }
            cylinder = req.cylinder;
        }
    }
    Ok(())
}

/// Differential oracle for the brute-force baselines: EDF, SSTF and SCAN
/// against their optimized counterparts on the same trace.
pub fn diff_baselines(trace: &[Request], options: SimOptions) -> Result<(), String> {
    diff_pair(
        "edf",
        &mut Edf::new(),
        &mut ReferenceEdf::new(),
        trace,
        options,
        DiskService::table1,
    )?;
    diff_pair(
        "sstf",
        &mut Sstf::new(),
        &mut ReferenceSstf::new(),
        trace,
        options,
        DiskService::table1,
    )?;
    diff_pair(
        "scan",
        &mut Scan::new(),
        &mut ReferenceScan::new(),
        trace,
        options,
        DiskService::table1,
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascade::DispatchConfig;
    use sched::QosVector;

    fn head() -> HeadState {
        HeadState::new(0, 0, 3832)
    }

    fn req(id: u64, v_level: u8) -> Request {
        Request::read(id, 0, u64::MAX, 0, 512, QosVector::single(v_level))
    }

    /// The reference reproduces the paper's Figure-4 service order
    /// (same scenario as the optimized dispatcher's unit test).
    #[test]
    fn reference_reproduces_figure4() {
        let cfg = cascade::CascadeConfig::priority_only(sfc::CurveKind::Diagonal, 1, 4)
            .with_dispatch(DispatchConfig {
                mode: PreemptionMode::Conditional { window: 0.2 },
                serve_promote: true,
                expand_factor: None,
                refresh_on_swap: false,
                max_queue: None,
            });
        // Priority levels scaled onto 0..=15: the Figure-4 values
        // 600/450/500/800/100/250/400 of 1000 become 9/6/7/12/1/3/5.
        let level = |id: u64| match id {
            1 => 9u8,
            2 => 6,
            3 => 7,
            4 => 12,
            5 => 1,
            6 => 3,
            7 => 5,
            _ => unreachable!(),
        };
        let mut s = ReferenceCascade::new(cfg).unwrap();
        s.enqueue(req(1, level(1)), &head());
        assert_eq!(s.dequeue(&head()).unwrap().id, 1);
        for id in [2, 3, 4] {
            s.enqueue(req(id, level(id)), &head());
        }
        assert_eq!(s.dequeue(&head()).unwrap().id, 2);
        for id in [5, 6, 7] {
            s.enqueue(req(id, level(id)), &head());
        }
        let order: Vec<u64> = std::iter::from_fn(|| s.dequeue(&head()).map(|r| r.id)).collect();
        assert_eq!(order, vec![5, 6, 3, 7, 4]);
    }

    /// What a dispatcher's events report: the shed log, the window as the
    /// ER events last set it, and the preemption, promotion and swap
    /// counts.
    #[derive(Default)]
    struct Events {
        shed_log: Vec<(u64, u128)>,
        window: u128,
        counters: (u64, u64, u64),
    }

    impl TraceSink for Events {
        fn emit(&mut self, event: &TraceEvent) {
            match *event {
                TraceEvent::Shed { req, v, .. } => self.shed_log.push((req, v)),
                TraceEvent::ErExpand { window, .. } | TraceEvent::ErReset { window, .. } => {
                    self.window = window
                }
                TraceEvent::Preempt { .. } => self.counters.0 += 1,
                TraceEvent::SpPromote { .. } => self.counters.1 += 1,
                TraceEvent::QueueSwap { .. } => self.counters.2 += 1,
                _ => {}
            }
        }
    }

    /// Random interleavings of inserts and pops, every regime, every cap:
    /// [`cascade::Dispatcher`] at both key widths, in lockstep, and
    /// [`ReferenceDispatcher`] agree on pop order, on `(q, q')` depths and
    /// the window after every call, on the pending set, on who is shed and
    /// in which order, and on the preemption, promotion and swap counts.
    #[test]
    fn dispatcher_matches_a_sorted_vec_model() {
        fn refreshed(r: &Request) -> u128 {
            (r.id as u128).wrapping_mul(0x9e37_79b9) % 1000
        }
        fn ids<F: FnOnce(&mut dyn FnMut(&Request))>(visit: F) -> Vec<u64> {
            let mut seen = Vec::new();
            visit(&mut |r| seen.push(r.id));
            seen.sort_unstable();
            seen
        }
        let conditional = |sp: bool, er: Option<f64>, refresh: bool| DispatchConfig {
            mode: PreemptionMode::Conditional { window: 0.1 },
            serve_promote: sp,
            expand_factor: er,
            refresh_on_swap: refresh,
            max_queue: None,
        };
        let regimes = [
            DispatchConfig::fully_preemptive(),
            DispatchConfig::non_preemptive(),
            conditional(false, None, false),
            conditional(true, None, true),
            conditional(false, Some(2.0), true),
            conditional(true, Some(2.0), true),
            // `w·e` truncates back to `w`: only the `w + 1` floor expands.
            conditional(true, Some(1.001), false),
        ];
        let mut seed = 0x5eed_u64;
        let mut next = move || {
            // splitmix64
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let req = |id| Request::read(id, 0, u64::MAX, 0, 512, QosVector::none());
        for base in regimes {
            for cap in [Some(1), Some(2), Some(16), None] {
                for with_refresh in [false, true] {
                    let cfg = DispatchConfig {
                        max_queue: cap,
                        ..base
                    };
                    let mut narrow = cascade::Dispatcher::<u64>::new(cfg, 1000);
                    let mut wide = cascade::Dispatcher::<u128>::new(cfg, 1000);
                    let mut m = ReferenceDispatcher::new(cfg, 1000);
                    let fresh = || Events {
                        window: m.window(),
                        ..Default::default()
                    };
                    let (mut narrow_events, mut wide_events) = (fresh(), fresh());
                    let what = format!("{cfg:?} refresh={with_refresh}");
                    // Phases of mostly-insert and mostly-pop, so bounded
                    // queues fill and shed, and every queue drains dry.
                    for step in 0..1_500u64 {
                        let filling = (step / 100) % 2 == 0;
                        if next() % 10 < if filling { 7 } else { 3 } {
                            // Few distinct values, so ties on `v` are common.
                            let v = (next() % 40 * 25) as u128;
                            narrow.insert_traced(req(step), v as u64, step, &mut narrow_events);
                            wide.insert_traced(req(step), v, step, &mut wide_events);
                            m.insert(req(step), v);
                        } else {
                            let (mut narrow_f, mut f) =
                                (|r: &Request| refreshed(r) as u64, refreshed);
                            let refresh = with_refresh.then_some(&mut narrow_f as _);
                            let got = narrow.pop_traced(refresh, step, &mut narrow_events);
                            let refresh = with_refresh.then_some(&mut f as _);
                            let got_wide = wide.pop_traced(refresh, step, &mut wide_events);
                            let want = m.pop(with_refresh.then_some(&mut f as _)).map(|r| r.id);
                            assert_eq!(got.map(|r| r.id), want, "{what}: u64 pop at step {step}");
                            assert_eq!(got_wide.map(|r| r.id), want, "{what}: pop at step {step}");
                        }
                        let want = (m.queue_depths(), m.window());
                        let got = (narrow.queue_depths(), narrow_events.window);
                        assert_eq!(got, want, "{what}: u64 depths, window at {step}");
                        let got = (wide.queue_depths(), wide_events.window);
                        assert_eq!(got, want, "{what}: depths, window at {step}");
                        if step % 16 == 0 {
                            let pending = ids(|f| m.for_each_pending(f));
                            let n = pending.len();
                            assert_eq!((narrow.len(), wide.len()), (n, n), "{what}: len at {step}");
                            let seen = ids(|f| narrow.for_each_pending(f));
                            assert_eq!(seen, pending, "{what}: u64 pending set at step {step}");
                            let seen = ids(|f| wide.for_each_pending(f));
                            assert_eq!(seen, pending, "{what}: pending set at step {step}");
                        }
                    }
                    let sheds = m.shed_log().len() as u64;
                    assert_eq!((narrow.sheds(), wide.sheds()), (sheds, sheds), "{what}");
                    for events in [narrow_events, wide_events] {
                        assert_eq!(events.shed_log, m.shed_log(), "{what}");
                        assert_eq!(events.counters, m.counters(), "{what}");
                    }
                    assert_eq!(cap.is_some(), sheds > 0, "{what}: sheds {sheds}");
                }
            }
        }
    }

    #[test]
    fn reference_sheds_worst_pending_or_arrival() {
        let cfg = cascade::CascadeConfig::priority_only(sfc::CurveKind::Diagonal, 1, 4)
            .with_dispatch(DispatchConfig::fully_preemptive().with_max_queue(2));
        let mut s = ReferenceCascade::new(cfg).unwrap();
        s.enqueue(req(1, 3), &head());
        s.enqueue(req(2, 14), &head()); // the eventual victim
        s.enqueue(req(3, 7), &head()); // evicts 2
        assert_eq!(DiskScheduler::sheds(&s), 1);
        s.enqueue(req(4, 15), &head()); // worse than everything: self-shed
        assert_eq!(DiskScheduler::sheds(&s), 2);
        let order: Vec<u64> = std::iter::from_fn(|| s.dequeue(&head()).map(|r| r.id)).collect();
        assert_eq!(order, vec![1, 3]);
    }

    /// [`reference_characterize`] against `Encapsulator::characterize` on
    /// seeded random cascades: every curve for SFC1 over 1–4 dimensions or
    /// none; SFC2 weighted at every balance factor of the controller's
    /// grid plus 0 and `1e12`, or a catalogue curve, or none; stage-2 and
    /// stage-3 grids of 1–16 bits; both distance modes — and requests with
    /// missing, surplus and out-of-range QoS levels, `u64::MAX` deadlines,
    /// arrivals past their deadline and cylinders beyond the disk.
    #[test]
    fn reference_characterize_matches_the_encapsulator() {
        use cascade::{DistanceMode, Stage1, Stage2, Stage3};
        use sfc::CurveKind;
        let mut seed = 0x0c4a_7c7e_u64;
        let mut next = move |n: u64| {
            // splitmix64
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        };
        let grid = ctrl::Grid::default();
        let mut fs: Vec<f64> = (0..grid.len()).map(|i| grid.point(i).f).collect();
        fs.dedup();
        fs.push(1e12);
        assert!(fs.contains(&0.0));
        let curves = CurveKind::ALL;
        let (mut compared, mut overflowed) = (0u64, 0u64);
        for _ in 0..2_000 {
            let mut pick = |n: usize| next(n as u64) as usize;
            let config = CascadeConfig {
                stage1: (pick(5) > 0).then(|| Stage1 {
                    curve: curves[pick(curves.len())],
                    dims: 1 + pick(4) as u32,
                    level_bits: 1 + pick(4) as u32,
                }),
                stage2: (pick(5) > 0).then(|| Stage2 {
                    combiner: if pick(5) > 0 {
                        Stage2Combiner::Weighted {
                            f: fs[pick(fs.len())],
                        }
                    } else {
                        Stage2Combiner::Curve(curves[pick(curves.len())])
                    },
                    horizon_us: [0, 1, 250_000, 1_000_000, u64::MAX][pick(5)],
                    resolution_bits: 1 + pick(16) as u32,
                }),
                stage3: (pick(5) > 0).then(|| Stage3 {
                    partitions: 1 + pick(8) as u32,
                    resolution_bits: 1 + pick(16) as u32,
                    cylinders: [1, 2, 100, 3832, 70_000][pick(5)],
                    distance: [DistanceMode::Absolute, DistanceMode::Circular][pick(2)],
                }),
                dispatch: cascade::DispatchConfig::fully_preemptive(),
            };
            let enc = Encapsulator::new(config.clone()).expect("every sampled cascade builds");
            let cylinders = config.stage3.map_or(3832, |s3| s3.cylinders);
            for id in 0..16 {
                let levels: Vec<u8> = (0..next(7)).map(|_| next(41) as u8).collect();
                let now = next(10_000_000);
                let deadline = match next(5) {
                    0 => u64::MAX,
                    1 => now.saturating_sub(next(1_000_000)), // already late
                    _ => now + next(3_000_000),
                };
                let cylinder = match next(5) {
                    0 => u32::MAX - next(3) as u32,
                    1 => cylinders + next(10_000) as u32, // beyond the disk
                    _ => next(cylinders.into()) as u32,
                };
                let r = Request::read(id, now, deadline, cylinder, 512, QosVector::new(&levels));
                let head = HeadState::new(next(cylinders.into()) as u32, now, cylinders);
                match reference_characterize(&config, &r, &head) {
                    Some(want) => {
                        assert_eq!(
                            enc.characterize(&r, &head),
                            want,
                            "{config:?} {r:?} {head:?}"
                        );
                        compared += 1;
                    }
                    None => overflowed += 1,
                }
            }
        }
        // Overflows are the 1e12 composites rescaled onto wide stage-3
        // grids (198 of 32,000 at this seed).
        assert!(compared > 30_000, "compared {compared}");
        assert!(
            overflowed * 100 < compared,
            "{overflowed} of {compared} overflowed"
        );
    }

    #[test]
    fn take_best_breaks_ties_by_id() {
        let mk = |id| Request::read(id, 0, 99, 10, 512, QosVector::none());
        let mut q = vec![mk(9), mk(2), mk(5)];
        assert_eq!(take_best(&mut q, |r| r.deadline_us).unwrap().id, 2);
        assert_eq!(q.len(), 2);
    }
}
