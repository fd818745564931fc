//! Naive, obviously-correct reference schedulers and the differential
//! harness that pits them against the optimized implementations.
//!
//! Every reference here trades all the data structures of the real code
//! for a flat `Vec` that is linearly re-scanned (and, for the cascade,
//! fully re-sorted) on every dispatch. The specification each one
//! implements is written in terms the paper uses — "serve the smallest
//! characterization value, ties to the oldest id" — not in terms of
//! heaps, swap-removes or peek orders, so a bug in the optimized queue
//! machinery cannot also hide here.
//!
//! The differential harness runs both implementations through
//! [`sim::simulate_logged`] on the *same* trace against identical disk
//! models and demands bit-identical metrics and per-request service logs.

use cascade::{
    CascadeConfig, CascadedSfc, DistanceMode, Encapsulator, PreemptionMode, Stage2Combiner,
};
use sched::{DiskScheduler, Edf, HeadState, Request, Scan, Sstf, SweepDirection};
use sfc::{SfcError, WeightedDiagonal};
use sim::{simulate_logged, DiskService, Metrics, RequestRecord, SimOptions};

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

/// O(n²) re-sort-per-dispatch reference for [`cascade::CascadedSfc`].
///
/// Same encapsulator (the three SFC stages are shared — they are the
/// *subject* of [`reference_characterize`], not of this oracle), but the
/// dispatcher is restated naively: two plain `Vec`s for `q`/`q'`, a full
/// sort before every dispatch, linear scans for SP promotion and shed
/// victim selection. Mirrors the documented semantics of
/// [`cascade::Dispatcher`] exactly: preemption window in absolute value
/// units resolved per-mille, idle arrivals join `q` without counting a
/// preemption, ER expansion `w ← max(w·e, w+1)`, window reset and
/// optional re-characterization at every queue swap, and overload
/// shedding that evicts the largest `(v, id)` among pending *and*
/// incoming.
pub struct ReferenceCascade {
    enc: Encapsulator,
    q: Vec<(u128, Request)>,
    q_wait: Vec<(u128, Request)>,
    base_window: u128,
    window: u128,
    current: Option<u128>,
    preemptions: u64,
    promotions: u64,
    swaps: u64,
    sheds: u64,
}

impl ReferenceCascade {
    /// Build the reference from the same configuration the optimized
    /// scheduler takes.
    pub fn new(config: CascadeConfig) -> Result<Self, SfcError> {
        let enc = Encapsulator::new(config)?;
        let max_value = enc.max_value().max(1);
        let base_window = match enc.config().dispatch.mode {
            PreemptionMode::Conditional { window } => {
                let w = window.clamp(0.0, 1.0);
                let permille = (w * 1000.0).round() as u128;
                max_value / 1000 * permille + (max_value % 1000) * permille / 1000
            }
            _ => 0,
        };
        Ok(ReferenceCascade {
            enc,
            q: Vec::new(),
            q_wait: Vec::new(),
            base_window,
            window: base_window,
            current: None,
            preemptions: 0,
            promotions: 0,
            swaps: 0,
            sheds: 0,
        })
    }

    /// (preemptions, SP promotions, queue swaps) — comparable with
    /// [`cascade::CascadedSfc::dispatch_counters`].
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.preemptions, self.promotions, self.swaps)
    }

    fn expand_window(&mut self) {
        if let Some(e) = self.enc.config().dispatch.expand_factor {
            let expanded = (self.window as f64 * e) as u128;
            self.window = expanded.max(self.window.saturating_add(1));
        }
    }

    /// Overload victim selection: the largest `(v, id)` among everything
    /// pending and the arrival itself. Returns the arrival when a queued
    /// request was evicted to make room, `None` when the arrival lost.
    fn shed_worst(&mut self, v: u128, req: Request) -> Option<(u128, Request)> {
        self.sheds += 1;
        let worst_pending = self
            .q
            .iter()
            .chain(self.q_wait.iter())
            .map(|(pv, pr)| (*pv, pr.id))
            .max();
        match worst_pending {
            Some(worst) if worst > (v, req.id) => {
                let queue = if self.q.iter().any(|(pv, pr)| (*pv, pr.id) == worst) {
                    &mut self.q
                } else {
                    &mut self.q_wait
                };
                let pos = queue
                    .iter()
                    .position(|(pv, pr)| (*pv, pr.id) == worst)
                    .expect("victim is pending");
                queue.remove(pos);
                Some((v, req))
            }
            _ => None,
        }
    }
}

impl DiskScheduler for ReferenceCascade {
    fn name(&self) -> &'static str {
        "reference-cascaded-sfc"
    }

    fn enqueue(&mut self, req: Request, head: &HeadState) {
        let v = self.enc.characterize(&req, head);
        let full = self
            .enc
            .config()
            .dispatch
            .max_queue
            .is_some_and(|cap| self.len() >= cap);
        let slot = if full {
            match self.shed_worst(v, req) {
                Some(slot) => slot,
                None => return, // the arrival itself was the shed victim
            }
        } else {
            (v, req)
        };
        match self.enc.config().dispatch.mode {
            PreemptionMode::Fully => self.q.push(slot),
            PreemptionMode::NonPreemptive => self.q_wait.push(slot),
            PreemptionMode::Conditional { .. } => {
                let significantly_higher = match self.current {
                    None => true, // idle disk: nothing to preempt
                    Some(cur) => slot.0 < cur.saturating_sub(self.window),
                };
                if significantly_higher {
                    if self.current.is_some() {
                        self.preemptions += 1;
                        self.expand_window();
                    }
                    self.q.push(slot);
                } else {
                    self.q_wait.push(slot);
                }
            }
        }
    }

    fn dequeue(&mut self, head: &HeadState) -> Option<Request> {
        if self.q.is_empty() {
            if self.q_wait.is_empty() {
                self.current = None;
                return None;
            }
            std::mem::swap(&mut self.q, &mut self.q_wait);
            self.swaps += 1;
            self.window = self.base_window;
            if self.enc.config().dispatch.refresh_on_swap {
                for slot in &mut self.q {
                    slot.0 = self.enc.characterize(&slot.1, head);
                }
            }
        }
        if self.enc.config().dispatch.serve_promote {
            // SP: promote any waiter that significantly beats the next
            // candidate; both minima re-scanned from scratch every round.
            loop {
                let next_v = self
                    .q
                    .iter()
                    .map(|(v, r)| (*v, r.id))
                    .min()
                    .expect("q non-empty")
                    .0;
                let Some(wait_best) = self.q_wait.iter().map(|(v, r)| (*v, r.id)).min() else {
                    break;
                };
                if wait_best.0 < next_v.saturating_sub(self.window) {
                    let pos = self
                        .q_wait
                        .iter()
                        .position(|(v, r)| (*v, r.id) == wait_best)
                        .expect("minimum is present");
                    let slot = self.q_wait.remove(pos);
                    self.promotions += 1;
                    self.expand_window();
                    self.q.push(slot);
                } else {
                    break;
                }
            }
        }
        // The naive dispatch itself: re-sort the whole active queue by
        // (value, id) and serve the front.
        self.q.sort_by_key(|a| (a.0, a.1.id));
        let (v, req) = self.q.remove(0);
        self.current = Some(v);
        Some(req)
    }

    fn len(&self) -> usize {
        self.q.len() + self.q_wait.len()
    }

    fn for_each_pending(&self, f: &mut dyn FnMut(&Request)) {
        for (_, r) in self.q.iter().chain(self.q_wait.iter()) {
            f(r);
        }
    }

    fn sheds(&self) -> u64 {
        self.sheds
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

/// Report the first divergence between two per-request service logs.
pub fn compare_logs(
    what: &str,
    optimized: &[RequestRecord],
    reference: &[RequestRecord],
) -> Result<(), String> {
    if let Some(i) =
        (0..optimized.len().min(reference.len())).find(|&i| optimized[i] != reference[i])
    {
        let (a, b) = (&optimized[i], &reference[i]);
        return Err(format!(
            "{what}: dispatch order diverges at position {i}: optimized served \
             req {} (arrival {}, completion {:?}, lost {}) but reference served \
             req {} (arrival {}, completion {:?}, lost {})",
            a.id,
            a.arrival_us,
            a.completion_us,
            a.lost,
            b.id,
            b.arrival_us,
            b.completion_us,
            b.lost
        ));
    }
    if optimized.len() != reference.len() {
        return Err(format!(
            "{what}: log lengths diverge: optimized {} vs reference {}",
            optimized.len(),
            reference.len()
        ));
    }
    Ok(())
}

fn run_one(
    scheduler: &mut dyn DiskScheduler,
    trace: &[Request],
    options: SimOptions,
    make_service: &impl Fn() -> DiskService,
) -> (Metrics, Vec<RequestRecord>) {
    let mut service = make_service();
    simulate_logged(scheduler, trace, &mut service, options)
}

/// Differential oracle for one scheduler pair: run `optimized` and
/// `reference` through [`sim::simulate_logged`] on the same trace against
/// identical fresh disk models and demand bit-identical metrics and logs.
pub fn diff_pair(
    what: &str,
    optimized: &mut dyn DiskScheduler,
    reference: &mut dyn DiskScheduler,
    trace: &[Request],
    options: SimOptions,
    make_service: impl Fn() -> DiskService,
) -> Result<Metrics, String> {
    let (m_opt, log_opt) = run_one(optimized, trace, options, &make_service);
    let (m_ref, log_ref) = run_one(reference, trace, options, &make_service);
    compare_logs(what, &log_opt, &log_ref)?;
    if m_opt != m_ref {
        return Err(format!(
            "{what}: metrics diverge with identical logs: {m_opt:?} vs {m_ref:?}"
        ));
    }
    Ok(m_opt)
}

/// Differential oracle for the cascade: optimized [`cascade::CascadedSfc`]
/// vs [`ReferenceCascade`] built from the same configuration, compared on
/// metrics, service logs, dispatcher counters and shed counts.
pub fn diff_cascade(
    config: &CascadeConfig,
    trace: &[Request],
    options: SimOptions,
    make_service: impl Fn() -> DiskService,
) -> Result<Metrics, String> {
    let mut optimized =
        CascadedSfc::new(config.clone()).map_err(|e| format!("cascade config rejected: {e}"))?;
    let mut reference = ReferenceCascade::new(config.clone())
        .map_err(|e| format!("cascade config rejected: {e}"))?;
    let m = diff_pair(
        "cascaded-sfc",
        &mut optimized,
        &mut reference,
        trace,
        options,
        make_service,
    )?;
    if optimized.dispatch_counters() != reference.counters() {
        return Err(format!(
            "cascaded-sfc: (preemptions, promotions, swaps) diverge: {:?} vs {:?}",
            optimized.dispatch_counters(),
            reference.counters()
        ));
    }
    if optimized.sheds() != DiskScheduler::sheds(&reference) {
        return Err(format!(
            "cascaded-sfc: shed counts diverge: {} vs {}",
            optimized.sheds(),
            DiskScheduler::sheds(&reference)
        ));
    }
    Ok(m)
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
