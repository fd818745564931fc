//! The incremental routing core: one arrival in, one decision out.
//!
//! [`OnlineRouter`] owns exactly the state the batch routing pass
//! ([`crate::route_trace`]) kept on its stack — the routing policy and
//! the modeled per-shard load — and exposes it one request at a time, so
//! a long-running daemon can interleave routing with membership changes.
//! The batch pass is a thin loop over this type, which is what makes the
//! offline/online parity gate hold *by construction*: with every shard
//! eligible, [`OnlineRouter::route`] runs the very same code the batch
//! pass always ran.
//!
//! On top of the batch semantics it adds an **eligibility mask** for the
//! daemon: a draining or quarantined shard stays in the load model (its
//! residents still drain) but receives no new arrivals — the policy's
//! choice is then rerouted to the least-loaded eligible shard.

use obs::TraceEvent;
use sched::Request;

use crate::router::{least_loaded_among, ShardLoad};
use crate::{FarmConfig, RoutePolicy};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Modeled shard occupancy during routing: each assignment books
/// `est_service_us` of work onto the shard; bookings completed by the
/// current arrival time fall out of the depth.
///
/// The model keeps the routers' view — one [`ShardLoad`] per shard —
/// up to date in place, and one farm-wide heap of modeled completions,
/// so an arrival costs the bookings it retires, not a pass over every
/// shard.
pub(crate) struct LoadModel {
    est_service_us: u64,
    /// Min-heap of `(modeled completion time, shard)` over the farm.
    completions: BinaryHeap<Reverse<(u64, usize)>>,
    /// Current loads, one per shard: `queue_depth` counts the shard's
    /// bookings still in `completions`, `busy_until_us` is its modeled
    /// drain horizon.
    loads: Vec<ShardLoad>,
}

impl LoadModel {
    pub(crate) fn new(capacities: &[Option<usize>], est_service_us: u64) -> Self {
        let mut model = LoadModel {
            est_service_us: est_service_us.max(1),
            completions: BinaryHeap::new(),
            loads: Vec::with_capacity(capacities.len()),
        };
        for &capacity in capacities {
            model.add_shard(capacity);
        }
        model
    }

    /// Retire bookings completed by `now`.
    pub(crate) fn advance_to(&mut self, now: u64) {
        while let Some(&Reverse((done, shard))) = self.completions.peek() {
            if done > now {
                break;
            }
            self.completions.pop();
            self.loads[shard].queue_depth -= 1;
        }
    }

    /// Current loads, one per shard.
    pub(crate) fn loads(&self) -> &[ShardLoad] {
        &self.loads
    }

    /// Book one request arriving at `now` onto `shard`. Saturating: a
    /// booking at the end of time completes at the end of time instead of
    /// wrapping into the past (where it would retire at once and the
    /// shard would look idle).
    pub(crate) fn assign(&mut self, shard: usize, now: u64) {
        let load = &mut self.loads[shard];
        let done = load
            .busy_until_us
            .max(now)
            .saturating_add(self.est_service_us);
        load.busy_until_us = done;
        load.queue_depth += 1;
        self.completions.push(Reverse((done, shard)));
    }

    /// Grow the model by one idle shard with the given bounded-queue
    /// capacity.
    pub(crate) fn add_shard(&mut self, capacity: Option<usize>) {
        self.loads.push(ShardLoad {
            queue_depth: 0,
            busy_until_us: 0,
            capacity,
        });
    }
}

/// One routing decision: where the request goes and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDecision {
    /// The shard the request was placed on.
    pub shard: usize,
    /// What the routing policy picked before eligibility and overload
    /// corrections.
    pub policy_choice: usize,
    /// The shard the overload redirect (if any) steered away *from* —
    /// equals `policy_choice` unless an eligibility reroute intervened.
    pub redirect_from: usize,
    /// Modeled queue depth of `redirect_from` at decision time.
    pub queue_depth: usize,
    /// An overload redirect fired (`shard != redirect_from`).
    pub redirected: bool,
    /// The policy chose an ineligible (draining/quarantined) shard and
    /// the decision fell back to the least-loaded eligible one.
    pub rerouted: bool,
}

impl RouteDecision {
    /// The [`TraceEvent::Redirect`] this decision owes the telemetry
    /// plane, if its overload redirect fired — identical to the event
    /// the batch routing pass emits.
    pub fn redirect_event(&self, r: &Request) -> Option<TraceEvent> {
        self.redirected.then_some(TraceEvent::Redirect {
            now_us: r.arrival_us,
            req: r.id,
            from_shard: self.redirect_from as u32,
            to_shard: self.shard as u32,
            queue_depth: self.queue_depth as u64,
        })
    }
}

/// The event-driven router: feed it arrival-ordered requests, get
/// placements that — absent membership events — are bit-identical to
/// the batch routing pass.
pub struct OnlineRouter {
    policy: RoutePolicy,
    cylinders: u32,
    model: LoadModel,
    eligible: Vec<bool>,
    eligible_count: usize,
    redirect_on_overload: bool,
    redirects: u64,
    reroutes: u64,
}

impl OnlineRouter {
    /// A router over `cfg.shards` shards with the given bounded-queue
    /// capacities (one per shard, [`None`] for unbounded), every shard
    /// eligible.
    pub fn new(cfg: &FarmConfig, capacities: &[Option<usize>]) -> Self {
        assert!(cfg.shards >= 1, "a farm needs at least one shard");
        assert_eq!(capacities.len(), cfg.shards);
        OnlineRouter {
            policy: cfg.policy,
            cylinders: cfg.cylinders,
            model: LoadModel::new(capacities, cfg.est_service_us),
            eligible: vec![true; cfg.shards],
            eligible_count: cfg.shards,
            redirect_on_overload: cfg.redirect_on_overload,
            redirects: 0,
            reroutes: 0,
        }
    }

    /// Current shard count (including ineligible members).
    pub fn shards(&self) -> usize {
        self.eligible.len()
    }

    /// Shards currently accepting new arrivals.
    pub fn eligible_count(&self) -> usize {
        self.eligible_count
    }

    /// Whether `shard` accepts new arrivals.
    pub fn is_eligible(&self, shard: usize) -> bool {
        self.eligible[shard]
    }

    /// Mark `shard` eligible (reinstated) or ineligible (draining or
    /// quarantined). Ineligible shards stay in the load model — their
    /// residents are still draining — but receive no new arrivals.
    ///
    /// # Panics
    /// If this would leave no eligible shard: new arrivals would have
    /// nowhere to go, which is an orchestration bug, not a decision.
    pub fn set_eligible(&mut self, shard: usize, eligible: bool) {
        if self.eligible[shard] == eligible {
            return;
        }
        self.eligible[shard] = eligible;
        if eligible {
            self.eligible_count += 1;
        } else {
            self.eligible_count -= 1;
        }
        assert!(
            self.eligible_count > 0,
            "the last eligible shard cannot be removed"
        );
    }

    /// Add a fresh, idle, eligible shard; returns its index.
    pub fn add_shard(&mut self, capacity: Option<usize>) -> usize {
        self.model.add_shard(capacity);
        self.eligible.push(true);
        self.eligible_count += 1;
        self.eligible.len() - 1
    }

    /// The least-loaded eligible shard right now — the migration target
    /// a closing drain hands its backlog to.
    pub fn least_loaded_eligible(&self) -> usize {
        least_loaded_among(self.model.loads(), &self.eligible).expect("at least one eligible shard")
    }

    /// Swap the routing policy live — the control plane's router retune
    /// hook. The load model, eligibility mask and counters all survive
    /// the swap; only the placement rule changes, so the swap is safe at
    /// any event boundary.
    pub fn set_policy(&mut self, policy: RoutePolicy) {
        self.policy = policy;
    }

    /// The active routing policy.
    pub fn policy(&self) -> RoutePolicy {
        self.policy
    }

    /// Overload redirects taken so far (same counter the batch pass
    /// reports in [`crate::Placement::redirects`]).
    pub fn redirects(&self) -> u64 {
        self.redirects
    }

    /// Eligibility reroutes taken so far (always 0 without membership
    /// events).
    pub fn reroutes(&self) -> u64 {
        self.reroutes
    }

    /// Route one arrival. Requests must come in arrival order (the same
    /// contract the batch pass's trace argument carries).
    pub fn route(&mut self, r: &Request) -> RouteDecision {
        self.model.advance_to(r.arrival_us);
        let loads = self.model.loads();
        let chosen = self.policy.route(r, loads, self.cylinders);
        let mut target = chosen;
        let mut rerouted = false;
        if !self.eligible[chosen] {
            target =
                least_loaded_among(loads, &self.eligible).expect("at least one eligible shard");
            rerouted = true;
            self.reroutes += 1;
        }
        // Overload redirect — the exact batch-pass decision applied to
        // the policy's target, constrained to eligible shards. A rerouted
        // target already is the least-loaded eligible shard, so probing
        // again could only find `alt == target`.
        let redirect_from = target;
        let mut redirected = false;
        if self.redirect_on_overload && !rerouted && loads[target].projected_full() {
            let alt =
                least_loaded_among(loads, &self.eligible).expect("at least one eligible shard");
            if alt != target && !loads[alt].projected_full() {
                redirected = true;
                self.redirects += 1;
                target = alt;
            }
        }
        let queue_depth = loads[redirect_from].queue_depth;
        self.model.assign(target, r.arrival_us);
        RouteDecision {
            shard: target,
            policy_choice: chosen,
            redirect_from,
            queue_depth,
            redirected,
            rerouted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched::QosVector;

    fn req(id: u64, arrival: u64, stream: u64, cyl: u32) -> Request {
        Request::read(id, arrival, u64::MAX, cyl, 65536, QosVector::none()).with_stream(stream)
    }

    #[test]
    fn ineligible_shards_receive_no_new_arrivals() {
        let cfg = FarmConfig::new(4);
        let mut router = OnlineRouter::new(&cfg, &[None; 4]);
        // Find a stream the hash policy sends to some shard, then mark
        // that shard ineligible: every later arrival must land elsewhere.
        let victim = router.route(&req(0, 0, 7, 0)).shard;
        router.set_eligible(victim, false);
        for i in 1..50 {
            let d = router.route(&req(i, i * 100, 7, 0));
            assert_ne!(d.shard, victim);
            assert_eq!(d.policy_choice, victim, "hash stays sticky");
            assert!(d.rerouted);
        }
        assert_eq!(router.reroutes(), 49);
        // Reinstate: the sticky stream comes home.
        router.set_eligible(victim, true);
        let d = router.route(&req(99, 10_000_000, 7, 0));
        assert_eq!(d.shard, victim);
        assert!(!d.rerouted);
    }

    #[test]
    fn added_shard_starts_idle_and_attracts_load() {
        let cfg = FarmConfig::new(2).with_policy(RoutePolicy::LeastLoaded);
        let mut router = OnlineRouter::new(&cfg, &[None, None]);
        for i in 0..10 {
            router.route(&req(i, 0, i, 0));
        }
        let new = router.add_shard(None);
        assert_eq!(new, 2);
        assert_eq!(router.shards(), 3);
        // The idle newcomer is now the least-loaded choice.
        assert_eq!(router.route(&req(10, 0, 10, 0)).shard, new);
    }

    #[test]
    fn policy_swap_preserves_load_model_and_counters() {
        let cfg = FarmConfig::new(3).with_policy(RoutePolicy::HashStream);
        let mut router = OnlineRouter::new(&cfg, &[None; 3]);
        // Load shard 0 heavily through the sticky hash policy.
        let heavy = router.route(&req(0, 0, 7, 0)).shard;
        for i in 1..12 {
            router.route(&req(i, 0, 7, 0));
        }
        assert_eq!(router.policy(), RoutePolicy::HashStream);
        router.set_policy(RoutePolicy::LeastLoaded);
        assert_eq!(router.policy(), RoutePolicy::LeastLoaded);
        // The surviving load model steers the next arrival off the shard
        // the old policy piled onto.
        let d = router.route(&req(12, 0, 7, 0));
        assert_ne!(d.shard, heavy);
        assert_eq!(router.reroutes(), 0);
        assert_eq!(router.redirects(), 0);
    }

    #[test]
    fn bookings_at_the_end_of_time_saturate_instead_of_wrapping() {
        // A wrapped completion time would lie in the past, retire at the
        // next arrival and make the booked shard look idle again.
        let cfg = FarmConfig::new(2).with_policy(RoutePolicy::LeastLoaded);
        let mut router = OnlineRouter::new(&cfg, &[None, None]);
        let late = u64::MAX - 1;
        assert_eq!(router.route(&req(0, late, 0, 0)).shard, 0);
        assert_eq!(
            router.route(&req(1, late, 1, 0)).shard,
            1,
            "shard 0 is booked"
        );
        let d = router.route(&req(2, late, 2, 0));
        assert_eq!(
            (d.shard, d.queue_depth),
            (0, 1),
            "both booked: lowest index"
        );
        assert_eq!(router.eligible_count(), 2);
    }

    #[test]
    fn eligible_count_tracks_membership_changes() {
        let cfg = FarmConfig::new(3);
        let mut router = OnlineRouter::new(&cfg, &[None; 3]);
        assert_eq!(router.eligible_count(), 3);
        router.set_eligible(1, false);
        router.set_eligible(1, false); // repeating a state is not a change
        assert_eq!(router.eligible_count(), 2);
        router.add_shard(None);
        assert_eq!(router.eligible_count(), 3);
        router.set_eligible(1, true);
        router.set_eligible(1, true);
        assert_eq!(router.eligible_count(), 4);
    }

    #[test]
    #[should_panic(expected = "last eligible shard")]
    fn cannot_remove_the_last_eligible_shard() {
        let cfg = FarmConfig::new(2);
        let mut router = OnlineRouter::new(&cfg, &[None, None]);
        router.set_eligible(0, false);
        router.set_eligible(1, false);
    }

    #[test]
    fn redirect_decision_carries_the_batch_event_fields() {
        let cfg = FarmConfig::new(2)
            .with_policy(RoutePolicy::HashStream)
            .with_redirects();
        // Tiny bounded queues: the sticky stream overloads its shard.
        let mut router = OnlineRouter::new(&cfg, &[Some(2), Some(2)]);
        let mut redirected = None;
        for i in 0..8 {
            let r = req(i, 0, 3, 0);
            let d = router.route(&r);
            if let Some(ev) = d.redirect_event(&r) {
                redirected = Some((d, ev));
                break;
            }
        }
        let (d, ev) = redirected.expect("overload must trigger a redirect");
        match ev {
            TraceEvent::Redirect {
                from_shard,
                to_shard,
                queue_depth,
                ..
            } => {
                assert_eq!(from_shard as usize, d.policy_choice);
                assert_eq!(to_shard as usize, d.shard);
                assert_eq!(queue_depth as usize, d.queue_depth);
            }
            other => panic!("expected redirect, got {other:?}"),
        }
    }
}
