//! The incremental routing core: one arrival in, one decision out.
//!
//! [`OnlineRouter`] owns the routing state — the routing policy and
//! the modeled per-shard load — and exposes it one request at a time, so
//! a long-running daemon can interleave routing with membership changes.
//! With every shard eligible its placements are a pure function of the
//! arrival-ordered trace and the configuration; the oracle re-derives
//! them from the policy documentation over a naive load model
//! (`oracle::routing`) and requires the two to agree.
//!
//! The modeled load is one number per shard — the time at which its
//! bookings drain ([`ShardLoad`]) — and depth and fullness are computed
//! from it at each arrival, so the router's state is the size of the
//! farm however many requests it has placed.
//!
//! On top of the policies it keeps an **eligibility mask** for the
//! daemon: a draining or quarantined shard stays in the load model (its
//! residents still drain) but receives no new arrivals — the policy's
//! choice is then rerouted to the least-loaded eligible shard. The shards
//! in rotation are also kept as an ascending index list, so that search
//! scans only them, however many members have drained out.

use obs::TraceEvent;
use sched::Request;

use crate::router::ShardLoad;
use crate::{FarmConfig, RoutePolicy};

/// Modeled shard occupancy during routing, in closed form: each
/// assignment books `est_service_us` of work onto the shard, and the
/// model stores one number per shard — the horizon at which everything
/// booked so far has drained.
///
/// That number is the whole state because every booking costs the same
/// and arrivals come in order: a booking starts at `max(horizon, now)`,
/// so inside a busy period the shard's completions sit `est_service_us`
/// apart, counted back from the horizon, and a booking made while idle
/// starts a new period whose only completion is the new horizon. The
/// bookings completed by an arrival time are the ones at or before it,
/// which leaves `⌈(horizon − now) / est_service_us⌉` pending
/// ([`ShardLoad::depth_at`]). Nothing is retired, because nothing per
/// booking is kept: the model's size is the shard count, whatever the
/// traffic.
///
/// **Saturation.** [`LoadModel::assign`] saturates, so a horizon can
/// reach `u64::MAX`; bookings are no longer evenly spaced behind it and
/// their count is lost. The model reads such a shard as full and never
/// idle again (depth `usize::MAX`, projected full for every bounded
/// capacity): there is no later time at which it could have drained.
pub(crate) struct LoadModel {
    est_service_us: u64,
    /// Current loads, one per shard.
    loads: Vec<ShardLoad>,
}

impl LoadModel {
    pub(crate) fn new(capacities: &[Option<usize>], est_service_us: u64) -> Self {
        let mut model = LoadModel {
            est_service_us: est_service_us.max(1),
            loads: Vec::with_capacity(capacities.len()),
        };
        for &capacity in capacities {
            model.add_shard(capacity);
        }
        model
    }

    /// Current loads, one per shard.
    pub(crate) fn loads(&self) -> &[ShardLoad] {
        &self.loads
    }

    /// Modeled pending bookings on `shard` at `now`.
    pub(crate) fn depth(&self, shard: usize, now: u64) -> usize {
        self.loads[shard].depth_at(now, self.est_service_us)
    }

    /// Whether `shard`'s bounded queue is projected full at `now`.
    pub(crate) fn projected_full(&self, shard: usize, now: u64) -> bool {
        self.loads[shard].projected_full_at(now, self.est_service_us)
    }

    /// Book one request arriving at `now` onto `shard`. Saturating: a
    /// booking at the end of time completes at the end of time instead of
    /// wrapping into the past (where the shard would look idle).
    pub(crate) fn assign(&mut self, shard: usize, now: u64) {
        let load = &mut self.loads[shard];
        load.busy_until_us = load
            .busy_until_us
            .max(now)
            .saturating_add(self.est_service_us);
    }

    /// Grow the model by one idle shard with the given bounded-queue
    /// capacity.
    pub(crate) fn add_shard(&mut self, capacity: Option<usize>) {
        self.loads.push(ShardLoad {
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
    /// plane, if its overload redirect fired.
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

/// The event-driven router: feed it arrival-ordered requests, get one
/// placement per request — absent membership events, a pure function of
/// the trace and the configuration.
pub struct OnlineRouter {
    policy: RoutePolicy,
    cylinders: u32,
    model: LoadModel,
    eligible: Vec<bool>,
    /// The eligible shards, ascending: what a reroute or a redirect scans.
    rotation: Vec<usize>,
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
            rotation: (0..cfg.shards).collect(),
            redirect_on_overload: cfg.redirect_on_overload,
            redirects: 0,
            reroutes: 0,
        }
    }

    /// Current shard count (including ineligible members).
    pub fn shards(&self) -> usize {
        self.eligible.len()
    }

    /// Entries held: one modeled drain horizon and one eligibility flag
    /// per shard, and one rotation entry per eligible shard, whatever the
    /// traffic.
    pub fn state_len(&self) -> usize {
        self.model.loads.len() + self.eligible.len() + self.rotation.len()
    }

    /// Shards currently accepting new arrivals.
    pub fn eligible_count(&self) -> usize {
        self.rotation.len()
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
        assert!(
            eligible || self.rotation.len() > 1,
            "the last eligible shard cannot be removed"
        );
        self.eligible[shard] = eligible;
        match (self.rotation.binary_search(&shard), eligible) {
            (Err(at), true) => self.rotation.insert(at, shard),
            (Ok(at), false) => {
                self.rotation.remove(at);
            }
            _ => unreachable!("the rotation list mirrors the eligibility flags"),
        }
    }

    /// Add a fresh, idle, eligible shard; returns its index.
    pub fn add_shard(&mut self, capacity: Option<usize>) -> usize {
        self.model.add_shard(capacity);
        self.eligible.push(true);
        // The highest index yet: the list stays ascending.
        self.rotation.push(self.eligible.len() - 1);
        self.eligible.len() - 1
    }

    /// The least-loaded eligible shard right now — where a reroute or an
    /// overload redirect goes, and the migration target a closing drain
    /// hands its backlog to. The least-loaded policy's order, `(drain
    /// horizon, index)`, over the rotation list only.
    pub fn least_loaded_eligible(&self) -> usize {
        let loads = self.model.loads();
        self.rotation
            .iter()
            .map(|&i| (loads[i].busy_until_us, i))
            .min()
            .expect("at least one eligible shard")
            .1
    }

    /// Overload redirects taken so far (reported as
    /// [`crate::DaemonReport::redirects`]).
    pub fn redirects(&self) -> u64 {
        self.redirects
    }

    /// Eligibility reroutes taken so far (always 0 without membership
    /// events).
    pub fn reroutes(&self) -> u64 {
        self.reroutes
    }

    /// Route one arrival. Requests must come in arrival order.
    pub fn route(&mut self, r: &Request) -> RouteDecision {
        let now = r.arrival_us;
        let chosen = self.policy.route(r, self.model.loads(), self.cylinders);
        let mut target = chosen;
        let mut rerouted = false;
        if !self.eligible[chosen] {
            target = self.least_loaded_eligible();
            rerouted = true;
            self.reroutes += 1;
        }
        // Overload redirect — applied to the policy's target,
        // constrained to eligible shards. A rerouted
        // target already is the least-loaded eligible shard, so probing
        // again could only find `alt == target`.
        let redirect_from = target;
        let mut redirected = false;
        if self.redirect_on_overload && !rerouted && self.model.projected_full(target, now) {
            let alt = self.least_loaded_eligible();
            if alt != target && !self.model.projected_full(alt, now) {
                redirected = true;
                self.redirects += 1;
                target = alt;
            }
        }
        let queue_depth = self.model.depth(redirect_from, now);
        self.model.assign(target, now);
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
    fn bookings_at_the_end_of_time_saturate_instead_of_wrapping() {
        // A wrapped horizon would lie in the past and make the booked
        // shard look idle again; a saturated one reads full for good.
        let cfg = FarmConfig::new(2).with_policy(RoutePolicy::LeastLoaded);
        let mut router = OnlineRouter::new(&cfg, &[None, None]);
        let late = u64::MAX - 1;
        assert_eq!(router.route(&req(0, late, 0, 0)).shard, 0);
        assert_eq!(
            router.route(&req(1, late, 1, 0)).shard,
            1,
            "shard 0 is booked"
        );
        for now in [late, u64::MAX] {
            let d = router.route(&req(2, now, 2, 0));
            assert_eq!(
                (d.shard, d.queue_depth),
                (0, usize::MAX),
                "both saturated: lowest index, never idle again"
            );
        }
        assert_eq!(router.eligible_count(), 2);
    }

    #[test]
    fn a_saturated_bounded_shard_is_full_and_redirects_while_room_remains() {
        let cfg = FarmConfig::new(2).with_redirects();
        let mut router = OnlineRouter::new(&cfg, &[Some(1_000), Some(1_000)]);
        let home = router.route(&req(0, u64::MAX - 1, 7, 0)).shard;
        // One booking saturated the sticky shard: it reads full although
        // its capacity is 1000, and the stream is steered to the other.
        let d = router.route(&req(1, u64::MAX - 1, 7, 0));
        assert!(d.redirected);
        assert_eq!((d.redirect_from, d.shard), (home, 1 - home));
        assert_eq!(d.queue_depth, usize::MAX);
        // Now both are saturated: nowhere has room, the stream stays home.
        let d = router.route(&req(2, u64::MAX, 7, 0));
        assert_eq!((d.shard, d.redirected), (home, false));
        assert_eq!(router.redirects(), 1);
    }

    #[test]
    fn service_estimates_of_zero_and_of_all_time_are_readable() {
        // 0 is clamped to 1 µs: a booking is pending until the next tick.
        let mut cfg = FarmConfig::new(1);
        cfg.est_service_us = 0;
        let mut router = OnlineRouter::new(&cfg, &[None]);
        let depths: Vec<usize> = [10, 10, 10, 11, 12, 20]
            .iter()
            .map(|&t| router.route(&req(0, t, 0, 0)).queue_depth)
            .collect();
        assert_eq!(depths, [0, 1, 2, 2, 2, 0]);
        // u64::MAX: the first booking made after time 0 saturates the
        // horizon; one made at time 0 ends exactly at the end of time,
        // which is the same reading.
        cfg.est_service_us = u64::MAX;
        for first in [0, 5] {
            let mut router = OnlineRouter::new(&cfg, &[None]);
            assert_eq!(router.route(&req(0, first, 0, 0)).queue_depth, 0);
            assert_eq!(router.route(&req(1, first, 0, 0)).queue_depth, usize::MAX);
        }
    }

    #[test]
    fn a_shard_out_of_rotation_keeps_draining_in_the_model() {
        let cfg = FarmConfig::new(2);
        let est = cfg.est_service_us;
        let mut router = OnlineRouter::new(&cfg, &[None, None]);
        // Three bookings of one sticky stream: its shard is busy to 3·est.
        let home = router.route(&req(0, 0, 7, 0)).shard;
        router.route(&req(1, 0, 7, 0));
        assert_eq!(router.route(&req(2, 0, 7, 0)).queue_depth, 2);
        // Out of rotation while busy: the stream goes elsewhere, and the
        // depth reported is the stand-in's.
        router.set_eligible(home, false);
        let d = router.route(&req(3, est, 7, 0));
        assert_eq!((d.shard, d.rerouted, d.queue_depth), (1 - home, true, 0));
        // Reinstated after two of the three completions: one is left.
        router.set_eligible(home, true);
        let d = router.route(&req(4, 2 * est, 7, 0));
        assert_eq!((d.shard, d.rerouted, d.queue_depth), (home, false, 1));
    }

    #[test]
    fn a_shard_added_mid_run_starts_its_first_busy_period_at_its_first_booking() {
        let cfg = FarmConfig::new(1).with_policy(RoutePolicy::LeastLoaded);
        let est = cfg.est_service_us;
        let mut router = OnlineRouter::new(&cfg, &[Some(2)]);
        let t = 1_000 * est;
        router.route(&req(0, t, 0, 0));
        router.route(&req(1, t, 1, 0));
        let new = router.add_shard(Some(2));
        // Idle since time 0, not since it joined: one booking at `t` is
        // one pending request, not t / est of them.
        assert_eq!(router.route(&req(2, t, 2, 0)).shard, new);
        let d = router.route(&req(3, t, 3, 0));
        assert_eq!((d.shard, d.queue_depth), (new, 1));
        let d = router.route(&req(4, t + est, 4, 0));
        assert_eq!((d.shard, d.queue_depth), (0, 1), "both drained one");
    }

    #[test]
    fn a_million_overloaded_arrivals_leave_the_model_the_size_of_the_farm() {
        let cfg = FarmConfig::new(4).with_redirects();
        let mut router = OnlineRouter::new(&cfg, &[Some(64); 4]);
        let footprint = |r: &OnlineRouter| (r.model.loads.len(), r.model.loads.capacity());
        let before = footprint(&router);
        // Ten times what four shards can serve: the model falls behind by
        // 0.9 bookings per arrival and never catches up.
        let gap = cfg.est_service_us / 40;
        let mut deepest = 0;
        for i in 0..1_000_000u64 {
            deepest = deepest.max(router.route(&req(i, i * gap, i, 0)).queue_depth);
        }
        assert!(deepest > 200_000, "the backlog is modeled: {deepest}");
        assert_eq!(footprint(&router), before);
    }

    #[test]
    fn the_rotation_list_tracks_membership_changes() {
        let cfg = FarmConfig::new(3);
        let mut router = OnlineRouter::new(&cfg, &[None; 3]);
        assert_eq!(router.rotation, [0, 1, 2]);
        router.set_eligible(1, false);
        router.set_eligible(1, false); // repeating a state is not a change
        assert_eq!(
            (router.eligible_count(), &router.rotation[..]),
            (2, &[0, 2][..])
        );
        router.add_shard(None);
        router.set_eligible(0, false);
        assert_eq!(router.rotation, [2, 3]);
        // Reinstated out of index order, each lands in its place.
        router.set_eligible(1, true);
        router.set_eligible(1, true);
        router.set_eligible(0, true);
        assert_eq!(
            (router.eligible_count(), &router.rotation[..]),
            (4, &[0, 1, 2, 3][..])
        );
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
    fn redirect_decision_carries_the_event_fields() {
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
