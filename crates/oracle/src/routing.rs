//! The farm router restated naively: [`ReferenceRouter`], checked
//! against [`farm::OnlineRouter`].
//!
//! The reference re-derives every placement decision from the documented
//! policy semantics — SplitMix64 stream hashing, contiguous cylinder
//! bands, least-loaded with `(depth, drain horizon, index)` tie-breaks,
//! reroutes away from ineligible (draining or quarantined) members,
//! redirect-on-overload — over a per-booking load model (a plain `Vec`
//! of completion times per shard, linearly retired at every arrival)
//! instead of the farm's closed form, which keeps one drain horizon per
//! shard and derives depth and fullness from it. Agreement on every
//! [`RouteDecision`] field proves the optimized router implements its
//! spec. The same reference, replayed over a trace ([`replay_route`]),
//! is the placement half of the daemon's judge ([`crate::daemon`]).

use farm::{FarmConfig, OnlineRouter, RouteDecision, RoutePolicy};
use sched::Request;

/// SplitMix64 finalizer, restated independently of `farm::router`.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

struct Shard {
    /// Modeled completion times of the bookings made, unordered.
    pending: Vec<u64>,
    busy_until: u64,
    capacity: Option<usize>,
    eligible: bool,
}

impl Shard {
    fn idle(capacity: Option<usize>) -> Self {
        Shard {
            pending: Vec::new(),
            busy_until: 0,
            capacity,
            eligible: true,
        }
    }

    fn full(&self) -> bool {
        self.capacity.is_some_and(|cap| self.pending.len() >= cap)
    }

    fn load(&self, index: usize) -> (usize, u64, usize) {
        (self.pending.len(), self.busy_until, index)
    }
}

/// The routing rules over per-booking state: the naive restatement of
/// [`farm::OnlineRouter`], membership included.
pub struct ReferenceRouter {
    policy: RoutePolicy,
    cylinders: u32,
    est: u64,
    redirect_on_overload: bool,
    shards: Vec<Shard>,
    redirects: u64,
    reroutes: u64,
}

impl ReferenceRouter {
    /// A router over `cfg.shards` idle, eligible shards with the given
    /// bounded-queue capacities (one per shard, [`None`] for unbounded).
    pub fn new(cfg: &FarmConfig, capacities: &[Option<usize>]) -> Self {
        assert_eq!(capacities.len(), cfg.shards);
        ReferenceRouter {
            policy: cfg.policy,
            cylinders: cfg.cylinders.max(1),
            est: cfg.est_service_us.max(1),
            redirect_on_overload: cfg.redirect_on_overload,
            shards: capacities.iter().map(|&c| Shard::idle(c)).collect(),
            redirects: 0,
            reroutes: 0,
        }
    }

    /// Take `shard` out of rotation (draining or quarantined) or put it
    /// back. Its bookings keep draining either way.
    pub fn set_eligible(&mut self, shard: usize, eligible: bool) {
        self.shards[shard].eligible = eligible;
    }

    /// Add an idle, eligible shard; returns its index.
    pub fn add_shard(&mut self, capacity: Option<usize>) -> usize {
        self.shards.push(Shard::idle(capacity));
        self.shards.len() - 1
    }

    /// The eligible shard with the fewest pending bookings, then the
    /// earliest horizon, then the lowest index.
    pub fn least_loaded_eligible(&self) -> usize {
        (0..self.shards.len())
            .filter(|&i| self.shards[i].eligible)
            .min_by_key(|&i| self.shards[i].load(i))
            .expect("an eligible shard")
    }

    /// Overload redirects taken so far.
    pub fn redirects(&self) -> u64 {
        self.redirects
    }

    /// Eligibility reroutes taken so far.
    pub fn reroutes(&self) -> u64 {
        self.reroutes
    }

    /// Route one arrival (arrivals in order): retire the bookings done
    /// by now, apply the policy over every member, reroute an ineligible
    /// choice to the least-loaded eligible member, else redirect away
    /// from a full one when a least-loaded eligible member has room, and
    /// book `est` µs of service on the target.
    pub fn route(&mut self, r: &Request) -> RouteDecision {
        let now = r.arrival_us;
        for s in &mut self.shards {
            s.pending.retain(|&done| done > now);
        }
        let n = self.shards.len();
        let policy_choice = match self.policy {
            RoutePolicy::HashStream => (splitmix64(r.stream) % n as u64) as usize,
            RoutePolicy::CylinderRange => {
                let band = u64::from(r.cylinder) * n as u64 / u64::from(self.cylinders);
                (band as usize).min(n - 1)
            }
            RoutePolicy::LeastLoaded => (0..n)
                .min_by_key(|&i| self.shards[i].load(i))
                .expect("a shard"),
        };
        let mut shard = policy_choice;
        let rerouted = !self.shards[policy_choice].eligible;
        if rerouted {
            shard = self.least_loaded_eligible();
            self.reroutes += 1;
        }
        let redirect_from = shard;
        let mut redirected = false;
        if self.redirect_on_overload && !rerouted && self.shards[shard].full() {
            let alt = self.least_loaded_eligible();
            if alt != shard && !self.shards[alt].full() {
                redirected = true;
                self.redirects += 1;
                shard = alt;
            }
        }
        let queue_depth = self.shards[redirect_from].pending.len();
        let s = &mut self.shards[shard];
        s.busy_until = s.busy_until.max(now) + self.est;
        s.pending.push(s.busy_until);
        RouteDecision {
            shard,
            policy_choice,
            redirect_from,
            queue_depth,
            redirected,
            rerouted,
        }
    }
}

/// Replay the routing pass over an arrival-ordered trace with every
/// shard eligible. Returns the shard each request lands on, in trace
/// order, and how many arrivals were redirected away from a
/// projected-full shard.
pub fn replay_route(
    trace: &[Request],
    cfg: &FarmConfig,
    capacities: &[Option<usize>],
) -> (Vec<usize>, u64) {
    let mut router = ReferenceRouter::new(cfg, capacities);
    let targets = trace.iter().map(|r| router.route(r).shard).collect();
    (targets, router.redirects())
}

/// Differential oracle for the router: an [`OnlineRouter`] with every
/// shard eligible, fed the trace one arrival at a time, must make every
/// [`RouteDecision`] the [`ReferenceRouter`] makes, agree with it on the
/// least-loaded eligible shard after each arrival, and redirect as
/// often. It drives the router alone, with no engine behind it, so it
/// reaches arrival times (up to the saturating horizon near `u64::MAX`)
/// that no simulated disk can serve.
pub fn diff_routing(
    trace: &[Request],
    cfg: &FarmConfig,
    capacities: &[Option<usize>],
) -> Result<(), String> {
    let mut router = OnlineRouter::new(cfg, capacities);
    let mut reference = ReferenceRouter::new(cfg, capacities);
    let policy = cfg.policy.name();
    for r in trace {
        let got = (router.route(r), router.least_loaded_eligible());
        let want = (reference.route(r), reference.least_loaded_eligible());
        if got != want {
            return Err(format!(
                "routing ({policy}): request {}: (decision, least-loaded eligible shard after \
                 it) {got:?}, the reference's {want:?}",
                r.id
            ));
        }
    }
    if router.redirects() != reference.redirects() {
        return Err(format!(
            "routing ({policy}): redirect counts diverge: {} vs {}",
            router.redirects(),
            reference.redirects()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched::QosVector;

    #[test]
    fn replay_agrees_up_to_the_last_unsaturated_horizon() {
        // One shard, 49 bookings in a burst and a 50th arriving the
        // instant the 49th completes: the model retires everything and
        // books a horizon of exactly u64::MAX − 1, the last one the
        // farm's closed form does not read as saturated (and the last the
        // reference's unchecked `+ est` can hold).
        let (est, n) = (3, 50);
        let burst_at = u64::MAX - 1 - n * est;
        let trace: Vec<Request> = (0..n)
            .map(|i| {
                let at = if i < n - 1 {
                    burst_at
                } else {
                    burst_at + (n - 1) * est
                };
                let cylinder = (i * 97 % 3832) as u32;
                Request::read(i, at, u64::MAX, cylinder, 65536, QosVector::none())
                    .with_stream(i % 7)
            })
            .collect();
        for shards in [1, 3] {
            for policy in POLICIES {
                let mut cfg = FarmConfig::new(shards).with_policy(policy).with_redirects();
                cfg.est_service_us = est;
                // 1000 × est past these arrivals would overflow: the full
                // test's threshold must saturate, not wrap.
                for cap in [None, Some(4), Some(1_000)] {
                    diff_routing(&trace, &cfg, &vec![cap; shards]).expect("replay matches");
                }
            }
        }
    }

    // The closed form against the reference under membership changes.
    // Horizons stay far from `u64::MAX` here: the saturated reading is a
    // definition, pinned by the unit tests of `farm::online`.

    const POLICIES: [RoutePolicy; 3] = [
        RoutePolicy::HashStream,
        RoutePolicy::CylinderRange,
        RoutePolicy::LeastLoaded,
    ];
    const CYLINDERS: u32 = 3832;

    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            splitmix64(self.0)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[self.below(from.len() as u64) as usize]
        }
    }

    fn capacity(rng: &mut Rng) -> Option<usize> {
        match rng.below(3) {
            0 => None,
            _ => Some(rng.below(5) as usize),
        }
    }

    /// Route `r` through both routers and hold every decision field and
    /// the least-loaded eligible shard after it equal.
    fn route_both(
        router: &mut OnlineRouter,
        reference: &mut ReferenceRouter,
        r: &Request,
        seed: u64,
    ) {
        let want = (reference.route(r), reference.least_loaded_eligible());
        let got = (router.route(r), router.least_loaded_eligible());
        assert_eq!(
            got, want,
            "seed {seed}, request {} at {}",
            r.id, r.arrival_us
        );
    }

    /// Both routers take `shard` in or out of rotation.
    fn set_eligible(
        router: &mut OnlineRouter,
        reference: &mut ReferenceRouter,
        shard: usize,
        to: bool,
    ) {
        router.set_eligible(shard, to);
        reference.set_eligible(shard, to);
    }

    /// One random sequence against both routers; returns the redirects and
    /// reroutes it saw, so the caller can tell the paths were reached.
    fn run_sequence(seed: u64) -> (u64, u64) {
        let mut rng = Rng(seed);
        let shards = 1 + rng.below(5) as usize;
        let est = rng.pick(&[1, 2, 3, 7, 100, 15_000]);
        let mut cfg = FarmConfig::new(shards).with_policy(rng.pick(&POLICIES));
        cfg.est_service_us = est;
        cfg.redirect_on_overload = rng.below(2) == 0;
        cfg.cylinders = CYLINDERS;
        let capacities: Vec<Option<usize>> = (0..shards).map(|_| capacity(&mut rng)).collect();
        let mut router = OnlineRouter::new(&cfg, &capacities);
        let mut reference = ReferenceRouter::new(&cfg, &capacities);

        let mut now = rng.below(3) * est;
        for id in 0..40 + rng.below(80) {
            // Membership changes between arrivals.
            match rng.below(20) {
                0 => {
                    let shard = rng.below(reference.shards.len() as u64) as usize;
                    let to = !reference.shards[shard].eligible;
                    if to || router.eligible_count() > 1 {
                        set_eligible(&mut router, &mut reference, shard, to);
                    }
                }
                1 if reference.shards.len() < 8 => {
                    let c = capacity(&mut rng);
                    assert_eq!(router.add_shard(c), reference.add_shard(c), "seed {seed}");
                }
                _ => {}
            }
            // Bursts of equal arrival times, sub-service steps, steps on the
            // service grid, and gaps that outlast any busy period so far.
            now += match rng.below(8) {
                0..=2 => 0,
                3 | 4 => rng.below(est + 1),
                5 => est * rng.below(4),
                6 => est * rng.below(4) + 1,
                _ => est * (id + 2),
            };
            let r = Request::read(
                id,
                now,
                u64::MAX,
                rng.below(u64::from(CYLINDERS)) as u32,
                65536,
                QosVector::none(),
            )
            .with_stream(rng.below(6));
            route_both(&mut router, &mut reference, &r, seed);
        }
        assert_eq!(router.redirects(), reference.redirects(), "seed {seed}");
        assert_eq!(router.reroutes(), reference.reroutes(), "seed {seed}");
        (reference.redirects(), reference.reroutes())
    }

    /// Every decision field on seeded random sequences: each policy,
    /// redirects on and off, capacities `None` and 0–4, bursts of equal
    /// arrival times, steps on and off the service grid, idle gaps
    /// longer than any busy period, `set_eligible` and `add_shard`
    /// interleaved.
    #[test]
    fn every_decision_equals_the_reference_on_random_sequences() {
        let (mut redirects, mut reroutes) = (0, 0);
        for seed in 0..12_000 {
            let (rd, rr) = run_sequence(seed);
            redirects += rd;
            reroutes += rr;
        }
        assert!(redirects > 10_000, "redirect path starved: {redirects}");
        assert!(reroutes > 10_000, "reroute path starved: {reroutes}");
    }

    /// `surge`'s membership script against the reference: four members
    /// grow to nineteen as one joins and the oldest drains, fifteen times,
    /// so the sticky hash keeps choosing drained members and most arrivals
    /// are rerouted. On top, groups of members are quarantined together
    /// and reinstated in a shuffled order. Bursts of equal arrival times
    /// give members equal horizons, so the least-loaded search's
    /// lowest-index tie-break is reached among members that rejoined in
    /// any order.
    #[test]
    fn a_surge_shaped_membership_script_matches_the_reference() {
        let seed = 0x5ca1e;
        let mut rng = Rng(seed);
        let cfg = FarmConfig::new(4)
            .with_policy(RoutePolicy::HashStream)
            .with_redirects();
        let est = cfg.est_service_us;
        let mut router = OnlineRouter::new(&cfg, &[Some(16); 4]);
        let mut reference = ReferenceRouter::new(&cfg, &[Some(16); 4]);
        let (mut oldest, mut now, mut quarantined) = (0, 0, Vec::new());
        for id in 0..30_000u64 {
            if id % 2_000 == 1_999 && reference.shards.len() < 19 {
                assert_eq!(router.add_shard(Some(16)), reference.add_shard(Some(16)));
                if reference.shards[oldest].eligible {
                    set_eligible(&mut router, &mut reference, oldest, false);
                }
                oldest += 1;
            }
            if id % 500 == 250 {
                if quarantined.is_empty() {
                    // Up to three members in rotation, lowest first, keeping one.
                    for shard in oldest..reference.shards.len() {
                        if quarantined.len() < 3 && router.eligible_count() > 1 {
                            set_eligible(&mut router, &mut reference, shard, false);
                            quarantined.push(shard);
                        }
                    }
                } else {
                    // Reinstated out of index order: reversed after a random
                    // rotation, which never leaves a group of three ascending.
                    let turn = rng.below(quarantined.len() as u64) as usize;
                    quarantined.rotate_left(turn);
                    quarantined.reverse();
                    for shard in quarantined.drain(..) {
                        set_eligible(&mut router, &mut reference, shard, true);
                    }
                }
            }
            // About the rate four members serve, in bursts, with an idle gap
            // now and then that drains them all.
            now += match rng.below(500) {
                0 => est * 100,
                1..=250 => 0,
                _ => rng.below(est / 4),
            };
            let r = Request::read(id, now, u64::MAX, 0, 65536, QosVector::none())
                .with_stream(rng.below(400));
            route_both(&mut router, &mut reference, &r, seed);
        }
        assert_eq!(reference.shards.len(), 19);
        assert_eq!(oldest, 15);
        assert_eq!(router.redirects(), reference.redirects());
        assert_eq!(router.reroutes(), reference.reroutes());
        assert!(
            reference.reroutes() > 15_000 && reference.redirects() > 100,
            "{} reroutes, {} redirects",
            reference.reroutes(),
            reference.redirects()
        );
    }
}
