//! The router's closed-form load model is the explicit one.
//!
//! [`OnlineRouter`] stores one drain horizon per shard and derives depth
//! and fullness from it. The reference here keeps what that form
//! replaced — a list of modeled completion times per shard, retired by a
//! linear pass at every arrival — and restates the routing rules over it:
//! least-loaded as `(pending, horizon, index)`, full as `pending ≥ cap`.
//! Every decision field must agree on seeded random sequences that mix
//! bursts, idle gaps, bounded and unbounded queues and membership
//! changes. (Horizons stay far from `u64::MAX`: the saturated reading is
//! a definition, pinned by the unit tests of `farm::online`.)

use farm::{FarmConfig, OnlineRouter, RouteDecision, RoutePolicy};
use sched::{QosVector, Request};

const POLICIES: [RoutePolicy; 3] = [
    RoutePolicy::HashStream,
    RoutePolicy::CylinderRange,
    RoutePolicy::LeastLoaded,
];
const CYLINDERS: u32 = 3832;

/// SplitMix64, as a generator here and as the hash policy's mix below.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

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

struct ExplicitShard {
    /// Modeled completion times of the bookings made, unordered.
    pending: Vec<u64>,
    busy_until: u64,
    capacity: Option<usize>,
    eligible: bool,
}

impl ExplicitShard {
    fn idle(capacity: Option<usize>) -> Self {
        ExplicitShard {
            pending: Vec::new(),
            busy_until: 0,
            capacity,
            eligible: true,
        }
    }

    fn full(&self) -> bool {
        self.capacity.is_some_and(|cap| self.pending.len() >= cap)
    }
}

/// The routing rules over per-booking state.
struct ExplicitRouter {
    policy: RoutePolicy,
    est: u64,
    redirect_on_overload: bool,
    shards: Vec<ExplicitShard>,
    redirects: u64,
    reroutes: u64,
}

impl ExplicitRouter {
    fn least_loaded_eligible(&self) -> usize {
        (0..self.shards.len())
            .filter(|&i| self.shards[i].eligible)
            .min_by_key(|&i| (self.shards[i].pending.len(), self.shards[i].busy_until, i))
            .expect("an eligible shard")
    }

    fn route(&mut self, r: &Request) -> RouteDecision {
        let now = r.arrival_us;
        for s in &mut self.shards {
            s.pending.retain(|&done| done > now);
        }
        let n = self.shards.len();
        let policy_choice = match self.policy {
            RoutePolicy::HashStream => (splitmix64(r.stream) % n as u64) as usize,
            RoutePolicy::CylinderRange => {
                ((u64::from(r.cylinder) * n as u64 / u64::from(CYLINDERS)) as usize).min(n - 1)
            }
            RoutePolicy::LeastLoaded => (0..n)
                .min_by_key(|&i| (self.shards[i].pending.len(), self.shards[i].busy_until, i))
                .unwrap(),
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

fn capacity(rng: &mut Rng) -> Option<usize> {
    match rng.below(3) {
        0 => None,
        _ => Some(rng.below(5) as usize),
    }
}

/// One random sequence against both routers; returns the redirects and
/// reroutes it saw, so the caller can tell the paths were reached.
fn run_sequence(seed: u64) -> (u64, u64) {
    let mut rng = Rng(seed);
    let shards = 1 + rng.below(5) as usize;
    let est = rng.pick(&[1, 2, 3, 7, 100, 15_000]);
    let policy = rng.pick(&POLICIES);
    let redirect_on_overload = rng.below(2) == 0;
    let capacities: Vec<Option<usize>> = (0..shards).map(|_| capacity(&mut rng)).collect();

    let mut cfg = FarmConfig::new(shards).with_policy(policy);
    cfg.est_service_us = est;
    cfg.redirect_on_overload = redirect_on_overload;
    cfg.cylinders = CYLINDERS;
    let mut router = OnlineRouter::new(&cfg, &capacities);
    let mut explicit = ExplicitRouter {
        policy,
        est,
        redirect_on_overload,
        shards: capacities.iter().map(|&c| ExplicitShard::idle(c)).collect(),
        redirects: 0,
        reroutes: 0,
    };

    let mut now = rng.below(3) * est;
    for id in 0..40 + rng.below(80) {
        // Membership and policy changes between arrivals.
        match rng.below(20) {
            0 => {
                let shard = rng.below(explicit.shards.len() as u64) as usize;
                let to = !explicit.shards[shard].eligible;
                if to || router.eligible_count() > 1 {
                    router.set_eligible(shard, to);
                    explicit.shards[shard].eligible = to;
                }
            }
            1 if explicit.shards.len() < 8 => {
                let c = capacity(&mut rng);
                assert_eq!(router.add_shard(c), explicit.shards.len());
                explicit.shards.push(ExplicitShard::idle(c));
            }
            2 => {
                let policy = rng.pick(&POLICIES);
                router.set_policy(policy);
                explicit.policy = policy;
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
        let want = explicit.route(&r);
        assert_eq!(router.route(&r), want, "seed {seed}, request {id} at {now}");
        assert_eq!(
            router.least_loaded_eligible(),
            explicit.least_loaded_eligible(),
            "seed {seed}, after request {id}"
        );
    }
    assert_eq!(router.redirects(), explicit.redirects, "seed {seed}");
    assert_eq!(router.reroutes(), explicit.reroutes, "seed {seed}");
    (explicit.redirects, explicit.reroutes)
}

#[test]
fn every_decision_equals_the_explicit_models_on_random_sequences() {
    let (mut redirects, mut reroutes) = (0, 0);
    for seed in 0..12_000 {
        let (rd, rr) = run_sequence(seed);
        redirects += rd;
        reroutes += rr;
    }
    assert!(redirects > 10_000, "redirect path starved: {redirects}");
    assert!(reroutes > 10_000, "reroute path starved: {reroutes}");
}
