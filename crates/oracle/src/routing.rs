//! Single-threaded farm-router replay: an independent restatement of
//! [`farm::route_trace`] checked against the real routing pass.
//!
//! The replay re-derives every placement decision from the documented
//! policy semantics — SplitMix64 stream hashing, contiguous cylinder
//! bands, least-loaded with `(depth, drain horizon, index)` tie-breaks,
//! redirect-on-overload — over a naive load model (a plain `Vec` of
//! completion times per shard, linearly retired) instead of the farm's
//! closed form, which keeps one drain horizon per shard and derives depth
//! from it. Agreement on every shard's sub-trace, the routed counts and
//! the redirect count proves the optimized pass implements its spec.

use farm::{FarmConfig, RoutePolicy};
use obs::NullSink;
use sched::Request;

/// SplitMix64 finalizer, restated independently of `farm::router`.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

struct NaiveShard {
    pending: Vec<u64>, // modeled completion times, unordered
    busy_until: u64,
}

/// What the naive replay decided: request ids per shard, routed counts,
/// and how many arrivals were redirected away from a full shard.
pub struct Replay {
    /// Request ids placed on each shard, in arrival order.
    pub ids_per_shard: Vec<Vec<u64>>,
    /// Requests placed on each shard.
    pub routed_per_shard: Vec<u64>,
    /// Arrivals steered away from a projected-full shard.
    pub redirects: u64,
}

fn least_loaded(shards: &[NaiveShard]) -> usize {
    let mut best = 0;
    for i in 1..shards.len() {
        let a = (shards[i].pending.len(), shards[i].busy_until, i);
        let b = (shards[best].pending.len(), shards[best].busy_until, best);
        if a < b {
            best = i;
        }
    }
    best
}

fn projected_full(shard: &NaiveShard, capacity: Option<usize>) -> bool {
    capacity.is_some_and(|cap| shard.pending.len() >= cap)
}

/// Replay the routing pass naively: one linear sweep over the
/// arrival-ordered trace, retiring completed bookings by linear scan.
pub fn replay_route(trace: &[Request], cfg: &FarmConfig, capacities: &[Option<usize>]) -> Replay {
    assert_eq!(capacities.len(), cfg.shards);
    let est = cfg.est_service_us.max(1);
    let mut shards: Vec<NaiveShard> = (0..cfg.shards)
        .map(|_| NaiveShard {
            pending: Vec::new(),
            busy_until: 0,
        })
        .collect();
    let mut replay = Replay {
        ids_per_shard: vec![Vec::new(); cfg.shards],
        routed_per_shard: vec![0; cfg.shards],
        redirects: 0,
    };

    for r in trace {
        for s in &mut shards {
            s.pending.retain(|&done| done > r.arrival_us);
        }
        let chosen = match cfg.policy {
            RoutePolicy::HashStream => (splitmix64(r.stream) % cfg.shards as u64) as usize,
            RoutePolicy::CylinderRange => {
                let band =
                    u64::from(r.cylinder) * cfg.shards as u64 / u64::from(cfg.cylinders.max(1));
                (band as usize).min(cfg.shards - 1)
            }
            RoutePolicy::LeastLoaded => least_loaded(&shards),
        };
        let mut target = chosen;
        if cfg.redirect_on_overload && projected_full(&shards[chosen], capacities[chosen]) {
            let alt = least_loaded(&shards);
            if alt != chosen && !projected_full(&shards[alt], capacities[alt]) {
                replay.redirects += 1;
                target = alt;
            }
        }
        let start = shards[target].busy_until.max(r.arrival_us);
        shards[target].busy_until = start + est;
        shards[target].pending.push(start + est);
        replay.routed_per_shard[target] += 1;
        replay.ids_per_shard[target].push(r.id);
    }
    replay
}

/// Differential oracle for the routing pass: [`farm::route_trace`] must
/// place every request exactly where the naive replay does.
pub fn diff_routing(
    trace: &[Request],
    cfg: &FarmConfig,
    capacities: &[Option<usize>],
) -> Result<(), String> {
    let placement = farm::route_trace(trace, cfg, capacities, &mut NullSink);
    let replay = replay_route(trace, cfg, capacities);
    for shard in 0..cfg.shards {
        let optimized: Vec<u64> = placement.shard_traces[shard].iter().map(|r| r.id).collect();
        if optimized != replay.ids_per_shard[shard] {
            let at = optimized
                .iter()
                .zip(&replay.ids_per_shard[shard])
                .position(|(a, b)| a != b)
                .unwrap_or(optimized.len().min(replay.ids_per_shard[shard].len()));
            return Err(format!(
                "routing ({}): shard {shard} sub-traces diverge at position {at}: \
                 optimized {:?} vs replay {:?}",
                cfg.policy.name(),
                optimized.get(at),
                replay.ids_per_shard[shard].get(at)
            ));
        }
    }
    if placement.routed_per_shard != replay.routed_per_shard {
        return Err(format!(
            "routing ({}): routed counts diverge: {:?} vs {:?}",
            cfg.policy.name(),
            placement.routed_per_shard,
            replay.routed_per_shard
        ));
    }
    if placement.redirects != replay.redirects {
        return Err(format!(
            "routing ({}): redirect counts diverge: {} vs {}",
            cfg.policy.name(),
            placement.redirects,
            replay.redirects
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::VodConfig;

    #[test]
    fn replay_agrees_with_route_trace_across_policies() {
        let mut wl = VodConfig::mpeg1(40);
        wl.duration_us = 4_000_000;
        let trace = wl.generate(11);
        for policy in [
            RoutePolicy::HashStream,
            RoutePolicy::CylinderRange,
            RoutePolicy::LeastLoaded,
        ] {
            let cfg = FarmConfig::new(4).with_policy(policy);
            diff_routing(&trace, &cfg, &[None; 4]).expect("replay matches");
        }
    }

    #[test]
    fn replay_agrees_under_redirects() {
        let mut wl = VodConfig::mpeg1(60);
        wl.duration_us = 4_000_000;
        let trace = wl.generate(12);
        let cfg = FarmConfig::new(3).with_redirects();
        let caps = [Some(4), Some(4), Some(4)];
        let replay = replay_route(&trace, &cfg, &caps);
        assert!(replay.redirects > 0, "capacity 4 should overload");
        diff_routing(&trace, &cfg, &caps).expect("replay matches");
    }

    #[test]
    fn replay_agrees_up_to_the_last_unsaturated_horizon() {
        // One shard, 49 bookings in a burst and a 50th arriving the
        // instant the 49th completes: the model retires everything and
        // books a horizon of exactly u64::MAX − 1, the last one the
        // farm's closed form does not read as saturated (and the last the
        // replay's unchecked `start + est` can hold).
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
                Request::read(i, at, u64::MAX, cylinder, 65536, sched::QosVector::none())
                    .with_stream(i % 7)
            })
            .collect();
        for shards in [1, 3] {
            for policy in [
                RoutePolicy::HashStream,
                RoutePolicy::CylinderRange,
                RoutePolicy::LeastLoaded,
            ] {
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
}
