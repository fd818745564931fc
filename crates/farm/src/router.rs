//! Routing policies: which shard serves an arriving request.
//!
//! A [`RoutePolicy`] sees the request plus a modeled [`ShardLoad`] per
//! shard and picks an index. The three policies cover the classic
//! trade-offs:
//!
//! * [`RoutePolicy::HashStream`] — hash the stream id. Stateless and
//!   sticky (one stream's blocks always hit one shard, preserving
//!   sequential layout), but blind to load: colliding hot streams
//!   overload a shard.
//! * [`RoutePolicy::CylinderRange`] — partition the cylinder space into
//!   contiguous bands, one per shard. Placement-affine (matches content
//!   partitioned across disks by address) and sticky per file region.
//! * [`RoutePolicy::LeastLoaded`] — queue-depth feedback: send the
//!   arrival to the shard with the fewest modeled pending requests. Best
//!   loss rates under overload, no stickiness.

use sched::Request;

/// Modeled load of one shard at a routing decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLoad {
    /// Requests routed to the shard and not yet (modeled as) completed.
    pub queue_depth: usize,
    /// Modeled time at which the shard drains everything assigned so far
    /// (µs).
    pub busy_until_us: u64,
    /// Bounded-queue capacity of the shard's scheduler, if it has one
    /// (probed via [`sched::DiskScheduler::queue_capacity`]).
    pub capacity: Option<usize>,
}

impl ShardLoad {
    /// `true` when the shard's bounded queue is projected full — routing
    /// one more request there would likely shed.
    pub fn projected_full(&self) -> bool {
        self.capacity.is_some_and(|cap| self.queue_depth >= cap)
    }
}

/// The routing policies, as a value for configs and CLI flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Hash-by-stream: `splitmix64(stream) mod shards`.
    HashStream,
    /// Cylinder-range affinity: shard `i` owns the `i`-th contiguous band
    /// of the cylinder space.
    CylinderRange,
    /// Queue-depth feedback: the shard with the fewest modeled pending
    /// requests wins; ties break toward the earlier drain time, then the
    /// lower index (so the choice is deterministic).
    LeastLoaded,
}

impl RoutePolicy {
    /// Stable policy name for reports (e.g. `"hash"`).
    pub fn name(self) -> &'static str {
        match self {
            RoutePolicy::HashStream => "hash",
            RoutePolicy::CylinderRange => "range",
            RoutePolicy::LeastLoaded => "least-loaded",
        }
    }

    /// Choose the shard for `req` given the current modeled loads (one
    /// entry per shard; the result indexes into them). `cylinders` is the
    /// cylinder space the range policy partitions. A pure function of its
    /// arguments: same request sequence, same placements.
    pub fn route(self, req: &Request, loads: &[ShardLoad], cylinders: u32) -> usize {
        match self {
            RoutePolicy::HashStream => (splitmix64(req.stream) % loads.len() as u64) as usize,
            RoutePolicy::CylinderRange => {
                let shards = loads.len() as u64;
                let band = u64::from(req.cylinder) * shards / u64::from(cylinders.max(1));
                (band as usize).min(loads.len() - 1)
            }
            RoutePolicy::LeastLoaded => least_loaded(loads),
        }
    }
}

/// SplitMix64 finalizer — a full-avalanche mix so that consecutive stream
/// ids spread over shards instead of striding.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// The shard with the least modeled load. Shared by the least-loaded
/// policy and by redirect-on-overload target selection.
pub fn least_loaded(loads: &[ShardLoad]) -> usize {
    loads
        .iter()
        .enumerate()
        .min_by_key(|(i, l)| (l.queue_depth, l.busy_until_us, *i))
        .map(|(i, _)| i)
        .expect("at least one shard")
}

/// [`least_loaded`] restricted to the shards `eligible` marks `true` —
/// the selection the online router uses when membership events have
/// taken shards out of rotation. `None` when nothing is eligible. With
/// every shard eligible this is exactly [`least_loaded`] (same tie
/// breaks), which the parity tests pin down.
pub fn least_loaded_among(loads: &[ShardLoad], eligible: &[bool]) -> Option<usize> {
    debug_assert_eq!(loads.len(), eligible.len());
    loads
        .iter()
        .enumerate()
        .filter(|(i, _)| eligible.get(*i).copied().unwrap_or(false))
        .min_by_key(|(i, l)| (l.queue_depth, l.busy_until_us, *i))
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched::QosVector;

    fn req(stream: u64, cylinder: u32) -> Request {
        Request::read(0, 0, u64::MAX, cylinder, 65536, QosVector::none()).with_stream(stream)
    }

    fn idle(shards: usize) -> Vec<ShardLoad> {
        vec![
            ShardLoad {
                queue_depth: 0,
                busy_until_us: 0,
                capacity: None,
            };
            shards
        ]
    }

    #[test]
    fn hash_is_sticky_per_stream_and_spreads_streams() {
        let r =
            |req: &Request, loads: &[ShardLoad]| RoutePolicy::HashStream.route(req, loads, 3832);
        let loads = idle(8);
        let mut used = std::collections::HashSet::new();
        for stream in 0..64u64 {
            let first = r(&req(stream, 0), &loads);
            assert!(first < 8);
            // Sticky: the same stream always routes the same way.
            assert_eq!(r(&req(stream, 999), &loads), first);
            used.insert(first);
        }
        assert!(used.len() >= 6, "poor spread: {used:?}");
    }

    #[test]
    fn range_partitions_the_cylinder_space_in_order() {
        let loads = idle(4);
        let r = |cyl: u32| RoutePolicy::CylinderRange.route(&req(0, cyl), &loads, 4000);
        assert_eq!(r(0), 0);
        assert_eq!(r(999), 0);
        assert_eq!(r(1000), 1);
        assert_eq!(r(3999), 3);
        // Monotone in the cylinder.
        let mut last = 0;
        for cyl in (0..4000).step_by(7) {
            let s = r(cyl);
            assert!(s >= last);
            last = s;
        }
    }

    #[test]
    fn least_loaded_picks_the_shallowest_queue() {
        let mut loads = idle(3);
        loads[0].queue_depth = 5;
        loads[1].queue_depth = 2;
        loads[2].queue_depth = 2;
        loads[2].busy_until_us = 100;
        // Depth ties break on drain horizon: shard 1 drains sooner.
        let r = |loads: &[ShardLoad]| RoutePolicy::LeastLoaded.route(&req(0, 0), loads, 3832);
        assert_eq!(r(&loads), 1);
        loads[1].queue_depth = 9;
        assert_eq!(r(&loads), 2);
    }

    #[test]
    fn least_loaded_among_matches_unrestricted_when_all_eligible() {
        let mut loads = idle(5);
        for (i, l) in loads.iter_mut().enumerate() {
            l.queue_depth = (i * 13 + 7) % 5;
            l.busy_until_us = (i as u64 * 31) % 3;
        }
        let all = vec![true; 5];
        assert_eq!(least_loaded_among(&loads, &all), Some(least_loaded(&loads)));
        // Restricting to one shard picks it, and to none picks nothing.
        let only3 = vec![false, false, false, true, false];
        assert_eq!(least_loaded_among(&loads, &only3), Some(3));
        assert_eq!(least_loaded_among(&loads, &[false; 5]), None);
    }

    #[test]
    fn projected_full_requires_a_capacity() {
        let mut l = ShardLoad {
            queue_depth: 10,
            busy_until_us: 0,
            capacity: None,
        };
        assert!(!l.projected_full());
        l.capacity = Some(10);
        assert!(l.projected_full());
        l.capacity = Some(11);
        assert!(!l.projected_full());
    }
}
