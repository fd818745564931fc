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
//!   arrival to the shard with the fewest modeled pending requests, which
//!   is the shard with the earliest modeled drain horizon. Best loss
//!   rates under overload, no stickiness.

use sched::Request;

/// Modeled load of one shard: the one number the load model stores per
/// shard, plus the shard's queue bound.
///
/// Every booking costs the same `est` µs and arrivals come in order, so
/// inside a busy period a shard's modeled completions sit `est` apart,
/// counted back from `busy_until_us`. The bookings still pending at `now`
/// are the ones completing after it, and their number follows from the
/// horizon alone — see [`ShardLoad::depth_at`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLoad {
    /// Modeled time at which the shard drains everything assigned so far
    /// (µs). `u64::MAX` is the saturated horizon: bookings ran past the
    /// end of time, their spacing is lost, and the shard reads as full
    /// and never idle again.
    pub busy_until_us: u64,
    /// Bounded-queue capacity of the shard's scheduler, if it has one
    /// (probed via [`sched::DiskScheduler::queue_capacity`]).
    pub capacity: Option<usize>,
}

impl ShardLoad {
    /// Requests routed to the shard and not yet (modeled as) completed at
    /// `now`, given `est` µs of service per booking (`est ≥ 1`):
    /// `⌈(busy_until_us − now) / est⌉`, 0 once the horizon has passed,
    /// `usize::MAX` on a saturated horizon.
    ///
    /// # Panics
    /// If `est` is 0 and the shard is busy.
    pub fn depth_at(&self, now: u64, est: u64) -> usize {
        if self.busy_until_us == u64::MAX {
            return usize::MAX;
        }
        if self.busy_until_us <= now {
            return 0;
        }
        usize::try_from((self.busy_until_us - now).div_ceil(est)).unwrap_or(usize::MAX)
    }

    /// `true` when the shard's bounded queue is projected full at `now` —
    /// routing one more request there would likely shed. It is
    /// `depth_at(now, est) ≥ cap` without the division: `cap` bookings
    /// are pending exactly when the horizon lies more than `cap − 1`
    /// service times ahead.
    pub fn projected_full_at(&self, now: u64, est: u64) -> bool {
        let Some(cap) = self.capacity else {
            return false;
        };
        if cap == 0 || self.busy_until_us == u64::MAX {
            return true;
        }
        // A threshold past the end of time is one no unsaturated horizon
        // exceeds, so both steps may saturate.
        let room = u64::try_from(cap - 1)
            .unwrap_or(u64::MAX)
            .saturating_mul(est);
        self.busy_until_us > now.saturating_add(room)
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
    /// Queue-depth feedback: the shard with the earliest modeled horizon
    /// wins, then the lower index (so the choice is deterministic). That
    /// is the order "fewest modeled pending requests, ties toward the
    /// earlier drain time, then the lower index": depth is non-decreasing
    /// in the horizon ([`ShardLoad::depth_at`]), so a shard with an
    /// earlier horizon has no more pending and wins either the depth
    /// comparison or its tie-break.
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

/// The shard with the least modeled load: earliest horizon, then lowest
/// index (see [`RoutePolicy::LeastLoaded`] for why no depth is needed).
/// Shared by the least-loaded policy and by redirect-on-overload target
/// selection.
pub fn least_loaded(loads: &[ShardLoad]) -> usize {
    loads
        .iter()
        .enumerate()
        .min_by_key(|(i, l)| (l.busy_until_us, *i))
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
        .min_by_key(|(i, l)| (l.busy_until_us, *i))
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

    /// The tests' clock and service estimate: a horizon of
    /// `NOW + k * EST` is a queue of depth `k`.
    const NOW: u64 = 1_000;
    const EST: u64 = 100;

    #[test]
    fn least_loaded_picks_the_shallowest_queue() {
        let mut loads = idle(3);
        loads[0].busy_until_us = NOW + 5 * EST;
        loads[1].busy_until_us = NOW + EST + 1;
        loads[2].busy_until_us = NOW + 2 * EST;
        let depths = |loads: &[ShardLoad]| -> Vec<usize> {
            loads.iter().map(|l| l.depth_at(NOW, EST)).collect()
        };
        assert_eq!(depths(&loads), [5, 2, 2]);
        // Depth ties break on drain horizon: shard 1 drains sooner.
        let r = |loads: &[ShardLoad]| RoutePolicy::LeastLoaded.route(&req(0, 0), loads, 3832);
        assert_eq!(r(&loads), 1);
        loads[1].busy_until_us = NOW + 9 * EST;
        assert_eq!(depths(&loads), [5, 9, 2]);
        assert_eq!(r(&loads), 2);
        // Horizons already passed are all depth 0; the earliest still wins.
        let past = [NOW, NOW - 1, NOW - 1].map(|busy_until_us| ShardLoad {
            busy_until_us,
            capacity: None,
        });
        assert_eq!(depths(&past), [0, 0, 0]);
        assert_eq!(r(&past), 1);
    }

    #[test]
    fn horizon_order_is_depth_then_horizon_then_index_order() {
        // Every multiset of four horizons around NOW, saturation included.
        let horizons = [0, NOW - 1, NOW, NOW + 1, NOW + EST, NOW + EST + 1, u64::MAX];
        let n = horizons.len();
        for code in 0..n.pow(4) {
            let loads: Vec<ShardLoad> = (0..4)
                .map(|i| ShardLoad {
                    busy_until_us: horizons[code / n.pow(i) % n],
                    capacity: None,
                })
                .collect();
            let explicit = (0..4)
                .min_by_key(|&i| (loads[i].depth_at(NOW, EST), loads[i].busy_until_us, i))
                .unwrap();
            assert_eq!(least_loaded(&loads), explicit, "{loads:?}");
        }
    }

    #[test]
    fn least_loaded_among_matches_unrestricted_when_all_eligible() {
        let mut loads = idle(5);
        for (i, l) in loads.iter_mut().enumerate() {
            l.busy_until_us = NOW + ((i as u64 * 13 + 7) % 5) * EST + (i as u64 * 31) % 3;
        }
        let all = vec![true; 5];
        assert_eq!(least_loaded_among(&loads, &all), Some(least_loaded(&loads)));
        // Restricting to one shard picks it, and to none picks nothing.
        let only3 = vec![false, false, false, true, false];
        assert_eq!(least_loaded_among(&loads, &only3), Some(3));
        assert_eq!(least_loaded_among(&loads, &[false; 5]), None);
    }

    #[test]
    fn depth_is_the_ceiling_of_the_backlog_in_service_times() {
        let at = |busy_until_us: u64| {
            ShardLoad {
                busy_until_us,
                capacity: None,
            }
            .depth_at(NOW, EST)
        };
        assert_eq!(at(0), 0);
        assert_eq!(at(NOW), 0, "a booking done by now has retired");
        assert_eq!(at(NOW + 1), 1, "the last booking completes after now");
        assert_eq!(at(NOW + EST), 1);
        assert_eq!(at(NOW + EST + 1), 2);
        assert_eq!(at(NOW + 7 * EST), 7);
        assert_eq!(
            at(u64::MAX - 1),
            ((u64::MAX - 1 - NOW).div_ceil(EST)) as usize
        );
        assert_eq!(at(u64::MAX), usize::MAX, "saturated");
    }

    #[test]
    fn projected_full_requires_a_capacity() {
        let mut l = ShardLoad {
            busy_until_us: NOW + 10 * EST,
            capacity: None,
        };
        assert_eq!(l.depth_at(NOW, EST), 10);
        assert!(!l.projected_full_at(NOW, EST));
        l.capacity = Some(10);
        assert!(l.projected_full_at(NOW, EST));
        l.capacity = Some(11);
        assert!(!l.projected_full_at(NOW, EST));
    }

    #[test]
    fn projected_full_is_depth_at_least_capacity_at_every_edge() {
        let horizons = [
            0,
            NOW - 1,
            NOW,
            NOW + 1,
            NOW + EST - 1,
            NOW + EST,
            NOW + EST + 1,
            NOW + 2 * EST,
            NOW + 2 * EST + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        let capacities = [0, 1, 2, 3, usize::MAX - 1, usize::MAX];
        for busy_until_us in horizons {
            for cap in capacities {
                for (now, est) in [(NOW, EST), (NOW, 1), (NOW, u64::MAX), (u64::MAX, EST)] {
                    let l = ShardLoad {
                        busy_until_us,
                        capacity: Some(cap),
                    };
                    assert_eq!(
                        l.projected_full_at(now, est),
                        l.depth_at(now, est) >= cap,
                        "{l:?} at {now} est {est}"
                    );
                }
            }
        }
        // Capacity 0 is full even when idle; capacity 1 exactly when busy.
        let idle = ShardLoad {
            busy_until_us: 0,
            capacity: Some(0),
        };
        assert!(idle.projected_full_at(NOW, EST));
        let one = |busy_until_us| ShardLoad {
            busy_until_us,
            capacity: Some(1),
        };
        assert!(!one(NOW).projected_full_at(NOW, EST));
        assert!(one(NOW + 1).projected_full_at(NOW, EST));
    }
}
