//! The §6 workload: the NewsByte5 non-linear editing server.
//!
//! 68–91 users each play or record an MPEG-1 stream at 1.5 Mb/s, retrieved
//! in 64-KB file blocks. Blocks are striped over the RAID-5 group's four
//! data disks, so the *one* simulated disk sees every fourth block of each
//! stream; requests arrive in bursts at period boundaries ("users send
//! read or write requests periodically, and we assume that these requests
//! arrive in bursts"), carry one of 8 priority levels drawn from a normal
//! distribution, and must complete within a deadline drawn uniformly from
//! 75–150 ms.

use crate::dist;
use crate::ticks::Ticks;
use crate::TraceSource;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sched::{Micros, OpKind, QosVector, Request};

/// Configuration of the NewsByte5 editing workload.
#[derive(Debug, Clone)]
pub struct NewsByteConfig {
    /// Number of simultaneous users on this disk (the paper sweeps 68–91).
    pub users: u32,
    /// Per-stream bit rate (MPEG-1: 1.5 Mb/s).
    pub stream_bps: u64,
    /// File block size (64 KB).
    pub block_bytes: u64,
    /// Data disks the stream is striped over (RAID-5 4+1 ⇒ 4); this disk
    /// receives `1/stripe_width` of each stream's blocks.
    pub stripe_width: u32,
    /// Number of priority levels (8), assigned per *user* from a normal
    /// distribution.
    pub levels: u8,
    /// Deadline offset range after arrival (75–150 ms).
    pub deadline_lo_us: Micros,
    /// Upper end of the deadline offset range.
    pub deadline_hi_us: Micros,
    /// Simulated duration.
    pub duration_us: Micros,
    /// Cylinders on the disk.
    pub cylinders: u32,
    /// Fraction of write (ingest/save) requests; the rest are reads.
    pub write_fraction: f64,
    /// Number of burst groups the users are staggered into (1 = one big
    /// burst per period; 4 = quarter-period sub-bursts).
    pub burst_groups: u32,
}

impl NewsByteConfig {
    /// The paper's §6 setting for a given user count.
    pub fn paper(users: u32) -> Self {
        NewsByteConfig {
            users,
            stream_bps: 1_500_000,
            block_bytes: 64 * 1024,
            stripe_width: 4,
            levels: 8,
            deadline_lo_us: 75_000,
            deadline_hi_us: 150_000,
            duration_us: 60_000_000, // one simulated minute
            cylinders: 3832,
            write_fraction: 0.3,
            burst_groups: 4,
        }
    }

    /// Time between successive block requests of one user *on this disk*:
    /// `block_bits / rate`, stretched by the stripe width.
    pub fn period_us(&self) -> Micros {
        let bits = self.block_bytes * 8;
        let per_block_us = bits as f64 / self.stream_bps as f64 * 1e6;
        (per_block_us * self.stripe_width as f64).round() as Micros
    }

    /// The trace of `seed`, streamed one burst tick at a time.
    /// Deterministic per seed; `.collect()` it where a [`crate::Trace`]
    /// is needed.
    pub fn generate(&self, seed: u64) -> NewsByteStream {
        assert!(self.users > 0 && self.levels > 0 && self.burst_groups > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let period = self.period_us().max(1);
        let group_offset = period / self.burst_groups as u64;
        let users: Vec<User> = (0..self.users)
            .map(|u| User {
                level: dist::normal_level(&mut rng, self.levels),
                offset: (u % self.burst_groups) as u64 * group_offset + rng.gen_range(0..500), // sub-millisecond burst jitter
                base_cylinder: rng.gen_range(0..self.cylinders),
                writes: rng.gen::<f64>() < self.write_fraction,
            })
            .collect();
        NewsByteStream {
            ticks: Ticks::new(period, self.duration_us, users.iter().map(|u| u.offset)),
            cfg: self.clone(),
            rng,
            users,
        }
    }
}

/// One user's static properties.
#[derive(Debug, Clone)]
struct User {
    level: u8,
    /// Arrival offset inside each period: the burst group's share of the
    /// period plus sub-millisecond jitter.
    offset: Micros,
    /// Streams are laid out contiguously: each user walks a cylinder
    /// neighbourhood.
    base_cylinder: u32,
    writes: bool,
}

/// A [`NewsByteConfig`]'s trace as a [`TraceSource`]: the requests, order
/// and ids of the materialized trace, generated one burst tick (every
/// user once) at a time. Jitter that spills past the next tick's base is
/// carried into that tick, so what it holds is sized by the shape (one
/// tick, plus as many more as the 500 µs jitter spans periods), never by
/// the horizon.
#[derive(Debug, Clone)]
pub struct NewsByteStream {
    cfg: NewsByteConfig,
    rng: StdRng,
    users: Vec<User>,
    ticks: Ticks,
}

impl NewsByteStream {
    /// Requests still to come; `usize::MAX` for a horizon with more.
    pub fn len(&self) -> usize {
        self.ticks.size_hint().0
    }

    /// `true` once every request has been emitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Generate ticks until one releases a request, or the horizon ends
    /// the trace.
    fn next_tick(&mut self) -> Option<Request> {
        loop {
            let (tick, base) = self.ticks.begin()?;
            for (uid, user) in self.users.iter().enumerate() {
                let Some(arrival) = self.ticks.arrival(base, user.offset) else {
                    continue;
                };
                let deadline = arrival
                    + self
                        .rng
                        .gen_range(self.cfg.deadline_lo_us..=self.cfg.deadline_hi_us);
                // Sequential layout with slight spread: tick-th block of
                // the stream sits a few cylinders along.
                let cylinder = (user.base_cylinder + (tick as u32 % 32)) % self.cfg.cylinders;
                let kind = if user.writes {
                    OpKind::Write
                } else {
                    OpKind::Read
                };
                self.ticks.push(Request {
                    id: 0,
                    arrival_us: arrival,
                    deadline_us: deadline,
                    cylinder,
                    bytes: self.cfg.block_bytes,
                    qos: QosVector::single(user.level),
                    kind,
                    stream: uid as u64,
                });
            }
            self.ticks.end();
            if let Some(r) = self.ticks.pop() {
                return Some(r);
            }
        }
    }
}

impl Iterator for NewsByteStream {
    type Item = Request;

    #[inline]
    fn next(&mut self) -> Option<Request> {
        match self.ticks.pop() {
            Some(r) => Some(r),
            None => self.next_tick(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ticks.size_hint()
    }
}

impl ExactSizeIterator for NewsByteStream {}

impl TraceSource for NewsByteStream {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate_trace;

    #[test]
    fn period_matches_stream_rate() {
        let cfg = NewsByteConfig::paper(80);
        // 64 KB · 8 / 1.5 Mb/s ≈ 349.5 ms; ×4 stripe ≈ 1.398 s.
        let p = cfg.period_us();
        assert!((1_390_000..1_410_000).contains(&p), "period {p}");
    }

    #[test]
    fn trace_is_valid_and_sized() {
        let cfg = NewsByteConfig::paper(80);
        let t: Vec<_> = cfg.generate(3).collect();
        assert!(validate_trace(&t));
        // ~80 users × (60 s / 1.4 s) ≈ 3.4 k requests.
        assert!((3_000..4_000).contains(&t.len()), "len {}", t.len());
    }

    #[test]
    fn deadlines_in_window_and_levels_bounded() {
        let cfg = NewsByteConfig::paper(70);
        let t: Vec<_> = cfg.generate(5).collect();
        for r in &t {
            let off = r.deadline_us - r.arrival_us;
            assert!((75_000..=150_000).contains(&off));
            assert!(r.qos.level(0) < 8);
        }
        // Both reads and writes occur.
        assert!(t.iter().any(|r| r.kind == OpKind::Read));
        assert!(t.iter().any(|r| r.kind == OpKind::Write));
    }

    #[test]
    fn bursts_are_visible() {
        // Within one period there should be distinct arrival clusters, not
        // a uniform spread: check that inter-arrival gaps are bimodal
        // (many sub-millisecond gaps inside bursts).
        let cfg = NewsByteConfig::paper(80);
        let t: Vec<_> = cfg.generate(9).collect();
        let tiny_gaps = t
            .windows(2)
            .filter(|w| w[1].arrival_us - w[0].arrival_us < 1_000)
            .count();
        assert!(
            tiny_gaps > t.len() / 2,
            "bursty trace expected, {tiny_gaps}/{} tiny gaps",
            t.len()
        );
    }

    #[test]
    fn more_users_more_requests() {
        let small = NewsByteConfig::paper(68).generate(1).len();
        let large = NewsByteConfig::paper(91).generate(1).len();
        assert!(large > small);
    }
}
