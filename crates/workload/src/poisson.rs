//! The §5 micro-benchmark workload: Poisson arrivals over a QoS grid.

use crate::dist;
use crate::TraceSource;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sched::{Micros, QosVector, Request};

/// How priority levels are assigned per dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelDist {
    /// Uniform over `0..levels` (the §5 experiments).
    Uniform,
    /// Truncated normal centred on the middle level (the §6 experiment).
    Normal,
}

/// How deadlines are assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineDist {
    /// No real-time constraint (`deadline = ∞`) — the Figure 5–7 setting.
    Relaxed,
    /// Uniform offset from the arrival time, in µs — e.g. the paper's
    /// 500–700 ms (§5.2) or 75–150 ms (§6).
    Uniform {
        /// Smallest offset.
        lo_us: Micros,
        /// Largest offset (inclusive).
        hi_us: Micros,
    },
}

/// How request sizes are assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sizing {
    /// Every request transfers the same number of bytes.
    Fixed(u64),
    /// §5.2's assumption: high-priority requests (audio/video chunks) are
    /// small, low-priority ones (FTP transfers) are large. The size is
    /// `base_bytes + level(dim 0) · per_level_bytes`.
    PriorityScaled {
        /// Size at the highest priority (level 0).
        base_bytes: u64,
        /// Extra bytes per priority level.
        per_level_bytes: u64,
    },
}

/// Configuration of the Poisson workload generator.
#[derive(Debug, Clone)]
pub struct PoissonConfig {
    /// Mean interarrival time (the paper uses 25 ms for "normal load").
    pub mean_interarrival_us: Micros,
    /// Number of requests to generate.
    pub count: usize,
    /// Number of priority-like QoS dimensions.
    pub dims: u32,
    /// Priority levels per dimension (the paper uses 16, or 8 in §5.2/§6).
    pub levels: u8,
    /// Level assignment distribution.
    pub level_dist: LevelDist,
    /// Deadline assignment.
    pub deadline: DeadlineDist,
    /// Number of disk cylinders (targets are uniform over them).
    pub cylinders: u32,
    /// Request sizing.
    pub sizing: Sizing,
}

impl PoissonConfig {
    /// The Figure 5–7 setting: relaxed deadlines, transfer-dominated
    /// blocks, 16 levels per dimension, 25 ms mean interarrival.
    pub fn figure5(dims: u32, count: usize) -> Self {
        PoissonConfig {
            mean_interarrival_us: 25_000,
            count,
            dims,
            levels: 16,
            level_dist: LevelDist::Uniform,
            deadline: DeadlineDist::Relaxed,
            cylinders: 3832,
            sizing: Sizing::Fixed(64 * 1024),
        }
    }

    /// The Figure 8–9 setting: three priority dimensions of 8 levels,
    /// deadlines 500–700 ms, priority-scaled request sizes.
    pub fn figure8(count: usize) -> Self {
        PoissonConfig {
            mean_interarrival_us: 25_000,
            count,
            dims: 3,
            levels: 8,
            level_dist: LevelDist::Uniform,
            deadline: DeadlineDist::Uniform {
                lo_us: 500_000,
                hi_us: 700_000,
            },
            cylinders: 3832,
            sizing: Sizing::PriorityScaled {
                base_bytes: 16 * 1024,
                per_level_bytes: 24 * 1024,
            },
        }
    }

    /// The trace of `seed`, streamed: `count` requests, generated a
    /// chunk at a time. Deterministic per seed; `.collect()` it where a
    /// [`crate::Trace`] is needed.
    pub fn generate(&self, seed: u64) -> PoissonStream {
        assert!(self.dims as usize <= sched::MAX_QOS_DIMS);
        assert!(self.levels > 0 && self.cylinders > 0);
        PoissonStream {
            rng: StdRng::seed_from_u64(seed),
            now: 0,
            left: self.count,
            chunk: Vec::with_capacity(self.count.min(CHUNK)),
            pos: 0,
            cfg: self.clone(),
        }
    }
}

/// Requests a [`PoissonStream`] generates per refill: enough that the
/// generation loop stays as tight as the materialized trace's, few
/// enough that the buffer is a rounding error next to any consumer.
const CHUNK: usize = 256;

/// A [`PoissonConfig`]'s trace as a [`TraceSource`]: the requests, order
/// and ids of the materialized trace, held 256 at a time.
#[derive(Debug, Clone)]
pub struct PoissonStream {
    cfg: PoissonConfig,
    rng: StdRng,
    /// Arrival time of the last request generated.
    now: Micros,
    /// Requests still to generate.
    left: usize,
    chunk: Vec<Request>,
    /// Next request of `chunk` to emit.
    pos: usize,
}

impl PoissonStream {
    /// Requests still to come.
    pub fn len(&self) -> usize {
        self.left + (self.chunk.len() - self.pos)
    }

    /// `true` once every request has been emitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Generate the next chunk, in the loop the materialized trace used.
    fn refill(&mut self) {
        let first = (self.cfg.count - self.left) as u64;
        let n = self.left.min(CHUNK);
        self.left -= n;
        let ids = first..first + n as u64;
        // The clock and the generator state stay in locals for the loop.
        let mut now = self.now;
        let mut rng = self.rng.clone();
        let cfg = &self.cfg;
        self.chunk.clear();
        self.pos = 0;
        self.chunk.extend(ids.map(|id| {
            now += dist::exp_us(&mut rng, cfg.mean_interarrival_us);
            let mut levels = [0u8; sched::MAX_QOS_DIMS];
            for slot in levels.iter_mut().take(cfg.dims as usize) {
                *slot = match cfg.level_dist {
                    LevelDist::Uniform => dist::uniform_level(&mut rng, cfg.levels),
                    LevelDist::Normal => dist::normal_level(&mut rng, cfg.levels),
                };
            }
            let qos = QosVector::new(&levels[..cfg.dims as usize]);
            let deadline = match cfg.deadline {
                DeadlineDist::Relaxed => Micros::MAX,
                DeadlineDist::Uniform { lo_us, hi_us } => {
                    now + rng.gen_range(lo_us..=hi_us.max(lo_us))
                }
            };
            let bytes = match cfg.sizing {
                Sizing::Fixed(b) => b,
                Sizing::PriorityScaled {
                    base_bytes,
                    per_level_bytes,
                } => base_bytes + qos.level(0) as u64 * per_level_bytes,
            };
            let cylinder = rng.gen_range(0..cfg.cylinders);
            Request::read(id, now, deadline, cylinder, bytes, qos)
        }));
        self.now = now;
        self.rng = rng;
    }
}

impl Iterator for PoissonStream {
    type Item = Request;

    #[inline]
    fn next(&mut self) -> Option<Request> {
        if self.pos == self.chunk.len() {
            if self.left == 0 {
                return None;
            }
            self.refill();
        }
        let r = self.chunk.get(self.pos).cloned();
        self.pos += 1;
        r
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.len(), Some(self.len()))
    }
}

impl ExactSizeIterator for PoissonStream {}

impl TraceSource for PoissonStream {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate_trace;

    #[test]
    fn figure5_trace_shape() {
        let cfg = PoissonConfig::figure5(4, 2_000);
        let t: Vec<_> = cfg.generate(7).collect();
        assert_eq!(t.len(), 2_000);
        assert!(validate_trace(&t));
        assert!(t.iter().all(|r| r.qos.dims() == 4));
        assert!(t.iter().all(|r| !r.has_deadline()));
        assert!(t.iter().all(|r| r.cylinder < 3832));
        assert!(t.iter().all(|r| r.qos.levels().iter().all(|&l| l < 16)));
        // Mean interarrival ≈ 25 ms.
        let span = t.last().unwrap().arrival_us as f64;
        let mean = span / t.len() as f64;
        assert!((20_000.0..30_000.0).contains(&mean), "mean gap {mean}");
    }

    #[test]
    fn figure8_deadlines_and_sizes() {
        let cfg = PoissonConfig::figure8(1_000);
        let t: Vec<_> = cfg.generate(11).collect();
        for r in &t {
            let offset = r.deadline_us - r.arrival_us;
            assert!((500_000..=700_000).contains(&offset));
            let expected = 16 * 1024 + r.qos.level(0) as u64 * 24 * 1024;
            assert_eq!(r.bytes, expected);
        }
        // High priority (level 0) really is smaller than low (level 7).
        let small = t.iter().find(|r| r.qos.level(0) == 0).unwrap();
        let large = t.iter().find(|r| r.qos.level(0) == 7).unwrap();
        assert!(small.bytes < large.bytes);
    }

    #[test]
    fn deterministic_per_seed_distinct_across_seeds() {
        let cfg = PoissonConfig::figure5(2, 100);
        assert!(cfg.generate(1).eq(cfg.generate(1)));
        assert!(cfg.generate(1).ne(cfg.generate(2)));
    }
}
