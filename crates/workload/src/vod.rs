//! Video-on-demand workload: continuous periodic streams.
//!
//! Unlike the bursty NewsByte5 editing workload (§6), a classic VoD
//! server's streams free-run: each client fetches its next block one
//! period after the previous one, so arrivals are spread almost uniformly
//! in time while each *stream* remains strictly periodic. Streams read
//! sequentially laid-out files, so consecutive requests of one stream
//! walk neighbouring cylinders — the locality a SCAN-family scheduler
//! exploits.

use crate::ticks::Ticks;
use crate::TraceSource;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sched::{Micros, QosVector, Request};

/// Configuration of the VoD stream workload.
#[derive(Debug, Clone)]
pub struct VodConfig {
    /// Number of concurrent streams.
    pub streams: u32,
    /// Per-stream bit rate (e.g. MPEG-1 at 1.5 Mb/s).
    pub stream_bps: u64,
    /// Block size fetched per request.
    pub block_bytes: u64,
    /// Priority levels; each stream is assigned one uniformly.
    pub levels: u8,
    /// Per-request deadline: the next block is needed one period after
    /// the fetch is issued, scaled by this safety factor (e.g. 1.0 = one
    /// period, the double-buffering bound).
    pub deadline_periods: f64,
    /// Simulated duration (µs).
    pub duration_us: Micros,
    /// Cylinders on the disk.
    pub cylinders: u32,
    /// Cylinders a stream's file advances per block (sequential layout).
    pub cylinders_per_block: u32,
}

impl VodConfig {
    /// A typical single-disk VoD setting: MPEG-1 streams, 64-KB blocks,
    /// 4 priority levels, one-period deadlines.
    pub fn mpeg1(streams: u32) -> Self {
        VodConfig {
            streams,
            stream_bps: 1_500_000,
            block_bytes: 64 * 1024,
            levels: 4,
            deadline_periods: 1.0,
            duration_us: 30_000_000,
            cylinders: 3832,
            cylinders_per_block: 1,
        }
    }

    /// Time between successive block requests of one stream.
    pub fn period_us(&self) -> Micros {
        (self.block_bytes as f64 * 8.0 / self.stream_bps as f64 * 1e6).round() as Micros
    }

    /// The trace of `seed`, streamed one period at a time.
    /// Deterministic per seed; `.collect()` it where a [`crate::Trace`]
    /// is needed.
    pub fn generate(&self, seed: u64) -> VodStream {
        assert!(self.streams > 0 && self.levels > 0);
        assert!(self.deadline_periods > 0.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let period = self.period_us().max(1);
        let streams: Vec<Stream> = (0..self.streams)
            .map(|_| Stream {
                level: rng.gen_range(0..self.levels),
                // Free-running phases spread arrivals across the period.
                phase: rng.gen_range(0..period),
                cylinder: rng.gen_range(0..self.cylinders),
            })
            .collect();
        VodStream {
            ticks: Ticks::new(period, self.duration_us, streams.iter().map(|s| s.phase)),
            deadline_off: (period as f64 * self.deadline_periods).round() as Micros,
            cfg: self.clone(),
            streams,
        }
    }
}

/// One stream's state.
#[derive(Debug, Clone)]
struct Stream {
    level: u8,
    phase: Micros,
    /// Cylinder of the stream's next block.
    cylinder: u32,
}

/// A [`VodConfig`]'s trace as a [`TraceSource`]: the requests, order and
/// ids of the materialized trace, generated one period (every stream
/// once) at a time. Phases lie inside the period, so each period is
/// released whole.
#[derive(Debug, Clone)]
pub struct VodStream {
    cfg: VodConfig,
    streams: Vec<Stream>,
    deadline_off: Micros,
    ticks: Ticks,
}

impl VodStream {
    /// Requests still to come; `usize::MAX` for a horizon with more.
    pub fn len(&self) -> usize {
        self.ticks.size_hint().0
    }

    /// `true` once every request has been emitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Generate periods until one releases a request, or the horizon
    /// ends the trace.
    fn next_tick(&mut self) -> Option<Request> {
        loop {
            let (_, base) = self.ticks.begin()?;
            for (sid, s) in self.streams.iter_mut().enumerate() {
                let Some(arrival) = self.ticks.arrival(base, s.phase) else {
                    continue;
                };
                self.ticks.push(
                    Request::read(
                        0,
                        arrival,
                        arrival + self.deadline_off,
                        s.cylinder,
                        self.cfg.block_bytes,
                        QosVector::single(s.level),
                    )
                    .with_stream(sid as u64),
                );
                // Sequential layout: the next block sits a little inward.
                s.cylinder = (s.cylinder + self.cfg.cylinders_per_block) % self.cfg.cylinders;
            }
            self.ticks.end();
            if let Some(r) = self.ticks.pop() {
                return Some(r);
            }
        }
    }
}

impl Iterator for VodStream {
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

impl ExactSizeIterator for VodStream {}

impl TraceSource for VodStream {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate_trace;

    #[test]
    fn period_matches_rate() {
        let cfg = VodConfig::mpeg1(10);
        // 64 KB * 8 / 1.5 Mb/s ≈ 349.5 ms.
        assert!((349_000..350_500).contains(&cfg.period_us()));
    }

    #[test]
    fn trace_is_valid_and_spread() {
        let cfg = VodConfig::mpeg1(40);
        let t: Vec<_> = cfg.generate(3).collect();
        assert!(validate_trace(&t));
        // ~40 streams × (30 s / 0.35 s) ≈ 3.4 k requests.
        assert!((3_000..3_800).contains(&t.len()), "len {}", t.len());
        // Arrivals are spread: few sub-millisecond gaps, unlike NewsByte.
        let tiny_gaps = t
            .windows(2)
            .filter(|w| w[1].arrival_us - w[0].arrival_us < 100)
            .count();
        assert!(
            tiny_gaps < t.len() / 2,
            "VoD should not be bursty: {tiny_gaps}/{}",
            t.len()
        );
    }

    #[test]
    fn streams_are_periodic_and_sequential() {
        let cfg = VodConfig::mpeg1(3);
        let t: Vec<_> = cfg.generate(7).collect();
        let period = cfg.period_us();
        // Group requests by (level, phase-class): every stream's arrivals
        // are exactly one period apart. Reconstruct per-stream sequences
        // by arrival mod period.
        use std::collections::HashMap;
        let mut by_phase: HashMap<u64, Vec<&sched::Request>> = HashMap::new();
        for r in &t {
            by_phase.entry(r.arrival_us % period).or_default().push(r);
        }
        assert_eq!(by_phase.len(), 3, "three distinct stream phases");
        for seq in by_phase.values() {
            for w in seq.windows(2) {
                assert_eq!(w[1].arrival_us - w[0].arrival_us, period);
                // Sequential layout: cylinders advance by one per block.
                let expected = (w[0].cylinder + 1) % cfg.cylinders;
                assert_eq!(w[1].cylinder, expected);
            }
        }
    }

    #[test]
    fn deadline_is_one_period() {
        let cfg = VodConfig::mpeg1(5);
        let t: Vec<_> = cfg.generate(9).collect();
        for r in &t {
            assert_eq!(r.deadline_us - r.arrival_us, cfg.period_us());
        }
    }
}
