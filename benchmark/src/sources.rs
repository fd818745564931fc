//! Request sources for the five workloads: the repository's generators
//! behind thin adapters that (a) chain finite generator output into an
//! endless, lazily produced stream, (b) stamp the two extra QoS levels the
//! 3-D scheduler shape needs, and (c) stop at the committed arrival count.
//! The seed reaches only the generators.

use std::collections::VecDeque;

use sched::{QosVector, Request};
use workload::{NewsByteConfig, PoissonConfig, SessionSource, TraceSource};

use crate::refkernel::splitmix64;

/// Per-segment generator seed: a pure function of the run seed and the
/// segment index, so segment `k` never depends on how far `k-1` was
/// consumed.
fn segment_seed(seed: u64, index: u64) -> u64 {
    let mut s = seed ^ index.wrapping_mul(0xd134_2543_de82_ef95);
    splitmix64(&mut s)
}

/// An endless Poisson stream: `PoissonConfig::generate` called one
/// fixed-size segment at a time, each segment shifted to start where the
/// previous one ended and re-numbered so ids stay dense.
pub struct PoissonSegments {
    cfg: PoissonConfig,
    seed: u64,
    segment: u64,
    next_id: u64,
    offset_us: u64,
    buffered: VecDeque<Request>,
}

impl PoissonSegments {
    /// Chain segments of `cfg.count` requests.
    pub fn new(cfg: PoissonConfig, seed: u64) -> Self {
        assert!(cfg.count > 0, "a segment must hold requests");
        let mut s = PoissonSegments {
            cfg,
            seed,
            segment: 0,
            next_id: 0,
            offset_us: 0,
            buffered: VecDeque::new(),
        };
        s.refill();
        s
    }

    fn refill(&mut self) {
        let trace = self.cfg.generate(segment_seed(self.seed, self.segment));
        self.segment += 1;
        let shift = self.offset_us;
        for mut r in trace {
            r.id = self.next_id;
            r.stream = self.next_id;
            self.next_id += 1;
            let relative_deadline = r.deadline_us - r.arrival_us;
            r.arrival_us += shift;
            r.deadline_us = r.arrival_us + relative_deadline;
            self.offset_us = r.arrival_us;
            self.buffered.push_back(r);
        }
    }
}

impl Iterator for PoissonSegments {
    type Item = Request;
    fn next(&mut self) -> Option<Request> {
        if self.buffered.is_empty() {
            self.refill();
        }
        self.buffered.pop_front()
    }
}

/// An endless NewsByte stream: one `NewsByteConfig::generate` call per
/// simulated `duration_us`, segment `k` shifted by `k` durations. Every
/// arrival of a segment falls inside its own window, so arrivals never
/// go backwards across a seam; stream ids are the generator's user ids
/// and persist across segments.
pub struct NewsByteSegments {
    cfg: NewsByteConfig,
    seed: u64,
    segment: u64,
    next_id: u64,
    buffered: VecDeque<Request>,
}

impl NewsByteSegments {
    /// Chain `cfg.duration_us`-long segments.
    pub fn new(cfg: NewsByteConfig, seed: u64) -> Self {
        let mut s = NewsByteSegments {
            cfg,
            seed,
            segment: 0,
            next_id: 0,
            buffered: VecDeque::new(),
        };
        s.refill();
        s
    }

    fn refill(&mut self) {
        let trace = self.cfg.generate(segment_seed(self.seed, self.segment));
        assert!(!trace.is_empty(), "a NewsByte segment produced nothing");
        let shift = self.segment * self.cfg.duration_us;
        self.segment += 1;
        for mut r in trace {
            r.id = self.next_id;
            self.next_id += 1;
            r.arrival_us += shift;
            r.deadline_us += shift;
            self.buffered.push_back(r);
        }
    }
}

impl Iterator for NewsByteSegments {
    type Item = Request;
    fn next(&mut self) -> Option<Request> {
        if self.buffered.is_empty() {
            self.refill();
        }
        self.buffered.pop_front()
    }
}

/// QoS levels per dimension on every workload (the paper's Figure-8
/// shape: 3 dimensions of 8 levels).
pub const LEVELS: u8 = 8;

/// The session and NewsByte generators emit one QoS dimension; the
/// benchmark's scheduler shape has three. The two missing levels are a
/// fixed property of the stream (SplitMix64 of its id, `0..LEVELS`), so
/// SFC1 folds real 3-D points and a stream keeps its class for life.
pub fn stamp_qos(mut r: Request) -> Request {
    let mut s = r.stream;
    let extra = splitmix64(&mut s);
    r.qos = QosVector::new(&[
        r.qos.level(0),
        (extra % u64::from(LEVELS)) as u8,
        ((extra >> 32) % u64::from(LEVELS)) as u8,
    ]);
    r
}

/// The generator behind a workload, as one concrete type so the daemon's
/// generic `ingest` is monomorphised once.
pub enum Generator {
    /// Closed-loop session population (`steady`, `wide`, `surge`).
    Sessions(SessionSource),
    /// Open-loop Poisson segments (`deep`).
    Poisson(PoissonSegments),
    /// Open-loop NewsByte burst segments (`burst`).
    NewsByte(NewsByteSegments),
}

/// A source the harness can run in slices: `next` yields `None` at a
/// slice boundary as well as at the end, and this tells the two apart.
pub trait Sliced: TraceSource {
    /// `true` once every committed arrival has been emitted.
    fn exhausted(&self) -> bool;
}

/// A workload's request stream: the generator, the QoS stamp where the
/// generator is one-dimensional, and the committed arrival count.
///
/// With [`Source::sliced`] the stream pauses — `next` returns `None`
/// once — every so many arrivals, so the daemon's `ingest` returns, the
/// harness runs a slice of the reference kernel, and `ingest` resumes
/// where it stopped. The daemon sees exactly the same arrivals either
/// way.
pub struct Source {
    generator: Generator,
    remaining: u64,
    slice: u64,
    until_pause: u64,
}

impl Source {
    /// Emit exactly `arrivals` requests from `generator`, unpaused.
    pub fn new(generator: Generator, arrivals: u64) -> Self {
        Source {
            generator,
            remaining: arrivals,
            slice: u64::MAX,
            until_pause: u64::MAX,
        }
    }

    /// Pause after every `slice` arrivals.
    pub fn sliced(mut self, slice: u64) -> Self {
        self.slice = slice.max(1);
        self.until_pause = self.slice;
        self
    }

    /// High-water mark of live sessions (0 for open-loop generators).
    pub fn peak_live_sessions(&self) -> usize {
        match &self.generator {
            Generator::Sessions(s) => s.peak_live_sessions(),
            _ => 0,
        }
    }
}

impl Iterator for Source {
    type Item = Request;
    fn next(&mut self) -> Option<Request> {
        if self.remaining == 0 {
            return None;
        }
        if self.until_pause == 0 {
            self.until_pause = self.slice;
            return None;
        }
        self.until_pause -= 1;
        self.remaining -= 1;
        match &mut self.generator {
            Generator::Sessions(s) => s.next().map(stamp_qos),
            Generator::Poisson(s) => s.next(),
            Generator::NewsByte(s) => s.next().map(stamp_qos),
        }
    }
}

impl TraceSource for Source {
    fn observe(&mut self, backlog: usize) {
        if let Generator::Sessions(s) = &mut self.generator {
            s.observe(backlog);
        }
    }
}

impl Sliced for Source {
    fn exhausted(&self) -> bool {
        self.remaining == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    fn take(w: Workload, seed: u64, n: u64) -> Vec<Request> {
        w.source(seed, n).collect()
    }

    #[test]
    fn every_source_is_seed_deterministic_sorted_and_dense() {
        for w in Workload::ALL {
            let a = take(w, 11, 30_000);
            let b = take(w, 11, 30_000);
            let c = take(w, 12, 30_000);
            assert_eq!(a.len(), 30_000, "{}", w.name());
            assert_eq!(a, b, "{}: same seed, same stream", w.name());
            assert_ne!(a, c, "{}: the seed must matter", w.name());
            assert!(
                workload::validate_trace(&a),
                "{}: arrivals sorted, ids dense",
                w.name()
            );
            for r in &a {
                assert_eq!(r.qos.dims(), 3, "{}", w.name());
                assert!(r.qos.levels().iter().all(|&l| l < LEVELS), "{}", w.name());
                assert!(r.deadline_us > r.arrival_us, "{}", w.name());
            }
        }
    }

    #[test]
    fn segment_seams_keep_time_and_ids_monotone() {
        // 30k arrivals cross several NewsByte minutes; shrink the Poisson
        // segment so its seams are crossed too.
        let cfg = PoissonConfig {
            count: 1_000,
            ..PoissonConfig::figure8(0)
        };
        let trace: Vec<Request> = PoissonSegments::new(cfg, 5).take(4_500).collect();
        assert!(workload::validate_trace(&trace));
        for r in &trace {
            let relative = r.deadline_us - r.arrival_us;
            assert!((500_000..=700_000).contains(&relative), "{relative}");
        }
        let news: Vec<Request> = NewsByteSegments::new(NewsByteConfig::paper(64), 5)
            .take(10_000)
            .collect();
        assert!(workload::validate_trace(&news));
        assert!(
            news.last().unwrap().arrival_us > 2 * 60_000_000,
            "10k requests of 64 users span several one-minute segments"
        );
    }

    #[test]
    fn slicing_pauses_without_losing_or_reordering_arrivals() {
        let whole: Vec<Request> = Workload::Steady.source(3, 1_000).collect();
        let mut sliced = Workload::Steady.source(3, 1_000).sliced(300);
        let mut seen = Vec::new();
        let mut pauses = 0;
        while !sliced.exhausted() {
            seen.extend(sliced.by_ref());
            pauses += 1;
        }
        assert_eq!(seen, whole);
        assert_eq!(pauses, 4, "300 + 300 + 300 + 100");
    }

    #[test]
    fn stamp_is_a_function_of_the_stream_alone() {
        let base = Request::read(1, 0, 10, 5, 512, QosVector::single(3)).with_stream(77);
        let other = Request::read(9, 50, 90, 700, 512, QosVector::single(6)).with_stream(77);
        let (a, b) = (stamp_qos(base), stamp_qos(other));
        assert_eq!(a.qos.level(0), 3);
        assert_eq!(b.qos.level(0), 6);
        assert_eq!(a.qos.levels()[1..], b.qos.levels()[1..]);
        // Different streams spread over the level grid.
        let mut seen = std::collections::BTreeSet::new();
        for stream in 0..256u64 {
            let r =
                stamp_qos(Request::read(0, 0, 1, 0, 1, QosVector::single(0)).with_stream(stream));
            seen.insert((r.qos.level(1), r.qos.level(2)));
        }
        assert!(seen.len() > 48, "only {} of 64 cells hit", seen.len());
    }
}
