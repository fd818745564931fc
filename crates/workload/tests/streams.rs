//! The generators stream: `generate(seed)` yields the same requests, in
//! the same order and with the same ids, as the materialized traces it
//! replaced. The goldens are 64-bit digests of those traces over every
//! `Request` field, three seeds per shape.

use sched::{OpKind, Request};
use workload::{DeadlineDist, NewsByteConfig, PoissonConfig, VodConfig};

/// FNV-1a over every field of every request, in order.
fn digest(trace: impl IntoIterator<Item = Request>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in trace {
        eat(r.id);
        eat(r.arrival_us);
        eat(r.deadline_us);
        eat(u64::from(r.cylinder));
        eat(r.bytes);
        eat(r.qos.dims() as u64);
        for &l in r.qos.levels() {
            eat(u64::from(l));
        }
        eat(u64::from(r.kind == OpKind::Write));
        eat(r.stream);
    }
    h
}

const SEEDS: [u64; 3] = [1, 20040330, 31337];

/// The open-loop segment of the `deep` benchmark workload.
fn deep_segment() -> PoissonConfig {
    PoissonConfig {
        mean_interarrival_us: 23_000,
        deadline: DeadlineDist::Uniform {
            lo_us: 4_000_000,
            hi_us: 8_000_000,
        },
        ..PoissonConfig::figure8(50_000)
    }
}

/// A NewsByte shape whose burst jitter spills into the next tick:
/// `⌊P/groups⌋ = 85 µs < 500 µs`, so the last groups' offsets reach
/// past the period `P = 5461 µs`.
fn spill_shape() -> NewsByteConfig {
    NewsByteConfig {
        users: 96,
        block_bytes: 1024,
        stripe_width: 1,
        burst_groups: 64,
        duration_us: 2_000_000,
        ..NewsByteConfig::paper(96)
    }
}

/// Jitter wider than the period itself (`P = 341 µs`): one tick's
/// requests land among the next several ticks'.
fn multi_tick_spill_shape() -> NewsByteConfig {
    NewsByteConfig {
        users: 8,
        block_bytes: 64,
        stripe_width: 1,
        burst_groups: 1,
        duration_us: 200_000,
        ..NewsByteConfig::paper(8)
    }
}

/// Each shape's stream digested, against the digests of the materialized
/// trace it replaced, one per seed of [`SEEDS`].
type Golden = (&'static str, fn(u64) -> u64, [u64; 3]);

const GOLDENS: [Golden; 7] = [
    (
        "figure5(3, 5000)",
        |s| digest(PoissonConfig::figure5(3, 5000).generate(s)),
        [0x2d67eea90abd7ca0, 0xb549a510b2348786, 0x32b42b9387691506],
    ),
    (
        "deep segment",
        |s| digest(deep_segment().generate(s)),
        [0xbae8eeaaacd93665, 0xa06079038900b6db, 0x8603e3103c711304],
    ),
    (
        "paper(68)",
        |s| digest(NewsByteConfig::paper(68).generate(s)),
        [0x2b89f4d252ae8a00, 0xa6e2b0918d4a512e, 0x840b104cf0b8a600],
    ),
    (
        "paper(192)",
        |s| digest(NewsByteConfig::paper(192).generate(s)),
        [0xe4b271d37944ebab, 0x3885bd45f801c1af, 0xab5e346fd80f80a0],
    ),
    (
        "spill",
        |s| digest(spill_shape().generate(s)),
        [0xa2fd8bd738653196, 0xf1bfcbebd92a44ef, 0x1a08038317925f03],
    ),
    (
        "multi-tick spill",
        |s| digest(multi_tick_spill_shape().generate(s)),
        [0x557509e171941119, 0x38c6d037f1d92391, 0x4796c0c69856bb0f],
    ),
    (
        "mpeg1(40)",
        |s| digest(VodConfig::mpeg1(40).generate(s)),
        [0xee01eb1f099bae5c, 0x148bfd378c8b2114, 0x41b44e6cc68e7a5d],
    ),
];

#[test]
fn streams_reproduce_the_materialized_traces_bit_for_bit() {
    for (shape, digest_of, goldens) in GOLDENS {
        for (seed, golden) in SEEDS.into_iter().zip(goldens) {
            assert_eq!(digest_of(seed), golden, "{shape} seed {seed}");
        }
    }
}

/// Every request is counted down by `len()` exactly once, and the
/// stream ends when it reads zero.
fn assert_len_counts_down<I: ExactSizeIterator<Item = Request>>(mut it: I, what: &str) {
    let mut expected = it.len();
    assert_eq!(it.size_hint(), (expected, Some(expected)), "{what}");
    while it.next().is_some() {
        expected -= 1;
        assert_eq!(it.len(), expected, "{what}");
    }
    assert_eq!(expected, 0, "{what}: len() promised more than came");
}

#[test]
fn len_is_the_collected_count() {
    // Durations that are not a multiple of the period, so the last tick's
    // later arrivals fall past `duration_us` and are not generated.
    let short_news = NewsByteConfig {
        duration_us: 10_500_000,
        ..NewsByteConfig::paper(80)
    };
    let short_vod = VodConfig {
        duration_us: 3_210_000,
        ..VodConfig::mpeg1(25)
    };
    for s in SEEDS {
        let n = short_news.generate(s).collect::<Vec<_>>().len();
        assert_eq!(short_news.generate(s).len(), n);
        assert!(n % 80 != 0, "the last tick is cut short");
        let n = short_vod.generate(s).collect::<Vec<_>>().len();
        assert_eq!(short_vod.generate(s).len(), n);
        assert!(n % 25 != 0, "the last period is cut short");

        assert_len_counts_down(PoissonConfig::figure5(3, 1000).generate(s), "poisson");
        assert_len_counts_down(short_news.generate(s), "newsbyte");
        assert_len_counts_down(spill_shape().generate(s), "spill");
        assert_len_counts_down(multi_tick_spill_shape().generate(s), "multi-tick spill");
        assert_len_counts_down(short_vod.generate(s), "vod");
    }
    let empty = NewsByteConfig {
        duration_us: 0,
        ..NewsByteConfig::paper(68)
    };
    assert!(empty.generate(1).is_empty());
    assert_eq!(empty.generate(1).next(), None);
    assert!(PoissonConfig::figure5(3, 0).generate(1).is_empty());
}

#[test]
fn spilled_jitter_is_carried_into_the_next_tick() {
    let cfg = spill_shape();
    let period = cfg.period_us();
    let trace: Vec<Request> = cfg.generate(20040330).collect();
    assert!(workload::validate_trace(&trace), "sorted, ids dense");
    // A user's first arrival is its offset into every tick: some reach
    // past the period, into the next tick's burst.
    let mut first = vec![None; cfg.users as usize];
    for r in &trace {
        first[r.stream as usize].get_or_insert(r.arrival_us);
    }
    let offsets: Vec<u64> = first.into_iter().map(Option::unwrap).collect();
    assert!(offsets.iter().any(|&o| o >= period), "the shape must spill");
    // Every user still arrives exactly once per tick, none lost or
    // duplicated across the carry.
    for (uid, &offset) in offsets.iter().enumerate() {
        let arrivals: Vec<u64> = trace
            .iter()
            .filter(|r| r.stream == uid as u64)
            .map(|r| r.arrival_us)
            .collect();
        let ticks = (cfg.duration_us - offset).div_ceil(period);
        assert_eq!(arrivals.len() as u64, ticks, "user {uid}");
        for (k, &a) in arrivals.iter().enumerate() {
            assert_eq!(a, k as u64 * period + offset, "user {uid} tick {k}");
        }
    }
}

#[test]
fn unbounded_horizons_stream_their_first_requests() {
    let endless = PoissonConfig {
        count: usize::MAX,
        ..PoissonConfig::figure5(3, 0)
    };
    let mut stream = endless.generate(7);
    assert_eq!(stream.len(), usize::MAX);
    let head: Vec<Request> = stream.by_ref().take(10).collect();
    assert_eq!(stream.len(), usize::MAX - 10);
    let finite: Vec<Request> = PoissonConfig::figure5(3, 10).generate(7).collect();
    assert_eq!(head, finite, "the count only says where to stop");

    let endless = NewsByteConfig {
        duration_us: u64::MAX,
        ..NewsByteConfig::paper(68)
    };
    let mut stream = endless.generate(7);
    let ticks = u64::MAX / endless.period_us();
    assert!(stream.len() >= 68 * ticks as usize);
    let head: Vec<Request> = stream.by_ref().take(10).collect();
    let finite: Vec<Request> = NewsByteConfig::paper(68).generate(7).take(10).collect();
    assert_eq!(head, finite);

    let endless = VodConfig {
        duration_us: u64::MAX,
        ..VodConfig::mpeg1(40)
    };
    let head: Vec<Request> = endless.generate(7).take(10).collect();
    let finite: Vec<Request> = VodConfig::mpeg1(40).generate(7).take(10).collect();
    assert_eq!(head, finite);

    // A one-microsecond period over an unbounded horizon holds more
    // requests than `usize` counts: `len()` saturates rather than wraps,
    // and the size hint admits it has no exact upper bound.
    let dense_news = NewsByteConfig {
        users: 2,
        stream_bps: 1_000_000_000,
        block_bytes: 1,
        duration_us: u64::MAX,
        ..NewsByteConfig::paper(2)
    };
    assert_eq!(dense_news.period_us().max(1), 1);
    let mut stream = dense_news.generate(7);
    assert_eq!(stream.len(), usize::MAX);
    assert_eq!(stream.size_hint(), (usize::MAX, None));
    assert_eq!(stream.by_ref().take(10).count(), 10);
    assert_eq!(stream.len(), usize::MAX);
    let dense_vod = VodConfig {
        stream_bps: 1_000_000_000,
        block_bytes: 1,
        duration_us: u64::MAX,
        ..VodConfig::mpeg1(3)
    };
    let mut stream = dense_vod.generate(7);
    assert_eq!(stream.len(), usize::MAX);
    assert_eq!(stream.by_ref().take(10).count(), 10);
}
