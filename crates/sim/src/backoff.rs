//! Seeded-deterministic jittered exponential backoff.
//!
//! One pure function, used by the farm supervisor's quarantine re-probe:
//! doubling delays with an optional bounded jitter drawn from a
//! splitmix64 hash of `(seed, salt, attempt)`. No RNG state is threaded anywhere — the same
//! inputs always produce the same delay, so every replay (oracle
//! differential runs, corpus cases, CI smokes) stays bit-for-bit
//! reproducible.

/// The jittered exponential backoff delay for the `attempt`-th retry
/// (1-based), in microseconds.
///
/// * `base_us == 0` disables backoff entirely: the delay is 0 for every
///   attempt, reproducing immediate-retry behavior bit-for-bit.
/// * Otherwise the un-jittered delay doubles per attempt
///   (`base_us << (attempt - 1)`, exponent capped at 20 and the shift
///   saturating, so pathological attempt counts cannot overflow).
/// * `jitter_permille` adds a deterministic pseudo-random extension of up
///   to `delay · jitter_permille / 1000`, keyed by `(seed, salt,
///   attempt)`. Zero jitter keeps the pure doubling schedule.
///
/// `salt` distinguishes independent backoff streams sharing one seed —
/// the farm supervisor salts with the shard index — so co-failing
/// entities do not retry in lockstep.
pub fn jittered_backoff_us(
    base_us: u64,
    attempt: u32,
    jitter_permille: u32,
    seed: u64,
    salt: u64,
) -> u64 {
    if base_us == 0 {
        return 0;
    }
    let exp = attempt.saturating_sub(1).min(20);
    let delay = base_us.saturating_mul(1u64 << exp);
    if jitter_permille == 0 {
        return delay;
    }
    let span = delay.saturating_mul(jitter_permille as u64) / 1000;
    let h = splitmix64(
        seed ^ salt.rotate_left(17) ^ ((attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    );
    delay.saturating_add(h % (span + 1))
}

/// splitmix64 finalizer: a cheap, well-mixed 64-bit hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_base_is_always_zero() {
        for attempt in 0..64 {
            assert_eq!(jittered_backoff_us(0, attempt, 500, 42, 7), 0);
        }
    }

    #[test]
    fn zero_jitter_doubles_exactly() {
        assert_eq!(jittered_backoff_us(100, 1, 0, 0, 0), 100);
        assert_eq!(jittered_backoff_us(100, 2, 0, 0, 0), 200);
        assert_eq!(jittered_backoff_us(100, 3, 0, 0, 0), 400);
        assert_eq!(jittered_backoff_us(100, 10, 0, 0, 0), 51_200);
    }

    #[test]
    fn exponent_caps_and_shift_saturates() {
        // Attempt 21 and attempt 10_000 hit the same capped exponent.
        assert_eq!(
            jittered_backoff_us(3, 21, 0, 0, 0),
            jittered_backoff_us(3, 10_000, 0, 0, 0)
        );
        // A huge base saturates instead of overflowing.
        assert_eq!(jittered_backoff_us(u64::MAX / 2, 21, 0, 0, 0), u64::MAX);
        // Max jitter on a saturated delay stays saturated, no panic.
        assert_eq!(jittered_backoff_us(u64::MAX / 2, 21, 1000, 9, 9), u64::MAX);
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        for attempt in 1..12 {
            let bare = jittered_backoff_us(250, attempt, 0, 0, 0);
            let a = jittered_backoff_us(250, attempt, 300, 42, 7);
            let b = jittered_backoff_us(250, attempt, 300, 42, 7);
            assert_eq!(a, b, "same inputs must give the same delay");
            assert!(a >= bare, "jitter only extends the delay");
            assert!(a <= bare + bare * 300 / 1000, "jitter bounded by permille");
        }
    }

    #[test]
    fn salts_decorrelate_streams() {
        // Two salts sharing a seed should not produce identical jitter on
        // every attempt (lockstep retries are what jitter exists to break).
        let same = (1..16).all(|attempt| {
            jittered_backoff_us(1_000, attempt, 1000, 99, 1)
                == jittered_backoff_us(1_000, attempt, 1000, 99, 2)
        });
        assert!(!same, "salted streams must diverge somewhere");
    }
}
