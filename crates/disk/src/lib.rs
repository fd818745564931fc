//! # diskmodel — the simulated disk of the Cascaded-SFC paper
//!
//! A service-time model of the magnetic disk used by the PanaViss video
//! server (Table 1 of Mokbel et al., ICDE 2004): a Quantum XP-series
//! 2.1 GB drive with 3832 cylinders, 16 recording zones, 512-byte sectors
//! and 7200 RPM, accessed in 64-KB file blocks, optionally arranged as a
//! RAID-5 group of 4 data + 1 parity disks.
//!
//! The model computes per-request *service-time breakdowns*:
//!
//! * **seek** — a concave seek-cost curve `a + b·√d + c·d` calibrated to
//!   the table's anchors (average 8.5 ms over random request pairs,
//!   maximum 18 ms full stroke);
//! * **rotation** — the head's angular position is tracked across
//!   operations, so rotational latency emerges deterministically instead
//!   of being drawn at random;
//! * **transfer** — zoned: outer cylinders hold more sectors per track and
//!   therefore stream faster.
//!
//! ```
//! use diskmodel::Disk;
//!
//! let mut disk = Disk::table1();
//! let b = disk.service(1200, 64 * 1024);
//! assert!(b.total_us() > 0);
//! assert_eq!(disk.head(), 1200);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod disk;
pub mod faults;
mod geometry;
mod raid;
mod seek;

pub use disk::{Disk, ServiceBreakdown};
pub use faults::{FaultDraw, FaultInjector, FaultPlan, LimpSpec, MemberFailure, RebuildSpec};
pub use geometry::DiskGeometry;
pub use raid::{Raid5, WriteBreakdown};
pub use seek::SeekModel;

/// Microseconds — the integer time unit shared with the simulator.
pub type Micros = u64;

/// Below this every `f64` converts to `i64` and back exactly: the integer
/// part fits 53 bits, so `x as i64 as f64` is `x.trunc()` and subtracting
/// it from `x` is exact.
const EXACT_INT: f64 = (1u64 << 53) as f64;

/// Convert (non-negative, finite) milliseconds to microseconds, rounding
/// half up.
#[inline]
pub fn ms_to_us(ms: f64) -> Micros {
    debug_assert!(ms.is_finite() && ms >= 0.0);
    round_us(ms * 1000.0)
}

/// `us.round() as Micros`, for every input, without the library call.
///
/// Neither release profile targets SSE4.1, so `f64::round` is a software
/// routine, called three times per served request; inside `[0, 2^53)` the
/// integer round trip below gives the same answer from two conversions
/// and a compare.
#[inline]
fn round_us(us: f64) -> Micros {
    if (0.0..EXACT_INT).contains(&us) {
        let whole = us as i64;
        (whole + i64::from(us - whole as f64 >= 0.5)) as Micros
    } else {
        us.round() as Micros
    }
}

/// `x.fract()`, bit for bit, without the library call `f64::trunc` is on
/// this target (see [`round_us`]): inside `(0, 2^53)` the integer part is
/// one conversion each way. Zeroes, negatives, the non-finite and the
/// huge take the standard route.
#[inline]
pub(crate) fn fract(x: f64) -> f64 {
    if x > 0.0 && x < EXACT_INT {
        x - (x as i64) as f64
    } else {
        x.fract()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every value the two replacements are checked on: the edges named
    /// in their docs, then a seeded sweep over every binade.
    fn probes() -> Vec<f64> {
        let mut out = vec![
            0.0,
            -0.0,
            0.5,
            0.49999999999999994, // the largest double below one half
            1.5,
            2.5,
            -0.5,
            -1.5,
            -2.5e9,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            (1u64 << 63) as f64,
            u64::MAX as f64,
        ];
        // Exact halves and their neighbours, small and near 2^52, where a
        // half is the last fraction a double can carry; then the 2^52 and
        // 2^53 boundaries themselves.
        for whole in [0u64, 1, 2, 7, 1_000, 8_333, (1 << 51) + 1, (1 << 52) - 1] {
            let half = whole as f64 + 0.5;
            let bits = half.to_bits();
            out.extend([bits - 1, bits, bits + 1].map(f64::from_bits));
        }
        for edge in [EXACT_INT / 2.0, EXACT_INT, EXACT_INT * 2.0] {
            for bits in edge.to_bits() - 2..=edge.to_bits() + 2 {
                out.extend([f64::from_bits(bits), -f64::from_bits(bits)]);
            }
        }
        // Uniform in the bit pattern, so every exponent and both signs
        // turn up; then the service model's own range, 0–100 s in µs.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..600_000 {
            out.push(f64::from_bits(next()));
        }
        for _ in 0..600_000 {
            out.push((next() >> 11) as f64 / (1u64 << 53) as f64 * 1e8);
        }
        out
    }

    #[test]
    fn round_us_is_std_round_for_every_input() {
        let probes = probes();
        assert!(probes.len() >= 1_000_000);
        for &us in &probes {
            assert_eq!(round_us(us), us.round() as Micros, "{us:e}");
        }
        assert_eq!(ms_to_us(0.0005), 1, "a half rounds up");
        assert_eq!(ms_to_us(60_000.0 / 7200.0), 8_333);
    }

    #[test]
    fn fract_is_std_fract_bit_for_bit() {
        for &x in &probes() {
            assert_eq!(fract(x).to_bits(), x.fract().to_bits(), "{x:e}");
        }
    }
}
