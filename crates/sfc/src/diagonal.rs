//! The Diagonal curve: anti-diagonal (coordinate-sum) ordering.
//!
//! Cells are visited in increasing order of their coordinate sum
//! `s = Σᵢ pᵢ`; within one anti-diagonal the order is lexicographic
//! (dimension 0 most significant), reversed on odd `s` so the 2-D curve is
//! the classic zigzag.
//!
//! The Diagonal curve is *symmetric in all dimensions*, which is why it is
//! the paper's hero curve for the priority stage (SFC1): with equally
//! important QoS parameters it produces both the lowest total priority
//! inversion and the best fairness (§5.1), and the deadline stage's
//! explicit formula `v_c = priority + f·deadline` (§5.2) is exactly the
//! [`WeightedDiagonal`] generalization below.
//!
//! ## Ranking
//!
//! Dense ranks are computed exactly: the number of grid points with
//! coordinate sum `t` over `m` bounded dimensions, `N_m(t)`, is built once
//! at construction by an `O(d · s_max)` sliding-window DP, after which each
//! `index()` query is `O(d)` using prefix sums of `N_m`. For `d ≤ 2` the
//! closed forms are used and no tables are allocated.

use crate::curve::{check_point, check_radix2, SfcError, SpaceFillingCurve};

/// Upper bound on the total DP-table entries `Diagonal::new` may allocate
/// (keeps the worst case around 256 MiB of `u128`s).
const MAX_TABLE_ENTRIES: u128 = 1 << 24;

/// The Diagonal (anti-diagonal) curve. See module docs.
#[derive(Debug, Clone)]
pub struct Diagonal {
    dims: u32,
    side: u64,
    /// `cum[m][t]` = Σ_{u ≤ t} N_m(u): points over `m` dims with sum ≤ t.
    /// Only populated for `dims >= 3`; index `m` runs 1..=dims (entry 0
    /// unused and empty).
    cum: Vec<Vec<u128>>,
}

impl Diagonal {
    /// Build a Diagonal curve over `dims` dimensions with side `2^bits`.
    pub fn new(dims: u32, bits: u32) -> Result<Self, SfcError> {
        let side = check_radix2(dims, bits)?;
        Self::with_side(dims, side)
    }

    /// Build over an arbitrary (not necessarily power-of-two) side length.
    /// Exposed because scheduling grids for priority levels are often not
    /// powers of two.
    pub fn with_side(dims: u32, side: u64) -> Result<Self, SfcError> {
        if dims == 0 {
            return Err(SfcError::ZeroDims);
        }
        if side == 0 {
            return Err(SfcError::ZeroOrder);
        }
        // Index must fit u128.
        let mut cells: u128 = 1;
        for _ in 0..dims {
            cells = cells
                .checked_mul(side as u128)
                .ok_or(SfcError::TooLarge { dims, order: 0 })?;
        }
        let mut cum = Vec::new();
        if dims >= 3 {
            let entries: u128 = (1..=dims as u128).map(|m| m * (side as u128 - 1) + 1).sum();
            if entries > MAX_TABLE_ENTRIES {
                return Err(SfcError::TooLarge { dims, order: 0 });
            }
            cum = build_tables(dims as usize, side);
        }
        Ok(Diagonal { dims, side, cum })
    }

    /// Σ_{u ≤ t} N_m(u) for `t` possibly negative (yields 0) or beyond the
    /// maximum sum (yields side^m).
    fn cum_m(&self, m: usize, t: i128) -> u128 {
        if t < 0 {
            return 0;
        }
        if m == 0 {
            return 1; // the empty point has sum 0 <= t
        }
        let n = self.side as i128;
        let tmax = m as i128 * (n - 1);
        let t = t.min(tmax);
        match m {
            1 => (t + 1) as u128,
            2 => {
                // N_2(u) = u+1 for u < n, 2n-1-u for u >= n.
                if t < n {
                    ((t + 1) * (t + 2) / 2) as u128
                } else {
                    let total = (n * n) as u128;
                    let r = tmax - t; // remaining sums above t
                    total - ((r * (r + 1)) / 2) as u128
                }
            }
            _ => self.cum[m][t as usize],
        }
    }

    /// Number of points over `m` dims with sum exactly `t`.
    fn count_m(&self, m: usize, t: i128) -> u128 {
        self.cum_m(m, t) - self.cum_m(m, t - 1)
    }

    /// Lexicographic rank of `point` within its own anti-diagonal.
    fn rank_in_diagonal(&self, point: &[u64], s: u64) -> u128 {
        let d = self.dims as usize;
        let mut rank: u128 = 0;
        let mut prefix: u64 = 0;
        for (j, &pj) in point.iter().enumerate() {
            let m = d - j - 1;
            let rem = (s - prefix) as i128;
            // Σ_{v < pj} N_m(rem - v) = C_m(rem) - C_m(rem - pj)
            rank += self.cum_m(m, rem) - self.cum_m(m, rem - pj as i128);
            prefix += pj;
        }
        rank
    }
}

/// Sliding-window DP for `cum[m][t]` over all m in 1..=d.
fn build_tables(d: usize, side: u64) -> Vec<Vec<u128>> {
    let n = side as usize;
    let mut cum: Vec<Vec<u128>> = Vec::with_capacity(d + 1);
    cum.push(Vec::new()); // m = 0 handled in closed form
                          // m = 1: N_1(t) = 1 for t in 0..n, cum = t+1.
    cum.push((1..=n as u128).collect());
    for m in 2..=d {
        let tmax = m * (n - 1);
        let prev = &cum[m - 1];
        let prev_total = *prev.last().unwrap();
        let mut cur = Vec::with_capacity(tmax + 1);
        // N_m(t) = C_{m-1}(t) - C_{m-1}(t - n); build cumulative directly.
        let mut acc: u128 = 0;
        for t in 0..=tmax {
            let hi = if t < prev.len() { prev[t] } else { prev_total };
            let lo = if t >= n {
                let u = t - n;
                if u < prev.len() {
                    prev[u]
                } else {
                    prev_total
                }
            } else {
                0
            };
            acc += hi - lo;
            cur.push(acc);
        }
        cum.push(cur);
    }
    cum
}

impl SpaceFillingCurve for Diagonal {
    fn name(&self) -> &'static str {
        "diagonal"
    }

    fn dims(&self) -> u32 {
        self.dims
    }

    fn side(&self) -> u64 {
        self.side
    }

    fn index(&self, point: &[u64]) -> u128 {
        check_point("diagonal", self.dims, self.side, point);
        let s: u64 = point.iter().sum();
        let before = self.cum_m(self.dims as usize, s as i128 - 1);
        let in_diag = self.count_m(self.dims as usize, s as i128);
        let lex = self.rank_in_diagonal(point, s);
        let rank = if s & 1 == 1 { in_diag - 1 - lex } else { lex };
        before + rank
    }
}

/// The weighted diagonal family of the paper's deadline stage (SFC2):
/// `v = x + f·y`.
///
/// * `f = 0` (ties → smaller `y`): lexicographic in `x` — a Sweep.
/// * `f = 1`: the Diagonal curve's anti-diagonal order.
/// * `f → ∞`: lexicographic in `y` — the transposed Sweep (C-Scan).
///
/// In the scheduler, `x` is the priority value from SFC1 and `y` the
/// deadline slack, so `f` dials between "respect priorities" (`f < 1`) and
/// "meet deadlines" (`f > 1`). This is a scheduling *order*, not a
/// space-filling bijection, so it does not implement
/// [`SpaceFillingCurve`]; [`WeightedDiagonal::value`] returns a fixed-point
/// composite that preserves the order `x + f·y` with deterministic
/// lexicographic tie-breaking on `x`.
#[derive(Debug, Clone, Copy)]
pub struct WeightedDiagonal {
    f: f64,
    /// `round(f * SCALE)`, fixed at construction so `value` is pure integer
    /// arithmetic (the float multiply + round per call was a measurable
    /// share of the encapsulator's stage-2 cost).
    fx: u128,
}

impl WeightedDiagonal {
    /// Fixed-point scale for the fractional part of `f`.
    const SCALE: u128 = 1 << 32;

    /// Create the order with balance factor `f >= 0`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is negative, NaN or infinite.
    pub fn new(f: f64) -> Self {
        assert!(
            f.is_finite() && f >= 0.0,
            "balance factor must be finite and >= 0"
        );
        let fx = (f * Self::SCALE as f64).round() as u128;
        WeightedDiagonal { f, fx }
    }

    /// The balance factor.
    pub fn f(&self) -> f64 {
        self.f
    }

    /// The fixed-point factor [`WeightedDiagonal::value`] multiplies `y`
    /// by: `f·2³²` rounded, saturating at `u128::MAX` for an `f` too large
    /// to represent.
    pub fn fixed_factor(&self) -> u128 {
        self.fx
    }

    /// Composite value preserving the order of `x + f·y`, with ties broken
    /// by smaller `x` first (the paper breaks the `f = 0` tie by earliest
    /// deadline, i.e. smaller `y`; since `x + f·y` equal and `f = 0` make
    /// `x` equal, ordering on the composite achieves both conventions).
    pub fn value(&self, x: u64, y: u64) -> u128 {
        let main = (x as u128) * Self::SCALE + self.fx * y as u128;
        // Tie-break on x: shift the main term and append x.
        main << 32 | (x as u128 & 0xFFFF_FFFF)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_2d() {
        let c = Diagonal::new(2, 1).unwrap();
        // 2x2: (0,0) s=0; s=1: odd -> reversed lex: (1,0) then (0,1)?
        // lex order within s=1 is (0,1),(1,0); reversed: (1,0),(0,1).
        assert_eq!(c.index(&[0, 0]), 0);
        assert_eq!(c.index(&[1, 0]), 1);
        assert_eq!(c.index(&[0, 1]), 2);
        assert_eq!(c.index(&[1, 1]), 3);
    }

    #[test]
    fn bijective_2d() {
        let c = Diagonal::new(2, 3).unwrap();
        let mut seen = [false; 64];
        for x in 0..8 {
            for y in 0..8 {
                let i = c.index(&[x, y]) as usize;
                assert!(!seen[i], "duplicate index {i}");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn bijective_4d() {
        let c = Diagonal::new(4, 2).unwrap();
        let mut seen = vec![false; 256];
        for a in 0..4u64 {
            for b in 0..4 {
                for x in 0..4 {
                    for y in 0..4 {
                        let pt = [a, b, x, y];
                        let i = c.index(&pt);
                        assert!(!seen[i as usize]);
                        seen[i as usize] = true;
                    }
                }
            }
        }
    }

    #[test]
    fn monotone_in_sum() {
        let c = Diagonal::new(3, 4).unwrap();
        // Any point with smaller coordinate sum precedes any with larger.
        assert!(c.index(&[5, 5, 5]) < c.index(&[15, 1, 0]));
        assert!(c.index(&[0, 0, 1]) < c.index(&[1, 1, 0]));
    }

    #[test]
    fn symmetric_across_dimensions() {
        // Swapping coordinates keeps the anti-diagonal (hence distance from
        // the start is bounded by the diagonal's size): the curve treats
        // dimensions interchangeably at the macro level.
        let c = Diagonal::new(3, 4).unwrap();
        let a = c.index(&[3, 7, 11]);
        let b = c.index(&[11, 3, 7]);
        let diag_size = {
            let s = 21i128;
            c.count_m(3, s)
        };
        assert!(a.abs_diff(b) < diag_size);
    }

    #[test]
    fn arbitrary_side() {
        let c = Diagonal::with_side(3, 5).unwrap();
        assert_eq!(c.cells(), 125);
        let mut seen = [false; 125];
        for a in 0..5u64 {
            for b in 0..5 {
                for x in 0..5 {
                    let i = c.index(&[a, b, x]) as usize;
                    assert!(!seen[i]);
                    seen[i] = true;
                }
            }
        }
    }

    #[test]
    fn rejects_oversized_tables() {
        assert!(matches!(
            Diagonal::with_side(12, 1 << 40),
            Err(SfcError::TooLarge { .. })
        ));
    }

    #[test]
    fn weighted_diagonal_orders() {
        let w0 = WeightedDiagonal::new(0.0);
        // f = 0: priority dominates, deadline ignored (ties on x broken by x).
        assert!(w0.value(1, 100) < w0.value(2, 0));
        let w1 = WeightedDiagonal::new(1.0);
        // f = 1: sum order.
        assert!(w1.value(2, 3) < w1.value(4, 2));
        let whuge = WeightedDiagonal::new(1e6);
        // huge f: deadline dominates.
        assert!(whuge.value(1000, 1) < whuge.value(0, 2));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn weighted_diagonal_rejects_nan() {
        WeightedDiagonal::new(f64::NAN);
    }
}
