//! The Spiral curve: outward rings around the grid center.
//!
//! Cells are ordered by their Chebyshev (L∞) ring around the grid center,
//! innermost ring first. In two dimensions each ring is walked along its
//! perimeter and consecutive rings join at adjacent cells, so the curve is
//! the classic continuous rectangular spiral. In three or more dimensions
//! the cells of a ring (a hollow hyper-box shell) are ordered
//! lexicographically — a documented approximation, since no continuous
//! perimeter walk exists for a `d ≥ 3` shell ordering that also nests
//! rings.
//!
//! Scheduling character (paper §5.1): the spiral favors mid-range values in
//! every dimension, giving it middling fairness between the lexicographic
//! curves and the Diagonal.

use crate::curve::{check_point, check_radix2, SfcError, SpaceFillingCurve};

/// The Spiral curve. See module docs.
#[derive(Debug, Clone)]
pub struct Spiral {
    dims: u32,
    side: u64,
    /// Central cell range: ring 0 is `[c_lo, c_hi]^d` (one cell per dim for
    /// odd sides, a 2^d block for even sides).
    c_lo: u64,
    c_hi: u64,
}

impl Spiral {
    /// Build a Spiral curve over `dims` dimensions with side `2^bits`.
    pub fn new(dims: u32, bits: u32) -> Result<Self, SfcError> {
        let side = check_radix2(dims, bits)?;
        Self::with_side(dims, side)
    }

    /// Build over an arbitrary side length (odd sides get a single-cell
    /// core; even sides a `2^d` core block).
    pub fn with_side(dims: u32, side: u64) -> Result<Self, SfcError> {
        if dims == 0 {
            return Err(SfcError::ZeroDims);
        }
        if side == 0 {
            return Err(SfcError::ZeroOrder);
        }
        let mut cells: u128 = 1;
        for _ in 0..dims {
            cells = cells
                .checked_mul(side as u128)
                .ok_or(SfcError::TooLarge { dims, order: 0 })?;
        }
        let c_hi = side / 2;
        let c_lo = if side.is_multiple_of(2) {
            c_hi - 1
        } else {
            c_hi
        };
        Ok(Spiral {
            dims,
            side,
            c_lo,
            c_hi,
        })
    }

    /// L∞ ring of a point: 0 inside the core block, growing outward.
    fn ring(&self, point: &[u64]) -> u64 {
        point
            .iter()
            .map(|&c| {
                if c < self.c_lo {
                    self.c_lo - c
                } else {
                    c.saturating_sub(self.c_hi)
                }
            })
            .max()
            .unwrap_or(0)
    }

    /// Side length of the box enclosing rings `0..=r`.
    fn box_side(&self, r: u64) -> u64 {
        (self.c_hi - self.c_lo + 1) + 2 * r
    }

    /// Number of cells in rings `0..=r` (clamped to the grid — rings are
    /// never clipped because the core is centered and the grid is a cube).
    fn cells_within(&self, r: u64) -> u128 {
        pow_u128(self.box_side(r) as u128, self.dims)
    }

    /// Rank of `point` inside ring `r` (2-D: perimeter walk; d≥3: lex).
    fn rank_in_ring(&self, point: &[u64], r: u64) -> u128 {
        let lo = self.c_lo - r;
        let hi = self.c_hi + r;
        if self.dims == 2 {
            return self.rank_perimeter_2d(point[0], point[1], r, lo, hi);
        }
        // Lexicographic rank among shell cells (at least one coordinate on
        // the boundary).
        let w = (hi - lo + 1) as u128;
        if r == 0 {
            // Core block: plain lexicographic rank inside the box.
            let mut rank: u128 = 0;
            for &c in point {
                rank = rank * w + (c - lo) as u128;
            }
            return rank;
        }
        let inner = w - 2; // width of the strictly-interior box (w >= 2 for r >= 1)
        let d = self.dims as usize;
        let mut rank: u128 = 0;
        let mut touched = false;
        for (j, &pj) in point.iter().enumerate() {
            let m = (d - j - 1) as u32;
            let full = pow_u128(w, m);
            let shell = full - pow_u128(inner, m);
            // Values v in [lo, pj): `lo` itself is a boundary value.
            let total_before = pj - lo;
            let boundary_before = u64::from(pj > lo); // only `lo`; `hi` can't precede pj
            let interior_before = total_before - boundary_before;
            rank += boundary_before as u128 * full;
            rank += interior_before as u128 * if touched { full } else { shell };
            touched |= pj == lo || pj == hi;
        }
        rank
    }

    /// Continuous perimeter rank for 2-D rings.
    ///
    /// Ring 0 (even side) walks its 4-cell core `(lo,lo) → (lo,hi) →
    /// (hi,hi) → (hi,lo)`; each ring `r ≥ 1` starts at `(hi, lo+1)`, walks
    /// up the right edge, left along the top, down the left edge and right
    /// along the bottom, ending at `(hi, lo)` — exactly one grid step from
    /// the next ring's start `(hi+1, lo)`.
    fn rank_perimeter_2d(&self, x: u64, y: u64, r: u64, lo: u64, hi: u64) -> u128 {
        if r == 0 {
            // Core: single cell (odd side) or the 4-cell loop (even side).
            if self.c_lo == self.c_hi {
                return 0;
            }
            return match (x == lo, y == lo) {
                (true, true) => 0,
                (true, false) => 1,
                (false, false) => 2,
                (false, true) => 3,
            };
        }
        let w = hi - lo + 1;
        let edge = (w - 1) as u128;
        if x == hi && y > lo {
            // Right edge, upward.
            (y - lo - 1) as u128
        } else if y == hi && x < hi {
            // Top edge, leftward.
            edge + (hi - 1 - x) as u128
        } else if x == lo && y < hi {
            // Left edge, downward.
            2 * edge + (hi - 1 - y) as u128
        } else {
            // Bottom edge, rightward (ends at (hi, lo)).
            3 * edge + (x - lo - 1) as u128
        }
    }
}

fn pow_u128(base: u128, exp: u32) -> u128 {
    let mut acc: u128 = 1;
    for _ in 0..exp {
        acc *= base;
    }
    acc
}

impl SpaceFillingCurve for Spiral {
    fn name(&self) -> &'static str {
        "spiral"
    }

    fn dims(&self) -> u32 {
        self.dims
    }

    fn side(&self) -> u64 {
        self.side
    }

    fn index(&self, point: &[u64]) -> u128 {
        check_point("spiral", self.dims, self.side, point);
        if self.dims == 1 {
            // 1-D spiral: alternate outward from the center.
            let r = self.ring(point);
            if r == 0 {
                return (point[0] - self.c_lo) as u128;
            }
            let base = self.cells_within(r - 1);
            // Lower side first, then upper.
            return if point[0] < self.c_lo { base } else { base + 1 };
        }
        let r = self.ring(point);
        let before = if r == 0 { 0 } else { self.cells_within(r - 1) };
        before + self.rank_in_ring(point, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rings_partition_even_grid() {
        let c = Spiral::new(2, 2).unwrap(); // 4x4
        assert_eq!(c.ring(&[1, 1]), 0);
        assert_eq!(c.ring(&[2, 2]), 0);
        assert_eq!(c.ring(&[0, 1]), 1);
        assert_eq!(c.ring(&[3, 3]), 1);
        assert_eq!(c.cells_within(0), 4);
        assert_eq!(c.cells_within(1), 16);
    }

    #[test]
    fn two_d_walk_is_continuous() {
        for bits in 1..=4u32 {
            let c = Spiral::new(2, bits).unwrap();
            for (i, w) in crate::quality::walk(&c).unwrap().windows(2).enumerate() {
                let (prev, cur) = (&w[0], &w[1]);
                let d: u64 = prev.iter().zip(cur).map(|(&a, &b)| a.abs_diff(b)).sum();
                assert_eq!(d, 1, "bits={bits} step {}: {prev:?} -> {cur:?}", i + 1);
            }
        }
    }

    #[test]
    fn odd_side_center_first() {
        let c = Spiral::with_side(2, 5).unwrap();
        assert_eq!(c.index(&[2, 2]), 0);
        let mut seen = [false; 25];
        for x in 0..5 {
            for y in 0..5 {
                let i = c.index(&[x, y]) as usize;
                assert!(!seen[i]);
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn bijective_3d() {
        let c = Spiral::new(3, 2).unwrap();
        let mut seen = [false; 64];
        for x in 0..4u64 {
            for y in 0..4 {
                for z in 0..4 {
                    let pt = [x, y, z];
                    let i = c.index(&pt);
                    assert!(!seen[i as usize], "duplicate at {pt:?}");
                    seen[i as usize] = true;
                }
            }
        }
    }

    #[test]
    fn ring_monotone() {
        // Inner rings always precede outer rings.
        let c = Spiral::new(3, 3).unwrap();
        assert!(c.index(&[4, 4, 4]) < c.index(&[0, 4, 4]));
        assert!(c.index(&[3, 4, 3]) < c.index(&[7, 7, 7]));
    }

    #[test]
    fn one_dimensional_alternates() {
        let c = Spiral::with_side(1, 6).unwrap();
        // Core = {2,3}, then 1,4, then 0,5.
        assert_eq!(c.index(&[2]), 0);
        assert_eq!(c.index(&[3]), 1);
        assert_eq!(c.index(&[1]), 2);
        assert_eq!(c.index(&[4]), 3);
        assert_eq!(c.index(&[0]), 4);
        assert_eq!(c.index(&[5]), 5);
    }
}
