//! The reflected Gray-code curve.
//!
//! Coordinates are bit-interleaved into a single word `w` (dimension 0
//! contributes the most significant bit of each group, as in a Morton
//! code), and the curve index is the *rank* of `w` in the binary
//! reflected Gray code: `index = gray⁻¹(w)`.
//!
//! Stepping along the curve flips exactly one bit of the interleaved word,
//! so consecutive cells differ in exactly one coordinate by a power of two
//! — strong clustering, but not unit-step continuity (paper [18,19]).

use crate::curve::{check_point, check_radix2, SfcError, SpaceFillingCurve};

/// The reflected Gray-code curve. See module docs.
#[derive(Debug, Clone)]
pub struct Gray {
    dims: u32,
    bits: u32,
    side: u64,
}

impl Gray {
    /// Build a Gray curve over `dims` dimensions with side `2^bits`.
    pub fn new(dims: u32, bits: u32) -> Result<Self, SfcError> {
        let side = check_radix2(dims, bits)?;
        Ok(Gray { dims, bits, side })
    }

    /// Interleave coordinate bits, dimension 0 most significant within each
    /// bit level, the highest bit level first.
    fn interleave(&self, point: &[u64]) -> u128 {
        let mut w: u128 = 0;
        for level in (0..self.bits).rev() {
            for &c in point {
                w = (w << 1) | ((c >> level) & 1) as u128;
            }
        }
        w
    }
}

/// Inverse of the binary reflected Gray code.
#[inline]
pub(crate) fn gray_inverse(mut g: u128) -> u128 {
    let mut shift = 1u32;
    while shift < 128 {
        g ^= g >> shift;
        shift <<= 1;
    }
    g
}

impl SpaceFillingCurve for Gray {
    fn name(&self) -> &'static str {
        "gray"
    }

    fn dims(&self) -> u32 {
        self.dims
    }

    fn side(&self) -> u64 {
        self.side
    }

    fn index(&self, point: &[u64]) -> u128 {
        check_point("gray", self.dims, self.side, point);
        gray_inverse(self.interleave(point))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Binary reflected Gray code of `b`.
    fn gray(b: u128) -> u128 {
        b ^ (b >> 1)
    }

    #[test]
    fn gray_code_basics() {
        let seq: Vec<u128> = (0..8).map(gray).collect();
        assert_eq!(seq, vec![0, 1, 3, 2, 6, 7, 5, 4]);
        for b in 0..1024u128 {
            assert_eq!(gray_inverse(gray(b)), b);
        }
    }

    #[test]
    fn consecutive_cells_differ_in_one_coordinate() {
        let c = Gray::new(3, 2).unwrap();
        let cells = crate::quality::walk(&c).unwrap();
        for (i, w) in cells.windows(2).enumerate() {
            let (prev, cur) = (&w[0], &w[1]);
            let changed = prev.iter().zip(cur).filter(|(a, b)| a != b).count();
            assert_eq!(changed, 1, "step {}: {prev:?} -> {cur:?}", i + 1);
            // ... and the change is a power of two.
            let delta = prev
                .iter()
                .zip(cur)
                .map(|(&a, &b)| a.abs_diff(b))
                .max()
                .unwrap();
            assert!(delta.is_power_of_two());
        }
    }

    #[test]
    fn index_is_the_gray_rank_of_the_morton_word() {
        // Gray = inverse Gray code of the Morton word: dimension 0 is the
        // most significant bit of each level.
        let g = Gray::new(2, 2).unwrap();
        for x in 0..4u64 {
            for y in 0..4 {
                let morton = (0..2).rev().fold(0u128, |w, level| {
                    (w << 2) | (((x >> level) & 1) << 1 | ((y >> level) & 1)) as u128
                });
                assert_eq!(gray(g.index(&[x, y])), morton, "at ({x},{y})");
            }
        }
    }

    #[test]
    fn order_one_gray_equals_two_cell_walk() {
        // With one bit per dimension the Gray curve walks the hypercube's
        // Gray-code Hamiltonian cycle.
        let c = Gray::new(2, 1).unwrap();
        assert_eq!(c.index(&[0, 0]), 0);
        assert_eq!(c.index(&[0, 1]), 1);
        assert_eq!(c.index(&[1, 1]), 2);
        assert_eq!(c.index(&[1, 0]), 3);
    }
}
