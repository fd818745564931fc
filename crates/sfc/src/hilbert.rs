//! The Hilbert curve in `n` dimensions.
//!
//! Implementation of the compact Butz/Lawder algorithm in the "transpose"
//! formulation published by John Skilling ("Programming the Hilbert curve",
//! AIP Conf. Proc. 707, 2004). Coordinates are converted to the
//! *transpose* of the Hilbert index (the index's bits distributed across
//! `n` words), which bit-interleaves into the `u128` index.
//!
//! The Hilbert curve is the locality champion of the catalogue: every step
//! moves to a grid neighbour (unit-step continuity), verified exhaustively
//! by the tests below.

use crate::curve::{check_point, check_radix2, SfcError, SpaceFillingCurve};

/// The Hilbert curve. See module docs.
#[derive(Debug, Clone)]
pub struct Hilbert {
    dims: u32,
    bits: u32,
    side: u64,
}

impl Hilbert {
    /// Build a Hilbert curve over `dims` dimensions with side `2^bits`.
    pub fn new(dims: u32, bits: u32) -> Result<Self, SfcError> {
        let side = check_radix2(dims, bits)?;
        Ok(Hilbert { dims, bits, side })
    }

    /// Convert coordinate axes (in place) to the Hilbert transpose.
    fn axes_to_transpose(&self, x: &mut [u64]) {
        let n = x.len();
        let m = 1u64 << (self.bits - 1);

        // Inverse undo of the excess Gray-code work.
        let mut q = m;
        while q > 1 {
            let p = q - 1;
            for i in 0..n {
                if x[i] & q != 0 {
                    x[0] ^= p;
                } else {
                    let t = (x[0] ^ x[i]) & p;
                    x[0] ^= t;
                    x[i] ^= t;
                }
            }
            q >>= 1;
        }

        // Gray encode.
        for i in 1..n {
            x[i] ^= x[i - 1];
        }
        let mut t = 0;
        let mut q = m;
        while q > 1 {
            if x[n - 1] & q != 0 {
                t ^= q - 1;
            }
            q >>= 1;
        }
        for xi in x.iter_mut() {
            *xi ^= t;
        }
    }

    /// Bit-interleave the transpose into the scalar index. The transpose
    /// convention is: bit `b` of the index (counting from the most
    /// significant of `dims*bits`) is bit `bits-1-b/dims` of `x[b % dims]`.
    fn transpose_to_index(&self, x: &[u64]) -> u128 {
        let mut h: u128 = 0;
        for level in (0..self.bits).rev() {
            for &xi in x {
                h = (h << 1) | ((xi >> level) & 1) as u128;
            }
        }
        h
    }

    /// The dimension-generic Skilling transform. With `bits >= 2`,
    /// `dims * bits <= 128` bounds `dims` by 64, so the working copy lives
    /// in a fixed stack buffer instead of a per-call `Vec`.
    fn index_generic(&self, point: &[u64]) -> u128 {
        let mut buf = [0u64; 64];
        let x = &mut buf[..point.len()];
        x.copy_from_slice(point);
        self.axes_to_transpose(x);
        self.transpose_to_index(x)
    }
}

impl SpaceFillingCurve for Hilbert {
    fn name(&self) -> &'static str {
        "hilbert"
    }

    fn dims(&self) -> u32 {
        self.dims
    }

    fn side(&self) -> u64 {
        self.side
    }

    fn index(&self, point: &[u64]) -> u128 {
        check_point("hilbert", self.dims, self.side, point);
        if self.dims == 1 {
            return point[0] as u128;
        }
        if self.bits == 1 {
            // Degenerate single-level case: the transpose machinery needs
            // bits >= 2; order-1 Hilbert is the Gray-code walk.
            return crate::gray::gray_inverse(self.transpose_to_index(point));
        }
        self.index_generic(point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::{is_bijective, walk};

    #[test]
    fn hilbert_2d_order2_reference() {
        // The canonical 4x4 Hilbert curve (one of its 8 symmetries); verify
        // unit steps and the known property that start and end lie on
        // opposite corners of one axis.
        let c = Hilbert::new(2, 2).unwrap();
        let pts = walk(&c).unwrap();
        assert_eq!(pts.len(), 16);
        assert_eq!(pts[0], vec![0, 0]);
        for w in pts.windows(2) {
            let d: u64 = w[0].iter().zip(&w[1]).map(|(&a, &b)| a.abs_diff(b)).sum();
            assert_eq!(d, 1, "non-unit step {:?} -> {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn unit_steps_in_higher_dims() {
        for (dims, bits) in [(2u32, 4u32), (3, 3), (4, 2), (5, 2)] {
            let c = Hilbert::new(dims, bits).unwrap();
            for (i, w) in walk(&c).unwrap().windows(2).enumerate() {
                let d: u64 = w[0].iter().zip(&w[1]).map(|(&a, &b)| a.abs_diff(b)).sum();
                assert_eq!(d, 1, "dims={dims} bits={bits} step {}", i + 1);
            }
        }
    }

    #[test]
    fn bijective_in_higher_dims() {
        for (dims, bits) in [(2u32, 5u32), (3, 3), (6, 2), (12, 1)] {
            let c = Hilbert::new(dims, bits).unwrap();
            assert!(is_bijective(&c).unwrap(), "dims={dims} bits={bits}");
        }
    }

    #[test]
    fn one_dimensional_identity() {
        let c = Hilbert::new(1, 5).unwrap();
        for i in 0..32u64 {
            assert_eq!(c.index(&[i]), i as u128);
        }
    }
}
