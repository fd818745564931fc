//! The three "linear" curves of the catalogue: Sweep, C-Scan and Scan.
//!
//! All three visit the grid stripe by stripe. They differ in which
//! dimension drives the stripes and whether the inner traversal reverses
//! direction (serpentine) or flies back:
//!
//! * [`Sweep`] — lexicographic order with **dimension 0 most significant**.
//!   In 2-D this draws vertical strokes, always bottom-to-top.
//! * [`CScan`] — lexicographic order with the **last dimension most
//!   significant**, every stripe traversed in the same direction with a
//!   fly-back jump: the shape of the circular-SCAN disk policy.
//! * [`Scan`] — like C-Scan but serpentine (boustrophedon): each stripe
//!   reverses direction so consecutive cells are always grid neighbours.
//!
//! Scheduling consequence (paper §5.1): a lexicographic curve *never*
//! inverts the priority of its most-significant dimension, at the price of
//! high inversion in all other dimensions — the worst fairness of the
//! catalogue, but ideal when one QoS parameter must dominate.

use crate::curve::{check_point, check_radix2, SfcError, SpaceFillingCurve};

/// Lexicographic curve, dimension 0 most significant. See module docs.
#[derive(Debug, Clone)]
pub struct Sweep {
    dims: u32,
    bits: u32,
    side: u64,
}

impl Sweep {
    /// Build a Sweep curve over `dims` dimensions with side `2^bits`.
    pub fn new(dims: u32, bits: u32) -> Result<Self, SfcError> {
        let side = check_radix2(dims, bits)?;
        Ok(Sweep { dims, bits, side })
    }
}

impl SpaceFillingCurve for Sweep {
    fn name(&self) -> &'static str {
        "sweep"
    }

    fn dims(&self) -> u32 {
        self.dims
    }

    fn side(&self) -> u64 {
        self.side
    }

    fn index(&self, point: &[u64]) -> u128 {
        check_point("sweep", self.dims, self.side, point);
        let mut idx: u128 = 0;
        for &c in point {
            idx = (idx << self.bits) | c as u128;
        }
        idx
    }
}

/// Lexicographic curve, **last** dimension most significant, with fly-back.
/// See module docs.
#[derive(Debug, Clone)]
pub struct CScan {
    dims: u32,
    bits: u32,
    side: u64,
}

impl CScan {
    /// Build a C-Scan curve over `dims` dimensions with side `2^bits`.
    pub fn new(dims: u32, bits: u32) -> Result<Self, SfcError> {
        let side = check_radix2(dims, bits)?;
        Ok(CScan { dims, bits, side })
    }
}

impl SpaceFillingCurve for CScan {
    fn name(&self) -> &'static str {
        "c-scan"
    }

    fn dims(&self) -> u32 {
        self.dims
    }

    fn side(&self) -> u64 {
        self.side
    }

    fn index(&self, point: &[u64]) -> u128 {
        check_point("c-scan", self.dims, self.side, point);
        let mut idx: u128 = 0;
        for &c in point.iter().rev() {
            idx = (idx << self.bits) | c as u128;
        }
        idx
    }
}

/// Boustrophedon curve: C-Scan with serpentine stripes. See module docs.
#[derive(Debug, Clone)]
pub struct Scan {
    dims: u32,
    bits: u32,
    side: u64,
}

impl Scan {
    /// Build a Scan curve over `dims` dimensions with side `2^bits`.
    pub fn new(dims: u32, bits: u32) -> Result<Self, SfcError> {
        let side = check_radix2(dims, bits)?;
        Ok(Scan { dims, bits, side })
    }
}

impl SpaceFillingCurve for Scan {
    fn name(&self) -> &'static str {
        "scan"
    }

    fn dims(&self) -> u32 {
        self.dims
    }

    fn side(&self) -> u64 {
        self.side
    }

    fn index(&self, point: &[u64]) -> u128 {
        check_point("scan", self.dims, self.side, point);
        // Most significant digit is the last dimension. Each lower digit is
        // reflected when the sum of the more-significant *original* digits
        // is odd, which makes consecutive cells grid neighbours.
        let mut idx: u128 = 0;
        let mut higher_sum: u64 = 0;
        for &c in point.iter().rev() {
            let digit = if higher_sum & 1 == 1 {
                self.side - 1 - c
            } else {
                c
            };
            idx = (idx << self.bits) | digit as u128;
            higher_sum = higher_sum.wrapping_add(c);
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_2d_order() {
        let c = Sweep::new(2, 2).unwrap();
        // index = x*4 + y: vertical strokes.
        assert_eq!(c.index(&[0, 0]), 0);
        assert_eq!(c.index(&[0, 3]), 3);
        assert_eq!(c.index(&[1, 0]), 4);
        assert_eq!(c.index(&[3, 3]), 15);
    }

    #[test]
    fn cscan_2d_order() {
        let c = CScan::new(2, 2).unwrap();
        // index = y*4 + x: horizontal rows, always left-to-right.
        assert_eq!(c.index(&[0, 0]), 0);
        assert_eq!(c.index(&[3, 0]), 3);
        assert_eq!(c.index(&[0, 1]), 4);
        assert_eq!(c.index(&[3, 3]), 15);
    }

    #[test]
    fn scan_2d_serpentine() {
        let c = Scan::new(2, 2).unwrap();
        // Row 0 left-to-right, row 1 right-to-left, ...
        assert_eq!(c.index(&[0, 0]), 0);
        assert_eq!(c.index(&[3, 0]), 3);
        assert_eq!(c.index(&[3, 1]), 4);
        assert_eq!(c.index(&[0, 1]), 7);
        assert_eq!(c.index(&[0, 2]), 8);
    }

    #[test]
    fn scan_consecutive_cells_are_neighbours() {
        let c = Scan::new(3, 2).unwrap();
        let cells = crate::quality::walk(&c).unwrap();
        for (i, w) in cells.windows(2).enumerate() {
            let (prev, cur) = (&w[0], &w[1]);
            let dist: u64 = prev.iter().zip(cur).map(|(&a, &b)| a.abs_diff(b)).sum();
            assert_eq!(dist, 1, "step {} jumps from {prev:?} to {cur:?}", i + 1);
        }
    }

    #[test]
    fn one_dimensional_all_identical() {
        // In 1-D all three degenerate to the identity.
        for i in 0..8u64 {
            assert_eq!(Sweep::new(1, 3).unwrap().index(&[i]), i as u128);
            assert_eq!(CScan::new(1, 3).unwrap().index(&[i]), i as u128);
            assert_eq!(Scan::new(1, 3).unwrap().index(&[i]), i as u128);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sweep_rejects_out_of_range() {
        let c = Sweep::new(2, 2).unwrap();
        c.index(&[4, 0]);
    }

    #[test]
    #[should_panic(expected = "coordinates")]
    fn sweep_rejects_wrong_arity() {
        let c = Sweep::new(2, 2).unwrap();
        c.index(&[1, 2, 3]);
    }
}
