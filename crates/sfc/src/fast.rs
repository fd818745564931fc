//! Devirtualized curve dispatch for the scheduler hot path.
//!
//! The encapsulator used to hold every stage curve as a `Box<dyn
//! SpaceFillingCurve>`, paying a virtual call (and, for Hilbert, a `Vec`
//! round-trip) per stage per request. [`CurveKernel`] resolves the curve
//! *shape* once at construction: the 2-D/3-D radix-2 curves the stages
//! actually build become direct calls into the LUT kernels of
//! [`crate::kernels`], and everything else falls back to the boxed trait
//! object. `CurveKernel::index` is bit-identical to the catalogue curve it
//! replaces — same value, same out-of-range panics (pinned by
//! `tests/props.rs`).

use crate::curve::{check_point, CurveKind, SfcError, SpaceFillingCurve};
use crate::kernels;

/// Shape of a monomorphized kernel's grid.
#[derive(Debug, Clone, Copy)]
pub struct KernelGrid {
    /// Bits per dimension.
    pub bits: u32,
    /// Side length, `2^bits`.
    pub side: u64,
}

/// A curve handle resolved at construction: monomorphized LUT kernels for
/// the shapes the scheduler builds, `Box<dyn SpaceFillingCurve>` otherwise.
pub enum CurveKernel {
    /// 2-D Hilbert through the 4-state byte automaton (`bits >= 2`).
    Hilbert2(KernelGrid),
    /// 3-D Hilbert through the 24-state automaton (`bits >= 2`).
    Hilbert3(KernelGrid),
    /// 2-D Z-order through the byte spread tables.
    ZOrder2(KernelGrid),
    /// 3-D Z-order through the byte spread tables.
    ZOrder3(KernelGrid),
    /// 2-D Gray: byte-spread interleave, then the Gray rank.
    Gray2(KernelGrid),
    /// 3-D Gray: byte-spread interleave, then the Gray rank.
    Gray3(KernelGrid),
    /// Dense rank table for a tiny grid (at most [`SMALL_LUT_MAX_CELLS`]
    /// cells): the whole curve, whatever its family, collapses to one
    /// array lookup. This is what the scheduler's stage-1 shapes hit —
    /// e.g. the paper-default Diagonal over 16^3 QoS levels — where the
    /// catalogue object would re-derive anti-diagonal ranks per request.
    SmallLut {
        /// `lut[off]` is the curve index of the point whose mixed-radix
        /// offset is `off = Σ pⱼ·sideʲ`.
        lut: Box<[u16]>,
        /// Cells per dimension (not necessarily a power of two: Peano
        /// grids are 3-adic).
        side: u64,
        /// Number of grid dimensions.
        dims: u32,
        /// Curve name, kept for error parity with the catalogue object.
        name: &'static str,
    },
    /// Any other curve or shape: the dimension-generic catalogue object.
    Dyn(Box<dyn SpaceFillingCurve>),
}

/// Largest grid (in cells) that [`CurveKernel::build`] will flatten into a
/// dense `SmallLut` table. 4096 cells = 8 KiB of `u16` ranks — covers the
/// paper-default stage-1 grid (16^3) while keeping construction cost and
/// cache footprint negligible.
pub const SMALL_LUT_MAX_CELLS: u128 = 1 << 12;

impl CurveKernel {
    /// Build the kernel for `kind` over `dims` dimensions at the given
    /// order, choosing a monomorphized fast path when one exists.
    pub fn build(kind: CurveKind, dims: u32, order: u32) -> Result<CurveKernel, SfcError> {
        // Validate through the catalogue constructor so error cases are
        // identical to `CurveKind::build`.
        let curve = kind.build(dims, order)?;
        let grid = KernelGrid {
            bits: order,
            side: curve.side(),
        };
        Ok(match (kind, dims) {
            // Order-1 Hilbert is the Gray walk special case; keep it off
            // the automaton path (it needs bits >= 2).
            (CurveKind::Hilbert, 2) if order >= 2 => CurveKernel::Hilbert2(grid),
            (CurveKind::Hilbert, 3) if order >= 2 => CurveKernel::Hilbert3(grid),
            (CurveKind::ZOrder, 2) => CurveKernel::ZOrder2(grid),
            (CurveKind::ZOrder, 3) => CurveKernel::ZOrder3(grid),
            (CurveKind::Gray, 2) => CurveKernel::Gray2(grid),
            (CurveKind::Gray, 3) => CurveKernel::Gray3(grid),
            _ if curve.cells() <= SMALL_LUT_MAX_CELLS => Self::small_lut(curve),
            _ => CurveKernel::Dyn(curve),
        })
    }

    /// Flatten a tiny catalogue curve into a dense rank table.
    fn small_lut(curve: Box<dyn SpaceFillingCurve>) -> CurveKernel {
        let side = curve.side();
        let dims = curve.dims();
        let mut p = vec![0u64; dims as usize];
        let mut lut = vec![0u16; curve.cells() as usize].into_boxed_slice();
        for (off, slot) in lut.iter_mut().enumerate() {
            let mut rem = off as u64;
            for c in p.iter_mut() {
                *c = rem % side;
                rem /= side;
            }
            *slot = curve.index(&p) as u16;
        }
        CurveKernel::SmallLut {
            lut,
            side,
            dims,
            name: curve.name(),
        }
    }

    /// Map a grid point to its curve index. Panics exactly like the
    /// catalogue curve on a wrong-arity or out-of-range point.
    #[inline]
    pub fn index(&self, point: &[u64]) -> u128 {
        match self {
            CurveKernel::Hilbert2(g) => {
                check_point("hilbert", 2, g.side, point);
                kernels::hilbert2(point[0], point[1], g.bits)
            }
            CurveKernel::Hilbert3(g) => {
                check_point("hilbert", 3, g.side, point);
                kernels::hilbert3(point[0], point[1], point[2], g.bits)
            }
            CurveKernel::ZOrder2(g) => {
                check_point("z-order", 2, g.side, point);
                kernels::morton2(point[0], point[1], g.bits)
            }
            CurveKernel::ZOrder3(g) => {
                check_point("z-order", 3, g.side, point);
                kernels::morton3(point[0], point[1], point[2], g.bits)
            }
            CurveKernel::Gray2(g) => {
                check_point("gray", 2, g.side, point);
                crate::gray::gray_inverse(kernels::morton2(point[0], point[1], g.bits))
            }
            CurveKernel::Gray3(g) => {
                check_point("gray", 3, g.side, point);
                crate::gray::gray_inverse(kernels::morton3(point[0], point[1], point[2], g.bits))
            }
            CurveKernel::SmallLut {
                lut,
                side,
                dims,
                name,
            } => {
                check_point(name, *dims, *side, point);
                let mut off = 0u64;
                for &c in point.iter().rev() {
                    off = off * side + c;
                }
                lut[off as usize] as u128
            }
            CurveKernel::Dyn(c) => c.index(point),
        }
    }

    /// Map a batch of grid points to their curve indices:
    /// `index_batch(pts, out)` leaves `out[i] == index(&pts[i])` for every
    /// `i`, including the same panics (first offending point wins) when a
    /// point is out of range or the arity `D` does not match the curve.
    ///
    /// A plain loop over [`Self::index`], kept with this signature because
    /// the frozen `benchmark/` harness calls it (`benchmark/src/replay.rs`);
    /// nothing in the workspace does.
    ///
    /// # Panics
    ///
    /// Panics if `pts.len() != out.len()`, or exactly like [`Self::index`]
    /// on the first invalid point in `pts` order.
    pub fn index_batch<const D: usize>(&self, pts: &[[u64; D]], out: &mut [u128]) {
        assert_eq!(
            pts.len(),
            out.len(),
            "index_batch: {} points but {} output slots",
            pts.len(),
            out.len()
        );
        for (p, slot) in pts.iter().zip(out.iter_mut()) {
            *slot = self.index(p);
        }
    }

    /// Number of grid dimensions.
    pub fn dims(&self) -> u32 {
        match self {
            CurveKernel::Hilbert2(_) | CurveKernel::ZOrder2(_) | CurveKernel::Gray2(_) => 2,
            CurveKernel::Hilbert3(_) | CurveKernel::ZOrder3(_) | CurveKernel::Gray3(_) => 3,
            CurveKernel::SmallLut { dims, .. } => *dims,
            CurveKernel::Dyn(c) => c.dims(),
        }
    }

    /// Cells per dimension.
    pub fn side(&self) -> u64 {
        match self {
            CurveKernel::Hilbert2(g)
            | CurveKernel::Hilbert3(g)
            | CurveKernel::ZOrder2(g)
            | CurveKernel::ZOrder3(g)
            | CurveKernel::Gray2(g)
            | CurveKernel::Gray3(g) => g.side,
            CurveKernel::SmallLut { side, .. } => *side,
            CurveKernel::Dyn(c) => c.side(),
        }
    }

    /// Total number of cells, `side^dims`.
    pub fn cells(&self) -> u128 {
        let mut n: u128 = 1;
        for _ in 0..self.dims() {
            n = n.saturating_mul(self.side() as u128);
        }
        n
    }

    /// Curve name, matching `SpaceFillingCurve::name`.
    pub fn name(&self) -> &'static str {
        match self {
            CurveKernel::Hilbert2(_) | CurveKernel::Hilbert3(_) => "hilbert",
            CurveKernel::ZOrder2(_) | CurveKernel::ZOrder3(_) => "z-order",
            CurveKernel::Gray2(_) | CurveKernel::Gray3(_) => "gray",
            CurveKernel::SmallLut { name, .. } => name,
            CurveKernel::Dyn(c) => c.name(),
        }
    }
}

impl std::fmt::Debug for CurveKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CurveKernel::SmallLut {
                name, dims, side, ..
            } => write!(f, "CurveKernel::SmallLut({name}, {dims}d, side {side})"),
            CurveKernel::Dyn(c) => write!(f, "CurveKernel::Dyn({})", c.name()),
            fast => write!(
                f,
                "CurveKernel::{}{}(order {})",
                fast.name(),
                fast.dims(),
                fast.side().trailing_zeros()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_matches_its_catalogue_curve() {
        for kind in CurveKind::ALL {
            for dims in 1..=3u32 {
                for order in 1..=3u32 {
                    let kernel = CurveKernel::build(kind, dims, order).unwrap();
                    let curve = kind.build(dims, order).unwrap();
                    assert_eq!(kernel.dims(), curve.dims());
                    assert_eq!(kernel.side(), curve.side());
                    assert_eq!(kernel.cells(), curve.cells());
                    assert_eq!(kernel.name(), curve.name());
                    let side = curve.side();
                    let mut p = vec![0u64; dims as usize];
                    // Exhaustive odometer walk of the whole grid.
                    loop {
                        assert_eq!(
                            kernel.index(&p),
                            curve.index(&p),
                            "{kind} dims={dims} order={order} p={p:?}"
                        );
                        let mut j = dims as usize;
                        loop {
                            if j == 0 {
                                break;
                            }
                            j -= 1;
                            p[j] += 1;
                            if p[j] < side {
                                break;
                            }
                            p[j] = 0;
                        }
                        if p.iter().all(|&c| c == 0) {
                            break;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fast_variants_are_actually_selected() {
        assert!(matches!(
            CurveKernel::build(CurveKind::Hilbert, 2, 4).unwrap(),
            CurveKernel::Hilbert2(_)
        ));
        assert!(matches!(
            CurveKernel::build(CurveKind::Hilbert, 3, 2).unwrap(),
            CurveKernel::Hilbert3(_)
        ));
        // Order-1 Hilbert skips the automaton but is tiny enough for the
        // dense table.
        assert!(matches!(
            CurveKernel::build(CurveKind::Hilbert, 2, 1).unwrap(),
            CurveKernel::SmallLut { .. }
        ));
        assert!(matches!(
            CurveKernel::build(CurveKind::Gray, 2, 10).unwrap(),
            CurveKernel::Gray2(_)
        ));
        assert!(matches!(
            CurveKernel::build(CurveKind::ZOrder, 3, 5).unwrap(),
            CurveKernel::ZOrder3(_)
        ));
        // The paper-default stage-1 shape: Diagonal over 16^3 QoS levels.
        assert!(matches!(
            CurveKernel::build(CurveKind::Diagonal, 3, 4).unwrap(),
            CurveKernel::SmallLut { .. }
        ));
        // Too many cells for the table: back to the catalogue object.
        assert!(matches!(
            CurveKernel::build(CurveKind::Diagonal, 2, 10).unwrap(),
            CurveKernel::Dyn(_)
        ));
    }

    #[test]
    fn index_batch_matches_index() {
        let kernel = CurveKernel::build(CurveKind::Hilbert, 3, 4).unwrap();
        for n in [0usize, 1, 9] {
            let pts: Vec<[u64; 3]> = (0..n as u64)
                .map(|i| [i % 16, (i * 7) % 16, 15 - i])
                .collect();
            let mut out = vec![0u128; n];
            kernel.index_batch(&pts, &mut out);
            for (p, &v) in pts.iter().zip(&out) {
                assert_eq!(v, kernel.index(p), "p={p:?}");
            }
        }
        // An invalid point panics with `index`'s own message.
        let panic_text = |f: &dyn Fn()| {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_err();
            err.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        let bad = [[1u64, 2, 3], [16, 0, 0]];
        let batched = panic_text(&|| kernel.index_batch(&bad, &mut [0u128; 2]));
        assert!(batched.contains("out of range"), "{batched}");
        assert_eq!(
            batched,
            panic_text(&|| {
                kernel.index(&bad[1]);
            })
        );
        let arity = panic_text(&|| kernel.index_batch(&[[1u64, 2]], &mut [0u128; 1]));
        assert!(arity.contains("curve has 3 dims"), "{arity}");
        let length = panic_text(&|| kernel.index_batch(&bad, &mut [0u128; 1]));
        assert!(length.contains("output slots"), "{length}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn small_lut_panics_like_the_catalogue() {
        let kernel = CurveKernel::build(CurveKind::Diagonal, 3, 4).unwrap();
        kernel.index(&[16, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fast_path_panics_like_the_catalogue() {
        let kernel = CurveKernel::build(CurveKind::Hilbert, 2, 2).unwrap();
        kernel.index(&[4, 0]);
    }
}
