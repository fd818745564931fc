//! Table-driven curve dispatch for the scheduler hot path.
//!
//! The encapsulator indexes its stage curves once per request.
//! [`CurveKernel`] resolves the curve *shape* once at construction: a
//! grid of at most [`SMALL_LUT_MAX_CELLS`] cells — every shape the
//! scheduler's stage 1 builds — is flattened into a dense rank table, one
//! load per request whatever the curve family; anything larger stays the
//! boxed catalogue object (whose 2-D/3-D Hilbert, Z-order and Gray
//! `index` already run on the LUT kernels of [`crate::kernels`]).
//! `CurveKernel::index` is bit-identical to the catalogue curve it
//! replaces — same value, same out-of-range panics (pinned by
//! `tests/props.rs`).

use crate::curve::{check_point, CurveKind, SfcError, SpaceFillingCurve};

/// A curve handle resolved at construction: a dense rank table for small
/// grids, `Box<dyn SpaceFillingCurve>` otherwise.
pub enum CurveKernel {
    /// Dense rank table for a small grid (at most [`SMALL_LUT_MAX_CELLS`]
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
    /// Any larger grid: the dimension-generic catalogue object.
    Dyn(Box<dyn SpaceFillingCurve>),
}

/// Largest grid (in cells) that [`CurveKernel::build`] will flatten into a
/// dense `SmallLut` table. 4096 cells = 8 KiB of `u16` ranks — covers the
/// paper-default stage-1 grid (16^3) while keeping construction cost and
/// cache footprint negligible.
pub const SMALL_LUT_MAX_CELLS: u128 = 1 << 12;

impl CurveKernel {
    /// Build the kernel for `kind` over `dims` dimensions at the given
    /// order. Error cases are those of [`CurveKind::build`].
    pub fn build(kind: CurveKind, dims: u32, order: u32) -> Result<CurveKernel, SfcError> {
        let curve = kind.build(dims, order)?;
        Ok(if curve.cells() <= SMALL_LUT_MAX_CELLS {
            Self::small_lut(curve)
        } else {
            CurveKernel::Dyn(curve)
        })
    }

    /// Flatten a small catalogue curve into a dense rank table.
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
            CurveKernel::SmallLut { dims, .. } => *dims,
            CurveKernel::Dyn(c) => c.dims(),
        }
    }

    /// Cells per dimension.
    pub fn side(&self) -> u64 {
        match self {
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
        // The paper-default stage-1 shape: Diagonal over 16^3 QoS levels.
        assert!(matches!(
            CurveKernel::build(CurveKind::Diagonal, 3, 4).unwrap(),
            CurveKernel::SmallLut { .. }
        ));
        // The table is chosen by size, not family: exactly 4096 cells
        // still fits, for the curves with LUT kernels of their own too.
        assert!(matches!(
            CurveKernel::build(CurveKind::Hilbert, 2, 6).unwrap(),
            CurveKernel::SmallLut { .. }
        ));
        assert!(matches!(
            CurveKernel::build(CurveKind::ZOrder, 3, 4).unwrap(),
            CurveKernel::SmallLut { .. }
        ));
        // Too many cells for the table: back to the catalogue object.
        assert!(matches!(
            CurveKernel::build(CurveKind::Diagonal, 2, 10).unwrap(),
            CurveKernel::Dyn(_)
        ));
        assert!(matches!(
            CurveKernel::build(CurveKind::Gray, 2, 7).unwrap(),
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
