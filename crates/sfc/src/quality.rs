//! Curve-quality analysis.
//!
//! One of the paper's arguments for SFC-based scheduling is that the
//! quality of the generated schedules can be *analyzed* instead of
//! guessed: a curve's per-dimension order bias translates directly into
//! the priority inversion it schedules with (Figure 5's geometric ranking
//! reads [`dimension_bias`]). [`walk`] and [`is_bijective`] enumerate a
//! small grid exhaustively; the curve tests build their continuity and
//! golden-order checks on them.

use crate::curve::SpaceFillingCurve;

/// Hard cap on the number of cells `walk`-based analyses will enumerate.
pub const MAX_ANALYZED_CELLS: u128 = 1 << 22;

/// Error returned when a grid is too large to analyze exhaustively.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridTooLarge {
    /// Number of cells in the offending grid.
    pub cells: u128,
}

impl std::fmt::Display for GridTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "grid with {} cells exceeds the exhaustive-analysis cap of {}",
            self.cells, MAX_ANALYZED_CELLS
        )
    }
}

impl std::error::Error for GridTooLarge {}

/// Walk every cell of the curve's grid in curve order.
///
/// Enumerates all grid points, computes their indices, and sorts:
/// `O(N log N)` in the number of cells.
pub fn walk(curve: &dyn SpaceFillingCurve) -> Result<Vec<Vec<u64>>, GridTooLarge> {
    let cells = curve.cells();
    if cells > MAX_ANALYZED_CELLS {
        return Err(GridTooLarge { cells });
    }
    let d = curve.dims() as usize;
    let side = curve.side();
    // Tag each cell with its odometer ordinal (last dimension fastest) and
    // materialize points only after the sort: the pre-sort pass stays
    // allocation-free instead of cloning every point.
    let mut order: Vec<(u128, u64)> = Vec::with_capacity(cells as usize);
    let mut p = vec![0u64; d];
    let mut ordinal = 0u64;
    loop {
        order.push((curve.index(&p), ordinal));
        ordinal += 1;
        // Odometer increment.
        let mut j = d;
        loop {
            if j == 0 {
                return finish(order, cells, d, side);
            }
            j -= 1;
            p[j] += 1;
            if p[j] < side {
                break;
            }
            p[j] = 0;
        }
    }

    fn finish(
        mut order: Vec<(u128, u64)>,
        cells: u128,
        d: usize,
        side: u64,
    ) -> Result<Vec<Vec<u64>>, GridTooLarge> {
        order.sort_unstable_by_key(|(i, _)| *i);
        debug_assert_eq!(order.len() as u128, cells);
        Ok(order
            .into_iter()
            .map(|(_, ordinal)| {
                let mut p = vec![0u64; d];
                let mut o = ordinal;
                for c in p.iter_mut().rev() {
                    *c = o % side;
                    o /= side;
                }
                p
            })
            .collect())
    }
}

/// Check that the curve assigns every cell of its grid a distinct index in
/// `0..cells()` — i.e. that it really is a space-filling bijection.
pub fn is_bijective(curve: &dyn SpaceFillingCurve) -> Result<bool, GridTooLarge> {
    let cells = curve.cells();
    if cells > MAX_ANALYZED_CELLS {
        return Err(GridTooLarge { cells });
    }
    let d = curve.dims() as usize;
    let side = curve.side();
    let mut seen = vec![false; cells as usize];
    let mut p = vec![0u64; d];
    loop {
        let i = curve.index(&p);
        if i >= cells || seen[i as usize] {
            return Ok(false);
        }
        seen[i as usize] = true;
        let mut j = d;
        loop {
            if j == 0 {
                return Ok(true);
            }
            j -= 1;
            p[j] += 1;
            if p[j] < side {
                break;
            }
            p[j] = 0;
        }
    }
}

/// Per-dimension order bias of a curve.
///
/// For each dimension `k`, counts over all *ordered pairs* of cells `(a,
/// b)` with `index(a) < index(b)` how often `a` beats `b` in dimension `k`
/// (`a_k < b_k`) versus loses (`a_k > b_k`). A curve that never loses in a
/// dimension schedules that dimension with zero priority inversion — the
/// property the paper exploits when one QoS parameter must dominate.
///
/// Sampling keeps this tractable: `pairs` random pairs are drawn from a
/// deterministic LCG.
#[derive(Debug, Clone, PartialEq)]
pub struct BiasReport {
    /// For each dimension: fraction of sampled ordered pairs where the
    /// earlier-on-curve cell has the *larger* coordinate ("inversions").
    pub inversion_rate: Vec<f64>,
}

/// Estimate per-dimension inversion rates by sampling `pairs` cell pairs.
pub fn dimension_bias(curve: &dyn SpaceFillingCurve, pairs: u32) -> BiasReport {
    let d = curve.dims() as usize;
    let side = curve.side();
    let mut inv = vec![0u64; d];
    let mut tot = vec![0u64; d];
    // SplitMix64 for deterministic sampling without external dependencies.
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut a = vec![0u64; d];
    let mut b = vec![0u64; d];
    for _ in 0..pairs {
        for j in 0..d {
            a[j] = next() % side;
            b[j] = next() % side;
        }
        let (first, second) = if curve.index(&a) <= curve.index(&b) {
            (&a, &b)
        } else {
            (&b, &a)
        };
        for j in 0..d {
            if first[j] != second[j] {
                tot[j] += 1;
                if first[j] > second[j] {
                    inv[j] += 1;
                }
            }
        }
    }
    BiasReport {
        inversion_rate: inv
            .iter()
            .zip(&tot)
            .map(|(&i, &t)| if t == 0 { 0.0 } else { i as f64 / t as f64 })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CurveKind;

    #[test]
    fn all_catalogue_curves_are_bijective() {
        for k in CurveKind::ALL {
            for (dims, order) in [(1u32, 2u32), (2, 2), (3, 2), (4, 2), (2, 4)] {
                let c = k.build(dims, order).unwrap();
                assert!(
                    is_bijective(c.as_ref()).unwrap(),
                    "{k} dims={dims} order={order} is not bijective"
                );
            }
        }
    }

    /// The Manhattan length of every step of the curve's walk.
    fn jumps(kind: CurveKind, order: u32) -> Vec<u64> {
        let c = kind.build(2, order).unwrap();
        let cells = walk(c.as_ref()).unwrap();
        cells
            .windows(2)
            .map(|w| w[0].iter().zip(&w[1]).map(|(&a, &b)| a.abs_diff(b)).sum())
            .collect()
    }

    #[test]
    fn continuous_curves() {
        for k in [CurveKind::Scan, CurveKind::Hilbert] {
            let steps = jumps(k, 2);
            assert!(
                steps.iter().all(|&d| d == 1),
                "{k} should be continuous: {steps:?}"
            );
        }
        assert!(jumps(CurveKind::Spiral, 3).iter().all(|&d| d == 1));
    }

    #[test]
    fn discontinuous_curves_have_jumps() {
        for k in [CurveKind::Sweep, CurveKind::CScan, CurveKind::Gray] {
            let max_jump = jumps(k, 3).into_iter().max().unwrap();
            assert!(max_jump > 1, "{k} is unexpectedly continuous");
        }
    }

    #[test]
    fn sweep_never_inverts_dimension_zero() {
        let c = CurveKind::Sweep.build(3, 3).unwrap();
        let bias = dimension_bias(c.as_ref(), 2000);
        assert_eq!(bias.inversion_rate[0], 0.0);
        assert!(bias.inversion_rate[1] > 0.1);
    }

    #[test]
    fn cscan_never_inverts_last_dimension() {
        let c = CurveKind::CScan.build(3, 3).unwrap();
        let bias = dimension_bias(c.as_ref(), 2000);
        assert_eq!(bias.inversion_rate[2], 0.0);
        assert!(bias.inversion_rate[0] > 0.1);
    }

    #[test]
    fn diagonal_is_symmetric() {
        let c = CurveKind::Diagonal.build(3, 3).unwrap();
        let bias = dimension_bias(c.as_ref(), 4000);
        let mean: f64 = bias.inversion_rate.iter().sum::<f64>() / 3.0;
        for r in &bias.inversion_rate {
            assert!(
                (r - mean).abs() < 0.05,
                "diagonal bias uneven: {:?}",
                bias.inversion_rate
            );
        }
    }

    #[test]
    fn too_large_grid_is_rejected() {
        let c = CurveKind::Hilbert.build(2, 20).unwrap();
        assert!(walk(c.as_ref()).is_err());
        assert!(is_bijective(c.as_ref()).is_err());
    }
}
