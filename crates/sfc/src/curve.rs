//! Core trait and constructor plumbing shared by every curve.

use std::fmt;

/// Errors reported by curve constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SfcError {
    /// `dims` was zero.
    ZeroDims,
    /// `order` (bits per dimension) was zero.
    ZeroOrder,
    /// The requested grid has more than `2^128` cells and indices would not
    /// fit in `u128`.
    TooLarge {
        /// Number of dimensions requested.
        dims: u32,
        /// Order (bits per dimension).
        order: u32,
    },
}

impl fmt::Display for SfcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SfcError::ZeroDims => write!(f, "a space-filling curve needs at least one dimension"),
            SfcError::ZeroOrder => write!(f, "a space-filling curve needs order >= 1"),
            SfcError::TooLarge { dims, order } => write!(
                f,
                "grid with {dims} dims of order {order} exceeds 2^128 cells"
            ),
        }
    }
}

impl std::error::Error for SfcError {}

/// A discrete space-filling curve: a bijection between the cells of a finite
/// `dims()`-dimensional grid and the range `0..cells()`.
///
/// The grid is a hyper-cube with `side()` cells per dimension. Implementors
/// must be deterministic and must assign each cell a *unique* index — the
/// property-based test-suite checks bijectivity exhaustively on small grids.
pub trait SpaceFillingCurve: Send + Sync {
    /// Human-readable curve name (e.g. `"hilbert"`).
    fn name(&self) -> &'static str;

    /// Number of grid dimensions.
    fn dims(&self) -> u32;

    /// Cells per dimension (the side length of the grid hyper-cube).
    fn side(&self) -> u64;

    /// Total number of cells, `side()^dims()`.
    fn cells(&self) -> u128 {
        let mut n: u128 = 1;
        for _ in 0..self.dims() {
            n = n.saturating_mul(self.side() as u128);
        }
        n
    }

    /// Map a grid point to its position along the curve.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != dims()` or any coordinate is `>= side()`.
    /// Scheduling code quantizes coordinates before calling this, so an
    /// out-of-range coordinate is a logic error, not an input error.
    fn index(&self, point: &[u64]) -> u128;
}

/// Validate the common `(dims, order)` constructor arguments for a radix-2
/// grid (side `2^order`). Returns the side length.
pub(crate) fn check_radix2(dims: u32, bits: u32) -> Result<u64, SfcError> {
    if dims == 0 {
        return Err(SfcError::ZeroDims);
    }
    if bits == 0 {
        return Err(SfcError::ZeroOrder);
    }
    // `side` must fit in u64 (bits <= 63) and the index in u128.
    if bits > 63 || (dims as u64) * (bits as u64) > 128 {
        return Err(SfcError::TooLarge { dims, order: bits });
    }
    Ok(1u64 << bits)
}

/// Assert a point is inside the grid; used by every `index()` implementation.
#[inline]
pub(crate) fn check_point(name: &str, dims: u32, side: u64, point: &[u64]) {
    assert_eq!(
        point.len(),
        dims as usize,
        "{name}: point has {} coordinates, curve has {dims} dims",
        point.len()
    );
    for (i, &c) in point.iter().enumerate() {
        assert!(
            c < side,
            "{name}: coordinate {i} = {c} out of range (side = {side})"
        );
    }
}

/// The curve families of the paper's Figure 1, as a runtime-selectable enum.
///
/// `CurveKind` is the configuration surface of the scheduler: the
/// Cascaded-SFC encapsulator is parameterized by one `CurveKind` per stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CurveKind {
    /// Lexicographic order, dimension 0 most significant.
    Sweep,
    /// Boustrophedon (serpentine) order, last dimension most significant.
    Scan,
    /// Fly-back scan: lexicographic with the *last* dimension most
    /// significant — the shape of the disk C-SCAN policy.
    CScan,
    /// Order by coordinate sum (anti-diagonals).
    Diagonal,
    /// Reflected Gray-code order over bit-interleaved coordinates.
    Gray,
    /// Hilbert curve.
    Hilbert,
    /// Outward spiral around the grid center.
    Spiral,
}

impl CurveKind {
    /// The whole catalogue: the seven curves of the paper's Figure 1, in
    /// its order. Figures 5–7 plot one series per member.
    pub const ALL: [CurveKind; 7] = [
        CurveKind::Sweep,
        CurveKind::CScan,
        CurveKind::Scan,
        CurveKind::Gray,
        CurveKind::Hilbert,
        CurveKind::Spiral,
        CurveKind::Diagonal,
    ];

    /// Stable lowercase name (matches `SpaceFillingCurve::name`).
    pub fn name(self) -> &'static str {
        match self {
            CurveKind::Sweep => "sweep",
            CurveKind::Scan => "scan",
            CurveKind::CScan => "c-scan",
            CurveKind::Diagonal => "diagonal",
            CurveKind::Gray => "gray",
            CurveKind::Hilbert => "hilbert",
            CurveKind::Spiral => "spiral",
        }
    }

    /// Construct the curve over `dims` dimensions with `order` bits per
    /// dimension: the grid side is `2^order`.
    pub fn build(self, dims: u32, order: u32) -> Result<Box<dyn SpaceFillingCurve>, SfcError> {
        Ok(match self {
            CurveKind::Sweep => Box::new(crate::Sweep::new(dims, order)?),
            CurveKind::Scan => Box::new(crate::Scan::new(dims, order)?),
            CurveKind::CScan => Box::new(crate::CScan::new(dims, order)?),
            CurveKind::Diagonal => Box::new(crate::Diagonal::new(dims, order)?),
            CurveKind::Gray => Box::new(crate::Gray::new(dims, order)?),
            CurveKind::Hilbert => Box::new(crate::Hilbert::new(dims, order)?),
            CurveKind::Spiral => Box::new(crate::Spiral::new(dims, order)?),
        })
    }
}

impl fmt::Display for CurveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radix2_validation() {
        assert_eq!(check_radix2(2, 4), Ok(16));
        assert_eq!(check_radix2(0, 4), Err(SfcError::ZeroDims));
        assert_eq!(check_radix2(2, 0), Err(SfcError::ZeroOrder));
        assert!(matches!(
            check_radix2(3, 64),
            Err(SfcError::TooLarge { .. })
        ));
        // 63 bits per dimension is the largest representable side.
        assert_eq!(check_radix2(2, 63), Ok(1u64 << 63));
        assert!(matches!(
            check_radix2(2, 64),
            Err(SfcError::TooLarge { .. })
        ));
    }

    #[test]
    fn build_all_small() {
        for k in CurveKind::ALL {
            let c = k.build(2, 2).unwrap();
            assert_eq!(c.dims(), 2);
            assert!(c.cells() >= 16);
            assert_eq!(c.name(), k.name());
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(CurveKind::Hilbert.to_string(), "hilbert");
    }
}
