//! # sfc — space-filling curves for QoS scheduling
//!
//! A self-contained library of discrete space-filling curves (SFCs) over
//! `d`-dimensional grids, built as the substrate for the Cascaded-SFC
//! multimedia disk scheduler (Mokbel, Aref, Elbassioni, Kamel — ICDE 2004).
//!
//! An SFC assigns every cell of a finite grid a unique one-dimensional
//! *index* (its position along the curve), so the curve defines a total
//! order over multi-dimensional points. The scheduler exploits exactly this:
//! a disk request described by several QoS parameters becomes a grid point,
//! and the curve index becomes its scheduling priority.
//!
//! ## Curve catalogue
//!
//! The eight curves of the authors' catalogue (CIKM 2001; GeoInformatica
//! 2003) are provided, each in `n` dimensions where the construction
//! generalizes:
//!
//! | Curve | Order | Character |
//! |---|---|---|
//! | [`Sweep`] | lexicographic, dimension 0 most significant | favors dim 0 absolutely |
//! | [`CScan`] | lexicographic, last dimension most significant, fly-back | favors the last dim |
//! | [`Scan`] | boustrophedon (serpentine) | continuous, favors the last dim |
//! | [`Diagonal`] | by coordinate sum, serpentine within anti-diagonals | symmetric in all dims |
//! | [`Gray`] | reflected Gray code over interleaved bits | one interleaved bit flips per step |
//! | [`Hilbert`] | Hilbert curve (Skilling/Butz transform) | continuous, strong locality |
//! | [`Spiral`] | rings around the grid center, outward | favors mid-range values |
//! | [`Peano`] | radix-3 serpentine recursion | continuous, needs side `3^k` |
//! | [`ZOrder`] | Morton bit-interleave | cheapest mapping, long jumps |
//!
//! ## Quick example
//!
//! ```
//! use sfc::{CurveKind, SpaceFillingCurve};
//!
//! // A 2-D Hilbert curve on a 16x16 grid (4 bits per dimension).
//! let h = CurveKind::Hilbert.build(2, 4).unwrap();
//! let a = h.index(&[3, 5]);
//! let b = h.index(&[3, 6]);
//! assert_ne!(a, b);
//! assert!(a < h.cells());
//! ```
//!
//! All indices are `u128`; constructors reject configurations whose grids
//! exceed `2^128` cells. Curves are object-safe (`Box<dyn
//! SpaceFillingCurve>`), cheap to build for scheduling-sized grids, and
//! deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod curve;
mod diagonal;
mod fast;
mod gray;
mod hilbert;
mod kernels;
mod lexicographic;
mod peano;
pub mod quality;
mod spiral;
mod zorder;

pub use curve::{CurveKind, InvertibleCurve, SfcError, SpaceFillingCurve};
pub use diagonal::{Diagonal, WeightedDiagonal};
pub use fast::{CurveKernel, SMALL_LUT_MAX_CELLS};
pub use gray::Gray;
pub use hilbert::Hilbert;
pub use lexicographic::{CScan, Scan, Sweep};
pub use peano::Peano;
pub use spiral::Spiral;
pub use zorder::ZOrder;
