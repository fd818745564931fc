//! Property-based tests of the space-filling-curve invariants.
//!
//! Every curve must be a bijection between grid cells and `0..cells`;
//! continuous curves must take unit steps. The properties are exercised
//! over randomly drawn curve shapes and points.

use proptest::prelude::*;
use sfc::{quality, CurveKind, SpaceFillingCurve};

/// Strategy: a curve kind, dimensionality and order small enough to test
/// exhaustively.
fn small_shape() -> impl Strategy<Value = (CurveKind, u32, u32)> {
    (
        prop::sample::select(CurveKind::ALL.to_vec()),
        1u32..=3,
        1u32..=3,
    )
        .prop_filter("keep grids small", |(_, dims, order)| {
            (1u64 << *order).pow(*dims) <= 4096
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn curves_are_bijective((kind, dims, order) in small_shape()) {
        let curve = kind.build(dims, order).unwrap();
        prop_assert!(quality::is_bijective(curve.as_ref()).unwrap(),
            "{kind} dims={dims} order={order}");
    }

    #[test]
    fn index_is_in_range(
        (kind, dims, order) in small_shape(),
        raw in prop::collection::vec(0u64..4096, 1..=3),
    ) {
        let curve = kind.build(dims, order).unwrap();
        let side = curve.side();
        let point: Vec<u64> = (0..dims as usize)
            .map(|i| raw.get(i).copied().unwrap_or(0) % side)
            .collect();
        let idx = curve.index(&point);
        prop_assert!(idx < curve.cells());
    }

    #[test]
    fn distinct_points_distinct_indices(
        (kind, dims, order) in small_shape(),
        a in prop::collection::vec(0u64..4096, 3),
        b in prop::collection::vec(0u64..4096, 3),
    ) {
        let curve = kind.build(dims, order).unwrap();
        let side = curve.side();
        let pa: Vec<u64> = (0..dims as usize).map(|i| a[i] % side).collect();
        let pb: Vec<u64> = (0..dims as usize).map(|i| b[i] % side).collect();
        if pa != pb {
            prop_assert_ne!(curve.index(&pa), curve.index(&pb));
        } else {
            prop_assert_eq!(curve.index(&pa), curve.index(&pb));
        }
    }

    #[test]
    fn continuous_curves_take_unit_steps((dims, order) in (2u32..=3, 1u32..=3)) {
        for kind in [CurveKind::Scan, CurveKind::Hilbert] {
            let curve = kind.build(dims, order).unwrap();
            let walk = quality::walk(curve.as_ref()).unwrap();
            for pair in walk.windows(2) {
                let jump: u64 = pair[0].iter().zip(&pair[1]).map(|(a, b)| a.abs_diff(*b)).sum();
                prop_assert_eq!(jump, 1, "{} dims={} order={}: {:?} -> {:?}",
                    kind, dims, order, pair[0], pair[1]);
            }
        }
    }

    #[test]
    fn diagonal_is_sum_monotone(
        dims in 1u32..=3,
        order in 1u32..=4,
        a in prop::collection::vec(0u64..4096, 3),
        b in prop::collection::vec(0u64..4096, 3),
    ) {
        let d = sfc::Diagonal::new(dims, order).unwrap();
        let side = d.side();
        let pa: Vec<u64> = (0..dims as usize).map(|i| a[i] % side).collect();
        let pb: Vec<u64> = (0..dims as usize).map(|i| b[i] % side).collect();
        let sa: u64 = pa.iter().sum();
        let sb: u64 = pb.iter().sum();
        if sa < sb {
            prop_assert!(d.index(&pa) < d.index(&pb));
        }
    }

    #[test]
    fn spiral_is_ring_monotone(
        order in 1u32..=4,
        a in prop::collection::vec(0u64..4096, 2),
        b in prop::collection::vec(0u64..4096, 2),
    ) {
        let s = sfc::Spiral::new(2, order).unwrap();
        let side = s.side();
        let pa = [a[0] % side, a[1] % side];
        let pb = [b[0] % side, b[1] % side];
        let ring = |p: &[u64; 2]| -> u64 {
            let c_hi = side / 2;
            let c_lo = c_hi - 1;
            p.iter()
                .map(|&c| {
                    if c < c_lo { c_lo - c } else { c.saturating_sub(c_hi) }
                })
                .max()
                .unwrap()
        };
        if ring(&pa) < ring(&pb) {
            prop_assert!(s.index(&pa) < s.index(&pb));
        }
    }

    #[test]
    fn weighted_diagonal_matches_float_order(
        f in 0.0f64..64.0,
        x1 in 0u64..1024,
        y1 in 0u64..1024,
        x2 in 0u64..1024,
        y2 in 0u64..1024,
    ) {
        let w = sfc::WeightedDiagonal::new(f);
        let exact1 = x1 as f64 + f * y1 as f64;
        let exact2 = x2 as f64 + f * y2 as f64;
        // Strict float order must be preserved (up to fixed-point epsilon).
        if exact1 + 1e-6 < exact2 {
            prop_assert!(w.value(x1, y1) < w.value(x2, y2),
                "f={f}: ({x1},{y1}) vs ({x2},{y2})");
        }
    }

    #[test]
    fn walk_covers_grid_within_jump_bounds((kind, dims, order) in small_shape()) {
        // quality::walk must enumerate every cell exactly once, and each
        // consecutive step's Manhattan jump must stay within the largest
        // move the grid geometry allows.
        let curve = kind.build(dims, order).unwrap();
        let walk = quality::walk(curve.as_ref()).unwrap();
        prop_assert_eq!(walk.len() as u128, curve.cells());
        let mut seen: Vec<&Vec<u64>> = walk.iter().collect();
        seen.sort();
        seen.dedup();
        prop_assert_eq!(seen.len() as u128, curve.cells(), "{} revisits a cell", kind);

        let side = curve.side();
        let max_jump = dims as u64 * (side - 1);
        let continuous = matches!(kind, CurveKind::Scan | CurveKind::Hilbert);
        for pair in walk.windows(2) {
            let jump: u64 = pair[0].iter().zip(&pair[1]).map(|(a, b)| a.abs_diff(*b)).sum();
            prop_assert!(jump >= 1 && jump <= max_jump.max(1),
                "{kind}: jump {jump} outside 1..={max_jump}");
            if continuous {
                prop_assert_eq!(jump, 1, "{} must take unit steps", kind);
            }
        }
    }

    #[test]
    fn lexicographic_transpose_duality(
        order in 1u32..=4,
        x in 0u64..4096,
        y in 0u64..4096,
    ) {
        // Sweep(x,y) == CScan(y,x): the two curves are transposes.
        let sweep = sfc::Sweep::new(2, order).unwrap();
        let cscan = sfc::CScan::new(2, order).unwrap();
        let side = sweep.side();
        let (x, y) = (x % side, y % side);
        prop_assert_eq!(sweep.index(&[x, y]), cscan.index(&[y, x]));
    }
}
