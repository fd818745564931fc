//! Property-based tests of the space-filling-curve invariants.
//!
//! Every curve must be a bijection between grid cells and `0..cells`;
//! invertible curves must round-trip; continuous curves must take unit
//! steps. The properties are exercised over randomly drawn curve shapes
//! and points.

use proptest::prelude::*;
use sfc::{quality, CurveKind, InvertibleCurve, SpaceFillingCurve};

/// Build a curve through its concrete constructor so the exact inverse
/// is available (`CurveKind::build` erases it to `SpaceFillingCurve`).
fn build_invertible(kind: CurveKind, dims: u32, order: u32) -> Box<dyn InvertibleCurve> {
    match kind {
        CurveKind::Sweep => Box::new(sfc::Sweep::new(dims, order).unwrap()),
        CurveKind::CScan => Box::new(sfc::CScan::new(dims, order).unwrap()),
        CurveKind::Scan => Box::new(sfc::Scan::new(dims, order).unwrap()),
        CurveKind::Gray => Box::new(sfc::Gray::new(dims, order).unwrap()),
        CurveKind::Hilbert => Box::new(sfc::Hilbert::new(dims, order).unwrap()),
        CurveKind::Spiral => Box::new(sfc::Spiral::new(dims, order).unwrap()),
        CurveKind::Diagonal => Box::new(sfc::Diagonal::new(dims, order).unwrap()),
        CurveKind::Peano => Box::new(sfc::Peano::new(dims, order).unwrap()),
        CurveKind::ZOrder => Box::new(sfc::ZOrder::new(dims, order).unwrap()),
    }
}

/// Strategy: a curve kind, dimensionality and order small enough to test
/// exhaustively.
fn small_shape() -> impl Strategy<Value = (CurveKind, u32, u32)> {
    (
        prop::sample::select(CurveKind::ALL.to_vec()),
        1u32..=3,
        1u32..=3,
    )
        .prop_filter("keep grids small", |(kind, dims, order)| {
            let side: u64 = if *kind == CurveKind::Peano {
                3u64.pow(*order)
            } else {
                1 << *order
            };
            side.pow(*dims) <= 4096
        })
}

/// Strategy: the shapes whose `index` runs on the LUT kernels, on either
/// side of the dense-table cutoff and up to the largest orders the
/// scheduler builds (dims * order capped at 62 bits so indices stay easy
/// to sample).
fn fast_shape() -> impl Strategy<Value = (CurveKind, u32, u32)> {
    (
        prop::sample::select(vec![CurveKind::Hilbert, CurveKind::ZOrder, CurveKind::Gray]),
        2u32..=3,
        1u32..=31,
    )
        .prop_filter("index must fit comfortably", |(_, dims, order)| {
            dims * order <= 62
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
        for kind in [CurveKind::Scan, CurveKind::Hilbert, CurveKind::Peano] {
            let order = if kind == CurveKind::Peano { order.min(2) } else { order };
            let curve = kind.build(dims, order).unwrap();
            if curve.cells() > 4096 {
                continue;
            }
            let rep = quality::continuity(curve.as_ref()).unwrap();
            prop_assert!(rep.is_continuous(), "{kind} dims={dims} order={order}: {rep:?}");
        }
    }

    #[test]
    fn hilbert_roundtrips(
        dims in 2u32..=4,
        order in 1u32..=3,
        seed in 0u64..1000,
    ) {
        let h = sfc::Hilbert::new(dims, order).unwrap();
        let idx = (seed as u128 * 2654435761) % h.cells();
        let mut p = vec![0u64; dims as usize];
        h.point(idx, &mut p);
        prop_assert_eq!(h.index(&p), idx);
    }

    #[test]
    fn gray_roundtrips(
        dims in 1u32..=4,
        order in 1u32..=4,
        seed in 0u64..1000,
    ) {
        let g = sfc::Gray::new(dims, order).unwrap();
        let idx = (seed as u128 * 2654435761) % g.cells();
        let mut p = vec![0u64; dims as usize];
        g.point(idx, &mut p);
        prop_assert_eq!(g.index(&p), idx);
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
    fn diagonal_roundtrips(
        dims in 1u32..=4,
        order in 1u32..=3,
        seed in 0u64..1000,
    ) {
        let d = sfc::Diagonal::new(dims, order).unwrap();
        let idx = (seed as u128 * 2654435761) % d.cells();
        let mut p = vec![0u64; dims as usize];
        d.point(idx, &mut p);
        prop_assert_eq!(d.index(&p), idx);
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
    fn every_curve_roundtrips((kind, dims, order) in small_shape(), seed in 0u64..1000) {
        // index ∘ point must be the identity for the whole catalogue,
        // not just the curves with bespoke tests above.
        let curve = build_invertible(kind, dims, order);
        let idx = (seed as u128 * 2654435761) % curve.cells();
        let mut p = vec![0u64; dims as usize];
        curve.point(idx, &mut p);
        prop_assert_eq!(curve.index(&p), idx, "{} dims={} order={}", kind, dims, order);

        // And point itself must invert index on an arbitrary grid point.
        let side = curve.side();
        let raw: Vec<u64> = (0..dims as u64).map(|i| (seed.wrapping_mul(31).wrapping_add(i * 7)) % side).collect();
        let mut back = vec![0u64; dims as usize];
        curve.point(curve.index(&raw), &mut back);
        prop_assert_eq!(back, raw, "{} dims={} order={}", kind, dims, order);
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
        let continuous = matches!(kind, CurveKind::Scan | CurveKind::Hilbert | CurveKind::Peano);
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
    fn fast_kernels_match_dyn_on_full_domain_roundtrips(
        (kind, dims, order) in fast_shape(),
        seed in 0u64..u64::MAX,
    ) {
        // The kernel handle — a dense table below the cutoff, the
        // catalogue's LUT-kernel `index` above it — must agree with the
        // generic catalogue curve over the *whole* domain, not just the
        // small grids the exhaustive unit tests walk: draw a curve index
        // from the full range, invert it through the generic point(), and
        // map back through the kernel.
        let kernel = sfc::CurveKernel::build(kind, dims, order).unwrap();
        let curve = build_invertible(kind, dims, order);
        let idx = (seed as u128).wrapping_mul(0x9e37_79b9_7f4a_7c15) % curve.cells();
        let mut p = vec![0u64; dims as usize];
        curve.point(idx, &mut p);
        prop_assert_eq!(kernel.index(&p), idx, "{} dims={} order={} p={:?}", kind, dims, order, p);
        // And on an arbitrary grid point the kernel equals the dyn path.
        let side = kernel.side();
        let q: Vec<u64> = (0..dims as u64)
            .map(|i| seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(i.wrapping_mul(1442695040888963407))
                % side)
            .collect();
        prop_assert_eq!(kernel.index(&q), curve.index(&q),
            "{} dims={} order={} q={:?}", kind, dims, order, q);
    }

    #[test]
    fn peano_roundtrips(
        dims in 1u32..=3,
        order in 1u32..=2,
        seed in 0u64..1000,
    ) {
        // Radix-3: side 3^order, so the bit-twiddling shortcuts of the
        // power-of-two curves don't apply.
        let p = sfc::Peano::new(dims, order).unwrap();
        prop_assert_eq!(p.side(), 3u64.pow(order));
        let idx = (seed as u128 * 2654435761) % p.cells();
        let mut point = vec![0u64; dims as usize];
        p.point(idx, &mut point);
        prop_assert_eq!(p.index(&point), idx);
    }

    #[test]
    fn spiral_roundtrips(
        dims in 2u32..=3,
        order in 1u32..=3,
        seed in 0u64..1000,
    ) {
        let s = sfc::Spiral::new(dims, order).unwrap();
        let idx = (seed as u128 * 2654435761) % s.cells();
        let mut point = vec![0u64; dims as usize];
        s.point(idx, &mut point);
        prop_assert_eq!(s.index(&point), idx);
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
