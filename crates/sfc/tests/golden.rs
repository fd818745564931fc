//! Golden tests: the exact cell orders of every catalogue curve on small
//! grids, written out by hand. These pin the curve *conventions*
//! (dimension significance, serpentine direction, spiral start corner) so
//! a refactor cannot silently rotate or mirror a curve — which would
//! silently change every scheduling experiment downstream.

use sfc::{quality, CurveKind};

/// Walk a 2-D curve and return the visit order as (x, y) pairs.
fn walk2(kind: CurveKind, order: u32) -> Vec<(u64, u64)> {
    let c = kind.build(2, order).unwrap();
    let cells = quality::walk(c.as_ref()).unwrap();
    cells.into_iter().map(|p| (p[0], p[1])).collect()
}

#[test]
fn sweep_4x4() {
    // Vertical strokes: x major, y ascending.
    let expected: Vec<(u64, u64)> = (0..4).flat_map(|x| (0..4).map(move |y| (x, y))).collect();
    assert_eq!(walk2(CurveKind::Sweep, 2), expected);
}

#[test]
fn cscan_4x4() {
    // Horizontal rows with fly-back: y major, x ascending.
    let expected: Vec<(u64, u64)> = (0..4).flat_map(|y| (0..4).map(move |x| (x, y))).collect();
    assert_eq!(walk2(CurveKind::CScan, 2), expected);
}

#[test]
fn scan_4x4() {
    // Serpentine rows: y major, x alternating.
    let expected: Vec<(u64, u64)> = vec![
        (0, 0),
        (1, 0),
        (2, 0),
        (3, 0),
        (3, 1),
        (2, 1),
        (1, 1),
        (0, 1),
        (0, 2),
        (1, 2),
        (2, 2),
        (3, 2),
        (3, 3),
        (2, 3),
        (1, 3),
        (0, 3),
    ];
    assert_eq!(walk2(CurveKind::Scan, 2), expected);
}

#[test]
fn diagonal_4x4() {
    // Anti-diagonals by coordinate sum; lexicographic within even sums,
    // reversed within odd sums (the zigzag).
    let expected: Vec<(u64, u64)> = vec![
        (0, 0), // s=0
        (1, 0),
        (0, 1), // s=1 (reversed)
        (0, 2),
        (1, 1),
        (2, 0), // s=2
        (3, 0),
        (2, 1),
        (1, 2),
        (0, 3), // s=3 (reversed)
        (1, 3),
        (2, 2),
        (3, 1), // s=4
        (3, 2),
        (2, 3), // s=5 (reversed)
        (3, 3), // s=6
    ];
    assert_eq!(walk2(CurveKind::Diagonal, 2), expected);
}

#[test]
fn gray_4x4_first_quadrant() {
    // The Gray curve's first four cells walk the low quadrant's Gray
    // cycle: (0,0),(0,1),(1,1),(1,0).
    let w = walk2(CurveKind::Gray, 2);
    assert_eq!(&w[..4], &[(0, 0), (0, 1), (1, 1), (1, 0)]);
    // ...and the walk ends in the x-high, y-low quadrant.
    assert!(w[15].0 >= 2 && w[15].1 < 2, "ends at {:?}", w[15]);
}

#[test]
fn hilbert_4x4() {
    // The canonical order-2 Hilbert walk produced by the Skilling
    // transform with our interleave convention.
    let w = walk2(CurveKind::Hilbert, 2);
    assert_eq!(w[0], (0, 0));
    assert_eq!(w[15], (3, 0), "Hilbert ends at the opposite corner of x");
    // Every step is a unit step (continuity pinned elsewhere, but the
    // golden shape matters here too).
    for pair in w.windows(2) {
        let d = pair[0].0.abs_diff(pair[1].0) + pair[0].1.abs_diff(pair[1].1);
        assert_eq!(d, 1);
    }
}

#[test]
fn spiral_4x4() {
    // Core block loop then one perimeter ring, exactly as documented.
    let expected: Vec<(u64, u64)> = vec![
        (1, 1),
        (1, 2),
        (2, 2),
        (2, 1), // core loop
        (3, 1),
        (3, 2),
        (3, 3), // right edge up
        (2, 3),
        (1, 3),
        (0, 3), // top leftward
        (0, 2),
        (0, 1),
        (0, 0), // left edge down
        (1, 0),
        (2, 0),
        (3, 0), // bottom rightward
    ];
    assert_eq!(walk2(CurveKind::Spiral, 2), expected);
}

#[test]
fn all_walks_are_permutations() {
    for kind in CurveKind::ALL {
        let c = kind.build(2, 2).unwrap();
        let side = c.side();
        let mut seen = vec![false; (side * side) as usize];
        for x in 0..side {
            for y in 0..side {
                let i = c.index(&[x, y]) as usize;
                assert!(!seen[i], "{kind}: duplicate index {i}");
                seen[i] = true;
            }
        }
    }
}
