//! Golden tests: the exact cell orders of every catalogue curve on small
//! grids, written out by hand, and Hilbert indices at deep orders. These
//! pin the curve *conventions* (dimension significance, serpentine
//! direction, spiral start corner) so a refactor cannot silently rotate or
//! mirror a curve — which would silently change every scheduling
//! experiment downstream.

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

#[test]
fn hilbert_deep_orders() {
    // Indices of sample points at orders far beyond any walkable grid,
    // recorded when two independent implementations (the Skilling
    // transform and a Butz-style state-table automaton) both returned
    // them. The points are SplitMix64 draws.
    let h2 = |bits| CurveKind::Hilbert.build(2, bits).unwrap();
    let cases2: [(u32, [u64; 2], u128); 16] = [
        (7, [116, 79], 12133),
        (7, [108, 27], 15797),
        (7, [106, 97], 10317),
        (7, [60, 67], 8181),
        (16, [31626, 51029], 1875956599),
        (16, [3602, 23307], 1000057289),
        (16, [10385, 17347], 913251078),
        (16, [37934, 45218], 2360363256),
        (31, [508845873, 417876343], 197251812799855126),
        (31, [1892632127, 1617357219], 3146578432624517456),
        (31, [954194599, 1419619299], 2049299098810529818),
        (31, [1815787669, 2016713968], 3006892577173585467),
        (
            63,
            [8686417438580215742, 8742203558255171943],
            56501802925867603919296511174394672065,
        ),
        (
            63,
            [3152622242298838196, 5200825501676916912],
            40070827462350827866766934319387675152,
        ),
        (
            63,
            [8230913408755088203, 4099264889087263854],
            64368767982999564489828775124121519673,
        ),
        (
            63,
            [6942527546943719866, 1016676586749368179],
            81075609803503159652830337537976597065,
        ),
    ];
    for (bits, p, want) in cases2 {
        assert_eq!(h2(bits).index(&p), want, "2-D bits={bits} p={p:?}");
    }
    let h3 = |bits| CurveKind::Hilbert.build(3, bits).unwrap();
    let cases3: [(u32, [u64; 3], u128); 12] = [
        (5, [6, 16, 5], 15629),
        (5, [30, 16, 29], 23995),
        (5, [23, 24, 25], 22012),
        (5, [21, 23, 20], 20814),
        (21, [1807020, 915441, 66713], 8960831342756849908),
        (21, [1292172, 1221309, 1640236], 5915005705896097603),
        (21, [778792, 1144206, 1842265], 3277559803834374141),
        (21, [492480, 304796, 54357], 120821970740341653),
        (
            42,
            [2439761327257, 2561077423548, 458893036499],
            42665363049457502557254530981604866140,
        ),
        (
            42,
            [1222573229453, 1315429800127, 2351949130603],
            15957274599759844202884543409018525477,
        ),
        (
            42,
            [700306303317, 2549728852359, 2965334081037],
            22082933630204772945904085786348035917,
        ),
        (
            42,
            [3119224057688, 4165444200913, 740694366199],
            47082149402268567060874734141344956266,
        ),
    ];
    for (bits, p, want) in cases3 {
        assert_eq!(h3(bits).index(&p), want, "3-D bits={bits} p={p:?}");
    }
}
