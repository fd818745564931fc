//! Property-based tests of the encapsulator's scheduling monotonicity.
//!
//! With the paper's default configuration (Diagonal SFC1, weighted SFC2,
//! partitioned-sweep SFC3), making a request strictly "better" in any
//! single coordinate (a higher priority level, a tighter deadline, or a
//! closer cylinder) must never *increase* its characterization value.
//! With recursive curves like Hilbert in SFC1 this deliberately does not
//! hold — that non-monotonicity is the locality/fairness trade the paper
//! studies — so the properties pin the monotone configuration only.

use cascade::{CascadeConfig, Encapsulator};
use proptest::prelude::*;
use sched::{HeadState, QosVector, Request};

fn encapsulator() -> Encapsulator {
    Encapsulator::new(CascadeConfig::paper_default(3, 3832)).unwrap()
}

fn req(levels: [u8; 3], deadline_us: u64, cylinder: u32) -> Request {
    Request::read(0, 0, deadline_us, cylinder, 65536, QosVector::new(&levels))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn raising_a_priority_never_raises_vc(
        l0 in 0u8..16, l1 in 0u8..16, l2 in 1u8..16,
        deadline in 1_000u64..2_000_000,
        cyl in 0u32..3832,
        head_cyl in 0u32..3832,
    ) {
        let e = encapsulator();
        let head = HeadState::new(head_cyl, 0, 3832);
        let worse = e.characterize(&req([l0, l1, l2], deadline, cyl), &head);
        let better = e.characterize(&req([l0, l1, l2 - 1], deadline, cyl), &head);
        prop_assert!(better <= worse,
            "raising dim2 priority {l2}->{} raised v_c {worse}->{better}", l2 - 1);
    }

    #[test]
    fn tightening_the_deadline_never_raises_vc(
        levels in prop::array::uniform3(0u8..16),
        d_tight in 1_000u64..500_000,
        extra in 1_000u64..500_000,
        cyl in 0u32..3832,
        head_cyl in 0u32..3832,
    ) {
        let e = encapsulator();
        let head = HeadState::new(head_cyl, 0, 3832);
        let lax = e.characterize(&req(levels, d_tight + extra, cyl), &head);
        let tight = e.characterize(&req(levels, d_tight, cyl), &head);
        prop_assert!(tight <= lax);
    }

    #[test]
    fn approaching_the_head_never_raises_vc(
        levels in prop::array::uniform3(0u8..16),
        deadline in 1_000u64..2_000_000,
        head_cyl in 0u32..3832,
        far in 0u32..3832,
    ) {
        let e = encapsulator();
        let head = HeadState::new(head_cyl, 0, 3832);
        // `near` halves the distance to the head.
        let near = if far >= head_cyl {
            head_cyl + (far - head_cyl) / 2
        } else {
            head_cyl - (head_cyl - far) / 2
        };
        let v_far = e.characterize(&req(levels, deadline, far), &head);
        let v_near = e.characterize(&req(levels, deadline, near), &head);
        prop_assert!(v_near <= v_far);
    }

    #[test]
    fn vc_always_within_max_value(
        levels in prop::array::uniform3(0u8..16),
        deadline in prop::option::of(1_000u64..3_000_000),
        cyl in 0u32..3832,
        head_cyl in 0u32..3832,
        now in 0u64..1_000_000,
    ) {
        let e = encapsulator();
        let head = HeadState::new(head_cyl, now, 3832);
        let deadline = deadline.map(|d| now + d).unwrap_or(u64::MAX);
        let v = e.characterize(&req(levels, deadline, cyl), &head);
        prop_assert!(v <= e.max_value());
    }

    #[test]
    fn characterization_is_deterministic(
        levels in prop::array::uniform3(0u8..16),
        deadline in 1_000u64..2_000_000,
        cyl in 0u32..3832,
        head_cyl in 0u32..3832,
    ) {
        let e1 = encapsulator();
        let e2 = encapsulator();
        let head = HeadState::new(head_cyl, 0, 3832);
        let r = req(levels, deadline, cyl);
        prop_assert_eq!(e1.characterize(&r, &head), e2.characterize(&r, &head));
    }
}
