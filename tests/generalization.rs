//! §4.2 of the paper: the Cascaded-SFC scheduler *generalizes* classic
//! disk schedulers. These tests pin the strongest form of that claim we
//! can make executable: specific degenerate cascade configurations
//! produce byte-identical simulation metrics (or service orders) to the
//! hand-written baselines.

use cascaded_sfc::cascade::{
    CascadeConfig, CascadedSfc, DispatchConfig, DistanceMode, Stage1, Stage2, Stage2Combiner,
    Stage3,
};
use cascaded_sfc::obs::NullSink;
use cascaded_sfc::sched::{
    Batched, CScan, DiskScheduler, Edf, HeadState, MultiQueue, QosVector, Request,
};
use cascaded_sfc::sfc::CurveKind;
use cascaded_sfc::sim::{simulate, DiskService, SimOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bursty_trace(bursts: u64, per_burst: u32, seed: u64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = Vec::new();
    let mut id = 0;
    for b in 0..bursts {
        for _ in 0..per_burst {
            let arrival = b * 400_000 + rng.gen_range(0..500);
            let deadline = arrival + rng.gen_range(150_000..=500_000);
            trace.push(Request::read(
                id,
                arrival,
                deadline,
                rng.gen_range(0..3832),
                4 * 1024,
                QosVector::new(&[rng.gen_range(0..8u8)]),
            ));
            id += 1;
        }
    }
    trace.sort_by_key(|r| (r.arrival_us, r.id));
    trace
}

/// SFC3 only, `R = 1`, circular distance, non-preemptive batches —
/// the cascade *is* batch C-SCAN, to the microsecond.
#[test]
fn cascade_r1_circular_is_exactly_batch_cscan() {
    let trace = bursty_trace(60, 40, 3);
    let cascade_cfg = CascadeConfig {
        stage1: None,
        stage2: None,
        stage3: Some(Stage3 {
            partitions: 1,
            resolution_bits: 10,
            cylinders: 3832,
            distance: DistanceMode::Circular,
        }),
        dispatch: DispatchConfig::non_preemptive(),
    };
    // With stages 1-2 skipped and R=1, v_c = distance_circular * width + x
    // where x is constant per batch — pure circular-scan order.
    let mut cascade = CascadedSfc::new(cascade_cfg).unwrap();
    let mut baseline = Batched::new(CScan::new(), "batched-c-scan");

    let run = |s: &mut dyn DiskScheduler| {
        let mut service = DiskService::table1();
        simulate(
            s,
            &trace,
            &mut service,
            SimOptions::with_shape(1, 8),
            &mut NullSink,
        )
    };
    let a = run(&mut cascade);
    let b = run(&mut baseline);
    assert_eq!(a.seek_us, b.seek_us, "seek profiles must be identical");
    assert_eq!(a.makespan_us, b.makespan_us);
    assert_eq!(a.late, b.late);
}

/// SFC2 only with `f → ∞`: EDF order within every batch.
#[test]
fn cascade_deadline_major_matches_edf_on_batches() {
    // A single batch arriving at t=0: the cascade (huge f) and EDF agree
    // on the complete service order.
    let mut rng = StdRng::seed_from_u64(4);
    let head = HeadState::new(0, 0, 3832);
    let mut cascade = CascadedSfc::new(
        CascadeConfig::priority_deadline(
            CurveKind::Diagonal,
            1,
            3,
            Stage2Combiner::Weighted { f: 1e9 },
            1_000_000,
        )
        .with_dispatch(DispatchConfig::fully_preemptive()),
    )
    .unwrap();
    let mut edf = Edf::new();
    // Deadlines on a ~1 ms lattice, all distinct: SFC2 quantizes slack
    // into 2^10 buckets over the 1 s horizon, so same-bucket deadlines
    // would tie-break differently than exact EDF (the cascade breaks ties
    // by priority, EDF by id). Distinct lattice-aligned deadlines make
    // the two orders comparable bucket-for-bucket.
    use rand::seq::SliceRandom;
    let mut ks: Vec<u64> = (1..=200).collect();
    ks.shuffle(&mut rng);
    for (id, k) in ks.into_iter().enumerate() {
        let r = Request::read(
            id as u64,
            0,
            k * 977 * 4,
            rng.gen_range(0..3832),
            512,
            QosVector::single(rng.gen_range(0..8)),
        );
        cascade.enqueue(r.clone(), &head);
        edf.enqueue(r, &head);
    }
    for _ in 0..200 {
        let a = cascade.dequeue(&head).unwrap().id;
        let b = edf.dequeue(&head).unwrap().id;
        assert_eq!(a, b);
    }
}

/// SFC1 only on one dimension: multi-queue priority order (modulo the
/// intra-level SCAN refinement, which needs SFC3) — level order must
/// match exactly.
#[test]
fn cascade_priority_only_matches_multiqueue_levels() {
    let mut rng = StdRng::seed_from_u64(5);
    let head = HeadState::new(0, 0, 3832);
    let mut cascade =
        CascadedSfc::new(CascadeConfig::priority_only(CurveKind::Diagonal, 1, 3)).unwrap();
    let mut mq = MultiQueue::new(0);
    for id in 0..300u64 {
        let r = Request::read(
            id,
            0,
            u64::MAX,
            rng.gen_range(0..3832),
            512,
            QosVector::single(rng.gen_range(0..8)),
        );
        cascade.enqueue(r.clone(), &head);
        mq.enqueue(r, &head);
    }
    for _ in 0..300 {
        let a = cascade.dequeue(&head).unwrap().qos.level(0);
        let b = mq.dequeue(&head).unwrap().qos.level(0);
        assert_eq!(a, b, "level order must coincide");
    }
}

/// §4.3 extensibility: Kamel et al.'s single-priority deadline-driven
/// scheduler extended to multiple priorities by plugging an SFC1 mapping
/// into its priority hook.
#[test]
fn deadline_driven_extended_with_sfc1() {
    use cascaded_sfc::sched::{CostModel, DeadlineDriven};
    use cascaded_sfc::sfc::{Diagonal, SpaceFillingCurve};

    let curve = Diagonal::new(3, 3).unwrap();
    let mut s = DeadlineDriven::with_priority(
        CostModel::table1(),
        Box::new(move |r| {
            let p: Vec<u64> = r.qos.levels().iter().map(|&l| l as u64).collect();
            curve.index(&p) as u64
        }),
    );
    let head = HeadState::new(100, 0, 3832);
    // Multi-priority requests flow through without panics and preserve
    // the demotion-of-lowest behaviour on the SFC1 composite.
    s.enqueue(
        Request::read(1, 0, 300_000, 200, 64 * 1024, QosVector::new(&[7, 7, 7])),
        &head,
    );
    s.enqueue(
        Request::read(2, 0, 40_000, 3500, 64 * 1024, QosVector::new(&[0, 0, 0])),
        &head,
    );
    assert_eq!(s.dequeue(&head).unwrap().id, 2);
    assert_eq!(s.dequeue(&head).unwrap().id, 1);
}

/// §4.1 flexibility: all eight stage on/off combinations build and run.
#[test]
fn every_stage_combination_works() {
    let head = HeadState::new(0, 0, 3832);
    for mask in 0..8u8 {
        let cfg = CascadeConfig {
            stage1: (mask & 1 != 0).then_some(Stage1 {
                curve: CurveKind::Hilbert,
                dims: 2,
                level_bits: 3,
            }),
            stage2: (mask & 2 != 0).then_some(Stage2 {
                combiner: Stage2Combiner::Weighted { f: 1.0 },
                horizon_us: 500_000,
                resolution_bits: 8,
            }),
            stage3: (mask & 4 != 0).then_some(Stage3 {
                partitions: 3,
                resolution_bits: 8,
                cylinders: 3832,
                distance: DistanceMode::Absolute,
            }),
            dispatch: DispatchConfig::paper_default(),
        };
        let mut s = CascadedSfc::new(cfg).unwrap_or_else(|e| panic!("mask {mask}: {e}"));
        for id in 0..20 {
            s.enqueue(
                Request::read(
                    id,
                    0,
                    100_000 + id * 1000,
                    (id * 191 % 3832) as u32,
                    512,
                    QosVector::new(&[(id % 8) as u8, ((id * 3) % 8) as u8]),
                ),
                &head,
            );
        }
        let mut count = 0;
        while s.dequeue(&head).is_some() {
            count += 1;
        }
        assert_eq!(count, 20, "mask {mask} lost requests");
    }
}
