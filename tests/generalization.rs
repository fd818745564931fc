//! §4.2 of the paper: the Cascaded-SFC scheduler *generalizes* classic
//! disk schedulers. Each `cascade::presets` row runs against the classic
//! it names through `oracle::reference::diff_pair`, which demands
//! identical engine event streams and metrics, on ten seeds; §4.3's
//! extensions run through the code that states them.

use cascaded_sfc::cascade::{
    presets, CascadeConfig, CascadedSfc, DispatchConfig, DistanceMode, Stage1, Stage2,
    Stage2Combiner, Stage3,
};
use cascaded_sfc::obs::NullSink;
use cascaded_sfc::sched::{
    Batched, Bucket, CScan, DiskScheduler, Edf, HeadState, MultiQueue, QosVector, Request,
};
use cascaded_sfc::sfc::CurveKind;
use cascaded_sfc::sim::{simulate, DiskService, Metrics, SimOptions};
use cascaded_sfc::workload::PoissonConfig;
use oracle::reference::diff_pair;
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

/// Run `preset` against `classic` on seeds 1–10 of `trace`: identical
/// event streams and metrics, or a panic naming the seed and the first
/// divergence. Returns each seed's metrics.
fn assert_event_identical(
    what: &str,
    preset: CascadeConfig,
    classic: impl Fn() -> Box<dyn DiskScheduler>,
    trace: impl Fn(u64) -> Vec<Request>,
) -> Vec<Metrics> {
    (1..=10)
        .map(|seed| {
            let mut cascade = CascadedSfc::new(preset.clone()).unwrap();
            diff_pair(
                what,
                &mut cascade,
                &mut *classic(),
                &trace(seed),
                SimOptions::with_shape(1, 8),
                DiskService::table1,
            )
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"))
        })
        .collect()
}

/// `presets::batch_cscan` is batch C-SCAN. Requests carry no QoS levels,
/// so two on one cylinder tie on id in both schedulers.
#[test]
fn cascade_r1_circular_is_exactly_batch_cscan() {
    assert_event_identical(
        "batch c-scan",
        presets::batch_cscan(3832),
        || Box::new(Batched::new(CScan::new(), "batched-c-scan")),
        |seed| {
            let mut trace = bursty_trace(60, 40, seed);
            for r in &mut trace {
                r.qos = QosVector::none();
            }
            trace
        },
    );
}

/// `presets::edf` is batch EDF among requests not yet past due: at 25
/// requests per burst nothing is late, so no two requests tie at zero
/// slack.
#[test]
fn cascade_deadline_major_matches_edf_on_batches() {
    let runs = assert_event_identical(
        "batch edf",
        presets::edf(1_000_000),
        || Box::new(Batched::new(Edf::new(), "batched-edf")),
        |seed| bursty_trace(60, 25, seed),
    );
    assert!(runs.iter().all(|m| m.late == 0));
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

/// §4.3 extensibility the other way: BUCKET's level-major order fed into
/// SFC3 with the cylinder position seeks less than BUCKET alone.
#[test]
fn bucket_with_sfc3_reduces_seeks_vs_plain_bucket() {
    let mut wl = PoissonConfig::figure8(3_000);
    wl.mean_interarrival_us = 10_000;
    let trace: Vec<_> = wl.generate(41).collect();
    let run = |s: &mut dyn DiskScheduler| {
        let mut service = DiskService::table1();
        simulate(
            s,
            &trace,
            &mut service,
            SimOptions::with_shape(3, 8),
            &mut NullSink,
        )
    };
    let plain = run(&mut Bucket::new(1.0, 0.001, 8));
    // Level-major stage 2: `f` small enough that no slack outweighs one
    // level step.
    let mut extended = CascadedSfc::new(CascadeConfig {
        stage1: Some(Stage1 {
            curve: CurveKind::Sweep,
            dims: 1,
            level_bits: 3,
        }),
        stage2: Some(Stage2 {
            combiner: Stage2Combiner::Weighted { f: 0.01 },
            horizon_us: 1_000_000,
            resolution_bits: 8,
        }),
        stage3: Some(Stage3 {
            partitions: 3,
            resolution_bits: 8,
            cylinders: 3832,
            distance: DistanceMode::Absolute,
        }),
        dispatch: DispatchConfig::non_preemptive(),
    })
    .unwrap();
    let ext = run(&mut extended);
    assert!(
        ext.seek_us < plain.seek_us,
        "SFC3 extension should reduce seeks: {} vs {}",
        ext.seek_us,
        plain.seek_us
    );
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
