//! Goal 5 of the paper (§1): *selectivity* — when a deadline miss is
//! unavoidable, the scheduler should pick low-priority victims. End-to-
//! end checks over an overloaded system.

use cascaded_sfc::cascade::{CascadeConfig, CascadedSfc, DispatchConfig, Stage2Combiner};
use cascaded_sfc::obs::NullSink;
use cascaded_sfc::sched::{DiskScheduler, Edf, QosVector, Request};
use cascaded_sfc::sfc::CurveKind;
use cascaded_sfc::sim::{simulate, Metrics, SimOptions, TransferDominated};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An overloaded burst trace: more work than the deadline window allows,
/// so roughly half of every burst must miss.
fn overloaded_trace(seed: u64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = Vec::new();
    let mut id = 0;
    for b in 0..40u64 {
        for _ in 0..60 {
            let arrival = b * 700_000 + rng.gen_range(0..1000);
            let deadline = arrival + rng.gen_range(250_000..=350_000);
            trace.push(Request::read(
                id,
                arrival,
                deadline,
                rng.gen_range(0..3832),
                64 * 1024,
                QosVector::new(&[rng.gen_range(0..8u8)]),
            ));
            id += 1;
        }
    }
    trace.sort_by_key(|r| (r.arrival_us, r.id));
    trace
}

fn run(s: &mut dyn DiskScheduler, trace: &[Request]) -> Metrics {
    // 10 ms per request: a 60-request burst takes 600 ms, deadlines allow
    // ~25-35 served per burst.
    let mut service = TransferDominated::uniform(10_000, 3832);
    simulate(
        s,
        trace,
        &mut service,
        SimOptions::with_shape(1, 8).dropping(),
        &mut NullSink,
    )
}

fn loss_centroid(m: &Metrics) -> f64 {
    let levels = &m.losses_by_dim_level[0];
    let total: u64 = levels.iter().sum();
    assert!(total > 0, "expected losses under overload");
    levels
        .iter()
        .enumerate()
        .map(|(l, &n)| l as f64 * n as f64)
        .sum::<f64>()
        / total as f64
}

fn cascade() -> CascadedSfc {
    CascadedSfc::new(
        CascadeConfig::priority_deadline(
            CurveKind::Diagonal,
            1,
            3,
            Stage2Combiner::Weighted { f: 1.0 },
            350_000,
        )
        .with_dispatch(DispatchConfig::non_preemptive()),
    )
    .unwrap()
}

#[test]
fn overload_forces_losses_for_everyone() {
    let trace = overloaded_trace(31);
    assert!(run(&mut Edf::new(), &trace).losses_total() > 200);
    assert!(run(&mut cascade(), &trace).losses_total() > 200);
}

#[test]
fn cascade_victims_are_lower_priority_than_edfs() {
    let trace = overloaded_trace(32);
    let edf = run(&mut Edf::new(), &trace);
    let casc = run(&mut cascade(), &trace);
    let (ce, cc) = (loss_centroid(&edf), loss_centroid(&casc));
    assert!(
        cc > ce + 0.5,
        "cascade centroid {cc:.2} should sit clearly below EDF's {ce:.2}"
    );
}

#[test]
fn cascade_protects_the_top_levels() {
    let trace = overloaded_trace(33);
    let m = run(&mut cascade(), &trace);
    let top: u64 = m.losses_by_dim_level[0][..2].iter().sum();
    let bottom: u64 = m.losses_by_dim_level[0][6..].iter().sum();
    assert!(
        top * 3 < bottom,
        "top-level losses {top} vs bottom {bottom}"
    );
}

#[test]
fn edf_is_priority_blind() {
    let trace = overloaded_trace(34);
    let m = run(&mut Edf::new(), &trace);
    let c = loss_centroid(&m);
    assert!(
        (2.0..5.0).contains(&c),
        "EDF centroid {c:.2} should hover near the middle"
    );
}

#[test]
fn weighted_cost_reflects_selectivity() {
    let trace = overloaded_trace(35);
    let edf = run(&mut Edf::new(), &trace);
    let casc = run(&mut cascade(), &trace);
    assert!(
        casc.weighted_loss(0, 11.0) < edf.weighted_loss(0, 11.0),
        "cascade {:.2} vs edf {:.2}",
        casc.weighted_loss(0, 11.0),
        edf.weighted_loss(0, 11.0)
    );
}
