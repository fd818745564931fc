//! Goal 1 of the paper (§1): minimizing priority inversion — tests of
//! the inversion metric itself and of the scheduler behaviour it
//! measures.

use cascaded_sfc::cascade::{CascadeConfig, CascadedSfc, DispatchConfig};
use cascaded_sfc::obs::NullSink;
use cascaded_sfc::sched::{DiskScheduler, Fcfs, MultiQueue, QosVector, Request};
use cascaded_sfc::sfc::CurveKind;
use cascaded_sfc::sim::{simulate, Metrics, SimOptions, TransferDominated};
use cascaded_sfc::workload::PoissonConfig;

fn run(s: &mut dyn DiskScheduler, trace: &[Request], dims: usize) -> Metrics {
    let mut service = TransferDominated::uniform(20_000, 3832);
    simulate(
        s,
        trace,
        &mut service,
        SimOptions::with_shape(dims, 16),
        &mut NullSink,
    )
}

#[test]
fn single_priority_queue_has_zero_inversion_in_its_dimension() {
    // A priority scheduler on one dimension cannot invert that dimension
    // when everything is in one queue: the metric must read zero.
    let trace: Vec<_> = PoissonConfig::figure5(1, 3_000).generate(21).collect();
    let mut mq = MultiQueue::new(0);
    let m = run(&mut mq, &trace, 1);
    assert_eq!(
        m.inversions_per_dim[0], 0,
        "multi-queue inverted its own priority dimension"
    );
}

#[test]
fn fifo_inversion_is_positive_under_load() {
    let trace: Vec<_> = PoissonConfig::figure5(3, 3_000).generate(22).collect();
    let m = run(&mut Fcfs::new(), &trace, 3);
    assert!(m.inversions_total() > 0);
    // All tracked dimensions see some inversion under FIFO.
    for (k, &v) in m.inversions_per_dim.iter().take(3).enumerate() {
        assert!(v > 0, "dimension {k} saw no inversion under FIFO");
    }
}

#[test]
fn per_dimension_counts_sum_to_total() {
    let trace: Vec<_> = PoissonConfig::figure5(4, 2_000).generate(23).collect();
    let mut s = CascadedSfc::new(CascadeConfig::priority_only(CurveKind::Diagonal, 4, 4)).unwrap();
    let m = run(&mut s, &trace, 4);
    assert_eq!(
        m.inversions_per_dim.iter().sum::<u64>(),
        m.inversions_total()
    );
}

#[test]
fn fully_preemptive_diagonal_beats_fifo() {
    let trace: Vec<_> = PoissonConfig::figure5(4, 4_000).generate(24).collect();
    let fifo = run(&mut Fcfs::new(), &trace, 4);
    let mut cascade = CascadedSfc::new(
        CascadeConfig::priority_only(CurveKind::Diagonal, 4, 4)
            .with_dispatch(DispatchConfig::fully_preemptive()),
    )
    .unwrap();
    let diag = run(&mut cascade, &trace, 4);
    assert!(
        diag.inversions_total() < fifo.inversions_total(),
        "diagonal {} vs fifo {}",
        diag.inversions_total(),
        fifo.inversions_total()
    );
}

#[test]
fn sp_policy_reduces_inversion_of_the_window() {
    // Same conditional window, with and without Serve-and-Promote: SP may
    // only help.
    let trace: Vec<_> = PoissonConfig::figure5(3, 5_000).generate(25).collect();
    let run_with = |sp: bool| {
        let cfg =
            CascadeConfig::priority_only(CurveKind::Diagonal, 3, 4).with_dispatch(DispatchConfig {
                mode: cascaded_sfc::cascade::PreemptionMode::Conditional { window: 0.3 },
                serve_promote: sp,
                expand_factor: None,
                refresh_on_swap: false,
                max_queue: None,
            });
        let mut s = CascadedSfc::new(cfg).unwrap();
        run(&mut s, &trace, 3).inversions_total()
    };
    let without = run_with(false);
    let with = run_with(true);
    assert!(
        with <= without,
        "SP increased inversion: {with} vs {without}"
    );
}

#[test]
fn inversion_definition_matches_hand_count() {
    // Serve one request while three wait; count by hand.
    struct Scripted {
        queue: Vec<Request>,
    }
    impl DiskScheduler for Scripted {
        fn name(&self) -> &'static str {
            "scripted"
        }
        fn enqueue(&mut self, req: Request, _h: &cascaded_sfc::sched::HeadState) {
            self.queue.push(req);
        }
        fn dequeue(&mut self, _h: &cascaded_sfc::sched::HeadState) -> Option<Request> {
            // Always serve the *last* request (worst case).
            self.queue.pop()
        }
        fn len(&self) -> usize {
            self.queue.len()
        }
        fn for_each_pending(&self, f: &mut dyn FnMut(&Request)) {
            self.queue.iter().for_each(f);
        }
    }

    // Four requests, all at t=0. Served in reverse id order.
    // Request levels (dim 0): id0=0, id1=1, id2=2, id3=3.
    // Serving id3 first: 3 waiting with higher priority -> 3 inversions;
    // then id2: 2; then id1: 1; then id0: 0. Total 6.
    let trace: Vec<Request> = (0..4)
        .map(|i| Request::read(i, 0, u64::MAX, 0, 512, QosVector::single(i as u8)))
        .collect();
    let mut s = Scripted { queue: Vec::new() };
    let mut service = TransferDominated::uniform(1_000, 3832);
    let m = simulate(
        &mut s,
        &trace,
        &mut service,
        SimOptions::with_shape(1, 16),
        &mut NullSink,
    );
    assert_eq!(m.inversions_per_dim[0], 6);
}
