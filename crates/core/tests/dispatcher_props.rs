//! Property-based tests of the dispatcher invariants: conservation (no
//! request lost or duplicated under any interleaving of inserts and
//! pops), heap-order of the fully-preemptive mode, starvation-freedom of
//! ER, and window monotonicity of the conditional mode.

use cascade::{DispatchConfig, Dispatcher, PreemptionMode};
use proptest::prelude::*;
use sched::{QosVector, Request};

fn req(id: u64) -> Request {
    Request::read(id, 0, u64::MAX, 0, 512, QosVector::none())
}

/// A random schedule of operations: `Some(v)` = insert with value v,
/// `None` = pop.
fn ops() -> impl Strategy<Value = Vec<Option<u64>>> {
    prop::collection::vec(prop::option::weighted(0.6, 0u64..1000), 1..200)
}

fn dispatch_configs() -> Vec<DispatchConfig> {
    vec![
        DispatchConfig::fully_preemptive(),
        DispatchConfig::non_preemptive(),
        DispatchConfig {
            mode: PreemptionMode::Conditional { window: 0.1 },
            serve_promote: false,
            expand_factor: None,
            refresh_on_swap: false,
            max_queue: None,
        },
        DispatchConfig {
            mode: PreemptionMode::Conditional { window: 0.25 },
            serve_promote: true,
            expand_factor: Some(2.0),
            refresh_on_swap: false,
            max_queue: None,
        },
        DispatchConfig::paper_default(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn no_request_lost_or_duplicated(schedule in ops()) {
        for config in dispatch_configs() {
            let mut d = Dispatcher::new(config, 1000);
            let mut inserted = Vec::new();
            let mut popped = Vec::new();
            let mut next_id = 0u64;
            for op in &schedule {
                match op {
                    Some(v) => {
                        d.insert(req(next_id), *v as u128);
                        inserted.push(next_id);
                        next_id += 1;
                    }
                    None => {
                        if let Some(r) = d.pop(None) {
                            popped.push(r.id);
                        }
                    }
                }
            }
            while let Some(r) = d.pop(None) {
                popped.push(r.id);
            }
            popped.sort_unstable();
            prop_assert_eq!(&popped, &inserted, "config {:?}", config);
            prop_assert!(d.is_empty());
        }
    }

    #[test]
    fn fully_preemptive_pops_in_value_order(values in prop::collection::vec(0u64..1000, 1..100)) {
        let mut d = Dispatcher::new(DispatchConfig::fully_preemptive(), 1000);
        for (id, &v) in values.iter().enumerate() {
            d.insert(req(id as u64), v as u128);
        }
        let mut last: Option<(u128, u64)> = None;
        while let Some(r) = d.pop(None) {
            let v = values[r.id as usize] as u128;
            if let Some(prev) = last {
                prop_assert!(prev <= (v, r.id), "heap order violated");
            }
            last = Some((v, r.id));
        }
    }

    #[test]
    fn pending_iteration_matches_len(schedule in ops()) {
        let mut d = Dispatcher::new(DispatchConfig::paper_default(), 1000);
        let mut next_id = 0u64;
        for op in &schedule {
            match op {
                Some(v) => {
                    d.insert(req(next_id), *v as u128);
                    next_id += 1;
                }
                None => {
                    d.pop(None);
                }
            }
            let mut n = 0usize;
            d.for_each_pending(&mut |_| n += 1);
            prop_assert_eq!(n, d.len());
        }
    }

    #[test]
    fn conditional_window_never_promotes_lower_priority(
        cur in 100u64..900,
        newcomer in 0u64..1000,
    ) {
        // After serving `cur`, a newcomer enters the active queue iff it
        // beats cur by more than the window.
        let mut d = Dispatcher::new(
            DispatchConfig {
                mode: PreemptionMode::Conditional { window: 0.1 },
                serve_promote: false,
                expand_factor: None,
                refresh_on_swap: false,
                max_queue: None,
            },
            1000,
        );
        let mut seen = obs::Snapshot::new();
        d.insert(req(0), cur as u128);
        d.pop(None);
        d.insert_traced(req(1), newcomer as u128, 0, &mut seen);
        let preempted = seen.counters.preemptions == 1;
        prop_assert_eq!(
            preempted,
            (newcomer as u128) < (cur as u128).saturating_sub(100),
            "cur={} new={}", cur, newcomer
        );
    }

    #[test]
    fn refresh_preserves_membership(values in prop::collection::vec(0u64..1000, 1..60)) {
        // Refresh-on-swap re-keys but never adds/drops entries.
        let mut d = Dispatcher::new(DispatchConfig::non_preemptive(), 1000);
        for (id, &v) in values.iter().enumerate() {
            d.insert(req(id as u64), v as u128);
        }
        let mut popped = Vec::new();
        let mut refresh = |r: &Request| (1000 - r.id) as u128; // reverse order
        while let Some(r) = d.pop(Some(&mut refresh)) {
            popped.push(r.id);
        }
        let mut sorted = popped.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted.len(), values.len());
        // The refresh reversed the order within the single batch.
        let expected: Vec<u64> = (0..values.len() as u64).rev().collect();
        prop_assert_eq!(popped, expected);
    }
}
