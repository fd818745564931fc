//! The oracle's regression corpus and its headline differential claim,
//! run as part of the ordinary test suite.
//!
//! The `.case` files under `tests/corpus/` are frozen adversarial
//! workloads (one per fuzz archetype); any divergence between the
//! optimized schedulers and the naive references on replay is a bug in
//! one of them. New failures found by `oracle --mode fuzz` land here as
//! minimized `fail-*.case` files and are then replayed forever.

use oracle::fuzz::replay_dir;
use oracle::reference::{diff_baselines, diff_cascade};
use std::path::Path;

#[test]
fn corpus_replays_clean() {
    let corpus = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus"));
    let replayed = replay_dir(corpus).expect("every corpus case must replay clean");
    assert!(
        replayed >= 4,
        "expected at least one case per fuzz archetype, found {replayed}"
    );
}

/// The acceptance claim of the oracle: the optimized cascade's dispatch
/// order is bit-identical to the naive O(n²) reference on three
/// independently seeded workloads (and the heap-based baselines match
/// their brute-force references on the same traces).
#[test]
fn cascade_matches_naive_reference_on_three_seeds() {
    use cascaded_sfc::cascade::CascadeConfig;
    use cascaded_sfc::sim::{DiskService, SimOptions};
    use cascaded_sfc::workload::PoissonConfig;

    for seed in [101, 202, 20040330] {
        let trace: Vec<_> = PoissonConfig::figure8(500).generate(seed).collect();
        let options = SimOptions::with_shape(3, 8).dropping();
        let config = CascadeConfig::paper_default(3, 3832);
        diff_cascade(&config, &trace, options, DiskService::table1)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        diff_baselines(&trace, options).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}
