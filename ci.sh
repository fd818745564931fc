#!/usr/bin/env bash
# The CI gate, in one place: .github/workflows/ci.yml installs the
# toolchain and runs this script.
# Usage: ./ci.sh
#
# Everything builds offline (see README "Building offline"): the
# external dev-dependencies resolve to the vendored shims under
# vendor/, so no network or registry cache is needed.
set -euo pipefail
cd "$(dirname "$0")"

# `step NAME` closes the open step with its wall-clock seconds (bash's
# SECONDS) and opens the next; a bare `step` closes the last one.
step() {
    if [[ -n "${step_name:-}" ]]; then
        echo "<== $step_name: $((SECONDS - step_began)) s"
    fi
    step_name=${1:-}
    step_began=$SECONDS
    if [[ -n "$step_name" ]]; then
        echo "==> $step_name"
    fi
}

step "cargo fmt --check"
cargo fmt --all --check

step "cargo clippy (perf lints, deny warnings)"
cargo clippy --workspace --all-targets -- -W clippy::perf -D warnings

step "cargo doc (deny warnings)"
# Intra-doc links are the only check that a deleted or renamed item is
# not still referred to in prose. The workspace's own crates only: the
# vendored rand/proptest shims are members by path but not ours to lint.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --exclude rand --exclude proptest --no-deps --lib

step "cargo build --release"
cargo build --release

step "cargo test (whole workspace)"
# The root package's tests, then farm, sim, the oracle and the rest of
# the workspace. The daemon farm's ledger and routing quality, its drain
# and supervision, the reconciliation of faulted runs (drop and failure
# events against the engine's metrics: tests/fault_tolerance.rs's
# traced_faulted_run_is_bit_identical_to_untraced for one disk, farm's
# a_farm_of_media_faulted_disks_closes_its_ledger_and_repeats for the
# daemon; fault counts exist only as events) and the
# window telemetry (farm's determinism test: drained after every event,
# every window leaves whole and every event lands in the window of its
# time, the windows summing to the cumulative; farm's ring_memory test:
# at most depth windows a member and a bounded report in live bytes)
# are checked here (and by the oracle below), not by a smoke run of
# their own.
cargo test -q --workspace

step "inversion-census tests, release"
# Debug builds re-derive every inversion count by walking the queue and
# assert it equals the engine's census, so there the "no walk on an
# unbounded queue" test can only count those checks. In release the
# check is compiled out: the count must be zero, and the naive recount
# in the test is the only reference. The same goes for the census's
# masked sum, which `sim`'s census unit test holds to a recount.
cargo test -q --release --test cross_crate inversion_census
cargo test -q --release -p sim census

step "bounded-state census gate, release"
# One surge-shaped daemon scenario (flash crowd, admission gate, bounded
# queues, churn, supervisor, live controller) at 1x and 10x arrivals:
# what the daemon and the controller hold at rest, counted structure by
# structure, must be equal — state sized by the farm's shape, never by
# the traffic that has passed through. Prints the census.
cargo test -q --release -p bench --test state_census -- --nocapture

step "ctrl smoke run"
# Overloaded farm started from a detuned static configuration, run with
# and without the live controller: the controlled run must beat the
# static deadline-miss rate, hold p99 response within the survivorship
# slack, and two controlled runs must be bit-identical down to the
# fingerprint of every decision taken (exits 1 on violation).
cargo run -q -p bench --release --bin bench -- ctrl --mode smoke

step "ctrl convergence sweep"
# Exhaustive (f, R, w) grid scores vs the guided search on the same
# seeded overloaded trace: the search must land within 10% of the
# exhaustive optimum in at most 5% of the grid's evaluations,
# deterministically (exits 1 on violation).
cargo run -q -p bench --release --bin bench -- ctrl --mode sweep

step "oracle smoke gate"
# Differential + metamorphic battery: optimized cascade, baselines and
# farm router vs naive references, and the quiet farm daemon vs a judge
# built from the naive router replay and one plain simulation per shard,
# on seeded workloads; one fuzz case per archetype, and the metamorphic
# quick pass (exits 1 on any divergence). The same battery runs with
# integer-overflow checks as `oracle`'s `smoke_gate_passes` under `cargo
# test` above (the dev profile), so arithmetic on times and deadlines
# that would wrap silently here panics there.
cargo run -q -p oracle --release --bin oracle -- --mode smoke

step "oracle perf-parity gate"
# The optimized engine (the folded stage-1 table, the 64-bit `Narrow`
# path, the arena dispatcher) diffed against the naive reference on every
# committed corpus trace under all four dispatcher regimes (exits 1 on
# any divergence).
cargo run -q -p oracle --release --bin oracle -- --mode perf-parity --corpus tests/corpus

step "benchmark trajectory gate"
# The five daemon-path workloads, end to end, against the last record
# perf-history.jsonl holds for each: every simulated metric must be
# equal to the last digit for the same seed — so a PR that changes
# behaviour has to append its own records — and the host-normalised
# cost_ratio, peak RSS and set-up time must stay within their
# BENCHMARK.json bounds. benchmark/ is its own workspace root, built
# against crates/* by path, and a PR that claims a gain may not edit it:
# --workload all builds, lints and tests it first, so an API break
# against the harness fails here, not in the measuring pipeline.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
for w in steady deep wide surge burst; do
    grep "\"workload\":\"$w\",.*\"trace\":0," perf-history.jsonl | tail -1 >>"$tmp/committed.jsonl"
done
benchmark/run.sh --workload all --trace 0 --seconds 3 --history "$tmp/fresh.jsonl" >/dev/null
"${CARGO_TARGET_DIR:-benchmark/target}/release/daemon-bench" --compare "$tmp/committed.jsonl" "$tmp/fresh.jsonl"

step "paper figures"
# Every table and figure of the paper, and §3's dispatcher ablation,
# regenerated at the default seed (~2 s) and byte-compared with the
# committed results/: any change in simulated behaviour fails here until
# the CSVs — and the claims crates/bench/tests/paper_claims.rs asserts
# over them — are re-read.
cargo run -q -p bench --release --bin bench -- experiments --out "$tmp/results"
diff -r results "$tmp/results"

step "telemetry overhead gate"
# Off-vs-on measurement in one process (NullSink vs live windowed
# sinks) on a near-saturation trace; exits 1 when instrumentation
# costs more than 5% of engine or dispatch throughput.
cargo run -q -p bench --release --bin bench -- perf --budget 0.05

step
echo "ci.sh: all green in $SECONDS s"
