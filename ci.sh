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
# 660 tests: the root package holds 49 of them; farm, sim, the oracle
# and the rest of the workspace the other 611. The farm's ledger and
# routing quality, the daemon's drain and supervision, the fault sweep's
# reconciliation and the windowed telemetry's bit-identity are checked
# here (and by the oracle below), not by a smoke run of their own.
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

step "scenario smoke run"
# Million-session closed-loop population (diurnal base + flash crowd,
# mixed VoD/NewsByte tenants) streamed through the farm daemon in
# bounded memory: exact ledger closure, the admission gate and bounded
# queues both exercised by the surge, reduced-scale bit-identity, and
# the cascade's measured batch seek converging monotonically onto the
# analytic closed form (exits 1 on violation).
cargo run -q -p bench --release --bin bench -- scenario --mode smoke

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
# farm routing vs naive references on seeded workloads, one fuzz case
# per archetype, and the metamorphic quick pass (exits 1 on any
# divergence).
cargo run -q -p oracle --release --bin oracle -- --mode smoke

step "oracle smoke gate, release with overflow checks"
# The same battery once more with integer-overflow checks compiled into
# the release build (its own target directory, so the flag does not
# invalidate the ordinary release artifacts): arithmetic on times and
# deadlines that wraps silently in release panics here.
RUSTFLAGS="-C overflow-checks=on" CARGO_TARGET_DIR=target/overflow \
    cargo run -q -p oracle --release --bin oracle -- --mode smoke

step "oracle perf-parity gate"
# The optimized engine (LUT kernels, arena dispatcher) diffed against
# the naive reference on every committed corpus trace under all four
# dispatcher regimes (exits 1 on any divergence).
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
# Every table and figure of the paper regenerated at the default seed
# (~2 s) and byte-compared with the committed results/: any change in
# simulated behaviour fails here until the CSVs — and the claims
# crates/bench/tests/paper_claims.rs asserts over them — are re-read.
cargo run -q -p bench --release --bin bench -- experiments --out "$tmp/results"
diff -r results "$tmp/results"

step "telemetry overhead gate"
# Off-vs-on measurement in one process (NullSink vs live windowed
# sinks) on a near-saturation trace; exits 1 when instrumentation
# costs more than 5% of engine or dispatch throughput.
cargo run -q -p bench --release --bin bench -- perf --budget 0.05

step
echo "ci.sh: all green in $SECONDS s"
