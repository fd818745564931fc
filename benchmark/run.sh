#!/usr/bin/env bash
# Daemon-path benchmark: build once, then one process per workload.
#
#   benchmark/run.sh [--workload NAME|all] [--seed N] [--seconds S]
#                    [--trace 0|1] [--history FILE] [--check]
#
#   --workload  steady | deep | wide | surge | burst | all   (default all)
#   --seed      workload seed; reaches only the generators   (default 20040330)
#   --seconds   untraced repetitions run until their timed regions sum to
#               this (at least 3 repetitions)                 (default 10)
#   --trace     0: end-to-end metrics from untraced repetitions
#               1: per-layer metrics from the traced pass, the layer
#                  replays and the FCFS floor
#               (default: both, one process each)
#   --history   append one JSON line per process
#               {commit, date, nproc, workload, seed, trace, metric: value...}
#               to FILE (keep it outside benchmark/)
#   --check     run the end-to-end set twice back to back, print both side
#               by side and fail unless simulated metrics are equal and
#               host metrics agree within their regression bounds
#
# With --workload all or --check the package is also linted (cargo fmt
# --check, cargo clippy -D warnings) and its tests run, because the
# repository's own gate does not see this package. A single-workload run
# only builds and measures; the last line of its standard output is the
# result object {correct, attempted, failed, metrics}.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"

workload=all
seed=20040330
seconds=10
traces="0 1"
history=""
check=0
while [ $# -gt 0 ]; do
    case "$1" in
        --workload|--seed|--seconds|--trace|--history)
            [ $# -ge 2 ] || { echo "run.sh: $1 needs a value" >&2; exit 2; }
            case "$1" in
                --workload) workload="$2" ;;
                --seed) seed="$2" ;;
                --seconds) seconds="$2" ;;
                --trace) traces="$2" ;;
                --history) history="$2" ;;
            esac
            shift 2 ;;
        --check) check=1; shift ;;
        -h|--help) sed -n '2,27p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//'; exit 0 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

# The target directory may be given relative to the caller's directory.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
case "$history" in ""|/*) ;; *) history="$PWD/$history" ;; esac

# Cargo reports on standard error, so standard output stays the harness's.
cargo build --release --offline --manifest-path "$manifest" >&2
bench="$target/release/daemon-bench"

if [ "$workload" = all ] || [ "$check" = 1 ]; then
    cargo fmt --manifest-path "$manifest" --check >&2
    cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings >&2
    cargo test --release --offline --manifest-path "$manifest" -q >&2
fi

if [ "$workload" = all ]; then
    workloads="steady deep wide surge burst"
else
    workloads="$workload"
fi

BENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
BENCH_DATE="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
export BENCH_COMMIT BENCH_DATE

measure() { # workload trace [history]
    local args=(--workload "$1" --seed "$seed" --seconds "$seconds" --trace "$2"
                --spans-dir "$here/out")
    [ -z "${3:-}" ] || args+=(--history "$3")
    "$bench" "${args[@]}"
}

if [ "$check" = 1 ]; then
    mkdir -p "$here/out"
    rm -f "$here/out/check.a.jsonl" "$here/out/check.b.jsonl"
    for set in a b; do
        for w in $workloads; do
            echo "== set $set: $w" >&2
            measure "$w" 0 "$here/out/check.$set.jsonl" >/dev/null
        done
    done
    "$bench" --compare "$here/out/check.a.jsonl" "$here/out/check.b.jsonl"
    exit
fi

for w in $workloads; do
    for t in $traces; do
        measure "$w" "$t" "$history"
    done
done
