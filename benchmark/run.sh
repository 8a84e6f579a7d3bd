#!/usr/bin/env bash
# The benchmark's one command. Builds benchmark/ (a package of its own; the
# root workspace is not touched) and then either
#
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       runs one workload in this process and prints its metrics; the last
#       line of stdout is the result as one JSON object (the driver's form);
#   run.sh [--seed <n>] [--seconds <s>]
#       runs all five workloads, each in its own process, tracing off and
#       then traced, and prints every metric with unit, direction and bound;
#   run.sh --smoke
#       all five at toy size in a few seconds, checking every metric that
#       BENCHMARK.json declares is present, finite and correctly named;
#   run.sh --repeat <N> [--seconds <s>]
#       two alternating sets (A, B, B, A, ...) of N runs of the same build
#       and the gap between their medians against each metric's bound.
#
# See benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

# The root workspace's build directory unless the caller (the driver) chose
# one; relative paths are relative to the repository root.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
# Cargo's progress goes to stderr and only on failure: stdout carries
# nothing but the benchmark's own output.
if ! build_log=$(cargo build --release --offline --manifest-path benchmark/Cargo.toml 2>&1); then
    printf '%s\n' "$build_log" >&2
    exit 1
fi
bin="$CARGO_TARGET_DIR/release/benchmark"

for arg in "$@"; do
    case "$arg" in
    --workload | --workload=*) exec "$bin" "$@" ;;
    esac
done
exec python3 benchmark/orchestrate.py "$bin" "$@"
