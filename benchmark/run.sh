#!/usr/bin/env bash
# The benchmark's single entry point, named in BENCHMARK.json:
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh spec | noise [--runs N] [--seconds S] | compare A.json B.json
#
# Builds the benchmark package (release, offline) and runs it. Works from any
# directory: the repository root is resolved from this file's own path.
set -euo pipefail

BENCH_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Build into CARGO_TARGET_DIR when the caller sets one (a relative one is
# relative to the caller's directory), else into benchmark/target. Never the
# root package's target/, and never MVTEE_VARIANTD: the worker used is the one
# built here.
TARGET_DIR="${CARGO_TARGET_DIR:-$BENCH_DIR/target}"
case "$TARGET_DIR" in
  /*) ;;
  *) TARGET_DIR="$PWD/$TARGET_DIR" ;;
esac
export CARGO_TARGET_DIR="$TARGET_DIR"
unset MVTEE_VARIANTD

# Cargo's progress goes to stderr; stdout stays the benchmark's own.
cargo build --release --offline --quiet --manifest-path "$BENCH_DIR/Cargo.toml" >&2

BENCH="$TARGET_DIR/release/bench"
WORKER="$TARGET_DIR/release/mvtee-variantd"
export MVTEE_BENCH_DIR="$BENCH_DIR"
export MVTEE_BENCH_OUT="$TARGET_DIR/bench-out"

# Whatever ends this script — completion, an error, a signal — the bench
# process and every worker it spawned are gone before we return. The pattern
# is this checkout's own worker path, so other checkouts are left alone.
child=""
cleanup() {
  if [ -n "$child" ] && kill -0 "$child" 2>/dev/null; then
    kill -TERM "$child" 2>/dev/null || true
    wait "$child" 2>/dev/null || true
  fi
  pkill -KILL -f "^$WORKER " 2>/dev/null || true
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

"$BENCH" "$@" &
child=$!
status=0
wait "$child" || status=$?
child=""
exit "$status"
