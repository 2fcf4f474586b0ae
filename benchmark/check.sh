#!/usr/bin/env bash
# Self-check of the benchmark: BENCHMARK.json equals `bench spec`, the unit
# tests pass, and every workload — the gated ones and the two run by hand —
# survives a 3-second smoke run (plus one traced run) with a correct result
# line. Takes about a minute.
set -euo pipefail

BENCH_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(dirname "$BENCH_DIR")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$BENCH_DIR/target}"
case "$CARGO_TARGET_DIR" in
  /*) ;;
  *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac

echo "== spec == BENCHMARK.json"
diff <("$BENCH_DIR/run.sh" spec) "$ROOT/BENCHMARK.json"

echo "== unit tests"
cargo test --offline --quiet --manifest-path "$BENCH_DIR/Cargo.toml"

# The result line of a run: correct, nothing failed, every metric named.
check_line() {
  local line="$1" trace="$2"
  python3 - "$line" "$trace" "$ROOT/BENCHMARK.json" <<'EOF'
import json, sys
line, trace, spec_path = sys.argv[1], sys.argv[2], sys.argv[3]
result = json.loads(line)
spec = json.load(open(spec_path))
assert sorted(result) == ["attempted", "correct", "failed", "metrics"], sorted(result)
assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, line
want = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
assert sorted(result["metrics"]) == sorted(want), set(want) ^ set(result["metrics"])
units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
for name, m in result["metrics"].items():
    assert m["unit"] == units[name] and isinstance(m["value"], (int, float)), (name, m)
EOF
}

for workload in $("$BENCH_DIR/run.sh" spec | python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(sys.stdin)["workloads"]))') serve-compute dist-loopback; do
  echo "== smoke $workload"
  line="$("$BENCH_DIR/run.sh" --workload "$workload" --seed 7 --seconds 3 --trace 0 | tail -n 1)"
  check_line "$line" 0
done

echo "== smoke traced checkpoint-heavy"
out="$("$BENCH_DIR/run.sh" --workload checkpoint-heavy --seed 7 --seconds 3 --trace 1)"
check_line "$(tail -n 1 <<<"$out")" 1
trace_file="$(sed -n 's/^trace written to //p' <<<"$out")"
python3 -c 'import json,sys; assert json.load(open(sys.argv[1]))["traceEvents"]' "$trace_file"

echo "check.sh: all good"
