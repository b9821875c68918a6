#!/usr/bin/env bash
# Records the micro-bench medians (and, via the bench-alloc counting
# allocator, allocations/op) as machine-readable JSON, so the repo's perf
# trajectory is a diffable artifact instead of scrollback.
#
# Usage:
#   scripts/bench_snapshot.sh [OUT.json] [--quick] [--diff BASELINE.json]
#
# OUT defaults to BENCH_snapshot.json in the repo root. --quick runs
# nine samples per bench instead of fifteen (the CI smoke mode). --diff
# gates the fresh snapshot against a committed baseline (BENCH_pr18.json
# is the current one, BENCH_pr13.json the previous): medians are
# normalized by the frozen-source reference-heap sentinel so runner
# speed cancels, then the run fails on a > 25 % regression of any
# median_ns (50 % for the long-lived-engine benches; the S=4 sharded
# round is recorded but exempt from the timing gate, its barrier cost
# being a property of the runner's core count), and
# allocations/iter are compared exactly for the fixed-workload benches
# (see the diff code in crates/bench/benches/snapshot.rs).
set -euo pipefail
cd "$(dirname "$0")/.."

out="BENCH_snapshot.json"
quick=""
diff_args=()
expect_diff=""
for arg in "$@"; do
  if [[ -n "$expect_diff" ]]; then
    # cargo runs the bench with the package directory as CWD; anchor
    # relative baseline paths at the repo root.
    case "$arg" in
      /*) diff_args=(--diff "$arg") ;;
      *) diff_args=(--diff "$(pwd)/$arg") ;;
    esac
    expect_diff=""
    continue
  fi
  case "$arg" in
    --quick) quick="--quick" ;;
    --diff) expect_diff=1 ;;
    *) out="$arg" ;;
  esac
done
if [[ -n "$expect_diff" ]]; then
  echo "--diff requires a baseline path" >&2
  exit 2
fi
# Same CWD anchoring for the output path: cargo runs the bench from the
# package directory, and OUT is documented to land in the repo root.
case "$out" in
  /*) ;;
  *) out="$(pwd)/$out" ;;
esac

cargo bench -p nylon-bench --bench snapshot --features bench-alloc -- \
  --out "$out" $quick "${diff_args[@]}"
