#!/usr/bin/env bash
# Million-node sharded smoke: runs the `#[ignore]`d release-only scale
# test (1,000,000 nodes, 10 rounds, 4 lockstep shards) and surfaces the
# throughput and peak-RSS lines it prints.
#
#   scripts/million_node_smoke.sh
#
# The run routes its kernel/shard/engine counters and the peak-RSS gauge
# through the nylon-obs sink into $NYLON_STATS (default:
# target/million_node_stats.jsonl) and finishes with the
# `repro stats-report` summary of that file.
#
# Expect a few minutes of wall clock and a few GiB of peak RSS; the test
# itself asserts >9.5M shuffle initiations, so a hung shard barrier or a
# quadratic walk fails loudly instead of just slowly.
set -euo pipefail
cd "$(dirname "$0")/.."

STATS_FILE="${NYLON_STATS:-target/million_node_stats.jsonl}"
mkdir -p "$(dirname "$STATS_FILE")"
export NYLON_STATS="$STATS_FILE"

cargo test --release --test scale_smoke million_nodes_ten_rounds_sharded -- \
    --ignored --nocapture "$@"

if [[ -s "$STATS_FILE" ]]; then
    echo
    echo "[1M] telemetry summary of $STATS_FILE:"
    cargo run --release -q -p nylon-workloads --bin repro -- stats-report "$STATS_FILE"
else
    echo "[1M] no stats written to $STATS_FILE (did the scale test run?)"
fi
