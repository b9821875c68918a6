#!/usr/bin/env bash
# The committed goldens and the four `repro` invocations they are cut from,
# which between them cover every artifact and every attack.
#
#   scripts/golden.sh --check    # byte-compare; CI and tests/shard_determinism.rs hold the same bytes
#   scripts/golden.sh --write    # regenerate (a draw-order re-baseline: its own commit)
#
# Builds and runs the release CLI. --check renders each golden
# without a --shards flag and at --shards 1, 2 and 4, telemetry off and on:
# one byte family, so every one of the thirty-two transcripts must equal the
# committed file. --write cuts them from the flag-less, stats-off run.
#
# Beside each transcript `<name>.txt` sits `<name>.counters`: the run's
# exact telemetry as `repro stats-report --counters` prints it (every
# counter, gauge and histogram digest less the rows that move with the host
# or the worker count). --write cuts it from the flag-less stats-on run;
# --check compares it after each of the four stats-on runs, so a change of
# behaviour that moves no table digit still fails here.
set -euo pipefail
cd "$(dirname "$0")/.."

scale="--peers 40 --seeds 1 --rounds 10"
goldens=(
    "tests/golden/fig9_table1.txt|fig9 table1"
    "tests/golden/all_engines.txt|randomness resilience eclipse"
    "tests/golden/steady_churn_capture.txt|fig2 fig3 fig4 fig7 fig8 fig10 correctness ablation extensions timeline capture"
    "tests/golden/capture_shuffle_lying.txt|capture --attack shuffle-lying"
)

bin=target/release/repro
cargo build --release -q -p nylon-workloads --bin repro

case "${1:-}" in
--write)
    out=$(mktemp -d)
    trap 'rm -rf "$out"' EXIT
    for g in "${goldens[@]}"; do
        golden=${g%%|*}
        "$bin" ${g#*|} $scale 2>/dev/null > "$golden"
        "$bin" ${g#*|} $scale --stats "$out/stats.jsonl" 2>/dev/null > /dev/null
        "$bin" stats-report --counters "$out/stats.jsonl" > "${golden%.txt}.counters"
    done
    ;;
--check)
    # diff FILE RUN, naming the run (golden, --shards flag, --stats) that
    # diverged before failing.
    same() {
        diff "$1" "$2" || {
            echo "golden.sh: $1 diverges from: repro ${g#*|} $scale ${shards:-(no --shards flag)}, --stats $3" >&2
            exit 1
        }
    }
    out=$(mktemp -d)
    trap 'rm -rf "$out"' EXIT
    for g in "${goldens[@]}"; do
        golden=${g%%|*}
        for shards in "" "--shards 1" "--shards 2" "--shards 4"; do
            "$bin" ${g#*|} $scale $shards 2>/dev/null > "$out/off.txt"
            "$bin" ${g#*|} $scale $shards --stats "$out/stats.jsonl" 2>/dev/null > "$out/on.txt"
            same "$golden" "$out/off.txt" off
            same "$golden" "$out/on.txt" on
            "$bin" stats-report --counters "$out/stats.jsonl" > "$out/counters"
            same "${golden%.txt}.counters" "$out/counters" on
        done
    done
    echo "goldens reproduced: no flag and --shards 1, 2, 4; --stats off and on; counters at each stats-on run"
    ;;
*)
    echo "usage: scripts/golden.sh --check | --write" >&2
    exit 1
    ;;
esac
