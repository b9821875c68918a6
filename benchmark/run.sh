#!/usr/bin/env bash
# The performance ledger's one command: build, then run.
#
#   benchmark/run.sh                         every workload, 3 interleaved reps
#   benchmark/run.sh --trace                 ... plus per-layer metrics, span files, sweeps
#   benchmark/run.sh --check                 self-test (determinism, seam loop, build profile)
#   benchmark/run.sh --compare A.json B.json
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1   (driver form)
#
# See benchmark/README.md. Runs from the repository root, whatever the
# caller's directory; builds offline (every dependency is a path).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

target="${CARGO_TARGET_DIR:-benchmark/target}"
# Build chatter goes to stderr: stdout carries results only.
CARGO_TARGET_DIR="$target" cargo build --release --offline \
    --manifest-path benchmark/Cargo.toml 1>&2

if [ -z "${LEDGER_COMMIT:-}" ]; then
    LEDGER_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi
export LEDGER_COMMIT
exec "$target/release/ledger" --out-dir benchmark/out "$@"
