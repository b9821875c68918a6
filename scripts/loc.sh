#!/usr/bin/env bash
# Code-size ledger: non-blank, non-comment Rust lines per crate, split into
# code (everything outside `#[cfg(test)]` items) and test lines (the
# `#[cfg(test)]` items plus the crate's tests/ and benches/ directories), so
# a "less code" claim cannot be met by moving lines into tests.
#
#   scripts/loc.sh [ROOT]      # ROOT defaults to the repo this script is in
#
# A `#[cfg(test)]` attribute hides the item that follows it: up to the
# matching close brace, or to the `;` of a brace-less item. Line comments
# (`//`, `///`, `//!`) and blank lines never count; block comments are not
# used in this workspace.
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

# Prints "<code> <test>" for the files given as arguments.
count() {
  [ "$#" -gt 0 ] || { echo "0 0"; return; }
  awk '
    FNR == 1 { skipping = 0; pending = 0; depth = 0 }
    /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    {
      if (!skipping && !pending && $0 ~ /^[[:space:]]*#\[cfg\(test\)\]/) {
        pending = 1; test++; next
      }
      if (pending || skipping) {
        test++
        opens = gsub(/\{/, "{"); closes = gsub(/\}/, "}")
        if (pending) {
          if (opens > 0) { pending = 0; skipping = 1; depth = 0 }
          else if ($0 ~ /;[[:space:]]*$/) { pending = 0; next }
          else next
        }
        depth += opens - closes
        if (depth <= 0) skipping = 0
        next
      }
      code++
    }
    END { printf "%d %d\n", code, test }
  ' "$@"
}

rs_files() { find "$@" -name '*.rs' 2>/dev/null | sort; }

printf '%-12s %8s %8s\n' crate code test
total_code=0
total_test=0
for dir in crates/*/; do
  crate=$(basename "$dir")
  mapfile -t src < <(rs_files "$dir/src")
  mapfile -t aux < <(rs_files "$dir/tests" "$dir/benches")
  read -r code inline <<<"$(count "${src[@]}")"
  read -r a b <<<"$(count "${aux[@]}")"
  test=$((inline + a + b))
  printf '%-12s %8d %8d\n' "$crate" "$code" "$test"
  total_code=$((total_code + code))
  total_test=$((total_test + test))
done
printf '%-12s %8d %8d\n' "crates/" "$total_code" "$total_test"

mapfile -t outer < <(rs_files tests examples src)
read -r a b <<<"$(count "${outer[@]}")"
printf '%-12s %8s %8d\n' "tests+examples" "-" "$((a + b))"

# Outside crates/: the vendored stand-ins and the performance ledger, same
# split, so a deletion there shows up too.
for dir in vendor benchmark; do
  mapfile -t src < <(rs_files "$dir" | grep -v '/target/')
  read -r code test <<<"$(count "${src[@]}")"
  printf '%-12s %8d %8d\n' "$dir/" "$code" "$test"
done
