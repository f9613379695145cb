#!/usr/bin/env bash
# Self-test: run the benchmark twice and fail unless every end-to-end
# metric of the second set is within its bound of the first — simulated
# metrics bit-equal, fail_share 0 both times. Prints the offending
# workload / metric rows otherwise. Arguments go to both runs
# (e.g. --seed 3 --seconds 8).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"

for set in first second; do
    rm -f "$out"/result_*.tsv
    "$here/run.sh" "$@" --trace 0
    cat "$out"/result_*.tsv >"$out/$set.tsv"
done
"${CARGO_TARGET_DIR:-$here/target}/release/ocs-benchmark" compare "$out/first.tsv" "$out/second.tsv"
