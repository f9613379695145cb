#!/usr/bin/env bash
# The one command: build the benchmark, run workloads one process at a
# time (never concurrently), print every metric by name with its unit.
#
#   benchmark/run.sh                       every workload, end-to-end metrics
#   benchmark/run.sh --trace               every workload, the traced pass
#   benchmark/run.sh --workload fb_replay  one workload
#   ... [--seed N] [--reps K | --seconds S] [--trace 0|1]
#
# Results land in benchmark/out/: results.json (or layers.json for the
# traced pass), one .tsv per workload with quartiles and sample counts,
# and with --trace one trace_<workload>.jsonl of spans each.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"

# A bare `--trace` means `--trace 1`.
args=()
workload=""
trace=0
while [ $# -gt 0 ]; do
    case "$1" in
    --trace)
        if [ "${2:-}" = 0 ] || [ "${2:-}" = 1 ]; then trace="$2"; shift; else trace=1; fi
        ;;
    --workload)
        workload="${2:?--workload needs a name}"; shift
        ;;
    *)
        args+=("$1")
        ;;
    esac
    shift
done
args+=(--trace "$trace" --out "$out")

# Build from source into CARGO_TARGET_DIR when the caller set one (a
# relative one is relative to where this was started, as cargo reads it).
cargo build --release --offline --locked --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/ocs-benchmark"
mkdir -p "$out"

if [ -n "$workload" ]; then
    exec "$bin" --workload "$workload" "${args[@]}"
fi

[ "$trace" = 1 ] && summary="$out/layers.json" || summary="$out/results.json"
status=0
sep=""
printf '{"host_cores": %s, "workloads": {' "$(nproc)" >"$summary"
for w in $("$bin" list); do
    log="$out/$w.log"
    "$bin" --workload "$w" "${args[@]}" | tee "$log" | grep -v '^{' || status=1
    printf '%s\n  "%s": %s' "$sep" "$w" "$(tail -n 1 "$log")" >>"$summary"
    sep=","
done
printf '\n}}\n' >>"$summary"
echo "wrote $summary"
exit "$status"
