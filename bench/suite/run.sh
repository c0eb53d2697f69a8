#!/usr/bin/env bash
# Runs every syncts_bench workload, timed pass then traced pass, each in
# its own single-threaded process, and prints one JSON array of the
# detail objects (the input compare.py reads).
#
#     bench/suite/run.sh <build-dir> <seed> [seconds]
#
# <build-dir> holds a built syncts_bench (see README.md). Exits nonzero
# when any pass reported a failed operation or check.
set -euo pipefail

if [[ $# -lt 2 ]]; then
    echo "usage: $0 <build-dir> <seed> [seconds]" >&2
    exit 2
fi
bin="$1/syncts_bench"
seed="$2"
seconds="${3:-30}"

status=0
separator=""
echo "["
for workload in rdv_uniform_classic rdv_bursty_batched rdv_hostile analysis_stream; do
    for trace in 0 1; do
        if ! output=$("$bin" --workload "$workload" --seed "$seed" \
                             --seconds "$seconds" --trace "$trace"); then
            status=1
        fi
        detail=$(grep '^{"syncts_bench":' <<<"$output" || true)
        if [[ -z "$detail" ]]; then
            echo "$0: $workload (trace $trace) printed no result" >&2
            status=1
            continue
        fi
        # Strip the {"syncts_bench": ... } wrapper.
        detail=${detail#'{"syncts_bench":'}
        printf '%s%s\n' "$separator" "${detail%'}'}"
        separator=","
    done
done
echo "]"
exit "$status"
