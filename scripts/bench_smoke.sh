#!/usr/bin/env bash
# Benchmark smoke gate: short runs of perfbench/run.py on the two gated
# workloads (sched-warm, offline-build), each untraced and traced.
#
#   scripts/bench_smoke.sh
#
# Fails unless every run exits 0 and the last line of its standard
# output is a JSON result with "correct": true -- the benchmark's own
# output contract.  Anything the program prints to stdout after the
# result breaks that contract; the traced offline-build run, the one
# that builds inside the benchmark's own process, shows it first.
# About two minutes on a 2-vCPU host.
set -euo pipefail
cd "$(dirname "$0")/.."

seconds=3
seed=1
out="$(mktemp)"
trap 'rm -f "$out"' EXIT

for workload in sched-warm offline-build; do
    for trace in 0 1; do
        run="perfbench $workload --trace $trace --seconds $seconds"
        echo "==> $run"
        if ! python3 perfbench/run.py --workload "$workload" \
                --seed "$seed" --seconds "$seconds" \
                --trace "$trace" > "$out"; then
            echo "$run exited non-zero; last output:" >&2
            tail -n 25 "$out" >&2
            exit 1
        fi
        if ! tail -n 1 "$out" | python3 -c '
import json
import sys

result = json.loads(sys.stdin.read())
sys.exit(0 if isinstance(result, dict)
         and result.get("correct") is True else 1)'; then
            echo "$run did not end with a correct JSON result;" \
                 "last output:" >&2
            tail -n 25 "$out" >&2
            exit 1
        fi
    done
done
echo "perfbench smoke passed."
