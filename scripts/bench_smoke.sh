#!/usr/bin/env bash
# Benchmark smoke gate: short runs of perfbench/run.py on the two gated
# workloads (sched-warm, offline-build), each untraced and traced.
#
#   scripts/bench_smoke.sh
#
# Fails unless every run exits 0 and the last line of its standard
# output is a complete result: a JSON object with "correct": true whose
# "metrics" hold every name BENCHMARK.json lists for that kind of run
# (end_to_end for --trace 0, per_layer for --trace 1), each with a
# finite numeric "value".  Two ways to break that contract: printing to
# stdout after the result, and a run whose result is correct but
# silently leaves out metrics -- the per-layer step skips a metric whose
# span or accessor is missing, so a run that lost one still exits 0.
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
import math
import sys

kind = "per_layer" if sys.argv[1] == "1" else "end_to_end"
with open("BENCHMARK.json") as fh:
    names = [metric["name"] for metric in json.load(fh)[kind]]
result = json.loads(sys.stdin.read())
if not isinstance(result, dict):
    sys.exit("the last line is not a JSON object")
problems = [] if result.get("correct") is True else ["not correct"]
metrics = result.get("metrics")
if not isinstance(metrics, dict):
    metrics = {}
for name in names:
    entry = metrics.get(name)
    value = entry.get("value") if isinstance(entry, dict) else None
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        problems.append(f"{kind} metric {name}: {value!r}")
for problem in problems:
    print(problem, file=sys.stderr)
sys.exit(1 if problems else 0)' "$trace"; then
            echo "$run did not end with a complete, correct JSON" \
                 "result; last output:" >&2
            tail -n 25 "$out" >&2
            exit 1
        fi
    done
done
echo "perfbench smoke passed."
