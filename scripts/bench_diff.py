#!/usr/bin/env python3
"""Diff a fresh BENCH_perf.json against the committed baseline.

CI's bench job runs the full (non-quick) perf suite and calls

    python scripts/bench_diff.py BENCH_perf.json BENCH_perf.fresh.json

Two kinds of checks:

* **Hard invariants** on the fresh payload -- bitwise/determinism
  contracts that must hold exactly, independent of machine speed:
  embed max-abs-diff 0.0, tracegen bit-identical to serial at every
  worker count, obs predictions unchanged, refit promoted +
  deterministic, and the suite's own gates passing (which include the
  workers>1 throughput floor of ``check_gates``).
* **Ratio fields** vs the baseline with a generous tolerance
  (``--tolerance``, default 0.5): CI runners are noisy and shared, so
  throughput may halve before we call it a regression, and latency may
  double.  The committed baseline is refreshed whenever the numbers
  move for a *known* reason (see README "Performance").

Exits non-zero with one line per violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _hard_invariants(fresh: dict) -> list[str]:
    bad: list[str] = []
    for point in fresh.get("embed", []):
        if point["max_abs_diff"] != 0.0:
            bad.append(f"embed k={point['k']}: max_abs_diff "
                       f"{point['max_abs_diff']:g} != 0.0")
    for point in fresh.get("tracegen", []):
        if not point["identical_to_serial"]:
            bad.append(f"tracegen workers={point['workers']}: not "
                       f"bit-identical to serial")
    obs = fresh.get("obs")
    if obs and not obs["predictions_identical"]:
        bad.append("obs: observability changed served predictions")
    refit = fresh.get("refit")
    if refit:
        if not refit["promoted"]:
            bad.append("refit: candidate lost the promotion gate")
        if not refit["deterministic"]:
            bad.append("refit: refits from one snapshot diverged")
    gates = fresh.get("gates", {})
    if gates.get("status") != "pass":
        for failure in gates.get("failures", ["gates missing"]):
            bad.append(f"suite gate: {failure}")
    return bad


def _by_key(points: list[dict], key: str) -> dict:
    return {p[key]: p for p in points}


def _ratio_fields(baseline: dict, fresh: dict,
                  tolerance: float) -> list[str]:
    """Higher-is-better fields may shrink to ``tolerance`` x baseline;
    lower-is-better (latency) fields may grow to ``1/tolerance`` x."""
    bad: list[str] = []

    def floor(name: str, base: float, now: float) -> None:
        if base > 0 and now < base * tolerance:
            bad.append(f"{name}: {now:.2f} fell below "
                       f"{tolerance:.2f}x baseline {base:.2f}")

    def ceiling(name: str, base: float, now: float) -> None:
        if base > 0 and now > base / tolerance:
            bad.append(f"{name}: {now:.2f} rose above "
                       f"{1 / tolerance:.2f}x baseline {base:.2f}")

    base_embed = _by_key(baseline.get("embed", []), "k")
    for k, point in _by_key(fresh.get("embed", []), "k").items():
        if k in base_embed and k >= 8:
            floor(f"embed k={k} speedup",
                  base_embed[k]["speedup"], point["speedup"])
    base_tg = _by_key(baseline.get("tracegen", []), "workers")
    for w, point in _by_key(fresh.get("tracegen", []),
                            "workers").items():
        if w in base_tg:
            floor(f"tracegen workers={w} points/s",
                  base_tg[w]["points_per_sec"],
                  point["points_per_sec"])
    base_serve, serve = baseline.get("serve"), fresh.get("serve")
    if base_serve and serve:
        floor("serve throughput_rps",
              base_serve["throughput_rps"], serve["throughput_rps"])
        ceiling("serve p50_ms", base_serve["p50_ms"], serve["p50_ms"])
    return bad


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=Path,
                        help="committed BENCH_perf.json")
    parser.add_argument("fresh", type=Path,
                        help="freshly generated payload")
    parser.add_argument("--tolerance", type=float, default=0.5,
                        help="throughput may shrink to this fraction "
                             "of baseline before failing "
                             "(default: %(default)s)")
    args = parser.parse_args(argv)
    baseline = json.loads(args.baseline.read_text())
    fresh = json.loads(args.fresh.read_text())

    failures = _hard_invariants(fresh)
    failures += _ratio_fields(baseline, fresh, args.tolerance)
    for failure in failures:
        print(f"bench diff FAILED: {failure}", file=sys.stderr)
    if not failures:
        tracegen = {p["workers"]: p["points_per_sec"]
                    for p in fresh.get("tracegen", [])}
        summary = ", ".join(f"w{w}={pps:.0f}pps"
                            for w, pps in sorted(tracegen.items()))
        print(f"bench diff OK vs {args.baseline} "
              f"(tolerance {args.tolerance}): {summary}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
