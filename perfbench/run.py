"""PredictDDL benchmark: one command per workload, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload sched-warm --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with ``repro.obs`` off;
``--trace 1`` runs an untraced and a traced pass and reports the
per-layer metrics, writing the traced spans to ``perfbench/out/`` as
JSONL.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every output check passed.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402 - the clock above must start first
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("sched-warm", "nas-cold", "offline-build")
#: Set-ups per untraced run: at least SETUP_REPEATS, and more, up to
#: SETUP_MAX, while all of them so far took under SETUP_SECONDS; setup_s
#: is their median.  So cheap set-ups (offline-build's imports, well
#: under a second and the noisiest) get more samples than the served
#: workloads' predictor builds.
SETUP_REPEATS = 3
SETUP_MAX = 7
SETUP_SECONDS = 5.0
CHILD_TIMEOUT = 60.0

END_TO_END = {"setup_s": "s", "p50_ms": "ms", "tail_ms": "ms",
              "throughput_rps": "1/s", "peak_rss_mb": "MB",
              "mre": "fraction"}


def import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse any other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {SRC}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


def make_workload(name: str, seed: int, seconds: float, trace: bool):
    if name == "offline-build":
        from offline import OfflineBuild
        return OfflineBuild(seed)
    from served import NasCold, SchedWarm
    cls = SchedWarm if name == "sched-warm" else NasCold
    return cls(seed, seconds, trace)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cache_stats(cache) -> dict:
    return dict(cache.stats())


def delta(after: dict | None, before: dict | None) -> dict | None:
    if after is None or before is None:
        return None
    return {k: after[k] - before.get(k, 0) for k in ("hits", "misses")}


def structure_stats() -> dict | None:
    try:
        from repro.ghn import structure_cache
    except ImportError:
        return None
    return cache_stats(structure_cache())


def pool_stats() -> dict | None:
    try:
        from repro.parallel import pool_stats as stats
    except ImportError:
        return None
    return stats()


class Tracing:
    """One traced pass: obs on, fresh instruments, counters bracketed."""

    def __init__(self, caches):
        self.caches = caches

    def __enter__(self):
        from repro import obs
        obs.disable()
        obs.reset()
        self.before = {k: f() for k, f in self.caches.items()}
        obs.enable()
        return self

    def __exit__(self, *exc_info):
        from repro import obs
        obs.disable()
        self.after = {k: f() for k, f in self.caches.items()}
        self.records = obs.TRACER.records()
        self.snapshot = obs.METRICS.snapshot()
        return False

    def delta(self, key: str) -> dict | None:
        return delta(self.after[key], self.before[key])

    def dump(self, workload: str, seed: int) -> Path:
        from repro.obs.export import write_jsonl
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{workload}-seed{seed}.spans.jsonl"
        write_jsonl(self.records, path)
        return path


# ----------------------------------------------------------------------
# served workloads
# ----------------------------------------------------------------------
def served_digests(wl, phase) -> list[str]:
    return [f"inputs digest   {wl.input_digest()}",
            f"outputs digest  {wl.output_digest(phase)}"]


def run_served(wl, args, report: list[str]) -> tuple[dict, int, int, list]:
    from served import in_sample_mre, loop_metrics

    phase = wl.timed_phase()
    figures = loop_metrics(wl, phase)
    rss = peak_rss_mb()
    problems, _ = wl.check()
    tail = f"p{wl.tail_q:g}_ms"
    report += served_digests(wl, phase) + phase.errors[:20] + [
        f"p50_ms          {figures['p50_ms']} ms "
        f"({figures['samples']} samples)",
        f"{tail:<15} {figures['tail_ms']} ms (reported as tail_ms)",
        f"throughput_rps  {figures['throughput_rps']} 1/s",
    ]
    metrics = {"p50_ms": figures["p50_ms"], "tail_ms": figures["tail_ms"],
               "throughput_rps": figures["throughput_rps"],
               "peak_rss_mb": rss,
               "mre": in_sample_mre(wl.predictor, wl.points)}
    return metrics, figures["samples"], figures["failed"], problems


def trace_served(wl, args, report: list[str]) -> tuple[dict, int, int,
                                                        list]:
    from layers import Spans, finalize, ghn_layers, served_layers
    from served import loop_metrics

    untraced = wl.timed_phase()
    caches = {"result": lambda: cache_stats(wl.server.cache),
              "embed": lambda: cache_stats(wl.predictor.registry
                                           .embed_cache),
              "structure": structure_stats}
    with Tracing(caches) as tracing:
        traced = wl.timed_phase()
    problems, busy = wl.check()
    report += (served_digests(wl, traced) + untraced.errors[:20]
               + traced.errors[:20])
    by_model = {}
    for key, seconds in busy.items():
        by_model.setdefault(wl.model_servers(key), []).append(seconds)
    spans = Spans(tracing.records)
    round_trips = None
    if wl.name == "nas-cold":
        round_trips = [s.replied - s.sent for s in traced.samples if s.ok]
    measured = served_layers(
        spans, tracing.snapshot, round_trips=round_trips,
        busy={k: statistics.fmean(v) for k, v in by_model.items()},
        result_cache=tracing.delta("result"))
    measured.update(ghn_layers(spans, tracing.snapshot,
                               embed_cache=tracing.delta("embed"),
                               structure_cache=tracing.delta("structure")))
    off = loop_metrics(wl, untraced)["p50_ms"]
    on = loop_metrics(wl, traced)["p50_ms"]
    measured["obs.overhead_ratio"] = on / off if off and on else None
    path = tracing.dump(wl.name, args.seed)
    stats = traced.stats
    report += [f"traced p50_ms {on} vs untraced {off}",
               f"spans written {len(tracing.records)} -> {path}"]
    return (finalize(wl.name, measured), stats.attempted + untraced.stats
            .attempted, stats.failed + untraced.stats.failed, problems)


# ----------------------------------------------------------------------
# offline-build
# ----------------------------------------------------------------------
def offline_digests(wl, digests: dict) -> list[str]:
    return [f"inputs digest   {wl.input_digest()}"] + [
        f"{label:<15} {value}" for label, value in digests.items()]


def run_offline(wl, args, report: list[str]) -> tuple[dict, int, int,
                                                       list]:
    from perfstats import stage_medians

    builds, errors = wl.cold_builds(args.seconds)
    if not builds:
        return {}, len(errors), 0, errors
    problems = list(errors)
    first = builds[0]
    for i, build in enumerate(builds[1:], start=2):
        if build["digests"] != first["digests"]:
            problems.append(f"build {i} outputs differ from build 1")
    problems += [p for build in builds for p in build["problems"]]
    stages = stage_medians([build["stages"] for build in builds])
    seconds = sum(stages.values())
    report += offline_digests(wl, first["digests"]) + [
        "build_s samples " + " ".join(
            f"{sum(b['stages'].values()):.3f}" for b in builds),
        f"build_s         {seconds} s (each stage's median over "
        f"{len(builds)} cold builds, summed)",
        "stage medians   " + ", ".join(f"{stage} {value:.3f}"
                                        for stage, value in stages.items()),
        f"mre             {first['mre']} ({first['held_out']} held-out "
        f"points)"]
    metrics = {"p50_ms": seconds * 1e3, "tail_ms": seconds * 1e3,
               "throughput_rps": first["points"] / seconds,
               "peak_rss_mb": max([peak_rss_mb()]
                                  + [b["rss_mb"] for b in builds]),
               "mre": first["mre"]}
    attempted = sum(b["held_out"] for b in builds) + len(errors)
    return metrics, attempted, 0, problems


def trace_offline(wl, args, report: list[str]) -> tuple[dict, int, int,
                                                         list]:
    from layers import Spans, finalize, ghn_layers, offline_layers

    wl.build()
    untraced = wl.build()
    caches = {"structure": structure_stats}
    with Tracing(caches) as tracing:
        traced = wl.build()
        wl.replay()
    problems = wl.check(untraced) + wl.check(traced)
    report += offline_digests(wl, wl.output_digests(traced))
    spans = Spans(tracing.records)
    measured = offline_layers(spans, pool=pool_stats())
    measured.update(ghn_layers(spans, tracing.snapshot,
                               embed_cache=traced.embed_cache,
                               structure_cache=tracing.delta("structure")))
    measured["obs.overhead_ratio"] = traced.seconds / untraced.seconds
    path = tracing.dump(wl.name, args.seed)
    report += [f"traced build_s {traced.seconds} vs untraced "
               f"{untraced.seconds}",
               f"spans written {len(tracing.records)} -> {path}"]
    held_out = len(traced.held_out) * 2
    return finalize(wl.name, measured), held_out, 0, problems


# ----------------------------------------------------------------------
def child_setup(args) -> dict:
    """One more set-up, in a fresh process."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0", "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up process failed: {done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print setup_s as JSON and exit")
    args = parser.parse_args(argv)
    import_program()

    wl = make_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    # Every timed phase starts from the same collector state: otherwise
    # whether CPython's next full collection lands inside the phase
    # decides nas-cold's peak RSS (about 555 vs 710 MB).
    gc.collect()
    setup_s = time.perf_counter() - START
    build_s = getattr(wl, "build_s", None)
    if args.setup_only:
        wl.close()
        print(json.dumps({"setup_s": setup_s, "build_s": build_s}))
        return 0

    report = [f"workload {args.workload}  seed {args.seed}  "
              f"seconds {args.seconds:g}  trace {args.trace}"]
    offline = args.workload == "offline-build"
    step = {(False, 0): run_served, (False, 1): trace_served,
            (True, 0): run_offline, (True, 1): trace_offline}
    try:
        metrics, attempted, failed, problems = step[offline, args.trace](
            wl, args, report)
    finally:
        wl.close()
    failed += len(problems)
    report.append(f"fail_ratio      {failed / attempted} "
                  f"({failed} of {attempted})")

    if not args.trace:
        setups = [{"setup_s": setup_s, "build_s": build_s}]
        try:
            while len(setups) < SETUP_REPEATS or (
                    len(setups) < SETUP_MAX and sum(
                        s["setup_s"] for s in setups) < SETUP_SECONDS):
                setups.append(child_setup(args))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            problems.append(str(exc))
            failed += 1
        metrics["setup_s"] = statistics.median(s["setup_s"]
                                               for s in setups)
        report.append("setup_s samples " + " ".join(
            f"{s['setup_s']:.3f}" for s in setups))
        if not offline:
            report.append("build_s         " + str(statistics.median(
                s["build_s"] for s in setups)) + " s (set-up predictor "
                "build, median of the set-ups)")
        metrics = {name: {"value": metrics.get(name), "unit": unit}
                   for name, unit in END_TO_END.items()}
    for name, entry in metrics.items():
        report.append(f"  {name:<30} {entry['value']} {entry['unit']}")
    correct = failed == 0 and all(
        isinstance(m["value"], float) and math.isfinite(m["value"])
        for m in metrics.values())
    report.append("checks          " + ("ok" if correct else "FAILED"))
    report += [f"  {p}" for p in problems[:20]]
    print("\n".join(report))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
