"""Performance-regression suite for the batched-embedding stack.

Micro-benchmarks with machine-readable output (``BENCH_perf.json`` at
the repo root is the committed baseline):

* **embed**: one batched :meth:`repro.ghn.GHN2.embed_many` call over K
  zoo graphs vs K sequential :meth:`~repro.ghn.GHN2.embed` calls.  The
  suite reports wall time, speedup and the max absolute difference
  between the two result sets -- which must be exactly ``0.0``, the
  bitwise-equivalence contract of the block-diagonal batching layer.
* **tracegen**: :func:`repro.sim.generate_trace` points/second at
  several worker counts, asserting the sharded sweeps return records
  bit-identical to the serial sweep.  One untimed sweep starts the
  shared process pool first, so the numbers reflect the steady state
  of a long-running sweep service; on non-quick runs the gate
  additionally requires every ``workers > 1`` throughput to be at
  least the serial throughput -- the "parallel must actually pay"
  contract.
* **serve**: p50/p99 latency and throughput of a
  :class:`~repro.serve.PredictionServer` burst driven by the existing
  :class:`~repro.serve.LoadGenerator`.
* **obs**: serving p50 with observability fully on (tracing + metrics
  + flight recorder) vs fully off, gating the ``repro.obs`` overhead
  contract -- instrumentation must stay within a few percent of the
  uninstrumented path, and enabling it must leave predictions
  bitwise-identical.
* **refit**: the continual-refit loop's quality/cost contract -- a
  candidate refit from drifted store records must win the promotion
  gate in every family, two refits from the same snapshot must be
  bit-identical, and shadow mirroring must keep serve p50 inside the
  observability overhead budget.

``run_perf_suite`` composes them into one JSON payload;
``check_gates`` evaluates the regression gates (batched throughput >=
sequential, bitwise equality, tracegen determinism) and returns the
list of violations.  ``repro bench --suite perf`` is the CLI entry;
``scripts/ci.sh`` runs the ``--quick`` variant as a smoke gate.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import time
from collections.abc import Sequence

import numpy as np

from ..ghn import GHN2, GHNConfig
from ..graphs.zoo import get_model, list_models
from ..obs import TRACER
from ..parallel import pool_stats
from ..sim import generate_trace

__all__ = ["EmbedPerfPoint", "TracegenPerfPoint", "ServePerfResult",
           "ObsOverheadResult", "RefitPerfResult",
           "embed_throughput", "tracegen_throughput", "serve_latency",
           "obs_overhead", "continual_refit",
           "run_perf_suite", "check_gates"]

#: Batch sizes exercised by the full suite (the ISSUE's K in {1, 8, 32}).
DEFAULT_BATCH_SIZES: tuple[int, ...] = (1, 8, 32)

#: Worker counts exercised by the tracegen benchmark.
DEFAULT_WORKER_COUNTS: tuple[int, ...] = (1, 4)


@dataclasses.dataclass(frozen=True)
class EmbedPerfPoint:
    """Batched vs sequential embedding at one batch size ``k``."""

    k: int
    num_nodes: int
    sequential_seconds: float
    batched_seconds: float
    max_abs_diff: float

    @property
    def speedup(self) -> float:
        if self.batched_seconds <= 0:
            return float("inf")
        return self.sequential_seconds / self.batched_seconds

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "num_nodes": self.num_nodes,
            "sequential_seconds": self.sequential_seconds,
            "batched_seconds": self.batched_seconds,
            "speedup": self.speedup,
            "max_abs_diff": self.max_abs_diff,
        }


@dataclasses.dataclass(frozen=True)
class TracegenPerfPoint:
    """Trace-generation throughput at one worker count."""

    workers: int
    points: int
    seconds: float
    identical_to_serial: bool

    @property
    def points_per_sec(self) -> float:
        if self.seconds <= 0:
            return float("inf")
        return self.points / self.seconds

    def to_dict(self) -> dict:
        return {
            "workers": self.workers,
            "points": self.points,
            "seconds": self.seconds,
            "points_per_sec": self.points_per_sec,
            "identical_to_serial": self.identical_to_serial,
        }


@dataclasses.dataclass(frozen=True)
class ObsOverheadResult:
    """Serving-latency cost of full observability (on vs off)."""

    requests: int
    off_p50_ms: float       # p50 with tracing/metrics/flight disabled
    on_p50_ms: float        # p50 with all three enabled
    overhead_ratio: float   # on/off (1.0 = free)
    predictions_identical: bool  # bitwise contract: obs never changes
                                 # a prediction

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class RefitPerfResult:
    """Continual-refit quality and shadow-mirroring cost.

    ``families`` maps workload family to incumbent/candidate MAE on the
    eval window; ``deterministic`` asserts two refits from the same
    store snapshot produced the same version id and bitwise-identical
    eval predictions; the ``shadow_*`` fields compare serve p50 with
    and without a shadow scorer mirroring every executed group.
    """

    store_records: int
    snapshot_digest: str
    candidate_version: str
    promoted: bool
    families: dict
    deterministic: bool
    shadow_off_p50_ms: float
    shadow_on_p50_ms: float
    shadow_overhead_ratio: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class ServePerfResult:
    """Latency percentiles of one serving burst."""

    requests: int
    completed: int
    p50_ms: float
    p99_ms: float
    throughput_rps: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _bench_graphs(k: int, models: Sequence[str]) -> list:
    """``k`` zoo graphs cycling through ``models``.

    Distinct model names keep the batch heterogeneous (different node
    counts and depths), which is the realistic shape for ``embed_many``.
    """
    return [get_model(models[i % len(models)]) for i in range(k)]


def embed_throughput(batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES, *,
                     hidden_dim: int = 32, seed: int = 0,
                     models: Sequence[str] | None = None
                     ) -> list[EmbedPerfPoint]:
    """Time ``embed_many`` against sequential ``embed`` per batch size.

    Structures are warmed before timing (one untimed round) so both
    paths measure GNN compute, not schedule construction -- matching
    the steady state of a long-running server.  The max absolute
    difference between batched and sequential embeddings is recorded;
    the regression gate requires it to be exactly ``0.0``.
    """
    models = list(models) if models else list_models()
    ghn = GHN2(GHNConfig(hidden_dim=hidden_dim, seed=seed))
    results: list[EmbedPerfPoint] = []
    for k in batch_sizes:
        graphs = _bench_graphs(k, models)
        # Warm structure cache and verifier memo on both paths.
        sequential = [ghn.embed(g) for g in graphs]
        ghn.embed_many(graphs)
        with TRACER.span("bench.perf.embed", k=k):
            start = time.perf_counter()
            sequential = [ghn.embed(g) for g in graphs]
            mid = time.perf_counter()
            batched = ghn.embed_many(graphs)
            end = time.perf_counter()
        diff = max(float(np.max(np.abs(b - s)))
                   for b, s in zip(batched, sequential))
        results.append(EmbedPerfPoint(
            k=k,
            num_nodes=sum(len(g.nodes) for g in graphs),
            sequential_seconds=mid - start,
            batched_seconds=end - mid,
            max_abs_diff=diff,
        ))
    return results


def tracegen_throughput(
        worker_counts: Sequence[int] = DEFAULT_WORKER_COUNTS, *,
        models: Sequence[str] = ("resnet18", "vgg11", "alexnet"),
        cluster_sizes: Sequence[int] = tuple(range(1, 13)),
        seed: int = 0, repeats: int = 3) -> list[TracegenPerfPoint]:
    """Points/second of ``generate_trace`` per worker count.

    Every sharded run is compared record-by-record against the serial
    baseline; ``identical_to_serial`` must hold at any worker count
    (the :mod:`repro.parallel` determinism contract).

    One untimed sweep at the largest worker count starts the shared
    process pool before any measurement -- spawn cost is a one-time
    tax a long-running sweep service never pays again, and the
    regression gate targets the steady state.  Each worker count
    reports the **median** wall time of ``repeats`` runs so a single
    scheduler stall cannot flip the ``workers=4 >= workers=1``
    throughput gate.
    """
    max_workers = max(worker_counts)
    if max_workers > 1:
        generate_trace(list(models), "cifar10", "gpu-p100",
                       list(cluster_sizes)[:2], seed=seed,
                       workers=max_workers)
    baseline_records: list[dict] | None = None
    results: list[TracegenPerfPoint] = []
    for workers in worker_counts:
        timings: list[float] = []
        points = []
        with TRACER.span("bench.perf.tracegen", workers=workers):
            for _ in range(max(1, repeats)):
                start = time.perf_counter()
                points = generate_trace(
                    list(models), "cifar10", "gpu-p100", cluster_sizes,
                    seed=seed, workers=workers)
                timings.append(time.perf_counter() - start)
        seconds = statistics.median(timings)
        records = [p.as_record() for p in points]
        if baseline_records is None:
            baseline_records = records
            identical = True
        else:
            identical = records == baseline_records
        results.append(TracegenPerfPoint(
            workers=workers, points=len(points), seconds=seconds,
            identical_to_serial=identical))
    return results


def serve_latency(*, requests: int = 60, rate: float = 1000.0,
                  seed: int = 0, ghn_dim: int = 8,
                  ghn_steps: int = 8, workers: int = 2
                  ) -> ServePerfResult:
    """One loadgen burst against a throwaway predictor.

    Reuses the serve layer's own traffic generator so the numbers are
    comparable with ``repro serve --self-test``.
    """
    from ..cluster import make_cluster  # noqa: F401 - spec sanity
    from ..core import PredictDDL
    from ..ghn import GHNRegistry
    from ..serve import (LoadGenerator, PredictionServer, ServeConfig,
                         TrafficSpec)

    registry = GHNRegistry(
        config=GHNConfig(hidden_dim=ghn_dim, seed=seed),
        train_steps=ghn_steps)
    points = generate_trace(["resnet18", "alexnet"], "cifar10",
                            "gpu-p100", [1, 2, 4], seed=seed)
    predictor = PredictDDL(registry=registry, seed=seed).fit(points)
    spec = TrafficSpec(models=("resnet18", "alexnet"), dataset="cifar10",
                       cluster_sizes=(2, 4), server_class="gpu-p100",
                       batch_size=32, num_requests=requests, rate=rate,
                       seed=seed)
    config = ServeConfig(workers=workers,
                         max_queue_depth=max(1, requests))
    with TRACER.span("bench.perf.serve", requests=requests):
        with PredictionServer(predictor, config) as server:
            report = LoadGenerator(server, spec).run()
    payload = report.to_dict()
    return ServePerfResult(
        requests=payload["sent"], completed=payload["completed"],
        p50_ms=payload["p50_ms"], p99_ms=payload["p99_ms"],
        throughput_rps=payload["throughput_rps"])


def obs_overhead(*, requests: int = 60, rate: float = 2000.0,
                 seed: int = 0, ghn_dim: int = 8, ghn_steps: int = 8,
                 workers: int = 2) -> ObsOverheadResult:
    """Serve p50 with observability fully off vs fully on.

    The :mod:`repro.obs` contract (DESIGN.md): disabled instrumentation
    is a single attribute check on the hot path, and enabling it never
    changes a prediction.  Both claims are measured here and enforced
    by :func:`check_gates` -- the on/off p50 ratio must stay within the
    overhead budget and direct ``predict`` results under observability
    must be bitwise-identical to the uninstrumented ones.

    One untimed warm-up burst precedes the measurements, then the two
    modes run as alternating matched pairs (off burst immediately
    followed by an on burst) and the reported numbers come from the
    pair with the **median** on/off ratio.  Pairing cancels slow drift
    in the ambient load between bursts, and the median is robust to a
    single lucky-fast or GC-stalled burst -- either of which would
    otherwise dominate a sub-5% gate at millisecond p50s.
    """
    from .. import obs
    from ..core import PredictDDL
    from ..ghn import GHNRegistry
    from ..serve import (LoadGenerator, PredictionServer, ServeConfig,
                         TrafficSpec)

    registry = GHNRegistry(
        config=GHNConfig(hidden_dim=ghn_dim, seed=seed),
        train_steps=ghn_steps)
    points = generate_trace(["resnet18", "alexnet"], "cifar10",
                            "gpu-p100", [1, 2, 4], seed=seed)
    predictor = PredictDDL(registry=registry, seed=seed).fit(points)
    spec = TrafficSpec(models=("resnet18", "alexnet"), dataset="cifar10",
                       cluster_sizes=(2, 4), server_class="gpu-p100",
                       batch_size=32, num_requests=requests, rate=rate,
                       seed=seed)
    probe = spec.build_requests()[:8]

    def burst():
        config = ServeConfig(workers=workers,
                             max_queue_depth=max(1, requests))
        with PredictionServer(predictor, config) as server:
            return LoadGenerator(server, spec).run()

    prev = (obs.TRACER.enabled, obs.METRICS.enabled,
            obs.RECORDER.enabled)
    pairs: list[tuple[float, float]] = []
    try:
        obs.disable()
        burst()  # warm predictor/embedding caches off the clock
        preds_off = [predictor.predict(r).predicted_time for r in probe]
        obs.enable()
        preds_on = [predictor.predict(r).predicted_time for r in probe]
        for _ in range(5):
            obs.disable()
            off = burst().p50
            obs.enable()
            pairs.append((off, burst().p50))
    finally:
        (obs.TRACER.enabled, obs.METRICS.enabled,
         obs.RECORDER.enabled) = prev
    pairs.sort(key=lambda p: (p[1] / p[0]) if p[0] > 0 else 1.0)
    off_p50, on_p50 = pairs[len(pairs) // 2]
    ratio = (on_p50 / off_p50) if off_p50 > 0 else 1.0
    return ObsOverheadResult(
        requests=requests,
        off_p50_ms=off_p50 * 1e3,
        on_p50_ms=on_p50 * 1e3,
        overhead_ratio=ratio,
        predictions_identical=preds_on == preds_off)


def continual_refit(*, requests: int = 48, rate: float = 2000.0,
                    seed: int = 0, ghn_dim: int = 8, ghn_steps: int = 8,
                    workers: int = 2, drift_factor: float = 1.6
                    ) -> RefitPerfResult:
    """Refit quality, determinism, and shadow-mirroring serve cost.

    Three contracts from the continual-refit loop (DESIGN.md §13),
    measured without the full drift scenario (``repro refit
    --self-test`` covers that end to end):

    * **quality** -- after the cluster "drifts" (ground truth scaled by
      ``drift_factor``), a candidate refit from the store's newest
      records must match or beat the incumbent MAE in every family on
      the promotion gate's eval window;
    * **determinism** -- two refits from the same snapshot must yield
      the same version id and bitwise-identical predictions;
    * **cost** -- attaching an async :class:`~repro.refit.ShadowScorer`
      adds only an enqueue to the serving path, so mirrored-burst p50
      must stay inside the same overhead budget as observability
      (matched off/on burst pairs, median ratio -- the
      :func:`obs_overhead` protocol).
    """
    import os
    import tempfile

    from ..core import PredictDDL
    from ..ghn import GHNRegistry
    from ..refit import PromotionGate, RefitConfig, ShadowScorer
    from ..refit import refit_from_snapshot
    from ..serve import (LoadGenerator, PredictionServer, ServeConfig,
                         TrafficSpec)
    from ..store import StoredObservation, TraceStore, ingest_trace

    registry = GHNRegistry(
        config=GHNConfig(hidden_dim=ghn_dim, seed=seed),
        train_steps=ghn_steps)
    points = generate_trace(["resnet18", "alexnet"], "cifar10",
                            "gpu-p100", [1, 2, 4], seed=seed)
    predictor = PredictDDL(registry=registry, seed=seed).fit(points)

    with tempfile.TemporaryDirectory() as tmp:
        store = TraceStore(os.path.join(tmp, "store"))
        ingest_trace(store, points)
        # Served ground truth after the cluster drifted: same workload
        # mix, actual times scaled -- the incumbent is now wrong by
        # ~drift_factor while the refit window sees only drifted rows.
        drifted = [
            dataclasses.replace(
                StoredObservation.from_trace_point(p), kind="served",
                actual_time=p.total_time * drift_factor,
                model_version="v0")
            for _ in range(3) for p in points]
        store.append_many(drifted)
        snapshot = store.snapshot()
        config = RefitConfig(regressor_name="PR",
                             train_window=len(drifted),
                             eval_window=len(drifted), seed=seed)
        with TRACER.span("bench.perf.refit", rows=len(snapshot)):
            first = refit_from_snapshot(predictor, snapshot, config,
                                        parent="v0")
            second = refit_from_snapshot(predictor, snapshot, config,
                                         parent="v0")
        eval_points = [rec.training_point() for _, rec in
                       snapshot.records(trainable_only=True)]
        feats = predictor.feature_matrix(eval_points)
        deterministic = (
            first.meta.version == second.meta.version
            and np.array_equal(first.engine.predict(feats),
                               second.engine.predict(feats)))
        gate = PromotionGate(predictor, eval_window=config.eval_window)
        decision = gate.evaluate(snapshot, incumbent=predictor.engine,
                                 candidate=first.engine)
        store_records = len(snapshot)
        snapshot_digest = snapshot.digest

    spec = TrafficSpec(models=("resnet18", "alexnet"), dataset="cifar10",
                       cluster_sizes=(2, 4), server_class="gpu-p100",
                       batch_size=32, num_requests=requests, rate=rate,
                       seed=seed)

    def burst(shadow_engine=None):
        cfg = ServeConfig(workers=workers,
                          max_queue_depth=max(1, requests))
        with PredictionServer(predictor, cfg) as server:
            scorer = None
            if shadow_engine is not None:
                scorer = ShadowScorer(predictor, shadow_engine,
                                      first.meta.version)
                server.attach_shadow(scorer)
            try:
                return LoadGenerator(server, spec).run()
            finally:
                if scorer is not None:
                    server.attach_shadow(None)
                    scorer.close()

    burst()  # warm predictor/embedding caches off the clock
    pairs: list[tuple[float, float]] = []
    for _ in range(5):
        off = burst().p50
        pairs.append((off, burst(first.engine).p50))
    pairs.sort(key=lambda p: (p[1] / p[0]) if p[0] > 0 else 1.0)
    off_p50, on_p50 = pairs[len(pairs) // 2]
    return RefitPerfResult(
        store_records=store_records,
        snapshot_digest=snapshot_digest,
        candidate_version=first.meta.version,
        promoted=decision.promote,
        families={c.family: c.to_dict() for c in decision.families},
        deterministic=deterministic,
        shadow_off_p50_ms=off_p50 * 1e3,
        shadow_on_p50_ms=on_p50 * 1e3,
        shadow_overhead_ratio=(on_p50 / off_p50) if off_p50 > 0
        else 1.0)


def run_perf_suite(*, quick: bool = False, seed: int = 0) -> dict:
    """Run every perf benchmark and return the JSON payload.

    ``quick`` shrinks the suite to a CI smoke (K up to 8, a handful of
    zoo models, no serving burst) while keeping every gate meaningful.
    """
    if quick:
        embed = embed_throughput((1, 8), hidden_dim=16, seed=seed,
                                 models=["resnet18", "vgg11", "alexnet",
                                         "squeezenet1_0"])
        tracegen = tracegen_throughput(
            (1, 4), cluster_sizes=tuple(range(1, 5)), seed=seed)
        serve = None
        obs_cost = obs_overhead(requests=32, seed=seed)
        refit = continual_refit(requests=24, seed=seed)
    else:
        embed = embed_throughput(seed=seed)
        tracegen = tracegen_throughput(seed=seed)
        serve = serve_latency(seed=seed)
        obs_cost = obs_overhead(seed=seed)
        refit = continual_refit(seed=seed)
    return {
        "suite": "perf",
        "quick": quick,
        "seed": seed,
        "cpus": _usable_cpus(),
        "embed": [p.to_dict() for p in embed],
        "tracegen": [p.to_dict() for p in tracegen],
        "parallel_pool": pool_stats(),
        "serve": serve.to_dict() if serve is not None else None,
        "obs": obs_cost.to_dict(),
        "refit": refit.to_dict(),
    }


def _usable_cpus() -> int:
    """Schedulable CPUs as reported by the platform (informational).

    Container runtimes routinely under-report here while still letting
    child processes run in parallel, so the throughput gate ignores
    this number and holds every non-quick payload to the same floor.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def check_gates(payload: dict, *, min_speedup: float = 1.0,
                min_speedup_k: int = 8,
                max_obs_overhead: float = 1.05,
                obs_slack_ms: float = 0.25,
                min_parallel_ratio: float = 1.0) -> list[str]:
    """Regression gates over a ``run_perf_suite`` payload.

    * batched embedding must be bitwise-identical to sequential;
    * batched throughput must be at least ``min_speedup`` x sequential
      for every batch size ``k >= min_speedup_k`` (singleton batches
      are allowed to tie -- there is nothing to amortize at K=1);
    * sharded trace generation must be bit-identical to serial;
    * on **non-quick** payloads, every ``workers > 1`` tracegen point
      must reach at least ``min_parallel_ratio`` x the serial
      points/second -- the "parallel must actually pay" contract.  The
      recorded ``cpus`` do not relax it.  Quick payloads (and legacy
      payloads predating the ``quick`` key) skip this gate entirely:
      their sweeps are too small to amortize even a warm dispatch, so
      the ratio would gate on noise;
    * observability-on predictions must be bitwise-identical to
      observability-off, and the obs-on serve p50 must stay within
      ``max_obs_overhead`` x the obs-off p50 (an absolute slack of
      ``obs_slack_ms`` absorbs scheduler jitter at sub-millisecond
      p50s, where a 5% ratio would gate on noise);
    * the continual-refit candidate must win promotion (per-family MAE
      <= incumbent on the eval window), refits must be deterministic,
      and shadow mirroring must keep serve p50 inside the same
      ``max_obs_overhead`` budget (same absolute slack).

    Returns human-readable violation strings (empty = pass).
    """
    failures: list[str] = []
    for point in payload["embed"]:
        if point["max_abs_diff"] != 0.0:
            failures.append(
                f"embed k={point['k']}: batched differs from "
                f"sequential (max abs diff {point['max_abs_diff']:g})")
        if (point["k"] >= min_speedup_k
                and point["speedup"] < min_speedup):
            failures.append(
                f"embed k={point['k']}: speedup {point['speedup']:.2f}x "
                f"below gate {min_speedup:.2f}x")
    for point in payload["tracegen"]:
        if not point["identical_to_serial"]:
            failures.append(
                f"tracegen workers={point['workers']}: records differ "
                f"from the serial sweep")
    serial = next((p for p in payload["tracegen"]
                   if p.get("workers") == 1), None)
    if serial and not payload.get("quick", True):
        serial_pps = serial["points_per_sec"]
        for point in payload["tracegen"]:
            if point["workers"] <= 1 or serial_pps <= 0:
                continue
            ratio = point["points_per_sec"] / serial_pps
            if ratio < min_parallel_ratio:
                failures.append(
                    f"tracegen workers={point['workers']}: "
                    f"{point['points_per_sec']:.1f} points/s is only "
                    f"{ratio:.2f}x the serial "
                    f"{serial_pps:.1f} points/s "
                    f"(gate {min_parallel_ratio:.2f}x -- the pool must "
                    f"beat serial)")
    obs_point = payload.get("obs")
    if obs_point:
        if not obs_point["predictions_identical"]:
            failures.append(
                "obs: enabling observability changed served "
                "predictions (bitwise contract broken)")
        ratio = obs_point["overhead_ratio"]
        extra_ms = obs_point["on_p50_ms"] - obs_point["off_p50_ms"]
        if ratio > max_obs_overhead and extra_ms > obs_slack_ms:
            failures.append(
                f"obs: serve p50 with observability on is "
                f"{ratio:.2f}x the off-path p50 "
                f"(+{extra_ms:.3f}ms, gate {max_obs_overhead:.2f}x)")
    refit_point = payload.get("refit")
    if refit_point:
        if not refit_point["promoted"]:
            failures.append(
                "refit: candidate lost the promotion gate after drift "
                "(per-family MAE must be <= incumbent)")
        for family, stats in sorted(refit_point["families"].items()):
            if stats["candidate_mae"] > stats["incumbent_mae"]:
                failures.append(
                    f"refit {family}: candidate MAE "
                    f"{stats['candidate_mae']:.4g} above incumbent "
                    f"{stats['incumbent_mae']:.4g} on the eval window")
        if not refit_point["deterministic"]:
            failures.append(
                "refit: two refits from the same snapshot diverged "
                "(version id or predictions)")
        ratio = refit_point["shadow_overhead_ratio"]
        extra_ms = (refit_point["shadow_on_p50_ms"]
                    - refit_point["shadow_off_p50_ms"])
        if ratio > max_obs_overhead and extra_ms > obs_slack_ms:
            failures.append(
                f"refit: serve p50 with shadow mirroring on is "
                f"{ratio:.2f}x the unmirrored p50 "
                f"(+{extra_ms:.3f}ms, gate {max_obs_overhead:.2f}x)")
    return failures
