"""offline-build: the operator's one-time build at paper scale.

The ``standard_trace`` collection plan (Sec. IV-A) -- every zoo model
on 1-20 servers, CIFAR-10/P100 at batch 32 and 64 and
Tiny-ImageNet/E5-2630 at batch 32, 2,340 points -- swept through
``generate_trace(..., workers=2)``, then GHN meta-training for both
datasets, ``PredictDDL.fit`` on a seeded 80% and ``predict_trace`` on
the held-out rest (Fig. 9's protocol).

The timed phase repeats the build, each time in a fresh process forked
from the set-up, so every build pays the operator's one-time costs
(worker pool spawn, GHN structure builds, verify memos) as a first
build would.  On the 2-vCPU host the benchmark was tuned on, the first
build of a run was the slowest in most runs, by up to a quarter, even
after an untimed warm-up sweep; each stage's median over four builds
absorbs it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import multiprocessing
import os
import resource
import signal
import time

import numpy as np

from perfstats import digest, float_bits

from repro import PredictDDL
from repro.cluster import make_cluster
from repro.graphs.zoo import list_models
from repro.obs import TRACER
from repro.sim import (STANDARD_CLUSTER_SIZES, DLWorkload,
                       TrainingSimulator, generate_trace)

#: (dataset, server class, batch per server, seed offset) per sweep.
PLAN = (("cifar10", "gpu-p100", 32, 0),
        ("cifar10", "gpu-p100", 64, 1),
        ("tiny-imagenet", "cpu-e5-2630", 32, 2))
SWEEP_WORKERS = 2
#: The sweep keeps ``standard_trace``'s seeds; ``--seed`` draws the
#: held-out split.
SWEEP_SEED = 0
HOLDOUT = 0.2
#: Sweep points replayed in-process for the simulator and static
#: memory layers (the sweep itself runs in worker processes).
REPLAY_POINTS = 48
#: Cold builds a timed phase makes at the least; past that it starts
#: new ones until ``--seconds`` have passed.
MIN_BUILDS = 4
BUILD_TIMEOUT = 90.0


@dataclasses.dataclass(frozen=True)
class Build:
    stages: dict        # stage name -> seconds, in build order
    points: list
    held_out: list
    predicted: np.ndarray
    embed_cache: dict   # the build's GHN registry embedding-cache stats

    @property
    def seconds(self) -> float:
        return sum(self.stages.values())

    @property
    def actual(self) -> np.ndarray:
        return np.array([p.total_time for p in self.held_out])

    @property
    def mre(self) -> float:
        return float(np.mean(np.abs(self.predicted - self.actual)
                             / self.actual))


class OfflineBuild:
    name = "offline-build"

    def __init__(self, seed: int):
        self.seed = seed
        self.models = list_models()
        total = len(PLAN) * len(self.models) * len(STANDARD_CLUSTER_SIZES)
        order = np.random.default_rng(seed).permutation(total)
        self.test = np.sort(order[:round(total * HOLDOUT)])
        self.train = np.sort(order[round(total * HOLDOUT):])

    def input_digest(self) -> str:
        return digest([list(PLAN), self.models,
                       list(STANDARD_CLUSTER_SIZES), self.seed,
                       self.test.tolist()])

    def build(self) -> Build:
        stages = {}
        clock = [time.perf_counter()]

        def lap(stage: str) -> None:
            now = time.perf_counter()
            stages[stage] = now - clock[0]
            clock[0] = now

        with TRACER.span("bench.offline.build", seed=self.seed):
            points = []
            for dataset, server_class, batch, offset in PLAN:
                points += generate_trace(
                    self.models, dataset, server_class,
                    STANDARD_CLUSTER_SIZES, batch_size_per_server=batch,
                    seed=SWEEP_SEED + offset, workers=SWEEP_WORKERS)
                lap(f"sweep {dataset}/{batch}")
            predictor = PredictDDL(seed=SWEEP_SEED)
            for dataset in sorted({plan[0] for plan in PLAN}):
                predictor.registry.get(dataset)
                lap(f"ghn train {dataset}")
            predictor.fit([points[i] for i in self.train])
            lap("fit")
            held_out = [points[i] for i in self.test]
            predicted = predictor.predict_trace(held_out)
            lap("evaluate")
        return Build(stages, points, held_out,
                     np.asarray(predicted, dtype=float),
                     dict(predictor.registry.embed_cache.stats()))

    def summary(self, build: Build) -> dict:
        """What the timed phase keeps of one build."""
        return {"stages": build.stages, "mre": build.mre,
                "points": len(build.points),
                "held_out": len(build.held_out),
                "digests": self.output_digests(build),
                "problems": self.check(build),
                "rss_mb": resource.getrusage(resource.RUSAGE_SELF)
                .ru_maxrss / 1024.0}

    def _build_child(self, sender) -> None:
        # Its own process group, so a hung build goes down with its pool
        # workers.
        os.setpgid(0, 0)
        try:
            sender.send((True, self.summary(self.build())))
        except BaseException as exc:  # noqa: BLE001 - reported upstream
            sender.send((False, f"{type(exc).__name__}: {exc}"))
        finally:
            self.close()
            sender.close()

    def cold_build(self) -> dict:
        """One build in a process forked from this one, which stays as
        cold as it was; the build's summary."""
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(target=self._build_child, args=(sender,),
                                name="offline-build")
        child.start()
        sender.close()
        try:
            if not receiver.poll(BUILD_TIMEOUT):
                raise RuntimeError(f"no build in {BUILD_TIMEOUT:g} s")
            ok, result = receiver.recv()
        except EOFError:
            ok, result = False, "build process ended without a result"
        finally:
            child.join(BUILD_TIMEOUT)
            if child.is_alive():
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(child.pid, signal.SIGKILL)
                child.join()
            receiver.close()
        if not ok:
            raise RuntimeError(result)
        return result

    def cold_builds(self, seconds: float) -> tuple[list[dict], list[str]]:
        """Cold builds, one after another: at least ``MIN_BUILDS``, and
        new ones until ``seconds`` have passed.  Returns the summaries
        of the builds that ended and the errors of those that did not."""
        builds, errors = [], []
        start = time.perf_counter()
        while (len(builds) + len(errors) < MIN_BUILDS
               or time.perf_counter() - start < seconds):
            try:
                builds.append(self.cold_build())
            except RuntimeError as exc:
                errors.append(f"build {len(builds) + len(errors) + 1}: "
                              f"{exc}")
        return builds, errors

    def replay(self) -> None:
        """Seeded sample of sweep points through the simulator and the
        static memory estimate, in this process, under bench spans."""
        from repro.static import training_memory_bytes

        rng = np.random.default_rng(self.seed)
        simulator = TrainingSimulator()
        for _ in range(REPLAY_POINTS):
            dataset, server_class, batch, _ = PLAN[rng.integers(len(PLAN))]
            workload = DLWorkload(str(rng.choice(self.models)), dataset,
                                  batch)
            cluster = make_cluster(int(rng.choice(STANDARD_CLUSTER_SIZES)),
                                   server_class)
            with TRACER.span("bench.sim.run"):
                simulator.run(workload, cluster, rng)
            with TRACER.span("bench.static.memory"):
                training_memory_bytes(workload.graph, batch)

    @staticmethod
    def output_digests(build: Build) -> dict:
        return {
            "sweep records": digest(p.as_record() for p in build.points),
            "held-out predictions": digest(float_bits(v)
                                           for v in build.predicted),
        }

    @staticmethod
    def check(build: Build) -> list[str]:
        bad = [i for i, v in enumerate(build.predicted)
               if not (np.isfinite(v) and v > 0)]
        return [f"held-out prediction {i} is {build.predicted[i]!r}"
                for i in bad]

    def close(self) -> None:
        try:
            from repro.parallel import shutdown_pool
        except ImportError:
            return
        shutdown_pool()
