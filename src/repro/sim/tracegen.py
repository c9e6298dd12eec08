"""Trace generation: the execution-history dataset of Sec. IV-A.

The paper collected 2,000 data points by training each of 31 models on
1-20 servers for two datasets (CIFAR-10 workloads on GPU servers,
Tiny-ImageNet on CPU servers -- Sec. IV-B2 notes "DNNs trained on CIFAR-10
leverage GPUs").  :func:`standard_trace` reproduces that collection plan
against the simulator; :func:`generate_trace` is the general sweep.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Sequence

import numpy as np

from ..cluster import Cluster, make_cluster
from ..obs import METRICS, TRACER
from ..parallel import parallel_map
from .runner import TrainingRun, TrainingSimulator
from .workload import DLWorkload

__all__ = ["TracePoint", "generate_trace", "standard_trace",
           "STANDARD_CLUSTER_SIZES"]

#: The paper trains on 1-20 "high-end" servers (Sec. IV-A2).
STANDARD_CLUSTER_SIZES: tuple[int, ...] = tuple(range(1, 21))


@dataclasses.dataclass(frozen=True)
class TracePoint:
    """One collected measurement: a run plus its cluster configuration."""

    run: TrainingRun
    cluster: Cluster

    @property
    def workload(self) -> DLWorkload:
        return self.run.workload

    @property
    def total_time(self) -> float:
        return self.run.total_time

    def as_record(self) -> dict:
        record = self.run.as_record()
        record.update(self.cluster.as_feature_dict())
        return record


def _simulate_point(task: tuple) -> TracePoint:
    """One sweep point; module-level so worker processes can unpickle it.

    Pure function of its task tuple (including the point's own
    SeedSequence substream), which is what makes the sharded sweep
    bit-identical to the serial one.
    """
    (model, num_servers, dataset_name, server_class,
     batch_size_per_server, epochs, stream, simulator) = task
    workload = DLWorkload(
        model_name=model, dataset_name=dataset_name,
        batch_size_per_server=batch_size_per_server,
        epochs=epochs)
    cluster = make_cluster(num_servers, server_class)
    run = simulator.run(workload, cluster,
                        np.random.default_rng(stream))
    return TracePoint(run=run, cluster=cluster)


def generate_trace(models: Sequence[str], dataset_name: str,
                   server_class: str,
                   cluster_sizes: Iterable[int] = STANDARD_CLUSTER_SIZES,
                   *, batch_size_per_server: int = 32, epochs: int = 1,
                   seed: int = 0,
                   simulator: TrainingSimulator | None = None,
                   workers: int = 1) -> list[TracePoint]:
    """Sweep ``models x cluster_sizes`` on one dataset / server class.

    Each point gets an independent RNG stream derived from ``seed`` so
    the trace is reproducible yet the noise is uncorrelated across
    points.  ``workers > 1`` shards the sweep over the process-global
    executor via :func:`repro.parallel.parallel_map`: substreams are
    spawned before sharding and results reassemble in task order, so
    the returned points are bit-identical at any worker count (the
    serial path is the ``workers=1`` special case of the same code),
    and consecutive sweeps reuse the executor's processes.
    Simulator-internal obs metrics are only recorded in-process, i.e.
    on the serial path.
    """
    simulator = simulator or TrainingSimulator()
    seed_seq = np.random.SeedSequence(seed)
    combos = [(m, p) for m in models for p in cluster_sizes]
    streams = seed_seq.spawn(len(combos))
    tasks = [(model, num_servers, dataset_name, server_class,
              batch_size_per_server, epochs, stream, simulator)
             for (model, num_servers), stream in zip(combos, streams)]
    point_counter = METRICS.counter("tracegen.points")
    with TRACER.timed("tracegen.generate", dataset=dataset_name,
                      num_models=len(models), num_points=len(combos),
                      workers=workers) as span:
        points = parallel_map(_simulate_point, tasks, workers=workers)
        point_counter.inc(len(points))
    if span.duration > 0:
        METRICS.gauge("tracegen.points_per_sec").set(
            len(points) / span.duration)
    return points


def standard_trace(models: Sequence[str], *, seed: int = 0,
                   simulator: TrainingSimulator | None = None,
                   cluster_sizes: Iterable[int] = STANDARD_CLUSTER_SIZES,
                   extra_cifar_batch: int | None = 64
                   ) -> dict[str, list[TracePoint]]:
    """The paper's collection plan, keyed by dataset name.

    * CIFAR-10 on GPU (P100) servers, batch 32 per server -- plus an
      optional second batch size to reach the paper's ~2,000 points;
    * Tiny-ImageNet on CPU (E5-2630) servers, batch 32 per server.
    """
    simulator = simulator or TrainingSimulator()
    sizes = tuple(cluster_sizes)
    cifar = generate_trace(models, "cifar10", "gpu-p100", sizes,
                           batch_size_per_server=32, seed=seed,
                           simulator=simulator)
    if extra_cifar_batch:
        cifar += generate_trace(models, "cifar10", "gpu-p100", sizes,
                                batch_size_per_server=extra_cifar_batch,
                                seed=seed + 1, simulator=simulator)
    tiny = generate_trace(models, "tiny-imagenet", "cpu-e5-2630", sizes,
                          batch_size_per_server=32, seed=seed + 2,
                          simulator=simulator)
    return {"cifar10": cifar, "tiny-imagenet": tiny}
