"""Deterministic work sharding over one shared process pool.

The Fig. 9-13 sweeps and the trace generator are embarrassingly
parallel, but naive pools make results depend on scheduling.
:func:`parallel_map` guarantees **bit-identical results at any worker
count** with three rules:

* *Seed ownership*: callers derive one :class:`numpy.random.SeedSequence`
  substream per task (:func:`substreams`) **before** sharding, so a
  task's randomness is a function of its index, never of which worker
  ran it.
* *Pure tasks*: the task function must depend only on its argument
  (including its substream).  Worker-side mutation of shared state is
  impossible across processes, which is why the pool uses processes
  rather than threads.
* *Ordered reassembly*: results are returned in task order, not
  completion order.

``workers <= 1`` runs a plain in-process loop.  ``workers > 1`` cuts
the tasks into contiguous chunks and runs them on one process-global
:class:`~concurrent.futures.ProcessPoolExecutor` (``fork`` where the
platform has it).  The first such map starts the executor and later
maps reuse it; a map asking for more workers replaces it, and
:func:`shutdown_pool` or interpreter exit stops it.  Both paths produce
the same bytes, so the pooled path falls back to the serial loop --
counting ``parallel.fallbacks{reason}`` -- when ``fn`` or a task cannot
be pickled or processes cannot be started.
"""

from __future__ import annotations

import atexit
import math
import multiprocessing
import os
import pickle
import threading
from collections.abc import Callable, Sequence
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import TypeVar

import numpy as np

from .obs import METRICS, RECORDER, TRACER

__all__ = ["parallel_map", "substreams", "shutdown_pool", "pool_stats"]

T = TypeVar("T")
R = TypeVar("R")

#: Chunks per active worker: enough slack to even out unequal chunk
#: costs without drowning in queue traffic.
CHUNKS_PER_WORKER = 4

_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None)
_LOCK = threading.Lock()
_executor: ProcessPoolExecutor | None = None
_executor_workers = 0
_executor_pid = 0
_stats = {"spawns": 0, "respawns": 0, "worker_deaths": 0, "jobs": 0,
          "chunks": 0, "steals": 0}


def substreams(seed: int | np.random.SeedSequence,
               count: int) -> list[np.random.SeedSequence]:
    """``count`` independent child seed sequences of ``seed``.

    Spawned once, in task order, before any sharding -- so task ``i``
    gets the same stream whether the sweep runs on 1 worker or 16.
    """
    root = (seed if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed))
    return root.spawn(count)


def parallel_map(fn: Callable[[T], R], tasks: Sequence[T], *,
                 workers: int = 1) -> list[R]:
    """Map ``fn`` over ``tasks``, results in task order.

    ``workers > 1`` runs the map on the shared executor.  ``fn`` must
    be a module-level callable.  Each chunk is pickled once, here, so
    an unpicklable ``fn`` or task -- even the last one -- sends the
    whole map to the serial loop before anything is dispatched.  A
    task's exception propagates as itself, lowest task index first.
    If a worker dies mid-map, the executor is replaced and the whole
    map runs once more; pure tasks make the rerun invisible, and a
    second death raises :class:`BrokenProcessPool`.
    """
    tasks = list(tasks)
    if workers <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    active = min(workers, len(tasks))
    size = math.ceil(len(tasks) / (active * CHUNKS_PER_WORKER))
    with TRACER.span("parallel.map", tasks=len(tasks), workers=active):
        try:
            blobs = [pickle.dumps((fn, tasks[i:i + size]),
                                  protocol=pickle.HIGHEST_PROTOCOL)
                     for i in range(0, len(tasks), size)]
        except Exception:  # noqa: BLE001 - any pickle failure => serial
            return _fallback(fn, tasks, "unpicklable")
        with _LOCK:
            try:
                return _gather(blobs, workers)
            except _StartFailed as failed:
                return _fallback(fn, tasks, str(failed))


def shutdown_pool() -> None:
    """Stop the shared executor and wait for its processes to exit
    (a no-op when none is live)."""
    global _executor
    executor, _executor = _executor, None
    if executor is not None and _executor_pid == os.getpid():
        executor.shutdown(wait=True, cancel_futures=True)


def pool_stats() -> dict | None:
    """Lifecycle counters while the shared executor is live, else None.

    The counters add up over the life of the process, across
    replacements.  ``steals`` is always 0: every worker takes its next
    chunk off the executor's one call queue, so no chunk has a home
    worker to be stolen from.  The key stays because
    ``perfbench/layers.py`` reads it.
    """
    return dict(_stats) if _executor is not None else None


def _run_chunk(blob: bytes) -> list:
    """Worker side: one chunk's tasks, in order."""
    fn, tasks = pickle.loads(blob)
    return [fn(task) for task in tasks]


def _count(key: str, amount: int = 1) -> None:
    _stats[key] += amount
    METRICS.counter(f"parallel.pool.{key}").inc(amount)


def _pool(workers: int) -> ProcessPoolExecutor:
    """The shared executor, started or replaced to run ``workers``."""
    global _executor, _executor_workers, _executor_pid
    if _executor is not None and _executor_pid != os.getpid():
        _executor = None  # inherited through fork: its threads stayed behind
    if _executor is None or _executor_workers < workers:
        shutdown_pool()
        _executor = ProcessPoolExecutor(workers, mp_context=_CONTEXT)
        _executor_workers, _executor_pid = workers, os.getpid()
        _count("spawns", workers)
    return _executor


class _StartFailed(Exception):
    """The executor's processes could not be started (an ``OSError``,
    named in the message)."""


def _gather(blobs: list[bytes], workers: int, *,
            retry: bool = True) -> list:
    """Every chunk's results, in task order.  A worker death replaces
    the executor and reruns the whole map once.  On any failure the
    chunks not yet started are cancelled, so the next map does not
    queue behind them."""
    futures: list[Future] = []
    try:
        futures = _submit(blobs, workers)
        return [result for future in futures
                for result in future.result()]
    except BrokenProcessPool:
        if not retry:
            raise
        RECORDER.record("parallel.worker_died", workers=workers)
        _count("worker_deaths")
        shutdown_pool()
        _count("respawns", workers)
        RECORDER.record("parallel.worker_respawn", workers=workers)
        return _gather(blobs, workers, retry=False)
    finally:
        for future in futures:
            future.cancel()


def _submit(blobs: list[bytes], workers: int) -> list[Future]:
    try:
        executor = _pool(workers)
        futures = [executor.submit(_run_chunk, blob) for blob in blobs]
    except OSError as exc:
        raise _StartFailed(type(exc).__name__) from exc
    _count("jobs")
    _count("chunks", len(blobs))
    return futures


def _fallback(fn: Callable[[T], R], tasks: Sequence[T],
              reason: str) -> list[R]:
    METRICS.counter("parallel.fallbacks", labels={"reason": reason}).inc()
    return [fn(task) for task in tasks]


atexit.register(shutdown_pool)
