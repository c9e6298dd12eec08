"""Concurrent prediction server over a trained PredictDDL.

The paper's Controller (Sec. III-D, Fig. 7) is a request-serving front
end: a Listener receives requests, a Task Checker validates them, and
the pipeline answers with a predicted training time.  The seed code
served those steps one call at a time in the caller's thread;
:class:`PredictionServer` turns them into a real service:

* a bounded ingress queue guarded by admission control
  (:mod:`repro.serve.admission`) with per-request deadlines;
* a pool of worker threads that micro-batch adjacent requests
  (:mod:`repro.serve.batching`) and deduplicate identical ones;
* a bounded LRU result cache (:mod:`repro.serve.cache`) -- a hit skips
  the whole pipeline, including the GHN embed span;
* two front doors: in-process :meth:`PredictionServer.submit`
  returning a :class:`ServeFuture`, and a fabric endpoint speaking the
  ``("predict", request)`` -> ``("result", PredictionResult)`` /
  ``("error", str)`` protocol, with :class:`ServeClient` as the
  blocking client helper;
* a **worker supervisor**: a monitor thread that detects dead worker
  threads (e.g. under :mod:`repro.faults` crash injection), respawns
  them in place, and re-queues the dead worker's in-flight requests --
  exactly once per crash, with a total attempt cap so a persistently
  crashing request fails loudly instead of looping;
* **graceful degradation**: when sustained worker loss exhausts the
  restart budget (``ServeConfig.max_worker_restarts``) and no workers
  remain, the server answers from the result cache where possible and
  otherwise fails fast with a deterministic
  :class:`~repro.serve.admission.DegradedError` -- never a silent
  wrong answer, never an unbounded hang;
* an **exactly-once fabric protocol**: clients may wrap requests in a
  :class:`RequestEnvelope` carrying a request id; the server
  deduplicates by ``(sender, id)`` (duplicate deliveries are
  suppressed while in flight and answered from a bounded reply cache
  afterwards) so lossy links with resends still yield exactly one
  execution and one effective reply per logical request;
* graceful shutdown: :meth:`PredictionServer.stop` drains the queue
  (or fails pending futures when ``drain=False``) before joining the
  workers and closing the endpoint.

Determinism policy: per-request predictions are produced by the exact
same ``PredictDDL.predict`` code path as direct calls -- batching only
changes *when* work runs and which identical requests share one
computation, never the arithmetic -- so served predictions are
bitwise-identical to offline ones (asserted by
tests/serve/test_server.py), and recovery re-executes a request
through that same path rather than fabricating an answer.
"""

from __future__ import annotations

import dataclasses
import itertools
import queue
import threading
import time
from collections import OrderedDict
from collections.abc import Callable

from ..cluster import Fabric, FabricError
from ..cluster.messaging import MessageDropped
from ..core.requests import PredictionRequest, PredictionResult
from ..obs import METRICS, RECORDER, TRACER
from ..obs.context import TraceContext
from .admission import (AdmissionController, AdmissionError,
                        DeadlineExceededError, DegradedError,
                        QueueFullError, ServerClosedError,
                        retry_with_backoff)
from .batching import MicroBatcher
from .cache import DEFAULT_CACHE_SIZE, ResultCache, request_cache_key

__all__ = ["ServeConfig", "ServeFuture", "PredictionServer",
           "ServeClient", "RequestEnvelope", "DEFAULT_ADDRESS"]

DEFAULT_ADDRESS = "predictddl-serve"

#: Latency histogram buckets (seconds): serving latencies are ms-scale.
LATENCY_BUCKETS: tuple[float, ...] = (
    1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 5.0)

#: Floor for the pump/supervisor thread joins in :meth:`stop`: both
#: threads exit within one 50 ms poll of ``_stopping`` being set, so they
#: always deserve a small nonzero join budget even when slow workers
#: consumed the caller's entire stop timeout (a zero-timeout join would
#: return with the thread still alive and the endpoint about to close
#: under it).
_JOIN_FLOOR = 0.05

#: Bound on remembered (sender, request id) replies for the
#: exactly-once fabric protocol.
_REPLY_CACHE_SIZE = 256


@dataclasses.dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs for one :class:`PredictionServer`.

    Attributes
    ----------
    workers:
        Size of the prediction thread pool.
    batch_window:
        Micro-batch coalescing window in seconds (0 disables waiting;
        already-queued requests still batch).
    max_batch:
        Upper bound on requests executed as one micro-batch.
    cache_size:
        Result-cache capacity (entries).
    max_queue_depth:
        Admission cap on in-flight (queued + executing) requests.
    default_deadline:
        Deadline in seconds applied to requests submitted without one
        (None: no deadline).
    address:
        Fabric address the server listens on when given a fabric.
    max_worker_restarts:
        Supervisor budget for respawning dead workers (None:
        unlimited).  Once exhausted with no live workers left the
        server degrades: cache hits still serve, everything else fails
        with :class:`~repro.serve.admission.DegradedError`.
    max_attempts:
        Total execution attempts per request across worker crashes; a
        request whose workers keep dying fails with a diagnostic after
        this many, instead of re-queueing forever.
    supervisor_interval:
        Poll period of the worker supervisor in seconds.
    """

    workers: int = 2
    batch_window: float = 0.002
    max_batch: int = 16
    cache_size: int = DEFAULT_CACHE_SIZE
    max_queue_depth: int = 64
    default_deadline: float | None = None
    address: str = DEFAULT_ADDRESS
    max_worker_restarts: int | None = None
    max_attempts: int = 5
    supervisor_interval: float = 0.005

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}")


@dataclasses.dataclass(frozen=True)
class RequestEnvelope:
    """Fabric request wrapper enabling exactly-once semantics.

    ``request_id`` must be unique per (client endpoint, logical
    request); resends of the same logical request reuse the id, which
    is what lets the server suppress duplicate executions and replay
    the recorded reply.

    ``trace`` is the client's trace context (None when tracing is
    off): the server's ingress pump attaches it before admitting the
    request, so the server-side spans join the client's trace instead
    of starting their own.
    """

    request_id: int
    request: PredictionRequest
    trace: TraceContext | None = None


class ServeFuture:
    """Completion handle for one submitted request.

    A minimal future: exactly one of ``set_result``/``set_exception``
    may ever run (a second call raises), so a request can neither be
    lost nor answered twice.  Callbacks added after completion run
    immediately in the caller's thread.
    """

    def __init__(self):
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._result: PredictionResult | None = None
        self._exception: BaseException | None = None
        self._callbacks: list[Callable[["ServeFuture"], None]] = []

    def done(self) -> bool:
        return self._event.is_set()

    def set_result(self, result: PredictionResult) -> None:
        self._finish(result=result)

    def set_exception(self, exc: BaseException) -> None:
        self._finish(exception=exc)

    def _finish(self, result=None, exception=None) -> None:
        with self._lock:
            if self._event.is_set():
                raise RuntimeError("future already completed")
            self._result = result
            self._exception = exception
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def add_done_callback(self,
                          fn: Callable[["ServeFuture"], None]) -> None:
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(fn)
                return
        fn(self)

    def result(self, timeout: float | None = None) -> PredictionResult:
        if not self._event.wait(timeout):
            raise TimeoutError("prediction not completed in time")
        if self._exception is not None:
            raise self._exception
        return self._result

    def exception(self,
                  timeout: float | None = None) -> BaseException | None:
        if not self._event.wait(timeout):
            raise TimeoutError("prediction not completed in time")
        return self._exception


@dataclasses.dataclass
class _WorkItem:
    """One admitted request en route to a worker."""

    request: PredictionRequest
    future: ServeFuture
    key: tuple[str, str]
    enqueued_at: float
    expires_at: float | None
    seq: int = 0
    attempt: int = 0
    # Ingress-span context: the worker attaches it so the execution
    # spans join the request's trace across the thread handoff.
    trace: TraceContext | None = None


class PredictionServer:
    """Multi-worker serving front end around a trained predictor.

    Parameters
    ----------
    predictor:
        A trained :class:`~repro.core.predictor.PredictDDL` (anything
        with a compatible ``predict(request)`` works, which tests use
        to inject slow/failing backends).
    config:
        :class:`ServeConfig` tuning knobs.
    fabric:
        Optional message fabric; when given, :meth:`start` registers an
        endpoint at ``config.address`` and a pump thread serves remote
        ``("predict", request)`` messages.
    fault_injector:
        Optional :class:`~repro.faults.injector.WorkerFaultInjector`
        (duck-typed: ``on_batch_start(slot)`` and
        ``on_execute(seq, attempt, slot)``).  None on the happy path,
        which then costs a single attribute check per batch.

    Use as a context manager (``with PredictionServer(...) as server:``)
    or call :meth:`start`/:meth:`stop` explicitly.
    """

    def __init__(self, predictor, config: ServeConfig | None = None,
                 fabric: Fabric | None = None, fault_injector=None):
        self.config = config or ServeConfig()
        self.predictor = predictor
        self._model_version = "v0"
        self.cache = ResultCache(self.config.cache_size,
                                 version=self._model_version)
        self._shadow = None
        self._swap_lock = threading.Lock()
        self.admission = AdmissionController(self.config.max_queue_depth)
        self._batcher = MicroBatcher(self.config.batch_window,
                                     self.config.max_batch)
        self._queue: queue.Queue[_WorkItem] = queue.Queue()
        # Held by the one worker taking a batch's first item and
        # collecting the rest; the others execute or wait their turn.
        self._collect_lock = threading.Lock()
        self._fabric = fabric
        self._injector = fault_injector
        self.endpoint = None
        self._pump: threading.Thread | None = None
        self._supervisor: threading.Thread | None = None
        self._supervisor_stop = threading.Event()
        self._started = False
        self._stopping = False
        self._draining = False
        self._degraded = False
        self._seq = itertools.count()
        # Worker-pool state, all guarded by _state_lock: slot -> thread
        # (None marks a slot retired: normal exit or restart budget
        # spent), slot -> current batch, slot -> crash timestamp.
        self._state_lock = threading.Lock()
        self._worker_slots: dict[int, threading.Thread | None] = {}
        self._inflight: dict[int, list[_WorkItem]] = {}
        self._crash_times: dict[int, float] = {}
        self._restarts = 0
        self.restart_latencies: list[float] = []
        # Exactly-once fabric protocol state.
        self._rpc_lock = threading.Lock()
        self._rpc_inflight: set[tuple[str, int]] = set()
        self._rpc_replied: OrderedDict[tuple[str, int],
                                       tuple[str, object]] = OrderedDict()

    # -- model versioning ----------------------------------------------
    @property
    def model_version(self) -> str:
        """Version tag of the regressor currently answering traffic."""
        return self._model_version

    def swap_regressor(self, engine, version: str) -> None:
        """Hot-swap the regression stage without dropping requests.

        Atomically (one attribute store each, under a lock so version
        and engine cannot be observed torn by another swapper) replaces
        ``predictor.engine`` and re-scopes the result cache to the new
        version.  In-flight batches that snapshotted the old cache
        version keep filing their results under it (see
        ``_execute_group``), so a promotion can never serve the
        incumbent's cached predictions under the candidate's version --
        the ResultCache-staleness bug this seam exists to prevent.
        """
        if not hasattr(self.predictor, "engine"):
            raise TypeError("predictor has no swappable regression "
                            "engine")
        with self._swap_lock:
            old = self._model_version
            self.predictor.engine = engine
            self._model_version = version
            self.cache.set_version(version)
        METRICS.counter("serve.model_swaps").inc()
        RECORDER.record("model_swap", old=old, new=version)

    def attach_shadow(self, scorer) -> None:
        """Attach (or detach, with ``None``) a shadow scorer.

        The scorer's ``mirror(request, result)`` is called for every
        executed group leader -- cache hits included, so the candidate
        sees the same traffic mix the incumbent answers.  Mirroring is
        fire-and-forget: scorer failures are counted, never propagated
        to the reply path.
        """
        self._shadow = scorer

    def _mirror(self, request, result) -> None:
        shadow = self._shadow
        if shadow is None:
            return
        try:
            shadow.mirror(request, result)
        except Exception:  # noqa: BLE001 - shadow must not affect replies
            METRICS.counter("serve.shadow.errors").inc()

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "PredictionServer":
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        self._stopping = False
        self._degraded = False
        self._supervisor_stop.clear()
        if self._fabric is not None:
            self.endpoint = self._fabric.register(self.config.address)
            self._pump = threading.Thread(target=self._pump_loop,
                                          name="serve-pump", daemon=True)
            self._pump.start()
        for slot in range(self.config.workers):
            self._spawn_worker(slot)
        self._supervisor = threading.Thread(target=self._supervisor_loop,
                                            name="serve-supervisor",
                                            daemon=True)
        self._supervisor.start()
        return self

    def _spawn_worker(self, slot: int) -> None:
        worker = threading.Thread(target=self._worker_loop, args=(slot,),
                                  name=f"serve-worker-{slot}",
                                  daemon=True)
        with self._state_lock:
            self._worker_slots[slot] = worker
        worker.start()

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the server; idempotent.

        With ``drain=True`` (default) already-admitted requests finish
        before the workers exit; with ``drain=False`` pending queue
        entries fail with :class:`ServerClosedError` immediately.  The
        pump and supervisor joins are clamped to a small floor rather
        than zero, so they are still collected even when slow workers
        consumed the entire ``timeout`` budget.
        """
        if not self._started:
            return
        self._draining = drain
        self._stopping = True
        if not drain:
            while True:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                self._complete(
                    item, outcome="closed",
                    error=ServerClosedError(
                        "server stopped before execution"))
        deadline = time.monotonic() + timeout
        for worker in self._live_workers():
            worker.join(max(0.0, deadline - time.monotonic()))
        self._supervisor_stop.set()
        if self._supervisor is not None:
            self._supervisor.join(max(_JOIN_FLOOR,
                                      deadline - time.monotonic()))
            self._supervisor = None
        if self._pump is not None:
            self._pump.join(max(_JOIN_FLOOR,
                                deadline - time.monotonic()))
            self._pump = None
        if self.endpoint is not None:
            self.endpoint.close()
            self.endpoint = None
        with self._state_lock:
            self._worker_slots = {}
            self._inflight = {}
        self._started = False

    def _live_workers(self) -> list[threading.Thread]:
        with self._state_lock:
            return [t for t in self._worker_slots.values()
                    if t is not None and t.is_alive()]

    def __enter__(self) -> "PredictionServer":
        return self.start() if not self._started else self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    @property
    def running(self) -> bool:
        return self._started and not self._stopping

    @property
    def degraded(self) -> bool:
        """True once sustained worker loss spent the restart budget."""
        return self._degraded

    # -- submission -----------------------------------------------------
    def submit(self, request: PredictionRequest,
               deadline: float | None = None) -> ServeFuture:
        """Admit ``request`` and return its completion future.

        Raises :class:`ServerClosedError` when the server is stopped
        or stopping, :class:`QueueFullError` past the admission cap,
        and :class:`DegradedError` when the worker pool is lost and the
        request is not answerable from cache.  ``deadline`` is seconds
        from now (falls back to ``config.default_deadline``).

        When tracing is on, admission runs inside a ``serve.ingress``
        span (a child of the caller's active span or attached remote
        context), and the admitted work item carries that span's
        context to the executing worker.  Admissions and refusals are
        recorded in the flight recorder.
        """
        with TRACER.span("serve.ingress"):
            try:
                return self._admit(request, deadline)
            except AdmissionError as exc:
                if RECORDER.enabled:
                    RECORDER.record("request_rejected",
                                    reason=type(exc).__name__)
                raise

    def _admit(self, request: PredictionRequest,
               deadline: float | None) -> ServeFuture:
        if not self.running:
            raise ServerClosedError("server is not accepting requests")
        if deadline is None:
            deadline = self.config.default_deadline
        # Requests without an explicit cluster resolve it from the live
        # collector inventory at execution time; that snapshot can
        # change between calls, so they are neither cached nor deduped.
        # Malformed requests (unknown dataset/model) are uncacheable
        # too: the Task Checker rejects them with a proper diagnostic
        # on the worker, which the future then carries to the caller.
        try:
            key = (request_cache_key(request)
                   if request.cluster is not None else None)
        except Exception:  # noqa: BLE001 - any key failure => no cache
            key = None
        if self._degraded:
            return self._submit_degraded(request, key)
        self.admission.admit()
        METRICS.counter("serve.requests").inc()
        now = time.monotonic()
        item = _WorkItem(
            request=request, future=ServeFuture(),
            key=key, enqueued_at=now,
            expires_at=None if deadline is None else now + deadline,
            seq=next(self._seq), trace=TRACER.current_context())
        if RECORDER.enabled:
            RECORDER.record("request_admitted", request=item.seq)
        self._queue.put(item)
        return item.future

    def _submit_degraded(self, request: PredictionRequest,
                         key) -> ServeFuture:
        """Degraded-mode admission: cache or a deterministic refusal."""
        hit = self.cache.lookup(request, key) if key is not None else None
        if hit is None:
            METRICS.counter("serve.degraded_responses",
                            labels={"source": "refused"}).inc()
            raise DegradedError(
                "serving degraded (worker pool lost, restart budget "
                "spent) and request is not in the result cache")
        METRICS.counter("serve.degraded_responses",
                        labels={"source": "cache"}).inc()
        future = ServeFuture()
        future.set_result(hit)
        return future

    def predict(self, request: PredictionRequest,
                timeout: float | None = None) -> PredictionResult:
        """Blocking convenience: submit and wait for the result."""
        return self.submit(request).result(timeout)

    # -- worker machinery ----------------------------------------------
    def _worker_loop(self, slot: int) -> None:
        try:
            self._worker_run(slot)
        except BaseException:  # noqa: BLE001 - any escape is a death
            # Injected crashes (InjectedWorkerCrash, a BaseException)
            # and genuine worker bugs land here alike: record the time
            # of death and leave the slot registered so the supervisor
            # respawns it and re-queues the in-flight batch.
            with self._state_lock:
                self._crash_times[slot] = time.monotonic()
            METRICS.counter("serve.worker_deaths").inc()
            RECORDER.record("worker_crash", slot=slot)
            return
        self._retire(slot)

    def _retire(self, slot: int) -> None:
        """Mark a normal worker exit; retired slots are not respawned."""
        with self._state_lock:
            self._worker_slots[slot] = None
            self._inflight.pop(slot, None)

    def _worker_run(self, slot: int) -> None:
        while True:
            # One collector at a time: an idle worker racing the
            # collecting one for arrivals would split a burst across
            # two concurrent windows, and each request that opens a
            # window waits all of it out.
            with self._collect_lock:
                try:
                    # Once stopping, take only what is queued, so the
                    # workers do not each wait out a poll in turn.
                    first = self._queue.get(
                        timeout=0.0 if self._stopping else 0.05)
                except queue.Empty:
                    if self._stopping:
                        return
                    continue
                if self._stopping and not self._draining:
                    self._complete(
                        first, outcome="closed",
                        error=ServerClosedError(
                            "server stopped before execution"))
                    continue
                batch = self._batcher.collect(self._queue, first)
            with self._state_lock:
                self._inflight[slot] = batch
            if self._injector is not None:
                self._injector.on_batch_start(slot)
            self._execute_batch(batch, slot)
            with self._state_lock:
                self._inflight[slot] = []

    def _execute_batch(self, batch: list[_WorkItem], slot: int) -> None:
        """Run one micro-batch: dedup by key, predict once per key."""
        groups: dict[object, list[_WorkItem]] = {}
        for item in batch:
            group_key = item.key if item.key is not None else id(item)
            groups.setdefault(group_key, []).append(item)
        if len(batch) > len(groups):
            METRICS.counter("serve.batch.coalesced").inc(
                len(batch) - len(groups))
        self._warm_batch(groups)
        for group in groups.values():
            self._execute_group(group[0].key, group, slot)

    def _warm_batch(self, groups: dict[object, list["_WorkItem"]]) -> None:
        """One batched GHN pass for every group the cache cannot answer.

        Pre-computes the micro-batch's embeddings via
        ``predictor.warm_embeddings`` (cross-graph batched embed) so the
        per-group ``predict`` calls below hit the registry cache.  This
        is a pure warm-up: it completes no futures, takes no admission
        slots and stores nothing in the result cache, so the
        exactly-once / caching semantics of ``_execute_group`` are
        untouched, and any failure here is swallowed -- the per-group
        path reports errors with full diagnostics.  Predictors without
        a ``warm_embeddings`` method (e.g. test doubles) are served
        per-item as before.
        """
        warm = getattr(self.predictor, "warm_embeddings", None)
        if warm is None:
            return
        leaders = [group[0].request for group in groups.values()
                   if group[0].key is None
                   or not self.cache.contains(group[0].key)]
        if len(leaders) < 2:
            return
        try:
            warm(leaders)
        except Exception:  # noqa: BLE001 - warm-up must never fail a batch
            METRICS.counter("serve.warm_failures").inc()

    def _execute_group(self, key: tuple[str, str] | None,
                       group: list[_WorkItem], slot: int) -> None:
        live: list[_WorkItem] = []
        for item in group:
            try:
                self.admission.check_deadline(item.expires_at)
            except DeadlineExceededError as exc:
                self._complete(item, error=exc, outcome="expired")
                continue
            live.append(item)
        if not live:
            return
        if self._injector is not None:
            # May raise InjectedWorkerCrash (a BaseException): the
            # worker dies with this group still in its in-flight batch
            # and the supervisor re-queues the unfinished items.
            for item in live:
                self._injector.on_execute(item.seq, item.attempt, slot)
        leader = live[0]
        # Snapshot the cache version once per group: if a promotion
        # lands mid-execution, this group still files its result under
        # the version whose engine semantics it started with, and the
        # freshly promoted version begins with a clean keyspace.
        version = self.cache.version
        # Join the leader's trace across the queue handoff: the batch
        # and execute spans below become children of its ingress span.
        token = TRACER.attach(leader.trace)
        try:
            result = (self.cache.lookup(leader.request, key,
                                        version=version)
                      if key is not None else None)
            if result is None:
                try:
                    with TRACER.span("serve.batch", size=len(live),
                                     slot=slot):
                        with TRACER.span("serve.execute",
                                         batched=len(live)):
                            result = self.predictor.predict(
                                leader.request)
                except Exception as exc:  # noqa: BLE001 - per item
                    for item in live:
                        self._complete(item, error=exc, outcome="error")
                    return
                if key is not None:
                    self.cache.store(result, key, version=version)
            self._mirror(leader.request, result)
            for item in live:
                self._complete(
                    item,
                    result=dataclasses.replace(result,
                                               request=item.request),
                    outcome="ok")
        finally:
            TRACER.detach(token)

    def _complete(self, item: _WorkItem, *, result=None, error=None,
                  outcome: str) -> None:
        """Finish one admitted item: exactly one call per item, ever.

        Releases the item's admission slot -- re-queued items keep
        theirs until they really finish, so recovery does not
        double-release.
        """
        METRICS.histogram(
            "serve.latency_seconds", buckets=LATENCY_BUCKETS,
            labels={"outcome": outcome}).observe(
            time.monotonic() - item.enqueued_at)
        METRICS.counter("serve.responses",
                        labels={"outcome": outcome}).inc()
        if error is not None:
            item.future.set_exception(error)
        else:
            item.future.set_result(result)
        self.admission.release()

    # -- worker supervision ---------------------------------------------
    def _supervisor_loop(self) -> None:
        """Detect dead workers; respawn them and re-queue their work."""
        while not self._supervisor_stop.wait(
                self.config.supervisor_interval):
            self._check_workers()
        # One final sweep so a crash racing shutdown still completes
        # (or deterministically fails) its in-flight requests.
        self._check_workers()

    def _check_workers(self) -> None:
        with self._state_lock:
            dead = [(slot, thread)
                    for slot, thread in self._worker_slots.items()
                    if thread is not None and not thread.is_alive()]
            if not dead:
                return
            orphan_map = {slot: self._inflight.pop(slot, [])
                          for slot, _ in dead}
            crash_times = {slot: self._crash_times.pop(slot, None)
                           for slot, _ in dead}
        for slot, _ in dead:
            self._requeue_orphans(orphan_map[slot])
            self._respawn(slot, crash_times[slot])
        if RECORDER.enabled:
            # The black box earns its keep here: snapshot the ring
            # after the crash *and* the recovery events are in it.
            RECORDER.auto_dump("worker_crash:slots="
                               + ",".join(str(s) for s, _ in dead))
        if self._all_workers_lost():
            self._enter_degraded()

    def _requeue_orphans(self, orphans: list[_WorkItem]) -> None:
        """Give a dead worker's unfinished items back to the queue.

        Each item is re-queued exactly once per crash (its attempt
        count increments); past ``config.max_attempts`` it fails with
        a diagnostic instead.
        """
        for item in orphans:
            if item.future.done():
                continue
            item.attempt += 1
            if item.attempt >= self.config.max_attempts:
                self._complete(
                    item, outcome="error",
                    error=RuntimeError(
                        f"request seq {item.seq} abandoned after "
                        f"{item.attempt} execution attempts "
                        f"(workers kept dying)"))
                continue
            METRICS.counter("serve.requeued").inc()
            self._queue.put(item)

    def _respawn(self, slot: int, crashed_at: float | None) -> None:
        budget = self.config.max_worker_restarts
        with self._state_lock:
            if budget is not None and self._restarts >= budget:
                self._worker_slots[slot] = None  # budget spent: retire
                RECORDER.record("worker_retired", slot=slot,
                                reason="restart_budget_spent")
                return
            self._restarts += 1
            if crashed_at is not None:
                self.restart_latencies.append(
                    time.monotonic() - crashed_at)
        METRICS.counter("serve.worker_restarts").inc()
        RECORDER.record("worker_respawn", slot=slot)
        self._spawn_worker(slot)

    def _all_workers_lost(self) -> bool:
        with self._state_lock:
            return self._started and all(
                t is None or not t.is_alive()
                for t in self._worker_slots.values())

    def _enter_degraded(self) -> None:
        """Flip to cache-only service and settle everything queued."""
        if self._degraded or self._stopping:
            return
        self._degraded = True
        METRICS.counter("serve.degraded_entered").inc()
        RECORDER.record("degraded_enter")
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item.future.done():
                continue
            hit = (self.cache.lookup(item.request, item.key)
                   if item.key is not None else None)
            if hit is not None:
                METRICS.counter("serve.degraded_responses",
                                labels={"source": "cache"}).inc()
                self._complete(item, result=hit, outcome="degraded")
            else:
                METRICS.counter("serve.degraded_responses",
                                labels={"source": "refused"}).inc()
                self._complete(
                    item, outcome="degraded",
                    error=DegradedError(
                        "serving degraded (worker pool lost) and "
                        "request is not in the result cache"))

    # -- fabric front door ----------------------------------------------
    def _pump_loop(self) -> None:
        """Move fabric ``predict`` messages onto the ingress queue."""
        while not self._stopping:
            try:
                msg = self.endpoint.recv(timeout=0.05)
            except queue.Empty:
                continue
            if msg.tag != "predict":
                continue
            if isinstance(msg.payload, RequestEnvelope):
                self._pump_enveloped(msg.sender, msg.payload)
            else:
                self._pump_legacy(msg.sender, msg.payload)

    def _pump_legacy(self, sender: str, request) -> None:
        try:
            future = self.submit(request)
        except (AdmissionError, ValueError) as exc:
            self._reply(sender, "error", f"rejected: {exc}")
            return
        future.add_done_callback(
            lambda f, sender=sender: self._reply_from_future(sender, f))

    def _pump_enveloped(self, sender: str,
                        envelope: RequestEnvelope) -> None:
        """Exactly-once path: dedup by (sender, request id)."""
        rpc = (sender, envelope.request_id)
        with self._rpc_lock:
            recorded = self._rpc_replied.get(rpc)
            if recorded is not None:
                METRICS.counter("serve.dedup.resent").inc()
            elif rpc in self._rpc_inflight:
                # The original is still executing; its reply will
                # cover this duplicate.
                METRICS.counter("serve.dedup.suppressed").inc()
                return
            else:
                self._rpc_inflight.add(rpc)
        if recorded is not None:
            self._reply(sender, recorded[0], recorded[1])
            return
        # Attach the client's trace context for the admission call so
        # the ingress span joins the client's trace across the fabric.
        token = TRACER.attach(envelope.trace)
        try:
            future = self.submit(envelope.request)
        except (AdmissionError, ValueError) as exc:
            self._finish_rpc(
                rpc, "error",
                (envelope.request_id,
                 f"rejected: {type(exc).__name__}: {exc}"))
            return
        finally:
            TRACER.detach(token)
        future.add_done_callback(
            lambda f, rpc=rpc, rid=envelope.request_id:
            self._rpc_from_future(rpc, rid, f))

    def _rpc_from_future(self, rpc: tuple[str, int], rid: int,
                         future: ServeFuture) -> None:
        exc = future.exception()
        if exc is None:
            self._finish_rpc(rpc, "result", (rid, future.result()))
        else:
            self._finish_rpc(rpc, "error",
                             (rid, f"{type(exc).__name__}: {exc}"))

    def _finish_rpc(self, rpc: tuple[str, int], tag: str,
                    payload) -> None:
        """Record the reply for duplicate replay, then send it."""
        with self._rpc_lock:
            self._rpc_inflight.discard(rpc)
            self._rpc_replied[rpc] = (tag, payload)
            while len(self._rpc_replied) > _REPLY_CACHE_SIZE:
                self._rpc_replied.popitem(last=False)
        self._reply(rpc[0], tag, payload)

    def _reply_from_future(self, sender: str, future: ServeFuture) -> None:
        exc = future.exception()
        if exc is None:
            self._reply(sender, "result", future.result())
        else:
            self._reply(sender, "error",
                        f"{type(exc).__name__}: {exc}")

    def _reply(self, sender: str, tag: str, payload) -> None:
        try:
            self.endpoint.send(sender, tag, payload)
        except MessageDropped:
            # Injected loss of a reply: the client's resend of the same
            # request id replays it from the reply cache.
            METRICS.counter("serve.responses",
                            labels={"outcome": "reply_dropped"}).inc()
        except (FabricError, AttributeError):
            # Client went away (or we are shutting down); the response
            # is undeliverable and intentionally dropped.
            METRICS.counter("serve.responses",
                            labels={"outcome": "undeliverable"}).inc()


class ServeClient:
    """Blocking fabric client for a :class:`PredictionServer`.

    Registers its own reply endpoint and speaks the predict/result
    protocol; queue-full rejections are retried with deterministic
    exponential backoff.

    With ``reliable=True`` every request travels in a
    :class:`RequestEnvelope` with a client-unique id, and the retry
    loop additionally covers timeouts and signalled message drops by
    *resending the same id* -- the server's dedup layer then guarantees
    the request executes once and the client discards stale or
    duplicate replies by id, so lossy fabrics still deliver exactly
    one response per call.
    """

    def __init__(self, fabric: Fabric, address: str,
                 server_address: str = DEFAULT_ADDRESS, *,
                 retries: int = 3, base_delay: float = 0.01,
                 reliable: bool = False):
        self.endpoint = fabric.register(address)
        self.server_address = server_address
        self.retries = retries
        self.base_delay = base_delay
        self.reliable = reliable
        self.stale_replies = 0
        self._ids = itertools.count()

    def predict(self, request: PredictionRequest,
                timeout: float = 30.0) -> PredictionResult:
        """Send one request and wait for its reply.

        Raises :class:`QueueFullError` when every retry was rejected,
        and :class:`RuntimeError` for server-side errors.
        """
        if not self.reliable:
            return retry_with_backoff(
                lambda: self._predict_once(request, timeout),
                retries=self.retries, base_delay=self.base_delay)
        rid = next(self._ids)
        return retry_with_backoff(
            lambda: self._predict_reliable(rid, request, timeout),
            retries=self.retries, base_delay=self.base_delay,
            retry_on=(QueueFullError, TimeoutError, MessageDropped))

    def _predict_once(self, request: PredictionRequest,
                      timeout: float) -> PredictionResult:
        self.endpoint.send(self.server_address, "predict", request)
        try:
            msg = self.endpoint.recv(timeout=timeout)
        except queue.Empty:
            raise TimeoutError(
                f"no reply from {self.server_address!r} within "
                f"{timeout}s") from None
        if msg.tag == "result":
            return msg.payload
        detail = str(msg.payload)
        if detail.startswith("rejected:") or "QueueFullError" in detail:
            raise QueueFullError(detail)
        raise RuntimeError(f"server error: {detail}")

    def _predict_reliable(self, rid: int, request: PredictionRequest,
                          timeout: float) -> PredictionResult:
        # The client span is the trace root; its context rides in the
        # envelope so the server-side spans join the same trace.
        with TRACER.span("serve.client.predict", rid=rid):
            self.endpoint.send(
                self.server_address, "predict",
                RequestEnvelope(rid, request,
                                trace=TRACER.current_context()))
            deadline = time.monotonic() + timeout
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"no reply for request id {rid} from "
                        f"{self.server_address!r} within {timeout}s")
                try:
                    msg = self.endpoint.recv(timeout=remaining)
                except queue.Empty:
                    raise TimeoutError(
                        f"no reply for request id {rid} from "
                        f"{self.server_address!r} within {timeout}s"
                    ) from None
                if msg.tag not in ("result", "error"):
                    continue
                payload = msg.payload
                if not (isinstance(payload, tuple)
                        and len(payload) == 2):
                    continue  # legacy un-enveloped reply: not for us
                reply_id, body = payload
                if reply_id != rid:
                    # A duplicate or late reply for an earlier request:
                    # discard, never hand it to the caller.
                    self.stale_replies += 1
                    METRICS.counter("serve.client.stale_discarded").inc()
                    continue
                if msg.tag == "result":
                    return body
                raise _classify_server_error(str(body))

    def close(self) -> None:
        self.endpoint.close()


def _classify_server_error(detail: str) -> Exception:
    """Map an error-reply string onto the matching client exception."""
    if "DegradedError" in detail:
        return DegradedError(detail)
    if "QueueFullError" in detail:
        return QueueFullError(detail)
    if "DeadlineExceededError" in detail:
        return DeadlineExceededError(detail)
    return RuntimeError(f"server error: {detail}")
