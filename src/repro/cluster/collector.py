"""Cluster Resource Collector (paper Sec. III-F).

"The Cluster Resource Collector maintains one thread open for new
connections to the cluster and launches a pool of threads to collect
details about available compute and memory resources."  We reproduce that
design: a listener thread accepts JOIN/LEAVE messages, a poller pool sends
PROBE messages to joined agents, and agents answer with a
:class:`ResourceSnapshot`.  ``inventory()`` returns the latest snapshot of
every live server -- the "updated inventory of resources" the Inference
Engine reads in Fig. 7 step 6.
"""

from __future__ import annotations

import threading
import time

from ..obs import METRICS
from .messaging import Endpoint, Fabric
from .resources import ResourceSnapshot

__all__ = ["ClusterResourceCollector", "ServerAgent"]

_JOIN = "join"
_LEAVE = "leave"
_PROBE = "probe"
_REPORT = "report"
_TRACE = "trace"
_STOP = "stop"


class ServerAgent:
    """Client module running on each server (joins the collector).

    The ``snapshot_fn`` callback produces the agent's current
    :class:`ResourceSnapshot`; tests and the simulator swap in synthetic
    load profiles through it.
    """

    def __init__(self, fabric: Fabric, address: str, collector_address: str,
                 snapshot_fn):
        self.endpoint = fabric.register(address)
        self.collector_address = collector_address
        self.snapshot_fn = snapshot_fn
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._running = False

    def start(self) -> None:
        """Join the cluster and begin answering probes."""
        self._running = True
        self.endpoint.send(self.collector_address, _JOIN,
                           self.snapshot_fn())
        self._thread.start()

    def stop(self) -> None:
        """Leave the cluster and stop the agent thread."""
        self._running = False
        self.endpoint.send(self.collector_address, _LEAVE)
        self.endpoint.send(self.endpoint.address, _STOP)
        self._thread.join(timeout=5.0)
        self.endpoint.close()

    def report_trace(self, trace) -> None:
        """Report a completed measurement sweep (list of trace points)
        to the collector, which appends it to its attached trace store."""
        self.endpoint.send(self.collector_address, _TRACE, list(trace))

    def run_sweep(self, models, dataset_name: str, server_class: str,
                  cluster_sizes, *, batch_size_per_server: int = 32,
                  epochs: int = 1, seed: int = 0,
                  workers: int = 1) -> int:
        """Run a measurement sweep locally and report it upstream.

        The head-node production path of the continual-refit loop: the
        agent generates ``models x cluster_sizes`` trace points --
        sharded over the shared process pool when ``workers > 1``,
        bit-identical to the serial sweep at any worker count -- and
        ships them to the collector with :meth:`report_trace`.  Returns
        the number of points reported.
        """
        # Lazy import: repro.sim sits above repro.cluster in the
        # layering (sim -> cluster), so a module-level import here
        # would be a cycle.
        from ..sim import generate_trace
        points = generate_trace(
            list(models), dataset_name, server_class,
            list(cluster_sizes),
            batch_size_per_server=batch_size_per_server,
            epochs=epochs, seed=seed, workers=workers)
        self.report_trace(points)
        return len(points)

    def _run(self) -> None:
        while self._running:
            msg = self.endpoint.recv()
            if msg.tag == _STOP:
                break
            if msg.tag == _PROBE:
                self.endpoint.send(msg.sender, _REPORT, self.snapshot_fn())


class ClusterResourceCollector:
    """Server module running on the cluster manager."""

    def __init__(self, fabric: Fabric, address: str = "collector",
                 poll_interval: float = 0.02, num_pollers: int = 4):
        self.fabric = fabric
        self.address = address
        self.poll_interval = poll_interval
        self.num_pollers = max(1, num_pollers)
        self.endpoint: Endpoint = fabric.register(address)
        self._members: dict[str, ResourceSnapshot] = {}
        self._trace_store = None
        self.trace_points_ingested = 0
        self._lock = threading.Lock()
        self._running = False
        self._listener: threading.Thread | None = None
        self._pollers: list[threading.Thread] = []

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the listener thread and the poller pool."""
        self._running = True
        self._listener = threading.Thread(target=self._listen, daemon=True)
        self._listener.start()
        for i in range(self.num_pollers):
            poller = threading.Thread(target=self._poll, args=(i,),
                                      daemon=True)
            poller.start()
            self._pollers.append(poller)

    def stop(self) -> None:
        """Stop all collector threads."""
        self._running = False
        self.endpoint.send(self.address, _STOP)
        if self._listener:
            self._listener.join(timeout=5.0)
        for poller in self._pollers:
            poller.join(timeout=5.0)
        self.endpoint.close()

    # ------------------------------------------------------------------
    def _listen(self) -> None:
        while self._running:
            msg = self.endpoint.recv()
            if msg.tag == _STOP:
                break
            if msg.tag == _JOIN:
                METRICS.counter("cluster.collector.joins").inc()
                with self._lock:
                    self._members[msg.sender] = msg.payload
            elif msg.tag == _LEAVE:
                METRICS.counter("cluster.collector.leaves").inc()
                with self._lock:
                    self._members.pop(msg.sender, None)
            elif msg.tag == _REPORT:
                METRICS.counter("cluster.collector.reports").inc()
                with self._lock:
                    if msg.sender in self._members:
                        self._members[msg.sender] = msg.payload
            elif msg.tag == _TRACE:
                self._ingest_trace(msg.payload)

    def _poll(self, poller_id: int) -> None:
        """Poller ``i`` probes members with index ``i mod num_pollers``."""
        while self._running:
            with self._lock:
                members = sorted(self._members)
            for idx, member in enumerate(members):
                if idx % self.num_pollers == poller_id:
                    try:
                        self.endpoint.send(member, _PROBE)
                        METRICS.counter("cluster.collector.probes").inc()
                    except Exception:
                        METRICS.counter(
                            "cluster.collector.probe_failures").inc()
                        with self._lock:
                            self._members.pop(member, None)
            time.sleep(self.poll_interval)

    # -- trace ingestion ------------------------------------------------
    def attach_store(self, store) -> None:
        """Attach a :class:`repro.store.TraceStore` (or None to detach).

        With a store attached, agents can send ``("trace", [points])``
        messages -- completed simulation sweeps -- and the collector
        appends them as ``sim`` records.  This is the head-node
        ingestion seam of the continual-refit loop: workers report
        finished measurements the same way they report resources.
        """
        with self._lock:
            self._trace_store = store

    def ingest_trace(self, trace) -> int:
        """Append a completed trace directly (same path as ``trace``
        messages); returns the number of points ingested."""
        return self._ingest_trace(trace)

    def _ingest_trace(self, trace) -> int:
        with self._lock:
            store = self._trace_store
        if store is None or not trace:
            return 0
        # Lazy import: repro.store sits above repro.cluster in the
        # layering (store -> sim -> cluster), so a module-level import
        # here would be a cycle.
        from ..store import ingest_trace
        count = len(ingest_trace(store, trace))
        with self._lock:
            self.trace_points_ingested += count
        METRICS.counter("cluster.collector.trace_points").inc(count)
        return count

    # ------------------------------------------------------------------
    def inventory(self) -> dict[str, ResourceSnapshot]:
        """Latest snapshot of every joined server."""
        with self._lock:
            return dict(self._members)

    def num_members(self) -> int:
        with self._lock:
            return len(self._members)

    def wait_for_members(self, count: int, timeout: float = 5.0) -> bool:
        """Block until ``count`` servers have joined (or timeout)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.num_members() >= count:
                return True
            time.sleep(0.005)
        return self.num_members() >= count
