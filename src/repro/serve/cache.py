"""Result cache for the prediction-serving layer.

Serving the same (workload, cluster) pair twice must not pay the GHN
forward pass or the regression twice: a bounded LRU cache keyed on
``(workload fingerprint, cluster signature)`` returns the previously
computed :class:`~repro.core.requests.PredictionResult`.  Keys are
content hashes -- two structurally identical requests hit the same
entry no matter which client object they came from, and two clusters
that differ in any spec field never collide.

The cache reuses the process-wide :class:`repro.caching.LRUCache`
policy (same implementation as the GHN registry's embedding cache) and
reports ``serve.cache.{hits,misses,evictions}`` to the obs metrics
registry.
"""

from __future__ import annotations

import dataclasses

from ..caching import LRUCache
from ..cluster import Cluster
from ..obs import RECORDER
from ..core.requests import PredictionRequest, PredictionResult
# graph_fingerprint moved to repro.graphs.fingerprint (the GHN structure
# cache needs it below the serve layer); re-exported here for callers.
from ..graphs.fingerprint import graph_fingerprint
from ..graphs.fingerprint import payload_digest as _digest

__all__ = ["graph_fingerprint", "cluster_signature", "request_cache_key",
           "ResultCache", "DEFAULT_CACHE_SIZE"]

#: Default bound on cached prediction results.
DEFAULT_CACHE_SIZE = 256


def cluster_signature(cluster: Cluster) -> str:
    """Content hash of a cluster configuration.

    Covers every server spec field plus the shared network/storage
    parameters, so clusters that differ only in e.g. NIC bandwidth or
    server count produce distinct signatures.  Computed on first use
    and stored on the (frozen) ``cluster``; later calls are an
    attribute read.
    """
    signature = cluster._signature
    if signature is None:
        signature = _digest({
            "servers": [dataclasses.asdict(spec)
                        for spec in cluster.servers],
            "net_latency": cluster.net_latency,
            "nfs_throughput": cluster.nfs_throughput,
        })
        object.__setattr__(cluster, "_signature", signature)
    return signature


def request_cache_key(request: PredictionRequest) -> tuple[str, str]:
    """``(workload fingerprint, cluster signature)`` for one request.

    The workload fingerprint folds in everything on the request that
    influences the prediction besides the cluster: the resolved graph's
    structure, dataset, batch size, epochs and task.  Requests without
    a cluster are not cacheable (the live-inventory snapshot can change
    between calls); callers must resolve the cluster first.
    """
    if request.cluster is None:
        raise ValueError("cannot build a cache key for a request "
                         "without a resolved cluster")
    workload = request.workload
    fingerprint = _digest({
        "graph": graph_fingerprint(request.resolve_graph()),
        "dataset": workload.dataset_name,
        "batch": workload.batch_size_per_server,
        "epochs": workload.epochs,
        "task": request.task,
    })
    return fingerprint, cluster_signature(request.cluster)


class ResultCache:
    """Bounded LRU of :class:`PredictionResult` keyed by request content.

    Entries are additionally scoped by the **regressor model version**
    that computed them: the internal key is ``(fingerprint, cluster
    signature, version)``.  Without that third component a hot-swapped
    regressor would keep serving the incumbent's cached predictions --
    the promotion would silently not take effect for any warm key.
    Callers that computed a key *before* a concurrent swap (in-flight
    batches) pass the version they executed under explicitly so their
    results are never filed under the wrong model.
    """

    def __init__(self, capacity: int = DEFAULT_CACHE_SIZE,
                 version: str = "v0"):
        self._cache = LRUCache(capacity, metrics_prefix="serve.cache")
        self._version = version

    @property
    def version(self) -> str:
        """The model version new lookups/stores are scoped to."""
        return self._version

    def set_version(self, version: str) -> None:
        """Scope the cache to a newly promoted model version.

        Old-version entries are left to age out of the LRU naturally
        (they can no longer be hit); flushing is not required for
        correctness and would discard cross-version metrics.
        """
        self._version = version

    def _scoped(self, key: tuple[str, str],
                version: str | None) -> tuple[str, str, str]:
        return (*key, self._version if version is None else version)

    def lookup(self, request: PredictionRequest,
               key: tuple[str, str] | None = None,
               version: str | None = None) -> PredictionResult | None:
        """Cached result for ``request``, re-bound to this request.

        The stored result's ``request`` field is replaced by the
        incoming request object so callers always get back their own
        request; every other field (including ``predicted_time``) is
        bitwise-identical to the original computation.
        """
        if key is None:
            key = request_cache_key(request)
        hit = self._cache.get(self._scoped(key, version))
        if RECORDER.enabled:
            RECORDER.record("cache_hit" if hit is not None
                            else "cache_miss")
        if hit is None:
            return None
        return dataclasses.replace(hit, request=request)

    def contains(self, key: tuple[str, str],
                 version: str | None = None) -> bool:
        """Membership probe that does not touch hit/miss counters.

        Used by the server's micro-batch warm-up to decide which groups
        still need a GHN pass without distorting the cache stats the
        real lookups report.
        """
        return self._scoped(key, version) in self._cache

    def store(self, result: PredictionResult,
              key: tuple[str, str] | None = None,
              version: str | None = None) -> None:
        if key is None:
            key = request_cache_key(result.request)
        self._cache.put(self._scoped(key, version), result)

    def stats(self) -> dict:
        return self._cache.stats()

    def clear(self) -> None:
        self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)
