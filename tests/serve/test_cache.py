"""LRU cache, fingerprints and the serving result cache."""

import pickle

import pytest

from repro import obs
from repro.caching import LRUCache
from repro.cluster import Cluster, make_cluster
from repro.core import PredictionRequest
from repro.core.requests import PredictionResult
from repro.graphs import graph_to_dict
from repro.graphs.fingerprint import payload_digest
from repro.graphs.zoo import get_model, list_models
from repro.serve import (ResultCache, cluster_signature,
                         graph_fingerprint, request_cache_key)
from repro.sim import DLWorkload


class TestLRUCache:
    def test_capacity_evicts_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # promote "a"
        cache.put("c", 3)           # evicts "b"
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.evictions == 1

    def test_counts_hits_and_misses(self):
        cache = LRUCache(4)
        assert cache.get("missing") is None
        cache.put("k", "v")
        assert cache.get("k") == "v"
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_get_or_compute_runs_factory_once_per_key(self):
        cache = LRUCache(4)
        calls = []
        for _ in range(3):
            value = cache.get_or_compute("k", lambda: calls.append(1) or 7)
        assert value == 7
        assert len(calls) == 1

    def test_pop_where_targets_matching_keys(self):
        cache = LRUCache(8)
        for name in ["a1", "a2", "b1"]:
            cache.put(name, name)
        assert cache.pop_where(lambda k: k.startswith("a")) == 2
        assert len(cache) == 1 and "b1" in cache

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            LRUCache(0)

    def test_pickle_round_trip_recreates_lock(self):
        cache = LRUCache(4, metrics_prefix="x")
        cache.put("k", 1)
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.get("k") == 1
        clone.put("j", 2)  # lock works after restore
        assert clone.capacity == 4

    def test_metrics_reported_when_enabled(self):
        with obs.observed(tracing=False) as (_, metrics):
            cache = LRUCache(1, metrics_prefix="test.cache")
            cache.get("a")
            cache.put("a", 1)
            cache.get("a")
            cache.put("b", 2)  # evicts "a"
            counters = metrics.snapshot()["counters"]
        assert counters["test.cache.hits"] == 1
        assert counters["test.cache.misses"] == 1
        assert counters["test.cache.evictions"] == 1


def _request(model="resnet18", size=2, server_class="gpu-p100",
             batch=32) -> PredictionRequest:
    return PredictionRequest(
        workload=DLWorkload(model, "cifar10",
                            batch_size_per_server=batch),
        cluster=make_cluster(size, server_class))


class TestKeys:
    def test_same_content_same_key(self):
        assert request_cache_key(_request()) == request_cache_key(
            _request())

    def test_distinct_clusters_never_collide(self):
        """Same workload on different clusters -> different keys."""
        base = _request(size=2)
        keys = {request_cache_key(base)[1],
                cluster_signature(make_cluster(4, "gpu-p100")),
                cluster_signature(make_cluster(2, "cpu-e5-2650")),
                cluster_signature(
                    make_cluster(2, "gpu-p100", net_latency=1e-3))}
        assert len(keys) == 4

    def test_heterogeneous_cluster_order_matters(self):
        gpu = make_cluster(1, "gpu-p100").servers[0]
        cpu = make_cluster(1, "cpu-e5-2650").servers[0]
        mixed_a = Cluster(servers=(gpu, cpu))
        mixed_b = Cluster(servers=(cpu, gpu))
        assert cluster_signature(mixed_a) != cluster_signature(mixed_b)

    def test_workload_fields_fold_into_fingerprint(self):
        assert request_cache_key(_request(batch=32)) != \
            request_cache_key(_request(batch=64))
        assert request_cache_key(_request(model="resnet18")) != \
            request_cache_key(_request(model="alexnet"))

    def test_fingerprint_ignores_display_name(self):
        graph = DLWorkload("resnet18", "cifar10").graph
        clone = pickle.loads(pickle.dumps(graph))
        clone.name = "renamed-resnet"
        assert graph_fingerprint(graph) == graph_fingerprint(clone)
        # The fingerprint stored on each graph is its name-less content
        # digest, and renaming after it was stored does not change it.
        for model in list_models():
            zoo_graph = get_model(model)
            stored = graph_fingerprint(zoo_graph)
            zoo_graph.name = f"renamed-{model}"
            payload = graph_to_dict(zoo_graph)
            del payload["name"]
            assert graph_fingerprint(zoo_graph) == stored
            assert stored == payload_digest(payload)

    def test_clusterless_request_not_keyable(self):
        request = PredictionRequest(
            workload=DLWorkload("resnet18", "cifar10"))
        with pytest.raises(ValueError, match="cluster"):
            request_cache_key(request)


class TestResultCache:
    def _result(self, request) -> PredictionResult:
        return PredictionResult(request=request, predicted_time=42.5,
                                dataset_used="cifar10",
                                ghn_trained=False,
                                embedding_seconds=0.01,
                                inference_seconds=0.001)

    def test_lookup_rebinds_request(self):
        cache = ResultCache(4)
        first = _request()
        cache.store(self._result(first))
        second = _request()  # equal content, distinct object
        hit = cache.lookup(second)
        assert hit is not None
        assert hit.request is second
        assert hit.predicted_time == 42.5

    def test_miss_on_different_cluster(self):
        cache = ResultCache(4)
        cache.store(self._result(_request(size=2)))
        assert cache.lookup(_request(size=4)) is None


class TestResultCacheVersioning:
    """Regression: cache keys must fold in the regressor version.

    Before the continual-refit work, a hot-swapped regressor kept
    serving the *old* model's cached predictions -- same workload +
    cluster, same key, stale value.
    """

    def _result(self, request) -> PredictionResult:
        return PredictionResult(request=request, predicted_time=42.5,
                                dataset_used="cifar10",
                                ghn_trained=False,
                                embedding_seconds=0.01,
                                inference_seconds=0.001)

    def test_swap_invalidates_old_entries(self):
        cache = ResultCache(4, version="v0")
        cache.store(self._result(_request()))
        assert cache.lookup(_request()) is not None
        cache.set_version("v1")
        # The v0 entry must NOT answer v1 traffic.
        assert cache.lookup(_request()) is None

    def test_versions_do_not_collide(self):
        cache = ResultCache(4, version="v0")
        cache.store(self._result(_request()))
        cache.set_version("v1")
        cache.store(self._result(_request()))
        assert cache.contains(request_cache_key(_request()))
        # Explicit version pins reach either keyspace.
        assert cache.contains(request_cache_key(_request()),
                              version="v0")

    def test_in_flight_batch_files_under_its_starting_version(self):
        """A batch that began under v0 must store under v0 even if a
        promotion lands mid-flight (the server snapshots the version
        at `_execute_group` entry and passes it through)."""
        cache = ResultCache(4, version="v0")
        key = request_cache_key(_request())
        cache.set_version("v1")  # promotion happens mid-flight
        cache.store(self._result(_request()), key, version="v0")
        assert cache.lookup(_request(), key, version="v0") is not None
        assert cache.lookup(_request(), key) is None

    def test_version_property_tracks_swaps(self):
        cache = ResultCache(4)
        assert cache.version == "v0"
        cache.set_version("v-abc")
        assert cache.version == "v-abc"
