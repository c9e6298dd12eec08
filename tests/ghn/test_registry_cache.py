"""Bounded GHN embedding cache: LRU cap, metrics, invalidation."""

import numpy as np

from repro import obs
from repro.caching import LRUCache
from repro.datasets import get_dataset
from repro.ghn import GHNConfig, GHNRegistry
from repro.graphs import graph_fingerprint
from repro.graphs.zoo import get_model

FAST = GHNConfig(hidden_dim=8, num_passes=1, s_max=3, chunk_size=16)
MODELS = ["resnet18", "alexnet", "vgg11"]


def _registry(cache_size: int) -> GHNRegistry:
    return GHNRegistry(config=FAST, train_steps=2,
                       embed_cache_size=cache_size)


class TestBoundedEmbedCache:
    def test_cache_is_the_shared_lru_policy(self):
        registry = _registry(4)
        assert isinstance(registry.embed_cache, LRUCache)
        assert registry.embed_cache.capacity == 4

    def test_eviction_under_cap_and_counters(self):
        registry = _registry(2)
        graphs = [get_model(name, input_size=64) for name in MODELS]
        with obs.observed(tracing=False) as (_, metrics):
            for graph in graphs:
                registry.embed("cifar10", graph)
            # Third insert evicted the first; re-embedding it misses.
            registry.embed("cifar10", graphs[0])
            registry.embed("cifar10", graphs[0])  # now a hit
            counters = metrics.snapshot()["counters"]
        assert len(registry.embed_cache) == 2
        assert counters["ghn.embed_cache.misses"] == 4
        assert counters["ghn.embed_cache.evictions"] >= 1
        assert counters["ghn.embed_cache.hits"] == 1

    def test_memoized_embedding_identical_array(self):
        registry = _registry(8)
        graph = get_model("resnet18", input_size=32)
        first = registry.embed("cifar10", graph)
        second = registry.embed("cifar10", graph)
        assert second is first  # cached object, no recompute
        assert registry.embed_cache.hits == 1

    def test_retrain_invalidates_only_that_dataset(self):
        registry = _registry(8)
        graph = get_model("resnet18", input_size=32)
        cifar = registry.embed("cifar10", graph)
        tiny = registry.embed("tiny-imagenet", graph)
        registry.train(get_dataset("cifar10"), steps=2, seed=1)
        assert registry.embed_cache.keys() == [("tiny-imagenet",
                                                graph_fingerprint(graph))]
        fresh = registry.embed("cifar10", graph)
        assert not np.array_equal(fresh, cifar) or fresh is not cifar
        assert registry.embed("tiny-imagenet", graph) is tiny

    def test_same_name_different_graphs_get_their_own_embeddings(self):
        """The cache keys on content: a shared name shares nothing."""
        small = get_model("resnet18", input_size=32)
        large = get_model("resnet18", input_size=64)
        assert small.name == large.name
        registry = _registry(8)
        first = registry.embed("cifar10", small)
        second = registry.embed("cifar10", large)
        assert not np.array_equal(first, second)
        assert len(registry.embed_cache) == 2
        registry.embed_cache.clear()
        (batched_small,) = registry.embed_many("cifar10", [small])
        (batched_large,) = registry.embed_many("cifar10", [large])
        np.testing.assert_array_equal(batched_small, first)
        np.testing.assert_array_equal(batched_large, second)

    def test_renamed_copy_shares_one_entry(self):
        graph = get_model("alexnet", input_size=64)
        twin = get_model("alexnet", input_size=64)
        twin.name = "alexnet-renamed"
        registry = _registry(8)
        first = registry.embed("cifar10", graph)
        assert registry.embed("cifar10", twin) is first
        assert registry.embed_many("cifar10", [twin])[0] is first
        assert len(registry.embed_cache) == 1
