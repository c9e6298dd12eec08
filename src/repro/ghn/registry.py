"""Per-dataset registry of trained GHN models (paper Sec. III-E).

"The GHN-based Workload Embeddings Generator selects the closest GHN model
out of a set of pre-trained GHN models associated with different
datasets."  The registry stores one GHN per dataset, persists it to disk
(npz weights + JSON config) and memoizes embeddings per (dataset, graph
fingerprint) so repeated predictions of the same architecture are free.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from ..caching import LRUCache
from ..datasets import DatasetSpec, get_dataset
from ..graphs import ComputationalGraph, graph_fingerprint
from ..nn import load_module, save_module
from .model import GHN2, GHNConfig
from .trainer import GHNTrainer, GHNTrainingResult

__all__ = ["GHNRegistry", "DEFAULT_EMBED_CACHE_SIZE"]

#: Meta-training steps used when a registry trains a GHN on demand.  Kept
#: deliberately small: this is the *offline, once-per-dataset* cost the
#: paper amortizes (Fig. 8), and the synthetic space converges quickly.
DEFAULT_TRAIN_STEPS = 60

#: Default bound on memoized (dataset, fingerprint) embeddings.  Large enough
#: for every zoo model on every catalog dataset; small enough that a
#: long-running server over user-supplied custom graphs stays bounded.
DEFAULT_EMBED_CACHE_SIZE = 512


class GHNRegistry:
    """Holds one trained GHN per dataset, with optional disk persistence."""

    def __init__(self, storage_dir: str | Path | None = None,
                 config: GHNConfig = GHNConfig(),
                 train_steps: int = DEFAULT_TRAIN_STEPS,
                 embed_cache_size: int = DEFAULT_EMBED_CACHE_SIZE):
        self.storage_dir = Path(storage_dir) if storage_dir else None
        self.config = config
        self.train_steps = train_steps
        self._models: dict[str, GHN2] = {}
        self._training_results: dict[str, GHNTrainingResult] = {}
        # Shared cache policy with repro.serve (see repro.caching):
        # bounded LRU, hit/miss/eviction counters under
        # ghn.embed_cache.* in the obs metrics registry.
        self._embedding_cache: LRUCache = LRUCache(
            embed_cache_size, metrics_prefix="ghn.embed_cache")

    # ------------------------------------------------------------------
    def has_model(self, dataset_name: str) -> bool:
        """Whether a trained GHN exists (in memory or on disk)."""
        name = get_dataset(dataset_name).name
        if name in self._models:
            return True
        return self._weights_path(name) is not None and \
            self._weights_path(name).exists()

    def datasets(self) -> list[str]:
        """Datasets with an in-memory GHN."""
        return sorted(self._models)

    def _weights_path(self, name: str) -> Path | None:
        if self.storage_dir is None:
            return None
        return self.storage_dir / f"ghn_{name}.npz"

    def _config_path(self, name: str) -> Path | None:
        if self.storage_dir is None:
            return None
        return self.storage_dir / f"ghn_{name}.json"

    # ------------------------------------------------------------------
    def get(self, dataset_name: str) -> GHN2:
        """Return the GHN for ``dataset_name``, loading or training it.

        This is the Task Checker decision point of Fig. 7: a matching GHN
        short-circuits straight to embedding generation; a missing one
        triggers the offline training workflow of Fig. 8.
        """
        spec = get_dataset(dataset_name)
        model = self._models.get(spec.name)
        if model is not None:
            return model
        model = self._load(spec.name)
        if model is None:
            model = self.train(spec)
        self._models[spec.name] = model
        return model

    def train(self, dataset: DatasetSpec, *,
              steps: int | None = None, seed: int = 0) -> GHN2:
        """Offline-train a fresh GHN for ``dataset`` and register it."""
        trainer = GHNTrainer(dataset, self.config, seed=seed)
        result = trainer.train(steps if steps is not None
                               else self.train_steps)
        self._training_results[dataset.name] = result
        self._models[dataset.name] = trainer.ghn
        # Retraining invalidates any embeddings computed with old weights.
        self._embedding_cache.pop_where(lambda key: key[0] == dataset.name)
        self._save(dataset.name, trainer.ghn)
        return trainer.ghn

    def training_result(self, dataset_name: str) -> GHNTrainingResult | None:
        """Training history, when the GHN was trained in this process."""
        return self._training_results.get(get_dataset(dataset_name).name)

    # ------------------------------------------------------------------
    def embed(self, dataset_name: str,
              graph: ComputationalGraph) -> np.ndarray:
        """Embedding of ``graph`` under the dataset's GHN (memoized).

        The cache key is ``(dataset, graph_fingerprint(graph))``: renamed
        copies of one architecture share an entry, and distinct
        architectures never do, whatever their names.
        """
        spec = get_dataset(dataset_name)
        key = (spec.name, graph_fingerprint(graph))
        return self._embedding_cache.get_or_compute(
            key, lambda: self.get(spec.name).embed(graph))

    def embed_many(self, dataset_name: str,
                   graphs: Sequence[ComputationalGraph]
                   ) -> list[np.ndarray]:
        """Embeddings of ``graphs`` under one dataset's GHN (memoized).

        Cache misses are deduplicated by content fingerprint and run
        through a single batched GatedGNN pass
        (:meth:`GHN2.embed_many`); each result lands in the same
        ``(dataset, fingerprint)`` cache slot :meth:`embed` uses, and is
        numerically identical to what :meth:`embed` would have
        computed.
        """
        spec = get_dataset(dataset_name)
        results: list[np.ndarray | None] = []
        missing: dict[str, list[int]] = {}
        representatives: list[ComputationalGraph] = []
        for position, graph in enumerate(graphs):
            fingerprint = graph_fingerprint(graph)
            hit = self._embedding_cache.get((spec.name, fingerprint))
            results.append(hit)
            if hit is None:
                if fingerprint not in missing:
                    missing[fingerprint] = []
                    representatives.append(graph)
                missing[fingerprint].append(position)
        if representatives:
            embedded = self.get(spec.name).embed_many(representatives)
            for (fingerprint, positions), embedding in zip(
                    missing.items(), embedded):
                self._embedding_cache.put((spec.name, fingerprint),
                                          embedding)
                for position in positions:
                    results[position] = embedding
        return results

    @property
    def embed_cache(self) -> LRUCache:
        """The bounded embedding cache (shared policy with serve)."""
        return self._embedding_cache

    # ------------------------------------------------------------------
    def _save(self, name: str, model: GHN2) -> None:
        weights = self._weights_path(name)
        if weights is None:
            return
        weights.parent.mkdir(parents=True, exist_ok=True)
        save_module(model, weights)
        self._config_path(name).write_text(
            json.dumps(model.config.to_dict()))

    def _load(self, name: str) -> GHN2 | None:
        weights = self._weights_path(name)
        if weights is None or not weights.exists():
            return None
        config = GHNConfig.from_dict(
            json.loads(self._config_path(name).read_text()))
        model = GHN2(config)
        load_module(model, weights)
        return model
