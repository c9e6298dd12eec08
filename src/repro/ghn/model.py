"""The GHN-2 model: encoder -> GatedGNN (+op-norm) -> decoder / readout.

PredictDDL uses the *intermediate* node states as a fixed-size embedding of
the DNN architecture (Fig. 4: "the output of the k-deep graph neural
network component of a trained GHN-2 model") and skips the decoder at
inference time; the decoder exists to give meta-training the
parameter-prediction objective.

Single-graph and multi-graph entry points share one code path: every
forward builds a :class:`~repro.ghn.batching.GraphBatch` (of one graph
for ``embed``/``node_states``) and runs the batch-size-invariant GatedGNN
kernels, so ``embed_many([g1..gk])[i]`` is numerically identical to
``embed(gi)`` -- max abs diff 0.0 across the zoo (tested).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from ..graphs import ComputationalGraph, OpType
from ..graphs.verify import assert_verified
from ..nn import Module, Tensor, no_grad
from ..obs import METRICS, TRACER
from .batching import GraphBatch
from .decoder import ParameterDecoder
from .encoder import NodeEncoder
from .gated_gnn import GatedGNN, GraphStructure
from .normalization import OperationNormalization

__all__ = ["GHNConfig", "GHN2"]


@dataclasses.dataclass(frozen=True)
class GHNConfig:
    """Hyperparameters of a GHN-2 instance.

    Attributes
    ----------
    hidden_dim:
        Node-state and embedding dimension ``d`` (paper: e.g. 32).
    num_passes:
        ``T`` forward+backward traversal rounds.
    s_max:
        Maximum shortest-path length for virtual edges (Eq. 4);
        ``s_max <= 1`` disables virtual edges (GHN-1 ablation).
    use_node_attrs:
        Append structural scalars to one-hot node features.
    use_op_norm:
        Apply operation-dependent normalization between passes.
    readout:
        ``"sum"`` (default; embedding norm scales with graph complexity)
        or ``"mean"`` (ablation).
    chunk_size:
        Decoder chunk size.
    seed:
        Weight-initialization seed.
    batch_graphs:
        Architectures sampled per meta-training step (GHN-2 recipe:
        meta-batches of architectures).  ``1`` reproduces the classic
        one-arch-per-step loop exactly.
    """

    hidden_dim: int = 32
    num_passes: int = 1
    s_max: int = 5
    use_node_attrs: bool = True
    use_op_norm: bool = True
    readout: str = "sum"
    chunk_size: int = 64
    seed: int = 0
    batch_graphs: int = 1

    def __post_init__(self):
        if self.readout not in ("sum", "mean"):
            raise ValueError(f"readout must be 'sum' or 'mean', "
                             f"got {self.readout!r}")
        if self.hidden_dim <= 0 or self.num_passes <= 0:
            raise ValueError("hidden_dim and num_passes must be positive")
        if self.batch_graphs < 1:
            raise ValueError("batch_graphs must be >= 1, "
                             f"got {self.batch_graphs}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(payload: dict) -> "GHNConfig":
        return GHNConfig(**payload)


class GHN2(Module):
    """Graph HyperNetwork 2 over computational graphs."""

    def __init__(self, config: GHNConfig = GHNConfig()):
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.encoder = NodeEncoder(config.hidden_dim, rng,
                                   use_node_attrs=config.use_node_attrs)
        self.gnn = GatedGNN(config.hidden_dim, rng,
                            num_passes=config.num_passes)
        self.op_norm = (OperationNormalization()
                        if config.use_op_norm else None)
        self.decoder = ParameterDecoder(config.hidden_dim,
                                        config.chunk_size, rng)

    # ------------------------------------------------------------------
    def structure(self, graph: ComputationalGraph) -> GraphStructure:
        """Structure matrices for ``graph`` (process-wide memo).

        Delegates to the fingerprint-keyed cache shared by every GHN
        instance (``ghn.structure_cache.*`` obs counters).
        """
        return GraphStructure.cached(graph, self.config.s_max)

    def batch(self, graphs: Sequence[ComputationalGraph]) -> GraphBatch:
        """Pack ``graphs`` for one block-diagonal GatedGNN pass."""
        return GraphBatch.build(graphs, s_max=self.config.s_max)

    def _forward_batch(self, batch: GraphBatch) -> Tensor:
        """Encoder + GatedGNN over a packed batch -> ``(N, d)`` states."""
        features = np.concatenate(
            [self.encoder.input_features(g) for g in batch.graphs])
        states = self.encoder.project(features)
        normalize = self.op_norm if self.op_norm is not None else None
        return self.gnn(states, batch, normalize=normalize, graph=batch)

    def node_states(self, graph: ComputationalGraph) -> Tensor:
        """Final node states ``h_v^T`` of shape ``(|V|, d)``."""
        return self._forward_batch(self.batch([graph]))

    def _readout(self, states: np.ndarray) -> np.ndarray:
        if self.config.readout == "sum":
            return states.sum(axis=0)
        return states.mean(axis=0)

    def _verify(self, graph: ComputationalGraph) -> None:
        with TRACER.span("graph-verify", graph=graph.name):
            assert_verified(graph, level="fast",
                            context=f"GHN embed of {graph.name!r}")

    def embed(self, graph: ComputationalGraph, *,
              verify: bool = True) -> np.ndarray:
        """Fixed-size architecture embedding (inference path, Fig. 4).

        Runs without gradient tracking and returns a ``(hidden_dim,)``
        float array: the sum (or mean) readout of final node states.

        Malformed graphs fail fast here with a
        :class:`~repro.graphs.verify.GraphVerificationError` describing
        the violated invariants, instead of surfacing later as cryptic
        numpy shape/NaN errors inside the GatedGNN.  Verification runs
        the fast structural rule set once per graph content (the pass is
        memoized by fingerprint in
        :func:`~repro.graphs.verify.assert_verified`, like the structure
        cache); pass ``verify=False`` to skip.
        """
        with TRACER.span("ghn.embed", graph=graph.name,
                         nodes=graph.num_nodes,
                         hidden_dim=self.config.hidden_dim):
            if verify:
                self._verify(graph)
            METRICS.counter("ghn.embeds").inc()
            with no_grad():
                states = self.node_states(graph).data
            return self._readout(states)

    def embed_many(self, graphs: Sequence[ComputationalGraph], *,
                   verify: bool = True) -> list[np.ndarray]:
        """Embed K graphs in one batched GatedGNN pass.

        Row ``i`` of the result is numerically identical to
        ``embed(graphs[i])`` (same dtype, shape and bits of magnitude):
        the packed pass uses batch-size-invariant kernels, so sharing a
        batch cannot perturb any member's numbers.  Duplicated graphs
        are embedded as given (callers dedupe by fingerprint when
        worthwhile, e.g. :meth:`repro.ghn.registry.GHNRegistry\
.embed_many`).

        Per-stage spans (``pack``/``forward``/``readout``) surface in
        ``repro profile`` traces so batched-embed speedups are visible.
        """
        graphs = list(graphs)
        if not graphs:
            return []
        with TRACER.span("ghn.embed_many", graphs=len(graphs),
                         nodes=sum(g.num_nodes for g in graphs),
                         hidden_dim=self.config.hidden_dim):
            if verify:
                for graph in graphs:
                    self._verify(graph)
            METRICS.counter("ghn.embeds").inc(len(graphs))
            METRICS.counter("ghn.embed_batches").inc()
            with no_grad():
                with TRACER.span("ghn.embed_many.pack"):
                    batch = self.batch(graphs)
                with TRACER.span("ghn.embed_many.forward"):
                    states = self._forward_batch(batch).data
                with TRACER.span("ghn.embed_many.readout"):
                    return [self._readout(seg)
                            for seg in batch.split(states)]

    # ------------------------------------------------------------------
    def _decode_graph(self, graph: ComputationalGraph, states: Tensor,
                      offset: int) -> dict:
        params: dict[int, dict[str, Tensor]] = {}
        for node in graph.nodes:
            if node.op is not OpType.LINEAR:
                continue
            out_f = node.attrs["out_features"]
            in_f = node.attrs["in_features"]
            state = states[offset + node.node_id]
            entry = {"weight": self.decoder.decode(state, (out_f, in_f))}
            if node.attrs.get("bias", True):
                entry["bias"] = Tensor(np.zeros(out_f))
            params[node.node_id] = entry
        return params

    def predict_parameters(self, graph: ComputationalGraph) -> dict:
        """Decode parameters for every weighted (LINEAR) node.

        Returns ``{node_id: {"weight": Tensor, "bias": Tensor}}`` with
        gradients flowing back into the whole GHN (meta-training path).
        """
        states = self.node_states(graph)
        return self._decode_graph(graph, states, 0)

    def predict_parameters_many(
            self, graphs: Sequence[ComputationalGraph]) -> list[dict]:
        """Decode parameters for K architectures from one batched pass.

        One GatedGNN forward covers the whole meta-batch (the GHN-2
        training recipe); gradients flow through the shared pass into
        every decoded parameter.
        """
        graphs = list(graphs)
        if not graphs:
            return []
        batch = self.batch(graphs)
        states = self._forward_batch(batch)
        return [self._decode_graph(g, states, int(off))
                for g, off in zip(graphs, batch.offsets[:-1])]
