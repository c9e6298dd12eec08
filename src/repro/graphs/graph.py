"""Computational-graph IR: DAG of primitive operations with shape accounting.

A :class:`ComputationalGraph` is the object PredictDDL's GHN consumes
(Sec. III-E): nodes ``V`` are primitive ops, connectivity is the binary
adjacency matrix ``A``, and initial node features ``H_0`` are one-hot op
encodings.  Each node additionally records tensor shapes, learnable
parameter counts and forward FLOPs so the simulator and analytical
baselines can cost the network exactly.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Iterator

import numpy as np

from .ops import OpType, is_weighted_op, one_hot_matrix

__all__ = ["Node", "ComputationalGraph", "GraphValidationError"]


class GraphValidationError(ValueError):
    """Raised when a computational graph violates a structural invariant."""


@dataclasses.dataclass(frozen=True)
class Node:
    """One primitive operation in a computational graph.

    Attributes
    ----------
    node_id:
        Dense integer id; equals the node's row in the adjacency matrix.
    op:
        Primitive operation type.
    name:
        Human-readable unique name (e.g. ``"layer1.0.conv2"``).
    out_shape:
        Output tensor shape excluding the batch dimension, e.g.
        ``(C, H, W)`` for feature maps or ``(F,)`` after flatten.
    params:
        Number of learnable scalars owned by this node.
    flops:
        Forward floating point operations for a single sample
        (multiply and add counted separately, i.e. ``2 x MACs``).
    attrs:
        Op-specific attributes (kernel_size, stride, groups, ...).
    """

    node_id: int
    op: OpType
    name: str
    out_shape: tuple[int, ...]
    params: int = 0
    flops: int = 0
    attrs: dict = dataclasses.field(default_factory=dict, compare=False)

    @property
    def out_elements(self) -> int:
        """Number of elements in the node's output tensor (per sample)."""
        return int(np.prod(self.out_shape)) if self.out_shape else 0


class ComputationalGraph:
    """A directed acyclic graph of primitive DNN operations.

    The class enforces the invariants PredictDDL relies on: a single INPUT
    source, a single OUTPUT sink, acyclicity, and dense contiguous node ids.
    Edges point in the direction of data flow (forward pass).

    Nothing mutates a graph after construction except ``name``, a display
    label.  Per-graph memos rely on this contract:
    :func:`~repro.graphs.fingerprint.graph_fingerprint` computes the
    content hash once, stores it on the instance and ignores ``name``,
    and the verifier, GHN and serving caches key on that hash.  To
    change a graph's nodes or edges, build a new graph.
    """

    #: Content fingerprint, filled in by ``graph_fingerprint`` on first
    #: use (class-level default, so graphs unpickled from before the
    #: field existed still compute it lazily).
    _fingerprint: str | None = None

    def __init__(self, name: str, nodes: list[Node],
                 edges: Iterable[tuple[int, int]]):
        self.name = name
        self._nodes: list[Node] = list(nodes)
        self._edges: list[tuple[int, int]] = sorted(set(edges))
        self._succ: list[list[int]] = [[] for _ in self._nodes]
        self._pred: list[list[int]] = [[] for _ in self._nodes]
        n = len(self._nodes)
        for u, v in self._edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphValidationError(
                    f"edge ({u}, {v}) references unknown node (n={n})")
            if u == v:
                raise GraphValidationError(f"self-loop on node {u}")
            self._succ[u].append(v)
            self._pred[v].append(u)
        self._topo_order = self._compute_topological_order()
        self.validate()

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> list[Node]:
        """Nodes in id order."""
        return self._nodes

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Sorted list of ``(src, dst)`` edges."""
        return self._edges

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def node(self, node_id: int) -> Node:
        return self._nodes[node_id]

    def successors(self, node_id: int) -> list[int]:
        """Outgoing neighbours (consumers of this node's output)."""
        return self._succ[node_id]

    def predecessors(self, node_id: int) -> list[int]:
        """Incoming neighbours (producers of this node's inputs)."""
        return self._pred[node_id]

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ComputationalGraph(name={self.name!r}, "
                f"nodes={self.num_nodes}, edges={self.num_edges}, "
                f"params={self.total_params}, flops={self.total_flops})")

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def _compute_topological_order(self) -> list[int]:
        indeg = np.zeros(len(self._nodes), dtype=np.intp)
        for _, v in self._edges:
            indeg[v] += 1
        stack = [i for i in range(len(self._nodes)) if indeg[i] == 0]
        order: list[int] = []
        while stack:
            u = stack.pop()
            order.append(u)
            for v in self._succ[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    stack.append(v)
        if len(order) != len(self._nodes):
            raise GraphValidationError(f"graph {self.name!r} contains a cycle")
        return order

    def topological_order(self) -> list[int]:
        """Node ids in a valid forward-pass evaluation order."""
        return list(self._topo_order)

    def validate(self) -> None:
        """Check PredictDDL's structural invariants; raise on violation."""
        sources = [nd.node_id for nd in self._nodes
                   if not self._pred[nd.node_id]]
        sinks = [nd.node_id for nd in self._nodes
                 if not self._succ[nd.node_id]]
        input_nodes = [nd for nd in self._nodes if nd.op is OpType.INPUT]
        output_nodes = [nd for nd in self._nodes if nd.op is OpType.OUTPUT]
        if len(input_nodes) != 1:
            raise GraphValidationError(
                f"{self.name!r}: expected exactly 1 INPUT node, "
                f"found {len(input_nodes)}")
        if len(output_nodes) != 1:
            raise GraphValidationError(
                f"{self.name!r}: expected exactly 1 OUTPUT node, "
                f"found {len(output_nodes)}")
        if sources != [input_nodes[0].node_id]:
            raise GraphValidationError(
                f"{self.name!r}: INPUT must be the unique source; "
                f"sources={sources}")
        if sinks != [output_nodes[0].node_id]:
            raise GraphValidationError(
                f"{self.name!r}: OUTPUT must be the unique sink; "
                f"sinks={sinks}")
        for i, nd in enumerate(self._nodes):
            if nd.node_id != i:
                raise GraphValidationError(
                    f"{self.name!r}: node ids must be dense and ordered")
        names = {nd.name for nd in self._nodes}
        if len(names) != len(self._nodes):
            raise GraphValidationError(f"{self.name!r}: duplicate node names")

    # ------------------------------------------------------------------
    # matrices consumed by the GHN
    # ------------------------------------------------------------------
    def adjacency_matrix(self) -> np.ndarray:
        """Binary forward adjacency matrix ``A`` (|V| x |V|, float64)."""
        a = np.zeros((len(self._nodes), len(self._nodes)), dtype=np.float64)
        if self._edges:
            idx = np.asarray(self._edges, dtype=np.intp)
            a[idx[:, 0], idx[:, 1]] = 1.0
        return a

    def initial_node_features(self) -> np.ndarray:
        """One-hot op-type features ``H_0`` of shape ``(|V|, |vocab|)``."""
        return one_hot_matrix([nd.op for nd in self._nodes])

    # ------------------------------------------------------------------
    # aggregate statistics
    # ------------------------------------------------------------------
    @property
    def total_params(self) -> int:
        """Total learnable parameters of the represented DNN."""
        return int(sum(nd.params for nd in self._nodes))

    @property
    def total_flops(self) -> int:
        """Total forward FLOPs for a single input sample."""
        return int(sum(nd.flops for nd in self._nodes))

    @property
    def num_layers(self) -> int:
        """Number of weighted layers (the gray-box feature of Figs. 1-2)."""
        return sum(
            1 for nd in self._nodes
            if is_weighted_op(nd.op) and nd.op not in
            (OpType.BATCH_NORM, OpType.LAYER_NORM))

    def op_histogram(self) -> dict[OpType, int]:
        """Count of nodes per primitive op type."""
        hist: dict[OpType, int] = {}
        for nd in self._nodes:
            hist[nd.op] = hist.get(nd.op, 0) + 1
        return hist

    def depth(self) -> int:
        """Length (in edges) of the longest INPUT -> OUTPUT path."""
        dist = np.zeros(len(self._nodes), dtype=np.intp)
        for u in self._topo_order:
            for v in self._succ[u]:
                if dist[u] + 1 > dist[v]:
                    dist[v] = dist[u] + 1
        return int(dist.max()) if len(dist) else 0
