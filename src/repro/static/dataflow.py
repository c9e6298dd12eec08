"""Dataflow passes over the graph IR: scheduling, liveness, memory.

Built on the adjacency exposed by
:class:`~repro.graphs.verify.GraphView`, these passes are purely
structural -- they need shapes (stored or inferred) but never execute
anything:

* :func:`schedule` -- deterministic topological op order (Kahn's
  algorithm with a min-id heap, so reruns and platforms agree);
* :func:`liveness` -- for each node's output buffer, the schedule step
  where it is defined and the step of its last use;
* :func:`peak_activation_memory` -- inference-time peak resident
  activation bytes when buffers are freed at last use, vs. the naive
  keep-everything sum;
* :func:`dead_nodes` -- nodes off every INPUT -> OUTPUT path, split by
  failure direction;
* :func:`training_memory_bytes` -- the simulator's per-device estimate
  (weights + gradients + optimizer state, plus *all* activations kept
  for the backward pass, scaled by batch size).
"""

from __future__ import annotations

import dataclasses
import heapq

from ..graphs.analysis import BYTES_PER_SCALAR
from ..graphs.ops import OpType
from ..graphs.verify import GraphView

__all__ = [
    "Liveness", "MemoryProfile", "schedule", "liveness",
    "activation_bytes_by_node", "peak_activation_memory", "dead_nodes",
    "training_memory_bytes", "BYTES_PER_SCALAR",
]

Shape = tuple[int, ...]


def _as_view(target) -> GraphView:
    if isinstance(target, GraphView):
        return target
    if isinstance(target, dict):
        return GraphView.from_payload(target)
    return GraphView.from_graph(target)


def schedule(target) -> list[int]:
    """Deterministic topological execution order (min node id first).

    Raises :class:`ValueError` on cyclic graphs -- callers that want a
    diagnostic instead should verify structure first.
    """
    view = _as_view(target)
    indeg = {i: len(view.pred[i]) for i in view.by_id}
    heap = [i for i, d in indeg.items() if d == 0]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        u = heapq.heappop(heap)
        order.append(u)
        for v in view.succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(heap, v)
    if len(order) != len(view.by_id):
        raise ValueError(
            f"graph {view.name!r} is cyclic; cannot schedule")
    return order


@dataclasses.dataclass(frozen=True)
class Liveness:
    """Buffer lifetimes against a fixed schedule.

    ``def_step[n]`` is the schedule index producing node ``n``'s output;
    ``last_use[n]`` is the index of its last consumer (== ``def_step``
    for nodes with no consumers, so their buffer dies immediately after
    being produced).
    """

    order: tuple[int, ...]
    def_step: dict[int, int]
    last_use: dict[int, int]

    def live_at(self, step: int) -> list[int]:
        """Node ids whose output buffers are resident at ``step``."""
        return [n for n in self.order
                if self.def_step[n] <= step <= self.last_use[n]]


def liveness(target, order: list[int] | None = None) -> Liveness:
    """Compute def/last-use steps for every node's output buffer."""
    view = _as_view(target)
    if order is None:
        order = schedule(view)
    step_of = {node_id: step for step, node_id in enumerate(order)}
    def_step = dict(step_of)
    last_use = dict(step_of)
    for node_id in order:
        for pred in view.pred[node_id]:
            last_use[pred] = max(last_use[pred], step_of[node_id])
    return Liveness(order=tuple(order), def_step=def_step,
                    last_use=last_use)


def activation_bytes_by_node(target, shapes: dict[int, Shape | None]
                             | None = None) -> dict[int, int]:
    """Output-buffer size in bytes per node (single sample, fp32).

    ``shapes`` overrides stored shapes with inferred ones; nodes whose
    shape is unknown count as zero bytes.
    """
    # Only ``.nodes`` is read, which graphs and views expose directly;
    # a view (adjacency dicts and all) is built only for raw payloads.
    if isinstance(target, dict):
        target = GraphView.from_payload(target)
    sizes: dict[int, int] = {}
    for nd in target.nodes:
        shape = nd.out_shape
        if shapes is not None:
            shape = shapes.get(nd.node_id) or ()
        elements = 1
        for s in shape:
            elements *= s
        sizes[nd.node_id] = (BYTES_PER_SCALAR * elements) if shape else 0
    return sizes


@dataclasses.dataclass(frozen=True)
class MemoryProfile:
    """Activation-memory estimate for one forward pass of one sample."""

    peak_bytes: int            # with free-at-last-use buffer reuse
    total_bytes: int           # naive keep-everything sum
    peak_step: int             # schedule index where the peak occurs
    timeline: tuple[int, ...]  # resident bytes after each schedule step

    @property
    def reuse_saving(self) -> float:
        """Fraction of the naive footprint saved by buffer reuse."""
        if not self.total_bytes:
            return 0.0
        return 1.0 - self.peak_bytes / self.total_bytes


def peak_activation_memory(target,
                           shapes: dict[int, Shape | None] | None = None,
                           live: Liveness | None = None) -> MemoryProfile:
    """Peak resident activation bytes under free-at-last-use reuse.

    At each schedule step the resident set is every already-produced
    buffer still awaited by a later consumer; the peak over steps is the
    minimum activation memory any executor honoring this schedule needs.
    """
    view = _as_view(target)
    if live is None:
        live = liveness(view)
    sizes = activation_bytes_by_node(view, shapes)
    resident = 0
    peak = 0
    peak_step = 0
    timeline: list[int] = []
    frees: dict[int, list[int]] = {}
    for node_id in live.order:
        frees.setdefault(live.last_use[node_id], []).append(node_id)
    for step, node_id in enumerate(live.order):
        resident += sizes[node_id]
        if resident > peak:
            peak, peak_step = resident, step
        for freed in frees.get(step, ()):
            resident -= sizes[freed]
        timeline.append(resident)
    return MemoryProfile(peak_bytes=peak,
                         total_bytes=sum(sizes.values()),
                         peak_step=peak_step,
                         timeline=tuple(timeline))


def dead_nodes(target) -> tuple[list[int], list[int]]:
    """Nodes off every INPUT -> OUTPUT path.

    Returns ``(unreachable_from_input, cannot_reach_output)``; a node in
    both categories is reported only in the first.  Graphs without a
    unique INPUT/OUTPUT return empty lists (structural rules own that
    failure).
    """
    view = _as_view(target)
    inputs = [nd.node_id for nd in view.nodes if nd.op is OpType.INPUT]
    outputs = [nd.node_id for nd in view.nodes if nd.op is OpType.OUTPUT]
    if len(inputs) != 1 or len(outputs) != 1:
        return [], []
    forward = view.reachable_from(inputs[0])
    backward = view.reachable_from(outputs[0], reverse=True)
    unreachable = sorted(n for n in view.by_id if n not in forward)
    no_sink = sorted(n for n in view.by_id
                     if n in forward and n not in backward)
    return unreachable, no_sink


def training_memory_bytes(target, batch_size: int, *,
                          shapes: dict[int, Shape | None] | None = None,
                          optimizer_states: int = 2) -> int:
    """Per-device training memory estimate in bytes.

    Weights + gradients + ``optimizer_states`` copies (SGD-with-momentum
    keeps one; Adam keeps two) plus every activation of the forward pass
    retained for backward, scaled by the per-device batch size.
    """
    if isinstance(target, dict):
        target = GraphView.from_payload(target)
    params = sum(nd.params for nd in target.nodes)
    weight_bytes = BYTES_PER_SCALAR * params * (2 + optimizer_states)
    activations = sum(activation_bytes_by_node(target, shapes).values())
    return weight_bytes + activations * max(1, int(batch_size))
