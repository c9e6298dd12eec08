"""Content fingerprints of computational graphs.

A fingerprint is a stable short hash of a graph's *structure* -- nodes
(op, shape, params, flops, attrs) and edges, but not the display name.
Renamed copies of the same architecture share a fingerprint; any
structural change produces a new one.

Each graph is fingerprinted once: :func:`graph_fingerprint` stores the
hash on the :class:`ComputationalGraph` instance, which is safe because
nothing mutates a graph after construction except its ``name``, and the
fingerprint ignores the name.  The stored fingerprint keys every
per-graph memo in the system: the serving result cache, the GHN
structure cache, the GHN registry's embedding cache (and its
cross-graph dedup in ``embed_many``), and the verifier's memo of
passing reports in :func:`~repro.graphs.verify.assert_verified`, which
is cleared whenever a rule is registered or unregistered.
"""

from __future__ import annotations

import hashlib
import json

from .graph import ComputationalGraph
from .serialization import graph_to_dict

__all__ = ["graph_fingerprint", "payload_digest"]


def payload_digest(payload) -> str:
    """Stable short hex digest of a JSON-serializable payload."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def graph_fingerprint(graph: ComputationalGraph) -> str:
    """Content hash of a computational graph's structure.

    Hashes nodes (op, shape, params, flops, attrs) and edges but *not*
    the display name, so a renamed copy of the same architecture shares
    its fingerprint while any structural change produces a new one.
    Computed on first use and stored on ``graph``; later calls are an
    attribute read.
    """
    fingerprint = graph._fingerprint
    if fingerprint is None:
        payload = graph_to_dict(graph)
        payload.pop("name", None)
        fingerprint = graph._fingerprint = payload_digest(payload)
    return fingerprint
