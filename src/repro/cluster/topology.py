"""Cluster topology: the set of servers a workload runs on.

The :class:`Cluster` aggregates server specs into the configuration the
Inference Engine consumes (Sec. III-C: number of servers, CPUs, GPUs, RAM,
cores, FLOPS) and exposes the network parameters the all-reduce cost model
needs.  Heterogeneous clusters (mixed server classes) are fully supported
(Sec. III-C: "the prediction model [is] agnostic to server
configurations").
"""

from __future__ import annotations

import dataclasses

from .hardware import ServerSpec, get_server_class
from .resources import ResourceSnapshot

__all__ = ["Cluster", "make_cluster"]

#: Per-message network latency between any two servers (seconds).
DEFAULT_NET_LATENCY = 50e-6

#: Aggregate NFS read throughput shared by all clients (bytes/s).
DEFAULT_NFS_THROUGHPUT = 1.0e9


@dataclasses.dataclass(frozen=True)
class Cluster:
    """A set of servers plus shared-network/storage parameters."""

    #: Content signature, filled in by ``repro.serve.cache
    #: .cluster_signature`` on first use.  A plain class attribute, not
    #: a field: equality and ``dataclasses.replace`` ignore it, and
    #: clusters unpickled from before it existed compute it lazily.
    _signature = None

    servers: tuple[ServerSpec, ...]
    net_latency: float = DEFAULT_NET_LATENCY
    nfs_throughput: float = DEFAULT_NFS_THROUGHPUT

    def __post_init__(self):
        if not self.servers:
            raise ValueError("a cluster needs at least one server")

    @property
    def num_servers(self) -> int:
        return len(self.servers)

    @property
    def num_gpus(self) -> int:
        return sum(s.num_gpus for s in self.servers)

    @property
    def total_cores(self) -> int:
        return sum(s.total_cores for s in self.servers)

    @property
    def total_ram(self) -> float:
        return float(sum(s.ram_bytes for s in self.servers))

    @property
    def total_flops(self) -> float:
        """Aggregate training throughput across servers."""
        return float(sum(s.effective_flops for s in self.servers))

    @property
    def min_server_flops(self) -> float:
        """Slowest server's throughput -- the DDP straggler bound."""
        return min(s.effective_flops for s in self.servers)

    @property
    def min_bandwidth(self) -> float:
        """Bottleneck NIC bandwidth along the all-reduce ring."""
        return min(s.net_bandwidth for s in self.servers)

    @property
    def is_homogeneous(self) -> bool:
        return len({s.name for s in self.servers}) == 1

    def idle_snapshots(self) -> list[ResourceSnapshot]:
        """One idle :class:`ResourceSnapshot` per server."""
        return [ResourceSnapshot.idle(f"{spec.name}-{i}", spec)
                for i, spec in enumerate(self.servers)]

    def as_feature_dict(self) -> dict[str, float]:
        """Cluster-level features for the Inference Engine (Sec. III-C)."""
        return {
            "num_servers": float(self.num_servers),
            "num_gpus": float(self.num_gpus),
            "total_cores": float(self.total_cores),
            "total_ram": self.total_ram,
            "total_flops": self.total_flops,
            "min_server_flops": self.min_server_flops,
            "min_bandwidth": self.min_bandwidth,
        }


def make_cluster(num_servers: int, server_class: str | ServerSpec,
                 **kwargs) -> Cluster:
    """Build a homogeneous cluster of ``num_servers`` of one class."""
    if num_servers <= 0:
        raise ValueError(f"num_servers must be positive, got {num_servers}")
    spec = (server_class if isinstance(server_class, ServerSpec)
            else get_server_class(server_class))
    return Cluster(servers=(spec,) * num_servers, **kwargs)
