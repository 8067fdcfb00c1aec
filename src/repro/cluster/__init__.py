"""``repro.cluster`` — a sharded, replicated video database.

N independent :class:`~repro.vdbms.database.VideoDatabase` shards
(each with its own durable storage root, manifest, and locks) behind
one database-shaped API:

* :class:`ConsistentHashRouter` — video id -> shard placement on a
  deterministic 64-bit hash ring with minimal movement on reshard,
  plus distinct-successor replica placement (``shards_for``),
* :class:`ClusterCoordinator` — scatter-gather impression queries
  with per-shard deadline budgets, graceful degradation (partial
  answers + ``shards_failed``), write-path replica fan-out, and —
  with replication >= 2 — automatic read failover (a single-shard
  outage yields a complete, decision-identical answer),
* :class:`Rebalancer` — the placement reconciler: one plan per pass
  (copies, divergent-copy replaces, then drops that wait out the
  scatter rounds in flight) serves ``cluster rebalance``, ``cluster
  repair`` and grow/shrink resharding, all online through the
  checksummed publish path,
* :class:`IntegrityScrubber` — byte-level digest scrubbing that heals
  through :func:`copy_video`,
* :class:`ShardSupervisor` — breaker-style consecutive-failure
  tracking that benches sick shards and re-admits them after repair.

See ``docs/CLUSTER.md`` for the design document.
"""

from .coordinator import CLUSTER_MANIFEST, ClusterAnswer, ClusterCoordinator
from .rebalance import RebalanceMove, RebalanceReport, Rebalancer
from .repair import IntegrityScrubber
from .replication import ShardSupervisor, copy_video
from .router import DEFAULT_REPLICAS, ConsistentHashRouter
from .shard import Shard

__all__ = [
    "CLUSTER_MANIFEST",
    "ClusterAnswer",
    "ClusterCoordinator",
    "ConsistentHashRouter",
    "DEFAULT_REPLICAS",
    "IntegrityScrubber",
    "RebalanceMove",
    "RebalanceReport",
    "Rebalancer",
    "ShardSupervisor",
    "Shard",
    "copy_video",
]
