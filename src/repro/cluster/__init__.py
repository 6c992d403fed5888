"""Multi-host sharded execution — the spline solve across a worker fleet.

The paper's target is exa-scale: the spline solver feeds GYSELA-class
runs that span thousands of nodes.  This package generalizes the
single-host :class:`~repro.runtime.sharded.ShardedExecutor` to a fleet:

* :mod:`repro.cluster.wire` — the shard transport: the service
  protocol's length-prefixed framing with cluster frame types, raw
  C-order array bytes (bitwise, never pickled);
* :mod:`repro.cluster.worker` — one node: register, heartbeat, solve
  shards through its own warm-startable plan cache;
* :mod:`repro.cluster.coordinator` — registration + heartbeat leases
  (a lapsed lease is a lost node), shard re-issue onto survivors under
  fresh task ids (late acks drop; every shard applies exactly once),
  parking when no survivor exists yet, speculative duplicates of
  straggling shards;
* :mod:`repro.cluster.executor` — the engine-facing facade
  (``EngineConfig(executor="cluster")``): runs the coordinator in the
  engine process, owns the loopback fleet, respawns under a restart
  budget, degrades to threads when exhausted;
* :mod:`repro.cluster.elastic` — backlog-driven scale-up/down between
  the policy's bounds;
* :mod:`repro.cluster.config` — every knob, lease clock to elasticity,
  speculation and rejoin.

Quickstart (one process, four loopback-TCP workers)::

    from repro.runtime.engine import SolveEngine, EngineConfig
    from repro.cluster import ClusterConfig

    with SolveEngine(
        EngineConfig(executor="cluster", num_workers=4,
                     cluster=ClusterConfig()),
    ) as engine:
        coeffs = engine.solve(spec, rhs)   # bitwise == threads executor

Remote nodes join the same fleet with
``python -m repro.cluster.worker --host <coordinator> --port <port>``.
"""

from repro.cluster.config import ClusterConfig, ElasticPolicy
from repro.cluster.coordinator import Coordinator
from repro.cluster.elastic import ElasticController
from repro.cluster.executor import ClusterExecutor

__all__ = [
    "ClusterConfig",
    "ElasticPolicy",
    "Coordinator",
    "ClusterExecutor",
    "ElasticController",
]
