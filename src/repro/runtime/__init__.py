"""Runtime engine: batched solve scheduling between callers and solvers.

The paper's result is that the spline solve only reaches the memory-
bandwidth roofline when amortized over huge batches (matrix ~1000, batch
1e5–1e12).  :mod:`repro.core` delivers that *per call*; this package
delivers it *across calls* — the service layer a production deployment
puts in front of the solver stack:

* :class:`~repro.runtime.plan_cache.PlanCache` /
  :class:`~repro.runtime.plan_cache.PlanKey` — an LRU of factorized
  builders keyed by spline-space configuration, so no configuration is
  ever factorized twice;
* :class:`~repro.runtime.coalescer.RequestCoalescer` — aggregates many
  small solve requests into one contiguous ``(n, B)`` batch (flush on
  full batch or linger expiry), scattering results back per request;
* :class:`~repro.runtime.engine.SolveEngine` — the bounded thread-pool
  executor tying the two together, with an in-flight column budget that
  blocks callers while full, per-request deadlines, retry-once fallback,
  a synchronous ``submit().result()`` API and a bulk ``map_batches`` API;
* :class:`~repro.runtime.sharded.ShardedExecutor` /
  :mod:`repro.runtime.shm` — the ``executor="processes"`` backend: a
  persistent worker-process pool that column-shards each batch through
  pooled shared-memory segments, scaling a *single* batch past the GIL
  with bitwise-identical results;
* :class:`~repro.runtime.telemetry.Telemetry` — plan hits/misses,
  coalesced batch widths, queue depth and p50/p99 latency, exportable as
  a dict or a paper-style ASCII table, mergeable across worker processes;
* :mod:`repro.runtime.durable` — restart- and RAM-proofing: a
  versioned, checksummed on-disk :class:`~repro.runtime.durable.PlanStore`
  backing the plan cache (warm boots refactorize nothing), plus
  out-of-core campaigns (:func:`~repro.runtime.durable.run_campaign`)
  streaming memory-mapped / spooled right-hand sides in bounded-memory
  windows with a resumable, bitwise-exact
  :class:`~repro.runtime.durable.CampaignState` checkpoint;
* :mod:`repro.runtime.resilience` — the self-healing layer: seeded
  :class:`~repro.runtime.resilience.faults.FaultPlan` fault injection,
  a per-plan-key :class:`~repro.runtime.resilience.circuit.PlanBreaker`,
  and the engine's processes → threads → serial degradation ladder (the
  worker pool fails a dead worker's shards and respawns it; the engine's
  per-request retry answers the batch that lost them).

Quickstart::

    from repro import BSplineSpec
    from repro.runtime import SolveEngine

    spec = BSplineSpec(degree=3, n_points=1000)
    with SolveEngine(max_batch=256, max_linger=2e-3) as engine:
        futures = [engine.submit(spec, rhs) for rhs in many_small_rhs]
        coeffs = [f.result() for f in futures]   # solved as ~4 big batches
        print(engine.telemetry_report())
"""

from repro.runtime.coalescer import CoalescedBatch, RequestCoalescer, SolveRequest
from repro.runtime.durable import (
    ArrayRHS,
    CampaignState,
    ChunkSpoolRHS,
    DurableStoreError,
    MemmapRHS,
    PlanStore,
    StreamingRHS,
    run_campaign,
)
from repro.runtime.engine import (
    BackpressureError,
    EngineClosedError,
    EngineConfig,
    EngineTimeoutError,
    SolveEngine,
)
from repro.runtime.plan_cache import DEFAULT_MAX_PLANS, PlanCache, PlanKey
from repro.runtime.resilience import (
    CircuitOpenError,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    PlanBreaker,
)
from repro.runtime.sharded import ShardedExecutor, WorkerError
from repro.runtime.shm import SharedBlock, SharedBlockPool, ShmError
from repro.runtime.telemetry import (
    DEFAULT_MAX_SAMPLES,
    Telemetry,
    merge_snapshots,
    merged_counter,
    render_snapshot,
)

__all__ = [
    "SolveEngine",
    "EngineConfig",
    "BackpressureError",
    "EngineClosedError",
    "EngineTimeoutError",
    "PlanCache",
    "PlanKey",
    "DEFAULT_MAX_PLANS",
    "RequestCoalescer",
    "CoalescedBatch",
    "SolveRequest",
    "ShardedExecutor",
    "WorkerError",
    "SharedBlock",
    "SharedBlockPool",
    "ShmError",
    "FaultPlan",
    "FaultSpec",
    "FaultInjected",
    "PlanBreaker",
    "CircuitOpenError",
    "Telemetry",
    "merged_counter",
    "merge_snapshots",
    "render_snapshot",
    "DEFAULT_MAX_SAMPLES",
    "PlanStore",
    "DurableStoreError",
    "StreamingRHS",
    "ArrayRHS",
    "MemmapRHS",
    "ChunkSpoolRHS",
    "CampaignState",
    "run_campaign",
]
