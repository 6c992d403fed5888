"""Resilience layer: deterministic fault injection and self-healing.

At the paper's production scale one spline-build campaign spans ~1e12
right-hand sides across long-running jobs; transient failures (a crashed
worker process, an exhausted shared-memory segment, a poisoned right-hand
side) are routine events there, not exceptions.  This package holds the
machinery that turns those events into recoveries instead of lost work —
and, just as importantly, the machinery that *proves* the recoveries in
CI by making every failure mode reproducible on demand:

* :mod:`~repro.runtime.resilience.faults` — a seeded, serializable
  :class:`~repro.runtime.resilience.faults.FaultPlan` injectable at named
  hook points threaded through the runtime (worker crash/hang, slow
  solve, shm allocation failure, RHS corruption, factorization raise,
  forced verification failure).  Off by default with zero hot-path cost;
  activated via ``EngineConfig(faults=...)`` or the ``REPRO_FAULT_PLAN``
  environment variable.
* :mod:`~repro.runtime.resilience.circuit` — a per-plan-key circuit
  breaker (closed → open → half-open) that short-circuits known-failing
  plans into fast failures instead of burning full-cost retries.

Worker-pool healing lives in the pool itself: the
:class:`~repro.runtime.sharded.ShardedExecutor` monitor detects dead (and
hung) workers, restores and requeues their in-flight shards onto
survivors, and respawns them under exponential backoff with seeded
jitter, bounded by a restart budget.

The :class:`~repro.runtime.engine.SolveEngine` ties these into a
graceful degradation ladder: ``processes`` falls back to ``threads``
when the restart budget is spent, and to serial in-caller
solves when the thread pool itself fails — every transition logged and
counted, and no accepted request is ever silently dropped.
"""

from repro.runtime.resilience.circuit import CircuitOpenError, PlanBreaker
from repro.runtime.resilience.faults import (
    ENV_VAR,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    HOOK_SITES,
)

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "FaultInjected",
    "HOOK_SITES",
    "ENV_VAR",
    "PlanBreaker",
    "CircuitOpenError",
]
