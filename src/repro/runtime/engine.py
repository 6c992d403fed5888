"""The batched solve engine — plan cache + coalescer + bounded executor.

:class:`SolveEngine` is the execution layer between callers (examples,
:mod:`repro.advection`, :mod:`repro.distributed`, benchmarks) and the
solver stack.  Callers hand it a :class:`~repro.core.spec.BSplineSpec`
and right-hand sides; the engine

1. resolves the factorized builder through its
   :class:`~repro.runtime.plan_cache.PlanCache` (one factorization per
   spline-space configuration, ever);
2. coalesces small ``submit()`` requests against the same configuration
   into paper-scale ``(n, B)`` batches
   (:class:`~repro.runtime.coalescer.RequestCoalescer`), dispatching a
   batch when it fills or when the oldest request has lingered;
3. runs batches on a bounded thread pool with backpressure (``"block"``
   or ``"reject"`` when the in-flight column budget is exhausted),
   per-request deadlines, and one retry that falls back to per-request
   solves so a single poisoned right-hand side cannot fail a whole batch;
4. with ``executor="processes"``, column-shards every batch across a
   persistent :class:`~repro.runtime.sharded.ShardedExecutor` worker-
   process pool through shared memory, putting multiple cores behind a
   *single* batch (bitwise identical to the thread path);
5. counts everything in :class:`~repro.runtime.telemetry.Telemetry`.

On top of that sits the PR 5 resilience layer (:mod:`repro.runtime.resilience`):

* every plan key flows through a :class:`~repro.runtime.resilience.circuit.PlanBreaker`
  — a key that keeps failing is short-circuited into a fast replica of
  its last failure instead of burning a solve-plus-retries cycle per
  request;
* under ``executor="processes"`` the worker pool supervises itself: it
  respawns dead workers and requeues their in-flight shards
  (bitwise-identical results);
* a **degradation ladder** keeps accepted requests answered when layers
  fail: an exhausted worker pool drops the engine from *processes* to
  *threads*, and a broken thread pool drops it to *serial*
  solves on the caller's thread.  Every transition is logged, counted,
  and recorded in the telemetry event ring; no rung ever silently drops
  a request.  A batch whose shared-memory lease fails
  (:class:`~repro.runtime.shm.ShmError`) is solved locally on its pool
  thread, and the next batch tries shared memory again.
* a seeded :class:`~repro.runtime.resilience.faults.FaultPlan`
  (``EngineConfig(faults=...)`` or the ``REPRO_FAULT_PLAN`` environment
  variable) injects all of those failures on demand, deterministically,
  for chaos tests; with no plan every hook is a single ``is None`` test.

Two entry points share one batch runner::

    engine = SolveEngine(max_batch=256, max_linger=2e-3)
    fut = engine.submit(spec, rhs)          # coalesced; fut.result() -> coeffs
    outs = engine.map_batches(spec, blocks) # bulk blocks, one batch each

The engine is a context manager; ``shutdown()`` drains lingering partial
batches before stopping the workers, so no accepted request is dropped.
"""

from __future__ import annotations

import hashlib
import logging
import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.backend import (
    asnumpy,
    get_namespace,
    is_numpy_namespace,
    registered_backends,
    resolve_backend,
)
from repro.core.spec import BSplineSpec
from repro.exceptions import BackendError, ReproError, ShapeError
from repro.runtime.coalescer import CoalescedBatch, RequestCoalescer, SolveRequest
from repro.runtime.plan_cache import PlanCache, PlanKey
from repro.runtime.resilience.circuit import PlanBreaker
from repro.runtime.resilience.faults import FaultPlan
from repro.runtime.shm import ShmError
from repro.runtime.telemetry import Telemetry

__all__ = [
    "EngineConfig",
    "SolveEngine",
    "BackpressureError",
    "EngineClosedError",
    "EngineTimeoutError",
]

_BACKPRESSURE_POLICIES = ("block", "reject")
_EXECUTORS = ("threads", "processes")

_LOG = logging.getLogger("repro.runtime.engine")


class BackpressureError(ReproError, RuntimeError):
    """The engine's in-flight budget is exhausted and the policy rejects."""


class EngineClosedError(ReproError, RuntimeError):
    """A request arrived after :meth:`SolveEngine.shutdown`."""


class EngineTimeoutError(ReproError, TimeoutError):
    """A request's deadline passed before its batch was solved."""


def _fingerprint(rhs: np.ndarray) -> str:
    """A short stable fingerprint of one right-hand side.

    Quarantine records carry this instead of the data itself: enough to
    recognize the same poisoned input recurring across a campaign,
    bounded (first 64 KiB) so the failure path never hashes a paper-scale
    batch end to end.
    """
    digest = hashlib.blake2b(digest_size=8)
    digest.update(repr(rhs.shape).encode())
    digest.update(rhs.dtype.str.encode())
    digest.update(memoryview(np.ascontiguousarray(rhs)).cast("B")[:65536])
    return digest.hexdigest()


@dataclass(frozen=True)
class EngineConfig:
    """Tunables of one :class:`SolveEngine`.

    Attributes
    ----------
    max_batch:
        Columns per coalesced batch; the flush trigger.
    max_linger:
        Seconds a lone request may wait for batch-mates before a partial
        batch is cut (the latency/throughput trade-off knob).
    num_workers:
        Workers solving batches concurrently: threads under
        ``executor="threads"``, worker *processes* (plus as many
        orchestrating threads) under ``executor="processes"``.
    executor:
        ``"threads"`` — batches solve on the engine's thread pool, one
        batch per thread (different batches overlap, one batch is one
        core).  ``"processes"`` — each batch is additionally column-split
        across a persistent :class:`~repro.runtime.sharded.ShardedExecutor`
        worker-process pool through shared memory, so a single paper-scale
        batch engages every worker past the GIL; results are bitwise
        identical to the thread path.
    max_queue:
        In-flight column budget (buffered + solving, across all lanes);
        beyond it the *backpressure* policy applies.
    backpressure:
        ``"block"`` — wait (up to *submit_timeout*) for capacity;
        ``"reject"`` — raise :class:`BackpressureError` immediately.
    submit_timeout:
        Seconds a blocked ``submit`` waits before raising
        :class:`BackpressureError`; ``None`` waits forever.
    default_timeout:
        Default per-request deadline in seconds (``None`` — no deadline).
        Expired requests are dropped from their batch with
        :class:`EngineTimeoutError` before any solve work is spent.
    retries:
        After a failed batched solve, how many per-request fallback
        attempts each member gets (the batch itself is never re-run).
    verify_every:
        Sample every Nth solved batch through the backward-error check of
        :class:`~repro.verify.residual.ResidualChecker` (0 — never).  A
        failed check is routed through the poisoned-RHS retry path, where
        each member is re-solved and re-verified individually so only the
        culprit column(s) fail.
    verify_cols:
        Columns checked per sampled batch.  The banded residual product
        costs the same order as the solve itself, so checking a bounded,
        evenly-spaced sample keeps even ``verify_every=1`` cheap on
        paper-scale batches.
    verify_tol_factor:
        Safety factor ``c`` of the condition-aware verification
        tolerance ``c · κ₁ · ε(dtype)``.
    faults:
        Optional :class:`~repro.runtime.resilience.faults.FaultPlan` of
        seeded fault triggers; ``None`` (the default) also consults the
        ``REPRO_FAULT_PLAN`` environment variable, so a plan can be
        injected without touching code.  Absent a plan, every hook costs
        one ``is None`` test.
    restart_budget:
        Pool-wide worker respawns allowed before the worker pool is
        declared exhausted and the engine degrades to threads.
    hang_timeout:
        Seconds an in-flight shard may age before its worker is declared
        hung and terminated (``None`` — hang detection off).  Must exceed
        the worst honest shard solve time.
    breaker_failures:
        Consecutive failures that trip one plan key's circuit open.
    breaker_reset:
        Seconds an open circuit short-circuits before half-open probes.
    breaker_probes:
        Trial requests allowed through a half-open circuit.
    backend_ns:
        Name of the array backend (:func:`repro.backend.resolve_backend`)
        results are staged into: ``None`` consults ``REPRO_BACKEND`` and
        defaults to ``"numpy"``.  The engine's transport (coalescer,
        shared memory) is host NumPy regardless; non-NumPy right-hand
        sides are converted on ingress and results are converted back on
        egress.  ``executor="processes"`` requires the NumPy backend —
        shared-memory shard transport cannot carry foreign arrays.
    plan_store_dir:
        Directory of a durable :class:`~repro.runtime.durable.PlanStore`
        backing the plan cache (and, under ``executor="processes"``,
        every sharded worker's cache): cold misses load from disk
        instead of refactorizing and fresh factorizations are written
        back, so a restarted engine warm-starts with zero
        factorizations.  ``None`` consults the ``REPRO_PLAN_STORE``
        environment variable; empty/unset disables the store.
    checkpoint_dir:
        Default directory for :meth:`SolveEngine.solve_stream` campaign
        checkpoints (``None`` — next to the campaign's output file).
    """

    max_batch: int = 256
    max_linger: float = 2e-3
    num_workers: int = 2
    executor: str = "threads"
    max_queue: int = 65536
    backpressure: str = "block"
    submit_timeout: Optional[float] = None
    default_timeout: Optional[float] = None
    retries: int = 1
    verify_every: int = 0
    verify_cols: int = 16
    verify_tol_factor: float = 64.0
    faults: Optional[FaultPlan] = None
    restart_budget: int = 8
    hang_timeout: Optional[float] = None
    breaker_failures: int = 5
    breaker_reset: float = 30.0
    breaker_probes: int = 1
    backend_ns: Optional[str] = None
    plan_store_dir: Optional[str] = None
    checkpoint_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if (
            self.backend_ns is not None
            and self.backend_ns not in registered_backends()
        ):
            raise BackendError(
                f"unknown array backend {self.backend_ns!r}; registered "
                f"backends: {registered_backends()}"
            )
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_linger < 0:
            raise ValueError(f"max_linger must be >= 0, got {self.max_linger}")
        if self.num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {self.num_workers}")
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.executor not in _EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r}; "
                f"expected one of {_EXECUTORS}"
            )
        if self.backpressure not in _BACKPRESSURE_POLICIES:
            raise ValueError(
                f"unknown backpressure policy {self.backpressure!r}; "
                f"expected one of {_BACKPRESSURE_POLICIES}"
            )
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.verify_every < 0:
            raise ValueError(f"verify_every must be >= 0, got {self.verify_every}")
        if self.verify_cols < 1:
            raise ValueError(f"verify_cols must be >= 1, got {self.verify_cols}")
        if self.verify_tol_factor <= 0:
            raise ValueError(
                f"verify_tol_factor must be > 0, got {self.verify_tol_factor}"
            )
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise TypeError(
                f"faults must be a FaultPlan or None, got {type(self.faults).__name__}"
            )
        if self.restart_budget < 0:
            raise ValueError(
                f"restart_budget must be >= 0, got {self.restart_budget}"
            )
        if self.hang_timeout is not None and self.hang_timeout <= 0:
            raise ValueError(
                f"hang_timeout must be > 0 or None, got {self.hang_timeout}"
            )
        if self.breaker_failures < 1:
            raise ValueError(
                f"breaker_failures must be >= 1, got {self.breaker_failures}"
            )
        if self.breaker_reset <= 0:
            raise ValueError(
                f"breaker_reset must be > 0, got {self.breaker_reset}"
            )
        if self.breaker_probes < 1:
            raise ValueError(
                f"breaker_probes must be >= 1, got {self.breaker_probes}"
            )


class _Lane:
    """Per-:class:`PlanKey` state: the coalescer feeding one builder."""

    __slots__ = ("key", "coalescer")

    def __init__(self, key: PlanKey, n: int, config: EngineConfig) -> None:
        self.key = key
        self.coalescer = RequestCoalescer(
            n, max_batch=config.max_batch, max_linger=config.max_linger
        )


class SolveEngine:
    """Batched spline-solve engine: cache, coalesce, bound, measure.

    Parameters
    ----------
    config:
        An :class:`EngineConfig`; keyword overrides (``max_batch=...``)
        may be given instead of / on top of it.
    plan_cache, telemetry:
        Optionally share these across engines (e.g. one process-wide
        plan cache under several differently-tuned engines).
    breaker:
        Optionally share one :class:`PlanBreaker` across engines (a plan
        tripped anywhere stays tripped everywhere); by default each
        engine builds its own from the ``breaker_*`` config fields.
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        plan_cache: Optional[PlanCache] = None,
        telemetry: Optional[Telemetry] = None,
        breaker: Optional[PlanBreaker] = None,
        **overrides,
    ) -> None:
        if overrides:
            base = config or EngineConfig()
            config = EngineConfig(
                **{
                    field: overrides.pop(field, getattr(base, field))
                    for field in EngineConfig.__dataclass_fields__
                }
            )
            if overrides:
                raise TypeError(f"unknown EngineConfig fields: {sorted(overrides)}")
        self.config = config or EngineConfig()
        # The namespace results are staged into; transport stays NumPy.
        self.xp = resolve_backend(self.config.backend_ns)
        if self.config.executor == "processes" and not is_numpy_namespace(
            self.xp
        ):
            raise BackendError(
                f"executor={self.config.executor!r} requires the NumPy "
                "backend: the shard transport cannot carry foreign "
                "arrays; use executor='threads' with backend_ns="
                f"{self.config.backend_ns!r}"
            )
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        # The fault plan: explicit config wins, else the environment; the
        # common case is None, and every hook below is gated on that.
        self._faults = (
            self.config.faults
            if self.config.faults is not None
            else FaultPlan.from_env()
        )
        # Durable plan store: explicit config wins, else the environment.
        store_dir = self.config.plan_store_dir
        if store_dir is None:
            from repro.runtime.durable import PLAN_STORE_ENV

            store_dir = os.environ.get(PLAN_STORE_ENV, "").strip() or None
        self.plan_store = None
        self._plan_store_dir = None if store_dir is None else os.fspath(store_dir)
        if self._plan_store_dir is not None:
            from repro.runtime.durable import PlanStore

            self.plan_store = PlanStore(
                self._plan_store_dir,
                telemetry=self.telemetry,
                faults=self._faults,
            )
        self.plan_cache = (
            plan_cache
            if plan_cache is not None
            else PlanCache(
                telemetry=self.telemetry,
                faults=self._faults,
                store=self.plan_store,
            )
        )
        if self.plan_cache.telemetry is None:
            self.plan_cache.telemetry = self.telemetry
        if self.plan_cache.faults is None and self._faults is not None:
            self.plan_cache.faults = self._faults
        if self.plan_cache.store is None and self.plan_store is not None:
            self.plan_cache.store = self.plan_store
        self.breaker = (
            breaker
            if breaker is not None
            else PlanBreaker(
                failures=self.config.breaker_failures,
                reset_timeout=self.config.breaker_reset,
                probes=self.config.breaker_probes,
                telemetry=self.telemetry,
            )
        )
        self._lanes: Dict[PlanKey, _Lane] = {}
        self._lanes_lock = threading.Lock()
        self._verify_lock = threading.Lock()
        self._verify_seq = 0
        self._checkers: Dict[PlanKey, object] = {}  # None = unverifiable builder
        self._capacity = threading.Condition()
        self._inflight_cols = 0
        self._closed = False
        # Degradation ladder state: "processes" -> "threads" -> "serial".
        # Transitions are one-way for the engine's lifetime — a layer that
        # failed under load is not trusted again until a fresh engine.
        self._level_lock = threading.Lock()
        self._level = self.config.executor
        self._serial = False
        # The sharded worker pool forks/spawns before the engine's own
        # threads exist, keeping the child processes clean of them.
        self._sharded = None
        if self.config.executor == "processes":
            from repro.runtime.sharded import ShardedExecutor

            self._sharded = ShardedExecutor(
                num_workers=self.config.num_workers,
                telemetry=self.telemetry,
                faults=self._faults,
                restart_budget=self.config.restart_budget,
                hang_timeout=self.config.hang_timeout,
                plan_store_dir=self._plan_store_dir,
            )
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.num_workers,
            thread_name_prefix="repro-solve",
        )
        self._stop_flusher = threading.Event()
        self._flusher = threading.Thread(
            target=self._flush_loop, name="repro-flusher", daemon=True
        )
        self._flusher.start()

    # -- per-tenant attribution ------------------------------------------

    def _tenant_incr(self, tenant, name: str, amount: int = 1) -> None:
        """Tenant-scoped counter bump; free for anonymous requests."""
        if tenant is not None:
            self.telemetry.tenant_incr(tenant, name, amount)

    def _tenant_observe(self, tenant, name: str, value: float) -> None:
        if tenant is not None:
            self.telemetry.tenant_observe(tenant, name, value)

    # -- capacity accounting --------------------------------------------

    def _acquire(self, cols: int) -> None:
        deadline = (
            time.perf_counter() + self.config.submit_timeout
            if self.config.submit_timeout is not None
            else None
        )
        with self._capacity:
            while self._inflight_cols + cols > self.config.max_queue:
                self.telemetry.incr("engine.backpressure_events")
                if self.config.backpressure == "reject":
                    raise BackpressureError(
                        f"in-flight budget exhausted: {self._inflight_cols} "
                        f"columns queued, {cols} requested, "
                        f"max_queue={self.config.max_queue}"
                    )
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        raise BackpressureError(
                            f"blocked submit timed out after "
                            f"{self.config.submit_timeout}s waiting for capacity"
                        )
                self._capacity.wait(timeout=remaining)
            self._inflight_cols += cols
            self.telemetry.observe("engine.queue_depth_cols", self._inflight_cols)

    def _release(self, cols: int) -> None:
        with self._capacity:
            self._inflight_cols -= cols
            self._capacity.notify_all()

    # -- the degradation ladder -------------------------------------------

    @property
    def degradation_level(self) -> str:
        """Current executor rung: ``processes``, ``threads`` or
        ``serial``."""
        return self._level

    def _use_sharded(self):
        """The sharded executor, or ``None`` once the engine degraded."""
        return self._sharded if self._level == "processes" else None

    def _degrade_to_threads(self, reason: str) -> None:
        with self._level_lock:
            if self._level != "processes":
                return
            frm = self._level
            self._level = "threads"
        self.telemetry.incr("engine.degraded_to_threads")
        self.telemetry.event(
            "degradation", frm=frm, to="threads", reason=reason
        )
        _LOG.error(
            "solve engine degraded %s -> threads: %s", frm, reason
        )

    def _degrade_to_serial(self, reason: str) -> None:
        with self._level_lock:
            if self._serial:
                return
            frm = self._level
            self._serial = True
            self._level = "serial"
        self.telemetry.incr("engine.degraded_to_serial")
        self.telemetry.event("degradation", frm=frm, to="serial", reason=reason)
        _LOG.error("solve engine degraded %s -> serial: %s", frm, reason)

    # -- lanes and dispatch ---------------------------------------------

    def _key(self, spec: BSplineSpec, version: int, dtype, backend: str) -> PlanKey:
        return PlanKey.from_spec(
            spec, version=version, dtype=dtype, backend=backend
        )

    def _lane(self, key: PlanKey, n: int) -> _Lane:
        with self._lanes_lock:
            lane = self._lanes.get(key)
            if lane is None:
                lane = self._lanes[key] = _Lane(key, n, self.config)
            return lane

    def _dispatch(
        self, key: PlanKey, batch: CoalescedBatch, cut: bool = True
    ) -> None:
        """Run *batch* on the thread pool.

        *cut* marks a coalescer cut, which is counted and passes the
        ``engine.dispatch`` fault hook; a bulk block does neither.
        """
        if cut:
            self.telemetry.incr("engine.batches_dispatched")
            self.telemetry.observe("coalescer.batch_cols", batch.cols)
        if self._serial:
            # The last rung: the thread pool is gone, so the batch solves
            # synchronously on whichever thread cut it (a submitter, the
            # flusher or a bulk caller).  Slow, but every accepted
            # request still gets an answer.
            self._run_batch(key, batch)
            return
        try:
            if cut and self._faults is not None:
                self._faults.fire("engine.dispatch", key=key)
            self._pool.submit(self._run_batch, key, batch)
        except RuntimeError as exc:
            if self._closed:
                raise
            self._degrade_to_serial(f"thread-pool dispatch failed: {exc}")
            self._run_batch(key, batch)

    # -- verify-on-solve sampling ----------------------------------------

    def _should_verify(self) -> bool:
        """Every ``verify_every``-th dispatched solve is sampled."""
        every = self.config.verify_every
        if every <= 0:
            return False
        with self._verify_lock:
            seq = self._verify_seq
            self._verify_seq += 1
        return seq % every == 0

    def _checker_for(self, key: PlanKey, builder):
        """Cached :class:`ResidualChecker` for *key*; None when the
        builder cannot expose its matrix (e.g. test fakes)."""
        with self._verify_lock:
            if key in self._checkers:
                checker = self._checkers[key]
                if checker is None:
                    self.telemetry.incr("verify.unsupported")
                return checker
        from repro.verify.residual import ResidualChecker

        try:
            checker = ResidualChecker(
                builder, tol_factor=self.config.verify_tol_factor
            )
        except TypeError:
            checker = None
            self.telemetry.incr("verify.unsupported")
        with self._verify_lock:
            self._checkers.setdefault(key, checker)
        return checker

    def _sample_cols(self, cols: int) -> np.ndarray:
        """Evenly spaced column sample, at most ``verify_cols`` wide."""
        take = min(self.config.verify_cols, cols)
        if take == cols:
            return np.arange(cols)
        return np.linspace(0, cols - 1, take).astype(int)

    def _verify_sample(self, checker, x: np.ndarray, b: np.ndarray) -> None:
        """Check solved sample *x* against pre-solve *b*; raise on failure."""
        self.telemetry.incr("verify.checks")
        if self._faults is not None:
            self._faults.fire("engine.verify")
        with self.telemetry.span("engine.verify"):
            report = checker.check(x, b)
        # η is meaningful on [0, 1]; a NaN-poisoned column reports η = ∞,
        # which is recorded as 1.0 to keep the telemetry percentiles finite.
        self.telemetry.observe(
            "verify.backward_error",
            report.worst if np.isfinite(report.worst) else 1.0,
        )
        if report.passed:
            self.telemetry.incr("verify.passes")
        else:
            self.telemetry.incr("verify.failures")
        report.raise_if_failed()

    # -- batch execution ---------------------------------------------------

    def _run_batch(self, key: PlanKey, batch: CoalescedBatch) -> None:
        """Lease, assemble, solve, degrade, verify and scatter one batch.

        The one runner behind both entry points: a coalescer cut or a
        bulk block (a one-request batch).  Under a sharded executor the
        block is assembled into the executor's lease and solved there;
        the parent's plan cache is consulted only when the parent solves
        (the threads rung, an exhausted pool, a failed shared-memory
        lease) or verifies.
        """
        now = time.perf_counter()
        live: List[SolveRequest] = []
        for req in batch.requests:
            if req.expired(now):
                self.telemetry.incr("engine.requests_timed_out")
                self._tenant_incr(req.tenant, "requests_timed_out")
                if req.future.set_running_or_notify_cancel():
                    req.future.set_exception(
                        EngineTimeoutError(
                            "request deadline passed before its batch was solved"
                        )
                    )
                self._release(req.cols)
            else:
                live.append(req)
        if not live:
            return
        batch = CoalescedBatch(live)
        dtype = np.dtype(key.dtype)
        builder = None
        checker = None
        sharded = None
        lease = None
        try:
            if not self.breaker.allow(key):
                raise self.breaker.open_error(key)
            sharded = self._use_sharded()
            if sharded is not None and batch.cols > 0:
                try:
                    # The workers solve their column shards in place in
                    # the lease and the scatter reads the same buffer.
                    lease = sharded.lease((batch.n, batch.cols), dtype)
                except ShmError as exc:
                    # Shared memory failed this batch, not the pool:
                    # solve it here; the next batch tries again.
                    self.telemetry.incr("engine.shm_fallbacks")
                    _LOG.warning(
                        "shared-memory lease failed (%s); solving this "
                        "batch locally", exc,
                    )
            if lease is None:
                sharded = None
                builder = self.plan_cache.builder(key)
            block = batch.assemble(
                dtype, out=None if lease is None else lease.array
            )
            if self._faults is not None:
                self._faults.fire("engine.rhs", array=block)
            if self._should_verify():
                if builder is None:
                    builder = self.plan_cache.builder(key)
                checker = self._checker_for(key, builder)
            if checker is not None:
                sample = self._sample_cols(block.shape[1])
                ref = block[:, sample].copy()  # pre-solve right-hand sides
            with self.telemetry.span("engine.batch_solve"):
                if sharded is not None:
                    from repro.runtime.sharded import WorkerError

                    try:
                        sharded.solve(
                            key,
                            lease,
                            restore=lambda c0, c1: batch.fill(block, c0, c1),
                        )
                    except WorkerError as exc:
                        # Only an exhausted pool degrades; any other
                        # worker failure goes to the per-request retry.
                        if not sharded.exhausted:
                            raise
                        self._degrade_to_threads(f"worker pool exhausted: {exc}")
                        # Survivor shards may have half-written the block.
                        batch.fill(block, 0, block.shape[1])
                        sharded = None
                if sharded is None:
                    if builder is None:
                        builder = self.plan_cache.builder(key)
                    if self._faults is not None:
                        self._faults.fire("engine.batch_solve", key=key)
                    builder.solve(block, in_place=True)
            if checker is not None:
                self._verify_sample(checker, block[:, sample], ref)
            batch.scatter(block)
            self.telemetry.incr("engine.requests_completed", len(live))
            for req in live:
                self._tenant_incr(req.tenant, "requests_completed")
            self.breaker.record_success(key)
        except Exception as exc:  # noqa: BLE001 - isolate per request below
            if getattr(exc, "short_circuited", False):
                # Already-counted fast fail; no retry work is owed.  A
                # short-circuit is a rejection at the door, so tenants
                # see it under requests_rejected, not requests_failed.
                self.telemetry.incr("engine.requests_failed", len(live))
                for req in live:
                    self._tenant_incr(req.tenant, "requests_rejected")
                batch.fail(exc)
            elif builder is None and sharded is None:
                # The factorization itself failed: there is nothing to
                # retry against, and the breaker hears about it so the
                # key trips before the next caller pays the same cost.
                self.telemetry.incr("engine.batch_failures")
                self.telemetry.incr("engine.requests_failed", len(live))
                for req in live:
                    self._tenant_incr(req.tenant, "requests_failed")
                self.breaker.record_failure(key, exc)
                batch.fail(exc)
            else:
                self.telemetry.incr("engine.batch_failures")
                failed = self._retry_individually(
                    key, batch, exc, checker=checker
                )
                if failed:
                    self.breaker.record_failure(key, exc)
                else:
                    self.breaker.record_success(key)
        finally:
            if lease is not None:
                self._sharded.release(lease)
            done = time.perf_counter()
            for req in live:
                self.telemetry.observe(
                    "engine.request_latency_seconds", done - req.enqueued_at
                )
                self._tenant_observe(
                    req.tenant, "request_latency_seconds", done - req.enqueued_at
                )
                self._release(req.cols)

    def _retry_individually(
        self, key: PlanKey, batch: CoalescedBatch, batch_exc: Exception,
        checker=None,
    ) -> int:
        """A failed batch falls back to local per-request solves (retry-once).

        When the batch failed its sampled verification (*checker* given),
        every fallback solve is re-verified over *all* of its columns, so
        a single poisoned right-hand side fails alone while its
        batch-mates complete normally.  Returns how many requests still
        failed; each of those lands in the quarantine ledger
        (``engine.quarantined`` + the ``engine.quarantine`` event ring)
        with a bounded fingerprint of its right-hand side.
        """
        failed = 0
        for req in batch.requests:
            if not req.future.set_running_or_notify_cancel():
                continue
            outcome: Optional[BaseException] = batch_exc
            for _ in range(self.config.retries):
                self.telemetry.incr("engine.request_retries")
                try:
                    builder = self.plan_cache.builder(key)
                    work = np.array(
                        req.rhs if req.rhs.ndim == 2 else req.rhs[:, None],
                        dtype=builder.dtype,
                        copy=True,
                        order="C",
                    )
                    builder.solve(work, in_place=True)
                    if checker is not None:
                        self._verify_sample(checker, work, req.rhs)
                    req.future.set_result(
                        work[:, 0] if req.rhs.ndim == 1 else work
                    )
                    self.telemetry.incr("engine.requests_completed")
                    self._tenant_incr(req.tenant, "requests_completed")
                    outcome = None
                    break
                except Exception as exc:  # noqa: BLE001
                    outcome = exc
            if outcome is not None:
                failed += 1
                self.telemetry.incr("engine.requests_failed")
                self._tenant_incr(req.tenant, "requests_failed")
                if req.tenant is not None and hasattr(outcome, "tenant"):
                    # Attribute the failure to its originator so the
                    # error names the tenant wherever it surfaces
                    # (WorkerError carries the slot; see its __reduce__).
                    if getattr(outcome, "tenant", None) is None:
                        try:
                            outcome.tenant = req.tenant
                        except AttributeError:  # pragma: no cover - frozen exc
                            pass
                self._quarantine(req, outcome)
                req.future.set_exception(outcome)
        return failed

    def _quarantine(self, req: SolveRequest, exc: BaseException) -> None:
        """Ledger one permanently failed request: counter + bounded ring.

        The record carries the originating tenant (when the request was
        labelled), so :meth:`telemetry_report` can render a per-tenant
        quarantine column and a campaign log can name whose poisoned
        right-hand side kept recurring.
        """
        self.telemetry.incr("engine.quarantined")
        self._tenant_incr(req.tenant, "requests_quarantined")
        self.telemetry.event(
            "engine.quarantine",
            fingerprint=_fingerprint(req.rhs),
            cols=req.cols,
            error=type(exc).__name__,
            tenant=None if req.tenant is None else str(req.tenant),
        )

    def _flush_loop(self) -> None:
        tick = max(self.config.max_linger / 4.0, 5e-4)
        while not self._stop_flusher.wait(timeout=tick):
            now = time.perf_counter()
            for lane in list(self._lanes.values()):
                batch = lane.coalescer.poll(now)
                if batch is not None:
                    try:
                        self._dispatch(lane.key, batch)
                    except RuntimeError:  # pool shut down under us
                        batch.fail(EngineClosedError("engine shut down"))
                        return

    # -- public API ------------------------------------------------------

    def submit(
        self,
        spec: BSplineSpec,
        rhs: np.ndarray,
        *,
        version: int = 2,
        dtype=np.float64,
        backend: str = "vectorized",
        timeout: Optional[float] = None,
        tenant=None,
        priority: Optional[str] = None,
    ) -> Future:
        """Queue one right-hand side for a coalesced solve.

        *rhs* is 1-D ``(n,)`` or 2-D ``(n, b)``; the returned future
        resolves to the spline coefficients with the same shape.  The
        request coalesces with every other in-flight request for the same
        ``(spec, version, dtype, backend)`` configuration.  A plan key
        whose circuit is open fails fast here, before any factorization
        or queueing work.

        *tenant* labels the request for the multi-tenant machinery: the
        coalescer round-robins batch slots across tenants, telemetry
        attributes submissions / completions / rejections / quarantines
        under ``telemetry_snapshot()["tenants"]``, and failures carry the
        label out (:class:`~repro.runtime.sharded.WorkerError.tenant`).
        ``None`` (the default) opts out of all of it at zero cost.
        *priority* is carried on the request for admission layers
        (:mod:`repro.service.admission`); the engine itself does not
        reorder on it.

        Non-NumPy right-hand sides (or a non-NumPy ``backend_ns``) are
        converted to host NumPy for transport; the future then resolves
        to coefficients staged back into the source namespace.
        """
        if self._closed:
            raise EngineClosedError("submit() after engine shutdown")
        key = self._key(spec, version, dtype, backend)
        try:
            self.breaker.check(key)
        except Exception:
            self._tenant_incr(tenant, "requests_rejected")
            raise
        try:
            builder = self.plan_cache.builder(key)  # factor once, count lookups
        except Exception as exc:
            self.breaker.record_failure(key, exc)
            self._tenant_incr(tenant, "requests_failed")
            raise
        rhs_xp = get_namespace(rhs, default=self.xp)
        if is_numpy_namespace(rhs_xp):
            rhs = np.asarray(rhs)
            rhs_xp = self.xp  # stage into the configured namespace
        else:
            rhs = np.asarray(asnumpy(rhs))
        if rhs.shape[0] != builder.n:
            raise ShapeError(
                f"right-hand side leading extent {rhs.shape[0]} does not "
                f"match the {builder.n} basis functions of {spec}"
            )
        timeout = timeout if timeout is not None else self.config.default_timeout
        deadline = time.perf_counter() + timeout if timeout is not None else None
        request = SolveRequest(
            rhs, deadline=deadline, tenant=tenant, priority=priority
        )
        try:
            self._acquire(request.cols)
        except BackpressureError:
            self._tenant_incr(tenant, "requests_rejected")
            raise
        self.telemetry.incr("engine.requests_submitted")
        self._tenant_incr(tenant, "requests_submitted")
        lane = self._lane(key, builder.n)
        # add() may cut several full batches at once (a wide request can
        # cross multiple max_batch multiples); dispatch every one now so
        # none waits out max_linger behind the flusher.
        for batch in lane.coalescer.add(request):
            self._dispatch(key, batch)
        return self._stage_future(request.future, rhs_xp)

    def _stage(self, out: np.ndarray, xp):
        """Egress: host-NumPy coefficients into the caller's namespace."""
        if is_numpy_namespace(xp):
            return out
        return xp.asarray(out)

    def _stage_future(self, fut: Future, xp) -> Future:
        """Chain *fut* through :meth:`_stage` (identity on NumPy)."""
        if is_numpy_namespace(xp):
            return fut

        staged: Future = Future()
        staged.set_running_or_notify_cancel()

        def _done(f: Future) -> None:
            exc = f.exception()
            if exc is not None:
                staged.set_exception(exc)
            else:
                staged.set_result(xp.asarray(f.result()))

        fut.add_done_callback(_done)
        return staged

    def solve(self, spec: BSplineSpec, rhs: np.ndarray, **kwargs) -> np.ndarray:
        """Synchronous convenience: ``submit(...).result()``."""
        timeout = kwargs.get("timeout")
        return self.submit(spec, rhs, **kwargs).result(
            timeout=None if timeout is None else timeout + 1.0
        )

    def map_batches(
        self,
        spec: BSplineSpec,
        blocks: Sequence[np.ndarray],
        *,
        version: int = 2,
        dtype=np.float64,
        backend: str = "vectorized",
    ) -> List[np.ndarray]:
        """Solve several already-large ``(n, batch)`` blocks in bulk.

        The bulk path skips the coalescer — each block is already a
        paper-scale batch — and runs every block as a one-request batch
        through the same runner as coalesced cuts: plan cache, circuit
        breaker, bounded pool, degradation ladder, verification and
        telemetry.  Results come back in input order; a block that fails
        after the retry policy re-raises here.
        """
        if self._closed:
            raise EngineClosedError("map_batches() after engine shutdown")
        key = self._key(spec, version, dtype, backend)
        self.breaker.check(key)
        requests = []
        block_xps = []
        for block in blocks:
            block_xp = get_namespace(block, default=self.xp)
            if is_numpy_namespace(block_xp):
                block = np.asarray(block)
                block_xp = self.xp  # stage into the configured namespace
            else:
                block = np.asarray(asnumpy(block))
            if block.ndim != 2:
                raise ShapeError(
                    f"map_batches expects 2-D (n, batch) blocks, got {block.shape}"
                )
            if block.shape[0] != spec.n_points:
                raise ShapeError(
                    f"block leading extent {block.shape[0]} does not match "
                    f"the {spec.n_points} basis functions of {spec}"
                )
            requests.append(SolveRequest(block))
            block_xps.append(block_xp)
        for request in requests:
            self._acquire(request.cols)
            self.telemetry.incr("engine.bulk_blocks_submitted")
            try:
                self._dispatch(key, CoalescedBatch([request]), cut=False)
            except RuntimeError:  # the pool shut down under us
                self._release(request.cols)
                raise
        return [
            self._stage(req.future.result(), bxp)
            for req, bxp in zip(requests, block_xps)
        ]

    def warm_start(self) -> int:
        """Preload every readable durable plan entry into the plan cache.

        With a configured ``plan_store_dir`` this turns a process restart
        into a zero-factorization boot: each stored builder is adopted
        via :meth:`PlanCache.put`, so the first solve of every known key
        is a cache hit.  Unusable entries are quarantined and skipped by
        the store.  Returns the number of builders loaded (0 when no
        store is configured).
        """
        if self.plan_store is None:
            return 0
        loaded = 0
        for key, builder in self.plan_store.entries():
            self.plan_cache.put(key, builder)
            loaded += 1
            self.telemetry.incr("durable.warm_loaded")
        return loaded

    def solve_stream(
        self,
        spec: BSplineSpec,
        source,
        out_path,
        *,
        version: int = 2,
        dtype=np.float64,
        backend: str = "vectorized",
        chunk_cols: Optional[int] = None,
        memory_budget: Optional[int] = None,
        state_path=None,
        resume: bool = True,
    ) -> np.ndarray:
        """Out-of-core campaign: stream *source* through :meth:`map_batches`.

        See :func:`repro.runtime.durable.run_campaign` — windows of
        ``chunk_cols`` columns (or a width derived from *memory_budget*)
        are solved and appended to the memory-mapped ``.npy`` at
        *out_path*, with a :class:`~repro.runtime.durable.CampaignState`
        checkpoint making the campaign resumable bitwise-identically.
        When *state_path* is omitted the checkpoint lives next to
        *out_path*, or under ``config.checkpoint_dir`` when that is set.
        """
        from repro.runtime.durable import run_campaign

        if state_path is None and self.config.checkpoint_dir is not None:
            os.makedirs(self.config.checkpoint_dir, exist_ok=True)
            state_path = os.path.join(
                self.config.checkpoint_dir,
                os.path.basename(os.fspath(out_path)) + ".campaign.json",
            )
        return run_campaign(
            self,
            spec,
            source,
            out_path,
            version=version,
            dtype=dtype,
            backend=backend,
            chunk_cols=chunk_cols,
            memory_budget=memory_budget,
            state_path=state_path,
            resume=resume,
        )

    def flush(self) -> None:
        """Dispatch every lingering partial batch right now."""
        for lane in list(self._lanes.values()):
            batch = lane.coalescer.drain()
            if batch is not None:
                self._dispatch(lane.key, batch)

    @property
    def inflight_cols(self) -> int:
        """Columns currently buffered or solving (the backpressure gauge)."""
        with self._capacity:
            return self._inflight_cols

    def telemetry_snapshot(self, include_workers: bool = True) -> dict:
        """The engine's telemetry as a dict; under ``executor="processes"``
        the per-worker snapshots are merged in (:func:`merge_snapshots`),
        so plan-cache and shard counters cover the whole fleet.  The
        resilience layer contributes ``circuit`` (per-key breaker states)
        and ``degradation`` (the ladder's current rung) sections."""
        snap = self.telemetry.snapshot()
        if include_workers and self._sharded is not None:
            from repro.runtime.telemetry import merge_snapshots

            snap = merge_snapshots(snap, *self._sharded.worker_snapshots())
        snap["circuit"] = self.breaker.states()
        snap["degradation"] = {
            "level": self._level,
            "pool_exhausted": (
                self._sharded.exhausted if self._sharded is not None else False
            ),
        }
        return snap

    def telemetry_report(self) -> str:
        """The engine's (fleet-merged) telemetry as a paper-style table."""
        from repro.runtime.telemetry import render_snapshot

        return render_snapshot(self.telemetry_snapshot())

    def shutdown(self, wait: bool = True) -> None:
        """Drain lingering batches, then stop the flusher, pool and workers."""
        if self._closed:
            return
        self._closed = True
        self._stop_flusher.set()
        self._flusher.join(timeout=1.0)
        self.flush()
        self._pool.shutdown(wait=wait)
        if self._sharded is not None:
            # After the thread pool drained no batch is mid-shard; the
            # worker shutdown captures final telemetry then frees all shm.
            self._sharded.shutdown()

    def __enter__(self) -> "SolveEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SolveEngine(max_batch={self.config.max_batch}, "
            f"max_linger={self.config.max_linger}, "
            f"workers={self.config.num_workers}, "
            f"executor={self._level!r}, "
            f"inflight={self.inflight_cols}, lanes={len(self._lanes)}, "
            f"closed={self._closed})"
        )
