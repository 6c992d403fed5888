"""Process-sharded batch execution — scaling the solve past the GIL.

The engine's thread pool overlaps *different* batches, but a single
coalesced ``(n, B)`` block is still solved by one Python thread: the
solver stack is orchestrated in Python, so threads cannot put more than
one core behind one batch.  Related 5-D/6-D semi-Lagrangian codes
distribute exactly this workload over nodes and worker partitions; the
:class:`ShardedExecutor` is the single-machine analogue:

* a persistent pool of ``multiprocessing`` **worker processes**, each
  holding its own :class:`~repro.runtime.plan_cache.PlanCache`-resident
  factorization per :class:`~repro.runtime.plan_cache.PlanKey` (factor
  once *per worker*, ever);
* each ``(n, B)`` block is split **column-wise** with the same balanced
  :class:`~repro.distributed.decompose.Decomposition` the distributed
  layer uses for rank blocks — whole columns only, so every shard runs
  the identical kernels on the identical values;
* shards travel through pooled :mod:`multiprocessing.shared_memory`
  segments (:mod:`repro.runtime.shm`): the parent assembles the batch
  straight into the segment, workers attach by name and solve their
  column range **in place**, and the parent scatters results out of the
  same buffer — no right-hand-side bytes are ever pickled;
* the gather is deterministic: shards write disjoint column ranges and
  the parent waits for every shard's acknowledgement before touching the
  block, so the coefficients are **bitwise identical** to the
  single-process path (the batched kernels treat columns independently —
  the same property the coalescer already relies on).

The pool supervises itself.  Every in-flight shard is a
:class:`_PendingTask` carrying everything needed to *reissue* it — its
message tail, its restore callback (an interrupted in-place solve leaves
partial garbage in the shared block, so the shard's columns are re-filled
from the original request data before the retry), and its attempt count.
A monitor thread sweeps the workers every ``_POLL_INTERVAL`` seconds:

* a worker whose oldest in-flight shard outlived ``hang_timeout`` is
  killed first, so a requeued shard never races a still-writing worker;
* a dead worker's shards are restored and requeued onto survivors
  (bitwise-identical results, because shard boundaries and the kernels
  are deterministic), or parked on the rank until its respawn;
* the rank respawns under exponential backoff with seeded jitter,
  bounded by a pool-wide ``restart_budget``.  Once the budget is spent
  the pool is :attr:`~ShardedExecutor.exhausted`, and the engine steps
  down its degradation ladder (processes → threads).

Deaths, hangs and respawns are counted (``supervisor.worker_deaths`` /
``.respawns`` / ``.hangs`` / ``.budget_exhausted``,
``sharded.requeued_shards``) and land in the telemetry ``supervisor``
event ring.

Wire-up is one knob: ``SolveEngine(executor="processes", num_workers=4)``
— ``submit()``, ``map_batches()``, ``SplineBuilder(engine=...)`` and
``BatchedAdvection1D(engine=...)`` all route through the shards
transparently, and per-worker :class:`~repro.runtime.telemetry.Telemetry`
snapshots merge into the engine's fleet view.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import multiprocessing.connection as mp_conn
import pickle
import random
import signal
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.distributed.decompose import Decomposition
from repro.exceptions import ReproError
from repro.runtime import shm as shm_mod
from repro.runtime.shm import SharedBlock, SharedBlockPool
from repro.runtime.telemetry import Telemetry

__all__ = ["ShardedExecutor", "ShmLease", "WorkerError", "DEFAULT_START_METHOD"]


def _default_start_method() -> str:
    """``fork`` where the platform offers it (cheap, inherits the loaded
    solver stack), ``spawn`` otherwise."""
    methods = mp.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


DEFAULT_START_METHOD = _default_start_method()

_STOP = "stop"
_SOLVE = "solve"
_SNAPSHOT = "snapshot"

_LOG = logging.getLogger("repro.runtime.sharded")

#: seconds between the monitor's health sweeps
_POLL_INTERVAL = 0.05
#: a rank's k-th respawn waits ``min(_BACKOFF_BASE * 2**k, _BACKOFF_MAX)``
#: seconds before jitter
_BACKOFF_BASE = 0.05
_BACKOFF_MAX = 2.0
#: fraction of each backoff delay randomized (±25 %), drawn from a stream
#: seeded with ``_JITTER_SEED`` so chaos runs replay
_JITTER = 0.25
_JITTER_SEED = 0
#: requeues one shard may consume before it fails permanently
_MAX_SHARD_RETRIES = 4

#: seconds a dispatch will wait for the monitor to bring a worker back
#: before giving up — well past the default backoff ceiling, so the only
#: way to hit it is a pool that genuinely cannot heal
_LIVE_WAIT_TIMEOUT = 30.0


class WorkerError(ReproError, RuntimeError):
    """A worker process failed (or died) while solving a shard.

    Carries the shard's context when known — which worker held it, the
    plan key it was solving, the ``(col0, col1)`` column range, how many
    delivery attempts it consumed, and (once the engine's per-request
    retry path has attributed it) the *tenant* whose request it failed —
    so a campaign log names the exact shard that died instead of just
    "a worker died", and a multi-tenant report can say whose it was.
    """

    def __init__(
        self,
        message: str = "",
        worker_id: Optional[int] = None,
        key=None,
        cols: Optional[Tuple[int, int]] = None,
        attempt: Optional[int] = None,
        tenant=None,
    ) -> None:
        super().__init__(message)
        self.worker_id = worker_id
        self.key = key
        self.cols = cols
        self.attempt = attempt
        self.tenant = tenant

    def __reduce__(self):
        # Default reduction re-calls __init__ with self.args only, which
        # would drop the shard context on the worker->parent queue hop.
        return (
            type(self),
            (
                self.args[0] if self.args else "",
                self.worker_id,
                self.key,
                self.cols,
                self.attempt,
                self.tenant,
            ),
        )

    def __str__(self) -> str:
        base = self.args[0] if self.args else ""
        context = []
        if self.worker_id is not None:
            context.append(f"worker={self.worker_id}")
        if self.key is not None:
            context.append(f"key={self.key}")
        if self.cols is not None:
            context.append(f"cols=[{self.cols[0]}, {self.cols[1]})")
        if self.attempt is not None:
            context.append(f"attempt={self.attempt}")
        if self.tenant is not None:
            context.append(f"tenant={self.tenant}")
        return f"{base} [{', '.join(context)}]" if context else base


def _backoff_delay(attempt: int, rng: random.Random) -> float:
    """The jittered delay before a rank's *attempt*-th respawn."""
    delay = min(_BACKOFF_BASE * 2.0 ** max(0, attempt), _BACKOFF_MAX)
    return delay * (1.0 + _JITTER * (2.0 * rng.random() - 1.0))


def _portable_exception(exc: BaseException) -> BaseException:
    """An exception safe to send over a result queue."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return WorkerError(f"{type(exc).__name__}: {exc}")


class _AttachCache:
    """Worker-side cache of attached segments, bounded and name-keyed.

    The parent recreates (renames) a pooled segment when it grows, so
    stale names must eventually be let go; a small LRU bound keeps the
    worker's open-handle count proportional to the parent's pool.
    """

    def __init__(self, max_entries: int = 16) -> None:
        self.max_entries = max_entries
        self._open: Dict[str, object] = {}

    def buf(self, name: str) -> memoryview:
        seg = self._open.pop(name, None)
        if seg is None:
            seg = shm_mod.attach(name)
        self._open[name] = seg  # re-insert: dict order is the LRU order
        while len(self._open) > self.max_entries:
            stale_name, old = next(iter(self._open.items()))
            del self._open[stale_name]
            try:
                old.close()
            except BufferError:  # an ndarray still references the mmap
                pass
        return seg.buf

    def close(self) -> None:
        for seg in self._open.values():
            try:
                seg.close()
            except Exception:  # pragma: no cover - teardown best-effort
                pass
        self._open.clear()


def _worker_main(
    worker_id: int, task_q, result_conn, fault_json=None, plan_store_dir=None
) -> None:
    """One worker process: attach, factor-once per key, solve shards.

    Runs until a ``stop`` message.  Every solve acknowledges on
    *result_conn* (success or portable exception); the parent's gather
    waits on those acks, which is what makes the column-sharded solve
    deterministic.  The connection is this worker's **private** pipe end
    — never a queue shared with other workers, whose cross-process write
    lock a crashing worker (``os._exit`` mid-ack, an external SIGKILL)
    could take to its grave and starve every survivor.  A private pipe
    confines the damage: the parent sees this worker's death as EOF on
    this one connection and nothing else stalls.  ``fault_json`` is the
    parent's serialized
    :class:`~repro.runtime.resilience.faults.FaultPlan`; the worker's
    private copy fires the ``sharded.worker_solve`` hook (with
    ``worker=worker_id``) before each shard, with fresh visit counters —
    a respawned worker counts from zero.  ``plan_store_dir`` (when set)
    backs the worker's plan cache with the shared durable
    :class:`~repro.runtime.durable.PlanStore`, so a fresh or respawned
    worker warm-starts from disk instead of refactorizing.
    """
    # The parent handles interrupts and shuts workers down explicitly; a
    # Ctrl-C during tests must not kill a shard mid-write.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    from repro.runtime.plan_cache import PlanCache

    faults = None
    if fault_json:
        from repro.runtime.resilience.faults import FaultPlan

        faults = FaultPlan.from_json(fault_json)
    telemetry = Telemetry()
    store = None
    if plan_store_dir:
        from repro.runtime.durable import PlanStore

        store = PlanStore(plan_store_dir, telemetry=telemetry, faults=faults)
    cache = PlanCache(telemetry=telemetry, store=store)
    segments = _AttachCache()
    try:
        while True:
            message = task_q.get()
            kind = message[0]
            if kind == _STOP:
                result_conn.send((message[1], "ok", telemetry.snapshot()))
                break
            if kind == _SNAPSHOT:
                result_conn.send((message[1], "ok", telemetry.snapshot()))
                continue
            task_id, key, seg_name, shape, dtype_name, col0, col1 = message[1:]
            try:
                if faults is not None:
                    faults.fire(
                        "sharded.worker_solve",
                        worker=worker_id,
                        key=key,
                        cols=(col0, col1),
                    )
                _solve_shard(
                    cache, telemetry, segments, key, seg_name, shape,
                    dtype_name, col0, col1,
                )
                result_conn.send((task_id, "ok", None))
            except BaseException as exc:  # noqa: BLE001 - ship to parent
                telemetry.incr("worker.shard_failures")
                result_conn.send((task_id, "err", _portable_exception(exc)))
    finally:
        segments.close()
        try:
            result_conn.close()
        except OSError:  # pragma: no cover - already broken
            pass


def _solve_shard(
    cache, telemetry, segments, key, seg_name, shape, dtype_name, col0, col1
) -> None:
    """Solve one column shard in place in the named shared segment.

    A separate function so the ndarray over the segment's buffer dies
    with the call — a lingering reference would make the attach cache's
    eviction a :class:`BufferError`.
    """
    block = np.ndarray(
        shape, dtype=np.dtype(dtype_name), buffer=segments.buf(seg_name)
    )
    builder = cache.builder(key)
    telemetry.incr("worker.shards_solved")
    telemetry.observe("worker.shard_cols", col1 - col0)
    with telemetry.span("worker.shard_solve"):
        builder.solve(block[:, col0:col1], in_place=True)


class ShmLease:
    """A leased shared block viewed as an ``(n, B)`` ndarray.

    ``array`` is writable by the parent (assemble/scatter) and by every
    worker holding a shard of it; ``name`` is what ships to workers.
    The lease must be released back to its executor exactly once.
    """

    __slots__ = ("block", "array")

    def __init__(self, block: SharedBlock, shape, dtype) -> None:
        self.block = block
        self.array = np.ndarray(shape, dtype=dtype, buffer=block.buf)

    @property
    def name(self) -> str:
        return self.block.name


class _PendingTask:
    """One in-flight message and everything needed to reissue it.

    ``tail`` is the message payload after ``(kind, task_id)``, verbatim;
    ``restore`` (solve shards only) re-fills the shard's columns from
    the original request data — mandatory before a retry, because the
    dead worker may have half-overwritten them in place.  ``attempt``
    counts deliveries consumed so a shard cannot requeue forever.
    """

    __slots__ = (
        "future", "rank", "kind", "tail", "restore",
        "attempt", "issued_at", "key", "cols",
    )

    def __init__(
        self,
        rank: int,
        kind: str,
        tail: tuple,
        restore: Optional[Callable[[], None]] = None,
        key=None,
        cols: Optional[Tuple[int, int]] = None,
    ) -> None:
        self.future: Future = Future()
        self.rank = rank
        self.kind = kind
        self.tail = tail
        self.restore = restore
        self.attempt = 0
        self.issued_at = time.monotonic()
        self.key = key
        self.cols = cols


class ShardedExecutor:
    """Self-healing worker-process pool solving column shards of batches.

    Parameters
    ----------
    num_workers:
        Worker processes, the widest column split of one block, and the
        shared-memory segments kept warm (the engine's own thread bound).
    telemetry:
        Parent-side :class:`Telemetry` for shard accounting; worker-side
        telemetry lives in the workers and merges on demand.
    faults:
        Optional :class:`~repro.runtime.resilience.faults.FaultPlan`.
        The parent fires ``sharded.dispatch`` and ``shm.acquire``; a
        serialized copy ships to every worker (including respawns) for
        ``sharded.worker_solve``.
    restart_budget:
        Pool-wide worker respawns allowed before the pool is declared
        :attr:`exhausted` (0 — never respawn).
    hang_timeout:
        Seconds an in-flight shard may age before its worker is declared
        hung and killed (``None`` — hang detection off).  Must exceed the
        worst honest shard solve time.
    plan_store_dir:
        Optional durable :class:`~repro.runtime.durable.PlanStore`
        directory shared by every worker (spawned and respawned): each
        worker's plan cache warm-starts from it and writes fresh
        factorizations back.
    """

    def __init__(
        self,
        num_workers: int,
        telemetry: Optional[Telemetry] = None,
        faults=None,
        restart_budget: int = 8,
        hang_timeout: Optional[float] = None,
        plan_store_dir=None,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if restart_budget < 0:
            raise ValueError(
                f"restart_budget must be >= 0, got {restart_budget}"
            )
        if hang_timeout is not None and hang_timeout <= 0:
            raise ValueError(
                f"hang_timeout must be > 0 or None, got {hang_timeout}"
            )
        self.num_workers = int(num_workers)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.faults = faults
        self.plan_store_dir = (
            None if plan_store_dir is None else str(plan_store_dir)
        )
        self._fault_json = faults.to_json() if faults is not None else None
        self._hang_timeout = hang_timeout
        self._restarts_left = int(restart_budget)
        self._respawn_attempts: Dict[int, int] = {}
        self._rng = random.Random(_JITTER_SEED)
        self._exhausted = False
        self._ctx = mp.get_context(DEFAULT_START_METHOD)
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self._pending: Dict[int, _PendingTask] = {}
        self._parked: Dict[int, List[_PendingTask]] = {}
        self._rr = 0
        self._next_id = 0
        self._closed = False
        self._final_snapshots: List[dict] = []
        # Results travel over one pipe *per worker* (single writer each):
        # a queue shared by all workers would share one cross-process
        # write lock, and a worker crashing while holding it would starve
        # every survivor's acks forever.  The collector multiplexes the
        # read ends with ``multiprocessing.connection.wait``; a dead
        # worker surfaces as EOF on its own connection only.
        self._reader_conns: List[mp_conn.Connection] = []
        self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
        self._collector_stop = False
        self._tasks = []
        self._procs = []
        for rank in range(self.num_workers):
            q, rx, proc = self._spawn_worker(rank)
            self._tasks.append(q)
            self._procs.append(proc)
            self._reader_conns.append(rx)
        self._pool = SharedBlockPool(
            blocks=self.num_workers,
            faults=faults,
            telemetry=self.telemetry,
        )
        self._live: List[bool] = [True] * self.num_workers
        self._collector = threading.Thread(
            target=self._collect_loop, name="repro-shard-collector", daemon=True
        )
        self._collector.start()
        self._stop_monitor = threading.Event()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-shard-monitor", daemon=True
        )
        self._monitor.start()

    # -- result plumbing -------------------------------------------------

    def _spawn_worker(self, rank: int):
        """Launch one worker: fresh task queue, fresh private result pipe.

        The parent's copy of the write end closes right after the start,
        so the worker holds the only writer and its death is a clean EOF
        on the read end — never a half-held shared lock.
        """
        rx, tx = self._ctx.Pipe(duplex=False)
        q = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(rank, q, tx, self._fault_json, self.plan_store_dir),
            name=f"repro-shard-{rank}",
            daemon=True,
        )
        try:
            proc.start()
        except BaseException:  # pragma: no cover - resource exhaustion
            rx.close()
            tx.close()
            raise
        tx.close()
        return q, rx, proc

    def _wake_collector(self) -> None:
        try:
            self._wake_w.send_bytes(b"w")
        except (OSError, ValueError):  # pragma: no cover - closing down
            pass

    def _retire_conn(self, conn) -> None:
        with self._lock:
            if conn in self._reader_conns:
                self._reader_conns.remove(conn)
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def _collect_loop(self) -> None:
        while True:
            with self._lock:
                conns = list(self._reader_conns)
            # The 1 s timeout is a backstop only; wake tokens refresh the
            # wait set the moment a respawn adds a fresh connection.
            ready = mp_conn.wait(conns + [self._wake_r], timeout=1.0)
            for conn in ready:
                if conn is self._wake_r:
                    try:
                        self._wake_r.recv_bytes()
                    except (EOFError, OSError):  # pragma: no cover
                        return
                    if self._collector_stop:
                        return
                    continue
                try:
                    task_id, status, payload = conn.recv()
                except (EOFError, OSError):
                    # This worker died (possibly mid-ack: a truncated
                    # message ends the stream).  Its pending shards are
                    # the monitor's job; only this pipe retires.
                    self._retire_conn(conn)
                    continue
                except Exception:  # pragma: no cover - corrupt stream
                    self._retire_conn(conn)
                    continue
                with self._lock:
                    task = self._pending.pop(task_id, None)
                if task is None:  # a late ack from a terminated/requeued shard
                    continue
                if status == "ok":
                    task.future.set_result(payload)
                else:
                    task.future.set_exception(payload)

    def _issue(self, rank: int, message_tail: tuple, kind: str = _SOLVE) -> Future:
        """Issue a rank-directed control message (snapshot / stop)."""
        with self._lock:
            if self._closed:
                raise WorkerError("sharded executor is shut down")
            task_id = self._next_id
            self._next_id += 1
            task = _PendingTask(rank, kind, message_tail)
            self._pending[task_id] = task
            q = self._tasks[rank]
        q.put((kind, task_id) + message_tail)
        return task.future

    def _issue_live(
        self,
        tail: tuple,
        kind: str,
        restore: Optional[Callable[[], None]],
        key,
        cols: Tuple[int, int],
    ) -> Future:
        """Register and issue one solve shard to the next live worker.

        Pick, register and queue-grab happen under one lock hold, so a
        shard can never be sent to a rank that was already marked down —
        and a rank that dies *after* the send still carries the shard in
        ``_pending``, where the monitor's requeue finds it.  With no live
        rank the call waits for the monitor to respawn one, failing fast
        when the pool is closed or exhausted (never deadlocks: a hard
        timeout backstops the wait).
        """
        deadline = time.monotonic() + _LIVE_WAIT_TIMEOUT
        with self._lock:
            while True:
                if self._closed:
                    raise WorkerError("sharded executor is shut down")
                live = [
                    rank for rank in range(self.num_workers) if self._live[rank]
                ]
                if live:
                    self._rr += 1
                    rank = live[self._rr % len(live)]
                    task_id = self._next_id
                    self._next_id += 1
                    task = _PendingTask(rank, kind, tail, restore, key, cols)
                    self._pending[task_id] = task
                    q = self._tasks[rank]
                    break
                if self._exhausted:
                    raise WorkerError(
                        "no live worker processes and the restart budget "
                        "is exhausted",
                        key=key,
                        cols=cols,
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise WorkerError(
                        f"timed out after {_LIVE_WAIT_TIMEOUT:.1f}s "
                        "waiting for a live worker; "
                        f"ranks awaited: {self._rank_states_locked()}",
                        key=key,
                        cols=cols,
                    )
                self._cv.wait(timeout=min(0.05, remaining))
        q.put((kind, task_id) + tail)
        return task.future

    def _rank_states_locked(self) -> Dict[int, str]:
        """Per-rank lease state for timeout diagnostics (under the lock).

        ``live`` — routable; ``down`` — marked down, process still up
        (death being handled); ``dead`` — marked down and the process is
        gone (respawn pending or budget spent).
        """
        states = {}
        for rank in range(self.num_workers):
            if self._live[rank]:
                states[rank] = "live"
            elif self._procs[rank].is_alive():
                states[rank] = "down"
            else:
                states[rank] = "dead"
        return states

    def _await(self, fut: Future, what: str):
        """Wait on *fut* across worker deaths.

        Every pending shard is acknowledged, requeued or failed by the
        monitor, so the wait needs one backstop only: a future the pool
        no longer *tracks* (neither pending nor parked) can never
        resolve, so after a few grace ticks it fails as
        :class:`WorkerError` rather than hanging the caller forever.
        The grace period covers the honest untracked window while the
        monitor restores and reissues a requeued shard.
        """
        untracked_ticks = 0
        while True:
            try:
                return fut.result(timeout=1.0)
            except FutureTimeoutError:
                with self._lock:
                    tracked = any(
                        t.future is fut for t in self._pending.values()
                    ) or any(
                        t.future is fut
                        for tasks in self._parked.values()
                        for t in tasks
                    )
                if tracked or fut.done():
                    untracked_ticks = 0
                    continue
                untracked_ticks += 1
                if untracked_ticks < 3:
                    continue
                raise WorkerError(
                    f"in-flight shard lost by the pool during {what} "
                    "(neither pending, parked, nor resolved)"
                ) from None

    def _fail_pending(self, exc: BaseException) -> None:
        with self._lock:
            pending, self._pending = self._pending, {}
            parked, self._parked = self._parked, {}
        tasks = list(pending.values())
        for rank_tasks in parked.values():
            tasks.extend(rank_tasks)
        for task in tasks:
            if not task.future.done():
                task.future.set_exception(exc)

    # -- supervision -------------------------------------------------------
    #
    # The monitor thread runs everything below, concurrently with solves.

    @property
    def exhausted(self) -> bool:
        """True once the restart budget is spent on an unrecoverable death."""
        return self._exhausted

    @property
    def peak_lease_bytes(self) -> int:
        """Concurrent peak of shared-memory bytes leased for shard blocks."""
        return self._pool.peak_lease_bytes

    def _monitor_loop(self) -> None:
        while not self._stop_monitor.wait(timeout=_POLL_INTERVAL):
            try:
                self._sweep()
            except Exception:  # pragma: no cover - never kill the monitor
                _LOG.exception("worker-pool sweep failed")

    def _sweep(self) -> None:
        if self._closed:
            return
        if self._hang_timeout is not None:
            now = time.monotonic()
            for rank in range(self.num_workers):
                if not self._live[rank]:
                    continue
                age = self._oldest_pending_age(rank, now)
                if age is not None and age > self._hang_timeout:
                    self.telemetry.incr("supervisor.hangs")
                    self.telemetry.event(
                        "supervisor", action="hang_kill", rank=rank, age=age
                    )
                    _LOG.warning(
                        "worker %d hung for %.2fs (> %.2fs); terminating",
                        rank, age, self._hang_timeout,
                    )
                    # Kill first: the requeue below must never race a
                    # worker that is still writing into shared memory.
                    self._terminate_worker(rank)
        for rank in range(self.num_workers):
            if self._live[rank] and not self._procs[rank].is_alive():
                self._handle_death(rank)

    def _handle_death(self, rank: int) -> None:
        self.telemetry.incr("supervisor.worker_deaths")
        with self._lock:
            self._live[rank] = False  # route no new shard at the rank
            self._cv.notify_all()
        will_respawn = self._restarts_left > 0 and not self._closed
        self.telemetry.event(
            "supervisor",
            action="worker_death",
            rank=rank,
            respawn=will_respawn,
            restarts_left=self._restarts_left,
        )
        _LOG.warning(
            "worker %d died (%s); requeueing its in-flight shards",
            rank, "respawning" if will_respawn else "restart budget spent",
        )
        if self._restarts_left == 0 and not self._exhausted:
            # Marked before the requeue fails any shard, so a caller that
            # sees the failure also sees the exhaustion.
            with self._lock:
                self._exhausted = True
                self._cv.notify_all()
            self.telemetry.incr("supervisor.budget_exhausted")
            self.telemetry.event(
                "supervisor", action="budget_exhausted", rank=rank
            )
            _LOG.error("worker restart budget spent; pool marked exhausted")
        # Move what can move to survivors right now; shards that cannot
        # (no survivors) stay parked on the rank only if a respawn is
        # coming to pick them up, otherwise they fail fast.
        self._requeue_rank(rank, allow_park=will_respawn)
        if not will_respawn:
            return
        self._restarts_left -= 1
        attempt = self._respawn_attempts.get(rank, 0)
        self._respawn_attempts[rank] = attempt + 1
        delay = _backoff_delay(attempt, self._rng)
        # Wait on the stop event so shutdown interrupts the backoff.
        if self._stop_monitor.wait(timeout=delay) or self._closed:
            return
        if self._respawn(rank):
            self.telemetry.incr("supervisor.respawns")
            self.telemetry.event(
                "supervisor",
                action="respawn",
                rank=rank,
                attempt=attempt + 1,
                backoff=delay,
            )
            _LOG.warning(
                "worker %d respawned (attempt %d, backoff %.3fs)",
                rank, attempt + 1, delay,
            )

    def _terminate_worker(self, rank: int) -> None:
        """Kill *rank* now (hang remediation) and wait until it is dead.

        The join matters: a requeued shard must never race a terminated
        worker that is still mid-write in the shared block.
        """
        proc = self._procs[rank]
        proc.terminate()
        proc.join(timeout=2.0)
        if proc.is_alive():  # pragma: no cover - terminate() ignored
            proc.kill()
            proc.join(timeout=2.0)

    def _oldest_pending_age(self, rank: int, now: float) -> Optional[float]:
        """Age in seconds of *rank*'s oldest in-flight shard, or ``None``."""
        with self._lock:
            oldest = None
            for task in self._pending.values():
                if task.rank != rank or task.kind != _SOLVE:
                    continue
                if oldest is None or task.issued_at < oldest:
                    oldest = task.issued_at
        return None if oldest is None else now - oldest

    def _pick_survivor_locked(self) -> Optional[int]:
        live = [
            rank
            for rank in range(self.num_workers)
            if self._live[rank] and self._procs[rank].is_alive()
        ]
        if not live:
            return None
        self._rr += 1
        return live[self._rr % len(live)]

    def _fail_task(self, task: _PendingTask, rank: int, message: str) -> None:
        if task.future.done():  # pragma: no cover - raced with an ack
            return
        task.future.set_exception(
            WorkerError(
                message,
                worker_id=rank,
                key=task.key,
                cols=task.cols,
                attempt=task.attempt,
            )
        )

    def _reissue(self, task: _PendingTask, rank: int) -> bool:
        with self._lock:
            if self._closed:
                return False
            task_id = self._next_id
            self._next_id += 1
            task.rank = rank
            task.attempt += 1
            task.issued_at = time.monotonic()
            self._pending[task_id] = task
            q = self._tasks[rank]
        q.put((task.kind, task_id) + task.tail)
        return True

    def _requeue_rank(self, rank: int, allow_park: bool) -> None:
        """Move dead *rank*'s in-flight shards to survivors.

        Each shard is **restored first** — its column range re-filled
        from the original request data — because the dead worker may
        have half-overwritten it in place; re-solving restored columns
        is bitwise identical to the undisturbed run.  A shard past
        ``_MAX_SHARD_RETRIES`` requeues fails with full context.  With no
        survivor the shard parks on *rank* when a respawn is coming
        (``allow_park``), else fails fast.  Control messages
        (snapshot/stop) always fail.
        """
        with self._lock:
            victims = [
                (task_id, task)
                for task_id, task in self._pending.items()
                if task.rank == rank
            ]
            for task_id, _ in victims:
                del self._pending[task_id]
        for _, task in victims:
            if task.future.done():  # the ack beat the death notice
                continue
            if task.kind != _SOLVE:
                self._fail_task(task, rank, "worker died before answering")
                continue
            if task.attempt >= _MAX_SHARD_RETRIES:
                self._fail_task(
                    task,
                    rank,
                    f"shard failed after {task.attempt + 1} deliveries",
                )
                continue
            try:
                if task.restore is not None:
                    task.restore()
            except BaseException as exc:  # noqa: BLE001 - surface to caller
                if not task.future.done():
                    task.future.set_exception(exc)
                continue
            with self._lock:
                target = self._pick_survivor_locked()
            if target is None:
                if allow_park and not self._closed:
                    with self._lock:
                        self._parked.setdefault(rank, []).append(task)
                    continue
                self._fail_task(task, rank, "no live workers to requeue onto")
                continue
            if self._reissue(task, target):
                self.telemetry.incr("sharded.requeued_shards")
            else:
                self._fail_task(task, rank, "executor closed during requeue")

    def _respawn(self, rank: int) -> bool:
        """Relaunch dead *rank* with a **fresh task queue**, reissuing its
        parked shards; returns whether a new process is running.

        The fresh queue is load-bearing: messages queued to the dead
        process must never be drained by its replacement — every one of
        them was either acknowledged, requeued, or failed already, and a
        replay would double-solve (harmless) or double-ack (confusing).
        """
        with self._lock:
            if self._closed or self._live[rank]:
                return False
        old = self._procs[rank]
        if old.is_alive():  # pragma: no cover - defensive
            old.terminate()
        old.join(timeout=2.0)
        try:
            new_q, rx, proc = self._spawn_worker(rank)
        except BaseException:  # pragma: no cover - resource exhaustion
            with self._lock:
                parked = self._parked.pop(rank, [])
            for task in parked:
                self._fail_task(task, rank, "worker respawn failed")
            return False
        with self._lock:
            self._tasks[rank] = new_q
            self._procs[rank] = proc
            self._live[rank] = True
            self._reader_conns.append(rx)
            parked = self._parked.pop(rank, [])
            self._cv.notify_all()
        # The dead incarnation's pipe stays in the wait set until its EOF
        # drains — acks it sent before dying are still honored.
        self._wake_collector()
        for task in parked:
            if not self._reissue(task, rank):  # pragma: no cover - closing
                self._fail_task(task, rank, "executor closed during respawn")
        return True

    # -- leases ----------------------------------------------------------

    def lease(self, shape, dtype) -> ShmLease:
        """A pooled shared block viewed as ``shape``/*dtype* (blocking)."""
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        return ShmLease(self._pool.acquire(nbytes), shape, np.dtype(dtype))

    def release(self, lease: ShmLease) -> None:
        self._pool.release(lease.block)

    # -- the sharded solve ----------------------------------------------

    def solve(
        self,
        key,
        lease: ShmLease,
        restore: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        """Solve ``lease.array`` in place, column-sharded over the workers.

        The balanced decomposition is fixed by ``num_workers`` (not by
        how many workers happen to be alive), and each shard goes to the
        next live rank; the call returns only after every shard
        acknowledged, so the block is fully solved (and safe to scatter)
        on return.  If any shard failed, the first failure is re-raised
        — after all acks, so no worker is still writing into the lease.

        *restore*, called as ``restore(col0, col1)``, must re-fill that
        column range of ``lease.array`` with its original (unsolved)
        values; with it, a shard lost to a worker death is restored and
        requeued instead of failing the whole block.
        """
        n, cols = lease.array.shape
        if cols == 0:
            return
        ranks = min(self.num_workers, cols)
        decomp = Decomposition(extent=cols, ranks=ranks)
        self.telemetry.incr("sharded.blocks")
        self.telemetry.observe("sharded.shards_per_block", ranks)
        shape = tuple(int(s) for s in lease.array.shape)
        dtype_name = lease.array.dtype.name
        futures = []
        failure: Optional[BaseException] = None
        with self.telemetry.span("sharded.solve"):
            for shard in range(ranks):
                col0, col1 = decomp.bounds(shard)
                if col1 == col0:
                    continue  # zero-width block (ranks > extent): nothing to do
                self.telemetry.observe("sharded.shard_cols", col1 - col0)
                try:
                    if self.faults is not None:
                        self.faults.fire(
                            "sharded.dispatch", key=key, cols=(col0, col1)
                        )
                    shard_restore = (
                        None
                        if restore is None
                        else (lambda c0=col0, c1=col1: restore(c0, c1))
                    )
                    futures.append(
                        self._issue_live(
                            (key, lease.name, shape, dtype_name, col0, col1),
                            _SOLVE,
                            shard_restore,
                            key,
                            (col0, col1),
                        )
                    )
                except BaseException as exc:  # noqa: BLE001 - drain first
                    failure = exc
                    break
            # Wait for every issued shard even on failure: the lease must
            # not be recycled while a worker can still write into it.
            for fut in futures:
                try:
                    self._await(fut, "a shard solve")
                except BaseException as exc:  # noqa: BLE001 - re-raise below
                    failure = failure or exc
        if failure is not None:
            raise failure

    # -- telemetry and lifecycle ----------------------------------------

    def worker_snapshots(self, timeout: float = 10.0) -> List[dict]:
        """Every live worker's :meth:`Telemetry.snapshot`, in rank order.

        After :meth:`shutdown` this returns the final snapshots captured
        while the workers drained, so post-mortem merges keep working.
        Ranks that are down (dead, or mid-respawn) are skipped rather
        than failing the whole fleet view.
        """
        with self._lock:
            closed = self._closed
        if closed:
            return list(self._final_snapshots)
        futures = [
            self._issue(rank, (), kind=_SNAPSHOT)
            for rank in range(self.num_workers)
            if self._live[rank] and self._procs[rank].is_alive()
        ]
        snapshots = []
        for fut in futures:
            try:
                snapshots.append(fut.result(timeout=timeout))
            except Exception:  # pragma: no cover - died while answering
                pass
        return snapshots

    def alive(self) -> bool:
        return not self._closed and all(p.is_alive() for p in self._procs)

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop workers (capturing their final telemetry), free all shm."""
        with self._lock:
            if self._closed:
                return
        # The monitor goes first, so a worker we stop on purpose is not
        # "healed" back into existence mid-shutdown; a pending respawn's
        # backoff wait ends on the stop event.
        self._stop_monitor.set()
        self._monitor.join(timeout=2.0 * timeout)
        # The stop message doubles as the final snapshot request.
        finals = []
        try:
            finals = [
                self._issue(rank, (), kind=_STOP)
                for rank in range(self.num_workers)
                if self._live[rank] and self._procs[rank].is_alive()
            ]
        except WorkerError:  # pragma: no cover - raced with failure
            pass
        deadline = time.perf_counter() + timeout
        for fut in finals:
            try:
                self._final_snapshots.append(
                    fut.result(timeout=max(0.1, deadline - time.perf_counter()))
                )
            except Exception:  # pragma: no cover - worker died mid-stop
                pass
        with self._lock:
            self._closed = True
            self._cv.notify_all()
        self._fail_pending(WorkerError("sharded executor shut down"))
        for proc in self._procs:
            proc.join(timeout=max(0.1, deadline - time.perf_counter()))
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
        self._collector_stop = True
        self._wake_collector()
        self._collector.join(timeout=2.0)
        self._pool.close()
        for q in self._tasks:
            q.close()
        with self._lock:
            conns, self._reader_conns = self._reader_conns, []
        for conn in conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for end in (self._wake_r, self._wake_w):
            try:
                end.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedExecutor(workers={self.num_workers}, "
            f"alive={sum(p.is_alive() for p in self._procs)}, "
            f"closed={self._closed})"
        )
