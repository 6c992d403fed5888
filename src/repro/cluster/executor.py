"""The cluster executor — a worker fleet behind the sharded-solve API.

:class:`ClusterExecutor` is what ``EngineConfig(executor="cluster")``
plugs into the :class:`~repro.runtime.engine.SolveEngine`: the same
``lease`` / ``solve`` / ``release`` contract as the single-host
:class:`~repro.runtime.sharded.ShardedExecutor`, with the worker pool
generalized to TCP nodes behind a :class:`~repro.cluster.coordinator.Coordinator`
that runs in the engine process.  A lease here is a private block, not
shared memory: shards travel from it as raw bytes over TCP
(:meth:`ClusterExecutor.solve_array`).

The executor owns its local fleet: it spawns ``num_workers`` loopback
worker processes (``spawn`` start method — the coordinator's threads are
already running, and a forked child could inherit a mid-held lock),
respawns ones that die under a restart budget, and — when the config
carries an :class:`~repro.cluster.config.ElasticPolicy` — runs an
:class:`~repro.cluster.elastic.ElasticController` that grows and shrinks
the fleet on the coordinator's backlog signal.  Remote nodes started by
hand (``python -m repro.cluster.worker``) join the same fleet; the
executor simply does not own their processes.

On top of respawn, a lost-but-alive owned worker (a healed partition)
is given ``rejoin_grace`` seconds to re-dial and re-REGISTER under a
fresh worker id before the executor falls back to the zombie/respawn
handling; a transient partition shrinks the fleet only transiently and
costs no respawn budget (``cluster.workers_rejoined``).

The default ``live_wait_timeout`` scales with the transport: where the
single-host pool waits 30 s on same-host pipes, the cluster waits at
least four lease timeouts — a respawning TCP worker has to boot a
process, dial, and register before its first shard.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
from concurrent.futures import TimeoutError as FutureTimeoutError
from types import SimpleNamespace
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.cluster.coordinator import Coordinator
from repro.distributed.decompose import Decomposition
from repro.runtime.sharded import _LIVE_WAIT_TIMEOUT, WorkerError
from repro.runtime.telemetry import Telemetry

__all__ = ["ClusterExecutor"]


class ClusterExecutor:
    """Column-shard batches over a TCP worker fleet.

    Parameters
    ----------
    config:
        The fleet's :class:`ClusterConfig`.
    num_workers:
        Local loopback workers to spawn (the initial fleet; elastic
        scaling moves it between the policy's bounds).
    telemetry:
        Engine-side :class:`Telemetry`; worker-side telemetry merges in
        through :meth:`worker_snapshots`.
    faults:
        Optional :class:`~repro.runtime.resilience.faults.FaultPlan`;
        serialized to every node (``cluster.partition`` /
        ``cluster.node_kill`` / ``cluster.shard_slow`` fire worker-side,
        ``sharded.dispatch`` parent-side).
    restart_budget:
        Owned-worker respawns allowed before the fleet is declared
        exhausted (the engine then degrades to threads, exactly as it
        does for the single-host pool).
    plan_store_dir:
        Durable plan-store directory shipped to every node, so remote
        workers warm-start like local ones.
    live_wait_timeout:
        Seconds a dispatch waits for a live worker; ``None`` scales the
        single-host default with the lease clock.
    """

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        num_workers: int = 2,
        telemetry: Optional[Telemetry] = None,
        faults=None,
        restart_budget: int = 8,
        plan_store_dir: Optional[str] = None,
        live_wait_timeout: Optional[float] = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if restart_budget < 0:
            raise ValueError(
                f"restart_budget must be >= 0, got {restart_budget}"
            )
        self.config = config if config is not None else ClusterConfig()
        self.num_workers = int(num_workers)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.faults = faults
        self.restart_budget = int(restart_budget)
        self.live_wait_timeout = (
            max(_LIVE_WAIT_TIMEOUT, 4.0 * self.config.lease_timeout)
            if live_wait_timeout is None
            else float(live_wait_timeout)
        )
        self._lock = threading.Lock()
        self._restarts_used = 0
        self._exhausted = False
        self._closed = False
        self._owned: Dict[int, mp.process.BaseProcess] = {}  # pid -> proc
        #: lost-but-alive owned processes (partitioned nodes) awaiting reap
        self._zombies: List[mp.process.BaseProcess] = []
        #: lost-but-alive pids inside their rejoin grace window
        self._rejoining: Dict[int, threading.Timer] = {}
        self._final_snapshots: List[dict] = []
        self._ctx = mp.get_context("spawn")
        self.coordinator = Coordinator(
            self.config,
            telemetry=self.telemetry,
            faults=faults,
            live_wait_timeout=self.live_wait_timeout,
            plan_store_dir=plan_store_dir,
            on_worker_lost=self._worker_lost,
            on_worker_registered=self._worker_registered,
        )
        self.coordinator.start()
        for index in range(self.num_workers):
            self.spawn_worker(tag=f"local-{index}")
        self._elastic = None
        if self.config.elastic is not None:
            from repro.cluster.elastic import ElasticController

            self._elastic = ElasticController(
                self, self.config.elastic, telemetry=self.telemetry
            )
            self._elastic.start()

    # -- fleet management ------------------------------------------------

    def spawn_worker(self, tag: str = "") -> int:
        """Start one owned loopback worker and wait for its registration."""
        from repro.cluster.worker import worker_main

        host, port = self.coordinator.address
        before = self.live_count()
        proc = self._ctx.Process(
            target=worker_main,
            args=(host, port),
            kwargs={"connect_timeout": self.config.connect_timeout, "tag": tag},
            daemon=True,
            name=f"repro-cluster-worker{'-' + tag if tag else ''}",
        )
        proc.start()
        with self._lock:
            self._owned[proc.pid] = proc
        if not self.coordinator.await_workers(
            before + 1, self.config.connect_timeout
        ):
            raise WorkerError(
                f"spawned cluster worker (pid {proc.pid}) did not register "
                f"within {self.config.connect_timeout}s"
            )
        return proc.pid

    def _worker_registered(self, worker_id: int, pid: Optional[int]) -> None:
        """Coordinator callback: a registration may be a grace rejoin."""
        with self._lock:
            timer = self._rejoining.pop(pid, None) if pid is not None else None
        if timer is not None:
            timer.cancel()
            self.telemetry.incr("cluster.workers_rejoined")
            self.telemetry.event(
                "cluster.worker_rejoined", worker=worker_id, pid=pid
            )

    def _worker_lost(self, worker_id: int, reason: str) -> None:
        """Coordinator callback: grace a live node, respawn a dead one.

        A lost worker whose process is still alive may be a healed
        partition about to re-dial; it keeps its slot in ``_owned`` and
        gets ``rejoin_grace`` seconds to re-REGISTER before the old
        zombie/respawn handling kicks in.
        """
        pid = self.coordinator.worker_pid(worker_id)
        with self._lock:
            if self._closed:
                return
            proc = self._owned.get(pid) if pid is not None else None
            rejoinable = (
                proc is not None
                and proc.is_alive()
                and pid not in self._rejoining
            )
            if rejoinable:
                timer = threading.Timer(
                    self.config.rejoin_grace,
                    self._rejoin_expired,
                    args=(pid, reason),
                )
                timer.daemon = True
                self._rejoining[pid] = timer
        if rejoinable:
            timer.start()
            self.telemetry.event(
                "cluster.rejoin_wait", worker=worker_id, pid=pid
            )
            return
        self._handle_loss(pid, reason)

    def _rejoin_expired(self, pid: int, reason: str) -> None:
        with self._lock:
            timer = self._rejoining.pop(pid, None)
        if timer is None:
            return  # it rejoined in time
        self._handle_loss(pid, f"{reason}; no rejoin within grace")

    def _handle_loss(self, pid: Optional[int], reason: str) -> None:
        """Zombie-park or respawn one owned worker under the budget."""
        with self._lock:
            proc = self._owned.pop(pid, None) if pid is not None else None
            if self._closed:
                return
            can_respawn = (
                proc is not None and self._restarts_used < self.restart_budget
            )
            if can_respawn:
                self._restarts_used += 1
        if proc is not None:
            if proc.is_alive():
                # A partitioned node may still be mid-solve.  Killing it
                # now would race its late acknowledgement against the
                # socket teardown; leaving it alive lets the reader drain
                # (and drop) that ack deterministically.  The coordinator
                # already sent it STOP, so it exits on its own once it
                # hears us; shutdown() reaps whatever lingers.
                with self._lock:
                    self._zombies.append(proc)
            else:
                proc.join(timeout=2.0)
        if can_respawn:
            self.telemetry.incr("cluster.workers_respawned")
            try:
                self.spawn_worker(tag=f"respawn-{self._restarts_used}")
            except (WorkerError, OSError) as exc:
                self._declare_exhausted(f"respawn failed: {exc}")
        elif proc is not None and self.live_count() == 0:
            self._declare_exhausted(
                f"restart budget ({self.restart_budget}) spent, "
                f"last owned worker lost: {reason}"
            )

    def _declare_exhausted(self, reason: str) -> None:
        with self._lock:
            if self._exhausted:
                return
            self._exhausted = True
        self.telemetry.incr("cluster.exhausted")
        self.telemetry.event("cluster.exhausted", reason=reason)
        self.coordinator.fail_parked(reason)

    @property
    def exhausted(self) -> bool:
        """True once the fleet cannot heal (engine degrades to threads)."""
        return self._exhausted

    def live_count(self) -> int:
        return self.coordinator.live_count()

    def backlog(self) -> float:
        return self.coordinator.backlog()

    def scale_up(self, tag: str = "elastic") -> bool:
        """Add one worker (elastic controller); bounded by the policy."""
        if self._closed or self._exhausted:
            return False
        try:
            self.spawn_worker(tag=tag)
            return True
        except (WorkerError, OSError):
            return False

    def scale_down(self) -> bool:
        """Retire the newest live worker gracefully (elastic controller)."""
        live = self.coordinator.live_workers()
        if not live:
            return False
        return self.coordinator.retire(live[-1])

    def worker_pids(self) -> List[int]:
        """Live workers' OS pids, for node-kill chaos campaigns."""
        return [
            pid
            for pid in (
                self.coordinator.worker_pid(w)
                for w in self.coordinator.live_workers()
            )
            if pid is not None
        ]

    # -- the sharded-solve surface ---------------------------------------

    def lease(self, shape, dtype):
        """A private ``shape``/*dtype* block (``.array``) to assemble a
        batch into; its shards travel as raw bytes over TCP."""
        return SimpleNamespace(array=np.empty(shape, dtype=dtype))

    def release(self, lease) -> None:
        """Nothing to return: the leased block is private memory."""

    def solve(self, key, lease, restore=None) -> None:
        """Solve ``lease.array`` in place over the fleet.

        *restore* is unnecessary here — the coordinator retains each
        shard's verbatim payload for re-issue — and accepted only for
        the executor contract.
        """
        self.solve_array(key, lease.array)

    def solve_array(self, key, block: np.ndarray) -> None:
        """Solve *block* in place, column-sharded over the live fleet.

        The decomposition is balanced over the workers live *now*
        (elastic fleets change width between batches); any split yields
        bitwise-identical results because the batched kernels treat
        columns independently — the same invariant the single-host
        executor and the coalescer already rely on.  Shards orphaned by
        a node loss mid-call are re-issued by the coordinator without
        this method noticing.
        """
        n, cols = block.shape
        if cols == 0:
            return
        ranks = min(max(1, self.live_count()), cols)
        decomp = Decomposition(extent=cols, ranks=ranks)
        self.telemetry.incr("cluster.blocks")
        self.telemetry.observe("cluster.shards_per_block", ranks)
        entries = []
        failure: Optional[BaseException] = None
        with self.telemetry.span("cluster.solve"):
            for shard in range(ranks):
                col0, col1 = decomp.bounds(shard)
                if col1 == col0:
                    continue  # zero-width block (ranks > extent): nothing to do
                self.telemetry.observe("cluster.shard_cols", col1 - col0)
                try:
                    if self.faults is not None:
                        self.faults.fire(
                            "sharded.dispatch", key=key, cols=(col0, col1)
                        )
                    payload = np.ascontiguousarray(block[:, col0:col1])
                    future = self.coordinator.submit(key, payload, col0, col1)
                    entries.append((future, col0, col1))
                except BaseException as exc:  # noqa: BLE001 - drain first
                    failure = exc
                    break
            # Await every issued shard even on failure, so no late write
            # can land after this call returns.
            timeout = (
                self.live_wait_timeout * self.config.shard_attempts
                + self.config.lease_timeout
                + 30.0
            )
            for fut, col0, col1 in entries:
                try:
                    block[:, col0:col1] = fut.result(timeout=timeout)
                except FutureTimeoutError:
                    failure = failure or WorkerError(
                        f"cluster shard [{col0}, {col1}) unresolved after "
                        f"{timeout:.0f}s",
                        key=key,
                        cols=(col0, col1),
                    )
                except BaseException as exc:  # noqa: BLE001 - re-raise below
                    failure = failure or exc
        if failure is not None:
            raise failure

    # -- telemetry and lifecycle ----------------------------------------

    def worker_snapshots(self) -> List[dict]:
        """Every node's telemetry snapshot (live + farewell), merged by
        the engine into its fleet view exactly like local workers'."""
        if self._closed:
            return self._final_snapshots
        return self.coordinator.request_snapshots(
            timeout=self.config.drain_timeout
        )

    def shutdown(self) -> None:
        """Stop elasticity, the fleet, and the coordinator; reap procs."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            owned = list(self._owned.values()) + self._zombies
            self._owned.clear()
            self._zombies = []
            timers = list(self._rejoining.values())
            self._rejoining.clear()
        for timer in timers:
            timer.cancel()
        if self._elastic is not None:
            self._elastic.stop()
        self.coordinator.stop()
        self._final_snapshots = self.coordinator.final_snapshots
        for proc in owned:
            proc.join(timeout=self.config.drain_timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - last resort
                proc.kill()
                proc.join(timeout=2.0)

    def __enter__(self) -> "ClusterExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterExecutor(live={self.live_count()}, "
            f"restarts={self._restarts_used}/{self.restart_budget}, "
            f"exhausted={self._exhausted}, closed={self._closed})"
        )
