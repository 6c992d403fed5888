"""The cluster coordinator — registration, leases, re-issue, routing.

The multi-host generalization of the parent side of
:class:`~repro.runtime.sharded.ShardedExecutor`: where the single-host
pool watches private result pipes (a dead worker is EOF on its own
pipe), the coordinator watches **heartbeat leases** — a worker whose
lease lapses without a heartbeat is declared lost, whether the cause is
a dead process (SIGKILL also surfaces early, as EOF on its TCP
connection) or a network partition (the connection may still be up; the
node is unreachable all the same).

Loss handling generalizes the reissuable ``_PendingTask`` bookkeeping:

* every in-flight shard is a :class:`_PendingShard` carrying the raw
  payload it was sent with, so a lost worker's shards **requeue onto
  survivors verbatim** — identical bytes through identical kernels is
  what keeps the result bitwise equal to a single-host solve;
* a requeued shard gets a **fresh task id** and the old id is forgotten,
  so a partitioned (not dead) node's late acknowledgement finds no
  pending entry and is **dropped as stale** (counted, never applied) —
  the shard is applied exactly once, by whichever delivery the
  coordinator still believes in;
* with no survivor the shard **parks** until a worker registers (the
  elastic controller or the executor's respawn brings one), failing
  only when its delivery-attempt budget is spent.

**Speculative execution** rides on the same bookkeeping: a shard older
than ``speculative_age`` is duplicated onto another live worker; the
pending map holds both task ids against one shard, the first ack
resolves it (popping every sibling id), and the loser's ack drops as
stale (``cluster.speculative_issued`` / ``speculative_wins``).

The coordinator runs inside the engine process and lives exactly as
long as it: long work survives an engine restart through the campaign
checkpoint and the durable plan store, not through the coordinator.

The wire is :mod:`repro.cluster.wire` — the service framing with raw
C-order shard bytes, so no right-hand-side data is ever pickled.
"""

from __future__ import annotations

import socket
import threading
import time
from concurrent.futures import Future
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.cluster.wire import (
    ClusterFrame,
    decode_heartbeat,
    decode_json,
    decode_shard_err,
    decode_shard_ok,
    decode_snapshot,
    encode_shard,
    encode_snapshot_req,
    encode_stop,
    encode_welcome,
)
from repro.runtime.sharded import WorkerError
from repro.runtime.telemetry import Telemetry
from repro.service.protocol import ProtocolError, read_frame, write_frame

__all__ = ["Coordinator"]


class _PendingShard:
    """One in-flight shard and everything needed to reissue it.

    ``copies`` maps every live task id for this shard to the worker it
    was sent to — normally one entry, two while a speculative duplicate
    is in flight.  ``spec_ids`` remembers which of those ids were
    speculative, so a win can be attributed.
    """

    __slots__ = (
        "future", "key", "payload", "col0", "col1", "attempt",
        "copies", "spec_ids", "issued_at",
    )

    def __init__(self, key, payload, col0, col1) -> None:
        self.future: Future = Future()
        self.key = key
        self.payload = payload
        self.col0 = col0
        self.col1 = col1
        self.attempt = 0
        self.copies: Dict[int, int] = {}  # task id -> worker id
        self.spec_ids: set = set()
        self.issued_at = time.monotonic()

    @property
    def worker_id(self) -> Optional[int]:
        """The most recent delivery's worker (error-reporting aid)."""
        return next(reversed(self.copies.values()), None) if self.copies else None


class _WorkerConn:
    """Coordinator-side state of one registered worker."""

    __slots__ = (
        "worker_id", "sock", "send_lock", "last_beat", "live", "retired",
        "pid", "tag", "reader",
    )

    def __init__(self, worker_id, sock, pid, tag) -> None:
        self.worker_id = worker_id
        self.sock = sock
        self.send_lock = threading.Lock()
        self.last_beat = time.monotonic()
        self.live = True
        self.retired = False
        self.pid = pid
        self.tag = tag
        self.reader: Optional[threading.Thread] = None


class Coordinator:
    """Accept workers, lease them, route shards, survive their loss.

    Parameters
    ----------
    config:
        The fleet's :class:`~repro.cluster.config.ClusterConfig`.
    telemetry:
        Coordinator-side :class:`Telemetry`; worker-side telemetry lives
        on the nodes and merges on demand (:meth:`request_snapshots`).
    faults:
        Optional :class:`~repro.runtime.resilience.faults.FaultPlan`; its
        JSON serialization ships to every worker in WELCOME, so the
        ``cluster.partition`` / ``cluster.node_kill`` /
        ``cluster.shard_slow`` sites fire on the nodes with fresh visit
        counters — exactly how the single-host pool ships plans into
        worker processes.
    live_wait_timeout:
        Seconds :meth:`submit` waits for *any* live worker before
        failing with :class:`WorkerError`.
    plan_store_dir:
        Durable plan-store directory shipped in WELCOME so remote nodes
        warm-start from (and write back to) the same store.
    on_worker_lost:
        Callback ``(worker_id, reason)`` fired after a loss is handled
        (shards requeued) — the executor uses it to respawn owned nodes.
    on_worker_registered:
        Callback ``(worker_id, pid)`` after a registration completes —
        the executor uses it to cancel a rejoin grace timer.
    """

    def __init__(
        self,
        config: ClusterConfig,
        telemetry: Optional[Telemetry] = None,
        faults=None,
        live_wait_timeout: float = 30.0,
        plan_store_dir: Optional[str] = None,
        on_worker_lost: Optional[Callable[[int, str], None]] = None,
        on_worker_registered: Optional[Callable[[int, Optional[int]], None]] = None,
    ) -> None:
        self.config = config
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.faults = faults
        self._fault_json = faults.to_json() if faults is not None else None
        self.live_wait_timeout = float(live_wait_timeout)
        self.plan_store_dir = plan_store_dir
        self._on_lost = on_worker_lost
        self._on_registered = on_worker_registered
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self._workers: Dict[int, _WorkerConn] = {}
        self._pending: Dict[int, _PendingShard] = {}
        self._parked: List[_PendingShard] = []
        self._snapshot_waiters: Dict[int, Future] = {}
        self._final_snapshots: List[dict] = []
        self._next_worker = 0
        self._next_task = 0
        self._next_req = 0
        self._rr = 0
        self._closed = False
        self._listener: Optional[socket.socket] = None
        self._port: Optional[int] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._monitor_thread: Optional[threading.Thread] = None

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Bind, listen, and start the accept + lease-monitor threads."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.config.host, self.config.port))
        listener.listen(64)
        self._listener = listener
        self._port = listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-cluster-accept", daemon=True
        )
        self._accept_thread.start()
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop, name="repro-cluster-monitor", daemon=True
        )
        self._monitor_thread.start()

    @property
    def address(self):
        """``(host, port)`` workers dial; valid after :meth:`start`."""
        if self._port is None:
            raise RuntimeError("coordinator is not started")
        return (self.config.host, self._port)

    def stop(self) -> None:
        """STOP every worker (gathering farewell snapshots), then close."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers.values())
            parked = self._parked
            self._parked = []
            self._cv.notify_all()
        for shard in parked:
            shard.future.set_exception(
                WorkerError("cluster coordinator is shut down")
            )
        for worker in workers:
            try:
                with worker.send_lock:
                    write_frame(worker.sock, encode_stop("shutdown"))
            except OSError:
                pass
        # Give each reader a moment to collect the farewell snapshot.
        deadline = time.monotonic() + self.config.drain_timeout
        for worker in workers:
            if worker.reader is not None:
                worker.reader.join(timeout=max(0.0, deadline - time.monotonic()))
            try:
                worker.sock.close()
            except OSError:
                pass
        if self._listener is not None:
            # close() alone does not wake an accept() blocked in another
            # thread on Linux; shutdown() does.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)

    # -- registration ----------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # listener closed: shutting down
            if self._closed:
                sock.close()
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(
                target=self._register, args=(sock,),
                name="repro-cluster-register", daemon=True,
            ).start()

    def _register(self, sock: socket.socket) -> None:
        """Handle one new connection's REGISTER → WELCOME handshake."""
        try:
            ftype, _, payload = read_frame(sock, self.config.max_payload)
            if ftype != ClusterFrame.REGISTER:
                raise ProtocolError(
                    f"expected REGISTER as the first frame, got type {ftype}"
                )
            meta = decode_json(payload)
        except (ProtocolError, ConnectionError, OSError):
            sock.close()
            return
        with self._lock:
            if self._closed:
                sock.close()
                return
            worker_id = self._next_worker
            self._next_worker += 1
            worker = _WorkerConn(
                worker_id, sock, meta.get("pid"), meta.get("tag", "")
            )
            self._workers[worker_id] = worker
        try:
            with worker.send_lock:
                write_frame(
                    sock,
                    encode_welcome(
                        worker_id,
                        self.config.heartbeat_interval,
                        self.config.lease_timeout,
                        fault_json=self._fault_json,
                        plan_store_dir=self.plan_store_dir,
                    ),
                )
        except OSError:
            self._lost(worker, "welcome send failed")
            return
        worker.reader = threading.Thread(
            target=self._reader_loop, args=(worker,),
            name=f"repro-cluster-reader-{worker_id}", daemon=True,
        )
        worker.reader.start()
        self.telemetry.incr("cluster.workers_registered")
        self.telemetry.event(
            "cluster.register", worker=worker_id, pid=worker.pid, tag=worker.tag
        )
        with self._lock:
            parked = self._parked
            self._parked = []
            self._cv.notify_all()
        for shard in parked:
            self._reissue(shard)
        if self._on_registered is not None:
            self._on_registered(worker_id, worker.pid)

    def await_workers(self, count: int, timeout: float) -> bool:
        """Block until *count* workers are live (or *timeout*); boolean."""
        deadline = time.monotonic() + timeout
        with self._cv:
            while self._live_count_locked() < count:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cv.wait(timeout=min(0.05, remaining))
        return True

    # -- the data plane --------------------------------------------------

    def _reader_loop(self, worker: _WorkerConn) -> None:
        """Drain one worker's frames until EOF.

        Keeps running after the worker's lease lapses: a partitioned
        node's connection may outlive its lease, and draining it here is
        what makes late-ack dropping deterministic — stale task ids are
        counted and discarded instead of racing a socket teardown.
        """
        try:
            while True:
                ftype, _, payload = read_frame(
                    worker.sock, self.config.max_payload
                )
                if ftype == ClusterFrame.HEARTBEAT:
                    decode_heartbeat(payload)  # validate; identity is the conn
                    with self._lock:
                        worker.last_beat = time.monotonic()
                elif ftype == ClusterFrame.SHARD_OK:
                    task_id, solved = decode_shard_ok(payload)
                    self._resolve(task_id, solved, None, worker)
                elif ftype == ClusterFrame.SHARD_ERR:
                    task_id, error, message = decode_shard_err(payload)
                    self._resolve(
                        task_id,
                        None,
                        WorkerError(
                            f"{error}: {message}", worker_id=worker.worker_id
                        ),
                        worker,
                    )
                elif ftype == ClusterFrame.SNAPSHOT:
                    req, snapshot = decode_snapshot(payload)
                    if req < 0:
                        with self._lock:
                            self._final_snapshots.append(snapshot)
                        return  # the farewell: worker is exiting
                    with self._lock:
                        fut = self._snapshot_waiters.pop(req, None)
                    if fut is not None:
                        fut.set_result(snapshot)
                else:
                    raise ProtocolError(
                        f"unexpected frame type {ftype} from worker "
                        f"{worker.worker_id}"
                    )
        except (ConnectionError, OSError, ProtocolError) as exc:
            self._lost(worker, f"connection lost: {exc}")

    def _resolve(
        self,
        task_id: int,
        solved: Optional[np.ndarray],
        error: Optional[BaseException],
        worker: _WorkerConn,
    ) -> None:
        """Apply one acknowledgement — or drop it as stale, exactly once.

        A task id absent from the pending map was re-issued,
        speculatively outraced, or already resolved: the ack is counted
        as dropped and its payload discarded, which is the mechanism
        behind the zero-double-solve guarantee.
        """
        with self._lock:
            shard = self._pending.pop(task_id, None)
            if shard is not None:
                # First ack wins: forget every sibling delivery (the
                # requeued original or the speculative duplicate) so the
                # loser's ack drops as stale.
                for sibling in list(shard.copies):
                    if sibling != task_id:
                        self._pending.pop(sibling, None)
                shard.copies.clear()
                speculative_win = task_id in shard.spec_ids
        if shard is None:
            self.telemetry.incr("cluster.late_acks_dropped")
            self.telemetry.event(
                "cluster.late_ack", worker=worker.worker_id, task=task_id
            )
            return
        if speculative_win:
            self.telemetry.incr("cluster.speculative_wins")
            self.telemetry.event(
                "cluster.speculative_win", worker=worker.worker_id, task=task_id
            )
        if error is not None:
            error.key = shard.key
            error.cols = (shard.col0, shard.col1)
            error.attempt = shard.attempt
            shard.future.set_exception(error)
            self.telemetry.incr("cluster.shards_failed")
        else:
            self.telemetry.observe(
                "cluster.shard_seconds", time.monotonic() - shard.issued_at
            )
            shard.future.set_result(solved)
            self.telemetry.incr("cluster.shards_completed")

    def submit(self, key, payload: np.ndarray, col0: int, col1: int) -> Future:
        """Route one column shard to a live worker; future → solved array.

        Blocks up to ``live_wait_timeout`` for a live worker (one may be
        respawning); a fleet that cannot heal in that window fails with
        a :class:`WorkerError` naming every worker's lease state.
        """
        shard = _PendingShard(key, payload, col0, col1)
        self.telemetry.incr("cluster.shards_submitted")
        self._issue(shard)
        return shard.future

    def _issue(self, shard: _PendingShard, speculative: bool = False) -> None:
        """Assign *shard* to a live worker (fresh task id) and send it."""
        deadline = time.monotonic() + self.live_wait_timeout
        with self._cv:
            while True:
                if self._closed:
                    raise WorkerError("cluster coordinator is shut down")
                exclude = set(shard.copies.values()) if speculative else ()
                live = [
                    w for w in self._workers.values()
                    if w.live and w.worker_id not in exclude
                ]
                if live:
                    self._rr += 1
                    worker = live[self._rr % len(live)]
                    task_id = self._next_task
                    self._next_task += 1
                    shard.copies[task_id] = worker.worker_id
                    if speculative:
                        shard.spec_ids.add(task_id)
                    else:
                        shard.attempt += 1
                        shard.issued_at = time.monotonic()
                    self._pending[task_id] = shard
                    break
                if speculative:
                    return  # no second worker to speculate onto: skip
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise WorkerError(
                        f"timed out after {self.live_wait_timeout:.1f}s "
                        "waiting for a live cluster worker; "
                        f"worker lease states: {self._lease_states_locked()}",
                        key=shard.key,
                        cols=(shard.col0, shard.col1),
                    )
                self._cv.wait(timeout=min(0.05, remaining))
        try:
            frame = encode_shard(
                task_id, shard.key, shard.payload, shard.col0, shard.col1
            )
            with worker.send_lock:
                write_frame(worker.sock, frame)
            self.telemetry.incr("cluster.shard_sends")
        except OSError as exc:
            # The chosen worker died between selection and send; its
            # loss handler requeues this very shard (it is pending on
            # that worker now), so nothing more is owed here.
            self._lost(worker, f"shard send failed: {exc}")

    def _reissue(self, shard: _PendingShard) -> None:
        """Requeue one orphaned shard, failing it when its budget is spent."""
        if shard.attempt >= self.config.shard_attempts:
            error = WorkerError(
                f"shard exhausted its {self.config.shard_attempts} "
                "delivery attempts across worker losses",
                worker_id=shard.worker_id,
                key=shard.key,
                cols=(shard.col0, shard.col1),
                attempt=shard.attempt,
            )
            shard.future.set_exception(error)
            self.telemetry.incr("cluster.shards_failed")
            return
        self.telemetry.incr("cluster.shards_reissued")
        with self._lock:
            if not self._closed and self._live_count_locked() == 0:
                # No survivor right now: park rather than block the loss
                # handler (a monitor or reader thread).  Registration of
                # the next worker — a respawn or an elastic scale-up —
                # drains the parked shards; the executor fails them via
                # :meth:`fail_parked` when healing is off the table.
                self._parked.append(shard)
                self.telemetry.incr("cluster.shards_parked")
                return
        try:
            self._issue(shard)
        except WorkerError as exc:
            shard.future.set_exception(exc)
            self.telemetry.incr("cluster.shards_failed")

    # -- speculation -----------------------------------------------------

    def _speculate_sweep(self) -> None:
        """Duplicate stragglers onto other live workers, one copy each."""
        threshold = self.config.speculative_age
        if threshold is None:
            return
        now = time.monotonic()
        with self._lock:
            stragglers = []
            seen = set()
            for shard in self._pending.values():
                if id(shard) in seen:
                    continue
                seen.add(id(shard))
                if len(shard.copies) != 1:
                    continue  # already speculating (or being torn down)
                if now - shard.issued_at > threshold:
                    stragglers.append(shard)
        for shard in stragglers:
            self._speculate(shard)

    def _speculate(self, shard: _PendingShard) -> None:
        """Issue one speculative duplicate of *shard* (first ack wins)."""
        before = len(shard.copies)
        try:
            self._issue(shard, speculative=True)
        except WorkerError:
            return  # coordinator closing; nothing to do
        if len(shard.copies) > before:
            self.telemetry.incr("cluster.speculative_issued")
            self.telemetry.event(
                "cluster.speculate", cols=(shard.col0, shard.col1)
            )

    # -- loss detection --------------------------------------------------

    def _monitor_loop(self) -> None:
        """Sweep leases (a worker silent past ``lease_timeout`` is lost)
        and straggling shards (older than ``speculative_age``)."""
        tick = min(
            self.config.heartbeat_interval, self.config.lease_timeout / 4.0
        )
        if self.config.speculative_age is not None:
            tick = min(tick, self.config.speculative_age / 2.0)
        while not self._closed:
            time.sleep(tick)
            now = time.monotonic()
            with self._lock:
                lapsed = [
                    w for w in self._workers.values()
                    if w.live and now - w.last_beat > self.config.lease_timeout
                ]
            for worker in lapsed:
                self._lost(
                    worker,
                    f"lease lapsed ({self.config.lease_timeout}s without "
                    "a heartbeat)",
                )
            self._speculate_sweep()

    def _lost(self, worker: _WorkerConn, reason: str) -> None:
        """Declare *worker* lost: requeue its shards under fresh ids.

        Idempotent — the lease monitor, a reader's EOF, and a failed
        send may all report the same loss.  The connection is left to
        its reader thread (still draining late acks from a partitioned
        node); a best-effort STOP tells a live-but-partitioned process
        what happened — reason ``lost`` invites it to re-dial and
        re-REGISTER under a fresh id (the healed-partition rejoin),
        ``retire`` tells it to exit for good.

        A shard whose only copy was on the lost worker requeues; a
        shard with a speculative sibling still in flight on a survivor
        keeps that copy and requeues nothing.
        """
        with self._lock:
            if not worker.live:
                return
            worker.live = False
            orphans = []
            for task_id in [
                t for t, s in self._pending.items()
                if s.copies.get(t) == worker.worker_id
            ]:
                # Forgetting the old id is the late-ack guillotine: the
                # lost node's eventual answer finds nothing to apply to.
                shard = self._pending.pop(task_id)
                shard.copies.pop(task_id, None)
                shard.spec_ids.discard(task_id)
                if not shard.copies:
                    orphans.append(shard)
            self._cv.notify_all()
        retired = worker.retired
        if not retired:
            self.telemetry.incr("cluster.workers_lost")
            self.telemetry.event(
                "cluster.worker_lost", worker=worker.worker_id, reason=reason
            )
        try:
            with worker.send_lock:
                write_frame(
                    worker.sock,
                    encode_stop("retire" if retired else "lost"),
                )
        except OSError:
            pass
        for shard in orphans:
            self._reissue(shard)
        if self._on_lost is not None and not retired and not self._closed:
            self._on_lost(worker.worker_id, reason)

    def fail_parked(self, reason: str) -> int:
        """Fail every parked shard — the fleet cannot heal.

        Called by the executor once its respawn budget is spent with no
        survivor to drain onto; returns how many shards were failed.
        """
        with self._lock:
            parked = self._parked
            self._parked = []
        for shard in parked:
            shard.future.set_exception(
                WorkerError(
                    f"no live cluster worker and no healing possible: {reason}",
                    key=shard.key,
                    cols=(shard.col0, shard.col1),
                    attempt=shard.attempt,
                )
            )
            self.telemetry.incr("cluster.shards_failed")
        return len(parked)

    def retire(self, worker_id: int) -> bool:
        """Gracefully shed one worker (elastic scale-down).

        The worker stops receiving new shards immediately; its in-flight
        shards requeue onto the remaining fleet (verbatim payloads, so
        results stay bitwise identical), and the node is told to STOP
        with reason ``retire`` (terminal — no rejoin).  Not counted as
        a loss.  Returns False for an unknown or already-dead worker.
        """
        with self._lock:
            worker = self._workers.get(worker_id)
            if worker is None or not worker.live:
                return False
            worker.retired = True
        self.telemetry.event("cluster.retire", worker=worker_id)
        self._lost(worker, "retired by the elastic controller")
        return True

    # -- introspection ---------------------------------------------------

    def _live_count_locked(self) -> int:
        return sum(1 for w in self._workers.values() if w.live)

    def _lease_states_locked(self) -> Dict[int, str]:
        now = time.monotonic()
        states = {}
        for worker_id, w in self._workers.items():
            if w.live:
                age = now - w.last_beat
                states[worker_id] = f"live (last heartbeat {age:.2f}s ago)"
            else:
                states[worker_id] = "retired" if w.retired else "lost"
        return states

    def live_workers(self) -> List[int]:
        with self._lock:
            return sorted(
                w.worker_id for w in self._workers.values() if w.live
            )

    def live_count(self) -> int:
        with self._lock:
            return self._live_count_locked()

    def worker_pid(self, worker_id: int) -> Optional[int]:
        """The registered OS pid of one worker (for chaos campaigns)."""
        with self._lock:
            worker = self._workers.get(worker_id)
            return None if worker is None else worker.pid

    def backlog(self) -> float:
        """In-flight shards per live worker — the elastic signal."""
        with self._lock:
            live = self._live_count_locked()
            waiting = len(self._pending) + len(self._parked)
        return waiting / max(1, live)

    def request_snapshots(self, timeout: float = 5.0) -> List[dict]:
        """Telemetry snapshots of every live worker, plus the farewell
        snapshots of workers that already exited."""
        requests = []
        with self._lock:
            workers = [w for w in self._workers.values() if w.live]
            for worker in workers:
                req = self._next_req
                self._next_req += 1
                fut: Future = Future()
                self._snapshot_waiters[req] = fut
                requests.append((worker, req, fut))
        snapshots: List[dict] = []
        deadline = time.monotonic() + timeout
        for worker, req, fut in requests:
            try:
                with worker.send_lock:
                    write_frame(worker.sock, encode_snapshot_req(req))
                snapshots.append(
                    fut.result(timeout=max(0.05, deadline - time.monotonic()))
                )
            except Exception:  # noqa: BLE001 - a dead node yields nothing
                with self._lock:
                    self._snapshot_waiters.pop(req, None)
        with self._lock:
            snapshots.extend(self._final_snapshots)
        return snapshots

    @property
    def final_snapshots(self) -> List[dict]:
        with self._lock:
            return list(self._final_snapshots)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return (
                f"Coordinator(port={self._port}, "
                f"workers={len(self._workers)}, "
                f"live={self._live_count_locked()}, "
                f"pending={len(self._pending)}, closed={self._closed})"
            )
