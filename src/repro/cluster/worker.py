"""One cluster worker node — connect, register, heartbeat, solve shards.

A worker is a plain process (same host for the loopback tests and the
quick scaling bench, any host in principle — the transport is one TCP
connection).  Its life is an outer **dial loop** around sessions:

1. dial the coordinator, retrying until it answers;
2. send REGISTER and receive WELCOME: its assigned worker id, the lease
   clock (heartbeat interval + lease timeout), the serialized
   :class:`~repro.runtime.resilience.faults.FaultPlan`, and the durable
   plan-store directory — so chaos plans and warm-start behave on a
   remote node exactly as they do in a local worker process;
3. start the **heartbeat thread**: one HEARTBEAT frame per interval.
   The ``cluster.partition`` fault site fires *before each send* — a
   ``hang`` spec there mutes heartbeats long enough for the lease to
   lapse while the data plane still flows, which is precisely a
   network partition as the coordinator perceives it;
4. loop on the data plane: each SHARD frame is decoded (raw C-order
   bytes — bitwise what the coordinator held), solved **in place**
   through the worker's own plan cache (factor once per key per node,
   warm-started from the plan store when configured), and the solved
   bytes ride SHARD_OK back.  The ``cluster.node_kill`` site fires
   before each solve (``crash`` takes the whole node down mid-flight,
   ``slow`` delays the ack past a lease, ``raise`` fails the shard);
   ``cluster.shard_slow`` fires right after it — a straggler dial for
   the speculative-execution path, without conflating it with node
   death.

A session ends with a STOP frame or a broken connection.  STOP reason
``shutdown`` or ``retire`` is terminal; reason ``lost`` (the lease
lapsed but this process is healthy — a healed partition) and a plain
connection loss send the worker back to the dial loop, which gives up
once no coordinator answers within ``connect_timeout``.  The
:class:`~repro.runtime.plan_cache.PlanCache` **survives re-dials**: a
rejoined worker re-registers under a fresh id with all its
factorizations intact, so a rejoin costs zero refactorizations.

The worker never initiates anything except heartbeats: shard routing,
re-issue, speculation, and elasticity are entirely the coordinator's
business, which keeps a node's failure model simple — it either
answers or it is gone.
"""

from __future__ import annotations

import socket
import threading
import time

from repro.cluster.wire import (
    ClusterFrame,
    decode_json,
    decode_shard,
    decode_stop,
    encode_heartbeat,
    encode_register,
    encode_shard_err,
    encode_shard_ok,
    encode_snapshot,
)
from repro.runtime.telemetry import Telemetry
from repro.service.protocol import ProtocolError, read_frame, write_frame

__all__ = ["worker_main", "main"]


def _connect(host: str, port: int, timeout: float) -> socket.socket:
    """Dial the coordinator, retrying until *timeout* (it may still be
    binding)."""
    deadline = time.monotonic() + timeout
    delay = 0.02
    while True:
        try:
            sock = socket.create_connection(
                (host, port), timeout=max(0.1, deadline - time.monotonic())
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # Blocking mode for the session: create_connection left its
            # dial timeout on the socket, and an idle worker must not
            # mistake a quiet data plane for a dead one.
            sock.settimeout(None)
            return sock
        except OSError:
            pass
        if time.monotonic() >= deadline:
            raise OSError(f"no coordinator reachable at {host}:{port}")
        time.sleep(delay)
        delay = min(delay * 2, 0.25)


def _heartbeat_loop(
    sock: socket.socket,
    send_lock: threading.Lock,
    stop: threading.Event,
    worker_id: int,
    interval: float,
    faults,
    telemetry: Telemetry,
) -> None:
    """Renew the lease every *interval* seconds until stopped.

    The partition fault fires *before* the send and *outside* the send
    lock, so a hanging heartbeat never blocks the data plane: shard
    acks keep flowing while the lease quietly lapses — the coordinator
    sees a partitioned node, re-issues, and this node's late acks are
    dropped as stale.
    """
    seq = 0
    while not stop.wait(timeout=interval):
        try:
            if faults is not None:
                faults.fire("cluster.partition", worker=worker_id)
            if stop.is_set():
                return  # session ended while a fault held us
            with send_lock:
                write_frame(sock, encode_heartbeat(worker_id, seq))
            telemetry.incr("cluster.heartbeats_sent")
            seq += 1
        except OSError:
            return  # connection gone; the main loop is exiting too


def worker_main(
    host: str, port: int, connect_timeout: float = 10.0, tag: str = ""
) -> None:
    """Run one worker node until a terminal STOP (or no coordinator is
    reachable)."""
    telemetry = Telemetry()
    state = {"cache": None}  # the PlanCache, shared across sessions
    while True:
        try:
            sock = _connect(host, int(port), connect_timeout)
        except OSError:
            return  # nobody to serve: the fleet is gone
        reason = "lost"
        try:
            reason = _session(sock, tag, telemetry, state)
        except (ConnectionError, OSError, EOFError, ProtocolError):
            reason = "lost"  # connection broke mid-session: re-dial
        finally:
            try:
                sock.close()
            except OSError:  # pragma: no cover - already broken
                pass
        if reason != "lost":
            return
        telemetry.incr("worker.rejoins")


def _session(
    sock: socket.socket, tag: str, telemetry: Telemetry, state: dict
) -> str:
    """One REGISTER → WELCOME → serve cycle; returns the STOP reason."""
    import os

    send_lock = threading.Lock()
    stop_heartbeats = threading.Event()
    try:
        write_frame(sock, encode_register(os.getpid(), tag))
        ftype, _, payload = read_frame(sock)
        if ftype != ClusterFrame.WELCOME:
            raise ProtocolError(
                f"expected WELCOME after registration, got frame type {ftype}"
            )
        welcome = decode_json(payload)
        worker_id = int(welcome["worker"])
        interval = float(welcome["heartbeat_interval"])
        faults = None
        if welcome.get("faults"):
            from repro.runtime.resilience.faults import FaultPlan

            faults = FaultPlan.from_json(welcome["faults"])
        if state["cache"] is None:
            store = None
            if welcome.get("plan_store_dir"):
                from repro.runtime.durable import PlanStore

                store = PlanStore(
                    welcome["plan_store_dir"], telemetry=telemetry,
                    faults=faults,
                )
            from repro.runtime.plan_cache import PlanCache

            state["cache"] = PlanCache(telemetry=telemetry, store=store)
        heartbeats = threading.Thread(
            target=_heartbeat_loop,
            args=(
                sock, send_lock, stop_heartbeats, worker_id, interval,
                faults, telemetry,
            ),
            name=f"repro-cluster-heartbeat-{worker_id}",
            daemon=True,
        )
        heartbeats.start()
        return _serve(
            sock, send_lock, worker_id, state["cache"], faults, telemetry
        )
    finally:
        stop_heartbeats.set()


def _serve(
    sock: socket.socket,
    send_lock: threading.Lock,
    worker_id: int,
    cache,
    faults,
    telemetry: Telemetry,
) -> str:
    """The data plane: shards in, solved bytes (or errors) out.

    Returns the STOP frame's reason (``lost`` sends the caller back to
    the dial loop; anything else is terminal)."""
    import numpy as np

    while True:
        ftype, _, payload = read_frame(sock)
        if ftype == ClusterFrame.STOP:
            # The farewell snapshot lets the coordinator fold this
            # node's telemetry into the fleet view, mirroring the
            # single-host workers' final snapshots.
            reason = decode_stop(payload)
            try:
                with send_lock:
                    write_frame(
                        sock, encode_snapshot(-1, telemetry.snapshot())
                    )
            except OSError:
                pass  # a closing coordinator may not read the farewell
            return reason
        if ftype == ClusterFrame.SNAP_REQ:
            req = int(decode_json(payload)["req"])
            with send_lock:
                write_frame(sock, encode_snapshot(req, telemetry.snapshot()))
            continue
        if ftype != ClusterFrame.SHARD:
            raise ProtocolError(f"unexpected frame type {ftype} on a worker")
        task_id, key, shard, col0, col1 = decode_shard(payload)
        try:
            if faults is not None:
                faults.fire(
                    "cluster.node_kill",
                    worker=worker_id,
                    key=key,
                    cols=(col0, col1),
                )
                faults.fire(
                    "cluster.shard_slow",
                    worker=worker_id,
                    key=key,
                    cols=(col0, col1),
                )
            shard = np.ascontiguousarray(shard)
            builder = cache.builder(key)
            telemetry.incr("worker.shards_solved")
            telemetry.observe("worker.shard_cols", col1 - col0)
            with telemetry.span("worker.shard_solve"):
                builder.solve(shard, in_place=True)
            with send_lock:
                write_frame(sock, encode_shard_ok(task_id, shard))
        except (ConnectionError, OSError):
            raise
        except BaseException as exc:  # noqa: BLE001 - ship to coordinator
            telemetry.incr("worker.shard_failures")
            with send_lock:
                write_frame(sock, encode_shard_err(task_id, exc))


def main(argv=None) -> None:
    """``python -m repro.cluster.worker --host H --port P`` — a remote node."""
    import argparse

    parser = argparse.ArgumentParser(description="repro cluster worker node")
    parser.add_argument("--host", required=True, help="coordinator host")
    parser.add_argument("--port", type=int, required=True, help="coordinator port")
    parser.add_argument("--tag", default="", help="free-form worker label")
    parser.add_argument(
        "--connect-timeout", type=float, default=10.0,
        help="seconds to keep dialing the coordinator",
    )
    args = parser.parse_args(argv)
    worker_main(
        args.host, args.port, connect_timeout=args.connect_timeout,
        tag=args.tag,
    )


if __name__ == "__main__":  # pragma: no cover - exercised as a subprocess
    main()
