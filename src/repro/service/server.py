"""Asyncio TCP solve service bridging the wire protocol onto the engine.

One :class:`SolveService` wraps one :class:`~repro.runtime.engine.SolveEngine`
and serves the :mod:`repro.service.protocol` framing over TCP:

* connections are handled on a single asyncio event loop; each runs a
  frame-read loop and owns a write lock so responses from concurrent
  solves interleave at frame granularity;
* every decoded REQUEST passes :class:`~repro.service.admission.
  AdmissionController` first (over-quota tenants bounce with a
  ``THROTTLED`` error frame and a ``retry_after`` hint, costing the
  engine nothing) and the ``max_queued`` bound on the requests the
  service holds (beyond it: ``BACKPRESSURE``);
* an admitted request goes straight to its own dispatch task, which
  bridges onto ``engine.submit()`` via the service's own thread pool —
  ``submit()`` blocks while the engine's in-flight budget is full and
  must stall neither the loop nor the loop's shared default executor —
  then chains the returned :class:`concurrent.futures.Future` back into
  the loop with ``asyncio.wrap_future``.  Ordering and fair share are
  the engine's: its coalescer round-robins batch slots across tenants;
* responses carry the request's wire id, which is client-chosen and
  therefore scoped *per connection*: the held requests — admitted, not
  yet answered — are keyed by ``(connection, id)``, so a client may
  pipeline requests and receive results out of order, and a CANCEL
  reaches only its own connection's request;
* shutdown is a graceful drain: stop accepting, give the held requests
  ``drain_timeout`` seconds to be answered, close the connections and
  wait for their handlers, then close the engine (when the service owns
  it).

:class:`ServiceThread` hosts a service on a background thread with its
own event loop — ``serve()``, the benchmarks and the tests all use it so
they can stay synchronous.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import logging
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro.exceptions import ShapeError, VerificationError
from repro.runtime.engine import (
    BackpressureError,
    EngineClosedError,
    EngineTimeoutError,
    SolveEngine,
)
from repro.runtime.resilience.circuit import CircuitOpenError
from repro.service import protocol
from repro.service.admission import (
    AdmissionController,
    QuotaExceededError,
    ThrottledError,
)

__all__ = ["ServiceConfig", "SolveService", "ServiceThread", "serve"]

logger = logging.getLogger("repro.service")

#: seconds a closing connection may take to close its transport
_CLOSE_TIMEOUT = 1.0

#: threads in the service's own dispatch pool bridging the (possibly
#: blocking) ``engine.submit()`` calls — the asyncio *default* executor is
#: deliberately not used, so submits parked on a full engine cannot
#: starve other users of the loop
_DISPATCH_WORKERS = 32


@dataclass
class ServiceConfig:
    """Knobs for one :class:`SolveService`."""

    host: str = "127.0.0.1"
    port: int = 0  #: 0 = ephemeral; read the bound port off ``service.port``
    #: seconds the drain phase waits for held requests to be answered
    drain_timeout: float = 10.0
    #: cap on the requests the service holds — admitted and not yet
    #: answered (0 = unbounded); beyond it requests bounce with
    #: BACKPRESSURE
    max_queued: int = 4096
    #: per-frame payload cap enforced from the header, *before* the body
    #: is read — an over-quota client cannot force large allocations;
    #: size it to the largest plausible RHS (default 64 MiB)
    max_payload: int = 64 << 20
    admission: Optional[AdmissionController] = None

    def __post_init__(self) -> None:
        if self.admission is None:
            self.admission = AdmissionController()
        if self.max_payload <= 0 or self.max_payload > protocol.MAX_PAYLOAD:
            raise ValueError(
                f"max_payload must be in (0, {protocol.MAX_PAYLOAD}], "
                f"got {self.max_payload}"
            )


def classify_error(exc: BaseException) -> Tuple[str, Optional[float]]:
    """Map a server-side exception to ``(wire code, retry_after)``."""
    if isinstance(exc, ThrottledError):
        return "THROTTLED", exc.retry_after
    if isinstance(exc, BackpressureError):
        return "BACKPRESSURE", None
    if isinstance(exc, (EngineTimeoutError, TimeoutError)):
        return "TIMEOUT", None
    if isinstance(exc, EngineClosedError):
        return "SHUTDOWN", None
    if isinstance(exc, CircuitOpenError) or getattr(exc, "short_circuited", False):
        return "CIRCUIT_OPEN", None
    if isinstance(exc, VerificationError):
        return "VERIFY_FAILED", None
    if isinstance(exc, (protocol.ProtocolError, ShapeError, ValueError)):
        return "BAD_REQUEST", None
    return "INTERNAL", None


async def _close_writer(writer: asyncio.StreamWriter) -> None:
    """Close *writer* and wait, at most ``_CLOSE_TIMEOUT`` seconds, until
    its transport closed: a transport still closing when the loop stops
    is never closed, and its socket leaks until garbage collection."""
    try:
        writer.close()
        await asyncio.wait_for(writer.wait_closed(), _CLOSE_TIMEOUT)
    except (OSError, RuntimeError, asyncio.TimeoutError):
        pass


class _Connection:
    """Per-connection state: the streams plus a frame-granular write lock."""

    __slots__ = ("reader", "writer", "lock", "closed")

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.lock = asyncio.Lock()
        self.closed = False

    async def send(self, frame: bytes) -> None:
        async with self.lock:
            if self.closed:
                return
            try:
                self.writer.write(frame)
                await self.writer.drain()
            except (ConnectionError, RuntimeError):
                self.closed = True


class _Held:
    """One admitted request, held from admission until its answer is sent.

    ``cancelled`` (a CANCEL, or the connection hung up) means no answer
    is owed; ``future`` is the engine's, once ``submit()`` returned;
    ``task`` is the dispatch task carrying the request to its answer.
    """

    __slots__ = ("conn", "request", "cancelled", "future", "task")

    def __init__(self, conn: _Connection, request: protocol.Request) -> None:
        self.conn = conn
        self.request = request
        self.cancelled = False
        self.future: Optional[concurrent.futures.Future] = None
        self.task: Optional[asyncio.Task] = None

    def cancel(self) -> None:
        """Owe no answer; a cancelled engine future ends the dispatch task."""
        self.cancelled = True
        if self.future is not None:
            self.future.cancel()


class SolveService:
    """The asyncio TCP front end for one :class:`SolveEngine`.

    ``own_engine=True`` (the default when the service built the engine)
    means :meth:`stop` also shuts the engine down.
    """

    def __init__(
        self,
        engine: SolveEngine,
        config: Optional[ServiceConfig] = None,
        own_engine: bool = False,
    ) -> None:
        self.engine = engine
        self.config = config or ServiceConfig()
        self.own_engine = own_engine
        # Warm boot: adopt every durable plan entry before the first
        # request, so a restarted service re-factorizes nothing.
        if getattr(engine, "plan_store", None) is not None:
            loaded = engine.warm_start()
            if loaded:
                logger.info(
                    "warm-started %d plan(s) from %s",
                    loaded,
                    engine.plan_store.root,
                )
        self._server: Optional[asyncio.base_events.Server] = None
        # Wire ids are client-chosen and only unique *per connection*
        # (every client numbers from 1), so held requests are keyed by
        # (connection, wire id) — one tenant's CANCEL or id reuse must
        # never touch another connection's requests.
        self._held: Dict[Tuple[_Connection, int], _Held] = {}
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=_DISPATCH_WORKERS,
            thread_name_prefix="repro-service-dispatch",
        )
        self._draining = False
        self._conns: Set[_Connection] = set()
        self._handlers: Set[asyncio.Task] = set()
        self.port: Optional[int] = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info("service listening on %s:%d", self.config.host, self.port)

    async def stop(self) -> None:
        """Graceful drain: refuse new work, answer what the service holds."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Held requests get drain_timeout to be answered; the rest are
        # given up, and their dispatch tasks end before the loop stops.
        tasks = [held.task for held in self._held.values()]
        if tasks:
            _, late = await asyncio.wait(
                tasks, timeout=self.config.drain_timeout
            )
            for task in late:
                task.cancel()
            if late:
                await asyncio.wait(late)
        conns = list(self._conns)
        for conn in conns:
            conn.closed = True
        await asyncio.gather(*(_close_writer(conn.writer) for conn in conns))
        # A handler still closing its writer when the loop stops would be
        # destroyed while pending.
        if self._handlers:
            await asyncio.wait(list(self._handlers), timeout=_CLOSE_TIMEOUT)
        self._executor.shutdown(wait=False)
        if self.own_engine:
            self.engine.shutdown()

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        handler = asyncio.current_task()
        self._handlers.add(handler)
        handler.add_done_callback(self._handlers.discard)
        conn = _Connection(reader, writer)
        self._conns.add(conn)
        try:
            while True:
                try:
                    ftype, _flags, payload = await protocol.read_frame_async(
                        reader, self.config.max_payload
                    )
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                except protocol.ProtocolError as exc:
                    # Framing is broken: report once, then hang up — we can
                    # no longer find frame boundaries on this connection.
                    await self._send_error(conn, None, exc)
                    return
                try:
                    await self._handle_frame(conn, ftype, payload)
                except asyncio.CancelledError:
                    raise
                except Exception as exc:  # per-frame fault isolation
                    await self._send_error(conn, None, exc)
        finally:
            conn.closed = True
            self._conns.discard(conn)
            # Nobody is listening for this connection's answers any more.
            for (owner, _), held in list(self._held.items()):
                if owner is conn:
                    held.cancel()
            await _close_writer(writer)

    async def _handle_frame(
        self, conn: _Connection, ftype: int, payload: bytes
    ) -> None:
        if ftype == protocol.FrameType.PING:
            await conn.send(
                protocol.encode_frame(protocol.FrameType.PONG, payload)
            )
            return
        if ftype == protocol.FrameType.TELEMETRY_REQ:
            snap = self.engine.telemetry_snapshot()
            snap["service"] = self.service_stats()
            await conn.send(protocol.encode_telemetry(snap))
            return
        if ftype == protocol.FrameType.CANCEL:
            self._cancel(conn, protocol.decode_cancel(payload))
            return
        if ftype != protocol.FrameType.REQUEST:
            raise protocol.ProtocolError(
                f"unexpected frame type {ftype} from client"
            )
        try:
            request = protocol.decode_request(payload)
        except protocol.ProtocolError as exc:
            await self._send_error(conn, None, exc)
            return
        await self._admit(conn, request)

    async def _admit(self, conn: _Connection, request: protocol.Request) -> None:
        if self._draining:
            await self._send_error(
                conn, request.id, EngineClosedError("service draining")
            )
            return
        if (conn, request.id) in self._held:
            await self._send_error(
                conn,
                request.id,
                protocol.ProtocolError(
                    f"request id {request.id} is still pending on this "
                    f"connection"
                ),
            )
            return
        if self.config.max_queued and len(self._held) >= self.config.max_queued:
            await self._send_error(
                conn,
                request.id,
                BackpressureError(
                    f"service holds {self.config.max_queued} unanswered "
                    f"requests"
                ),
            )
            return
        try:
            self.config.admission.admit(request.tenant, request.cols)
        except ThrottledError as exc:
            self.engine.telemetry.tenant_incr(request.tenant, "requests_rejected")
            self.engine.telemetry.incr("service.throttled")
            await self._send_error(conn, request.id, exc)
            return
        except QuotaExceededError as exc:
            # Permanent: the request can never fit the tenant's burst.
            self.engine.telemetry.tenant_incr(request.tenant, "requests_rejected")
            self.engine.telemetry.incr("service.rejected_oversize")
            await self._send_error(conn, request.id, exc)
            return
        held = _Held(conn, request)
        self._held[(conn, request.id)] = held
        held.task = asyncio.ensure_future(self._dispatch(held))

    def _cancel(self, conn: _Connection, request_id: int) -> None:
        # Scoped to the connection that sent the CANCEL: ids from other
        # connections may collide (every client numbers from 1) and must
        # be unreachable here.
        held = self._held.get((conn, request_id))
        if held is None or held.cancelled:
            return
        held.cancel()
        self.engine.telemetry.incr("service.cancelled")

    # -- dispatch ------------------------------------------------------------

    async def _dispatch(self, held: _Held) -> None:
        """Carry *held* through the engine to its answer, then release it.

        A cancelled engine future surfaces here as
        :class:`asyncio.CancelledError` and ends the task: no answer is
        owed.
        """
        request = held.request
        try:
            # One loop turn before the submit: in the ``serve`` closed loop
            # the coalescer then cuts wider batches (18.8 rather than 21.0
            # per 48 requests, ≈ 5 % more columns/s on a 2-core host).
            await asyncio.sleep(0)
            # submit() blocks while the engine is full, so keep it off
            # the event loop — on the service's own pool, not the loop's
            # default executor, so parked submits cannot starve other
            # default-executor users.
            fut = await asyncio.get_running_loop().run_in_executor(
                self._executor,
                lambda: self.engine.submit(
                    request.spec,
                    request.rhs,
                    version=request.version,
                    dtype=np.dtype(request.dtype),
                    backend=request.backend,
                    timeout=request.deadline,
                    tenant=request.tenant,
                ),
            )
            held.future = fut
            if held.cancelled:
                fut.cancel()
                return
            coeffs = await asyncio.wrap_future(fut)
        except Exception as exc:
            if not held.cancelled:
                await self._send_error(
                    held.conn, request.id, exc, tenant=request.tenant
                )
        else:
            if not held.cancelled:
                await held.conn.send(
                    protocol.encode_result(request.id, np.asarray(coeffs))
                )
        finally:
            del self._held[(held.conn, request.id)]

    async def _send_error(
        self,
        conn: _Connection,
        request_id: Optional[int],
        exc: BaseException,
        tenant: Optional[str] = None,
    ) -> None:
        code, retry_after = classify_error(exc)
        await conn.send(
            protocol.encode_error(
                protocol.ErrorInfo(
                    code=code,
                    message=str(exc),
                    id=request_id,
                    error=type(exc).__name__,
                    retry_after=retry_after,
                    tenant=tenant if tenant is not None
                    else getattr(exc, "tenant", None),
                )
            )
        )

    def service_stats(self) -> dict:
        """Front-end counters for the TELEMETRY frame's ``service`` section."""
        admission = self.config.admission
        return {
            "inflight": len(self._held),
            "admitted": admission.admitted,
            "throttled": admission.rejected,
            "draining": self._draining,
        }


class ServiceThread:
    """Host a :class:`SolveService` on a dedicated event-loop thread.

    The synchronous world's handle on the service: ``start()`` blocks
    until the port is bound, ``stop()`` until the drain completes.  Used
    by the client tests, the ``serve`` benchmark, and ``repro serve``.
    """

    def __init__(
        self,
        engine: SolveEngine,
        config: Optional[ServiceConfig] = None,
        own_engine: bool = False,
    ) -> None:
        self.service = SolveService(engine, config, own_engine=own_engine)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def host(self) -> str:
        return self.service.config.host

    @property
    def port(self) -> int:
        port = self.service.port
        if port is None:
            raise RuntimeError("service not started")
        return port

    def start(self, timeout: float = 10.0) -> "ServiceThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("service failed to start within timeout")
        if self._startup_error is not None:
            raise RuntimeError("service failed to start") from self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.service.start())
        except BaseException as exc:  # surface bind errors to start()
            self._startup_error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    def stop(self, timeout: float = 30.0) -> None:
        loop = self._loop
        if loop is None or not loop.is_running():
            return
        done = concurrent.futures.Future()

        async def _shutdown() -> None:
            try:
                await self.service.stop()
            finally:
                done.set_result(None)
                loop.stop()

        loop.call_soon_threadsafe(lambda: asyncio.ensure_future(_shutdown()))
        done.result(timeout=timeout)
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def serve(host: str = "127.0.0.1", port: int = 8157) -> None:
    """Run a solve service until interrupted (``python -m repro serve``).

    The engine reads ``REPRO_PLAN_STORE``: with a store configured the
    boot loads plans from disk instead of refactorizing them, and new
    factorizations are written back for the next restart.
    """
    hosted = ServiceThread(
        SolveEngine(), ServiceConfig(host=host, port=port), own_engine=True
    )
    hosted.start()
    print(f"repro solve service listening on {hosted.host}:{hosted.port}")
    print("press Ctrl+C to drain and exit")
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        print("draining ...")
    finally:
        hosted.stop()
