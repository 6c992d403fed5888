"""The solve service's client, with hedged sends and throttle retries.

The client multiplexes one TCP connection: requests carry unique wire
ids, responses arrive in any order, and a reader thread resolves the
matching :class:`concurrent.futures.Future`.  Connection reuse is
therefore free — make as many concurrent ``submit()`` calls as you like
on one client.  An asyncio caller awaits a solve with
``await asyncio.wrap_future(client.submit(...))``.

**Hedging**: a request still unanswered after a hedge delay is
*re-sent* under a fresh wire id; whichever copy answers first wins and
the loser is cancelled with a CANCEL frame.  The delay defaults
to an empirical p99 of recent request latencies (so only genuine
stragglers hedge), or can be fixed via ``hedge_delay``.  Solves are pure
— the loser at worst burns duplicate compute, never duplicate side
effects — which is what makes hedging safe here.  ``stats()`` reports
``hedges`` (sent) and ``hedge_wins`` (the duplicate answered first).

**Throttle retries**: a ``THROTTLED`` rejection that
carries the server's ``retry_after`` hint is retried automatically —
the delay grows exponentially from the hint (capped), with a little
seeded jitter so a herd of throttled clients does not re-converge on
the same instant — up to ``throttle_retries`` attempts before the error
surfaces.  A throttle *without* ``retry_after`` is a quota exhaustion
(the server's :class:`QuotaExceededError`): permanent for this window,
never retried.

Errors come back as :class:`ServiceError` carrying the wire-level
``code`` (``THROTTLED``, ``TIMEOUT``, ``SHUTDOWN``, ...) and, for
throttles, a ``retry_after`` hint.
"""

from __future__ import annotations

import itertools
import random
import socket
import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Deque, Dict, Optional, Set

import numpy as np

from repro.core.spec import BSplineSpec
from repro.exceptions import ReproError
from repro.service import protocol

__all__ = ["ServiceError", "ServiceClient"]

#: below this many latency samples the empirical hedge delay is unknown
#: and hedging stays off (unless a fixed ``hedge_delay`` was given)
MIN_HEDGE_SAMPLES = 20

#: never hedge faster than this, whatever the quantile says
MIN_HEDGE_DELAY = 1e-3


class ServiceError(ReproError, RuntimeError):
    """A solve failed on the service side.

    ``code`` is the stable wire code (see
    :class:`repro.service.protocol.ErrorInfo`); ``retry_after`` is the
    server's back-off hint for ``THROTTLED`` rejections.
    """

    def __init__(self, info: protocol.ErrorInfo):
        super().__init__(f"[{info.code}] {info.message}")
        self.code = info.code
        self.info = info
        self.retry_after = info.retry_after


class _Call:
    """One logical request: possibly several wire ids, one future."""

    __slots__ = (
        "future", "wire_ids", "started", "timer", "hedged", "request",
        "attempts",
    )

    def __init__(self, future: Future, request=None) -> None:
        self.future = future
        self.wire_ids: Set[int] = set()
        self.started = time.perf_counter()
        self.timer: Optional[threading.Timer] = None
        self.hedged = False
        #: retained verbatim so a throttle retry re-sends the same solve
        self.request = request
        #: throttle retries already spent on this call
        self.attempts = 0


class ServiceClient:
    """Synchronous client for one solve service endpoint.

    Parameters
    ----------
    host, port:
        The service endpoint.
    hedge_delay:
        ``None`` (default) derives the hedge trigger from the p99 of
        recent request latencies; a float pins it; ``0`` disables
        hedging entirely.
    timeout:
        Default per-request deadline in seconds (None = no deadline).
    throttle_retries:
        Automatic re-submissions of a ``THROTTLED`` rejection that
        carries a ``retry_after`` hint (``0`` disables retries; the
        error then surfaces immediately).  Quota exhaustion — a
        throttle with no hint — is never retried.
    throttle_backoff_cap:
        Upper bound in seconds on one throttle back-off sleep, however
        far the exponential growth would take it.
    retry_seed:
        Seed for the back-off jitter stream, so chaos tests replay the
        exact retry schedule.
    """

    def __init__(
        self,
        host: str,
        port: int,
        hedge_delay: Optional[float] = None,
        timeout: Optional[float] = None,
        connect_timeout: float = 10.0,
        throttle_retries: int = 3,
        throttle_backoff_cap: float = 5.0,
        retry_seed: int = 0,
    ) -> None:
        if throttle_retries < 0:
            raise ValueError(
                f"throttle_retries must be >= 0, got {throttle_retries}"
            )
        if throttle_backoff_cap <= 0:
            raise ValueError(
                f"throttle_backoff_cap must be > 0, got {throttle_backoff_cap}"
            )
        self.host = host
        self.port = port
        self.hedge_delay = hedge_delay
        self.default_timeout = timeout
        self.throttle_retries = int(throttle_retries)
        self.throttle_backoff_cap = float(throttle_backoff_cap)
        self._retry_rng = random.Random(retry_seed)
        self._sock = socket.create_connection((host, port), connect_timeout)
        self._sock.settimeout(None)
        self._wlock = threading.Lock()
        self._plock = threading.Lock()
        self._ids = itertools.count(1)
        self._calls: Dict[int, _Call] = {}  # wire id -> call
        self._telemetry: Deque[Future] = deque()
        self._pong: Deque[Future] = deque()
        self._latencies: Deque[float] = deque(maxlen=512)
        #: calls sleeping out a throttle back-off (not in ``_calls``);
        #: close() must still fail their futures
        self._backoff: Set[_Call] = set()
        self._closed = False
        self.hedges = 0
        self.hedge_wins = 0
        self.throttle_retries_sent = 0
        self._reader = threading.Thread(
            target=self._read_loop, name="repro-client-reader", daemon=True
        )
        self._reader.start()

    # -- public API ----------------------------------------------------------

    def submit(
        self,
        spec: BSplineSpec,
        rhs: np.ndarray,
        *,
        version: int = 2,
        dtype: str = "float64",
        backend: str = "vectorized",
        tenant: str = "anonymous",
        timeout: Optional[float] = None,
    ) -> Future:
        """Send one solve; the future resolves to the coefficient array."""
        if self._closed:
            raise ServiceError(
                protocol.ErrorInfo("SHUTDOWN", "client is closed")
            )
        timeout = timeout if timeout is not None else self.default_timeout
        request = protocol.Request(
            id=0,  # assigned per wire send
            spec=spec,
            rhs=np.asarray(rhs),
            version=version,
            dtype=str(np.dtype(dtype)),
            backend=backend,
            tenant=tenant,
            deadline=timeout,
        )
        future: Future = Future()
        future.set_running_or_notify_cancel()
        call = _Call(future, request=request)
        self._send_copy(call, request)
        delay = self._hedge_after()
        if delay is not None:
            call.timer = threading.Timer(
                delay, self._hedge, args=(call, request)
            )
            call.timer.daemon = True
            call.timer.start()
        return future

    def solve(self, spec: BSplineSpec, rhs: np.ndarray, **kwargs) -> np.ndarray:
        """Synchronous convenience: ``submit(...).result()``."""
        timeout = kwargs.get("timeout", self.default_timeout)
        return self.submit(spec, rhs, **kwargs).result(
            timeout=None if timeout is None else timeout + 30.0
        )

    def telemetry(self, timeout: float = 10.0) -> dict:
        """The server's merged telemetry snapshot (adds a ``service`` part)."""
        future: Future = Future()
        with self._plock:
            self._telemetry.append(future)
        with self._wlock:
            protocol.write_frame(
                self._sock,
                protocol.encode_frame(protocol.FrameType.TELEMETRY_REQ, b""),
            )
        return future.result(timeout=timeout)

    def ping(self, timeout: float = 10.0) -> float:
        """Round-trip one PING; returns the latency in seconds."""
        future: Future = Future()
        start = time.perf_counter()
        with self._plock:
            self._pong.append(future)
        with self._wlock:
            protocol.write_frame(
                self._sock,
                protocol.encode_frame(protocol.FrameType.PING, b""),
            )
        future.result(timeout=timeout)
        return time.perf_counter() - start

    def stats(self) -> dict:
        """Client-side counters: hedges sent, hedge wins, latency samples."""
        return {
            "hedges": self.hedges,
            "hedge_wins": self.hedge_wins,
            "throttle_retries": self.throttle_retries_sent,
            "latency_samples": len(self._latencies),
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._reader.join(timeout=5.0)
        self._fail_all(ConnectionError("client closed"))

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- internals -----------------------------------------------------------

    def _send_copy(self, call: _Call, request: protocol.Request) -> None:
        wire_id = next(self._ids)
        request.id = wire_id
        frame = protocol.encode_request(request)
        with self._plock:
            call.wire_ids.add(wire_id)
            self._calls[wire_id] = call
        try:
            with self._wlock:
                protocol.write_frame(self._sock, frame)
        except OSError as exc:
            self._resolve(wire_id, error=exc)

    def _hedge_after(self) -> Optional[float]:
        """Seconds after which to duplicate a request, or None (no hedge)."""
        if self.hedge_delay is not None:
            return self.hedge_delay if self.hedge_delay > 0 else None
        with self._plock:
            if len(self._latencies) < MIN_HEDGE_SAMPLES:
                return None
            samples = sorted(self._latencies)
        p99 = samples[min(len(samples) - 1, int(0.99 * len(samples)))]
        return max(MIN_HEDGE_DELAY, p99)

    def _hedge(self, call: _Call, request: protocol.Request) -> None:
        with self._plock:
            if call.future.done() or self._closed:
                return
            call.hedged = True
            self.hedges += 1
        self._send_copy(call, request)

    def _resolve(
        self,
        wire_id: int,
        result: Optional[np.ndarray] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        losers = []
        with self._plock:
            call = self._calls.pop(wire_id, None)
            if call is None:
                return
            for other in call.wire_ids:
                if other != wire_id:
                    self._calls.pop(other, None)
                    losers.append(other)
            if not call.future.done():
                self._latencies.append(time.perf_counter() - call.started)
                if call.hedged and losers and error is None:
                    # The winning id is not the first-sent one iff the
                    # duplicate overtook — but either way a hedged call
                    # that resolved while a loser was outstanding means
                    # hedging returned an answer; count the duplicate's
                    # win only when the *later* id won.
                    if wire_id == max(call.wire_ids):
                        self.hedge_wins += 1
        if call.timer is not None:
            call.timer.cancel()
        for loser in losers:
            try:
                with self._wlock:
                    protocol.write_frame(
                        self._sock, protocol.encode_cancel(loser)
                    )
            except OSError:
                break
        if call.future.done():
            return
        if error is not None:
            if self._maybe_retry_throttle(call, error):
                return
            call.future.set_exception(error)
        else:
            call.future.set_result(result)

    def _maybe_retry_throttle(
        self, call: _Call, error: BaseException
    ) -> bool:
        """Schedule a backed-off re-send of a retryable throttle.

        Retryable means: a ``THROTTLED`` rejection *with* a
        ``retry_after`` hint (one without is the server's quota
        exhaustion — permanent for this accounting window), budget
        remaining, and the client still open.  The delay doubles per
        attempt from the server's hint, capped, plus seeded jitter so a
        herd of throttled clients spreads back out.
        """
        if not isinstance(error, ServiceError) or error.code != "THROTTLED":
            return False
        if error.retry_after is None or call.request is None:
            return False
        if call.attempts >= self.throttle_retries:
            return False
        with self._plock:
            if self._closed:
                return False
            call.attempts += 1
            self.throttle_retries_sent += 1
            self._backoff.add(call)
        delay = min(
            float(error.retry_after) * (2.0 ** (call.attempts - 1)),
            self.throttle_backoff_cap,
        )
        delay += self._retry_rng.uniform(0.0, 0.1 * delay)
        call.wire_ids.clear()  # the throttled ids are dead; fresh race
        call.hedged = False
        call.timer = threading.Timer(delay, self._retry_send, args=(call,))
        call.timer.daemon = True
        call.timer.start()
        return True

    def _retry_send(self, call: _Call) -> None:
        with self._plock:
            self._backoff.discard(call)
            if self._closed or call.future.done():
                return
        call.started = time.perf_counter()
        self._send_copy(call, call.request)
        delay = self._hedge_after()
        if delay is not None:
            call.timer = threading.Timer(
                delay, self._hedge, args=(call, call.request)
            )
            call.timer.daemon = True
            call.timer.start()

    def _fail_all(self, exc: BaseException) -> None:
        with self._plock:
            calls = list(self._calls.values()) + list(self._backoff)
            self._calls.clear()
            self._backoff.clear()
            aux = list(self._telemetry) + list(self._pong)
            self._telemetry.clear()
            self._pong.clear()
        for call in calls:
            if call.timer is not None:
                call.timer.cancel()
            if not call.future.done():
                call.future.set_exception(exc)
        for future in aux:
            if not future.done():
                future.set_exception(exc)

    def _read_loop(self) -> None:
        try:
            while True:
                ftype, _flags, payload = protocol.read_frame(self._sock)
                if ftype == protocol.FrameType.RESULT:
                    res = protocol.decode_result(payload)
                    self._resolve(res.id, result=res.coeffs)
                elif ftype == protocol.FrameType.ERROR:
                    info = protocol.decode_error(payload)
                    if info.id is None:
                        self._fail_all(ServiceError(info))
                    else:
                        self._resolve(info.id, error=ServiceError(info))
                elif ftype == protocol.FrameType.TELEMETRY:
                    snap = protocol.decode_telemetry(payload)
                    with self._plock:
                        future = (
                            self._telemetry.popleft()
                            if self._telemetry
                            else None
                        )
                    if future is not None and not future.done():
                        future.set_result(snap)
                elif ftype == protocol.FrameType.PONG:
                    with self._plock:
                        future = self._pong.popleft() if self._pong else None
                    if future is not None and not future.done():
                        future.set_result(True)
        except (ConnectionError, OSError):
            pass
        except protocol.ProtocolError:
            pass
        finally:
            self._fail_all(ConnectionError("connection to service lost"))
