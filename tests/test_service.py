"""The network solve service: protocol, admission, parity, hedging, drain.

The end-to-end contract is *bitwise* parity: coefficients fetched through
the TCP client must equal ``SolveEngine.submit()``'s exactly, for every
solver version, dtype and executor — the wire carries raw C-order array
bytes, so nothing may round-trip through text.  Around that core:
admission control (token buckets, deficit round-robin fair share), hedged
sends (first ack wins, loser cancelled), graceful drain, one tenant's
poisoned columns staying that tenant's problem, and the per-tenant
telemetry the service feeds.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import socket
import struct
import threading
import time
import warnings

import numpy as np
import pytest

from repro.core.builder.builder import SplineBuilder
from repro.core.spec import BSplineSpec
from repro.exceptions import VerificationError
from repro.runtime.engine import EngineConfig, SolveEngine
from repro.runtime.plan_cache import PlanKey
from repro.runtime.resilience.faults import FaultPlan, FaultSpec
from repro.runtime.sharded import WorkerError
from repro.runtime.telemetry import Telemetry, render_tenant_table
from repro.service import (
    AdmissionController,
    FairShareQueue,
    QuotaExceededError,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceThread,
    TenantQuota,
    ThrottledError,
    TokenBucket,
)
from repro.service import protocol
from repro.service import server as server_mod

SPEC = BSplineSpec(degree=3, n_points=24)
N = 24


@pytest.fixture(scope="module")
def hosted_service():
    """One threads-executor service shared by the cheap end-to-end tests."""
    engine = SolveEngine(EngineConfig(max_batch=64, max_linger=1e-3))
    hosted = ServiceThread(engine, own_engine=True)
    hosted.start()
    yield hosted
    hosted.stop()


# -- protocol ----------------------------------------------------------------


class TestProtocol:
    def test_request_roundtrip_preserves_everything(self, rng):
        req = protocol.Request(
            id=42,
            spec=BSplineSpec(degree=4, n_points=33, uniform=False, seed=7),
            rhs=rng.standard_normal((33, 3)).astype(np.float32),
            version=1,
            dtype="float32",
            backend="fused",
            tenant="alice",
            priority="interactive",
            deadline=2.5,
        )
        frame = protocol.encode_request(req)
        ftype, _flags, length = protocol.decode_header(
            frame[: protocol.HEADER_SIZE]
        )
        assert ftype == protocol.FrameType.REQUEST
        assert length == len(frame) - protocol.HEADER_SIZE
        got = protocol.decode_request(frame[protocol.HEADER_SIZE :])
        assert got.id == 42
        assert got.spec == req.spec
        assert got.version == 1 and got.dtype == "float32"
        assert got.backend == "fused"
        assert got.tenant == "alice" and got.priority == "interactive"
        assert got.deadline == 2.5
        assert got.rhs.dtype == np.float32
        assert np.array_equal(got.rhs, req.rhs)

    def test_result_roundtrip_is_bitwise(self, rng):
        for dtype in (np.float32, np.float64):
            coeffs = rng.standard_normal((N, 5)).astype(dtype)
            frame = protocol.encode_result(7, coeffs)
            res = protocol.decode_result(frame[protocol.HEADER_SIZE :])
            assert res.id == 7
            assert res.coeffs.dtype == dtype
            assert res.coeffs.tobytes() == coeffs.tobytes()

    def test_error_roundtrip(self):
        info = protocol.ErrorInfo(
            code="THROTTLED",
            message="slow down",
            id=3,
            error="ThrottledError",
            retry_after=1.5,
            tenant="hog",
        )
        got = protocol.decode_error(
            protocol.encode_error(info)[protocol.HEADER_SIZE :]
        )
        assert got == info

    def test_cancel_and_telemetry_roundtrip(self):
        frame = protocol.encode_cancel(99)
        assert protocol.decode_cancel(frame[protocol.HEADER_SIZE :]) == 99
        snap = {"counters": {"x": 1}, "tenants": {"a": {}}}
        frame = protocol.encode_telemetry(snap)
        assert protocol.decode_telemetry(frame[protocol.HEADER_SIZE :]) == snap

    def test_header_rejects_bad_magic_and_version(self):
        good = protocol.encode_frame(protocol.FrameType.PING, b"")
        bad_magic = b"XXXX" + good[4:]
        with pytest.raises(protocol.ProtocolError, match="magic"):
            protocol.decode_header(bad_magic[: protocol.HEADER_SIZE])
        bad_version = good[:4] + bytes([99]) + good[5:]
        with pytest.raises(protocol.ProtocolError, match="version"):
            protocol.decode_header(bad_version[: protocol.HEADER_SIZE])
        with pytest.raises(protocol.ProtocolError, match="short"):
            protocol.decode_header(good[:4])

    def test_truncated_array_payload_rejected(self, rng):
        frame = protocol.encode_result(1, rng.standard_normal(8))
        payload = frame[protocol.HEADER_SIZE :]
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_result(payload[:-3])

    def test_huge_declared_shape_rejected_not_wrapped(self):
        # 2**62 * 4 elements overflows int64 to exactly 0, so a wrapping
        # byte-count check would "match" the empty payload and crash in
        # reshape instead of raising ProtocolError.
        meta = {"id": 1, "array_shape": [1 << 62, 4], "array_dtype": "<f8"}
        body = json.dumps(meta).encode()
        payload = struct.pack("!I", len(body)) + body  # zero raw bytes
        with pytest.raises(protocol.ProtocolError, match="shape"):
            protocol.decode_result(payload)

    def test_negative_declared_extent_rejected(self):
        meta = {"id": 1, "array_shape": [-1, 8], "array_dtype": "<f8"}
        body = json.dumps(meta).encode()
        payload = struct.pack("!I", len(body)) + body
        with pytest.raises(protocol.ProtocolError, match="negative"):
            protocol.decode_result(payload)

    def test_header_payload_cap_enforced_before_body(self):
        frame = protocol.encode_frame(protocol.FrameType.REQUEST, b"x" * 2048)
        header = frame[: protocol.HEADER_SIZE]
        protocol.decode_header(header)  # fine under the global ceiling
        with pytest.raises(protocol.ProtocolError, match="cap"):
            protocol.decode_header(header, max_payload=1024)


# -- admission ---------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=10.0, burst=5.0, now=0.0)
        assert bucket.try_acquire(5.0, now=0.0) is None  # full burst spends
        wait = bucket.try_acquire(1.0, now=0.0)
        assert wait == pytest.approx(0.1)  # 1 token at 10/s
        assert bucket.try_acquire(1.0, now=0.2) is None  # refilled 2

    def test_never_exceeds_burst(self):
        bucket = TokenBucket(rate=100.0, burst=4.0, now=0.0)
        assert bucket.try_acquire(4.0, now=1000.0) is None
        assert bucket.try_acquire(1.0, now=1000.0) is not None

    def test_cost_above_burst_is_permanently_unserviceable(self):
        bucket = TokenBucket(rate=100.0, burst=4.0, now=0.0)
        # tokens cap at burst: no finite wait can ever admit cost 5
        assert math.isinf(bucket.try_acquire(5.0, now=0.0))
        assert math.isinf(bucket.try_acquire(5.0, now=1000.0))


class TestAdmissionController:
    def test_throttles_over_quota_with_retry_hint(self):
        clock = [0.0]
        ctrl = AdmissionController(
            quotas={"hog": TenantQuota(rate=10.0, burst=20.0)},
            clock=lambda: clock[0],
        )
        ctrl.admit("hog", 20)  # burns the burst
        with pytest.raises(ThrottledError) as err:
            ctrl.admit("hog", 10)
        assert err.value.retry_after == pytest.approx(1.0)
        assert err.value.tenant == "hog"
        clock[0] = 1.0  # 10 columns refilled
        ctrl.admit("hog", 10)
        assert ctrl.admitted == 2 and ctrl.rejected == 1

    def test_tenants_do_not_share_buckets(self):
        clock = [0.0]
        ctrl = AdmissionController(
            default_quota=TenantQuota(rate=1.0, burst=4.0),
            clock=lambda: clock[0],
        )
        ctrl.admit("a", 4)
        ctrl.admit("b", 4)  # b's own bucket, still full
        with pytest.raises(ThrottledError):
            ctrl.admit("a", 1)

    def test_zero_cost_always_admitted(self):
        ctrl = AdmissionController(
            default_quota=TenantQuota(rate=1.0, burst=1.0), clock=lambda: 0.0
        )
        ctrl.admit("t", 1)
        ctrl.admit("t", 0)  # free even with an empty bucket
        assert ctrl.admitted == 2

    def test_over_burst_cost_rejected_permanently(self):
        ctrl = AdmissionController(
            default_quota=TenantQuota(rate=10.0, burst=4.0), clock=lambda: 0.0
        )
        with pytest.raises(QuotaExceededError) as err:
            ctrl.admit("t", 5)  # beyond burst: not a ThrottledError
        assert not isinstance(err.value, ThrottledError)
        assert err.value.tenant == "t"
        assert ctrl.rejected == 1
        ctrl.admit("t", 4)  # the bucket itself was left untouched
        assert ctrl.admitted == 1


class TestFairShareQueue:
    def test_strict_priority_across_classes(self):
        q = FairShareQueue()
        q.push("b1", "t", "batch", 1)
        q.push("n1", "t", "normal", 1)
        q.push("i1", "t", "interactive", 1)
        assert q.drain() == ["i1", "n1", "b1"]

    def test_round_robin_within_class(self):
        q = FairShareQueue(quantum=1)
        for i in range(3):
            q.push(f"a{i}", "alice", "normal", 1)
        q.push("b0", "bob", "normal", 1)
        # alice queued first but bob is interleaved, not starved
        assert q.drain() == ["a0", "b0", "a1", "a2"]

    def test_wide_request_eventually_dispatches(self):
        q = FairShareQueue(quantum=2)
        q.push("wide", "a", "normal", 10)  # 5 turns of deficit needed
        q.push("thin", "b", "normal", 1)
        order = [q.pop(), q.pop()]
        assert set(order) == {"wide", "thin"}
        assert q.pop() is None

    def test_unknown_priority_rejected(self):
        q = FairShareQueue()
        with pytest.raises(ValueError, match="priority"):
            q.push("x", "t", "urgent", 1)

    def test_fifo_within_one_tenant(self):
        q = FairShareQueue()
        for i in range(5):
            q.push(i, "only", "normal", 1)
        assert q.drain() == list(range(5))


# -- end-to-end parity -------------------------------------------------------


class TestEndToEndParity:
    @pytest.mark.parametrize("version", [0, 1, 2])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_bitwise_parity_with_engine(self, hosted_service, rng, version, dtype):
        rhs = rng.standard_normal((N, 4))
        expected = (
            hosted_service.service.engine.submit(
                SPEC, rhs, version=version, dtype=np.dtype(dtype)
            )
            .result(timeout=30)
        )
        with ServiceClient(
            hosted_service.host, hosted_service.port, hedge_delay=0
        ) as client:
            got = client.solve(SPEC, rhs, version=version, dtype=dtype)
        assert got.dtype == np.dtype(dtype)
        assert got.tobytes() == expected.tobytes()

    def test_bitwise_parity_processes_executor(self, rng):
        engine = SolveEngine(
            EngineConfig(executor="processes", num_workers=2, max_linger=1e-3)
        )
        rhs = rng.standard_normal((N, 6))
        expected = engine.submit(SPEC, rhs).result(timeout=60)
        with ServiceThread(engine, own_engine=True) as hosted:
            with ServiceClient(hosted.host, hosted.port, hedge_delay=0) as client:
                got = client.solve(SPEC, rhs, timeout=60.0)
        assert got.tobytes() == expected.tobytes()

    def test_stop_closes_every_transport(self, rng):
        # The service stops while the client is still connected.  A
        # transport still closing when the service loop stops is never
        # closed; its socket then leaks until garbage collection, which
        # reports it as a ResourceWarning.
        def solve_once():
            hosted = ServiceThread(SolveEngine(), own_engine=True).start()
            client = ServiceClient(hosted.host, hosted.port, hedge_delay=0)
            try:
                client.solve(SPEC, rng.standard_normal(N), timeout=30.0)
            finally:
                hosted.stop()
                client.close()

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve_once()  # drops every reference to the service and client
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]

    def test_many_pipelined_requests_one_connection(self, hosted_service, rng):
        rhs = [rng.standard_normal((N, c)) for c in (1, 3, 5, 2, 4)]
        with ServiceClient(
            hosted_service.host, hosted_service.port, hedge_delay=0
        ) as client:
            futures = [client.submit(SPEC, r) for r in rhs]
            for r, fut in zip(rhs, futures):
                expected = hosted_service.service.engine.submit(SPEC, r).result(
                    timeout=30
                )
                assert fut.result(timeout=30).tobytes() == expected.tobytes()

    def test_asyncio_caller_parity_via_wrap_future(self, hosted_service, rng):
        rhs = rng.standard_normal((N, 3))
        expected = hosted_service.service.engine.submit(SPEC, rhs).result(
            timeout=30
        )
        with ServiceClient(
            hosted_service.host, hosted_service.port, hedge_delay=0
        ) as client:

            async def main():
                return await asyncio.wait_for(
                    asyncio.wrap_future(client.submit(SPEC, rhs)), timeout=30
                )

            got = asyncio.run(main())
        assert got.tobytes() == expected.tobytes()

    def test_bad_request_gets_error_frame_not_hang(self, hosted_service, rng):
        with ServiceClient(
            hosted_service.host, hosted_service.port, hedge_delay=0
        ) as client:
            with pytest.raises(ServiceError) as err:
                # wrong leading extent for the spec
                client.solve(SPEC, rng.standard_normal(N + 3), timeout=10.0)
            assert err.value.code == "BAD_REQUEST"

    def test_ping_and_telemetry(self, hosted_service, rng):
        with ServiceClient(
            hosted_service.host, hosted_service.port, hedge_delay=0
        ) as client:
            assert client.ping() < 5.0
            client.solve(SPEC, rng.standard_normal(N), tenant="tellie")
            snap = client.telemetry()
            assert "tellie" in snap["tenants"]
            assert (
                snap["tenants"]["tellie"]["counters"]["requests_submitted"] == 1
            )
            assert "service" in snap


# -- admission at the service boundary --------------------------------------


class TestServiceAdmission:
    def test_hot_tenant_throttled_others_served(self, rng):
        engine = SolveEngine(EngineConfig(max_linger=1e-3))
        config = ServiceConfig(
            admission=AdmissionController(
                quotas={"hog": TenantQuota(rate=1.0, burst=float(N))}
            )
        )
        with ServiceThread(engine, config, own_engine=True) as hosted:
            # throttle_retries=0: this test asserts the raw rejection,
            # not the client's automatic back-off-and-retry
            with ServiceClient(
                hosted.host, hosted.port, hedge_delay=0, throttle_retries=0
            ) as client:
                client.solve(SPEC, rng.standard_normal((N, N)), tenant="hog")
                with pytest.raises(ServiceError) as err:
                    client.solve(SPEC, rng.standard_normal(N), tenant="hog")
                assert err.value.code == "THROTTLED"
                assert err.value.retry_after > 0
                # an unrelated tenant is untouched by hog's rejection
                out = client.solve(SPEC, rng.standard_normal(N), tenant="ok")
                assert np.isfinite(out).all()

    def test_over_burst_request_gets_permanent_bad_request(self, rng):
        engine = SolveEngine(EngineConfig(max_linger=1e-3))
        config = ServiceConfig(
            admission=AdmissionController(
                quotas={"t": TenantQuota(rate=10.0, burst=4.0)}
            )
        )
        with ServiceThread(engine, config, own_engine=True) as hosted:
            with ServiceClient(hosted.host, hosted.port, hedge_delay=0) as client:
                with pytest.raises(ServiceError) as err:
                    client.solve(
                        SPEC,
                        rng.standard_normal((N, 8)),  # 8 cols > burst 4
                        tenant="t",
                        timeout=10.0,
                    )
                # permanent, so no misleading retry hint
                assert err.value.code == "BAD_REQUEST"
                assert err.value.retry_after is None
                # the connection survives and fitting requests still work
                out = client.solve(
                    SPEC, rng.standard_normal((N, 4)), tenant="t", timeout=10.0
                )
                assert np.isfinite(out).all()

    def test_oversized_payload_rejected_from_header(self, rng):
        engine = SolveEngine(EngineConfig(max_linger=1e-3))
        config = ServiceConfig(max_payload=4096)
        with ServiceThread(engine, config, own_engine=True) as hosted:
            with ServiceClient(hosted.host, hosted.port, hedge_delay=0) as client:
                with pytest.raises((ServiceError, ConnectionError)) as err:
                    # (N, 64) float64 RHS ≫ 4096 B: the server must refuse
                    # from the header instead of buffering the body
                    client.solve(
                        SPEC, rng.standard_normal((N, 64)), timeout=10.0
                    )
                if isinstance(err.value, ServiceError):
                    assert err.value.code == "BAD_REQUEST"

    def test_config_rejects_nonsense_caps(self):
        with pytest.raises(ValueError, match="max_payload"):
            ServiceConfig(max_payload=0)
        with pytest.raises(ValueError, match="max_payload"):
            ServiceConfig(max_payload=protocol.MAX_PAYLOAD + 1)
        with pytest.raises(ValueError, match="dispatch_workers"):
            ServiceConfig(dispatch_workers=0)

    def test_throttle_counts_in_tenant_telemetry(self, rng):
        engine = SolveEngine(EngineConfig(max_linger=1e-3))
        config = ServiceConfig(
            admission=AdmissionController(
                quotas={"hog": TenantQuota(rate=1.0, burst=1.0)}
            )
        )
        with ServiceThread(engine, config, own_engine=True) as hosted:
            # throttle_retries=0 so each rejection counts exactly once
            with ServiceClient(
                hosted.host, hosted.port, hedge_delay=0, throttle_retries=0
            ) as client:
                client.solve(SPEC, rng.standard_normal(N), tenant="hog")
                for _ in range(3):
                    with pytest.raises(ServiceError):
                        client.solve(SPEC, rng.standard_normal(N), tenant="hog")
                snap = client.telemetry()
        hog = snap["tenants"]["hog"]["counters"]
        assert hog["requests_rejected"] == 3
        assert snap["counters"]["service.throttled"] == 3


# -- client-side throttle retries --------------------------------------------


class TestThrottleRetry:
    def test_throttled_solve_retries_transparently(self, rng):
        # rate is high, so the bucket refills within the retry_after
        # hint: the default retry budget absorbs the throttle entirely.
        engine = SolveEngine(EngineConfig(max_linger=1e-3))
        config = ServiceConfig(
            admission=AdmissionController(
                quotas={"hog": TenantQuota(rate=2.0 * N, burst=float(N))}
            )
        )
        with ServiceThread(engine, config, own_engine=True) as hosted:
            with ServiceClient(
                hosted.host, hosted.port, hedge_delay=0
            ) as client:
                # burn the whole burst, then solve again immediately
                client.solve(SPEC, rng.standard_normal((N, N)), tenant="hog")
                out = client.solve(
                    SPEC, rng.standard_normal(N), tenant="hog", timeout=10.0
                )
                assert np.isfinite(out).all()
                assert client.stats()["throttle_retries"] >= 1

    def test_retry_budget_exhausts_to_error(self, rng):
        # rate is so low that no retry can ever be admitted: after the
        # bounded budget the THROTTLED error must surface, not hang.
        engine = SolveEngine(EngineConfig(max_linger=1e-3))
        config = ServiceConfig(
            admission=AdmissionController(
                quotas={"hog": TenantQuota(rate=0.05, burst=1.0)}
            )
        )
        with ServiceThread(engine, config, own_engine=True) as hosted:
            with ServiceClient(
                hosted.host,
                hosted.port,
                hedge_delay=0,
                throttle_retries=2,
                throttle_backoff_cap=0.05,  # keep the test fast
            ) as client:
                client.solve(SPEC, rng.standard_normal(N), tenant="hog")
                with pytest.raises(ServiceError) as err:
                    client.solve(
                        SPEC, rng.standard_normal(N), tenant="hog",
                        timeout=10.0,
                    )
                assert err.value.code == "THROTTLED"
                assert client.stats()["throttle_retries"] == 2

    def test_quota_exhaustion_is_permanent_no_retry(self, rng):
        # cols > burst can never be admitted; the server answers
        # BAD_REQUEST with no retry_after and the client must not retry.
        engine = SolveEngine(EngineConfig(max_linger=1e-3))
        config = ServiceConfig(
            admission=AdmissionController(
                quotas={"t": TenantQuota(rate=10.0, burst=2.0)}
            )
        )
        with ServiceThread(engine, config, own_engine=True) as hosted:
            with ServiceClient(
                hosted.host, hosted.port, hedge_delay=0
            ) as client:
                with pytest.raises(ServiceError) as err:
                    client.solve(
                        SPEC, rng.standard_normal((N, 8)), tenant="t",
                        timeout=10.0,
                    )
                assert err.value.code == "BAD_REQUEST"
                assert err.value.retry_after is None
                assert client.stats()["throttle_retries"] == 0

    def test_retry_knobs_validated(self):
        with pytest.raises(ValueError, match="throttle_retries"):
            ServiceClient("127.0.0.1", 1, throttle_retries=-1)
        with pytest.raises(ValueError, match="throttle_backoff_cap"):
            ServiceClient("127.0.0.1", 1, throttle_backoff_cap=0.0)


# -- wire-id scoping across connections --------------------------------------


class TestWireIdScoping:
    """Client-chosen wire ids only identify requests *per connection* —
    every client numbers from 1, so the server must never let one
    connection's CANCEL (sent routinely by hedging for loser ids) reach
    another connection's pending request."""

    def test_cancel_only_touches_own_connection(self, rng):
        engine = SolveEngine(EngineConfig(max_linger=1e-3))
        try:
            service = server_mod.SolveService(engine)
            conn_a = server_mod._Connection(None, None)
            conn_b = server_mod._Connection(None, None)
            req_a = protocol.Request(id=1, spec=SPEC, rhs=rng.standard_normal(N))
            req_b = protocol.Request(id=1, spec=SPEC, rhs=rng.standard_normal(N))
            asyncio.run(service._admit(conn_a, req_a))
            asyncio.run(service._admit(conn_b, req_b))
            assert len(service.queue) == 2
            pending_b = service._queued_ids[(conn_b, 1)]
            service._cancel(conn_a, 1)  # A cancels *its own* id 1 ...
            assert not pending_b.cancelled  # ... and B's twin is untouched
            assert (conn_b, 1) in service._queued_ids
            assert (conn_a, 1) not in service._queued_ids
            service._cancel(conn_b, 1)
            assert pending_b.cancelled
            service._executor.shutdown(wait=False)
        finally:
            engine.shutdown()

    def test_two_connections_with_colliding_wire_ids(self, hosted_service, rng):
        rhs_a = rng.standard_normal((N, 2))
        rhs_b = rng.standard_normal((N, 3))
        engine = hosted_service.service.engine
        want_a = engine.submit(SPEC, rhs_a).result(timeout=30)
        want_b = engine.submit(SPEC, rhs_b).result(timeout=30)
        with ServiceClient(
            hosted_service.host, hosted_service.port, hedge_delay=0
        ) as a, ServiceClient(
            hosted_service.host, hosted_service.port, hedge_delay=0
        ) as b:
            fut_a = a.submit(SPEC, rhs_a)  # wire id 1 on connection A
            fut_b = b.submit(SPEC, rhs_b)  # wire id 1 on connection B
            assert fut_a.result(timeout=30).tobytes() == want_a.tobytes()
            assert fut_b.result(timeout=30).tobytes() == want_b.tobytes()


# -- hedging -----------------------------------------------------------------


class _ScriptedServer:
    """A fake service that stalls the first request and acks the rest.

    Deterministic straggler: request one never gets a reply until the
    hedge (request two) has been answered, so the duplicate *must* win.
    Records every frame type it sees, including the loser's CANCEL.
    """

    def __init__(self):
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.port = self.sock.getsockname()[1]
        self.frames = []
        self.cancelled = []
        self._release_first = threading.Event()
        self._first = None
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        conn, _ = self.sock.accept()
        with conn:
            try:
                self._serve(conn)
            except (ConnectionError, OSError):
                pass

    def _serve(self, conn):
        while True:
            ftype, _flags, payload = protocol.read_frame(conn)
            self.frames.append(ftype)
            if ftype == protocol.FrameType.CANCEL:
                self.cancelled.append(protocol.decode_cancel(payload))
                continue
            if ftype != protocol.FrameType.REQUEST:
                continue
            request = protocol.decode_request(payload)
            coeffs = np.full(request.rhs.shape, float(request.id))
            if self._first is None:
                self._first = (request.id, coeffs)
                continue  # stall: no reply for the original send
            protocol.write_frame(conn, protocol.encode_result(request.id, coeffs))
            if self._release_first.wait(5.0) and self._first is not None:
                rid, held = self._first
                protocol.write_frame(conn, protocol.encode_result(rid, held))
                self._first = None

    def release_first(self):
        self._release_first.set()

    def close(self):
        self.sock.close()


class TestHedging:
    def test_hedge_first_ack_wins_and_loser_cancelled(self, rng):
        server = _ScriptedServer()
        try:
            with ServiceClient(
                "127.0.0.1", server.port, hedge_delay=0.05
            ) as client:
                got = client.solve(SPEC, rng.standard_normal(N), timeout=10.0)
                # the duplicate (wire id 2) answered; its value proves it
                assert np.all(got == 2.0)
                stats = client.stats()
                assert stats["hedges"] == 1
                assert stats["hedge_wins"] == 1
                # The scripted server reads the CANCEL only after its 5 s
                # hold on the first reply ends, so wait well past that.
                deadline = time.time() + 15.0
                while not server.cancelled and time.time() < deadline:
                    time.sleep(0.01)
                assert server.cancelled == [1]  # the stalled original
                # the late ack for the cancelled id must be ignored
                server.release_first()
                time.sleep(0.1)
                assert np.all(got == 2.0)
        finally:
            server.close()

    def test_no_hedge_below_delay(self, rng):
        server = _ScriptedServer()
        try:
            with ServiceClient(
                "127.0.0.1", server.port, hedge_delay=30.0
            ) as client:
                fut = client.submit(SPEC, rng.standard_normal(N))
                time.sleep(0.2)
                assert client.stats()["hedges"] == 0
                assert not fut.done()
        finally:
            server.close()

    def test_hedged_solve_has_no_duplicate_side_effects(self, rng):
        # Against the real engine: a forced hedge on every request must
        # leave results bitwise-identical to the unhedged solve.
        faults = FaultPlan(
            [
                FaultSpec(
                    site="engine.batch_solve",
                    kind="slow",
                    delay=0.3,
                    times=1,
                )
            ],
            seed=1,
        )
        engine = SolveEngine(
            EngineConfig(max_batch=1, max_linger=1e-4, faults=faults)
        )
        reference = SolveEngine(EngineConfig(max_batch=1))
        rhs = rng.standard_normal(N)
        expected = reference.submit(SPEC, rhs).result(timeout=30)
        reference.shutdown()
        with ServiceThread(engine, own_engine=True) as hosted:
            with ServiceClient(
                hosted.host, hosted.port, hedge_delay=0.05
            ) as client:
                got = client.solve(SPEC, rhs, timeout=30.0)
                stats = client.stats()
        assert got.tobytes() == expected.tobytes()
        assert stats["hedges"] >= 1


# -- shutdown / drain --------------------------------------------------------


class TestDrain:
    def test_stop_completes_inflight_requests(self, rng):
        faults = FaultPlan(
            [
                FaultSpec(
                    site="engine.batch_solve",
                    kind="slow",
                    delay=0.3,
                    times=None,
                )
            ],
            seed=1,
        )
        engine = SolveEngine(
            EngineConfig(max_batch=1, max_linger=1e-4, faults=faults)
        )
        hosted = ServiceThread(engine, own_engine=True).start()
        client = ServiceClient(hosted.host, hosted.port, hedge_delay=0)
        try:
            futures = [
                client.submit(SPEC, rng.standard_normal(N)) for _ in range(3)
            ]
            time.sleep(0.1)  # let them reach the engine
            hosted.stop()  # graceful: drain waits for in-flight work
            for fut in futures:
                assert np.isfinite(fut.result(timeout=10)).all()
        finally:
            client.close()

    def test_submit_during_drain_gets_shutdown_error(self, rng):
        faults = FaultPlan(
            [
                FaultSpec(
                    site="engine.batch_solve",
                    kind="slow",
                    delay=1.0,
                    times=None,
                )
            ],
            seed=1,
        )
        engine = SolveEngine(
            EngineConfig(max_batch=1, max_linger=1e-4, faults=faults)
        )
        hosted = ServiceThread(engine, own_engine=True).start()
        client = ServiceClient(hosted.host, hosted.port, hedge_delay=0)
        stopper = None
        try:
            slow = client.submit(SPEC, rng.standard_normal(N))
            time.sleep(0.2)  # in-flight; stop() will wait on it
            stopper = threading.Thread(target=hosted.stop, daemon=True)
            stopper.start()
            time.sleep(0.2)  # drain flag is up, listener may be closed
            try:
                late = client.submit(SPEC, rng.standard_normal(N))
                with pytest.raises((ServiceError, ConnectionError)) as err:
                    late.result(timeout=10)
                if isinstance(err.value, ServiceError):
                    assert err.value.code == "SHUTDOWN"
            except (ServiceError, ConnectionError):
                pass  # connection already torn down: equally a clean refusal
            assert np.isfinite(slow.result(timeout=15)).all()
        finally:
            if stopper is not None:
                stopper.join(timeout=15)
            client.close()


# -- per-tenant accounting in the engine ------------------------------------


class TestTenantAccounting:
    def test_engine_counts_per_tenant(self, rng):
        engine = SolveEngine(EngineConfig(max_linger=1e-3))
        engine.submit(SPEC, rng.standard_normal((N, 3)), tenant="a").result(30)
        engine.submit(SPEC, rng.standard_normal(N), tenant="b").result(30)
        engine.submit(SPEC, rng.standard_normal(N)).result(30)  # anonymous
        snap = engine.telemetry_snapshot()
        engine.shutdown()
        assert snap["tenants"]["a"]["counters"]["requests_submitted"] == 1
        assert snap["tenants"]["a"]["counters"]["requests_completed"] == 1
        assert snap["tenants"]["b"]["counters"]["requests_completed"] == 1
        assert set(snap["tenants"]) == {"a", "b"}  # None opts out entirely
        lat = snap["tenants"]["a"]["series"]["request_latency_seconds"]
        assert lat["count"] == 1

    def test_quarantine_event_carries_tenant(self, rng):
        engine = SolveEngine(
            EngineConfig(max_batch=8, max_linger=1e-3, verify_every=1)
        )
        rhs = rng.standard_normal(N)
        rhs[3] = np.nan
        fut = engine.submit(SPEC, rhs, tenant="mallory")
        with pytest.raises(Exception):
            fut.result(timeout=30)
        snap = engine.telemetry_snapshot()
        engine.shutdown()
        counters = snap["tenants"]["mallory"]["counters"]
        assert counters["requests_quarantined"] == 1
        events = snap["events"].get("engine.quarantine", [])
        assert events and events[-1]["tenant"] == "mallory"

    def test_telemetry_report_renders_tenant_table(self, rng):
        engine = SolveEngine(EngineConfig(max_linger=1e-3))
        engine.submit(SPEC, rng.standard_normal(N), tenant="alice").result(30)
        report = engine.telemetry_report()
        engine.shutdown()
        assert "Per-tenant telemetry" in report
        assert "alice" in report

    def test_render_tenant_table_direct(self):
        t = Telemetry()
        t.tenant_incr("x", "requests_submitted", 4)
        t.tenant_incr("x", "requests_rejected", 2)
        t.tenant_observe("x", "request_latency_seconds", 0.25)
        table = render_tenant_table(t.snapshot()["tenants"])
        assert "x" in table and "4" in table and "2" in table

    def test_worker_error_carries_tenant_through_pickle(self):
        import pickle

        err = WorkerError("boom", worker_id=3, tenant="mallory")
        clone = pickle.loads(pickle.dumps(err))
        assert clone.tenant == "mallory"
        assert "mallory" in str(clone)


# -- one tenant's poisoned columns -------------------------------------------

WAVES = 12  # more batches than PlanBreaker's default trip count of 5
WAVE = 8  # single-column requests per wave: one wave fills one batch


def _poisoned_engine():
    """Every batch verified; a wave is cut as one batch when it fills."""
    return SolveEngine(
        EngineConfig(max_batch=WAVE, max_linger=2.0, verify_every=1)
    )


def _waves(rng):
    """Per wave, ``(tenant, rhs)`` pairs: one NaN column from mallory,
    the rest clean columns from alice."""
    for wave in range(WAVES):
        requests = []
        for slot in range(WAVE):
            rhs = rng.standard_normal(N)
            if slot == wave % WAVE:
                rhs[N // 2] = np.nan
                requests.append(("mallory", rhs))
            else:
                requests.append(("alice", rhs))
        yield requests


class TestPoisonedTenant:
    """The retry isolates each poisoned column, so a batch it partly
    rescued is a success of the plan key: mallory's NaN columns are
    quarantined without opening the key's circuit for alice."""

    def test_engine_quarantines_culprits_circuit_stays_closed(self, rng):
        direct = SplineBuilder(SPEC)
        with _poisoned_engine() as engine:
            for wave in _waves(rng):
                futures = [
                    (tenant, rhs, engine.submit(SPEC, rhs, tenant=tenant))
                    for tenant, rhs in wave
                ]
                for tenant, rhs, fut in futures:
                    if tenant == "mallory":
                        with pytest.raises(VerificationError):
                            fut.result(timeout=30)
                    else:
                        got = fut.result(timeout=30)
                        assert got.tobytes() == direct.solve(rhs).tobytes()
            snap = engine.telemetry_snapshot()
        assert snap["counters"].get("circuit.opened", 0) == 0
        mallory = snap["tenants"]["mallory"]["counters"]
        assert mallory["requests_quarantined"] == WAVES
        alice = snap["tenants"]["alice"]["counters"]
        assert alice["requests_completed"] == WAVES * (WAVE - 1)

    def test_service_clean_tenant_never_sees_circuit_open(self, rng):
        direct = SplineBuilder(SPEC)
        with ServiceThread(_poisoned_engine(), own_engine=True) as hosted:
            with ServiceClient(hosted.host, hosted.port, hedge_delay=0) as client:
                for wave in _waves(rng):
                    futures = [
                        (tenant, rhs, client.submit(SPEC, rhs, tenant=tenant))
                        for tenant, rhs in wave
                    ]
                    for tenant, rhs, fut in futures:
                        if tenant == "mallory":
                            with pytest.raises(ServiceError) as err:
                                fut.result(timeout=30)
                            assert err.value.code == "VERIFY_FAILED"
                        else:
                            got = fut.result(timeout=30)
                            assert got.tobytes() == direct.solve(rhs).tobytes()

    def test_lone_poisoned_requests_still_open_the_circuit(self, rng):
        key = PlanKey.from_spec(SPEC)
        with SolveEngine(EngineConfig(max_batch=1, verify_every=1)) as engine:
            for _ in range(5):  # PlanBreaker's default trip count
                rhs = rng.standard_normal(N)
                rhs[N // 2] = np.nan
                with pytest.raises(VerificationError):
                    engine.submit(SPEC, rhs, tenant="mallory").result(timeout=30)
            # The key's failure is recorded just after the future fails.
            deadline = time.monotonic() + 30
            while engine.breaker.state(key) != "open":
                assert time.monotonic() < deadline, "circuit never opened"
                time.sleep(0.01)
            with pytest.raises(VerificationError) as err:
                engine.submit(SPEC, rng.standard_normal(N), tenant="alice")
            assert getattr(err.value, "short_circuited", False)
            snap = engine.telemetry_snapshot()
        assert snap["counters"]["circuit.opened"] == 1
