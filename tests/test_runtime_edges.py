"""Runtime edge cases: shutdown mid-linger, zero-column requests, deadlines.

These are the corners where the engine's invariants are easiest to break:
requests buffered but not yet dispatched when the engine stops, requests
carrying zero columns (empty slices are legal NumPy and legal here), and
the interaction between verify-on-solve sampling and per-request
deadlines (an expired request must be dropped before any solve or verify
work is spent on it).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.builder.builder import SplineBuilder
from repro.core.spec import BSplineSpec
from repro.exceptions import VerificationError
from repro.runtime import EngineConfig, SolveEngine
from repro.runtime.coalescer import RequestCoalescer, SolveRequest
from repro.runtime.engine import EngineClosedError, EngineTimeoutError

SPEC = BSplineSpec(degree=3, n_points=24)
N = 24


# -- shutdown mid-linger ---------------------------------------------------


def test_shutdown_drains_lingering_requests(rng):
    """Requests still buffered (linger not yet expired) must be solved,
    not dropped, when the engine shuts down."""
    reference = SplineBuilder(SPEC, version=2)
    engine = SolveEngine(EngineConfig(max_batch=64, max_linger=60.0))
    rhs = [rng.standard_normal(N) for _ in range(5)]
    futures = [engine.submit(SPEC, r) for r in rhs]
    assert all(not f.done() for f in futures)  # far below max_batch, huge linger
    engine.shutdown()
    for fut, r in zip(futures, rhs):
        np.testing.assert_allclose(fut.result(timeout=5), reference.solve(r))


def test_shutdown_mid_linger_with_verification(rng):
    """The drain path must run the same verify sampling as a normal flush."""
    engine = SolveEngine(
        EngineConfig(max_batch=64, max_linger=60.0, verify_every=1)
    )
    futures = [engine.submit(SPEC, rng.standard_normal(N)) for _ in range(3)]
    engine.shutdown()
    for fut in futures:
        assert np.isfinite(fut.result(timeout=5)).all()
    snap = engine.telemetry.snapshot()
    assert snap["counters"].get("verify.checks", 0) >= 1
    assert snap["counters"].get("verify.failures", 0) == 0


def test_shutdown_is_idempotent_and_rejects_new_work(rng):
    engine = SolveEngine(EngineConfig(max_linger=1e-3))
    engine.solve(SPEC, rng.standard_normal(N))
    engine.shutdown()
    engine.shutdown()  # second call is a no-op, not an error
    with pytest.raises(EngineClosedError):
        engine.submit(SPEC, rng.standard_normal(N))
    with pytest.raises(EngineClosedError):
        engine.map_batches(SPEC, [rng.standard_normal((N, 2))])


# -- zero-column requests --------------------------------------------------


def test_zero_column_request_resolves_empty(rng):
    """An (n, 0) right-hand side is legal and resolves to an (n, 0) result."""
    with SolveEngine(EngineConfig(max_batch=8, max_linger=1e-3)) as engine:
        fut = engine.submit(SPEC, np.empty((N, 0)))
        engine.flush()
        out = fut.result(timeout=5)
    assert out.shape == (N, 0)


def test_zero_column_request_with_verification(rng):
    """verify_every=1 on an all-empty batch checks zero columns and passes."""
    with SolveEngine(
        EngineConfig(max_batch=8, max_linger=1e-3, verify_every=1)
    ) as engine:
        fut = engine.submit(SPEC, np.empty((N, 0)))
        good = engine.submit(SPEC, rng.standard_normal(N))
        engine.flush()
        assert fut.result(timeout=5).shape == (N, 0)
        assert np.isfinite(good.result(timeout=5)).all()
        snap = engine.telemetry.snapshot()
    assert snap["counters"].get("verify.failures", 0) == 0


def test_coalescer_expiry_with_zero_queued_columns():
    """poll() on an empty buffer and on a zero-column buffer both behave:
    no batch from nothing, and a zero-column batch once linger expires."""
    coalescer = RequestCoalescer(N, max_batch=8, max_linger=0.0)
    assert coalescer.poll() is None  # nothing queued at all
    request = SolveRequest(np.empty((N, 0)))
    assert coalescer.add(request) == []  # 0 columns never trips max_batch
    assert coalescer.pending_cols == 0
    batch = coalescer.poll()  # linger 0: the oldest request has expired
    assert batch is not None and batch.cols == 0
    block = batch.assemble(np.float64)
    assert block.shape == (N, 0)
    batch.scatter(block)
    assert request.future.result(timeout=1).shape == (N, 0)
    assert coalescer.poll() is None  # buffer is empty again


# -- deadlines x verification ---------------------------------------------


def test_expired_request_dropped_before_verify(rng):
    """A request whose deadline passed is dropped without solve or verify
    work; its batch-mates still complete, verified."""
    with SolveEngine(
        EngineConfig(max_batch=64, max_linger=60.0, verify_every=1)
    ) as engine:
        doomed = engine.submit(SPEC, rng.standard_normal(N), timeout=1e-9)
        good = engine.submit(SPEC, rng.standard_normal(N))
        engine.flush()
        with pytest.raises(EngineTimeoutError):
            doomed.result(timeout=5)
        assert np.isfinite(good.result(timeout=5)).all()
        snap = engine.telemetry.snapshot()
    assert snap["counters"].get("engine.requests_timed_out", 0) == 1
    assert snap["counters"].get("verify.checks", 0) >= 1
    assert snap["counters"].get("verify.failures", 0) == 0


def test_whole_batch_expired_skips_verification(rng):
    """When every member expired, nothing is solved and nothing verified."""
    with SolveEngine(
        EngineConfig(max_batch=64, max_linger=60.0, verify_every=1)
    ) as engine:
        futures = [
            engine.submit(SPEC, rng.standard_normal(N), timeout=1e-9)
            for _ in range(3)
        ]
        engine.flush()
        for fut in futures:
            with pytest.raises(EngineTimeoutError):
                fut.result(timeout=5)
        snap = engine.telemetry.snapshot()
    assert snap["counters"].get("engine.requests_timed_out", 0) == 3
    assert snap["counters"].get("verify.checks", 0) == 0


def test_poisoned_column_quarantined_by_verification(rng):
    """A NaN right-hand side fails alone; batch-mates complete normally."""
    with SolveEngine(
        EngineConfig(max_batch=4, max_linger=1e-3, verify_every=1)
    ) as engine:
        good = [engine.submit(SPEC, rng.standard_normal(N)) for _ in range(3)]
        poisoned = rng.standard_normal(N)
        poisoned[N // 2] = np.nan
        bad = engine.submit(SPEC, poisoned)
        engine.flush()
        for fut in good:
            assert np.isfinite(fut.result(timeout=5)).all()
        with pytest.raises(VerificationError) as excinfo:
            bad.result(timeout=5)
        snap = engine.telemetry.snapshot()
    assert excinfo.value.backward_error > excinfo.value.tol
    assert snap["counters"].get("verify.failures", 0) >= 1
    assert snap["counters"].get("engine.requests_failed", 0) == 1


# -- round-robin batch cutting across tenants ------------------------------


def test_coalescer_round_robins_across_tenants(rng):
    """Regression: a hot tenant's burst must not fill whole batches end to
    end.  Old FIFO cutting gave the first batch entirely to tenant A;
    round-robin interleaves one request per tenant per turn."""
    co = RequestCoalescer(N, max_batch=4, max_linger=10.0)
    a = [SolveRequest(rng.standard_normal(N), tenant="a") for _ in range(6)]
    batches = []
    for req in a[:6]:
        batches.extend(co.add(req))
    assert len(batches) == 1  # A's burst alone cut one full batch (FIFO)
    b = [SolveRequest(rng.standard_normal(N), tenant="b") for _ in range(2)]
    for req in b:
        batches.extend(co.add(req))
    assert len(batches) == 2
    # the cut after B arrived interleaves: a, b, a, b — not a, a, a, a
    second = [req.tenant for req in batches[1].requests]
    assert second == ["a", "b", "a", "b"]


def test_coalescer_single_tenant_stays_fifo(rng):
    """With one submitter key the ring reduces exactly to the old FIFO."""
    co = RequestCoalescer(N, max_batch=3, max_linger=10.0)
    reqs = [SolveRequest(rng.standard_normal(N)) for _ in range(7)]
    batches = []
    for req in reqs:
        batches.extend(co.add(req))
    flat = [r for batch in batches for r in batch.requests]
    assert flat == reqs[:6]  # strict arrival order, three per batch
    assert [b.cols for b in batches] == [3, 3]


def test_coalescer_drain_preserves_arrival_order(rng):
    co = RequestCoalescer(N, max_batch=100, max_linger=10.0)
    reqs = [
        SolveRequest(rng.standard_normal(N), tenant=i % 3) for i in range(7)
    ]
    for req in reqs:
        co.add(req)
    batch = co.drain()
    assert batch.requests == reqs  # seq order, not per-key order


def test_coalescer_poll_uses_oldest_across_tenants(rng):
    """The linger clock follows the globally oldest request even when its
    tenant is not at the ring head."""
    co = RequestCoalescer(N, max_batch=100, max_linger=0.05)
    first = SolveRequest(rng.standard_normal(N), tenant="early")
    co.add(first)
    time.sleep(0.06)
    co.add(SolveRequest(rng.standard_normal(N), tenant="late"))
    batch = co.poll()
    assert batch is not None and first in batch.requests


# -- engine shutdown under a live network client ---------------------------


def test_engine_shutdown_while_client_mid_request(rng):
    """Shutting the *engine* down under a live TCP client must resolve the
    in-flight request (the drain solves lingering batches) and turn later
    submissions into clean SHUTDOWN errors, never hangs."""
    from repro.service import ServiceClient, ServiceError, ServiceThread

    engine = SolveEngine(EngineConfig(max_batch=64, max_linger=60.0))
    reference = SplineBuilder(SPEC, version=2)
    hosted = ServiceThread(engine).start()
    client = ServiceClient(hosted.host, hosted.port, hedge_delay=0)
    try:
        rhs = rng.standard_normal(N)
        fut = client.submit(SPEC, rhs)
        deadline = time.perf_counter() + 5.0
        while (
            engine.inflight_cols == 0 and time.perf_counter() < deadline
        ):
            time.sleep(0.005)  # wait until the request is buffered
        engine.shutdown()  # out from under the service
        np.testing.assert_allclose(
            fut.result(timeout=10), reference.solve(rhs)
        )
        late = client.submit(SPEC, rng.standard_normal(N))
        with pytest.raises(ServiceError) as err:
            late.result(timeout=10)
        assert err.value.code == "SHUTDOWN"
    finally:
        client.close()
        hosted.stop()
