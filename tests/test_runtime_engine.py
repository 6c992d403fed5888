"""The runtime engine: plan cache, coalescer, backpressure, telemetry.

The headline test is the acceptance scenario of the runtime-subsystem
issue: 1024 single-slice requests against one periodic spec must trigger
exactly one factorization, coalesce into at most 8 batched solves, and
reproduce the direct :class:`SplineBuilder` results exactly.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

import repro.core.builder.builder as builder_module
from repro.core.builder.builder import SplineBuilder
from repro.core.builder.builder2d import SplineBuilder2D
from repro.core.spec import BSplineSpec
from repro.exceptions import ShapeError
from repro.runtime import (
    CoalescedBatch,
    EngineClosedError,
    EngineConfig,
    EngineTimeoutError,
    PlanCache,
    PlanKey,
    RequestCoalescer,
    SolveEngine,
    SolveRequest,
    Telemetry,
    merged_counter,
)

SPEC = BSplineSpec(degree=3, n_points=64)


def make_rhs(count, n=64, cols=None, seed=0):
    rng = np.random.default_rng(seed)
    shape = (n,) if cols is None else (n, cols)
    return [rng.standard_normal(shape) for _ in range(count)]


class StallingBuilder:
    """A fake cached builder whose solve blocks until released."""

    def __init__(self, n=64, dtype=np.float64):
        self.n = n
        self.dtype = np.dtype(dtype)
        self.release = threading.Event()
        self.calls = 0

    def solve(self, block, in_place=False):
        self.calls += 1
        assert self.release.wait(timeout=10), "test forgot to release the builder"
        return block


class FailingBuilder:
    """Delegates to a real builder but fails batched solves containing NaN."""

    def __init__(self, spec=SPEC):
        self._inner = SplineBuilder(spec)
        self.n = self._inner.n
        self.dtype = self._inner.dtype
        self.batch_calls = 0

    def solve(self, block, in_place=False):
        if block.shape[1] > 1:
            self.batch_calls += 1
            if np.isnan(block).any():
                raise FloatingPointError("poisoned batch")
        elif np.isnan(block).any():
            raise FloatingPointError("poisoned request")
        return self._inner.solve(block, in_place=in_place)


# ---------------------------------------------------------------------------
# acceptance scenario
# ---------------------------------------------------------------------------


def test_acceptance_1024_requests_one_factorization(monkeypatch):
    factorizations = []
    real_schur = builder_module.SchurSolver

    def counting_schur(*args, **kwargs):
        factorizations.append(1)
        return real_schur(*args, **kwargs)

    monkeypatch.setattr(builder_module, "SchurSolver", counting_schur)

    rhs = make_rhs(1024)
    direct = SplineBuilder(SPEC, version=2)
    expected = direct.solve(np.stack(rhs, axis=1))

    with SolveEngine(max_batch=128, max_linger=0.5, num_workers=2) as engine:
        futures = [engine.submit(SPEC, r) for r in rhs]
        engine.flush()
        results = [f.result(timeout=30) for f in futures]
        snap = engine.telemetry.snapshot()

    got = np.stack(results, axis=1)
    assert np.array_equal(expected, got)  # machine precision: bitwise

    # exactly one engine-side factorization (the direct builder above is
    # the comparison baseline, hence "== 2" total)
    assert len(factorizations) == 2
    hits = snap["counters"]["plan_cache.hits"]
    misses = snap["counters"]["plan_cache.misses"]
    assert misses == 1
    assert hits / (hits + misses) >= 1023 / 1024
    assert snap["counters"]["engine.batches_dispatched"] <= 8
    assert snap["counters"]["engine.requests_completed"] == 1024


# ---------------------------------------------------------------------------
# plan cache
# ---------------------------------------------------------------------------


class TestPlanCache:
    def test_factor_once_then_hit(self):
        cache = PlanCache()
        key = PlanKey.from_spec(SPEC)
        b1 = cache.builder(key)
        b2 = cache.builder(key)
        assert b1 is b2
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_lru_eviction(self):
        cache = PlanCache(max_plans=2)
        keys = [PlanKey.from_spec(SPEC.with_size(n)) for n in (16, 24, 32)]
        cache.builder(keys[0])
        cache.builder(keys[1])
        cache.builder(keys[0])  # refresh key 0 -> key 1 is now LRU
        cache.builder(keys[2])  # evicts key 1
        assert keys[0] in cache and keys[2] in cache
        assert keys[1] not in cache
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_put_adopts_external_builder(self):
        cache = PlanCache()
        builder = SplineBuilder(SPEC)
        cache.put(builder.plan_key(), builder)
        assert cache.builder(builder.plan_key()) is builder
        assert cache.misses == 0

    def test_key_requires_spec(self):
        with pytest.raises(TypeError):
            PlanKey.from_spec(SPEC.make_space())

    def test_distinct_configs_distinct_keys(self):
        base = PlanKey.from_spec(SPEC)
        assert PlanKey.from_spec(SPEC, version=1) != base
        assert PlanKey.from_spec(SPEC, dtype=np.float32) != base
        assert PlanKey.from_spec(SPEC.with_size(128)) != base

    def test_counts_into_telemetry(self):
        telemetry = Telemetry()
        cache = PlanCache(telemetry=telemetry)
        key = PlanKey.from_spec(SPEC)
        cache.builder(key)
        cache.builder(key)
        snap = telemetry.snapshot()
        assert snap["counters"]["plan_cache.misses"] == 1
        assert snap["counters"]["plan_cache.hits"] == 1


# ---------------------------------------------------------------------------
# coalescer
# ---------------------------------------------------------------------------


class TestCoalescer:
    def test_full_batch_cut_on_add(self):
        co = RequestCoalescer(n=8, max_batch=4, max_linger=10.0)
        reqs = [SolveRequest(np.zeros(8)) for _ in range(4)]
        assert co.add(reqs[0]) == []
        assert co.add(reqs[1]) == []
        assert co.add(reqs[2]) == []
        batches = co.add(reqs[3])
        assert len(batches) == 1 and batches[0].cols == 4
        assert co.pending_cols == 0

    def test_poll_respects_linger(self):
        co = RequestCoalescer(n=8, max_batch=100, max_linger=0.05)
        co.add(SolveRequest(np.zeros(8)))
        assert co.poll() is None  # too young
        time.sleep(0.06)
        batch = co.poll()
        assert batch is not None and batch.cols == 1

    def test_oversized_request_passes_through(self):
        co = RequestCoalescer(n=8, max_batch=4, max_linger=10.0)
        batches = co.add(SolveRequest(np.zeros((8, 9))))
        assert len(batches) == 1 and batches[0].cols == 9

    def test_mismatched_n_rejected(self):
        co = RequestCoalescer(n=8, max_batch=4, max_linger=10.0)
        with pytest.raises(ShapeError):
            co.add(SolveRequest(np.zeros(7)))

    def test_assemble_scatter_roundtrip(self):
        rng = np.random.default_rng(3)
        reqs = [
            SolveRequest(rng.standard_normal(8)),
            SolveRequest(rng.standard_normal((8, 3))),
        ]
        batch = CoalescedBatch(reqs)
        block = batch.assemble(np.float64)
        assert block.shape == (8, 4)
        batch.scatter(block * 2.0)
        assert np.array_equal(reqs[0].future.result(), reqs[0].rhs * 2.0)
        assert np.array_equal(reqs[1].future.result(), reqs[1].rhs * 2.0)

    def test_drain_flushes_everything(self):
        co = RequestCoalescer(n=8, max_batch=100, max_linger=100.0)
        for _ in range(3):
            co.add(SolveRequest(np.zeros(8)))
        batch = co.drain()
        assert batch is not None and batch.cols == 3
        assert co.drain() is None


# ---------------------------------------------------------------------------
# engine semantics
# ---------------------------------------------------------------------------


class TestEngine:
    def test_linger_flushes_partial_batch_without_flush_call(self):
        with SolveEngine(max_batch=1024, max_linger=0.01) as engine:
            futures = [engine.submit(SPEC, r) for r in make_rhs(3)]
            results = [f.result(timeout=10) for f in futures]
        direct = SplineBuilder(SPEC)
        for rhs, out in zip(make_rhs(3), results):
            assert np.array_equal(direct.solve(rhs), out)

    def test_sync_solve_and_2d_requests(self):
        rng = np.random.default_rng(5)
        block = rng.standard_normal((64, 5))
        direct = SplineBuilder(SPEC)
        with SolveEngine(max_batch=8, max_linger=0.01) as engine:
            out = engine.solve(SPEC, block)
        assert np.array_equal(direct.solve(block), out)

    def test_map_batches_bulk_path(self):
        rng = np.random.default_rng(6)
        blocks = [rng.standard_normal((64, 17)) for _ in range(3)]
        direct = SplineBuilder(SPEC)
        with SolveEngine() as engine:
            outs = engine.map_batches(SPEC, blocks)
            snap = engine.telemetry.snapshot()
        assert snap["counters"]["engine.bulk_blocks_submitted"] == 3
        for block, out in zip(blocks, outs):
            assert np.array_equal(direct.solve(block), out)

    def test_submit_after_shutdown_raises(self):
        engine = SolveEngine()
        engine.shutdown()
        with pytest.raises(EngineClosedError):
            engine.submit(SPEC, np.zeros(64))
        with pytest.raises(EngineClosedError):
            engine.map_batches(SPEC, [np.zeros((64, 2))])
        engine.shutdown()  # idempotent

    def test_bad_shape_rejected_before_queueing(self):
        with SolveEngine() as engine:
            with pytest.raises(ShapeError):
                engine.submit(SPEC, np.zeros(63))
            with pytest.raises(ShapeError):
                engine.map_batches(SPEC, [np.zeros((64, 2)), np.zeros((63, 2))])
            assert engine.inflight_cols == 0

    def test_config_overrides_and_validation(self):
        engine = SolveEngine(EngineConfig(max_batch=16), num_workers=3)
        try:
            assert engine.config.max_batch == 16
            assert engine.config.num_workers == 3
        finally:
            engine.shutdown()
        with pytest.raises(TypeError):
            SolveEngine(bogus_field=1)
        with pytest.raises(ValueError):
            EngineConfig(max_queue=0)
        with pytest.raises(ValueError):
            EngineConfig(max_batch=0)


# ---------------------------------------------------------------------------
# backpressure, timeout, retry
# ---------------------------------------------------------------------------


def _engine_with_stalled_lane(**config):
    """An engine whose (stalling) builder is pre-seeded in the plan cache."""
    engine = SolveEngine(**config)
    stalling = StallingBuilder()
    engine.plan_cache.put(PlanKey.from_spec(SPEC), stalling)
    return engine, stalling


class TestBackpressureAndTimeouts:
    def test_block_policy_proceeds_once_capacity_frees(self):
        engine, stalling = _engine_with_stalled_lane(
            max_batch=1, max_queue=1, num_workers=1
        )
        try:
            first = engine.submit(SPEC, make_rhs(1)[0])
            releaser = threading.Timer(0.05, stalling.release.set)
            releaser.start()
            second = engine.submit(SPEC, make_rhs(1)[0])  # blocks, then proceeds
            first.result(timeout=10)
            second.result(timeout=10)
        finally:
            stalling.release.set()
            engine.shutdown()

    def test_request_wider_than_budget_runs_on_idle_engine(self):
        """A block or request wider than ``max_queue`` could never fit the
        budget; on an idle engine it is admitted and runs alone instead
        of waiting forever.  Each call runs on a thread joined with a
        timeout, so a regression fails rather than hangs."""
        block = make_rhs(1, cols=5, seed=3)[0]
        expected = SplineBuilder(SPEC).solve(block)
        with SolveEngine(max_queue=4, max_linger=1e-3) as engine:
            for call in (
                lambda: engine.map_batches(SPEC, [block])[0],
                lambda: engine.submit(SPEC, block).result(timeout=10),
            ):
                out = []
                worker = threading.Thread(
                    target=lambda: out.append(call()), daemon=True
                )
                worker.start()
                worker.join(timeout=10)
                assert not worker.is_alive(), "over-budget request never ran"
                assert np.array_equal(out[0], expected)

    def test_expired_request_gets_timeout_error(self):
        engine, stalling = _engine_with_stalled_lane(max_batch=1, num_workers=1)
        try:
            blocker = engine.submit(SPEC, make_rhs(1)[0])
            doomed = engine.submit(SPEC, make_rhs(1)[0], timeout=0.01)
            time.sleep(0.05)
            stalling.release.set()
            blocker.result(timeout=10)
            with pytest.raises(EngineTimeoutError):
                doomed.result(timeout=10)
            assert engine.telemetry.counter("engine.requests_timed_out") == 1
        finally:
            stalling.release.set()
            engine.shutdown()

    def test_poisoned_request_fails_alone_others_retry(self):
        engine = SolveEngine(max_batch=4, max_linger=10.0, num_workers=1)
        failing = FailingBuilder()
        engine.plan_cache.put(PlanKey.from_spec(SPEC), failing)
        try:
            good = make_rhs(3, seed=7)
            poisoned = np.full(64, np.nan)
            futures = [engine.submit(SPEC, r) for r in good]
            bad_future = engine.submit(SPEC, poisoned)  # fills the batch
            direct = SplineBuilder(SPEC)
            for rhs, fut in zip(good, futures):
                assert np.array_equal(direct.solve(rhs), fut.result(timeout=10))
            with pytest.raises(FloatingPointError):
                bad_future.result(timeout=10)
            snap = engine.telemetry.snapshot()
            assert snap["counters"]["engine.batch_failures"] == 1
            assert snap["counters"]["engine.request_retries"] == 4
            assert snap["counters"]["engine.requests_failed"] == 1
            assert snap["counters"]["engine.requests_completed"] == 3
        finally:
            engine.shutdown()


# ---------------------------------------------------------------------------
# telemetry
# ---------------------------------------------------------------------------


class TestTelemetry:
    def test_counters_and_series(self):
        t = Telemetry()
        t.incr("a")
        t.incr("a", 2)
        for v in range(100):
            t.observe("lat", v)
        assert t.counter("a") == 3
        assert t.quantile("lat", 0.5) == pytest.approx(49.5)
        snap = t.snapshot()
        assert snap["series"]["lat"]["count"] == 100
        assert snap["series"]["lat"]["max"] == 99
        assert merged_counter(snap, "a", "missing") == 3

    def test_span_records_seconds(self):
        t = Telemetry()
        with t.span("work"):
            time.sleep(0.01)
        assert t.snapshot()["series"]["work.seconds"]["max"] >= 0.01

    def test_reservoir_is_bounded_but_aggregates_are_not(self):
        t = Telemetry(max_samples=8)
        for v in range(100):
            t.observe("x", v)
        s = t.snapshot()["series"]["x"]
        assert s["count"] == 100
        assert s["min"] == 0 and s["max"] == 99
        assert t.quantile("x", 0.0) == 92  # reservoir keeps the newest 8

    def test_events_survive_wall_clock_steps(self):
        """Regression: a wall-clock step (NTP slew, manual reset) must not
        reorder merged event streams — merging sorts on the monotonic
        stamp recorded alongside the wall time."""
        from repro.runtime.telemetry import merge_snapshots

        wall_a = iter([1000.0, 900.0, 1100.0])  # steps backward mid-stream
        mono_a = iter([10.0, 11.0, 12.0])
        a = Telemetry(
            wall_clock=lambda: next(wall_a), mono_clock=lambda: next(mono_a)
        )
        wall_b = iter([950.0])
        mono_b = iter([10.5])
        b = Telemetry(
            wall_clock=lambda: next(wall_b), mono_clock=lambda: next(mono_b)
        )
        a.event("step", seq=0)
        a.event("step", seq=1)  # wall time jumped back before this one
        b.event("step", seq=2)
        a.event("step", seq=3)
        for record in a.events("step"):
            assert "mono" in record and "t" in record
        merged = merge_snapshots(a.snapshot(), b.snapshot())
        seqs = [r["seq"] for r in merged["events"]["step"]]
        assert seqs == [0, 2, 1, 3]  # monotonic order, not wall order

    def test_merge_falls_back_to_wall_time_without_mono(self):
        """Old snapshots (no ``mono`` field) still merge, ordered by
        wall time — the pre-existing behaviour."""
        from repro.runtime.telemetry import merge_snapshots

        snap = {
            "counters": {}, "series": {}, "tenants": {},
            "events": {"e": [{"t": 2.0, "seq": 1}, {"t": 1.0, "seq": 0}]},
        }
        merged = merge_snapshots(snap)
        assert [r["seq"] for r in merged["events"]["e"]] == [0, 1]

    def test_render_and_reset(self):
        t = Telemetry()
        t.incr("plan_cache.hits", 5)
        t.observe("coalescer.batch_cols", 128)
        out = t.render()
        assert "plan_cache.hits" in out and "coalescer.batch_cols" in out
        t.reset()
        assert t.counter("plan_cache.hits") == 0


# ---------------------------------------------------------------------------
# integration: builders and advection routed through the engine
# ---------------------------------------------------------------------------


class TestIntegration:
    def test_builder_with_engine_matches_direct(self):
        rng = np.random.default_rng(11)
        f = rng.standard_normal(64)
        direct = SplineBuilder(SPEC)
        with SolveEngine(max_batch=4, max_linger=0.01) as engine:
            routed = SplineBuilder(SPEC, engine=engine)
            out = routed.solve(f)
            snap = engine.telemetry.snapshot()
        assert np.array_equal(direct.solve(f), out)
        assert snap["counters"]["engine.requests_submitted"] == 1
        # the builder donated its factorization: the engine never factored
        assert snap["counters"].get("plan_cache.misses", 0) == 0

    def test_builder_engine_requires_spec(self):
        with SolveEngine() as engine:
            with pytest.raises(ValueError):
                SplineBuilder(SPEC.make_space(), engine=engine)

    def test_builder_in_place_stays_direct(self):
        rng = np.random.default_rng(12)
        f = np.ascontiguousarray(rng.standard_normal((64, 3)))
        with SolveEngine() as engine:
            routed = SplineBuilder(SPEC, engine=engine)
            out = routed.solve(f, in_place=True)
            assert out is f
            assert engine.telemetry.counter("engine.requests_submitted") == 0

    def test_builder2d_shares_plans_through_engine(self):
        spec_x = BSplineSpec(degree=3, n_points=16)
        spec_y = BSplineSpec(degree=4, n_points=20)
        rng = np.random.default_rng(13)
        f = rng.standard_normal((16, 20))
        plain = SplineBuilder2D(spec_x, spec_y)
        with SolveEngine() as engine:
            first = SplineBuilder2D(spec_x, spec_y, engine=engine)
            second = SplineBuilder2D(spec_x, spec_y, engine=engine)
            assert second.builder_x is first.builder_x
            assert second.builder_y is first.builder_y
            assert engine.plan_cache.misses == 2
            assert engine.plan_cache.hits == 2
            out = first.solve(f)
        assert np.array_equal(plain.solve(f), out)

    def test_advection_through_engine_matches_direct(self):
        from repro.advection.semilag import BatchedAdvection1D

        spec = BSplineSpec(degree=3, n_points=32)
        velocities = np.linspace(-1.0, 1.0, 8)
        rng = np.random.default_rng(14)
        f0 = rng.standard_normal((8, 32))
        plain = BatchedAdvection1D(SplineBuilder(spec), velocities, dt=0.05)
        expected = plain.run(f0.copy(), steps=3)
        with SolveEngine() as engine:
            routed = BatchedAdvection1D(
                SplineBuilder(spec), velocities, dt=0.05, engine=engine
            )
            got = routed.run(f0.copy(), steps=3)
            assert engine.telemetry.counter("engine.bulk_blocks_submitted") == 3
        assert np.allclose(expected, got, rtol=0, atol=1e-14)

    def test_advection_engine_guards(self):
        from repro.advection.semilag import BatchedAdvection1D

        spec = BSplineSpec(degree=3, n_points=32)
        velocities = np.linspace(-1.0, 1.0, 4)
        with SolveEngine() as engine:
            with pytest.raises(ValueError):
                BatchedAdvection1D(
                    SplineBuilder(spec),
                    velocities,
                    dt=0.05,
                    engine=engine,
                    fuse_transpose=True,
                )
            with pytest.raises(ValueError):
                BatchedAdvection1D(
                    SplineBuilder(spec.make_space()),
                    velocities,
                    dt=0.05,
                    engine=engine,
                )

    def test_top_level_exports(self):
        import repro

        assert repro.SolveEngine is SolveEngine
        assert repro.EngineConfig is EngineConfig
        assert repro.PlanCache is PlanCache
        assert repro.Telemetry is Telemetry
