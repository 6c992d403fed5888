"""Process-sharded executor: bitwise identity, telemetry merge, cleanup.

The contract under test is the tentpole claim of the sharded backend: a
batch solved ``executor="processes"`` (column-split across worker
processes through shared memory) is **bitwise identical** to the same
batch solved ``executor="threads"`` — for every solver version, dtype,
boundary condition and dispatch backend.  Plus the supporting machinery:
worker telemetry merging, verify-on-solve on the gathered block, engine
integration (`SplineBuilder(engine=)`, `BatchedAdvection1D(engine=)`),
worker-failure isolation, and shared-memory hygiene at shutdown.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.advection import BatchedAdvection1D
from repro.core.builder import SplineBuilder
from repro.core.spec import BSplineSpec
from repro.runtime import (
    EngineConfig,
    PlanKey,
    ShardedExecutor,
    SolveEngine,
    merged_counter,
)
from repro.runtime import shm as shm_mod


def _rhs(spec: BSplineSpec, cols: int, dtype, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((spec.n_points, cols)).astype(dtype)


@pytest.fixture(scope="module")
def threads_engine():
    with SolveEngine(
        config=EngineConfig(executor="threads", num_workers=2, max_batch=16)
    ) as engine:
        yield engine


@pytest.fixture(scope="module")
def processes_engine():
    with SolveEngine(
        config=EngineConfig(executor="processes", num_workers=2, max_batch=16)
    ) as engine:
        yield engine


@pytest.mark.parametrize("boundary", ["periodic", "clamped"])
@pytest.mark.parametrize("version", [0, 1, 2])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_bitwise_identity_map_batches(
    threads_engine, processes_engine, boundary, version, dtype
):
    """Sharded solve == single-process solve, bit for bit, per version/dtype."""
    spec = BSplineSpec(degree=3, n_points=64, boundary=boundary)
    block = _rhs(spec, 37, dtype)  # 37 splits unevenly over 2 workers
    kw = dict(version=version, dtype=dtype)
    expect = threads_engine.map_batches(spec, [block.copy()], **kw)[0]
    got = processes_engine.map_batches(spec, [block.copy()], **kw)[0]
    assert got.dtype == expect.dtype
    assert (got == expect).all()


@pytest.mark.parametrize("backend", ["vectorized", "serial"])
def test_bitwise_identity_backends(threads_engine, processes_engine, backend):
    spec = BSplineSpec(degree=3, n_points=48, boundary="periodic")
    block = _rhs(spec, 11, np.float64, seed=3)
    expect = threads_engine.map_batches(spec, [block.copy()], backend=backend)[0]
    got = processes_engine.map_batches(spec, [block.copy()], backend=backend)[0]
    assert (got == expect).all()


def test_bitwise_identity_coalesced_submit(threads_engine, processes_engine):
    """Small submits coalesce into batches that shard identically."""
    spec = BSplineSpec(degree=3, n_points=32, boundary="periodic")
    rhs_list = [_rhs(spec, 1, np.float64, seed=s)[:, 0] for s in range(24)]
    t_futs = [threads_engine.submit(spec, r) for r in rhs_list]
    p_futs = [processes_engine.submit(spec, r) for r in rhs_list]
    threads_engine.flush()
    processes_engine.flush()
    for tf, pf in zip(t_futs, p_futs):
        assert (tf.result(timeout=60) == pf.result(timeout=60)).all()


def test_wide_submit_cuts_multiple_sharded_batches(processes_engine):
    """A wide request crossing several max_batch multiples solves promptly
    and correctly through the sharded path (satellite 3 integration)."""
    spec = BSplineSpec(degree=3, n_points=32, boundary="periodic")
    wide = _rhs(spec, 70, np.float64, seed=9)  # > 4x the engine's max_batch
    got = processes_engine.submit(spec, wide).result(timeout=60)
    want = SplineBuilder(spec).solve(wide.copy())
    assert (got == want).all()


def test_verify_every_on_gathered_block():
    """verify_every samples the block *after* the sharded gather."""
    spec = BSplineSpec(degree=3, n_points=48, boundary="periodic")
    with SolveEngine(
        config=EngineConfig(executor="processes", num_workers=2, verify_every=1)
    ) as engine:
        engine.solve(spec, _rhs(spec, 5, np.float64)[:, 0])
        engine.map_batches(spec, [_rhs(spec, 9, np.float64, seed=1)])
        snap = engine.telemetry_snapshot()
    assert merged_counter(snap, "verify.checks") == 2
    assert merged_counter(snap, "verify.passes") == 2
    assert merged_counter(snap, "verify.failures") == 0


def test_worker_telemetry_merges_into_fleet_view():
    """Each worker factors once; the merged snapshot counts all of them."""
    spec = BSplineSpec(degree=3, n_points=40, boundary="periodic")
    with SolveEngine(
        config=EngineConfig(executor="processes", num_workers=2)
    ) as engine:
        engine.map_batches(spec, [_rhs(spec, 12, np.float64)])
        merged = engine.telemetry_snapshot()
        parent_only = engine.telemetry_snapshot(include_workers=False)
        report = engine.telemetry_report()
    # one per worker: the parent factorizes only the plans it solves
    assert merged_counter(merged, "plan_cache.misses") == 2
    assert merged_counter(parent_only, "plan_cache.misses") == 0
    # both workers solved one shard of the 12-column block
    assert merged_counter(merged, "worker.shards_solved") == 2
    assert merged["series"]["worker.shard_cols"]["count"] == 2
    assert merged["series"]["worker.shard_cols"]["mean"] == pytest.approx(6.0)
    assert "worker.shards_solved" in report


def test_builder_engine_routes_through_shards():
    spec = BSplineSpec(degree=3, n_points=64, boundary="periodic")
    rhs = _rhs(spec, 11, np.float64, seed=5)
    want = SplineBuilder(spec).solve(rhs.copy())
    with SolveEngine(
        config=EngineConfig(executor="processes", num_workers=2)
    ) as engine:
        got = SplineBuilder(spec, engine=engine).solve(rhs.copy())
        snap = engine.telemetry_snapshot()
    assert (got == want).all()
    assert merged_counter(snap, "sharded.blocks") >= 1


def test_advection_engine_bitwise():
    spec = BSplineSpec(degree=3, n_points=64, boundary="periodic")
    rng = np.random.default_rng(2)
    vel = 0.3 + 0.1 * rng.standard_normal(16)
    f0 = rng.standard_normal((16, 64))
    direct = BatchedAdvection1D(SplineBuilder(spec), vel, dt=0.01).step(f0.copy())
    with SolveEngine(
        config=EngineConfig(executor="processes", num_workers=2)
    ) as engine:
        routed = BatchedAdvection1D(
            SplineBuilder(spec), vel, dt=0.01, engine=engine
        ).step(f0.copy())
    assert (direct == routed).all()


def test_single_column_block_uses_one_shard():
    """Fewer columns than workers must not produce empty shards."""
    spec = BSplineSpec(degree=3, n_points=32, boundary="periodic")
    rhs = _rhs(spec, 1, np.float64, seed=8)
    want = SplineBuilder(spec).solve(rhs.copy())
    with SolveEngine(
        config=EngineConfig(executor="processes", num_workers=4)
    ) as engine:
        got = engine.map_batches(spec, [rhs.copy()])[0]
        snap = engine.telemetry_snapshot()
    assert (got == want).all()
    assert snap["series"]["sharded.shards_per_block"]["max"] == 1


def test_worker_failure_propagates_and_pool_survives():
    """A key the worker cannot factor fails that solve only; the worker
    stays alive and the next solve succeeds."""
    executor = ShardedExecutor(num_workers=1)
    try:
        lease = executor.lease((8, 4), np.float64)
        try:
            lease.array[:] = 1.0
            with pytest.raises(Exception):
                # a tuple has no make_builder(): the worker-side cache
                # lookup raises and the error ships back to the parent
                executor.solve(("not", "a", "key"), lease)
        finally:
            executor.release(lease)
        assert executor.alive()
        spec = BSplineSpec(degree=3, n_points=32, boundary="periodic")
        key = PlanKey.from_spec(spec)
        rhs = _rhs(spec, 4, np.float64, seed=4)
        lease = executor.lease(rhs.shape, np.float64)
        try:
            np.copyto(lease.array, rhs)
            executor.solve(key, lease)
            got = np.array(lease.array, copy=True)
        finally:
            executor.release(lease)
        assert (got == SplineBuilder(spec).solve(rhs.copy())).all()
    finally:
        executor.shutdown()


def test_shutdown_unlinks_segments_and_keeps_final_snapshots():
    executor = ShardedExecutor(num_workers=2)
    lease = executor.lease((16, 8), np.float64)
    name = lease.name
    executor.release(lease)
    # the pooled segment is attachable while the executor lives
    seg = shm_mod.attach(name)
    seg.close()
    executor.shutdown()
    with pytest.raises(FileNotFoundError):
        shm_mod.attach(name)
    # final snapshots were captured during shutdown and stay readable
    snaps = executor.worker_snapshots()
    assert len(snaps) == 2
    assert all("counters" in s for s in snaps)
    # second shutdown is a no-op
    executor.shutdown()


@pytest.mark.parametrize("executor", ["fibers", "cluster"])
def test_engine_config_rejects_unknown_executor(executor):
    with pytest.raises(ValueError):
        EngineConfig(executor=executor)


def test_shared_block_pool_grow_and_close():
    pool = shm_mod.SharedBlockPool(blocks=1, initial_bytes=16)
    block = pool.acquire(1024)
    assert block.capacity >= 1024
    first_name = block.name
    pool.release(block)
    # re-acquiring under capacity keeps the same (warm) segment
    block = pool.acquire(512)
    assert block.name == first_name
    pool.release(block)
    pool.close()
    with pytest.raises(shm_mod.ShmError):
        pool.acquire(1)
