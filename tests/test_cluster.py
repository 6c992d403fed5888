"""Tests for :mod:`repro.cluster` — multi-host sharded execution over TCP.

Covers the wire codecs, coordinator lease/re-issue semantics, the
executor's bitwise parity with a local solve, the node-kill and
partition chaos scenarios (zero lost, zero double-solved shards), the
elastic controller, and the engine integration
(``EngineConfig(executor="cluster")`` including degradation to threads
when the fleet is exhausted).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterExecutor,
    Coordinator,
    ElasticController,
    ElasticPolicy,
)
from repro.cluster.wire import (
    ClusterFrame,
    decode_heartbeat,
    decode_shard,
    decode_shard_err,
    decode_shard_ok,
    decode_snapshot,
    encode_heartbeat,
    encode_shard,
    encode_shard_err,
    encode_shard_ok,
    encode_snapshot,
    key_from_dict,
    key_to_dict,
)
from repro.core.spec import BSplineSpec
from repro.runtime.engine import SolveEngine
from repro.runtime.plan_cache import PlanCache, PlanKey
from repro.runtime.resilience.faults import FaultPlan, FaultSpec
from repro.runtime.sharded import WorkerError
from repro.service.protocol import HEADER_SIZE, decode_header

SPEC = BSplineSpec(degree=3, n_points=48)
KEY = PlanKey.from_spec(SPEC)

#: a fast lease clock so loss-detection tests finish in seconds
FAST = ClusterConfig(heartbeat_interval=0.1, lease_timeout=0.5)


def _builder():
    return PlanCache().builder(KEY)


def _reference(block: np.ndarray) -> np.ndarray:
    expect = block.copy()
    _builder().solve(expect, in_place=True)
    return expect


# ---------------------------------------------------------------------------
# wire codecs
# ---------------------------------------------------------------------------


class TestWire:
    def test_shard_roundtrip_is_bitwise(self, rng):
        arr = rng.standard_normal((12, 5))
        frame = encode_shard(7, KEY, arr, 3, 8)
        ftype, _, length = decode_header(frame[:HEADER_SIZE])
        assert ftype == ClusterFrame.SHARD
        assert length == len(frame) - HEADER_SIZE
        task, key, back, col0, col1 = decode_shard(frame[HEADER_SIZE:])
        assert task == 7 and (col0, col1) == (3, 8)
        assert key == KEY
        np.testing.assert_array_equal(back, arr)
        assert back.dtype == arr.dtype

    def test_shard_ok_roundtrip_preserves_dtype(self, rng):
        arr = rng.standard_normal((6, 4)).astype(np.float32)
        payload = encode_shard_ok(9, arr)[HEADER_SIZE:]
        task, back = decode_shard_ok(payload)
        assert task == 9
        np.testing.assert_array_equal(back, arr)
        assert back.dtype == np.float32

    def test_shard_err_ships_type_and_message(self):
        payload = encode_shard_err(5, ValueError("boom"))[HEADER_SIZE:]
        task, error, message = decode_shard_err(payload)
        assert task == 5 and error == "ValueError" and message == "boom"

    def test_heartbeat_and_snapshot_roundtrip(self):
        worker, seq = decode_heartbeat(encode_heartbeat(3, 41)[HEADER_SIZE:])
        assert (worker, seq) == (3, 41)
        snap = {"counters": {"x": 1}, "series": {}}
        req, back = decode_snapshot(encode_snapshot(-1, snap)[HEADER_SIZE:])
        assert req == -1 and back["counters"] == {"x": 1}

    def test_frame_types_do_not_collide_with_service(self):
        # The service protocol owns codes 1..8; cluster frames start at 32.
        assert min(int(f) for f in ClusterFrame) >= 32

    def test_key_dict_roundtrip(self):
        key = PlanKey.from_spec(BSplineSpec(degree=3, n_points=32))
        assert key_from_dict(key_to_dict(key)) == key


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


class TestConfig:
    def test_lease_must_exceed_heartbeat(self):
        with pytest.raises(ValueError):
            ClusterConfig(heartbeat_interval=1.0, lease_timeout=0.5)

    def test_elastic_bounds_validation(self):
        with pytest.raises(ValueError):
            ElasticPolicy(min_workers=4, max_workers=2)
        with pytest.raises(ValueError):
            ElasticPolicy(high_backlog=0.1, low_backlog=0.5)

    def test_executor_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            ClusterExecutor(num_workers=0)
        with pytest.raises(ValueError):
            ClusterExecutor(num_workers=1, restart_budget=-1)


# ---------------------------------------------------------------------------
# coordinator semantics (no worker processes needed)
# ---------------------------------------------------------------------------


class TestCoordinator:
    def test_submit_timeout_names_lease_states(self):
        coord = Coordinator(ClusterConfig(), live_wait_timeout=0.2)
        coord.start()
        try:
            with pytest.raises(WorkerError) as exc_info:
                coord.submit(KEY, np.zeros((2, 2)), 0, 2)
            message = str(exc_info.value)
            assert "live cluster worker" in message
            assert "lease states" in message
        finally:
            coord.stop()

    def test_stop_fails_parked_shards(self):
        coord = Coordinator(ClusterConfig(), live_wait_timeout=0.2)
        coord.start()
        coord.stop()
        with pytest.raises(WorkerError):
            coord.submit(KEY, np.zeros((2, 2)), 0, 2)


# ---------------------------------------------------------------------------
# the live fleet
# ---------------------------------------------------------------------------


class TestClusterExecutor:
    def test_solve_array_bitwise_parity(self, rng):
        block = rng.standard_normal((_builder().n, 10))
        expect = _reference(block)
        with ClusterExecutor(FAST, num_workers=2) as ex:
            ex.solve_array(KEY, block)
            counters = ex.telemetry.snapshot()["counters"]
            snapshots = ex.worker_snapshots()
        np.testing.assert_array_equal(block, expect)
        assert counters["cluster.blocks"] == 1
        assert counters["cluster.shards_submitted"] == 2
        assert counters["cluster.shards_completed"] == 2
        assert len(snapshots) == 2
        assert sum(
            s["counters"].get("worker.shards_solved", 0) for s in snapshots
        ) == 2

    def test_single_column_narrower_than_fleet(self, rng):
        # ranks clamp to the column count; the spare workers stay idle.
        block = rng.standard_normal((_builder().n, 1))
        expect = _reference(block)
        with ClusterExecutor(FAST, num_workers=3) as ex:
            ex.solve_array(KEY, block)
        np.testing.assert_array_equal(block, expect)

    def test_node_kill_mid_flight_reissues_exactly_once(self, rng):
        """One node SIGKILLed mid-solve: its shard re-issues onto a
        survivor, results stay bitwise identical to the single-host
        solve, and no shard is lost or double-applied."""
        faults = FaultPlan(
            [FaultSpec(site="cluster.node_kill", kind="slow", delay=0.6,
                       times=None)]
        )
        block = rng.standard_normal((_builder().n, 9))
        with SolveEngine(executor="threads") as eng:
            expect = eng.map_batches(SPEC, [block.copy()])[0]
        with ClusterExecutor(
            FAST, num_workers=3, faults=faults, restart_budget=2
        ) as ex:
            victim = ex.worker_pids()[0]
            killer = threading.Timer(
                0.3, lambda: os.kill(victim, signal.SIGKILL)
            )
            killer.start()
            try:
                ex.solve_array(KEY, block)
            finally:
                killer.cancel()
            counters = ex.telemetry.snapshot()["counters"]
        np.testing.assert_array_equal(block, expect)
        assert counters["cluster.workers_lost"] >= 1
        assert counters["cluster.shards_reissued"] >= 1
        # Exactly-once: every submitted shard resolved exactly one future.
        assert counters["cluster.shards_completed"] == \
            counters["cluster.shards_submitted"]
        assert counters.get("cluster.shards_failed", 0) == 0

    def test_partition_drops_late_ack(self, rng):
        """A partitioned (alive, heartbeat-mute) node's late answer is
        drained and dropped — the re-issued delivery is the one applied."""
        faults = FaultPlan(
            [
                # Worker ids follow registration order and the executor
                # awaits each registration before spawning the next, so
                # the last worker's lease cannot lapse before the block
                # is submitted, however long a spawn takes.
                FaultSpec(site="cluster.partition", kind="hang", delay=2.5,
                          worker=1, times=None),
                FaultSpec(site="cluster.node_kill", kind="slow", delay=1.0,
                          worker=1, times=None),
            ]
        )
        cfg = ClusterConfig(heartbeat_interval=0.1, lease_timeout=0.45)
        block = rng.standard_normal((_builder().n, 10))
        expect = _reference(block)
        with ClusterExecutor(
            cfg, num_workers=2, faults=faults, restart_budget=0
        ) as ex:
            ex.solve_array(KEY, block)
            np.testing.assert_array_equal(block, expect)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                counters = ex.telemetry.snapshot()["counters"]
                if counters.get("cluster.late_acks_dropped", 0) >= 1:
                    break
                time.sleep(0.1)
        assert counters["cluster.late_acks_dropped"] == 1
        assert counters["cluster.workers_lost"] == 1
        assert counters["cluster.shards_reissued"] == 1
        assert counters["cluster.shards_completed"] == \
            counters["cluster.shards_submitted"] == 2

    def test_scale_up_and_graceful_scale_down(self, rng):
        with ClusterExecutor(FAST, num_workers=1) as ex:
            assert ex.live_count() == 1
            assert ex.scale_up(tag="test")
            assert ex.live_count() == 2
            assert ex.scale_down()
            deadline = time.monotonic() + 5.0
            while ex.live_count() > 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert ex.live_count() == 1
            # Retirement is graceful: not a loss.
            counters = ex.telemetry.snapshot()["counters"]
            assert counters.get("cluster.workers_lost", 0) == 0
            # The fleet still solves after shrinking.
            block = rng.standard_normal((_builder().n, 4))
            expect = _reference(block)
            ex.solve_array(KEY, block)
            np.testing.assert_array_equal(block, expect)

    def test_worker_cli_registers_and_solves(self, rng):
        """A hand-started ``python -m repro.cluster.worker`` node joins
        the fleet exactly like an owned loopback worker."""
        coord = Coordinator(ClusterConfig(), live_wait_timeout=10.0)
        coord.start()
        host, port = coord.address
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cluster.worker",
                "--host", host, "--port", str(port), "--tag", "cli",
            ],
            env={**os.environ,
                 "PYTHONPATH": os.pathsep.join(
                     filter(None, [os.environ.get("PYTHONPATH"), "src"])
                 )},
        )
        try:
            assert coord.await_workers(1, timeout=15.0)
            payload = np.ascontiguousarray(
                rng.standard_normal((_builder().n, 3))
            )
            expect = _reference(payload)
            solved = coord.submit(KEY, payload, 0, 3).result(timeout=15.0)
            np.testing.assert_array_equal(solved, expect)
            coord.stop()
            assert proc.wait(timeout=10.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=5.0)


# ---------------------------------------------------------------------------
# elasticity
# ---------------------------------------------------------------------------


class _StubFleet:
    """Records scaling calls; lets the controller be tested clocklessly."""

    def __init__(self, live=1, backlog=0.0):
        self.live = live
        self._backlog = backlog
        self.calls = []

    def backlog(self):
        return self._backlog

    def live_count(self):
        return self.live

    def scale_up(self, tag="elastic"):
        self.calls.append("up")
        self.live += 1
        return True

    def scale_down(self):
        self.calls.append("down")
        self.live -= 1
        return True


class TestElastic:
    POLICY = ElasticPolicy(min_workers=1, max_workers=3,
                           high_backlog=2.0, low_backlog=0.25, cooldown=10.0)

    def test_scales_up_on_high_backlog(self):
        fleet = _StubFleet(live=1, backlog=5.0)
        ctl = ElasticController(fleet, self.POLICY)
        assert ctl.tick(now=100.0) == "up"
        assert fleet.calls == ["up"]

    def test_scales_down_on_low_backlog(self):
        fleet = _StubFleet(live=2, backlog=0.0)
        ctl = ElasticController(fleet, self.POLICY)
        assert ctl.tick(now=100.0) == "down"
        assert fleet.calls == ["down"]

    def test_respects_bounds(self):
        ctl = ElasticController(_StubFleet(live=3, backlog=9.0), self.POLICY)
        assert ctl.tick(now=100.0) is None  # at max_workers
        ctl = ElasticController(_StubFleet(live=1, backlog=0.0), self.POLICY)
        assert ctl.tick(now=100.0) is None  # at min_workers

    def test_cooldown_spaces_actions(self):
        fleet = _StubFleet(live=1, backlog=9.0)
        ctl = ElasticController(fleet, self.POLICY)
        assert ctl.tick(now=100.0) == "up"
        assert ctl.tick(now=105.0) is None  # inside the 10s cooldown
        assert ctl.tick(now=111.0) == "up"
        assert fleet.calls == ["up", "up"]

    def test_dead_zone_holds_steady(self):
        fleet = _StubFleet(live=2, backlog=1.0)  # between low and high
        ctl = ElasticController(fleet, self.POLICY)
        assert ctl.tick(now=100.0) is None
        assert fleet.calls == []


# ---------------------------------------------------------------------------
# engine integration
# ---------------------------------------------------------------------------


class TestEngineIntegration:
    def test_cluster_executor_matches_threads(self, rng):
        blocks = [rng.standard_normal((48, 12)) for _ in range(3)]
        with SolveEngine(executor="threads") as eng:
            expect = eng.map_batches(SPEC, [b.copy() for b in blocks])
        with SolveEngine(
            executor="cluster", num_workers=2, cluster=FAST
        ) as eng:
            got = eng.map_batches(SPEC, [b.copy() for b in blocks])
            assert eng.degradation_level == "cluster"
            snap = eng.telemetry_snapshot()
        for a, b in zip(expect, got):
            np.testing.assert_array_equal(a, b)
        counters = snap["counters"]
        assert counters["cluster.blocks"] >= 1
        # No shared memory across hosts — and no fallback noise either.
        assert counters.get("engine.shm_fallbacks", 0) == 0

    def test_shutdown_stops_the_accept_thread(self):
        def accept_threads():
            return {
                t for t in threading.enumerate()
                if t.name == "repro-cluster-accept"
            }

        before = accept_threads()
        SolveEngine(executor="cluster", num_workers=1).shutdown()
        assert accept_threads() - before == set()

    def test_exhausted_fleet_degrades_to_threads(self, rng):
        plan = FaultPlan(
            [FaultSpec(site="cluster.node_kill", kind="crash", times=None)]
        )
        # A generous shard-attempt budget keeps futures parked (not
        # attempt-failed) until the executor declares exhaustion, so the
        # engine always observes ``exhausted`` when the error surfaces.
        cfg = ClusterConfig(
            heartbeat_interval=0.1, lease_timeout=0.5, shard_attempts=10
        )
        blocks = [rng.standard_normal((48, 6))]
        with SolveEngine(executor="threads") as eng:
            expect = eng.map_batches(SPEC, [b.copy() for b in blocks])
        with SolveEngine(
            executor="cluster", num_workers=2, cluster=cfg,
            faults=plan, restart_budget=0, live_wait_timeout=5.0,
        ) as eng:
            got = eng.map_batches(SPEC, [b.copy() for b in blocks])
            assert eng.degradation_level == "threads"
            snap = eng.telemetry_snapshot()
        np.testing.assert_array_equal(expect[0], got[0])
        counters = snap["counters"]
        assert counters["engine.degraded_to_threads"] == 1
        assert counters["cluster.exhausted"] >= 1
        assert snap["degradation"]["pool_exhausted"] is True
