"""Cluster recovery beyond respawn: speculation and rejoin, then a soak.

Two recovery layers ride on the in-process coordinator's bookkeeping,
each tested on its own and then together:

* **speculative execution** — a shard stuck on a straggler is
  duplicated onto an idle worker; first ack wins, the loser is dropped
  as stale;
* **worker rejoin** — a healed partition re-registers under a fresh
  worker id within a grace window instead of burning restart budget.

The combined soak at the end layers them over a node kill in one
seeded chaos campaign and asserts bitwise identity against the
single-host reference — the paper's reproducibility bar, held through
recovery.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ClusterExecutor
from repro.core.spec import BSplineSpec
from repro.runtime.plan_cache import PlanCache, PlanKey
from repro.runtime.resilience.faults import FaultPlan, FaultSpec
from repro.runtime.telemetry import Telemetry

SPEC = BSplineSpec(degree=3, n_points=48)
KEY = PlanKey.from_spec(SPEC)

#: a fast lease clock so partition tests finish in seconds
FAST = dict(heartbeat_interval=0.1, lease_timeout=0.5)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def _reference(block: np.ndarray) -> np.ndarray:
    expect = block.copy()
    PlanCache().builder(KEY).solve(expect, in_place=True)
    return expect


def _wait_counter(telemetry, name, minimum=1, timeout=10.0) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = telemetry.counter(name)
        if value >= minimum:
            return value
    return telemetry.counter(name)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


class TestFailoverConfig:
    def test_speculation_knobs_validated(self):
        with pytest.raises(ValueError, match="speculative_age"):
            ClusterConfig(speculative_age=0.0)
        with pytest.raises(ValueError, match="rejoin_grace"):
            ClusterConfig(rejoin_grace=0.0)


# ---------------------------------------------------------------------------
# speculative execution
# ---------------------------------------------------------------------------


class TestSpeculation:
    def test_speculative_copy_beats_straggler_bitwise(self, rng):
        block = rng.standard_normal((48, 8))
        expect = _reference(block)
        # worker 0 stalls its first shard for 1.5s; a speculative copy
        # lands on worker 1 after ~0.3s and wins the race
        faults = FaultPlan(
            specs=[
                FaultSpec(
                    site="cluster.shard_slow", kind="slow", delay=1.5,
                    worker=0, times=1,
                )
            ],
            seed=5,
        )
        telemetry = Telemetry()
        config = ClusterConfig(
            heartbeat_interval=0.1,
            lease_timeout=5.0,  # the lease must NOT fire; speculation must
            speculative_age=0.3,
        )
        executor = ClusterExecutor(
            config=config, num_workers=2, telemetry=telemetry, faults=faults
        )
        try:
            got = block.copy()
            start = time.monotonic()
            executor.solve_array(KEY, got)
            elapsed = time.monotonic() - start
            assert got.tobytes() == expect.tobytes()
            counters = telemetry.snapshot()["counters"]
            assert counters.get("cluster.speculative_issued", 0) >= 1
            assert counters.get("cluster.speculative_wins", 0) >= 1
            assert elapsed < 1.4, (
                f"speculation should beat the 1.5s straggler, took "
                f"{elapsed:.2f}s"
            )
        finally:
            executor.shutdown()

    def test_speculation_off_by_default(self, rng):
        config = ClusterConfig(**FAST)
        assert config.speculative_age is None
        telemetry = Telemetry()
        executor = ClusterExecutor(
            config=config, num_workers=2, telemetry=telemetry
        )
        try:
            block = rng.standard_normal((48, 6))
            expect = _reference(block)
            got = block.copy()
            executor.solve_array(KEY, got)
            assert got.tobytes() == expect.tobytes()
            counters = telemetry.snapshot()["counters"]
            assert counters.get("cluster.speculative_issued", 0) == 0
        finally:
            executor.shutdown()


# ---------------------------------------------------------------------------
# worker rejoin after a healed partition
# ---------------------------------------------------------------------------


class TestWorkerRejoin:
    def test_partitioned_worker_rejoins_without_respawn(self, rng):
        block = rng.standard_normal((48, 8))
        expect = _reference(block)
        # worker 0's heartbeats hang once for 1.2s: the lease (0.5s)
        # lapses while the process stays alive — a healed partition.
        faults = FaultPlan(
            specs=[
                FaultSpec(
                    site="cluster.partition", kind="hang", delay=1.2,
                    worker=0, times=1,
                )
            ],
            seed=5,
        )
        telemetry = Telemetry()
        executor = ClusterExecutor(
            config=ClusterConfig(**FAST),
            num_workers=2,
            telemetry=telemetry,
            faults=faults,
            restart_budget=0,  # a respawn would exhaust: rejoin must not
        )
        try:
            got = block.copy()
            executor.solve_array(KEY, got)
            assert got.tobytes() == expect.tobytes()
            assert _wait_counter(telemetry, "cluster.workers_rejoined") >= 1
            counters = telemetry.snapshot()["counters"]
            assert counters.get("cluster.workers_respawned", 0) == 0
            assert counters.get("cluster.exhausted", 0) == 0
            # the healed node is a full member again
            deadline = time.monotonic() + 10.0
            while executor.live_count() < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert executor.live_count() == 2
            got2 = block.copy()
            executor.solve_array(KEY, got2)
            assert got2.tobytes() == expect.tobytes()
            assert not executor.exhausted
        finally:
            executor.shutdown()


# ---------------------------------------------------------------------------
# the combined-failure soak
# ---------------------------------------------------------------------------


class TestCombinedFailureSoak:
    def test_chaos_campaign_bitwise_vs_reference(self, rng):
        """Node kill + partition + stragglers, one seeded campaign:
        submitted == completed, no double-applies, and the result is
        bitwise the single-host reference."""
        blocks = [rng.standard_normal((48, 9)) for _ in range(8)]
        expects = [_reference(b) for b in blocks]
        faults = FaultPlan(
            specs=[
                # one worker crashes outright mid-shard
                FaultSpec(
                    site="cluster.node_kill", kind="crash",
                    worker=1, after=1, times=1,
                ),
                # the last to register partitions once and heals
                FaultSpec(
                    site="cluster.partition", kind="hang", delay=1.2,
                    worker=2, times=1,
                ),
                # and stragglers for the speculative path
                FaultSpec(
                    site="cluster.shard_slow", kind="slow", delay=0.8,
                    worker=0, times=2,
                ),
            ],
            seed=42,
        )
        telemetry = Telemetry()
        config = ClusterConfig(**FAST, speculative_age=0.3)
        executor = ClusterExecutor(
            config=config,
            num_workers=3,
            telemetry=telemetry,
            faults=faults,
            restart_budget=8,
        )
        try:
            for index, (block, expect) in enumerate(zip(blocks, expects)):
                got = block.copy()
                executor.solve_array(KEY, got)
                assert got.tobytes() == expect.tobytes(), (
                    f"block {index} diverged from the single-host reference"
                )
            counters = telemetry.snapshot()["counters"]
            # exactly-once, telemetry-asserted: every submitted shard
            # resolved exactly once, duplicates (speculative copies and
            # late acks) were dropped, none failed through to the engine
            assert counters["cluster.shards_submitted"] == counters[
                "cluster.shards_completed"
            ]
            assert counters.get("cluster.shards_failed", 0) == 0
            # both the node kill and the partition fired
            assert counters["cluster.workers_lost"] >= 2
        finally:
            executor.shutdown()
