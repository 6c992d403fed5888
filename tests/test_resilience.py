"""Chaos suite for :mod:`repro.runtime.resilience`.

Every recovery path the runtime claims is exercised here with injected
failures: deterministic :class:`FaultPlan` triggers, worker crashes and
hangs with respawn (bitwise parity against the undisturbed run), the
per-plan circuit breaker lifecycle, the local solve of a batch whose
shared-memory lease failed, the processes → threads → serial degradation
ladder, and the shm leak guards for abnormal owner exits.
"""

from __future__ import annotations

import json
import os
import pickle
import random
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import BSplineSpec, SplineBuilder
from repro.exceptions import (
    ReproError,
    SingularMatrixError,
    VerificationError,
)
from repro.runtime import (
    CircuitOpenError,
    DurableStoreError,
    EngineConfig,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    PlanBreaker,
    PlanKey,
    ShardedExecutor,
    SolveEngine,
    Telemetry,
    WorkerError,
    merge_snapshots,
)
from repro.runtime.resilience.faults import ENV_VAR, HOOK_SITES
from repro.runtime.sharded import _backoff_delay
from repro.runtime.shm import ShmError
from repro.runtime.telemetry import DEFAULT_MAX_EVENTS

SPEC = BSplineSpec(degree=3, n_points=32)
N = 32  # basis size of SPEC


def _rhs(cols: int, seed: int = 0) -> np.ndarray:
    return np.asarray(
        np.random.default_rng(seed).normal(size=(N, cols)), order="C"
    )


# ---------------------------------------------------------------------------
# FaultPlan unit behaviour
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(site="nope.nope")
        with pytest.raises(ValueError):
            FaultSpec(site="engine.rhs", kind="explode")
        with pytest.raises(ValueError):
            FaultSpec(site="engine.rhs", error="weird")
        with pytest.raises(ValueError):
            FaultSpec(site="engine.rhs", after=-1)
        with pytest.raises(ValueError):
            FaultSpec(site="engine.rhs", times=0)
        with pytest.raises(ValueError):
            FaultSpec(site="engine.rhs", probability=1.5)

    def test_json_roundtrip_and_env(self, monkeypatch):
        plan = FaultPlan(
            [
                FaultSpec(site="engine.rhs", kind="corrupt", after=2),
                FaultSpec(
                    site="sharded.worker_solve", kind="crash", worker=1, times=3
                ),
            ],
            seed=99,
        )
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.seed == 99
        assert clone.specs == plan.specs
        monkeypatch.setenv(ENV_VAR, plan.to_json())
        env_plan = FaultPlan.from_env()
        assert env_plan is not None and env_plan.specs == plan.specs
        monkeypatch.setenv(ENV_VAR, "")
        assert FaultPlan.from_env() is None

    def test_after_and_times_gate_firings(self):
        plan = FaultPlan(
            [FaultSpec(site="engine.batch_solve", after=2, times=2)]
        )
        outcomes = []
        for _ in range(6):
            try:
                plan.fire("engine.batch_solve")
                outcomes.append("ok")
            except FaultInjected:
                outcomes.append("raise")
        assert outcomes == ["ok", "ok", "raise", "raise", "ok", "ok"]
        assert plan.visits("engine.batch_solve") == 6
        assert plan.fired("engine.batch_solve") == 2

    def test_probability_stream_is_seeded(self):
        def trace(seed: int) -> list:
            plan = FaultPlan(
                [
                    FaultSpec(
                        site="engine.verify",
                        probability=0.5,
                        times=None,
                    )
                ],
                seed=seed,
            )
            out = []
            for _ in range(50):
                try:
                    plan.fire("engine.verify")
                    out.append(0)
                except FaultInjected:
                    out.append(1)
            return out

        assert trace(7) == trace(7)  # same seed replays exactly
        assert trace(7) != trace(8)  # different seed, different chaos
        assert sum(trace(7)) > 0  # ...and it does fire sometimes

    def test_worker_filter(self):
        plan = FaultPlan(
            [FaultSpec(site="sharded.worker_solve", worker=1, times=None)]
        )
        plan.fire("sharded.worker_solve", worker=0)  # no match, no raise
        with pytest.raises(FaultInjected):
            plan.fire("sharded.worker_solve", worker=1)

    def test_corrupt_poisons_array(self):
        plan = FaultPlan([FaultSpec(site="engine.rhs", kind="corrupt")])
        block = _rhs(4)
        plan.fire("engine.rhs", array=block)
        assert np.isnan(block.reshape(-1)[0])
        assert np.isinf(block.reshape(-1)[-1])
        # times=1 by default: the next batch is untouched
        clean = _rhs(4, seed=1)
        plan.fire("engine.rhs", array=clean)
        assert np.all(np.isfinite(clean))

    def test_error_flavors(self):
        expectations = {
            "fault": FaultInjected,
            "runtime": RuntimeError,
            "memory": MemoryError,
            "worker": WorkerError,
            "shm": ShmError,
            "verification": VerificationError,
            "factorization": SingularMatrixError,
            "durable": DurableStoreError,
        }
        for flavor, exc_type in expectations.items():
            plan = FaultPlan(
                [FaultSpec(site="engine.batch_solve", error=flavor)]
            )
            with pytest.raises(exc_type):
                plan.fire("engine.batch_solve")

    def test_every_documented_site_is_wired(self):
        # HOOK_SITES is the contract; a site documented but never fired
        # (or fired but undocumented) is a doc bug.  The wiring itself is
        # exercised throughout this module; here we pin the catalog.
        assert set(HOOK_SITES) == {
            "plan_cache.factorize",
            "shm.acquire",
            "engine.dispatch",
            "engine.rhs",
            "engine.batch_solve",
            "engine.verify",
            "sharded.dispatch",
            "sharded.worker_solve",
            "durable.store_write",
            "durable.store_read",
            "campaign.chunk",
        }


# ---------------------------------------------------------------------------
# PlanBreaker unit behaviour (fake clock: no sleeping)
# ---------------------------------------------------------------------------


class TestPlanBreaker:
    def _breaker(self, **kw):
        now = [0.0]
        breaker = PlanBreaker(clock=lambda: now[0], **kw)
        return breaker, now

    def test_lifecycle_closed_open_half_open_closed(self):
        telemetry = Telemetry()
        breaker, now = self._breaker(
            failures=2, reset_timeout=10.0, telemetry=telemetry
        )
        key = "plan-a"
        assert breaker.allow(key)
        breaker.record_failure(key, RuntimeError("x"))
        assert breaker.state(key) == "closed"
        breaker.record_failure(key, RuntimeError("y"))
        assert breaker.state(key) == "open"
        assert not breaker.allow(key)  # short-circuit while open
        now[0] = 11.0
        assert breaker.allow(key)  # half-open probe granted
        assert breaker.state(key) == "half_open"
        assert not breaker.allow(key)  # only one probe by default
        breaker.record_success(key)
        assert breaker.state(key) == "closed"
        counters = telemetry.snapshot()["counters"]
        assert counters["circuit.opened"] == 1
        assert counters["circuit.half_open"] == 1
        assert counters["circuit.closed"] == 1
        assert counters["circuit.short_circuits"] >= 2
        transitions = [
            (e["frm"], e["to"]) for e in telemetry.events("circuit")
        ]
        assert transitions == [
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "closed"),
        ]

    def test_probe_failure_reopens(self):
        breaker, now = self._breaker(failures=1, reset_timeout=5.0)
        key = "plan-b"
        breaker.record_failure(key, RuntimeError("x"))
        now[0] = 6.0
        assert breaker.allow(key)  # the probe
        breaker.record_failure(key, RuntimeError("still broken"))
        assert breaker.state(key) == "open"
        assert not breaker.allow(key)  # timer restarted at t=6
        now[0] = 12.0
        assert breaker.allow(key)

    def test_open_error_replicates_last_failure_type(self):
        breaker, _ = self._breaker(failures=1)
        breaker.record_failure("k", VerificationError("eta too large"))
        exc = breaker.open_error("k")
        assert isinstance(exc, VerificationError)
        assert exc.short_circuited is True
        assert "failing fast" in str(exc)
        # no recorded failure -> the generic circuit error
        fallback = breaker.open_error("unknown-key")
        assert isinstance(fallback, CircuitOpenError)

    def test_check_is_non_consuming(self):
        breaker, now = self._breaker(failures=1, reset_timeout=5.0)
        breaker.record_failure("k", RuntimeError("x"))
        with pytest.raises(RuntimeError) as info:
            breaker.check("k")
        assert getattr(info.value, "short_circuited", False)
        now[0] = 6.0
        breaker.check("k")  # expired: no raise, and no probe consumed...
        assert breaker.allow("k")  # ...so the probe is still available

    def test_states_export(self):
        breaker, _ = self._breaker(failures=1)
        breaker.record_failure("k", ValueError("v"))
        states = breaker.states()
        assert states["k"] == {
            "state": "open",
            "failures": 1,
            "last_error": "ValueError",
        }


# ---------------------------------------------------------------------------
# Supervisor policy unit behaviour
# ---------------------------------------------------------------------------


class TestSupervisorPolicy:
    def test_validation(self):
        # Rejected before any worker process starts.
        with pytest.raises(ValueError):
            ShardedExecutor(num_workers=1, restart_budget=-1)
        with pytest.raises(ValueError):
            ShardedExecutor(num_workers=1, hang_timeout=0.0)
        with pytest.raises(ValueError):
            EngineConfig(restart_budget=-1)
        with pytest.raises(ValueError):
            EngineConfig(hang_timeout=0.0)

    def test_backoff_is_deterministic_and_bounded(self):
        a = [_backoff_delay(k, random.Random(7)) for k in range(8)]
        b = [_backoff_delay(k, random.Random(7)) for k in range(8)]
        assert a == b
        for k, delay in enumerate(a):
            nominal = min(0.05 * 2.0**k, 2.0)
            assert nominal * 0.75 <= delay <= nominal * 1.25
        # exponential growth up to the cap
        nominals = [min(0.05 * 2.0**k, 2.0) for k in range(8)]
        assert nominals[-1] == 2.0 and nominals[0] == 0.05


# ---------------------------------------------------------------------------
# WorkerError context + telemetry event ring
# ---------------------------------------------------------------------------


def test_worker_error_context_survives_pickling():
    exc = WorkerError(
        "shard lost", worker_id=3, key="plan-k", cols=(8, 16), tenant="t1"
    )
    clone = pickle.loads(pickle.dumps(exc))
    assert isinstance(clone, WorkerError)
    assert clone.worker_id == 3
    assert clone.key == "plan-k"
    assert clone.cols == (8, 16)
    assert clone.tenant == "t1"
    rendered = str(clone)
    assert "worker=3" in rendered and "cols=[8, 16)" in rendered


def test_telemetry_event_ring_is_bounded_and_merges():
    t = Telemetry(max_events=4)
    for i in range(6):
        t.event("supervisor", action="respawn", rank=i)
    records = t.events("supervisor")
    assert len(records) == 4
    assert [r["rank"] for r in records] == [2, 3, 4, 5]
    snap = t.snapshot()
    assert [r["rank"] for r in snap["events"]["supervisor"]] == [2, 3, 4, 5]
    other = Telemetry()
    other.event("supervisor", action="death", rank=9)
    merged = merge_snapshots(snap, other.snapshot())
    ranks = [r["rank"] for r in merged["events"]["supervisor"]]
    assert ranks == [2, 3, 4, 5, 9]
    assert len(ranks) <= DEFAULT_MAX_EVENTS


# ---------------------------------------------------------------------------
# Engine integration: breaker, verify faults, quarantine, env activation
# ---------------------------------------------------------------------------


class TestEngineFaults:
    def test_factorization_fault_trips_breaker_at_submit(self):
        plan = FaultPlan(
            [
                FaultSpec(
                    site="plan_cache.factorize",
                    error="factorization",
                    times=None,
                )
            ]
        )
        with SolveEngine(faults=plan, max_batch=8) as engine:
            for _ in range(5):  # PlanBreaker's default trip count
                with pytest.raises(SingularMatrixError):
                    engine.submit(SPEC, _rhs(1)[:, 0])
            # The circuit is open now: the sixth submit fails fast with a
            # replica of the factorization error, before factoring again.
            fired_before = plan.fired("plan_cache.factorize")
            with pytest.raises(SingularMatrixError) as info:
                engine.submit(SPEC, _rhs(1)[:, 0])
            assert getattr(info.value, "short_circuited", False)
            assert plan.fired("plan_cache.factorize") == fired_before
            states = engine.breaker.states()
            assert list(states.values())[0]["state"] == "open"
            counters = engine.telemetry.snapshot()["counters"]
            assert counters["circuit.opened"] == 1
            assert counters["circuit.short_circuits"] >= 1

    def test_forced_verify_failure_recovers_via_retry(self):
        plan = FaultPlan(
            [FaultSpec(site="engine.verify", error="verification")]
        )
        rhs = _rhs(4, seed=5)
        with SolveEngine(max_batch=8, verify_every=1) as baseline:
            expected = baseline.solve(SPEC, rhs)
        with SolveEngine(faults=plan, max_batch=8, verify_every=1) as engine:
            out = engine.solve(SPEC, rhs)
            counters = engine.telemetry.snapshot()["counters"]
        np.testing.assert_array_equal(out, expected)
        assert counters["engine.batch_failures"] == 1
        assert counters["engine.request_retries"] >= 1
        assert counters["engine.requests_completed"] >= 1

    def test_corrupted_rhs_lands_in_quarantine_ledger(self):
        rhs = _rhs(1)[:, 0]
        rhs[N // 2] = np.nan  # fails the batch check and its retry alike
        with SolveEngine(max_batch=4, verify_every=1) as engine:
            fut = engine.submit(SPEC, rhs)
            with pytest.raises(VerificationError):
                fut.result(timeout=30)
            snap = engine.telemetry.snapshot()
        assert snap["counters"]["engine.quarantined"] == 1
        (record,) = snap["events"]["engine.quarantine"]
        assert record["error"] == "VerificationError"
        assert record["cols"] == 1
        assert len(record["fingerprint"]) == 16  # blake2b(digest_size=8) hex

    def test_quarantine_fingerprint_is_stable_per_rhs(self):
        from repro.runtime.engine import _fingerprint

        rhs = _rhs(2, seed=11)
        assert _fingerprint(rhs) == _fingerprint(rhs.copy())
        assert _fingerprint(rhs) != _fingerprint(rhs + 1.0)
        assert _fingerprint(rhs) != _fingerprint(rhs.astype(np.float32))

    def test_env_variable_activates_plan(self, monkeypatch):
        plan = FaultPlan(
            [FaultSpec(site="engine.batch_solve", error="runtime")]
        )
        monkeypatch.setenv(ENV_VAR, plan.to_json())
        rhs = _rhs(3, seed=9)
        with SolveEngine(max_batch=8) as engine:
            assert engine._faults is not None
            out = engine.solve(SPEC, rhs)
            counters = engine.telemetry.snapshot()["counters"]
        monkeypatch.delenv(ENV_VAR)  # the baseline must run fault-free
        with SolveEngine(max_batch=8) as baseline:
            np.testing.assert_array_equal(out, baseline.solve(SPEC, rhs))
        assert counters["engine.batch_failures"] == 1
        assert counters["engine.request_retries"] >= 1

    def test_dispatch_fault_degrades_to_serial(self):
        plan = FaultPlan([FaultSpec(site="engine.dispatch", error="runtime")])
        rhs = _rhs(1, seed=3)[:, 0]
        with SolveEngine(faults=plan, max_batch=1) as engine:
            out = engine.solve(SPEC, rhs)  # survives the dispatch failure
            assert engine.degradation_level == "serial"
            out2 = engine.solve(SPEC, rhs)  # sticky serial still answers
            snap = engine.telemetry.snapshot()
        np.testing.assert_array_equal(out, out2)
        assert snap["counters"]["engine.degraded_to_serial"] == 1
        transitions = [
            (e["frm"], e["to"]) for e in snap["events"]["degradation"]
        ]
        assert ("threads", "serial") in transitions


# ---------------------------------------------------------------------------
# Process-pool chaos: lost shards, respawn, the full ladder
# ---------------------------------------------------------------------------


def _wait_for(condition, timeout: float = 30.0) -> None:
    """Poll *condition* until it holds; fail at the deadline."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.005)


def _shards_issued(telemetry: Telemetry) -> int:
    series = telemetry.snapshot()["series"].get("sharded.shard_cols")
    return 0 if series is None else series["count"]


class TestProcessChaos:
    def test_lost_shard_names_its_worker_and_the_rank_respawns(self):
        # An outside SIGKILL while a slow fault holds worker 0 inside its
        # shard: the shard fails with its full context instead of being
        # delivered again, the rank respawns, and the executor keeps
        # solving bitwise right.
        plan = FaultPlan(
            [
                FaultSpec(
                    site="sharded.worker_solve",
                    kind="slow",
                    worker=0,
                    delay=1.0,
                )
            ]
        )
        telemetry = Telemetry()
        executor = ShardedExecutor(
            num_workers=2, telemetry=telemetry, faults=plan
        )
        try:
            key = PlanKey.from_spec(SPEC)
            rhs = _rhs(8, seed=17)
            expected = key.make_builder().solve(rhs)
            lease = executor.lease(rhs.shape, np.float64)
            try:
                np.copyto(lease.array, rhs)
                errors = []

                def run():
                    try:
                        executor.solve(key, lease)
                    except WorkerError as exc:
                        errors.append(exc)

                caller = threading.Thread(target=run)
                caller.start()
                _wait_for(lambda: _shards_issued(telemetry) >= 2)
                victim = executor._procs[0]
                assert victim.name == "repro-shard-0"
                os.kill(victim.pid, signal.SIGKILL)
                caller.join(timeout=30)
                assert not caller.is_alive()
            finally:
                executor.release(lease)
            (error,) = errors
            assert error.worker_id == 0
            assert error.key == key
            assert error.cols in [(0, 4), (4, 8)]
            assert f"cols=[{error.cols[0]}, {error.cols[1]})" in str(error)
            _wait_for(lambda: telemetry.counter("supervisor.respawns") >= 1)
            actions = [e["action"] for e in telemetry.events("supervisor")]
            assert actions == ["worker_death", "respawn"]
            lease = executor.lease(rhs.shape, np.float64)
            try:
                np.copyto(lease.array, rhs)
                executor.solve(key, lease)
                np.testing.assert_array_equal(lease.array, expected)
            finally:
                executor.release(lease)
            assert telemetry.counter("supervisor.worker_deaths") == 1
        finally:
            executor.shutdown()

    def test_budget_exhaustion_degrades_to_threads(self):
        plan = FaultPlan(
            [
                FaultSpec(site="sharded.worker_solve", kind="crash", worker=0),
                FaultSpec(site="sharded.worker_solve", kind="crash", worker=1),
            ]
        )
        blocks = [_rhs(4, seed=31)]
        expected = [SplineBuilder(SPEC).solve(blocks[0])]
        with SolveEngine(
            executor="processes",
            num_workers=2,
            faults=plan,
            restart_budget=0,
            max_batch=64,
        ) as engine:
            outs = engine.map_batches(SPEC, blocks)
            assert engine.degradation_level == "threads"
            # Later work keeps flowing on the thread rung.
            outs2 = engine.map_batches(SPEC, blocks)
            snap = engine.telemetry_snapshot()
        np.testing.assert_array_equal(outs[0], expected[0])
        np.testing.assert_array_equal(outs2[0], expected[0])
        counters = snap["counters"]
        assert counters["engine.degraded_to_threads"] == 1
        assert counters["supervisor.budget_exhausted"] >= 1
        assert snap["degradation"]["level"] == "threads"
        assert snap["degradation"]["pool_exhausted"] is True

    def test_full_ladder_processes_threads_serial(self):
        plan = FaultPlan(
            [
                FaultSpec(site="sharded.worker_solve", kind="crash", worker=0),
                FaultSpec(site="sharded.worker_solve", kind="crash", worker=1),
                FaultSpec(site="engine.dispatch", error="runtime"),
            ]
        )
        blocks = [_rhs(4, seed=37)]
        expected = [SplineBuilder(SPEC).solve(blocks[0])]
        rhs1 = _rhs(1, seed=41)[:, 0]
        with SolveEngine(
            executor="processes",
            num_workers=2,
            faults=plan,
            restart_budget=0,
            max_batch=1,
        ) as engine:
            assert engine.degradation_level == "processes"
            outs = engine.map_batches(SPEC, blocks)  # rung 1 -> threads
            assert engine.degradation_level == "threads"
            out1 = engine.solve(SPEC, rhs1)  # rung 2 -> serial
            assert engine.degradation_level == "serial"
            out2 = engine.solve(SPEC, rhs1)  # serial still answers
            snap = engine.telemetry_snapshot()
        np.testing.assert_array_equal(outs[0], expected[0])
        np.testing.assert_array_equal(out1, out2)
        transitions = [
            (e["frm"], e["to"]) for e in snap["events"]["degradation"]
        ]
        assert ("processes", "threads") in transitions
        assert ("threads", "serial") in transitions

    def test_parent_side_dispatch_fault_fails_batch_not_pool(self):
        plan = FaultPlan(
            [FaultSpec(site="sharded.dispatch", error="worker")]
        )
        executor = ShardedExecutor(num_workers=2, faults=plan)
        try:
            key = PlanKey.from_spec(SPEC)
            builder = key.make_builder()
            rhs = _rhs(4, seed=53)
            lease = executor.lease(rhs.shape, np.float64)
            try:
                np.copyto(lease.array, rhs)
                with pytest.raises(WorkerError):
                    executor.solve(key, lease)
            finally:
                executor.release(lease)
            assert executor.alive()  # the pool survived the parent fault
            lease = executor.lease(rhs.shape, np.float64)
            try:
                np.copyto(lease.array, rhs)
                executor.solve(key, lease)
                np.testing.assert_array_equal(lease.array, builder.solve(rhs))
            finally:
                executor.release(lease)
        finally:
            executor.shutdown()


#: fault plans for the processes engine: none, one failed shared-memory
#: lease (that batch solves locally), one worker crashing mid-stream, both
#: workers crashing, a hang killed at ``hang_timeout``, an outside SIGKILL
#: while a slow fault holds worker 0's shard, and every worker crashing
#: with no restart budget (the engine degrades to threads).  Worker-side
#: specs count visits per process, so a respawned worker faults again.
_LADDER_FAULTS = {
    "clean": [],
    "shm_acquire": [FaultSpec(site="shm.acquire", error="shm")],
    "crash_one": [
        FaultSpec(site="sharded.worker_solve", kind="crash", worker=0, after=1)
    ],
    "crash_both": [
        FaultSpec(site="sharded.worker_solve", kind="crash", worker=0, after=1),
        FaultSpec(site="sharded.worker_solve", kind="crash", worker=1, after=1),
    ],
    "hang": [
        FaultSpec(site="sharded.worker_solve", kind="hang", worker=0, delay=30.0)
    ],
    "sigkill": [
        FaultSpec(site="sharded.worker_solve", kind="slow", worker=0, delay=1.0)
    ],
    "pool_exhausted": [
        FaultSpec(site="sharded.worker_solve", kind="crash", worker=0),
        FaultSpec(site="sharded.worker_solve", kind="crash", worker=1),
    ],
}
#: the plans under which a worker dies holding a shard
_LOSES_SHARDS = {"crash_one", "crash_both", "hang", "sigkill", "pool_exhausted"}


@pytest.mark.parametrize("entry", ["submit", "map_batches"])
@pytest.mark.parametrize("fault", sorted(_LADDER_FAULTS))
def test_ladder_parity(fault, entry):
    """Under every fault plan the engine answers bitwise like the threads
    engine, drops and quarantines nothing, retries exactly when a shard
    was lost, and degrades only when the pool is exhausted."""
    rhs = _rhs(12, seed=71)
    config = dict(
        num_workers=2,
        max_batch=rhs.shape[1],  # the 12th submit cuts the one batch
        max_linger=60.0,
    )

    def solve_all(engine) -> np.ndarray:
        if entry == "map_batches":
            return engine.map_batches(SPEC, [rhs])[0]
        futures = [engine.submit(SPEC, col) for col in rhs.T]
        return np.stack([f.result(timeout=60) for f in futures], axis=1)

    with SolveEngine(executor="threads", **config) as reference:
        expected = solve_all(reference)
    with SolveEngine(
        executor="processes",
        faults=FaultPlan(_LADDER_FAULTS[fault]),
        restart_budget=0 if fault == "pool_exhausted" else 8,
        hang_timeout=0.5 if fault == "hang" else None,
        **config,
    ) as engine:
        with ThreadPoolExecutor(max_workers=1) as caller:
            first = caller.submit(solve_all, engine)
            if fault == "sigkill":
                _wait_for(lambda: _shards_issued(engine.telemetry) >= 2)
                os.kill(engine._sharded._procs[0].pid, signal.SIGKILL)
            np.testing.assert_array_equal(first.result(timeout=60), expected)
        blocks = engine.telemetry.counter("sharded.blocks")
        np.testing.assert_array_equal(solve_all(engine), expected)
        counters = engine.telemetry.snapshot()["counters"]
        if fault == "pool_exhausted":
            assert engine.degradation_level == "threads"
            assert counters["engine.degraded_to_threads"] == 1
            assert counters["supervisor.budget_exhausted"] == 1
            assert engine.telemetry_snapshot()["degradation"] == {
                "level": "threads",
                "pool_exhausted": True,
            }
        else:
            # the batch after a failed lease or a lost shard rides shared
            # memory again
            assert engine.degradation_level == "processes"
            assert counters["sharded.blocks"] > blocks
            assert counters.get("engine.shm_fallbacks", 0) == (
                1 if fault == "shm_acquire" else 0
            )
    submitted = counters.get("engine.requests_submitted", 0) + counters.get(
        "engine.bulk_blocks_submitted", 0
    )
    assert submitted == counters["engine.requests_completed"]
    assert counters.get("engine.quarantined", 0) == 0
    retried = counters.get("engine.request_retries", 0) > 0
    assert retried == (fault in _LOSES_SHARDS)
    assert (counters.get("supervisor.hangs", 0) > 0) == (fault == "hang")


# ---------------------------------------------------------------------------
# Shared-memory leak guards on abnormal owner exits
# ---------------------------------------------------------------------------

_SHM_CHILD = r"""
import os, sys
sys.path.insert(0, {src!r})
from repro.runtime.shm import SharedBlock
block = SharedBlock(4096)
print(block.name, flush=True)
{exit_stmt}
"""


def _spawn_shm_child(exit_stmt: str) -> subprocess.Popen:
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    code = _SHM_CHILD.format(src=src, exit_stmt=exit_stmt)
    return subprocess.Popen(
        [sys.executable, "-c", code],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )


def _assert_segment_released(name: str, timeout: float = 10.0) -> None:
    path = os.path.join("/dev/shm", name)
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        pytest.skip("/dev/shm not available on this platform")
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not os.path.exists(path):
            return
        time.sleep(0.05)
    raise AssertionError(f"stale shared-memory segment survived: {path}")


def test_shm_atexit_guard_cleans_up_on_sys_exit():
    child = _spawn_shm_child("sys.exit(3)")
    name = child.stdout.readline().strip()
    child.wait(timeout=30)
    assert name.startswith("psm_") or name  # a real segment name came back
    assert child.returncode == 3
    _assert_segment_released(name)


def test_shm_atexit_guard_cleans_up_on_uncaught_exception():
    child = _spawn_shm_child("raise RuntimeError('owner blew up')")
    name = child.stdout.readline().strip()
    child.wait(timeout=30)
    assert child.returncode == 1
    _assert_segment_released(name)


def test_shm_resource_tracker_cleans_up_after_sigkill():
    # SIGKILL skips atexit entirely; the multiprocessing resource tracker
    # (a separate process) notices the owner vanished and unlinks what it
    # leaked.  This is the documented division of labor in repro.runtime.shm.
    child = _spawn_shm_child("os.kill(os.getpid(), 9)")
    name = child.stdout.readline().strip()
    child.wait(timeout=30)
    assert child.returncode == -signal.SIGKILL
    _assert_segment_released(name)


def test_engine_shutdown_leaves_no_segments_behind():
    with SolveEngine(executor="processes", num_workers=2, max_batch=16) as eng:
        out = eng.solve(SPEC, _rhs(4, seed=59))
        assert out.shape == (N, 4)
        names = [b.name for b in eng._sharded._pool._free]
    for name in names:
        assert not os.path.exists(os.path.join("/dev/shm", name))


def test_shutdown_with_pending_respawn_leaves_nothing_behind():
    # A worker killed just before shutdown leaves its respawn pending (in
    # backoff or mid-spawn) when the engine stops; whichever it is, the
    # monitor, every worker process and every segment must be gone after.
    with SolveEngine(executor="processes", num_workers=2, max_batch=16) as eng:
        eng.solve(SPEC, _rhs(4, seed=83))
        pool = eng._sharded
        names = [b.name for b in pool._pool._free]
        os.kill(pool._procs[0].pid, signal.SIGKILL)
        deadline = time.monotonic() + 30.0
        while (
            eng.telemetry.counter("supervisor.worker_deaths") < 1
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        assert eng.telemetry.counter("supervisor.worker_deaths") == 1
    assert not pool._monitor.is_alive()
    assert not any(proc.is_alive() for proc in pool._procs)
    for name in names:
        assert not os.path.exists(os.path.join("/dev/shm", name))


# ---------------------------------------------------------------------------
# Hot-path guarantee: no faults, no overhead machinery engaged
# ---------------------------------------------------------------------------


def test_disabled_faults_leave_hooks_dormant():
    with SolveEngine(max_batch=8) as engine:
        assert engine._faults is None  # no plan, hooks reduce to `is None`
        assert engine.plan_cache.faults is None
        out = engine.solve(SPEC, _rhs(2, seed=61))
        snap = engine.telemetry.snapshot()
    assert out.shape == (N, 2)
    # no resilience counters appear unless something actually happened
    for name in snap["counters"]:
        assert not name.startswith(("supervisor.", "engine.degraded"))
    assert "degradation" not in snap["events"]


def test_inert_plan_changes_nothing_bitwise():
    # A plan whose specs never trigger (after is astronomically large)
    # must not perturb results — the chaos benchmark relies on this for
    # its A/B overhead measurement.
    inert = FaultPlan(
        [FaultSpec(site="engine.batch_solve", after=10**9)], seed=1
    )
    rhs = _rhs(16, seed=67)
    with SolveEngine(max_batch=32) as clean:
        expected = clean.solve(SPEC, rhs)
    with SolveEngine(max_batch=32, faults=inert) as chaotic:
        out = chaotic.solve(SPEC, rhs)
        assert inert.visits("engine.batch_solve") >= 1
        assert inert.fired() == 0
    np.testing.assert_array_equal(out, expected)

# ---------------------------------------------------------------------------
# Durable campaigns under chaos: kill -9-grade crashes mid-campaign, then
# resume from the CampaignState checkpoint + warm-start from the PlanStore.
# ---------------------------------------------------------------------------

_CAMPAIGN_CHILD = r"""
import json, os, sys
sys.path.insert(0, {src!r})
import numpy as np
from repro import BSplineSpec, SplineBuilder
from repro.runtime import EngineConfig, FaultPlan, FaultSpec, SolveEngine
from repro.runtime.durable import MemmapRHS, run_campaign

spec = BSplineSpec(degree=3, n_points=32)
faults = None
if {crash_after!r} is not None:
    faults = FaultPlan(
        [FaultSpec(site="campaign.chunk", kind="crash", after={crash_after!r})]
    )
config = EngineConfig(plan_store_dir={store!r})
with SolveEngine(config=config, faults=faults, max_batch=4096) as engine:
    result = run_campaign(
        engine, spec, MemmapRHS({rhs!r}), {out!r}, chunk_cols=37
    )
    report = {{
        "factorized": engine.telemetry.counter("plan_cache.factorized"),
        "warm_hits": engine.telemetry.counter("durable.store_hits"),
        "resumes": engine.telemetry.counter("campaign.resumes"),
        "skipped": engine.telemetry.counter("campaign.chunks_skipped"),
        "completed": engine.telemetry.counter("campaign.chunks_completed"),
    }}
with open({report!r}, "w") as fh:
    json.dump(report, fh)
"""


def _run_campaign_child(tmp, crash_after=None, timeout=180):
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    code = _CAMPAIGN_CHILD.format(
        src=src,
        crash_after=crash_after,
        store=os.path.join(tmp, "plans"),
        rhs=os.path.join(tmp, "rhs.npy"),
        out=os.path.join(tmp, "out.npy"),
        report=os.path.join(tmp, "report.json"),
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )


class TestCampaignChaos:
    def test_crash_mid_campaign_resumes_bitwise(self, tmp_path):
        # Acceptance scenario: the fault plan os._exit(23)s the process
        # in the middle of a 300-column campaign.  A second process
        # pointed at the same checkpoint + plan store must (a) finish
        # without refactorizing anything and (b) produce output bitwise
        # identical to a never-interrupted run.
        tmp = str(tmp_path)
        spec = BSplineSpec(degree=3, n_points=32)
        rhs = np.asarray(
            np.random.default_rng(77).normal(size=(N, 300)), order="C"
        )
        np.save(os.path.join(tmp, "rhs.npy"), rhs)
        with SolveEngine(max_batch=4096) as baseline:
            expected = baseline.map_batches(spec, [rhs])[0]

        crashed = _run_campaign_child(tmp, crash_after=3)
        assert crashed.returncode == 23, crashed.stderr  # died by fault
        assert not os.path.exists(os.path.join(tmp, "report.json"))
        # the interrupted run left a checkpoint + partial output behind
        assert os.path.exists(os.path.join(tmp, "out.npy.campaign.json"))
        assert len(os.listdir(os.path.join(tmp, "plans"))) == 1

        resumed = _run_campaign_child(tmp, crash_after=None)
        assert resumed.returncode == 0, resumed.stderr
        with open(os.path.join(tmp, "report.json")) as fh:
            report = json.load(fh)
        # warm start: the plan came from the store, zero factorizations
        assert report["factorized"] == 0
        assert report["warm_hits"] == 1
        assert report["resumes"] == 1
        assert report["skipped"] == 3  # exactly the chunks the dead run did
        assert report["skipped"] + report["completed"] == 9  # ceil(300/37)
        np.testing.assert_array_equal(
            np.load(os.path.join(tmp, "out.npy")), expected
        )

    def test_repeated_crashes_still_converge(self, tmp_path):
        # Crash after 1 chunk, then after 2 more, then run to completion:
        # every restart must pick up exactly where the corpse left off.
        tmp = str(tmp_path)
        spec = BSplineSpec(degree=3, n_points=32)
        rhs = np.asarray(
            np.random.default_rng(78).normal(size=(N, 200)), order="C"
        )
        np.save(os.path.join(tmp, "rhs.npy"), rhs)
        with SolveEngine(max_batch=4096) as baseline:
            expected = baseline.map_batches(spec, [rhs])[0]
        for crash_after in (1, 2):
            run = _run_campaign_child(tmp, crash_after=crash_after)
            assert run.returncode == 23, run.stderr
        final = _run_campaign_child(tmp, crash_after=None)
        assert final.returncode == 0, final.stderr
        with open(os.path.join(tmp, "report.json")) as fh:
            report = json.load(fh)
        assert report["factorized"] == 0  # store survived both crashes
        assert report["skipped"] == 3  # 1 from run one + 2 from run two
        np.testing.assert_array_equal(
            np.load(os.path.join(tmp, "out.npy")), expected
        )

    def test_warm_started_sharded_pool_refactorizes_nothing(self, tmp_path):
        # A process-pool engine booted against a populated store: the
        # parent warm-starts from disk and the workers inherit the store
        # directory, so *no* process factorizes anything.
        store = str(tmp_path / "plans")
        config = EngineConfig(plan_store_dir=store)
        rhs = _rhs(64, seed=79)
        with SolveEngine(config=config, max_batch=4096) as seeder:
            expected = seeder.map_batches(SPEC, [rhs])[0]
            assert seeder.telemetry.counter("plan_cache.factorized") == 1
        with SolveEngine(
            config=config,
            executor="processes",
            num_workers=2,
            max_batch=4096,
        ) as engine:
            assert engine.warm_start() == 1
            out = engine.map_batches(SPEC, [rhs])[0]
            merged = engine.telemetry_snapshot()
        np.testing.assert_array_equal(out, expected)
        # merged snapshot covers the parent *and* both workers
        assert merged["counters"].get("plan_cache.factorized", 0) == 0
        assert merged["counters"].get("durable.warm_loaded", 0) == 1
