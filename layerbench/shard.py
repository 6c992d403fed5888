"""``shard``: the ``build`` blocks through the process-sharded engine.

``SolveEngine(executor="processes", num_workers=2).map_batches`` solves
one block per call, cycling through the three Table I classes.  The only
difference from ``build`` is the shared-memory transport, worker dispatch
and gather (``runtime.sharded``, ``runtime.shm``), so processes-mode
throughput shows whether a change to the sharding path regresses.

Every answer must equal, bitwise on a seeded sample of its columns, a
direct ``SplineBuilder.solve`` of those columns (the executor-parity
invariant: the batched kernels treat columns independently); the sample
references and a rotating sample of every answer are checked against
scipy.
"""

from __future__ import annotations

import contextlib
import gc
import multiprocessing as mp
import time

import numpy as np

import build
from common import Outcome, peak_rss_mb, percentile_ms, resident_kib
from repro import SplineBuilder
from repro.runtime.engine import EngineConfig, SolveEngine

PROCESSES = EngineConfig(executor="processes", num_workers=2)
THREADS = EngineConfig(executor="threads", num_workers=2)
#: cold set-ups per run: each starts two worker processes
SETUP_REPEATS = 5
WARMUP_ROUNDS = 1
#: columns per block compared bitwise with a direct solve
PARITY_COLS = 256


class Blocks:
    """The ``build`` inputs plus direct references for a column sample."""

    def __init__(self, seed: int) -> None:
        self.inputs = build.make_inputs(seed)
        rng = np.random.default_rng([seed, 1])
        self.sample = np.sort(rng.choice(build.COLS, PARITY_COLS, replace=False))
        self.refs = {}
        for cls, spec in build.SPECS.items():
            f, check = self.inputs[cls]
            ref = SplineBuilder(spec).solve(f[:, self.sample])
            if not check.worst(ref, f[:, self.sample]) <= 1.0:
                raise RuntimeError(f"direct solve of {spec} fails the interpolation check")
            self.refs[cls] = ref

    def solve_and_check(self, engine, cls: str, outcome: Outcome, op: int,
                        tracer=None, span=None) -> float:
        """One ``map_batches`` call on *cls*'s block; returns its seconds."""
        f = self.inputs[cls][0]
        t0 = time.perf_counter()
        out = engine.map_batches(build.SPECS[cls], [f])[0]
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.add(span, t0, t1, op=op)
        outcome.attempted += 1
        if not np.array_equal(out[:, self.sample], self.refs[cls]):
            outcome.fail(1, f"{cls} op {op}: differs from the direct solve")
        else:
            build.check_block(outcome, cls, out, self.inputs, op)
        return t1 - t0


def first_blocks(engine, blocks: Blocks, outcome: Outcome) -> None:
    for cls in build.SPECS:
        blocks.solve_and_check(engine, cls, outcome, -1)


def run(seconds: float, seed: int) -> Outcome:
    blocks = Blocks(seed)
    outcome = Outcome()
    times = []
    with contextlib.ExitStack() as outer:
        for repeat in range(SETUP_REPEATS):
            stack = outer.enter_context(contextlib.ExitStack())
            gc.collect()
            t0 = time.perf_counter()
            engine = stack.enter_context(SolveEngine(PROCESSES))
            workers = {p.pid: resident_kib(p.pid) for p in mp.active_children()}
            first_blocks(engine, blocks, outcome)
            times.append(time.perf_counter() - t0)
            if repeat + 1 < SETUP_REPEATS:
                stack.close()
        for _ in range(WARMUP_ROUNDS):
            first_blocks(engine, blocks, outcome)
        op_times, round_times = [], []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            times_round = [
                blocks.solve_and_check(engine, cls, outcome, len(op_times) + k)
                for k, cls in enumerate(build.SPECS)
            ]
            op_times += times_round
            round_times.append(sum(times_round))
        rss = peak_rss_mb(workers)
    outcome.metrics = {
        "setup_s": (float(np.median(times)), "s"),
        "cols_per_s": (len(build.SPECS) * build.COLS / float(np.median(round_times)), "columns/s"),
        "latency_p50_ms": (percentile_ms(op_times, 50), "ms"),
        "latency_p90_ms": (percentile_ms(op_times, 90), "ms"),
        "peak_rss_mb": (rss, "MiB"),
    }
    return outcome


def _shard_seconds(snapshot: dict):
    """``(count, total seconds)`` of the workers' ``worker.shard_solve`` spans."""
    series = snapshot["series"].get("worker.shard_solve.seconds")
    if series is None:
        return 0, 0.0
    return series["count"], series["mean"] * series["count"]


def trace(seconds: float, seed: int, tracer) -> Outcome:
    blocks = Blocks(seed)
    outcome = Outcome()
    metrics = {}
    with SolveEngine(PROCESSES) as engine:
        first_blocks(engine, blocks, outcome)
        calls, shards, overheads, round_times = [], [], [], []
        deadline = time.perf_counter() + 0.5 * seconds
        while time.perf_counter() < deadline or not round_times:
            round_time = 0.0
            for cls in build.SPECS:
                op = len(calls)
                count0, total0 = _shard_seconds(engine.telemetry_snapshot())
                call = blocks.solve_and_check(
                    engine, cls, outcome, op, tracer, "sharded.solve_ms"
                )
                count1, total1 = _shard_seconds(engine.telemetry_snapshot())
                # shards of one call run side by side, so one shard's mean
                # time is the kernel part of the call's critical path
                shard = (total1 - total0) / (count1 - count0)
                calls.append(call)
                shards.append(shard)
                overheads.append(call - shard)
                round_time += call
            round_times.append(round_time)
        snapshot = engine.telemetry_snapshot()
    metrics["sharded.solve_ms"] = (tracer.median_ms("sharded.solve_ms"), "ms")
    metrics["worker.shard_solve_ms"] = (float(np.median(shards)) * 1e3, "ms")
    metrics["sharded.overhead_ms"] = (float(np.median(overheads)) * 1e3, "ms")
    metrics["plan_cache.factorizations.shard"] = (snapshot["counters"]["plan_cache.factorized"], "count")
    outcome.traced = {
        "cols_per_s": len(build.SPECS) * build.COLS / float(np.median(round_times)),
        "latency_p50_ms": percentile_ms(calls, 50),
    }
    with SolveEngine(THREADS) as engine:
        first_blocks(engine, blocks, outcome)
        deadline = time.perf_counter() + 0.5 * seconds
        op = 0
        while time.perf_counter() < deadline or op == 0:
            for cls in build.SPECS:
                blocks.solve_and_check(engine, cls, outcome, op, tracer, "threads.solve_ms")
                op += 1
    metrics["threads.solve_ms"] = (tracer.median_ms("threads.solve_ms"), "ms")
    for name in ("worker.shard_solve_ms", "sharded.overhead_ms", "plan_cache.factorizations.shard"):
        tracer.counter(name, metrics[name][0])
    outcome.metrics = metrics
    return outcome
