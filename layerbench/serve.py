"""``serve``: a closed loop of narrow requests through the solve service.

One ``ServiceClient`` connection keeps ``WINDOW`` requests outstanding:
1–16 columns each, from ``TENANTS`` tenants, over the three Table I
banded classes at n = ``N``.  They go to an in-process ``ServiceThread``
over a ``SolveEngine`` (threads executor, 2 workers, sampled
verification on).  Client hedging is off, so each request is solved
once, and tenant quotas sit far above what the loop can reach.  Framing,
admission, fair-share queueing, dispatch, coalescing, verification and
scatter dominate while the kernels solve small coalesced batches.  The
loop is closed because a simulation rank waits for its coefficients
before its next step.

n = 256 rather than the paper's 1000: at n ≳ 600 the engine's sampled
verification rejects correct Schur solves (see the README), so a
verifying service at n = 1000 fails requests depending on their inputs.

Every answer must equal, bitwise, a direct ``SplineBuilder.solve`` of the
same columns; those references are themselves checked to interpolate
their inputs with scipy.
"""

from __future__ import annotations

import contextlib
import gc
import queue
import time

import numpy as np

from common import InterpolationCheck, Outcome, percentile_ms, smooth_block
from repro import BSplineSpec, SplineBuilder
from repro.runtime.engine import EngineConfig, SolveEngine
from repro.service import (
    AdmissionController,
    ServiceClient,
    ServiceConfig,
    ServiceThread,
    TenantQuota,
)
from repro.service.protocol import (
    HEADER_SIZE,
    Request,
    decode_request,
    decode_result,
    encode_request,
    encode_result,
)

N = 256
SPECS = [
    BSplineSpec(degree=3, n_points=N),
    BSplineSpec(degree=5, n_points=N),
    BSplineSpec(degree=3, n_points=N, uniform=False),
]
TENANTS = 3
MAX_COLS = 16
#: requests in one round of the stream; runs send whole rounds
ROUND = 48
WINDOW = 16
SETUP_REPEATS = 7
WARMUP_ROUNDS = 2
ENGINE = EngineConfig(executor="threads", num_workers=2, verify_every=4)
#: columns per second and burst per tenant: far above the loop's reach
QUOTA = TenantQuota(rate=1e12, burst=1e12)
#: seconds one answer may take before the loop gives up on the run
ANSWER_TIMEOUT = 60.0


class Stream:
    """One seeded round of requests and their checked direct references."""

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        # The seed orders a fixed mix: every round holds the same number of
        # requests per key, per tenant and per width, so every seed asks
        # for the same columns per round.
        keys = rng.permutation(np.arange(ROUND) % len(SPECS))
        tenants = rng.permutation(np.arange(ROUND) % TENANTS)
        widths = rng.permutation(np.arange(ROUND) % MAX_COLS + 1)
        builders = [SplineBuilder(spec) for spec in SPECS]
        spaces = [b.space_1d for b in builders]
        points = [b.interpolation_points() for b in builders]
        checks = [InterpolationCheck(s.knots, s.degree, x) for s, x in zip(spaces, points)]
        self.requests = []
        self.refs = []
        for key, tenant, width in zip(keys, tenants, widths):
            rhs = smooth_block(rng, points[key], int(width), spaces[key].period)
            ref = builders[key].solve(rhs)
            if not checks[key].worst(ref, rhs) <= 1.0:
                raise RuntimeError(f"direct solve of {SPECS[key]} fails the interpolation check")
            self.requests.append((SPECS[key], f"tenant-{tenant}", rhs))
            self.refs.append(ref)
        self.first_per_key = [int(np.flatnonzero(keys == k)[0]) for k in range(len(SPECS))]
        self.cols = [rhs.shape[1] for _, _, rhs in self.requests]


class ClosedLoop:
    """Keep ``WINDOW`` requests outstanding through *submit*; stop sending
    at a round boundary once *seconds* have passed (or after *rounds*)."""

    def __init__(self, submit, stream: Stream, outcome: Outcome) -> None:
        self.submit = submit
        self.stream = stream
        self.outcome = outcome

    def run(self, seconds=None, rounds=None, tracer=None, span=None):
        done = queue.SimpleQueue()
        latencies, ends, answered = [], [], []
        sent = outstanding = 0
        start = time.perf_counter()
        deadline = start + (seconds or 0.0)

        def more() -> bool:
            if sent % ROUND:
                return True
            if rounds is not None:
                return sent < rounds * ROUND
            return time.perf_counter() < deadline

        def send(op: int) -> None:
            spec, tenant, rhs = self.stream.requests[op % ROUND]
            t0 = time.perf_counter()
            future = self.submit(spec, rhs, tenant)
            future.add_done_callback(
                lambda fut: done.put((op, t0, time.perf_counter(), fut))
            )

        while outstanding < WINDOW and more():
            send(sent)
            sent += 1
            outstanding += 1
        while outstanding:
            op, t0, t1, future = done.get(timeout=ANSWER_TIMEOUT)
            outstanding -= 1
            i = op % ROUND
            try:
                coeffs = future.result()
            except Exception as exc:  # noqa: BLE001 - a failed request is counted
                self.outcome.error(f"request {op}: {type(exc).__name__}: {exc}")
            else:
                if not np.array_equal(coeffs, self.stream.refs[i]):
                    self.outcome.fail(1, f"request {op}: differs from the direct solve")
            latencies.append(t1 - t0)
            ends.append(t1)
            answered.append(self.stream.cols[i])
            if tracer is not None:
                tracer.add(span, t0, t1, op=op)
            if more():
                send(sent)
                sent += 1
                outstanding += 1
        self.outcome.attempted += sent
        # columns per round of answers ÷ that round's wall time, median over
        # rounds: a stall of the host slows a few rounds, not the figure
        marks = [start] + ends[ROUND - 1 :: ROUND]
        rates = [
            sum(answered[j * ROUND : (j + 1) * ROUND]) / (marks[j + 1] - marks[j])
            for j in range(len(marks) - 1)
        ]
        return latencies, float(np.median(rates)), sent


def service_submit(client):
    return lambda spec, rhs, tenant: client.submit(spec, rhs, tenant=tenant)


def engine_submit(engine):
    return lambda spec, rhs, tenant: engine.submit(spec, rhs, tenant=tenant)


def first_answers(submit, stream: Stream, outcome: Outcome) -> None:
    """The first answered request per plan key, one after another."""
    for i in stream.first_per_key:
        spec, tenant, rhs = stream.requests[i]
        outcome.attempted += 1
        if not np.array_equal(submit(spec, rhs, tenant).result(ANSWER_TIMEOUT), stream.refs[i]):
            outcome.fail(1, f"first request for {spec} differs from the direct solve")


def start_service(stack: contextlib.ExitStack):
    """Engine, service and one client connection, torn down by *stack*."""
    engine = SolveEngine(ENGINE)
    stack.callback(engine.shutdown)
    hosted = ServiceThread(
        engine, ServiceConfig(admission=AdmissionController(default_quota=QUOTA)),
        own_engine=True,
    )
    hosted.start()
    stack.callback(hosted.stop)
    client = ServiceClient(hosted.host, hosted.port, hedge_delay=0, throttle_retries=0)
    stack.callback(client.close)
    return engine, client


def run(seconds: float, seed: int) -> Outcome:
    stream = Stream(seed)
    outcome = Outcome()
    times = []
    with contextlib.ExitStack() as outer:
        for repeat in range(SETUP_REPEATS):
            stack = outer.enter_context(contextlib.ExitStack())
            gc.collect()
            t0 = time.perf_counter()
            _, client = start_service(stack)
            first_answers(service_submit(client), stream, outcome)
            times.append(time.perf_counter() - t0)
            if repeat + 1 < SETUP_REPEATS:
                stack.close()
        loop = ClosedLoop(service_submit(client), stream, outcome)
        loop.run(rounds=WARMUP_ROUNDS)
        latencies, cols_per_s, _ = loop.run(seconds=seconds)
    outcome.metrics = {
        "setup_s": (float(np.median(times)), "s"),
        "cols_per_s": (cols_per_s, "columns/s"),
        "latency_p50_ms": (percentile_ms(latencies, 50), "ms"),
        "latency_p90_ms": (percentile_ms(latencies, 90), "ms"),
    }
    return outcome


def _series_delta_mean(before: dict, after: dict, name: str) -> float:
    """Mean of the samples a telemetry series gained between two snapshots."""
    a = after["series"][name]
    b = before["series"].get(name, {"count": 0, "mean": 0.0})
    count = a["count"] - b["count"]
    return (a["mean"] * a["count"] - b["mean"] * b["count"]) / count


def trace(seconds: float, seed: int, tracer) -> Outcome:
    stream = Stream(seed)
    outcome = Outcome()
    metrics = {}
    # 1. the service loop of the untraced run, each request in a span, read
    #    through the engine's own telemetry
    with contextlib.ExitStack() as stack:
        engine, client = start_service(stack)
        first_answers(service_submit(client), stream, outcome)
        loop = ClosedLoop(service_submit(client), stream, outcome)
        loop.run(rounds=WARMUP_ROUNDS)
        before = engine.telemetry_snapshot()
        latencies, cols_per_s, sent = loop.run(
            seconds=0.5 * seconds, tracer=tracer, span="service.rtt_ms"
        )
        after = engine.telemetry_snapshot()
    outcome.traced = {
        "cols_per_s": cols_per_s,
        "latency_p50_ms": percentile_ms(latencies, 50),
        "latency_p90_ms": percentile_ms(latencies, 90),
    }
    batches = after["counters"]["engine.batches_dispatched"] - before["counters"][
        "engine.batches_dispatched"
    ]
    metrics["coalescer.batches"] = (batches / (sent / ROUND), "count")
    metrics["coalescer.batch_cols"] = (
        _series_delta_mean(before, after, "coalescer.batch_cols"), "columns"
    )
    metrics["engine.batch_solve_ms"] = (after["series"]["engine.batch_solve.seconds"]["p50"] * 1e3, "ms")
    metrics["engine.verify_ms"] = (after["series"]["engine.verify.seconds"]["p50"] * 1e3, "ms")
    factorized = after["counters"]["plan_cache.factorized"]
    metrics["plan_cache.factorizations.serve"] = (factorized, "count")
    if factorized != len(SPECS):
        outcome.fail(1, f"the engine factorized {factorized} times for {len(SPECS)} plan keys")
    for name, (value, _) in metrics.items():
        tracer.counter(name, value)
    metrics["service.rtt_ms"] = (tracer.median_ms("service.rtt_ms"), "ms")

    # 2. the same stream straight into an engine: no wire, admission or queue
    with SolveEngine(ENGINE) as engine:
        first_answers(engine_submit(engine), stream, outcome)
        loop = ClosedLoop(engine_submit(engine), stream, outcome)
        loop.run(rounds=WARMUP_ROUNDS)
        loop.run(seconds=0.35 * seconds, tracer=tracer, span="engine.rtt_ms")
    metrics["engine.rtt_ms"] = (tracer.median_ms("engine.rtt_ms"), "ms")

    # 3. the stream's request and result frames through the codec
    deadline = time.perf_counter() + 0.15 * seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        for i, (spec, tenant, rhs) in enumerate(stream.requests):
            op = f"{rounds}.{i}"
            with tracer.span("protocol.encode_us", op=op + ".request"):
                frame = encode_request(Request(id=i + 1, spec=spec, rhs=rhs, tenant=tenant))
            with tracer.span("protocol.decode_us", op=op + ".request"):
                request = decode_request(frame[HEADER_SIZE:])
            with tracer.span("protocol.encode_us", op=op + ".result"):
                frame = encode_result(i + 1, stream.refs[i])
            with tracer.span("protocol.decode_us", op=op + ".result"):
                result = decode_result(frame[HEADER_SIZE:])
            outcome.attempted += 1
            if not (
                request.spec == spec
                and np.array_equal(request.rhs, rhs)
                and np.array_equal(result.coeffs, stream.refs[i])
            ):
                outcome.fail(1, f"frame round trip {op} changed its contents")
        rounds += 1
    for name in ("protocol.encode_us", "protocol.decode_us"):
        metrics[name] = (tracer.median_ms(name) * 1e3, "us")
    outcome.metrics = metrics
    return outcome
