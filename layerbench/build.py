"""``build``: single-threaded bulk spline building at the paper's size.

``SplineBuilder.solve`` runs in place (version 2, float64) on smooth blocks
of ``COLS`` columns at n = 1000, one block per Table I banded class:
uniform degree 3 → pttrs, uniform degree 5 → pbtrs, non-uniform degree 3
→ gbtrs.  No engine is involved, so the Schur stages and the batched
kernels do all of the work: a kernel change shows here first, a framework
change shows nothing.

The traced pass solves the same blocks stage by stage from the public
pieces (``solver.q_plan``, ``kbatched.coo_spmm`` with ``solver.lam_coo``,
``solver.delta_plan``, ``kbatched.coo_spmm`` with ``solver.beta_coo``) and
requires that result to equal ``SplineBuilder.solve`` bitwise, so the
stage times describe the computation the builder really does.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from common import InterpolationCheck, Outcome, percentile_ms, sample_columns, smooth_block
from repro import BSplineSpec, SplineBuilder
from repro.kbatched import coo_spmm
from repro.perfmodel.calibrate import measure_backend_efficiency
from repro.perfmodel.counters import solver_traffic

N = 1000
#: columns per block: 8192 × 1000 doubles = 62.5 MiB per class
COLS = 8192
#: the Table I banded class each spec must factor into
SPECS = {
    "pttrs": BSplineSpec(degree=3, n_points=N),
    "pbtrs": BSplineSpec(degree=5, n_points=N),
    "gbtrs": BSplineSpec(degree=3, n_points=N, uniform=False),
}
#: cold set-ups per run; setup_s is their median
SETUP_REPEATS = 7
#: columns of every solved block checked against scipy
CHECK_COLS = 8


def make_inputs(seed: int):
    """Per class: ``(smooth block, InterpolationCheck)`` from the seed."""
    rng = np.random.default_rng(seed)
    inputs = {}
    for cls, spec in SPECS.items():
        space = spec.make_space()
        x = np.array(space.greville)
        inputs[cls] = (
            smooth_block(rng, x, COLS, period=space.period),
            InterpolationCheck(space.knots, space.degree, x),
        )
    return inputs


def factor_all() -> dict:
    builders = {cls: SplineBuilder(spec) for cls, spec in SPECS.items()}
    for cls, builder in builders.items():
        if builder.solver_name != cls:
            raise RuntimeError(f"{SPECS[cls]} factored as {builder.solver_name}, not {cls}")
    return builders


def cold_setups():
    """``(median seconds, builders)`` over ``SETUP_REPEATS`` fresh factorizations."""
    times = []
    for _ in range(SETUP_REPEATS):
        builders = None
        gc.collect()
        t0 = time.perf_counter()
        builders = factor_all()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)), builders


def check_block(outcome: Outcome, cls: str, coeffs, inputs, op: int) -> None:
    """Interpolation check of a rotating column sample of one solved block."""
    f, check = inputs[cls]
    cols = sample_columns(f.shape[1], CHECK_COLS, op)
    worst = check.worst(coeffs[:, cols], f[:, cols])
    if not worst <= 1.0:
        outcome.fail(1, f"{cls} op {op}: interpolation error {worst:.3g}× tolerance")


def run(seconds: float, seed: int) -> Outcome:
    inputs = make_inputs(seed)
    setup_s, builders = cold_setups()
    work = np.empty((N, COLS))
    outcome = Outcome()

    def one_round(op: int) -> list:
        times = []
        for cls, builder in builders.items():
            np.copyto(work, inputs[cls][0])
            t0 = time.perf_counter()
            builder.solve(work, in_place=True)
            times.append(time.perf_counter() - t0)
            check_block(outcome, cls, work, inputs, op)
        return times

    one_round(-1)  # warm-up: checked, not timed
    op_times, round_times = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        times = one_round(len(op_times))
        op_times += times
        round_times.append(sum(times))
    outcome.attempted = len(op_times) + len(SPECS)
    outcome.metrics = {
        "setup_s": (setup_s, "s"),
        "cols_per_s": (len(SPECS) * COLS / float(np.median(round_times)), "columns/s"),
        "latency_p50_ms": (percentile_ms(op_times, 50), "ms"),
        "latency_p90_ms": (percentile_ms(op_times, 90), "ms"),
    }
    return outcome


def staged_solve(tracer, cls: str, solver, work, op: int) -> None:
    """Algorithm 1 lines 5–8 from the solver's public pieces, one span per stage."""
    b0 = work[: solver.m]
    b1 = work[solver.m :]
    with tracer.span(f"schur.solve_ms.{cls}", op=op):
        with tracer.span(f"schur.q_solve_ms.{cls}", op=op):
            solver.q_plan.solve(b0)
        with tracer.span(f"schur.lam_spmm_ms.{cls}", op=op):
            coo_spmm(-1.0, solver.lam_coo, b0, b1)
        with tracer.span(f"schur.delta_solve_ms.{cls}", op=op):
            solver.delta_plan.solve(b1)
        with tracer.span(f"schur.beta_spmm_ms.{cls}", op=op):
            coo_spmm(-1.0, solver.beta_coo, b1, b0)


def trace(seconds: float, seed: int, tracer) -> Outcome:
    inputs = make_inputs(seed)
    for _ in range(SETUP_REPEATS):
        gc.collect()
        for cls, spec in SPECS.items():
            with tracer.span(f"builder.factor_ms.{cls}"):
                SplineBuilder(spec)
    builders = factor_all()
    for cls, builder in builders.items():
        if builder.solver.chunk < COLS:
            raise RuntimeError("the staged solve assumes one fused chunk per block")
    # The STREAM-triad ceiling; .samples["stream"] of the same call is the
    # batched pttrs rate, not the triad.
    triad_gbs = measure_backend_efficiency(backend="numpy").device.peak_bandwidth_gbs
    tracer.counter("stream.triad_gbs", triad_gbs)

    staged = np.empty((N, COLS))
    direct = np.empty((N, COLS))
    outcome = Outcome()
    # The traced end-to-end figures time the same SplineBuilder.solve calls
    # as the untraced run, inside their spans, so that the difference is
    # the tracing overhead; the staged solve is not part of them.
    op_times, round_times = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not round_times:
        round_time = 0.0
        for cls, builder in builders.items():
            op = len(op_times)
            f = inputs[cls][0]
            np.copyto(staged, f)
            staged_solve(tracer, cls, builder.solver, staged, op)
            np.copyto(direct, f)
            t0 = time.perf_counter()
            with tracer.span(f"builder.solve_ms.{cls}", op=op):
                builder.solve(direct, in_place=True)
            op_times.append(time.perf_counter() - t0)
            round_time += op_times[-1]
            if not np.array_equal(staged, direct):
                outcome.fail(1, f"{cls} op {op}: staged solve differs from SplineBuilder.solve")
            else:
                check_block(outcome, cls, staged, inputs, op)
        round_times.append(round_time)
    outcome.attempted = len(op_times)

    metrics = {"stream.triad_gbs": (triad_gbs, "GB/s")}
    for cls, builder in builders.items():
        for stage in ("solve", "q_solve", "lam_spmm", "delta_solve", "beta_spmm"):
            name = f"schur.{stage}_ms.{cls}"
            metrics[name] = (tracer.median_ms(name), "ms")
        for name in (f"builder.factor_ms.{cls}", f"builder.solve_ms.{cls}"):
            metrics[name] = (tracer.median_ms(name), "ms")
        degree = SPECS[cls].degree
        # computed bytes: two full sweeps over the Q block (perfmodel.counters)
        q_bytes = solver_traffic(builder.solver.m, COLS, cls, degree).total_bytes
        gbs = q_bytes / (metrics[f"schur.q_solve_ms.{cls}"][0] * 1e-3) / 1e9
        metrics[f"schur.q_solve_gbs.{cls}"] = (gbs, "GB/s")
        metrics[f"schur.q_solve_roofline.{cls}"] = (gbs / triad_gbs, "fraction")
        tracer.counter(f"schur.q_solve_gbs.{cls}", gbs)
        tracer.counter(f"schur.q_solve_roofline.{cls}", gbs / triad_gbs)
    outcome.metrics = metrics
    outcome.traced = {
        "cols_per_s": len(SPECS) * COLS / float(np.median(round_times)),
        "latency_p50_ms": percentile_ms(op_times, 50),
    }
    return outcome
