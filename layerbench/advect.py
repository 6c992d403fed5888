"""``advect``: Algorithm 2 — batched semi-Lagrangian advection.

``BatchedAdvection1D`` advances a smooth periodic field on a uniform
n = 1000 grid at ``NV`` velocities; each step is transpose → build →
transpose → evaluate at the feet of the characteristics.  The evaluator
takes about 93 % of a step and the builder about 3 %, so an evaluator or
transpose change shows here and a kernel change barely moves it.

The check after ``k`` steps compares each row with its initial profile
shifted by ``v·k·Δt``, computed with NumPy from the profile's Fourier
modes, and checks that the sum over x of every row is conserved, which
periodic splines on a uniform grid do exactly up to round-off.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from common import (
    MODES,
    UNIT_ROUNDOFF,
    Outcome,
    percentile_ms,
    periodic_collocation,
)
from repro import BSplineSpec, SplineBuilder
from repro.advection import BatchedAdvection1D, transpose_to_batch_major, transpose_to_x_major
from repro.core.evaluator.evaluator import SplineEvaluator

N = 1000
NV = 1024
DEGREE = 3
#: C of ‖f − s‖∞ ≤ C · h^4 · ‖f''''‖∞ for periodic cubic spline
#: interpolation on a uniform mesh (the Favard constant K_4 / π^4)
FAVARD_CUBIC = 5.0 / 384.0
SPEC = BSplineSpec(degree=DEGREE, n_points=N)
#: time step: a displacement of up to 0.37 cells per step, never a whole cell
DT = 0.37 / N
#: a fresh set-up is timed after every SETUP_EVERY-th timed step; setup_s
#: is the median of all of them.  One set-up takes ≈ 70 ms and the host's
#: speed drifts over seconds, so set-ups back to back sample too short a
#: stretch: 31 of them (≈ 2 s) spread by a quarter between runs, set-ups
#: spread over the whole run by a twentieth.
SETUP_EVERY = 2
#: untimed steps before the timed ones (the first calls run cold)
WARMUP_STEPS = 2
#: safety factor on the per-step interpolation error bound
ERROR_FACTOR = 4.0


class Problem:
    """Seeded initial field ``f0_j(x) = a0 + Σ_m a_m sin(2πm x + φ_mj)`` and
    velocities; every row has its own phases and its own speed."""

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.a0 = 2.0
        self.amp = rng.uniform(0.2, 0.5, MODES) / np.arange(1, MODES + 1)
        self.phase = rng.uniform(0.0, 2.0 * np.pi, (NV, MODES))
        jitter = rng.uniform(-0.5, 0.5, NV) * (2.0 / NV)
        self.velocities = np.linspace(-1.0, 1.0, NV) + jitter

    def field(self, x: np.ndarray, t: float) -> np.ndarray:
        """The exact field ``f0_j(x − v_j t)`` as an ``(NV, len(x))`` array."""
        shifted = x[None, :] - self.velocities[:, None] * t
        out = np.full((NV, x.size), self.a0)
        for m in range(1, MODES + 1):
            out += self.amp[m - 1] * np.sin(
                2.0 * np.pi * m * shifted + self.phase[:, m - 1 : m]
            )
        return out

    def derivative_bound(self, order: int) -> float:
        """``max |f0^(order)|`` over x, from the Fourier amplitudes."""
        m = np.arange(1, MODES + 1)
        return float(np.sum(self.amp * (2.0 * np.pi * m) ** order))


def set_up(problem: Problem):
    builder = SplineBuilder(SPEC)
    evaluator = SplineEvaluator(builder.space_1d)
    return BatchedAdvection1D(builder, problem.velocities, DT, evaluator=evaluator)


def timed_setup(problem: Problem, times: list):
    """A fresh set-up; its seconds are appended to *times*."""
    gc.collect()
    t0 = time.perf_counter()
    adv = set_up(problem)
    times.append(time.perf_counter() - t0)
    return adv


def check_field(outcome: Outcome, problem: Problem, adv, f, f0, steps: int, ops: int) -> None:
    """Exact-shift and conservation checks after *steps* steps."""
    space = adv.builder.space_1d
    h = space.period / N
    kappa = np.linalg.cond(periodic_collocation(space.knots, DEGREE, adv.x), np.inf)
    # each step adds at most one interpolation error (Favard bound); the
    # round-off term is the same n-deep recurrence bound as the solve check
    roundoff = (N + (DEGREE + 1) * kappa) * UNIT_ROUNDOFF
    per_step = (
        ERROR_FACTOR * FAVARD_CUBIC * h ** (DEGREE + 1)
        * problem.derivative_bound(DEGREE + 1)
        + roundoff * np.max(np.abs(f0))
    )
    error = float(np.max(np.abs(f - problem.field(adv.x, steps * DT))))
    if not error <= steps * per_step:
        outcome.fail(ops, f"after {steps} steps: error {error:.3g} > {steps * per_step:.3g}")
    drift = np.abs(f.sum(axis=1) - f0.sum(axis=1)) / np.abs(f0.sum(axis=1))
    if not float(np.max(drift)) <= steps * roundoff:
        outcome.fail(ops, f"after {steps} steps: sum drift {np.max(drift):.3g} > {steps * roundoff:.3g}")


def run(seconds: float, seed: int) -> Outcome:
    problem = Problem(seed)
    setup_times = []
    adv = timed_setup(problem, setup_times)
    f0 = problem.field(adv.x, 0.0)
    f = f0
    for _ in range(WARMUP_STEPS):
        f = adv.step(f)
    step_times = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        t0 = time.perf_counter()
        f = adv.step(f)
        step_times.append(time.perf_counter() - t0)
        if len(step_times) % SETUP_EVERY == 0:
            timed_setup(problem, setup_times)
            deadline += setup_times[-1]  # steps alone fill the run
    outcome = Outcome(attempted=len(step_times) + WARMUP_STEPS)
    check_field(outcome, problem, adv, f, f0, outcome.attempted, outcome.attempted)
    outcome.metrics = {
        "setup_s": (float(np.median(setup_times)), "s"),
        "cols_per_s": (NV / float(np.median(step_times)), "columns/s"),
        "latency_p50_ms": (percentile_ms(step_times, 50), "ms"),
        "latency_p90_ms": (percentile_ms(step_times, 90), "ms"),
    }
    return outcome


def traced_step(tracer, adv, f, op: int) -> np.ndarray:
    """One Algorithm 2 step from its public pieces, one span per stage."""
    with tracer.span("advection.step_ms", op=op):
        with tracer.span("advection.transpose_ms", op=op):
            f_t = transpose_to_x_major(f)
        with tracer.span("advection.solve_ms", op=op):
            adv.builder.solve(f_t, in_place=True)
        with tracer.span("evaluator.eval_ms", op=op):
            new_t = adv.evaluator.eval_batched(f_t, adv.feet)
        with tracer.span("advection.transpose_ms", op=op):
            return transpose_to_batch_major(new_t)


def trace(seconds: float, seed: int, tracer) -> Outcome:
    problem = Problem(seed)
    adv = set_up(problem)
    f0 = problem.field(adv.x, 0.0)
    outcome = Outcome()
    f = traced_step(tracer, adv, f0, 0)
    if not np.array_equal(f, adv.step(f0)):
        outcome.fail(1, "traced step differs from BatchedAdvection1D.step")
    steps = 1
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        f = traced_step(tracer, adv, f, steps)
        steps += 1
    outcome.attempted = steps
    check_field(outcome, problem, adv, f, f0, steps, steps)
    outcome.metrics = {
        name: (tracer.median_ms(name), "ms")
        for name in (
            "advection.step_ms",
            "advection.transpose_ms",
            "advection.solve_ms",
            "evaluator.eval_ms",
        )
    }
    step_ms = outcome.metrics["advection.step_ms"][0]
    outcome.traced = {"cols_per_s": NV / (step_ms * 1e-3), "latency_p50_ms": step_ms}
    return outcome
