"""Runtime engine — throughput vs. request granularity.

The paper's premise is that the batched solve only pays off at large
batch sizes; the runtime engine's premise is that *callers don't have*
large batches — they have trickles of small requests.  This benchmark
quantifies the gap the engine closes.  For each request granularity
(columns per caller request) the same total column count is solved twice:

* **naive** — what a caller without the engine does: construct a
  :class:`SplineBuilder` (refactorizing the matrix) and solve its own
  little batch;
* **engine** — submit every request to one :class:`SolveEngine`, which
  serves all of them from a single cached factorization and coalesces
  them into ``max_batch``-column solves.

The engine's advantage should *grow* as granularity shrinks: at one
column per request the naive path pays a factorization per column, while
the engine pays one factorization total and solves ~``total/max_batch``
coalesced batches.

Run standalone with ``--quick`` for the CI smoke sizes::

    python benchmarks/bench_runtime_coalescing.py --quick
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

try:
    from repro.bench import Table
except ImportError:  # running as a script from a source checkout
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.bench import Table

import numpy as np

import repro.core.builder.builder as builder_module
from repro.core.builder.builder import SplineBuilder
from repro.core.spec import BSplineSpec
from repro.runtime import SolveEngine
from repro.runtime.engine import _VERIFY_COLS
from repro.verify.residual import ResidualChecker

GRANULARITIES = (1, 4, 16, 64)

# The verify-on-solve overhead is measured at the batch widths the engine
# exists to produce (the paper's premise: batches of 1e5 columns, §II-B).
# A sampled check costs a banded product over the engine's constant
# 16-column sample per batch, so its *relative* price is set by the batch
# width; quoting it at toy widths would overstate the production cost.
VERIFY_TOTAL_COLS = 16_384
VERIFY_MAX_BATCH = 8_192


def _requests(n: int, total_cols: int, granularity: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    count = total_cols // granularity
    if granularity == 1:
        return [rng.standard_normal(n) for _ in range(count)]
    return [rng.standard_normal((n, granularity)) for _ in range(count)]


def _naive_time(spec: BSplineSpec, requests) -> float:
    """Every request constructs its own builder — PR 1's caller pattern."""
    t0 = time.perf_counter()
    for rhs in requests:
        SplineBuilder(spec, version=2).solve(rhs)
    return time.perf_counter() - t0


def _engine_time(engine: SolveEngine, spec: BSplineSpec, requests) -> float:
    t0 = time.perf_counter()
    futures = [engine.submit(spec, rhs) for rhs in requests]
    engine.flush()
    for f in futures:
        f.result(timeout=120)
    return time.perf_counter() - t0


def _warm_engine(engine: SolveEngine, spec: BSplineSpec, n: int) -> None:
    """Pay the factor-once costs (plan, residual checker) before timing."""
    engine.solve(spec, np.zeros(n))


def _series_total(snap: dict, name: str) -> float:
    """Total accumulated value of a telemetry series (mean x count)."""
    series = snap["series"].get(name, {})
    return series.get("mean", 0.0) * series.get("count", 0)


def render_coalescing(nx: int, total_cols: int, max_batch: int = 256) -> str:
    spec = BSplineSpec(degree=3, n_points=nx)
    table = Table(
        f"Runtime coalescing: {total_cols} columns, N = {nx}, "
        f"max_batch = {max_batch}",
        [
            "cols/request",
            "requests",
            "naive [ms]",
            "engine [ms]",
            "speedup",
            "batched solves",
            "mean batch cols",
            "plan hit rate",
        ],
    )
    for granularity in GRANULARITIES:
        requests = _requests(nx, total_cols, granularity)
        naive = _naive_time(spec, requests)
        with SolveEngine(
            max_batch=max_batch, max_linger=5e-3, num_workers=2
        ) as engine:
            engine_s = _engine_time(engine, spec, requests)
            snap = engine.telemetry.snapshot()
        batches = snap["counters"].get("engine.batches_dispatched", 0)
        mean_cols = snap["series"]["coalescer.batch_cols"]["mean"]
        hits = snap["counters"].get("plan_cache.hits", 0)
        misses = snap["counters"].get("plan_cache.misses", 0)
        table.add_row(
            granularity,
            len(requests),
            naive * 1e3,
            engine_s * 1e3,
            naive / engine_s if engine_s else float("inf"),
            batches,
            mean_cols,
            f"{hits}/{hits + misses}",
        )
    return table.render()


def render_verify_overhead(
    nx: int, total_cols: int, max_batch: int = VERIFY_MAX_BATCH
) -> str:
    """Verify-on-solve cost: the same workload at verify_every 0 / N / 1.

    ``verify_every=1`` checks a bounded column sample of *every* batch, so
    its cost is a banded product over 16 columns per batch, small beside
    the batched solve at the production batch widths (see
    ``VERIFY_MAX_BATCH``).  Two overhead figures are printed for context:
    the end-to-end wall delta (noisy — request submission, coalescer
    ticks and future plumbing dominate it and vary ±20% between engine
    instances) and the span-measured ``check/solve`` ratio, which in the
    threaded engine also counts GIL hand-offs, not just the check.
    """
    spec = BSplineSpec(degree=3, n_points=nx)
    table = Table(
        f"Verify-on-solve overhead: {total_cols} columns, N = {nx}, "
        f"max_batch = {max_batch}",
        [
            "verify_every",
            "engine [ms]",
            "wall delta",
            "check/solve",
            "checks",
            "worst eta",
        ],
    )
    requests = _requests(nx, total_cols, min(256, total_cols))
    baseline = None
    for every in (0, 4, 1):
        with SolveEngine(
            max_batch=max_batch, max_linger=5e-3, num_workers=1, verify_every=every
        ) as engine:
            _warm_engine(engine, spec, nx)
            engine_s = min(
                _engine_time(engine, spec, requests) for _ in range(3)
            )
            snap = engine.telemetry.snapshot()
        if baseline is None:
            baseline = engine_s
        checks = snap["counters"].get("verify.checks", 0)
        worst = snap["series"].get("verify.backward_error", {}).get("max", 0.0)
        verify_s = _series_total(snap, "engine.verify.seconds")
        solve_s = _series_total(snap, "engine.batch_solve.seconds")
        table.add_row(
            every,
            engine_s * 1e3,
            f"{(engine_s / baseline - 1.0) * 100:+.1f}%",
            f"{verify_s / solve_s * 100:.1f}%" if solve_s else "n/a",
            checks,
            f"{worst:.1e}",
        )
    return table.render()


def test_coalescing_report(write_result, nx):
    report = render_coalescing(nx=min(nx, 128), total_cols=1024)
    write_result("runtime_coalescing", report)
    assert "cols/request" in report


def test_verify_overhead_report(write_result):
    # nx pinned at 128 — the overhead budget is quoted at production sizes
    report = render_verify_overhead(nx=128, total_cols=VERIFY_TOTAL_COLS)
    write_result("runtime_verify_overhead", report)
    assert "verify_every" in report


def test_verify_every_batch_overhead_bounded(monkeypatch):
    """Sampled verification of every batch costs a bounded, constant sample.

    What holds by construction is asserted, not a wall-clock ratio: at
    ``verify_every=1`` every dispatched batch is checked, and every check
    receives exactly the engine's constant 16-column sample however wide
    the batch (the batches here are ≥ 256 columns).  The span ratio of
    ``engine.verify`` to ``engine.batch_solve`` is printed by
    :func:`render_verify_overhead`, not gated: in the threaded engine it
    measures GIL hand-offs as much as the check itself.
    """
    widths = []
    check = ResidualChecker.check

    def recording_check(self, x, b, *args, **kwargs):
        widths.append(x.shape[1])
        return check(self, x, b, *args, **kwargs)

    monkeypatch.setattr(ResidualChecker, "check", recording_check)
    n = 128
    spec = BSplineSpec(degree=3, n_points=n)
    requests = _requests(n, VERIFY_TOTAL_COLS, 256)
    with SolveEngine(
        max_batch=VERIFY_MAX_BATCH,
        max_linger=5e-3,
        num_workers=1,
        verify_every=1,
    ) as engine:
        _engine_time(engine, spec, requests)
        snap = engine.telemetry.snapshot()
    checks = snap["counters"].get("verify.checks", 0)
    batches = snap["counters"].get("engine.batches_dispatched", 0)
    assert batches >= 1
    assert checks == batches  # verify_every=1 samples every dispatch
    assert widths == [_VERIFY_COLS] * batches
    assert snap["counters"].get("verify.failures", 0) == 0


def test_engine_beats_naive_at_fine_granularity(nx, monkeypatch):
    """At one column per request the engine factorizes once and solves
    two full batches, where the naive path builds one solver per request.

    Counted, not timed: 256 one-column requests at ``max_batch=128`` with
    a linger long enough that only full batches are cut.  The naive and
    engine timings are printed by :func:`render_coalescing`.
    """
    factorizations = []
    real_schur = builder_module.SchurSolver

    def counting_schur(*args, **kwargs):
        factorizations.append(1)
        return real_schur(*args, **kwargs)

    monkeypatch.setattr(builder_module, "SchurSolver", counting_schur)
    n = min(nx, 128)
    spec = BSplineSpec(degree=3, n_points=n)
    requests = _requests(n, 256, 1)
    _naive_time(spec, requests)
    assert len(factorizations) == len(requests)
    factorizations.clear()
    with SolveEngine(max_batch=128, max_linger=60.0) as engine:
        futures = [engine.submit(spec, rhs) for rhs in requests]
        engine.flush()
        for f in futures:
            f.result(timeout=120)
        snap = engine.telemetry.snapshot()
    assert len(factorizations) == 1
    assert snap["counters"]["plan_cache.misses"] == 1
    assert snap["counters"]["engine.batches_dispatched"] == 2
    assert snap["series"]["coalescer.batch_cols"]["min"] == 128


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke sizes (N = 64, 512 columns) instead of the full sweep",
    )
    parser.add_argument("--nx", type=int, default=256, help="matrix size N_x")
    parser.add_argument(
        "--total-cols", type=int, default=2048, help="columns solved per row"
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.nx, args.total_cols = 64, 512
    print(render_coalescing(args.nx, args.total_cols))
    print()
    # verify overhead is quoted at production sizes even under --quick:
    # the <10% budget is about the batch widths the engine exists for
    print(
        render_verify_overhead(
            max(args.nx, 128), max(args.total_cols, VERIFY_TOTAL_COLS)
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
