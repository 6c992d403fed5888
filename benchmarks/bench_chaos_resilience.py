"""Chaos resilience — the price of the harness and the cost of healing.

Two claims from the resilience layer are measured here:

1. **Dormant faults are free.**  Every fault hook in the runtime is
   guarded by ``if faults is not None``; with a plan installed the hook
   additionally pays one dict lookup per visit.  The experiment runs the
   identical verified submit campaign with no plan and with an inert plan
   (specs that never fire) and checks what holds by construction: the
   results are bitwise equal, the plan fires nothing and holds no random
   stream, and each hook is visited once per dispatched batch, never once
   per column.  The two wall timings and their ratio are reported as
   evidence, not asserted: two ≈ 10 ms timings through a threaded engine
   differ by more than the hooks could cost.

2. **Healing is bounded and exact.**  A seeded crash plan kills workers
   mid-campaign; the worker pool requeues and respawns, and the run
   completes with coefficients bitwise identical to the undisturbed
   thread-path run.  The report shows the recovery cost: wall time with
   and without chaos, plus the death/respawn/requeue counts behind it.

Run standalone or with ``--quick`` for CI smoke sizes::

    python benchmarks/bench_chaos_resilience.py --quick
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

from repro.core.spec import BSplineSpec
from repro.runtime import FaultPlan, FaultSpec, SolveEngine


def _columns(n: int, count: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((count, n))


def _inert_plan() -> FaultPlan:
    """A plan whose specs are live in every hook but never trigger."""
    return FaultPlan(
        [
            FaultSpec(site="engine.dispatch", after=10**9),
            FaultSpec(site="engine.rhs", kind="corrupt", after=10**9),
            FaultSpec(site="engine.batch_solve", after=10**9),
            FaultSpec(site="engine.verify", after=10**9),
        ],
        seed=1,
    )


def _campaign(engine, spec, columns, rounds: int):
    """Best-of-*rounds* wall time of one submit/flush/gather campaign,
    and the last round's results."""
    best = float("inf")
    engine.solve(spec, columns[0])  # factor once before timing
    for _ in range(rounds):
        t0 = time.perf_counter()
        futures = [engine.submit(spec, col) for col in columns]
        engine.flush()
        results = [fut.result(timeout=60) for fut in futures]
        best = min(best, time.perf_counter() - t0)
    return best, results


def render_overhead(nx: int, requests: int, rounds: int):
    """A/B the dormant-fault hot path.

    Returns ``(report, ratio, failures)``: the timing ratio is evidence
    only; *failures* lists every by-construction check that did not hold.
    """
    spec = BSplineSpec(degree=3, n_points=nx)
    columns = _columns(nx, requests)
    plan = _inert_plan()
    timings, results = {}, {}
    for label, faults in (("no plan", None), ("inert plan", plan)):
        with SolveEngine(
            max_batch=64, max_linger=1e-3, verify_every=1, faults=faults
        ) as eng:
            timings[label], results[label] = _campaign(
                eng, spec, columns, rounds
            )
            if faults is plan:
                batches = eng.telemetry_snapshot()["counters"][
                    "engine.batches_dispatched"
                ]
    sites = [fault.site for fault in plan.specs]
    ratio = timings["inert plan"] / timings["no plan"]
    failures = []
    if not all(
        np.array_equal(a, b)
        for a, b in zip(results["inert plan"], results["no plan"])
    ):
        failures.append("inert-plan results differ from the no-plan results")
    if plan.fired():
        failures.append(f"the inert plan fired {plan.fired()} times")
    for site in sites:  # once per batch, never once per column
        if plan.visits(site) != batches:
            failures.append(
                f"{site} visited {plan.visits(site)} times for "
                f"{batches} dispatched batches"
            )
    if plan._streams:  # probability 1.0 everywhere: nothing is drawn
        failures.append("the inert plan holds a random stream")
    table = Table(
        f"Dormant fault-hook overhead: {requests} submits, n={nx}, "
        f"best of {rounds}",
        ["configuration", "campaign [ms]", "vs no plan"],
    )
    table.add_row("no plan", timings["no plan"] * 1e3, "1.00x")
    table.add_row("inert plan", timings["inert plan"] * 1e3, f"{ratio:.2f}x")
    lines = [
        table.render(),
        f"inert plan: {plan.fired()} firings, hook visits per site "
        f"{[plan.visits(site) for site in sites]} for {batches} "
        "dispatched batches",
    ]
    return "\n".join(lines), ratio, failures


def render_recovery(nx: int, requests: int):
    """Crash-and-heal campaign; returns (report, bitwise-identical flag)."""
    spec = BSplineSpec(degree=3, n_points=nx)
    columns = _columns(nx, requests, seed=7)
    plan = FaultPlan(
        [
            FaultSpec(
                site="sharded.worker_solve", kind="crash", worker=0, after=2
            ),
            FaultSpec(
                site="sharded.worker_solve", kind="crash", worker=1, after=4
            ),
        ],
        seed=42,
    )

    def run(**engine_kwargs):
        with SolveEngine(
            max_batch=64, max_linger=1e-3, **engine_kwargs
        ) as eng:
            t0 = time.perf_counter()
            futures = [eng.submit(spec, col) for col in columns]
            eng.flush()
            results = [f.result(timeout=120) for f in futures]
            elapsed = time.perf_counter() - t0
            snap = eng.telemetry_snapshot()
        return results, elapsed, snap["counters"]

    reference, t_ref, _ = run(executor="threads", num_workers=2)
    calm, t_calm, _ = run(executor="processes", num_workers=2)
    chaotic, t_chaos, counters = run(
        executor="processes", num_workers=2, faults=plan, restart_budget=8
    )
    identical = all(
        np.array_equal(a, b) for a, b in zip(chaotic, reference)
    ) and all(np.array_equal(a, b) for a, b in zip(calm, reference))
    table = Table(
        f"Self-healing under worker crashes: {requests} requests, n={nx}",
        ["run", "campaign [ms]", "deaths", "respawns", "requeued shards"],
    )
    table.add_row("threads (reference)", t_ref * 1e3, "-", "-", "-")
    table.add_row("processes, no faults", t_calm * 1e3, 0, 0, 0)
    table.add_row(
        "processes, crash plan",
        t_chaos * 1e3,
        counters.get("supervisor.worker_deaths", 0),
        counters.get("supervisor.respawns", 0),
        counters.get("sharded.requeued_shards", 0),
    )
    lines = [
        table.render(),
        f"bitwise identical to reference: {identical}",
    ]
    return "\n".join(lines), identical, counters


# -- pytest entry points (CI smoke sizes; see conftest.py) ----------------


def test_dormant_fault_overhead(write_result):
    """An inert fault plan leaves the bits alone and costs one hook
    visit per site and batch."""
    report, _, failures = render_overhead(nx=64, requests=256, rounds=5)
    write_result("chaos_overhead", report)
    assert not failures, failures


def test_crash_recovery_is_bitwise(write_result):
    """A crash-ridden campaign heals and matches the reference bitwise."""
    report, identical, counters = render_recovery(nx=64, requests=256)
    write_result("chaos_recovery", report)
    assert identical
    assert counters.get("supervisor.worker_deaths", 0) >= 1
    assert counters.get("sharded.requeued_shards", 0) >= 1


# -- standalone entry -----------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke sizes"
    )
    args = parser.parse_args(argv)
    if args.quick:
        nx, requests, rounds = 64, 256, 3
    else:
        nx, requests, rounds = 256, 1024, 5
    report, ratio, failures = render_overhead(
        nx=nx, requests=requests, rounds=rounds
    )
    print(report)
    print(f"dormant-hook overhead: {ratio:.2f}x (reported, not gated)")
    for failure in failures:
        print(f"FAILURE: {failure}")
    if failures:
        return 1
    report, identical, counters = render_recovery(nx=nx, requests=requests)
    print(report)
    if not identical:
        print("FAILURE: chaos campaign diverged from the reference")
        return 1
    if counters.get("supervisor.worker_deaths", 0) < 1:
        print("FAILURE: the crash plan never killed a worker")
        return 1
    print(
        "healed: "
        f"{counters.get('supervisor.worker_deaths', 0)} deaths, "
        f"{counters.get('supervisor.respawns', 0)} respawns, "
        f"{counters.get('sharded.requeued_shards', 0)} requeued shards"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
