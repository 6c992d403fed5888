"""Speculative execution on the cluster executor — the tail it cuts.

A seeded ``cluster.shard_slow`` plan stalls some shards on one worker.
The identical campaign runs twice — speculation off, then on
(``ClusterConfig(speculative_age=...)``) — and the per-block p99 must
drop: a straggling shard's duplicate lands on an idle worker and wins
the race (``cluster.speculative_wins``), while first-ack-wins keeps the
result bitwise stable.

Results land in ``benchmarks/results/BENCH_speculation.json`` for the
CI artifact trail.  Run standalone or with ``--quick`` for CI smoke
sizes::

    python benchmarks/bench_speculation.py --quick
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

from repro.bench.report import write_bench_json
from repro.cluster import ClusterConfig, ClusterExecutor
from repro.core.spec import BSplineSpec
from repro.runtime.plan_cache import PlanCache, PlanKey
from repro.runtime.resilience.faults import FaultPlan, FaultSpec
from repro.runtime.telemetry import Telemetry


def _blocks(nx: int, cols: int, count: int, seed: int = 7):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((nx, cols)) for _ in range(count)]


def _references(key, blocks):
    builder = PlanCache().builder(key)
    out = []
    for block in blocks:
        expect = block.copy()
        builder.solve(expect, in_place=True)
        out.append(expect)
    return out


def _p99(samples):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


def render_speculation(nx: int, cols: int, count: int, stalls: int):
    """A/B per-block p99 with speculation off vs on; returns (report, data)."""
    spec = BSplineSpec(degree=3, n_points=nx)
    key = PlanKey.from_spec(spec)
    blocks = _blocks(nx, cols, count, seed=11)
    expects = _references(key, blocks)
    stall = 0.6

    def run(speculate: bool):
        faults = FaultPlan(
            specs=[
                FaultSpec(
                    site="cluster.shard_slow", kind="slow", delay=stall,
                    worker=0, times=stalls,
                )
            ],
            seed=42,
        )
        telemetry = Telemetry()
        config = ClusterConfig(
            heartbeat_interval=0.1,
            lease_timeout=30.0,  # the lease must never fire: speculation only
            speculative_age=0.2 if speculate else None,
        )
        executor = ClusterExecutor(
            config=config, num_workers=2, telemetry=telemetry, faults=faults
        )
        times, identical = [], True
        try:
            for index, block in enumerate(blocks):
                got = block.copy()
                t0 = time.perf_counter()
                executor.solve_array(key, got)
                times.append(time.perf_counter() - t0)
                identical = identical and (
                    got.tobytes() == expects[index].tobytes()
                )
        finally:
            executor.shutdown()
        counters = telemetry.snapshot()["counters"]
        return times, identical, counters

    times_off, ok_off, _ = run(speculate=False)
    times_on, ok_on, counters = run(speculate=True)
    data = {
        "blocks": count,
        "cols": cols,
        "nx": nx,
        "stalled_shards": stalls,
        "stall_s": stall,
        "p99_off_s": _p99(times_off),
        "p99_on_s": _p99(times_on),
        "speculative_issued": counters.get("cluster.speculative_issued", 0),
        "speculative_wins": counters.get("cluster.speculative_wins", 0),
        "bitwise": bool(ok_off and ok_on),
    }
    table = Table(
        f"Speculative execution: {count} blocks, {stalls} stalled shards "
        f"({stall * 1e3:.0f} ms each), n={nx}",
        ["configuration", "p99 block [ms]", "spec issued", "spec wins"],
    )
    table.add_row("speculation off", _p99(times_off) * 1e3, "-", "-")
    table.add_row(
        "speculation on",
        _p99(times_on) * 1e3,
        data["speculative_issued"],
        data["speculative_wins"],
    )
    lines = [table.render(), f"bitwise identical: {data['bitwise']}"]
    return "\n".join(lines), data


# -- pytest entry points (CI smoke sizes; see conftest.py) ----------------


def test_speculation_shrinks_p99(write_result):
    """A seeded straggler plan loses the race to speculative copies."""
    report, data = render_speculation(nx=48, cols=8, count=8, stalls=2)
    write_result("speculation", report)
    assert data["bitwise"]
    assert data["speculative_wins"] >= 1
    assert data["p99_on_s"] < data["p99_off_s"]


# -- standalone entry -----------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke sizes"
    )
    args = parser.parse_args(argv)
    if args.quick:
        nx, cols, count, stalls = 48, 12, 8, 2
    else:
        nx, cols, count, stalls = 128, 24, 16, 4
    report, speculation = render_speculation(
        nx=nx, cols=cols, count=count, stalls=stalls
    )
    print(report)
    path = write_bench_json("speculation", speculation)
    print(f"\nwrote {path}")
    if not speculation["bitwise"]:
        print("FAILURE: speculation campaign diverged from the reference")
        return 1
    if speculation["speculative_wins"] < 1:
        print("FAILURE: no speculative copy ever won the race")
        return 1
    if speculation["p99_on_s"] >= speculation["p99_off_s"]:
        print("FAILURE: speculation did not reduce the p99 block time")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
