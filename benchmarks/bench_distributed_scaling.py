"""Scaling study — distributed decomposition of the batched advection.

The paper's batch sizes come from MPI-decomposing GYSELA's 5-D mesh; this
bench quantifies the two decomposition regimes with the simulated
communicator + alpha-beta network model:

* batch-decomposed: perfectly parallel, zero communication — the regime
  the paper's single-GPU kernels assume;
* line-decomposed: two all-to-all redistributions per step; the bench
  reports measured exchanged bytes and the modeled communication time
  against the modeled A100 compute time per rank, locating the scaling
  knee.

Standalone::

    python benchmarks/bench_distributed_scaling.py
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np
import pytest

try:
    from repro.bench import Table
except ImportError:  # running as a script from a source checkout
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.bench import Table

from repro.core import BSplineSpec, SplineBuilder
from repro.distributed import DistributedAdvection1D, NetworkModel
from repro.perfmodel.devicesim import paper_simulators


def render_scaling(nx: int, nv: int) -> str:
    sim = paper_simulators()["A100"]
    net = NetworkModel()
    table = Table(
        f"Distributed scaling model (N_x = {nx}, N_v = {nv}, A100 ranks)",
        ["ranks", "compute/rank [ms]", "alltoall [ms]", "comm fraction",
         "parallel efficiency"],
    )
    t1 = sim.advection_time(nx, nv)
    for ranks in (1, 2, 4, 8, 16, 32, 64):
        t_comp = sim.advection_time(nx, max(nv // ranks, 1))
        per_step_bytes = nx * nv * 8
        t_comm = 2 * net.alltoall_time(ranks, per_step_bytes)
        total = t_comp + t_comm
        eff = t1 / (ranks * total)
        table.add_row(ranks, t_comp * 1e3, t_comm * 1e3,
                      t_comm / total, eff)
    return table.render()


def measure_bytes(nx: int, nv: int, ranks: int) -> int:
    builder = SplineBuilder(BSplineSpec(degree=3, n_points=nx))
    dist = DistributedAdvection1D(
        builder, np.linspace(-1, 1, nv), 0.01, ranks=ranks, decompose="line"
    )
    dist.step(np.ones((nv, nx)))
    return dist.bytes_communicated


def test_scaling_report(write_result, nx):
    write_result("distributed_scaling", render_scaling(1000, 100_000))


def test_measured_alltoall_bytes(nx):
    """Per step the line decomposition moves ~2 x (1 - 1/R) of the field."""
    nv, ranks = 64, 4
    nbytes = measure_bytes(min(nx, 128), nv, ranks)
    field_bytes = min(nx, 128) * nv * 8
    expected = 2 * field_bytes * (1 - 1 / ranks)
    assert nbytes == pytest.approx(expected, rel=0.05)

def test_communication_grows_with_ranks(nx):
    b2 = measure_bytes(min(nx, 128), 64, 2)
    b8 = measure_bytes(min(nx, 128), 64, 8)
    assert b8 > b2


@pytest.mark.parametrize("ranks", [1, 4])
def test_distributed_step_speed(benchmark, nx, ranks):
    builder = SplineBuilder(BSplineSpec(degree=3, n_points=min(nx, 128)))
    dist = DistributedAdvection1D(
        builder, np.linspace(-1, 1, 64), 0.01, ranks=ranks, decompose="line"
    )
    f = np.ones((64, min(nx, 128)))
    benchmark.pedantic(lambda: dist.step(f), rounds=3, iterations=1)


# -- standalone entry -------------------------------------------------------


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    print(render_scaling(1000, 100_000))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
