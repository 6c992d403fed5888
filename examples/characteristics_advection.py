"""Port of the artifact's profiling app ``examples/characteristics_advection.cpp``.

The paper's Appendix A runs ``./app <non_uniformity> <degree>`` under
Kokkos-tools and reads per-region timings with ``kp_reader``:

    Regions:
    - ddc_splines_solve (REGION) 0.029775 10 0.002978 ...

This port takes the same two arguments, runs the same 10 profiled
iterations of the spline build at the paper's §IV problem shape (scaled by
``REPRO_NX`` / ``REPRO_NV``), times each version's solves as a
:class:`~repro.runtime.telemetry.Telemetry` span, and prints the same
region report from the telemetry snapshot — plus the optimization-version
ladder.

Run:  python examples/characteristics_advection.py 0 3
      (0 = uniform / 1 = non-uniform, degree = 3|4|5)
"""

import os
import sys

import numpy as np

from repro.bench import default_field
from repro.core import BSplineSpec, SplineBuilder
from repro.runtime.telemetry import Telemetry


def run(non_uniform: int, degree: int, nx: int, nv: int, iterations: int = 10):
    spec = BSplineSpec(degree=degree, n_points=nx, uniform=(non_uniform == 0))
    print(
        f"characteristics_advection: {spec.label}, (Nx, Nv) = ({nx}, {nv}), "
        f"{iterations} iterations"
    )
    f = default_field(np.linspace(0.0, 1.0, nx, endpoint=False), nv).T.copy()
    telemetry = Telemetry()
    for version in (0, 1, 2):
        builder = SplineBuilder(spec, version=version)
        work = f.copy()
        for _ in range(iterations):
            with telemetry.span(f"ddc_splines_solve_v{version}"):
                builder.solve(work, in_place=True)
    series = telemetry.snapshot()["series"]
    totals = {}
    print("\nRegions:\n")
    for version in (0, 1, 2):
        label = f"ddc_splines_solve_v{version}"
        region = series[f"{label}.seconds"]
        totals[version] = region["mean"] * region["count"]
        print(
            f"- {label} (REGION) {totals[version]:.6f} {region['count']} "
            f"{region['mean']:.6f}"
        )
    v0, v1, v2 = totals[0], totals[1], totals[2]
    print(
        f"\nspeedups: kernel fusion {v0 / v1:.2f}x, gemv->spmv {v1 / v2:.2f}x, "
        f"total {v0 / v2:.2f}x"
    )
    print(
        "(On CPUs fusion is marginal — the paper's own Icelake column gains "
        "only 1.30x\n vs 2.25x on A100 — while the sparse-corner step wins "
        "everywhere; see Table III.)"
    )


def main() -> None:
    non_uniform = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    degree = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    nx = int(os.environ.get("REPRO_NX", 512))
    nv = int(os.environ.get("REPRO_NV", 20_000))
    run(non_uniform, degree, nx, nv)


if __name__ == "__main__":
    main()
