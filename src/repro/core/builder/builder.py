"""Spline builder — the user-facing factor-once interpolation solver.

``SplineBuilder`` assembles the collocation matrix of a B-spline space at
its Greville points, factors it once through the structure-matched plan
(Table I, Algorithm 1 for periodic wrap), and then turns function values
into spline coefficients for arbitrarily many right-hand sides::

    spec = BSplineSpec(degree=3, n_points=1000)
    builder = SplineBuilder(spec, version=2)
    coeffs = builder.solve(f_values)          # (n,) or (n, batch)

Two execution backends mirror the paper's §II-C split:

* ``backend="vectorized"`` — the ``(n, batch)`` block kernels; with a
  threaded execution space and a large enough batch, the block is split
  into per-worker slabs dispatched through ``parallel_for``;
* ``backend="serial"`` — ``parallel_for`` over batch columns calling the
  scalar ``serial_*`` kernels, the line-by-line Listing 2 analogue.

``version`` selects the §IV optimization level (0 = baseline, 1 = fused
chunks, 2 = fused chunks + sparse corners) and ``dtype`` the §IV-C working
precision.
"""

from __future__ import annotations

import numpy as np

from repro.backend import ascopy, get_namespace, is_numpy_namespace
from repro.core.builder.direct import DirectBandSolver
from repro.core.builder.schur import DEFAULT_CHUNK, DEFAULT_DROP_TOL, SchurSolver
from repro.core.spec import BSplineSpec
from repro.exceptions import BackendError, ShapeError
from repro.xspace import DefaultExecutionSpace, ExecutionSpace, parallel_for

__all__ = ["SplineBuilder", "DEFAULT_SLAB"]

#: default row-slab width for :meth:`SplineBuilder.solve_transposed`; on
#: short rows (n = 256) narrower slabs spend more in per-slab Python
#: overhead than in the solve itself
DEFAULT_SLAB = 1024

_BACKENDS = ("vectorized", "serial")


def _resolve_space(spec_or_space):
    """Accept either a :class:`BSplineSpec` or a prebuilt spline space."""
    if isinstance(spec_or_space, BSplineSpec):
        return spec_or_space, spec_or_space.make_space()
    return None, spec_or_space


class SplineBuilder:
    """Factor-once spline interpolation builder (Algorithm 1, §IV).

    Parameters
    ----------
    spec:
        A :class:`~repro.core.spec.BSplineSpec` (the space is assembled
        from it) or an already-built spline space such as
        :class:`~repro.core.bsplines.space.PeriodicBSplines`.
    version:
        §IV optimization level 0/1/2, forwarded to every solve.
    backend:
        ``"vectorized"`` (batched block kernels) or ``"serial"``
        (``parallel_for`` over columns with scalar kernels).
    space:
        Execution space for ``parallel_for`` dispatch (default serial).
    dtype:
        Working precision of the solve phase; setup always runs float64.
    engine:
        Optional :class:`~repro.runtime.SolveEngine`.  When given,
        out-of-place :meth:`solve` calls are submitted to the engine —
        coalescing with every other caller of the same spec — instead of
        running the solver directly; in-place solves (already batched)
        stay direct.  Requires a :class:`BSplineSpec` *spec* so the
        engine can key its plan cache; this builder's own factorization
        is donated to that cache so it is never repeated.
    """

    def __init__(
        self,
        spec,
        version: int = 2,
        backend: str = "vectorized",
        space: ExecutionSpace | None = None,
        dtype=np.float64,
        chunk: int = DEFAULT_CHUNK,
        drop_tol: float = DEFAULT_DROP_TOL,
        engine=None,
    ) -> None:
        if version not in (0, 1, 2):
            raise ValueError(
                f"unknown optimization version {version}; the paper defines "
                "versions 0 (baseline), 1 (fusion) and 2 (fusion + spmv)"
            )
        if backend not in _BACKENDS:
            raise BackendError(
                f"unknown backend {backend!r}; available backends: {_BACKENDS}"
            )
        self.spec, self.space_1d = _resolve_space(spec)
        self.version = int(version)
        self.backend = backend
        self.exec_space = space if space is not None else DefaultExecutionSpace
        self.dtype = np.dtype(dtype)
        self.chunk = int(chunk)
        self.drop_tol = float(drop_tol)
        self.matrix = self.space_1d.collocation_matrix()
        periodic = getattr(self.space_1d, "period", None) is not None
        if periodic:
            self.solver = SchurSolver(
                self.matrix, chunk=chunk, drop_tol=drop_tol, dtype=self.dtype
            )
        else:
            self.solver = DirectBandSolver(
                self.matrix, chunk=chunk, dtype=self.dtype
            )
        self.n = self.space_1d.nbasis
        self.engine = engine
        if engine is not None:
            if self.spec is None:
                raise ValueError(
                    "engine routing needs a BSplineSpec (prebuilt spline "
                    "spaces cannot key the engine's plan cache)"
                )
            # Donate this factorization so the engine never repeats it.
            engine.plan_cache.put(self.plan_key(), self)

    def plan_key(self):
        """This builder's configuration as a plan-cache key.

        Raises :class:`ValueError` for builders made from prebuilt spline
        spaces, which have no hashable spec.
        """
        from repro.runtime.plan_cache import PlanKey

        if self.spec is None:
            raise ValueError("builders made from prebuilt spaces have no plan key")
        return PlanKey.from_spec(
            self.spec,
            version=self.version,
            dtype=self.dtype,
            chunk=self.chunk,
            drop_tol=self.drop_tol,
            backend=self.backend,
        )

    @property
    def solver_name(self) -> str:
        """The Table I LAPACK solver backing this builder."""
        return self.solver.solver_name

    def interpolation_points(self) -> np.ndarray:
        """The Greville abscissae where input values must be sampled."""
        return np.array(self.space_1d.greville, copy=True)

    # -- solve ------------------------------------------------------------

    def _check_rhs(self, f: np.ndarray, in_place: bool) -> None:
        if in_place:
            if f.ndim != 2:
                raise ShapeError(
                    f"in-place solve needs a 2-D (n, batch) array, got {f.shape}"
                )
            if f.dtype != self.dtype:
                raise ShapeError(
                    f"in-place solve needs dtype {self.dtype}, got {f.dtype}"
                )
        elif f.ndim not in (1, 2):
            raise ShapeError(
                f"expected a 1-D or 2-D right-hand side, got shape {f.shape}"
            )
        if f.shape[0] != self.n:
            raise ShapeError(
                f"right-hand side leading extent {f.shape[0]} does not match "
                f"the {self.n} basis functions"
            )

    def _dispatch(self, work: np.ndarray) -> None:
        """Run the configured backend on an ``(n, batch)`` block, in place."""
        if self.backend == "serial":
            parallel_for(
                f"SplineBuilder::solve_serial[{self.solver_name}]",
                work.shape[1],
                lambda j: self.solver.solve_serial(work[:, j]),
                space=self.exec_space,
            )
            return
        nworkers = self.exec_space.concurrency
        batch = work.shape[1]
        if nworkers > 1 and batch >= 2 * nworkers:
            # One contiguous column slab per worker; each slab runs the
            # batched kernels independently (§II-C "parallel over batch").
            bounds = np.linspace(0, batch, nworkers + 1, dtype=int)
            parallel_for(
                f"SplineBuilder::solve[{self.solver_name}]",
                nworkers,
                lambda k: self.solver.solve(
                    work[:, bounds[k] : bounds[k + 1]], version=self.version
                ),
                space=self.exec_space,
            )
        else:
            self.solver.solve(work, version=self.version)

    def solve(self, f: np.ndarray, in_place: bool = False) -> np.ndarray:
        """Turn sampled values into spline coefficients.

        Out-of-place (default): *f* may be 1-D ``(n,)`` or 2-D
        ``(n, batch)`` of any real dtype; a cast copy is solved and
        returned with matching dimensionality.  With ``in_place=True``,
        *f* must be a 2-D array of the builder's dtype; it is overwritten
        with the coefficients and returned.

        When an engine is attached, out-of-place solves are submitted to
        it (and may coalesce with other callers' requests); in-place
        solves always run the solver directly.

        The result lives in the namespace of *f*: pass a cupy / torch /
        strict array in and the coefficients come back from the same
        library (the factorization is staged into that namespace once and
        cached).  Engine coalescing is a host-NumPy transport, so only
        NumPy right-hand sides route through an attached engine; other
        namespaces always solve directly.
        """
        xp = get_namespace(f, default=np)
        if is_numpy_namespace(xp):
            f = np.asarray(f)
        self._check_rhs(f, in_place)
        if self.engine is not None and not in_place and is_numpy_namespace(xp):
            return self.engine.solve(
                self.spec,
                f,
                version=self.version,
                dtype=self.dtype,
                backend=self.backend,
            )
        if in_place:
            work = f
        else:
            work = ascopy(f, dtype=self.dtype, xp=xp)
            if work.ndim == 1:
                work = xp.reshape(work, (work.shape[0], 1))
        self._dispatch(work)
        if in_place:
            return f
        if f.ndim == 1:
            # reshape may have copied on non-NumPy backends; flatten the
            # solved buffer itself rather than re-viewing f's copy.
            return work[:, 0] if is_numpy_namespace(xp) else xp.reshape(
                work, (self.n,)
            )
        return work

    def solve_transposed(self, fb: np.ndarray, slab: int = DEFAULT_SLAB) -> np.ndarray:
        """In-place solve for a transposed ``(batch, n)`` layout.

        Distributed advection stores fields batch-major; rather than
        transposing the whole array we sweep it in ``slab``-row blocks,
        transposing each into a small contiguous scratch buffer (the
        LayoutRight-friendly access pattern of §VI's future-work note).
        """
        if slab < 1:
            raise ValueError(f"slab must be a positive row count, got {slab}")
        if fb.ndim != 2:
            raise ShapeError(
                f"solve_transposed needs a 2-D (batch, n) array, got {fb.shape}"
            )
        if fb.shape[1] != self.n:
            raise ShapeError(
                f"trailing extent {fb.shape[1]} does not match the "
                f"{self.n} basis functions"
            )
        if fb.dtype != self.dtype:
            raise ShapeError(
                f"solve_transposed needs dtype {self.dtype}, got {fb.dtype}"
            )
        xp = get_namespace(fb, default=np)
        for start in range(0, fb.shape[0], slab):
            block = fb[start : start + slab, ...]
            if is_numpy_namespace(xp):
                scratch = np.ascontiguousarray(block.T)
            else:
                scratch = xp.asarray(block.T, copy=True)
            self.solver.solve(scratch, version=self.version)
            block[...] = scratch.T
        return fb

    def __repr__(self) -> str:
        return (
            f"SplineBuilder(n={self.n}, degree={self.space_1d.degree}, "
            f"version={self.version}, backend={self.backend!r}, "
            f"solver={self.solver_name}, dtype={self.dtype})"
        )
