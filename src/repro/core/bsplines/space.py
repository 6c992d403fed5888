"""Periodic B-spline space: basis bookkeeping, Greville points and the
collocation (spline) matrix of Eq. (2) / Fig. 1.

A degree-``d`` periodic spline space over ``n`` cells has exactly ``n``
independent basis functions: the ``n + d`` plain B-splines living on the
periodically extended knot vector are identified modulo ``n``.  The
interpolation conditions are placed at the **Greville abscissae** (the knot
averages), which for uniform odd degrees coincide with the break points and
for even degrees with the cell mid-points — exactly the convention of the
paper's DDC spline builder.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.core.bsplines.basis import eval_basis, eval_basis_derivs, find_cell
from repro.core.bsplines.knots import periodic_knots
from repro.exceptions import ShapeError


class PeriodicBSplines:
    """A periodic B-spline space of given *degree* over *breaks*.

    Parameters
    ----------
    breaks:
        Strictly increasing break points; ``breaks[-1] - breaks[0]`` is the
        period and the last point is identified with the first.
    degree:
        Spline degree (the paper evaluates 3, 4 and 5; any ``>= 1`` works).
    """

    def __init__(self, breaks: np.ndarray, degree: int):
        self.breaks = np.asarray(breaks, dtype=np.float64)
        self.degree = int(degree)
        self.knots = periodic_knots(self.breaks, self.degree)
        #: Number of cells == number of periodic basis functions == matrix size.
        self.nbasis = self.breaks.size - 1
        self.xmin = float(self.breaks[0])
        self.xmax = float(self.breaks[-1])
        self.period = self.xmax - self.xmin
        widths = np.diff(self.breaks)
        #: Uniform grids take an O(1) arithmetic cell lookup instead of a
        #: binary search — the hot path of batched evaluation.
        self.is_uniform = bool(np.allclose(widths, widths[0], rtol=1e-12))
        self._h = float(widths[0])

    # -- geometry ---------------------------------------------------------
    @property
    def ncells(self) -> int:
        return self.nbasis

    def wrap(self, x) -> np.ndarray:
        """Map *x* periodically into ``[xmin, xmax)``."""
        return self.xmin + np.mod(np.asarray(x, dtype=np.float64) - self.xmin,
                                  self.period)

    @cached_property
    def greville(self) -> np.ndarray:
        """Greville abscissae ``g_j = mean(t[j+1 .. j+d])`` wrapped into the
        domain — the interpolation points, one per basis function."""
        d, n = self.degree, self.nbasis
        pts = np.empty(n)
        # Periodic basis j is the plain B-spline with support
        # [t_j, t_{j+d+1}); in the stored (offset-by-d) knot array its
        # Greville average t_{j+1}..t_{j+d} sits at slice [j+d+1, j+2d+1).
        for j in range(n):
            pts[j] = np.mean(self.knots[j + d + 1 : j + 2 * d + 1])
        return self.wrap(pts)

    @cached_property
    def quadrature_weights(self) -> np.ndarray:
        """Exact integrals of the basis functions over one period.

        ``∫ B_j = (t_{j+d+1} − t_j) / (d + 1)``, so ``Σ_j c_j w_j`` is the
        *exact* integral of the spline — the spline-consistent quadrature
        the Vlasov diagnostics use.
        """
        d, n = self.degree, self.nbasis
        j = np.arange(n)
        return (self.knots[j + 2 * d + 1] - self.knots[j + d]) / (d + 1)

    def _cells(self, xw):
        """Cell index of each (already-wrapped) point; O(1) on uniform grids."""
        if self.is_uniform:
            idx = np.floor((np.asarray(xw) - self.xmin) / self._h).astype(np.int64)
            return np.clip(idx, 0, self.ncells - 1)
        return find_cell(self.breaks, xw)

    # -- evaluation ---------------------------------------------------------
    def eval_nonzero_basis(self, x):
        """Values of the ``d+1`` non-zero basis functions at *x* (wrapped).

        Returns ``(indices, values)`` where ``indices`` are the *periodic*
        basis indices (``(cell - d + r) mod n``) and ``values`` the matching
        basis values; both have shape ``(d+1,)`` for scalar *x* or
        ``(d+1, len(x))`` for arrays.
        """
        xw = self.wrap(x)
        cells = self._cells(xw)
        spans = cells + self.degree  # knot-array span: t[span] <= x < t[span+1]
        values = eval_basis(self.knots, self.degree, spans, xw)
        offsets = np.arange(self.degree + 1, dtype=np.int64)
        if np.ndim(cells) == 0:
            indices = (int(cells) - self.degree + offsets) % self.nbasis
        else:
            indices = (np.asarray(cells)[None, :] - self.degree
                       + offsets[:, None]) % self.nbasis
        return indices, values

    def eval_nonzero_basis_derivs(self, x):
        """Like :meth:`eval_nonzero_basis` but returning
        ``(indices, values, derivatives)``."""
        xw = self.wrap(x)
        cells = self._cells(xw)
        spans = cells + self.degree
        values, derivs = eval_basis_derivs(self.knots, self.degree, spans, xw)
        offsets = np.arange(self.degree + 1, dtype=np.int64)
        if np.ndim(cells) == 0:
            indices = (int(cells) - self.degree + offsets) % self.nbasis
        else:
            indices = (np.asarray(cells)[None, :] - self.degree
                       + offsets[:, None]) % self.nbasis
        return indices, values, derivs

    # -- the spline matrix --------------------------------------------------
    def collocation_matrix(self, points: np.ndarray = None) -> np.ndarray:
        """Dense ``(n, n)`` spline matrix ``A[i, j] = P_j(x_i)``.

        With the default Greville *points* this is exactly the matrix ``A``
        of Eq. (2) whose degree-3 uniform instance is shown in Fig. 1: a
        cyclic band with corner entries from the periodic wrap.

        On a uniform space with the default points every row is the first
        row shifted, so the ``d+1`` basis values are evaluated once, at the
        first point, and written into every row at the same offsets.  The
        result is an exact circulant: evaluating each row at its own
        rounded global knot would make the rows differ by the rounding of
        the local coordinate (up to 1e-13 at n=1000), an asymmetry the
        symmetric solvers, which read only one triangle, cannot honour.
        """
        pts = self.greville if points is None else np.asarray(points, dtype=np.float64)
        if pts.ndim != 1:
            raise ShapeError(f"points must be 1-D, got shape {pts.shape}")
        n = self.nbasis
        a = np.zeros((pts.size, n))
        if points is None and self.is_uniform:
            first, values = self.eval_nonzero_basis(pts[0])
            rows = np.arange(n)
            for idx, value in zip(first, values):
                a[rows, (idx + rows) % n] = value
            return a
        indices, values = self.eval_nonzero_basis(pts)
        rows = np.broadcast_to(np.arange(pts.size)[None, :], indices.shape)
        np.add.at(a, (rows.ravel(), indices.ravel()), values.ravel())
        return a

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PeriodicBSplines(degree={self.degree}, ncells={self.ncells}, "
            f"domain=[{self.xmin}, {self.xmax}))"
        )
