"""Evaluation of 2-D tensor-product splines."""

from __future__ import annotations

import numpy as np

from repro.core.evaluator.evaluator import _promoted
from repro.exceptions import ShapeError


class SplineEvaluator2D:
    """Evaluates ``Σ_{ij} c[i,j] B_i(x) B_j(y)`` splines.

    Two entry points: :meth:`eval_points` for scattered ``(x, y)`` pairs
    (the semi-Lagrangian use: one foot per grid point) and
    :meth:`eval_grid` for a tensor grid of evaluation points (diagnostics,
    refinement), which contracts through two small dense operators instead
    of per-point gathers.
    """

    def __init__(self, space_x, space_y):
        self.space_x = space_x
        self.space_y = space_y

    def _check(self, coeffs: np.ndarray) -> np.ndarray:
        coeffs = _promoted(coeffs)
        if coeffs.ndim != 2 or coeffs.shape != (self.space_x.nbasis,
                                                self.space_y.nbasis):
            raise ShapeError(
                f"coeffs must have shape ({self.space_x.nbasis}, "
                f"{self.space_y.nbasis}), got {coeffs.shape}"
            )
        return coeffs

    def eval_points(self, coeffs: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Values at scattered points ``(x[k], y[k])``; returns shape ``(npts,)``."""
        coeffs = self._check(coeffs)
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        y = np.atleast_1d(np.asarray(y, dtype=np.float64))
        if x.shape != y.shape or x.ndim != 1:
            raise ShapeError(
                f"x and y must be matching 1-D arrays, got {x.shape} / {y.shape}"
            )
        ix, vx = self.space_x.eval_nonzero_basis(x)  # (dx+1, npts)
        iy, vy = self.space_y.eval_nonzero_basis(y)  # (dy+1, npts)
        gathered = coeffs[ix[:, None, :], iy[None, :, :]]  # (dx+1, dy+1, npts)
        return np.einsum("rp,sp,rsp->p", vx, vy, gathered)

    def eval_grid(self, coeffs: np.ndarray, xg: np.ndarray, yg: np.ndarray) -> np.ndarray:
        """Values on the tensor grid ``xg × yg``; returns ``(len(xg), len(yg))``.

        Uses the collocation operators ``B_x C B_yᵀ`` — two dense matmuls,
        far cheaper than per-point gathers when the grid is large.
        """
        coeffs = self._check(coeffs)
        bx = self.space_x.collocation_matrix(np.asarray(xg, dtype=np.float64))
        by = self.space_y.collocation_matrix(np.asarray(yg, dtype=np.float64))
        return bx @ coeffs @ by.T
