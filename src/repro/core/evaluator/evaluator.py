"""Batched spline evaluation — the second half of spline interpolation.

The semi-Lagrangian benchmark (Algorithm 2) evaluates the freshly built
spline at the foot of every characteristic.  Feet differ per batch column
(each ``v_j`` advects at a different speed), so the evaluator supports
both shared points (``x`` of shape ``(npts,)`` applied to every batch
column) and per-column points (``x`` of shape ``(npts, batch)``).

Per-column evaluation walks the points in fixed blocks of
``_POINT_BLOCK`` points, so every per-point temporary of a block (Cox-de
Boor levels, basis indices, gathered coefficients) stays cache-resident
whatever the batch size.  The walk follows the coefficient layout: row by
row over ``(npts, batch)`` for x-major coefficients, column by column for
batch-major ones, so consecutive points gather from the same coefficient
row.  Each block gathers with one flat ``np.take`` per basis offset and
accumulates the ``d + 1`` products in the order ``np.sum(axis=0)`` adds
them, so every value is bitwise what a single pass over all points gives.

Coefficients are evaluated in ``np.result_type(coeffs.dtype, float64)``:
real input computes in float64 (float32 promotes), complex input stays
complex.
"""

from __future__ import annotations

import numpy as np

from repro.core.bsplines.space import PeriodicBSplines
from repro.exceptions import ShapeError

#: Points per block of per-column evaluation: each float64 temporary of a
#: block is 128 KiB, so a block's working set stays in a 2 MiB L2.
_POINT_BLOCK = 16384


def _promoted(coeffs) -> np.ndarray:
    """*coeffs* as float64, or as complex128 when they are complex."""
    coeffs = np.asarray(coeffs)
    return coeffs.astype(np.result_type(coeffs.dtype, np.float64), copy=False)


class SplineEvaluator:
    """Evaluates periodic splines given their coefficient blocks."""

    def __init__(self, space: PeriodicBSplines):
        self.space = space

    # -- single coefficient vector -----------------------------------------
    def eval_1d(self, coeffs: np.ndarray, x) -> np.ndarray:
        """Evaluate one spline (``coeffs`` of length ``n``) at points *x*."""
        coeffs = _promoted(coeffs)
        if coeffs.ndim != 1 or coeffs.shape[0] != self.space.nbasis:
            raise ShapeError(
                f"coeffs must have length {self.space.nbasis}, got {coeffs.shape}"
            )
        indices, values = self.space.eval_nonzero_basis(x)
        return np.sum(values * coeffs[indices], axis=0)

    def eval_deriv_1d(self, coeffs: np.ndarray, x) -> np.ndarray:
        """First derivative of one spline at points *x*."""
        coeffs = _promoted(coeffs)
        if coeffs.ndim != 1 or coeffs.shape[0] != self.space.nbasis:
            raise ShapeError(
                f"coeffs must have length {self.space.nbasis}, got {coeffs.shape}"
            )
        indices, _, derivs = self.space.eval_nonzero_basis_derivs(x)
        return np.sum(derivs * coeffs[indices], axis=0)

    def integrate(self, coeffs: np.ndarray) -> np.ndarray:
        """Exact integral of the spline(s) over the domain.

        ``coeffs`` of shape ``(n,)`` returns a scalar (a Python ``complex``
        for complex coefficients); ``(n, batch)`` returns per-column
        integrals.  Exact because B-spline integrals are knot differences
        (see ``quadrature_weights``).
        """
        coeffs = _promoted(coeffs)
        if coeffs.shape[0] != self.space.nbasis:
            raise ShapeError(
                f"coeffs must have leading extent {self.space.nbasis}, "
                f"got {coeffs.shape}"
            )
        w = self.space.quadrature_weights
        if coeffs.ndim == 1:
            return (w @ coeffs).item()
        return w @ coeffs

    # -- batched ---------------------------------------------------------
    def eval_batched(
        self,
        coeffs: np.ndarray,
        x: np.ndarray,
        coeffs_batch_major: bool = False,
    ) -> np.ndarray:
        """Evaluate a coefficient block at points *x*.

        ``x`` of shape ``(npts,)``: the same points for every column —
        returns ``(npts, batch)``.  ``x`` of shape ``(npts, batch)``:
        per-column points — returns ``(npts, batch)``.

        ``coeffs`` is ``(n, batch)`` by default; with
        ``coeffs_batch_major=True`` it is ``(batch, n)`` — the storage
        layout the transpose-fused solve path
        (:meth:`~repro.core.SplineBuilder.solve_transposed`) produces, so
        no full transpose is needed between solving and evaluating.  The
        per-column result is then the transposed view of a C-contiguous
        ``(batch, npts)`` array, so transposing it back to the storage
        layout copies nothing.
        """
        coeffs = _promoted(coeffs)
        n_axis = 1 if coeffs_batch_major else 0
        if coeffs.ndim != 2 or coeffs.shape[n_axis] != self.space.nbasis:
            raise ShapeError(
                f"coeffs must have {self.space.nbasis} entries on axis "
                f"{n_axis}, got shape {coeffs.shape}"
            )
        nbatch = coeffs.shape[1 - n_axis]
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            indices, values = self.space.eval_nonzero_basis(x)
            # (d+1, npts) basis values contracted against the coefficient
            # gathers, (d+1, npts, batch) or (batch, d+1, npts).
            if coeffs_batch_major:
                return np.einsum("rp,brp->pb", values, coeffs[:, indices])
            return np.einsum("rp,rpb->pb", values, coeffs[indices])
        if x.ndim != 2 or x.shape[1] != nbatch:
            raise ShapeError(
                f"per-column points must have shape (npts, batch={nbatch}), "
                f"got {x.shape}"
            )
        # Walk the points in the coefficient layout's order, so consecutive
        # points gather from the same coefficient row: row by row over
        # (npts, batch) for x-major coefficients, column by column over
        # (batch, npts) for batch-major ones.
        walk = x.T if coeffs_batch_major else x
        out = np.empty(walk.shape, dtype=coeffs.dtype)
        flat = np.ascontiguousarray(coeffs).reshape(-1)
        # flat offset of coefficient (i, column j) is i*stride_n + j*stride_b
        stride_n, stride_b = (1, self.space.nbasis) if coeffs_batch_major else (nbatch, 1)
        col_start = np.arange(nbatch) * stride_b
        rows, width = walk.shape
        cstep = max(1, min(width, _POINT_BLOCK))
        rstep = _POINT_BLOCK // cstep
        for r0 in range(0, rows, rstep):
            for c0 in range(0, width, cstep):
                block = walk[r0 : r0 + rstep, c0 : c0 + cstep]
                nr, nc = block.shape
                if coeffs_batch_major:
                    start = col_start[r0 : r0 + nr, None]
                else:
                    start = col_start[c0 : c0 + nc]
                indices, values = self.space.eval_nonzero_basis(block.reshape(-1))
                shape = (values.shape[0], nr, nc)
                lin = indices.reshape(shape) * stride_n
                lin += start
                values = values.reshape(shape)
                # the d+1 products added in np.sum(axis=0)'s order, from +0.0
                dst = out[r0 : r0 + nr, c0 : c0 + nc]
                dst[...] = 0.0
                for r in range(shape[0]):
                    term = np.take(flat, lin[r])
                    term *= values[r]
                    dst += term
        return out.T if coeffs_batch_major else out

    def __call__(self, coeffs: np.ndarray, x) -> np.ndarray:
        """Dispatch on coefficient rank: 1-D → :meth:`eval_1d`, 2-D →
        :meth:`eval_batched`."""
        coeffs = np.asarray(coeffs)
        if coeffs.ndim == 1:
            return self.eval_1d(coeffs, x)
        return self.eval_batched(coeffs, x)
