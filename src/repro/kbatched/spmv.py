"""Sparse matrix–vector products on COO storage — the paper's Listing 6.

The key optimization of §IV-D: the dense corner-block ``gemv`` touched every
element of the right-hand sides, but the blocks have only a handful of
non-zeros, so iterating over the ``nnz`` coordinate list "drastically
reduces the number of operations" and suppresses the extra memory traffic
(§IV-D reports total bytes dropping from 3.16/2.37 GB back to 1.60/1.59 GB).
"""

from __future__ import annotations

from repro.backend import Array
from repro.exceptions import ShapeError
from repro.kbatched.coo import Coo


def serial_coo_spmv(alpha: float, a: Coo, x: Array, y: Array) -> int:
    """``y += alpha * A @ x`` for a single vector pair, looping over nnz.

    This is exactly the paper's in-kernel loop::

        for nz_idx in range(block.nnz()):
            y[rows_idx[nz]] += alpha * values[nz] * x[cols_idx[nz]]

    Duplicate coordinates accumulate, matching COO semantics.
    """
    if x.shape[0] != a.ncols or y.shape[0] != a.nrows:
        raise ShapeError(
            f"spmv shape mismatch: A{a.shape} x{x.shape} y{y.shape}"
        )
    for nz in range(a.nnz):
        r = int(a.rows_idx[nz])
        c = int(a.cols_idx[nz])
        y[r] += alpha * a.values[nz] * x[c]
    return 0


def coo_spmm(alpha: float, a: Coo, x: Array, y: Array) -> int:
    """``Y += alpha * A @ X`` for ``(n, batch)`` blocks, vectorized over batch.

    The outer loop runs over the (tiny) non-zero list, with the coordinates
    taken as Python ints once per call; every step is then one multiply
    and one in-place add across the batch axis on a row view of ``Y``.
    With ``nnz ≈ 50`` and ``batch ≈ 1e5`` this replaces an
    ``O(N·batch)`` dense update by an ``O(nnz·batch)`` one — the same
    arithmetic saving as the paper's GPU kernel.
    """
    if x.ndim != 2 or y.ndim != 2:
        raise ShapeError("coo_spmm expects (n, batch) blocks")
    if x.shape[0] != a.ncols or y.shape[0] != a.nrows or x.shape[1] != y.shape[1]:
        raise ShapeError(
            f"spmm shape mismatch: A{a.shape} X{x.shape} Y{y.shape}"
        )
    values = a.values
    coords = zip(a.rows_idx.tolist(), a.cols_idx.tolist())
    for nz, (r, c) in enumerate(coords):
        row = y[r, ...]
        # A scalar product per non-zero, not ``alpha * values``: NumPy's
        # scalar and vector complex multiplies round differently.
        row += (alpha * values[nz]) * x[c, ...]
    return 0
