"""``pttrs`` — solve ``A x = b`` given the LDLᵀ factorization from ``pttrf``.

:func:`serial_pttrs` is the line-by-line port of the paper's Listing 1
(``SerialPttrsInternal<Uplo::Lower, Algo::Pttrs::Unblocked>::invoke``): a
forward substitution with the unit bidiagonal ``L``, a combined
``D``-scaling and backward substitution with ``Lᵀ`` — strictly sequential
along the matrix dimension, in place on ``b``.

:func:`pttrs` applies the identical recurrence to an ``(n, batch)`` block
with every step vectorized across the batch axis — the role the
``parallel_for`` over batches plays on the GPU.  The row views of ``b`` are
taken once per call, so each matrix row costs two in-place vector
operations and no re-indexing of the block.
"""

from __future__ import annotations

from repro.backend import Array
from repro.exceptions import ShapeError
from repro.kbatched.types import Uplo


def serial_pttrs(
    d: Array,
    e: Array,
    b: Array,
    uplo: Uplo = Uplo.LOWER,
) -> int:
    """Solve for a single right-hand side, in place.

    Parameters
    ----------
    d, e:
        Factorized diagonal / multipliers from :func:`~repro.kbatched.pttrf`.
        With ``uplo=UPPER`` the factorization is interpreted as ``UᵀDU``
        with ``e`` the super-diagonal multipliers — the arithmetic is
        identical for a symmetric matrix, matching LAPACK.
    b:
        Right-hand side of length ``n``; overwritten with the solution.

    Returns
    -------
    int
        0 on success (KokkosBatched convention).
    """
    del uplo  # single arithmetic path, kept for API fidelity
    n = d.shape[0]
    if b.shape[0] != n:
        raise ShapeError(f"b has length {b.shape[0]}, expected {n}")
    if n == 0:
        return 0
    # Solve A * X = B using the factorization L * D * L**T (Listing 1)
    for i in range(1, n):
        b[i] -= e[i - 1] * b[i - 1]
    b[n - 1] /= d[n - 1]
    for i in range(n - 2, -1, -1):
        b[i] = b[i] / d[i] - b[i + 1] * e[i]
    return 0


def pttrs(
    d: Array,
    e: Array,
    b: Array,
    uplo: Uplo = Uplo.LOWER,
) -> int:
    """Solve for an ``(n, batch)`` right-hand-side block, in place.

    Each of the ``2n`` recurrence steps is a single vector operation over
    the batch axis on a row view prepared once per call, so the
    Python-level loop length is ``O(n)`` independent of the batch size.
    """
    del uplo
    n = d.shape[0]
    if b.ndim != 2 or b.shape[0] != n:
        raise ShapeError(f"b must have shape (n={n}, batch), got {b.shape}")
    if n == 0:
        return 0
    rows = [b[i, ...] for i in range(n)]
    prev = rows[0]
    for i in range(1, n):
        row = rows[i]
        row -= e[i - 1] * prev
        prev = row
    prev /= d[n - 1]
    for i in range(n - 2, -1, -1):
        row = rows[i]
        row /= d[i]
        row -= e[i] * prev
        prev = row
    return 0
