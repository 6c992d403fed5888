"""``pbtrs`` — solve ``A x = b`` given the band Cholesky factor from
``pbtrf`` (LAPACK ``dpbtrs``): a banded forward substitution with ``L``
(or ``Uᵀ`` for upper storage) followed by a banded backward substitution
with ``Lᵀ`` (or ``U``), in place on ``b``.

:func:`serial_pbtrs` handles one right-hand side with scalar loops (the
KokkosBatched serial kernel); :func:`pbtrs` handles an ``(n, batch)`` block
with the batch axis vectorized.  For lower storage, the one the plans
factor, its row views and ``(kd, 1)`` factor columns are prepared once per
call, so a forward step is one divide plus one broadcast update of the
``kd`` rows below, and a backward step is one broadcast multiply, the
``kd`` subtractions in LAPACK's order and one divide: the scalar
operations, and their order, of the per-step loop it replaced.  Upper
storage runs :func:`_solve_upper`, one scalar-indexed update per band
entry.
"""

from __future__ import annotations

from repro.backend import Array, get_namespace
from repro.exceptions import ShapeError
from repro.kbatched.band import band_columns
from repro.kbatched.types import Uplo


def _check(ab: Array, b: Array) -> int:
    kd = ab.shape[0] - 1
    n = ab.shape[1]
    if b.shape[0] != n:
        raise ShapeError(f"b has leading extent {b.shape[0]}, expected n={n}")
    return kd


def _solve_upper(ab: Array, b: Array) -> None:
    """Solve ``UᵀU x = b`` from upper band storage (works for 1-D or 2-D
    ``b``; every scalar step broadcasts over the batch axis)."""
    kd = ab.shape[0] - 1
    n = ab.shape[1]
    # Forward substitution with Uᵀ (lower): U[j-r, j] is at ab[kd - r, j].
    for j in range(n):
        lm = min(kd, j)
        for r in range(1, lm + 1):
            b[j, ...] -= ab[kd - r, j] * b[j - r, ...]
        b[j, ...] /= ab[kd, j]
    # Backward substitution with U: U[j, j+c] is at ab[kd - c, j + c].
    for j in range(n - 1, -1, -1):
        kn = min(kd, n - 1 - j)
        for c in range(1, kn + 1):
            b[j, ...] -= ab[kd - c, j + c] * b[j + c, ...]
        b[j, ...] /= ab[kd, j]


def serial_pbtrs(
    ab: Array,
    b: Array,
    uplo: Uplo = Uplo.LOWER,
) -> int:
    """Solve for a single right-hand side, in place. Returns 0 on success."""
    kd = _check(ab, b)
    n = ab.shape[1]
    if uplo is Uplo.UPPER:
        _solve_upper(ab, b)
        return 0
    # Forward substitution: L y = b.
    for j in range(n):
        b[j] /= ab[0, j]
        kn = min(kd, n - 1 - j)
        for r in range(1, kn + 1):
            b[j + r] -= ab[r, j] * b[j]
    # Backward substitution: L^T x = y.
    for j in range(n - 1, -1, -1):
        kn = min(kd, n - 1 - j)
        acc = b[j]
        for r in range(1, kn + 1):
            acc -= ab[r, j] * b[j + r]
        b[j] = acc / ab[0, j]
    return 0


def pbtrs(
    ab: Array,
    b: Array,
    uplo: Uplo = Uplo.LOWER,
) -> int:
    """Solve for an ``(n, batch)`` right-hand-side block, in place."""
    kd = _check(ab, b)
    if b.ndim != 2:
        raise ShapeError(f"b must have shape (n, batch), got {b.shape}")
    if uplo is Uplo.UPPER:
        _solve_upper(ab, b)
        return 0
    n = ab.shape[1]
    xp = get_namespace(ab, b)
    diag = ab[0, ...]
    cols = band_columns(xp, ab[1:, ...])  # cols[j, r - 1] = L[j + r, j]
    rows = [b[j : j + 1, ...] for j in range(n)]
    # Forward substitution: L y = b, column j updating the kn rows below.
    for j in range(n):
        row = rows[j]
        row /= diag[j]
        kn = min(kd, n - 1 - j)
        below = b[j + 1 : j + 1 + kn, ...]
        below -= cols[j, :kn, :] * row
    # Backward substitution: Lᵀ x = y, subtracting r = 1..kn in order.
    for j in range(n - 1, -1, -1):
        row = rows[j]
        kn = min(kd, n - 1 - j)
        prods = cols[j, :kn, :] * b[j + 1 : j + 1 + kn, ...]
        for r in range(kn):
            row -= prods[r : r + 1, ...]
        row /= diag[j]
    return 0
