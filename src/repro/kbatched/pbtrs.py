"""``pbtrs`` — solve ``A x = b`` given the band Cholesky factor from
``pbtrf`` (LAPACK ``dpbtrs``): a banded forward substitution with ``L``
(or ``Uᵀ`` for upper storage) followed by a banded backward substitution
with ``Lᵀ`` (or ``U``), in place on ``b``.

:func:`serial_pbtrs` handles one right-hand side with scalar loops (the
KokkosBatched serial kernel); :func:`pbtrs` handles an ``(n, batch)`` block
with the batch axis vectorized — the inner band loop of length ``kd`` stays
scalar, so each matrix step costs ``kd`` vector operations.
"""

from __future__ import annotations

from repro.backend import Array
from repro.exceptions import ShapeError
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
    n = ab.shape[1]
    if uplo is Uplo.UPPER:
        _solve_upper(ab, b)
        return 0
    for j in range(n):
        b[j, ...] /= ab[0, j]
        kn = min(kd, n - 1 - j)
        for r in range(1, kn + 1):
            b[j + r, ...] -= ab[r, j] * b[j, ...]
    for j in range(n - 1, -1, -1):
        kn = min(kd, n - 1 - j)
        for r in range(1, kn + 1):
            b[j, ...] -= ab[r, j] * b[j + r, ...]
        b[j, ...] /= ab[0, j]
    return 0
