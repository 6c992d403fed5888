"""``gbtrs`` — solve ``A x = b`` from the band LU factorization of
``gbtrf`` (LAPACK ``dgbtrs``, no-transpose): apply the recorded row
interchanges and the banded ``L`` forward sweep, then back-substitute with
the banded ``U`` (bandwidth ``kl + ku`` after fill-in).  In place on ``b``.

:func:`serial_gbtrs` is the per-RHS serial kernel; :func:`gbtrs` is the
batch-vectorized variant operating on ``(n, batch)`` blocks.  These solve
the non-uniform spline systems every time step, so unlike the
factorization they are performance-critical (Table V's non-uniform rows).
The block solve takes its row views, its ``(kl, 1)`` multiplier and
``(kl + ku, 1)`` ``U`` columns and its pivots as Python ints once per
call, so each matrix row costs one broadcast rank-1 update of the band
plus, in the backward sweep, one divide.
"""

from __future__ import annotations

# NumPy appears only as the ``ipiv`` plumbing shim (host int64 pivot
# indices); the solve arithmetic is namespace-agnostic.
import numpy as np

from repro.backend import Array, get_namespace
from repro.exceptions import ShapeError
from repro.kbatched.band import band_columns
from repro.kbatched.types import Trans


def _check(ab: Array, kl: int, ku: int, b: Array, trans: Trans) -> int:
    del trans
    if ab.shape[0] != 2 * kl + ku + 1:
        raise ShapeError(
            f"LU band storage must have 2*kl+ku+1={2 * kl + ku + 1} rows, "
            f"got shape {ab.shape}"
        )
    n = ab.shape[1]
    if b.shape[0] != n:
        raise ShapeError(f"b has leading extent {b.shape[0]}, expected n={n}")
    return n


def serial_gbtrs(
    ab: Array,
    ipiv: np.ndarray,
    b: Array,
    kl: int,
    ku: int,
    trans: Trans = Trans.NO_TRANSPOSE,
) -> int:
    """Solve for a single right-hand side, in place. Returns 0 on success.

    ``trans=TRANSPOSE`` solves ``Aᵀ x = b``: forward sweep with ``Uᵀ``,
    then the ``L`` multipliers applied transposed with the row
    interchanges undone in reverse order (LAPACK ``dgbtrs('T', ...)``).
    """
    n = _check(ab, kl, ku, b, trans)
    kv = kl + ku
    if trans is Trans.TRANSPOSE:
        for j in range(n):
            lm = min(kv, j)
            for r in range(1, lm + 1):
                b[j] -= ab[kv - r, j] * b[j - r]
            b[j] /= ab[kv, j]
        if kl > 0:
            for j in range(n - 2, -1, -1):
                km = min(kl, n - 1 - j)
                for r in range(1, km + 1):
                    b[j] -= ab[kv + r, j] * b[j + r]
                jp = int(ipiv[j])
                if jp != j:
                    tj = b[j]
                    b[j] = b[jp]
                    b[jp] = tj
        return 0
    if kl > 0:
        for j in range(n - 1):
            jp = int(ipiv[j])
            if jp != j:
                tj = b[j]
                b[j] = b[jp]
                b[jp] = tj
            km = min(kl, n - 1 - j)
            for r in range(1, km + 1):
                b[j + r] -= ab[kv + r, j] * b[j]
    for j in range(n - 1, -1, -1):
        b[j] /= ab[kv, j]
        lm = min(kv, j)
        for r in range(1, lm + 1):
            b[j - r] -= ab[kv - r, j] * b[j]
    return 0


def gbtrs(
    ab: Array,
    ipiv: np.ndarray,
    b: Array,
    kl: int,
    ku: int,
    trans: Trans = Trans.NO_TRANSPOSE,
) -> int:
    """Solve for an ``(n, batch)`` right-hand-side block, in place.

    Row interchanges become row swaps of the block; every elimination step
    is a rank-1 update of at most ``max(kl, kl + ku)`` block rows.
    """
    n = _check(ab, kl, ku, b, trans)
    if b.ndim != 2:
        raise ShapeError(f"b must have shape (n, batch), got {b.shape}")
    xp = get_namespace(ab, b)
    kv = kl + ku
    if trans is Trans.TRANSPOSE:
        # Only the condition estimator solves transposed; not a hot path.
        for j in range(n):
            lm = min(kv, j)
            if lm > 0:
                b[j, ...] -= ab[kv - lm : kv, j] @ b[j - lm : j, ...]
            b[j, ...] /= ab[kv, j]
        if kl > 0:
            for j in range(n - 2, -1, -1):
                km = min(kl, n - 1 - j)
                if km > 0:
                    b[j, ...] -= (
                        ab[kv + 1 : kv + km + 1, j] @ b[j + 1 : j + km + 1, ...]
                    )
                jp = int(ipiv[j])
                if jp != j:
                    tmp = xp.asarray(b[j, ...], copy=True)
                    b[j, ...] = b[jp, ...]
                    b[jp, ...] = tmp
        return 0
    rows = [b[j : j + 1, ...] for j in range(n)]
    if kl > 0:
        piv = np.asarray(ipiv[: n - 1]).tolist()
        lcols = band_columns(xp, ab[kv + 1 :, ...])
        for j, jp in enumerate(piv):
            row = rows[j]
            if jp != j:
                tmp = xp.asarray(row, copy=True)
                row[...] = rows[jp]
                rows[jp][...] = tmp
            km = min(kl, n - 1 - j)
            below = b[j + 1 : j + 1 + km, ...]
            below -= lcols[j, :km, :] * row
    diag = ab[kv, ...]
    ucols = band_columns(xp, ab[:kv, ...])
    for j in range(n - 1, -1, -1):
        row = rows[j]
        row /= diag[j]
        lm = min(kv, j)
        above = b[j - lm : j, ...]
        above -= ucols[j, kv - lm :, :] * row
    return 0
