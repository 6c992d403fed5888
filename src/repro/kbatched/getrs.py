"""``getrs`` — solve ``A x = b`` from the LU factorization of ``getrf``
(LAPACK ``dgetrs``, no-transpose): apply the row interchanges, forward
substitution with the unit-lower ``L``, backward substitution with ``U``.
In place on ``b``.

This is the second batched kernel of the paper's Listing 2
(``KokkosBatched::SerialGetrs``): it solves the Schur-complement system
``δ' x₁ = b₁ − λ x₀'`` for every batch column.
"""

from __future__ import annotations

# NumPy appears only as the ``ipiv`` plumbing shim (host int64 pivot
# indices); the solve arithmetic is namespace-agnostic.
import numpy as np

from repro.backend import Array, get_namespace
from repro.exceptions import ShapeError
from repro.kbatched.types import Trans


def _check(a: Array, ipiv: np.ndarray, b: Array, trans: Trans) -> int:
    del trans
    n = a.shape[0]
    if a.shape != (n, n):
        raise ShapeError(f"factorized matrix must be square, got {a.shape}")
    if ipiv.shape[0] != n:
        raise ShapeError(f"ipiv has length {ipiv.shape[0]}, expected {n}")
    if b.shape[0] != n:
        raise ShapeError(f"b has leading extent {b.shape[0]}, expected n={n}")
    return n


def serial_getrs(
    a: Array,
    ipiv: np.ndarray,
    b: Array,
    trans: Trans = Trans.NO_TRANSPOSE,
) -> int:
    """Solve for a single right-hand side, in place. Returns 0 on success.

    ``trans=TRANSPOSE`` solves ``Aᵀ x = b`` from the same factorization:
    ``Uᵀ y = b``, ``Lᵀ z = y``, then the row interchanges applied in
    reverse order.
    """
    n = _check(a, ipiv, b, trans)
    if trans is Trans.TRANSPOSE:
        # U^T y = b (lower, non-unit).
        for i in range(n):
            acc = b[i]
            for k in range(i):
                acc -= a[k, i] * b[k]
            b[i] = acc / a[i, i]
        # L^T z = y (upper, unit).
        for i in range(n - 1, -1, -1):
            acc = b[i]
            for k in range(i + 1, n):
                acc -= a[k, i] * b[k]
            b[i] = acc
        # x = P z: undo the interchanges in reverse order.
        for j in range(n - 1, -1, -1):
            jp = int(ipiv[j])
            if jp != j:
                tj = b[j]
                b[j] = b[jp]
                b[jp] = tj
        return 0
    # Apply row interchanges (LASWP).
    for j in range(n):
        jp = int(ipiv[j])
        if jp != j:
            tj = b[j]
            b[j] = b[jp]
            b[jp] = tj
    # L y = b (unit lower).
    for i in range(1, n):
        acc = b[i]
        for k in range(i):
            acc -= a[i, k] * b[k]
        b[i] = acc
    # U x = y.
    for i in range(n - 1, -1, -1):
        acc = b[i]
        for k in range(i + 1, n):
            acc -= a[i, k] * b[k]
        b[i] = acc / a[i, i]
    return 0


def getrs(
    a: Array,
    ipiv: np.ndarray,
    b: Array,
    trans: Trans = Trans.NO_TRANSPOSE,
) -> int:
    """Solve for an ``(n, batch)`` right-hand-side block, in place."""
    n = _check(a, ipiv, b, trans)
    if b.ndim != 2:
        raise ShapeError(f"b must have shape (n, batch), got {b.shape}")
    xp = get_namespace(a, b)
    if trans is Trans.TRANSPOSE:
        for i in range(n):
            if i > 0:
                b[i, ...] -= a[:i, i] @ b[:i, ...]
            b[i, ...] /= a[i, i]
        for i in range(n - 1, -1, -1):
            if i < n - 1:
                b[i, ...] -= a[i + 1 :, i] @ b[i + 1 :, ...]
        for j in range(n - 1, -1, -1):
            jp = int(ipiv[j])
            if jp != j:
                tmp = xp.asarray(b[j, ...], copy=True)
                b[j, ...] = b[jp, ...]
                b[jp, ...] = tmp
        return 0
    for j in range(n):
        jp = int(ipiv[j])
        if jp != j:
            tmp = xp.asarray(b[j, ...], copy=True)
            b[j, ...] = b[jp, ...]
            b[jp, ...] = tmp
    for i in range(1, n):
        b[i, ...] -= a[i, :i] @ b[:i, ...]
    for i in range(n - 1, -1, -1):
        if i < n - 1:
            b[i, ...] -= a[i, i + 1 :] @ b[i + 1 :, ...]
        b[i, ...] /= a[i, i]
    return 0
