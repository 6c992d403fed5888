"""LAPACK band-storage helpers.

Band matrices are stored column-wise in the LAPACK convention so the
kernels here are directly comparable with the LAPACK routines they mirror
(and cross-checkable against SciPy in the test suite):

* **General band** (for ``gbtrf``/``gbtrs``): ``ab[kl + ku + i - j, j] =
  A[i, j]``, with ``kl`` extra rows of head-room on top for the fill-in that
  partial pivoting creates, giving a ``(2*kl + ku + 1, n)`` array.
* **Symmetric positive-definite band, lower** (for ``pbtrf``/``pbtrs``):
  ``ab[i - j, j] = A[i, j]`` for ``j <= i <= j + kd``, a ``(kd + 1, n)``
  array whose row 0 is the diagonal.
"""

from __future__ import annotations

from typing import Tuple

from repro.backend import Array, asnumpy, get_namespace
from repro.exceptions import ShapeError


def dense_band_widths(a: Array, tol: float = 0.0) -> Tuple[int, int]:
    """Return ``(kl, ku)``: number of sub- and super-diagonals of *a*.

    Entries with ``|a[i, j]| <= tol`` count as zero.  A zero matrix reports
    ``(0, 0)``.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    xp = get_namespace(a)
    keep = xp.nonzero(xp.abs(a) > tol)
    rows = asnumpy(keep[0])
    cols = asnumpy(keep[1])
    if rows.size == 0:
        return 0, 0
    kl = max(int((rows - cols).max()), 0)
    ku = max(int((cols - rows).max()), 0)
    return kl, ku


def dense_to_band(a: Array, kl: int, ku: int) -> Array:
    """Pack dense *a* into ``(kl + ku + 1, n)`` LAPACK band storage."""
    n = a.shape[0]
    if a.shape != (n, n):
        raise ShapeError(f"expected square matrix, got {a.shape}")
    xp = get_namespace(a)
    ab = xp.zeros((kl + ku + 1, n), dtype=a.dtype)
    for j in range(n):
        lo = max(0, j - ku)
        hi = min(n, j + kl + 1)
        ab[ku + lo - j : ku + hi - j, j] = a[lo:hi, j]
    return ab


def dense_to_lu_band(a: Array, kl: int, ku: int) -> Array:
    """Pack *a* into ``(2*kl + ku + 1, n)`` storage with fill-in head-room.

    Rows ``0..kl-1`` are the zero-initialized fill area that ``gbtrf``'s row
    interchanges populate; the matrix itself sits in rows ``kl..2*kl+ku``.
    """
    n = a.shape[0]
    xp = get_namespace(a)
    ab = xp.zeros((2 * kl + ku + 1, n), dtype=a.dtype)
    ab[kl:, :] = dense_to_band(a, kl, ku)
    return ab


def band_to_dense(ab: Array, kl: int, ku: int) -> Array:
    """Unpack ``(kl + ku + 1, n)`` band storage back to a dense matrix."""
    if ab.shape[0] != kl + ku + 1:
        raise ShapeError(
            f"band storage has {ab.shape[0]} rows, expected kl+ku+1={kl + ku + 1}"
        )
    n = ab.shape[1]
    xp = get_namespace(ab)
    a = xp.zeros((n, n), dtype=ab.dtype)
    for j in range(n):
        lo = max(0, j - ku)
        hi = min(n, j + kl + 1)
        a[lo:hi, j] = ab[ku + lo - j : ku + hi - j, j]
    return a


def spd_dense_to_band_lower(a: Array, kd: int) -> Array:
    """Pack the lower triangle of SPD *a* into ``(kd + 1, n)`` storage."""
    n = a.shape[0]
    if a.shape != (n, n):
        raise ShapeError(f"expected square matrix, got {a.shape}")
    xp = get_namespace(a)
    ab = xp.zeros((kd + 1, n), dtype=a.dtype)
    for j in range(n):
        hi = min(n, j + kd + 1)
        ab[0 : hi - j, j] = a[j:hi, j]
    return ab


def spd_dense_to_band_upper(a: Array, kd: int) -> Array:
    """Pack the upper triangle of SPD *a* into ``(kd + 1, n)`` storage,
    with ``ab[kd + i - j, j] = A[i, j]`` (row ``kd`` = the diagonal)."""
    n = a.shape[0]
    if a.shape != (n, n):
        raise ShapeError(f"expected square matrix, got {a.shape}")
    xp = get_namespace(a)
    ab = xp.zeros((kd + 1, n), dtype=a.dtype)
    for j in range(n):
        lo = max(0, j - kd)
        ab[kd + lo - j : kd + 1, j] = a[lo : j + 1, j]
    return ab


def band_columns(xp, band: Array) -> Array:
    """Rows of band storage (``k × n``) as an ``(n, k, 1)`` array whose
    ``[j, ...]`` entry is band column ``j``, shaped to broadcast against a
    ``(1, batch)`` row view of a right-hand-side block.

    Rows must be ``(1, batch)`` views, not ``(batch,)``: at width 1 a
    ``(1, 1)`` column times a ``(1,)`` row reaches NumPy's unfused scalar
    complex-multiply loop and rounds differently from an outer product.
    """
    n = band.shape[1]
    return xp.reshape(xp.permute_dims(band, (1, 0)), (n, band.shape[0], 1))


def spd_band_upper_to_dense(ab: Array) -> Array:
    """Unpack upper SPD band storage to a dense symmetric matrix."""
    kd = ab.shape[0] - 1
    n = ab.shape[1]
    xp = get_namespace(ab)
    a = xp.zeros((n, n), dtype=ab.dtype)
    for j in range(n):
        lo = max(0, j - kd)
        a[lo : j + 1, j] = ab[kd + lo - j : kd + 1, j]
        a[j, lo : j + 1] = ab[kd + lo - j : kd + 1, j]
    return a


def spd_band_lower_to_dense(ab: Array) -> Array:
    """Unpack lower SPD band storage to a dense symmetric matrix."""
    kd = ab.shape[0] - 1
    n = ab.shape[1]
    xp = get_namespace(ab)
    a = xp.zeros((n, n), dtype=ab.dtype)
    for j in range(n):
        hi = min(n, j + kd + 1)
        a[j:hi, j] = ab[0 : hi - j, j]
        a[j, j:hi] = ab[0 : hi - j, j]
    return a
