"""Batched serial LAPACK/BLAS kernels — the Kokkos-kernels analogue.

This subpackage reproduces the paper's first contribution: *batched serial*
versions of the LAPACK solvers that Kokkos-kernels lacked —

======== =============================================== ==================
 kernel   matrix type                                     paper reference
======== =============================================== ==================
 getrf/s  general (dense LU, partial pivoting)            §II-B1, Listing 2
 gbtrf/s  general banded                                  Table I
 pbtrf/s  positive-definite symmetric banded (Cholesky)   Table I
 pttrf/s  positive-definite symmetric tridiagonal (LDLᵀ)  Listing 1
======== =============================================== ==================

plus the BLAS pieces the spline builder composes them with (``gemm``,
``gemv``), the COO sparse-storage class of Listing 5 and the COO ``spmv``
of Listing 6.

Every solver comes in two backends:

* ``serial_*`` — operates on a *single* right-hand side with explicit
  scalar loops; a line-by-line port of the paper's
  ``KokkosBatched::Serial*`` internal kernels.  These run inside
  :func:`repro.xspace.parallel_for` over the batch index, exactly like
  Listing 2 / 4 / 6.
* plain ``*`` — operates on an ``(n, batch)`` right-hand-side block with
  the batch axis vectorized through NumPy.  The matrix-dimension loop stays
  sequential (the algorithms are "intrinsically sequential" along the
  matrix, §II-C1), so each matrix row costs interpreter calls.  The banded
  solves and ``coo_spmm`` prepare their row views, band columns, pivots and
  COO coordinates once per call, so each row (or non-zero) costs a fixed
  handful of O(batch) array operations, with the scalar operations and
  order of the per-step loops they replaced.  This is the performance
  backend, playing the role the GPU plays in the paper.

All solve kernels follow LAPACK's **in-place** convention: ``b`` holds the
right-hand sides on entry and the solutions on exit — the memory-efficiency
property the paper cites as the reason for choosing Kokkos-kernels over
Ginkgo.
"""

from repro.kbatched.types import Algo, Diag, Side, Trans, Uplo
from repro.kbatched.band import (
    band_to_dense,
    dense_band_widths,
    dense_to_band,
    dense_to_lu_band,
)
from repro.kbatched.getrf import getrf, serial_getrf
from repro.kbatched.getrs import getrs, serial_getrs
from repro.kbatched.gbtrf import gbtrf, serial_gbtrf
from repro.kbatched.gbtrs import gbtrs, serial_gbtrs
from repro.kbatched.pbtrf import pbtrf, serial_pbtrf
from repro.kbatched.pbtrs import pbtrs, serial_pbtrs
from repro.kbatched.pttrf import pttrf, serial_pttrf
from repro.kbatched.pttrs import pttrs, serial_pttrs
from repro.kbatched.blas import axpy, gemm, gemv, serial_gemv, serial_gemm
from repro.kbatched.trsm import serial_trsv, trsm
from repro.kbatched.batched_dense import (
    batched_getrf,
    batched_getrs,
    batched_pttrf,
    batched_pttrs,
)
from repro.kbatched.coo import Coo
from repro.kbatched.spmv import coo_spmm, serial_coo_spmv

__all__ = [
    "Uplo",
    "Trans",
    "Algo",
    "Side",
    "Diag",
    "dense_to_band",
    "dense_to_lu_band",
    "band_to_dense",
    "dense_band_widths",
    "getrf",
    "serial_getrf",
    "getrs",
    "serial_getrs",
    "gbtrf",
    "serial_gbtrf",
    "gbtrs",
    "serial_gbtrs",
    "pbtrf",
    "serial_pbtrf",
    "pbtrs",
    "serial_pbtrs",
    "pttrf",
    "serial_pttrf",
    "pttrs",
    "serial_pttrs",
    "gemm",
    "gemv",
    "axpy",
    "serial_gemv",
    "serial_gemm",
    "trsm",
    "serial_trsv",
    "batched_getrf",
    "batched_getrs",
    "batched_pttrf",
    "batched_pttrs",
    "Coo",
    "coo_spmm",
    "serial_coo_spmv",
]
