"""Bitwise parity of the batched banded solves with their per-step loops.

``pttrs``, ``pbtrs``, ``gbtrs`` and ``coo_spmm`` take their row views,
factor columns, pivots and COO coordinates once per call and then make
a fixed handful of array calls per matrix row.  The references below are
the loops they replaced, which re-indexed the block and the band storage
for every scalar step (upper-storage ``pbtrs`` still runs that loop).  Hoisting changes only how each operand is
reached, never which scalar operations run or their order, so every
result must be bitwise equal to the reference — signed zeros, infinities
and NaNs included — for every dtype, for strided column slices of a
larger block and through the strict ``minimal`` namespace.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BSplineSpec, SplineBuilder
from repro.backend import get_namespace, resolve_backend
from repro.kbatched import Coo, Trans, Uplo, coo_spmm, gbtrs, pbtrs, pttrs
from repro.testing import rng_for

DTYPES = [np.float32, np.float64, np.complex128]
WIDTHS = [0, 1, 19, 64, 1024]
NAMESPACES = ["numpy", "minimal"]
LAYOUTS = ["contiguous", "strided", "schur"]


# -- the replaced loops, kept as the oracle ----------------------------------


def reference_pttrs(d, e, b):
    n = d.shape[0]
    if n == 0:
        return
    for i in range(1, n):
        b[i, ...] -= e[i - 1] * b[i - 1, ...]
    b[n - 1, ...] /= d[n - 1]
    for i in range(n - 2, -1, -1):
        b[i, ...] /= d[i]
        b[i, ...] -= e[i] * b[i + 1, ...]


def reference_pbtrs(ab, b, uplo):
    kd = ab.shape[0] - 1
    n = ab.shape[1]
    if uplo is Uplo.UPPER:
        for j in range(n):
            lm = min(kd, j)
            for r in range(1, lm + 1):
                b[j, ...] -= ab[kd - r, j] * b[j - r, ...]
            b[j, ...] /= ab[kd, j]
        for j in range(n - 1, -1, -1):
            kn = min(kd, n - 1 - j)
            for c in range(1, kn + 1):
                b[j, ...] -= ab[kd - c, j + c] * b[j + c, ...]
            b[j, ...] /= ab[kd, j]
        return
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


def _outer(xp, u, v):
    return xp.reshape(u, (u.shape[0], 1)) * xp.reshape(v, (1, v.shape[0]))


def reference_gbtrs(ab, ipiv, b, kl, ku, trans):
    xp = get_namespace(ab, b)
    n = ab.shape[1]
    kv = kl + ku
    if trans is Trans.TRANSPOSE:
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
        return
    if kl > 0:
        for j in range(n - 1):
            jp = int(ipiv[j])
            if jp != j:
                tmp = xp.asarray(b[j, ...], copy=True)
                b[j, ...] = b[jp, ...]
                b[jp, ...] = tmp
            km = min(kl, n - 1 - j)
            if km > 0:
                b[j + 1 : j + km + 1, ...] -= _outer(
                    xp, ab[kv + 1 : kv + km + 1, j], b[j, ...]
                )
    for j in range(n - 1, -1, -1):
        b[j, ...] /= ab[kv, j]
        lm = min(kv, j)
        if lm > 0:
            b[j - lm : j, ...] -= _outer(xp, ab[kv - lm : kv, j], b[j, ...])


def reference_coo_spmm(alpha, a, x, y):
    for nz in range(a.nnz):
        r = int(a.rows_idx[nz])
        c = int(a.cols_idx[nz])
        y[r, ...] += (alpha * a.values[nz]) * x[c, ...]


# -- generators ---------------------------------------------------------------


def assert_bitwise(new, ref):
    """Equal values, NaN where NaN, and the same sign bits — the real and
    imaginary parts separately for complex blocks."""
    np.testing.assert_array_equal(new, ref)
    for part in (np.real, np.imag) if np.iscomplexobj(ref) else (np.real,):
        np.testing.assert_array_equal(np.signbit(part(new)), np.signbit(part(ref)))


def values(rng, shape, dtype, scale=1.0, offset=0.0):
    """Random entries of *dtype*; complex draws get a genuine imaginary part."""
    out = offset + scale * rng.standard_normal(shape)
    if np.issubdtype(dtype, np.complexfloating):
        out = out + 1j * scale * rng.standard_normal(shape)
    return out.astype(dtype)


def rhs_block(rng, n, width, dtype, layout):
    """``(parent, index)``: right-hand sides and the view the kernels see.

    ``layout`` picks a contiguous block, a strided column slice of a wider
    block (a process shard or a fused chunk), or the lower row block of a
    strided slice (the Schur ``b1`` view).  Signed zeros, infinities and
    NaNs are planted in a few entries.
    """
    top = 3 if layout == "schur" else 0
    stride = 1 if layout == "contiguous" else 3
    parent = values(rng, (top + n, stride * width + 2), dtype)
    flat = parent.reshape(-1)
    if flat.size:
        specials = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan], dtype=dtype)
        picks = rng.integers(0, flat.size, size=max(1, flat.size // 50))
        flat[picks] = rng.choice(specials, picks.size)
    return parent, (slice(top, None), slice(1, 1 + stride * width, stride))


def to_ns(a, ns):
    return a if ns == "numpy" else resolve_backend(ns).asarray(a)


def run_both(parent, index, reference, kernel, ns):
    """Run *reference* and *kernel* each on ``copy[index]`` of its own copy
    of *parent*, viewed through namespace *ns*; return both whole copies.

    The oracle runs in the kernel's namespace: a scalar operation on a
    NumPy scalar and on a 0-d strict array may round differently (complex
    products), so the contract is parity within each namespace."""
    ref, new = parent.copy(), parent.copy()
    with np.errstate(all="ignore"):  # the planted infinities and NaNs
        reference(to_ns(ref[index], ns))
        kernel(to_ns(new[index], ns))
    return new, ref


def sizes(band):
    """n ∈ {1, 2, band, band + 1, small, 256}."""
    return st.sampled_from(sorted({1, 2, max(band, 1), band + 1, 7, 256}))


def forced_pivots(rng, n, kl):
    """Row interchanges within the band, as ``gbtrf`` records them."""
    ipiv = np.arange(n, dtype=np.int64)
    for j in range(n - 1):
        if rng.random() < 0.5:
            ipiv[j] = j + rng.integers(0, min(kl, n - 1 - j) + 1)
    return ipiv


# -- one case per kernel ------------------------------------------------------


def check_pttrs(n, dtype, width, layout, ns, seed):
    rng = rng_for(seed)
    d = to_ns(values(rng, n, dtype, scale=0.5, offset=3.0), ns)
    e = to_ns(values(rng, max(n - 1, 0), dtype, scale=0.5), ns)
    parent, index = rhs_block(rng, n, width, dtype, layout)
    new, ref = run_both(
        parent, index,
        lambda b: reference_pttrs(d, e, b),
        lambda b: pttrs(d, e, b),
        ns,
    )
    assert_bitwise(new, ref)


def check_pbtrs(n, kd, uplo, dtype, width, layout, ns, seed):
    rng = rng_for(seed)
    ab = values(rng, (kd + 1, n), dtype, scale=0.3)
    ab[kd if uplo is Uplo.UPPER else 0] = values(rng, n, dtype, scale=0.5, offset=2.0)
    ab = to_ns(ab, ns)
    parent, index = rhs_block(rng, n, width, dtype, layout)
    new, ref = run_both(
        parent, index,
        lambda b: reference_pbtrs(ab, b, uplo),
        lambda b: pbtrs(ab, b, uplo=uplo),
        ns,
    )
    assert_bitwise(new, ref)


def check_gbtrs(n, kl, ku, pivots, trans, dtype, width, layout, ns, seed):
    rng = rng_for(seed)
    ab = values(rng, (2 * kl + ku + 1, n), dtype, scale=0.3)
    ab[kl + ku] = values(rng, n, dtype, scale=0.5, offset=2.0)
    ab = to_ns(ab, ns)
    ipiv = forced_pivots(rng, n, kl) if pivots else np.arange(n, dtype=np.int64)
    parent, index = rhs_block(rng, n, width, dtype, layout)
    new, ref = run_both(
        parent, index,
        lambda b: reference_gbtrs(ab, ipiv, b, kl, ku, trans),
        lambda b: gbtrs(ab, ipiv, b, kl, ku, trans=trans),
        ns,
    )
    assert_bitwise(new, ref)


def check_coo_spmm(nrows, ncols, nnz, alpha, dtype, width, layout, ns, seed):
    rng = rng_for(seed)
    if isinstance(alpha, complex) and not np.issubdtype(dtype, np.complexfloating):
        alpha = alpha.real
    # Few distinct coordinates, many non-zeros: duplicates accumulate.
    coo = Coo(
        nrows,
        ncols,
        rng.integers(0, nrows, nnz),
        rng.integers(0, ncols, nnz),
        values(rng, nnz, dtype),
    )
    if ns != "numpy":
        coo = coo.to_namespace(resolve_backend(ns))
    # x and y are the disjoint row blocks of one view, as the Schur
    # solver's b0 and b1 are.
    parent, index = rhs_block(rng, ncols + nrows, width, dtype, layout)
    new, ref = run_both(
        parent, index,
        lambda b: reference_coo_spmm(alpha, coo, b[:ncols, ...], b[ncols:, ...]),
        lambda b: coo_spmm(alpha, coo, b[:ncols, ...], b[ncols:, ...]),
        ns,
    )
    assert_bitwise(new, ref)


# -- generated cases ----------------------------------------------------------


common = dict(
    dtype=st.sampled_from(DTYPES),
    width=st.sampled_from(WIDTHS),
    layout=st.sampled_from(LAYOUTS),
    ns=st.sampled_from(NAMESPACES),
    seed=st.integers(0, 2**31),
)


@settings(max_examples=60, deadline=None)
@given(n=sizes(1), **common)
def test_pttrs_matches_reference(n, **case):
    check_pttrs(n, **case)


@settings(max_examples=80, deadline=None)
@given(
    kd=st.integers(0, 4),
    data=st.data(),
    uplo=st.sampled_from([Uplo.LOWER, Uplo.UPPER]),
    **common,
)
def test_pbtrs_matches_reference(kd, data, **case):
    check_pbtrs(data.draw(sizes(kd), label="n"), kd, **case)


@settings(max_examples=80, deadline=None)
@given(
    kl=st.integers(0, 4),
    ku=st.integers(0, 4),
    data=st.data(),
    pivots=st.booleans(),
    trans=st.sampled_from([Trans.NO_TRANSPOSE, Trans.TRANSPOSE]),
    **common,
)
def test_gbtrs_matches_reference(kl, ku, data, **case):
    check_gbtrs(data.draw(sizes(kl + ku), label="n"), kl, ku, **case)


@settings(max_examples=60, deadline=None)
@given(
    nrows=st.integers(1, 9),
    ncols=st.integers(1, 9),
    nnz=st.integers(0, 40),
    alpha=st.sampled_from([-1.0, 1.0, 0.37, -2.5 + 0.75j]),
    **common,
)
def test_coo_spmm_matches_reference(**case):
    check_coo_spmm(**case)


# -- width 1, every band shape ------------------------------------------------
#
# At width 1 a broadcast product has a single element, and NumPy picks its
# complex-multiply loop from the operand shapes: the unfused scalar loop
# rounds differently from the fused vector loops.  These grids pin every
# band width and tail length at width 1 rather than leave them to sampling.

NARROW = dict(width=1, seed=7)


@pytest.mark.parametrize("dtype", DTYPES + [np.complex64])
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("ns", NAMESPACES)
def test_narrow_pttrs(dtype, layout, ns):
    for n in (1, 2, 3, 7):
        check_pttrs(n, dtype, layout=layout, ns=ns, **NARROW)


@pytest.mark.parametrize("dtype", DTYPES + [np.complex64])
@pytest.mark.parametrize("uplo", [Uplo.LOWER, Uplo.UPPER])
@pytest.mark.parametrize("ns", NAMESPACES)
def test_narrow_pbtrs(dtype, uplo, ns):
    for kd in range(5):
        for n in sorted({1, 2, kd, kd + 1, 7}):
            check_pbtrs(n, kd, uplo, dtype, layout="strided", ns=ns, **NARROW)


@pytest.mark.parametrize("dtype", DTYPES + [np.complex64])
@pytest.mark.parametrize("trans", [Trans.NO_TRANSPOSE, Trans.TRANSPOSE])
@pytest.mark.parametrize("ns", NAMESPACES)
def test_narrow_gbtrs(dtype, trans, ns):
    for kl in range(5):
        for ku in range(5):
            for n in sorted({1, 2, kl + ku, kl + ku + 1, 9}):
                for pivots in (False, True):
                    check_gbtrs(n, kl, ku, pivots, trans, dtype,
                                layout="contiguous", ns=ns, **NARROW)


@pytest.mark.parametrize("dtype", DTYPES + [np.complex64])
@pytest.mark.parametrize("ns", NAMESPACES)
def test_narrow_coo_spmm(dtype, ns):
    for alpha in (-1.0, 0.37, -2.5 + 0.75j):
        check_coo_spmm(3, 4, 12, alpha, dtype, layout="schur", ns=ns, **NARROW)


# -- the composition the builder runs -----------------------------------------


def reference_schur_solve(solver, b):
    """Algorithm 1 (version 2, one chunk) composed from the reference loops:
    the Q solve, the λ product, the δ′ ``getrs`` and the β product."""
    q, m = solver.q_plan, solver.m
    b0, b1 = b[:m, ...], b[m:, ...]
    if q.name == "pttrs":
        reference_pttrs(q.d, q.e, b0)
    elif q.name == "pbtrs":
        reference_pbtrs(q.ab, b0, Uplo.LOWER)
    else:
        reference_gbtrs(q.ab, q.ipiv, b0, q.kl, q.ku, Trans.NO_TRANSPOSE)
    reference_coo_spmm(-1.0, solver.lam_coo, b0, b1)
    solver.delta_plan.solve(b1)
    reference_coo_spmm(-1.0, solver.beta_coo, b1, b0)


CLASSES = {
    "pttrs": dict(degree=3),
    "pbtrs": dict(degree=5),
    "gbtrs": dict(degree=3, uniform=False),
}


@pytest.mark.parametrize("cls", sorted(CLASSES))
@pytest.mark.parametrize("n, width", [(256, 1), (256, 19), (1000, 8192)])
def test_builder_solve_matches_reference_stages(cls, n, width):
    builder = SplineBuilder(BSplineSpec(n_points=n, **CLASSES[cls]))
    assert builder.solver_name == cls
    assert width <= builder.solver.chunk  # one fused chunk, as composed below
    f = rng_for(n + width).standard_normal((n, width))
    ref = f.copy()
    reference_schur_solve(builder.solver, ref)
    builder.solve(f, in_place=True)
    assert_bitwise(f, ref)
