"""Bitwise parity of the point-blocked per-column evaluation.

``SplineEvaluator.eval_batched`` walks per-column points in fixed blocks
of ``_POINT_BLOCK`` points.  The reference below is the column-chunked
loop it replaced: Cox-de Boor on the flattened chunk, a 2-D fancy gather
and ``np.sum(axis=0)``.  Blocking changes only which points share a
temporary, never the arithmetic of one point, so every value must be
bitwise equal to the reference, in both coefficient layouts, on periodic
and clamped spaces, and at every block boundary.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BSplineSpec, SplineEvaluator
from repro.core.evaluator.evaluator import _POINT_BLOCK
from repro.testing import rng_for

B = _POINT_BLOCK

#: ``(npts, batch)`` shapes whose point counts sit on and around block
#: boundaries: 0, 1, B - 1, B, B + 1 and several blocks, each as one
#: long column, one wide row and a 2-D split, so that blocks are cut
#: along rows and along columns in both walk orders
SHAPES = [
    (0, 3), (4, 0),
    (1, 1),
    (B - 1, 1), (1, B - 1), (3, (B - 1) // 3),
    (B, 1), (1, B), (128, 128),
    (B + 1, 1), (1, B + 1), (5, (B + 1) // 5),
    (1000, 50), (7, 3 * B // 7 + 5),
]


def reference_eval_batched(space, coeffs, x, coeffs_batch_major=False, chunk=4096):
    """The column-chunked per-column evaluation loop that blocking replaced."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    npts, batch = x.shape
    out = np.empty((npts, batch))
    for lo in range(0, batch, chunk):
        hi = min(lo + chunk, batch)
        xc = x[:, lo:hi]
        indices, values = space.eval_nonzero_basis(xc.reshape(-1))
        cols = np.broadcast_to(np.arange(lo, hi)[None, :], xc.shape).reshape(-1)
        if coeffs_batch_major:
            gathered = coeffs[cols[None, :], indices]
        else:
            gathered = coeffs[indices, cols[None, :]]
        out[:, lo:hi] = np.sum(values * gathered, axis=0).reshape(npts, hi - lo)
    return out


def feet(space, rng, shape):
    """Points inside and well outside the domain, with exact end points,
    break points and signed zeros mixed in."""
    lo, hi = space.xmin, space.xmax
    width = hi - lo
    x = rng.uniform(lo - 1.5 * width, hi + 1.5 * width, shape)
    flat = x.reshape(-1)
    specials = np.concatenate([[lo, hi, -0.0, 0.0], space.breaks])
    flat[::3] = rng.choice(specials, flat[::3].size)
    return x


def assert_bitwise(a, b):
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(np.signbit(a), np.signbit(b))


@settings(max_examples=40, deadline=None)
@given(
    degree=st.integers(1, 5),
    n=st.sampled_from([8, 24, 256]),
    uniform=st.booleans(),
    boundary=st.sampled_from(["periodic", "clamped"]),
    shape=st.sampled_from(SHAPES),
    batch_major=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_property_blocked_walk_is_bitwise_the_reference(
    degree, n, uniform, boundary, shape, batch_major, seed
):
    rng = rng_for(seed)
    space = BSplineSpec(
        degree=degree, n_points=n, uniform=uniform, boundary=boundary
    ).make_space()
    ev = SplineEvaluator(space)
    x = feet(space, rng, shape)
    coeffs = rng.standard_normal((space.nbasis, shape[1]))
    coeffs.reshape(-1)[::4] = -0.0
    if batch_major:
        coeffs = np.ascontiguousarray(coeffs.T)
    got = ev.eval_batched(coeffs, x, coeffs_batch_major=batch_major)
    assert got.shape == shape
    assert_bitwise(got, reference_eval_batched(space, coeffs, x, batch_major))
    # every column is the single-spline evaluation of that column
    for j in sorted({0, shape[1] // 2, shape[1] - 1}):
        if 0 <= j < shape[1]:
            column = coeffs[j] if batch_major else coeffs[:, j]
            assert_bitwise(got[:, j], ev.eval_1d(column, x[:, j]))


@pytest.mark.parametrize("batch_major", [False, True])
def test_all_negative_zero_coefficients_sum_to_positive_zero(batch_major):
    """``np.sum`` adds from +0.0, so a spline of -0.0 coefficients reads
    +0.0 in the reference; the blocked contraction must too."""
    space = BSplineSpec(degree=3, n_points=16).make_space()
    coeffs = np.full((space.nbasis, 5), -0.0)
    if batch_major:
        coeffs = np.ascontiguousarray(coeffs.T)
    x = feet(space, rng_for(3), (9, 5))
    got = SplineEvaluator(space).eval_batched(coeffs, x, coeffs_batch_major=batch_major)
    assert_bitwise(got, reference_eval_batched(space, coeffs, x, batch_major))
    assert not np.any(np.signbit(got))


@pytest.mark.parametrize("batch_major", [False, True])
def test_strided_coefficients(batch_major):
    """Strided coefficient views evaluate bitwise like the reference."""
    rng = rng_for(11)
    space = BSplineSpec(degree=4, n_points=40, uniform=False).make_space()
    big = rng.standard_normal((2 * space.nbasis, 66))
    coeffs = big.T[::2, ::2] if batch_major else big[::2, ::2]
    x = feet(space, rng, (21, 33))
    got = SplineEvaluator(space).eval_batched(coeffs, x, coeffs_batch_major=batch_major)
    assert_bitwise(got, reference_eval_batched(space, coeffs, x, batch_major))
