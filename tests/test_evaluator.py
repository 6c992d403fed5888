"""Tests for batched spline evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BSplineSpec, SplineBuilder, SplineEvaluator
from repro.core.evaluator import evaluator
from repro.exceptions import ShapeError

from repro.testing import rng_for


def build(degree=3, n=48, uniform=True):
    spec = BSplineSpec(degree=degree, n_points=n, uniform=uniform)
    builder = SplineBuilder(spec)
    return builder, SplineEvaluator(builder.space_1d)


class TestEval1d:
    @pytest.mark.parametrize("degree", [3, 4, 5])
    @pytest.mark.parametrize("uniform", [True, False])
    def test_interpolates_smooth_function(self, degree, uniform):
        builder, ev = build(degree=degree, n=64, uniform=uniform)
        pts = builder.interpolation_points()
        f = np.sin(2 * np.pi * pts)
        coeffs = builder.solve(f)
        xs = np.linspace(0.0, 1.0, 333, endpoint=False)
        vals = ev(coeffs, xs)
        np.testing.assert_allclose(vals, np.sin(2 * np.pi * xs), atol=5e-5)

    def test_exact_at_interpolation_points(self):
        builder, ev = build()
        pts = builder.interpolation_points()
        f = np.cos(4 * np.pi * pts)
        coeffs = builder.solve(f)
        np.testing.assert_allclose(ev(coeffs, pts), f, atol=1e-11)

    @pytest.mark.parametrize("degree", [3, 4, 5])
    def test_reproduces_constants_exactly(self, degree):
        builder, ev = build(degree=degree, uniform=False)
        coeffs = builder.solve(np.full(48, 2.5))
        xs = np.linspace(0.0, 1.0, 100, endpoint=False)
        np.testing.assert_allclose(ev(coeffs, xs), 2.5, atol=1e-12)

    def test_periodic_wrap(self):
        builder, ev = build()
        coeffs = builder.solve(np.sin(2 * np.pi * builder.interpolation_points()))
        np.testing.assert_allclose(
            ev(coeffs, np.array([0.3])), ev(coeffs, np.array([1.3])), atol=1e-13
        )
        np.testing.assert_allclose(
            ev(coeffs, np.array([0.3])), ev(coeffs, np.array([-0.7])), atol=1e-13
        )

    def test_scalar_point(self):
        builder, ev = build()
        coeffs = builder.solve(np.ones(48))
        assert ev(coeffs, 0.5) == pytest.approx(1.0)

    def test_convergence_order(self):
        """Interpolation error scales like h^(d+1)."""
        errors = []
        for n in (16, 32):
            builder, ev = build(degree=3, n=n)
            pts = builder.interpolation_points()
            coeffs = builder.solve(np.sin(2 * np.pi * pts))
            xs = np.linspace(0.0, 1.0, 1000, endpoint=False)
            errors.append(np.max(np.abs(ev(coeffs, xs) - np.sin(2 * np.pi * xs))))
        order = np.log2(errors[0] / errors[1])
        assert order > 3.5  # degree 3 -> 4th order

    def test_derivative(self):
        builder, ev = build(degree=5, n=64)
        pts = builder.interpolation_points()
        coeffs = builder.solve(np.sin(2 * np.pi * pts))
        xs = np.linspace(0.0, 1.0, 50, endpoint=False)
        dvals = ev.eval_deriv_1d(coeffs, xs)
        np.testing.assert_allclose(
            dvals, 2 * np.pi * np.cos(2 * np.pi * xs), atol=1e-4
        )

    def test_shape_errors(self):
        builder, ev = build()
        with pytest.raises(ShapeError):
            ev.eval_1d(np.ones(47), np.array([0.5]))
        with pytest.raises(ShapeError):
            ev.eval_deriv_1d(np.ones((48, 2)), np.array([0.5]))


class TestEvalBatched:
    def test_shared_points(self, rng):
        builder, ev = build()
        f = rng.standard_normal((48, 7))
        coeffs = builder.solve(f)
        xs = np.linspace(0.0, 1.0, 29, endpoint=False)
        out = ev(coeffs, xs)
        assert out.shape == (29, 7)
        for j in range(7):
            np.testing.assert_allclose(out[:, j], ev.eval_1d(coeffs[:, j], xs),
                                       atol=1e-13)

    def test_per_column_points(self, rng):
        builder, ev = build()
        f = rng.standard_normal((48, 5))
        coeffs = builder.solve(f)
        xs = rng.uniform(0.0, 1.0, size=(17, 5))
        out = ev(coeffs, xs)
        assert out.shape == (17, 5)
        for j in range(5):
            np.testing.assert_allclose(
                out[:, j], ev.eval_1d(coeffs[:, j], xs[:, j]), atol=1e-13
            )

    def test_point_blocks_match_single_block(self, rng, monkeypatch):
        """Block boundaries inside rows, across rows and inside columns
        leave every value bitwise unchanged, in both layouts."""
        builder, ev = build()
        coeffs = builder.solve(rng.standard_normal((48, 11)))
        coeffs_bm = np.ascontiguousarray(coeffs.T)
        xs = rng.uniform(-0.5, 1.5, size=(9, 11))
        whole = ev(coeffs, xs)  # 99 points: one block
        for block in (1, 2, 7, 11, 12, 98):
            monkeypatch.setattr(evaluator, "_POINT_BLOCK", block)
            np.testing.assert_array_equal(ev(coeffs, xs), whole)
            np.testing.assert_array_equal(
                ev.eval_batched(coeffs_bm, xs, coeffs_batch_major=True), whole
            )

    def test_shape_errors(self, rng):
        builder, ev = build()
        coeffs = builder.solve(rng.standard_normal((48, 3)))
        with pytest.raises(ShapeError):
            ev.eval_batched(coeffs, rng.uniform(size=(5, 4)))  # batch mismatch
        with pytest.raises(ShapeError):
            ev.eval_batched(np.ones((47, 3)), np.ones(5))

    @pytest.mark.parametrize("batch_major", [False, True])
    def test_empty_point_sets(self, rng, batch_major):
        """Zero points or zero columns: no block to walk, an empty result."""
        builder, ev = build()
        for npts, batch in ((0, 3), (5, 0)):
            coeffs = rng.standard_normal((48, batch))
            if batch_major:
                coeffs = np.ascontiguousarray(coeffs.T)
            out = ev.eval_batched(
                coeffs, np.zeros((npts, batch)), coeffs_batch_major=batch_major
            )
            assert out.shape == (npts, batch)


class TestComplexCoefficients:
    """A complex128 builder's coefficients evaluate as complex: the
    imaginary part is not dropped."""

    @pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
    def test_round_trip(self):
        builder = SplineBuilder(BSplineSpec(degree=3, n_points=32), dtype=np.complex128)
        ev = SplineEvaluator(builder.space_1d)
        pts = builder.interpolation_points()
        f = np.exp(2j * np.pi * pts)
        coeffs = builder.solve(f)
        for got in (ev.eval_1d(coeffs, pts), ev(coeffs, pts)):
            assert got.dtype == np.complex128
            np.testing.assert_allclose(got, f, atol=1e-13)
        block = np.stack([f, (1.0 + 2.0j) * f, np.conj(f)], axis=1)
        coeffs = builder.solve(block)
        coeffs_bm = np.ascontiguousarray(coeffs.T)
        for xs in (pts, np.repeat(pts[:, None], 3, axis=1)):
            for got in (
                ev.eval_batched(coeffs, xs),
                ev.eval_batched(coeffs_bm, xs, coeffs_batch_major=True),
                ev(coeffs, xs),
            ):
                assert got.dtype == np.complex128
                np.testing.assert_allclose(got, block, atol=1e-13)

    @pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
    def test_integrate_keeps_the_imaginary_part(self):
        builder = SplineBuilder(BSplineSpec(degree=3, n_points=32), dtype=np.complex128)
        ev = SplineEvaluator(builder.space_1d)
        got = ev.integrate(builder.solve(np.full(builder.n, 1.0 + 1.0j)))
        assert isinstance(got, complex)
        assert abs(got - (1.0 + 1.0j)) < 1e-14
        levels = np.array([1.0 + 1.0j, 2.0 - 3.0j, -0.5j])
        block = builder.solve(np.tile(levels, (builder.n, 1)))
        np.testing.assert_allclose(ev.integrate(block), levels, atol=1e-14)

    def test_float32_still_promotes(self, rng):
        builder, ev = build()
        coeffs = builder.solve(rng.standard_normal((48, 4))).astype(np.float32)
        xs = rng.uniform(0.0, 1.0, size=(6, 4))
        got = ev.eval_batched(coeffs, xs)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, ev.eval_batched(coeffs.astype(np.float64), xs))


@settings(max_examples=20, deadline=None)
@given(
    degree=st.integers(1, 5),
    n=st.integers(12, 48),
    uniform=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_property_spline_reproduces_degree_d_polynomials(degree, n, uniform, seed):
    """Periodic splines reproduce constants exactly; interpolation at the
    Greville points is exact for any sampled data at those points."""
    rng = rng_for(seed)
    spec = BSplineSpec(degree=degree, n_points=n, uniform=uniform)
    builder = SplineBuilder(spec)
    ev = SplineEvaluator(builder.space_1d)
    f = rng.standard_normal(n)
    coeffs = builder.solve(f)
    pts = builder.interpolation_points()
    assert np.allclose(ev(coeffs, pts), f, atol=1e-9)
