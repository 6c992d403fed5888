"""Tests for the extension features: spline integration, the uniform-grid
fast path, batch-major evaluation, transpose-fused solving, and the
threaded vectorized backend."""

import numpy as np
import pytest

from repro.advection import BatchedAdvection1D
from repro.core import BSplineSpec, SplineBuilder, SplineEvaluator
from repro.core.bsplines import PeriodicBSplines, nonuniform_breakpoints, uniform_breakpoints
from repro.core.bsplines.basis import find_cell
from repro.core.evaluator import evaluator
from repro.exceptions import ShapeError
from repro.xspace import get_execution_space


class TestIntegration:
    def test_integral_of_constant_is_domain_length(self):
        spec = BSplineSpec(degree=4, n_points=32, xmin=0.0, xmax=3.0)
        builder = SplineBuilder(spec)
        coeffs = builder.solve(np.full(32, 2.0))
        ev = SplineEvaluator(builder.space_1d)
        assert ev.integrate(coeffs) == pytest.approx(6.0)

    def test_integral_of_sine_over_period_is_zero(self):
        spec = BSplineSpec(degree=3, n_points=64)
        builder = SplineBuilder(spec)
        pts = builder.interpolation_points()
        coeffs = builder.solve(np.sin(2 * np.pi * pts))
        ev = SplineEvaluator(builder.space_1d)
        assert abs(ev.integrate(coeffs)) < 1e-12

    def test_matches_fine_riemann_sum(self, rng):
        spec = BSplineSpec(degree=3, n_points=48, uniform=False)
        builder = SplineBuilder(spec)
        coeffs = builder.solve(rng.standard_normal(48))
        ev = SplineEvaluator(builder.space_1d)
        xs = np.linspace(0.0, 1.0, 200_0, endpoint=False)
        riemann = np.mean(ev(coeffs, xs))
        assert ev.integrate(coeffs) == pytest.approx(riemann, abs=1e-5)

    def test_batched_integration(self, rng):
        spec = BSplineSpec(degree=3, n_points=32)
        builder = SplineBuilder(spec)
        coeffs = builder.solve(rng.standard_normal((32, 5)))
        ev = SplineEvaluator(builder.space_1d)
        batched = ev.integrate(coeffs)
        assert batched.shape == (5,)
        for j in range(5):
            assert batched[j] == pytest.approx(ev.integrate(coeffs[:, j]))

    def test_clamped_integration(self):
        spec = BSplineSpec(degree=3, n_points=32, boundary="clamped")
        builder = SplineBuilder(spec)
        pts = builder.interpolation_points()
        coeffs = builder.solve(pts**3)
        ev = SplineEvaluator(builder.space_1d)
        # Cubic splines reproduce x^3 exactly; ∫₀¹ x³ dx = 1/4.
        assert ev.integrate(coeffs) == pytest.approx(0.25, abs=1e-10)

    def test_shape_error(self):
        spec = BSplineSpec(degree=3, n_points=32)
        builder = SplineBuilder(spec)
        ev = SplineEvaluator(builder.space_1d)
        with pytest.raises(ShapeError):
            ev.integrate(np.ones(31))


class TestUniformFastPath:
    def test_uniform_flag_detection(self):
        uni = PeriodicBSplines(uniform_breakpoints(16), 3)
        non = PeriodicBSplines(nonuniform_breakpoints(16, strength=0.5), 3)
        assert uni.is_uniform
        assert not non.is_uniform

    def test_fast_cells_match_searchsorted(self, rng):
        space = PeriodicBSplines(uniform_breakpoints(37, -2.0, 5.0), 3)
        xs = space.wrap(rng.uniform(-10.0, 10.0, size=1000))
        fast = space._cells(xs)
        slow = find_cell(space.breaks, xs)
        np.testing.assert_array_equal(fast, slow)

    def test_fast_cells_at_breakpoints(self):
        """Points exactly on break points must stay in range and give
        valid basis evaluations on either adjacent cell."""
        space = PeriodicBSplines(uniform_breakpoints(16), 3)
        xs = space.breaks[:-1].copy()
        cells = space._cells(xs)
        assert np.all((cells >= 0) & (cells < 16))
        _, values = space.eval_nonzero_basis(xs)
        np.testing.assert_allclose(values.sum(axis=0), 1.0, atol=1e-12)


class TestBatchMajorEvaluation:
    def test_shared_points_agree(self, rng):
        builder = SplineBuilder(BSplineSpec(degree=3, n_points=32))
        ev = SplineEvaluator(builder.space_1d)
        coeffs = builder.solve(rng.standard_normal((32, 6)))
        xs = np.linspace(0.0, 1.0, 17, endpoint=False)
        a = ev.eval_batched(coeffs, xs)
        b = ev.eval_batched(np.ascontiguousarray(coeffs.T), xs,
                            coeffs_batch_major=True)
        np.testing.assert_allclose(a, b, atol=1e-14)

    def test_per_column_points_agree(self, rng, monkeypatch):
        # 3-point blocks cut both walks inside rows and across them
        monkeypatch.setattr(evaluator, "_POINT_BLOCK", 3)
        builder = SplineBuilder(BSplineSpec(degree=4, n_points=28))
        ev = SplineEvaluator(builder.space_1d)
        coeffs = builder.solve(rng.standard_normal((28, 7)))
        xs = rng.uniform(0.0, 1.0, size=(11, 7))
        a = ev.eval_batched(coeffs, xs)
        b = ev.eval_batched(np.ascontiguousarray(coeffs.T), xs,
                            coeffs_batch_major=True)
        np.testing.assert_array_equal(a, b)

    def test_shape_validation(self, rng):
        builder = SplineBuilder(BSplineSpec(degree=3, n_points=32))
        ev = SplineEvaluator(builder.space_1d)
        with pytest.raises(ShapeError):
            ev.eval_batched(np.ones((5, 31)), np.ones(3), coeffs_batch_major=True)


class TestSolveTransposed:
    @pytest.mark.parametrize("slab", [1, 7, 128, 10_000])
    def test_matches_standard_solve(self, slab, rng):
        builder = SplineBuilder(BSplineSpec(degree=3, n_points=48))
        f = rng.standard_normal((23, 48))  # (batch, n)
        ref = np.linalg.solve(builder.matrix, f.T).T
        work = f.copy()
        out = builder.solve_transposed(work, slab=slab)
        assert out is work
        np.testing.assert_allclose(work, ref, rtol=1e-9, atol=1e-11)

    def test_validation(self, rng):
        builder = SplineBuilder(BSplineSpec(degree=3, n_points=48))
        with pytest.raises(ShapeError):
            builder.solve_transposed(rng.standard_normal((5, 47)))
        with pytest.raises(ShapeError):
            builder.solve_transposed(np.ones((5, 48), dtype=np.float32))
        with pytest.raises(ValueError):
            builder.solve_transposed(np.ones((5, 48)), slab=0)


class TestFusedAdvection:
    def test_fused_step_matches_standard(self):
        builder = SplineBuilder(BSplineSpec(degree=3, n_points=96))
        v = np.linspace(-1.0, 1.0, 12)
        std = BatchedAdvection1D(builder, v, 0.02)
        fused = BatchedAdvection1D(builder, v, 0.02, fuse_transpose=True)
        f = np.sin(2 * np.pi * std.x)[None, :] * np.ones((12, 1))
        np.testing.assert_allclose(std.step(f.copy()), fused.step(f.copy()),
                                   atol=1e-13)

    def test_fused_multi_step_accuracy(self):
        builder = SplineBuilder(BSplineSpec(degree=3, n_points=128))
        v = np.linspace(-1.0, 1.0, 4)
        adv = BatchedAdvection1D(builder, v, 0.02, fuse_transpose=True)
        f0 = lambda x: np.exp(np.cos(2 * np.pi * x))
        f = f0(adv.x)[None, :] * np.ones((4, 1))
        f = adv.run(f, steps=5)
        np.testing.assert_allclose(f, adv.exact_solution(f0, 5 * adv.dt), atol=1e-4)

    def test_requires_direct_builder(self):
        from repro.core import GinkgoSplineBuilder

        builder = GinkgoSplineBuilder(BSplineSpec(degree=3, n_points=32))
        with pytest.raises(ShapeError):
            BatchedAdvection1D(builder, np.ones(2), 0.1, fuse_transpose=True)


class TestThreadedVectorizedBackend:
    def test_matches_serial_space(self, rng):
        spec = BSplineSpec(degree=3, n_points=64)
        plain = SplineBuilder(spec)
        threaded = SplineBuilder(spec, space=get_execution_space("threads"))
        f = rng.standard_normal((64, 500))
        np.testing.assert_allclose(threaded.solve(f), plain.solve(f), atol=1e-12)

    def test_small_batch_falls_back_to_single_slab(self, rng):
        spec = BSplineSpec(degree=3, n_points=32)
        threaded = SplineBuilder(spec, space=get_execution_space("threads"))
        f = rng.standard_normal((32, 1))  # below 2 * nworkers
        ref = np.linalg.solve(threaded.matrix, f)
        np.testing.assert_allclose(threaded.solve(f), ref, atol=1e-11)
