"""Tests for the tensor-product 2-D spline builder and evaluator."""

import numpy as np
import pytest

from repro.core import (
    BSplineSpec,
    SplineBuilder2D,
    SplineEvaluator2D,
)
from repro.exceptions import ShapeError


def make2d(degree_x=3, degree_y=3, nx=24, ny=20, boundary_y="periodic"):
    builder = SplineBuilder2D(
        BSplineSpec(degree=degree_x, n_points=nx),
        BSplineSpec(degree=degree_y, n_points=ny, boundary=boundary_y),
    )
    return builder, SplineEvaluator2D(builder.space_x, builder.space_y)


class TestBuilder2D:
    def test_exact_at_tensor_grid(self, rng):
        builder, ev = make2d()
        gx, gy = builder.interpolation_points()
        f = rng.standard_normal((builder.nx, builder.ny))
        coeffs = builder.solve(f)
        xx, yy = np.meshgrid(gx, gy, indexing="ij")
        vals = ev.eval_points(coeffs, xx.ravel(), yy.ravel()).reshape(f.shape)
        np.testing.assert_allclose(vals, f, atol=1e-9)

    def test_interpolates_smooth_function(self):
        builder, ev = make2d(nx=48, ny=40)
        gx, gy = builder.interpolation_points()
        f = np.sin(2 * np.pi * gx)[:, None] * np.cos(4 * np.pi * gy)[None, :]
        coeffs = builder.solve(f)
        rng = np.random.default_rng(5)
        xs, ys = rng.uniform(0, 1, 200), rng.uniform(0, 1, 200)
        vals = ev.eval_points(coeffs, xs, ys)
        exact = np.sin(2 * np.pi * xs) * np.cos(4 * np.pi * ys)
        np.testing.assert_allclose(vals, exact, atol=5e-4)

    def test_mixed_boundaries_and_degrees(self, rng):
        builder, ev = make2d(degree_x=3, degree_y=5, nx=24, ny=26,
                             boundary_y="clamped")
        gx, gy = builder.interpolation_points()
        f = rng.standard_normal((builder.nx, builder.ny))
        coeffs = builder.solve(f)
        xx, yy = np.meshgrid(gx, gy, indexing="ij")
        vals = ev.eval_points(coeffs, xx.ravel(), yy.ravel()).reshape(f.shape)
        np.testing.assert_allclose(vals, f, atol=1e-8)

    @pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
    def test_complex_coefficients_evaluate_as_complex(self, rng):
        builder, ev = make2d()
        re = builder.solve(rng.standard_normal((builder.nx, builder.ny)))
        im = builder.solve(rng.standard_normal((builder.nx, builder.ny)))
        xs, ys = rng.uniform(0, 1, 50), rng.uniform(0, 1, 50)
        got = ev.eval_points(re + 1j * im, xs, ys)
        assert got.dtype == np.complex128
        np.testing.assert_allclose(
            got, ev.eval_points(re, xs, ys) + 1j * ev.eval_points(im, xs, ys),
            atol=1e-13,
        )
        grid = ev.eval_grid(re + 1j * im, xs[:7], ys[:5])
        np.testing.assert_allclose(
            grid,
            ev.eval_grid(re, xs[:7], ys[:5]) + 1j * ev.eval_grid(im, xs[:7], ys[:5]),
            atol=1e-13,
        )

    def test_extra_batch_axis(self, rng):
        builder, _ = make2d()
        f = rng.standard_normal((builder.nx, builder.ny, 4))
        coeffs = builder.solve(f)
        assert coeffs.shape == f.shape
        for b in range(4):
            np.testing.assert_allclose(
                coeffs[:, :, b], builder.solve(f[:, :, b]), atol=1e-11
            )

    def test_order_of_passes_does_not_matter(self, rng):
        """Tensor-product solves commute: solving y-then-x must agree."""
        builder, _ = make2d()
        f = rng.standard_normal((builder.nx, builder.ny))
        coeffs = builder.solve(f)
        swapped = SplineBuilder2D(
            BSplineSpec(degree=3, n_points=builder.ny),
            BSplineSpec(degree=3, n_points=builder.nx),
        )
        coeffs_t = swapped.solve(f.T)
        np.testing.assert_allclose(coeffs, coeffs_t.T, atol=1e-10)

    def test_eval_grid_matches_eval_points(self, rng):
        builder, ev = make2d()
        f = rng.standard_normal((builder.nx, builder.ny))
        coeffs = builder.solve(f)
        xg = np.linspace(0.0, 1.0, 7, endpoint=False)
        yg = np.linspace(0.0, 1.0, 5, endpoint=False)
        grid = ev.eval_grid(coeffs, xg, yg)
        xx, yy = np.meshgrid(xg, yg, indexing="ij")
        pts = ev.eval_points(coeffs, xx.ravel(), yy.ravel()).reshape(7, 5)
        np.testing.assert_allclose(grid, pts, atol=1e-12)

    def test_shape_validation(self, rng):
        builder, ev = make2d()
        with pytest.raises(ShapeError):
            builder.solve(rng.standard_normal((builder.nx + 1, builder.ny)))
        coeffs = builder.solve(rng.standard_normal((builder.nx, builder.ny)))
        with pytest.raises(ShapeError):
            ev.eval_points(coeffs, np.ones(3), np.ones(4))
        with pytest.raises(ShapeError):
            ev.eval_points(coeffs[:-1], np.ones(3), np.ones(3))

    def test_repr(self):
        builder, _ = make2d()
        assert "pttrs" in repr(builder)
