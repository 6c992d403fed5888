"""Tests for PeriodicBSplines, matrix assembly, classification and blocks."""

import numpy as np
import pytest

from repro.core import BSplineSpec, MatrixType, classify_matrix, expected_type
from repro.core.bsplines import (
    PeriodicBSplines,
    cyclic_bandwidth,
    split_cyclic_banded,
    uniform_breakpoints,
)
from repro.core.spec import paper_configurations
from repro.exceptions import ShapeError
from repro.testing import rng_for

ALL_CONFIGS = list(paper_configurations(32))
CONFIG_IDS = [s.label for s in ALL_CONFIGS]


class TestSpace:
    def test_basic_geometry(self):
        space = PeriodicBSplines(uniform_breakpoints(16, 0.0, 2.0), 3)
        assert space.nbasis == 16
        assert space.period == pytest.approx(2.0)
        assert space.greville.shape == (16,)
        assert np.all((space.greville >= 0.0) & (space.greville < 2.0))

    def test_wrap(self):
        space = PeriodicBSplines(uniform_breakpoints(8, 0.0, 1.0), 3)
        np.testing.assert_allclose(space.wrap(1.25), 0.25)
        np.testing.assert_allclose(space.wrap(-0.25), 0.75)
        np.testing.assert_allclose(space.wrap(3.0), 0.0)

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-2.0, 5.0)])
    def test_wrap_arrays_keep_the_mod_bits(self, lo, hi):
        """Arrays skip ``np.mod`` inside the domain; every result is still
        bitwise ``xmin + np.mod(x - xmin, period)``."""
        space = PeriodicBSplines(uniform_breakpoints(16, lo, hi), 3)
        rng = rng_for(5)
        span = hi - lo
        x = np.concatenate([
            rng.uniform(lo, hi, 500),
            rng.uniform(lo - 3.0 * span, hi + 3.0 * span, 500),
            space.breaks,
            [-0.0, 0.0, np.nextafter(lo, -np.inf), np.nextafter(hi, -np.inf)],
        ])
        got = space.wrap(x)
        ref = space.xmin + np.mod(x - space.xmin, space.period)
        np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(ref))
        if lo == 0.0:  # in-range points come back bit for bit
            inside = (x >= lo) & (x < hi)
            np.testing.assert_array_equal(got[inside], x[inside])
        assert not np.shares_memory(got, x)

    def test_greville_uniform_degree3_are_breakpoints(self):
        space = PeriodicBSplines(uniform_breakpoints(8), 3)
        # Odd degree + uniform: Greville points are (shifted) break points.
        g = np.sort(space.greville)
        np.testing.assert_allclose(g, uniform_breakpoints(8)[:-1], atol=1e-12)

    def test_greville_uniform_degree4_are_midpoints(self):
        space = PeriodicBSplines(uniform_breakpoints(8), 4)
        g = np.sort(space.greville)
        expected = uniform_breakpoints(8)[:-1] + 1.0 / 16.0
        np.testing.assert_allclose(g, expected, atol=1e-12)

    def test_eval_nonzero_basis_partition_of_unity(self):
        spec = BSplineSpec(degree=5, n_points=24, uniform=False)
        space = spec.make_space()
        xs = np.linspace(0.0, 1.0, 100, endpoint=False)
        _, values = space.eval_nonzero_basis(xs)
        np.testing.assert_allclose(values.sum(axis=0), 1.0, atol=1e-12)

    def test_eval_outside_domain_wraps(self):
        space = PeriodicBSplines(uniform_breakpoints(8), 3)
        i1, v1 = space.eval_nonzero_basis(0.3)
        i2, v2 = space.eval_nonzero_basis(1.3)
        np.testing.assert_array_equal(i1, i2)
        np.testing.assert_allclose(v1, v2, atol=1e-12)


class TestCollocationMatrix:
    @pytest.mark.parametrize("spec", ALL_CONFIGS, ids=CONFIG_IDS)
    def test_rows_sum_to_one(self, spec):
        a = spec.make_space().collocation_matrix()
        np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("spec", ALL_CONFIGS, ids=CONFIG_IDS)
    def test_nonsingular(self, spec):
        a = spec.make_space().collocation_matrix()
        assert abs(np.linalg.det(a)) > 1e-12

    def test_degree3_uniform_structure_fig1(self):
        """Fig. 1: cyclic tridiagonal with (1/6, 4/6, 1/6) stencil."""
        a = BSplineSpec(degree=3, n_points=16).make_space().collocation_matrix()
        n = 16
        for i in range(n):
            np.testing.assert_allclose(a[i, i], 4 / 6, atol=1e-12)
            np.testing.assert_allclose(a[i, (i - 1) % n], 1 / 6, atol=1e-12)
            np.testing.assert_allclose(a[i, (i + 1) % n], 1 / 6, atol=1e-12)
        assert np.count_nonzero(np.abs(a) > 1e-14) == 3 * n

    def test_uniform_matrices_symmetric(self):
        for degree in (3, 4, 5):
            a = BSplineSpec(degree=degree, n_points=20).make_space().collocation_matrix()
            np.testing.assert_allclose(a, a.T, atol=1e-12)

    def test_custom_points(self):
        space = BSplineSpec(degree=3, n_points=12).make_space()
        pts = np.linspace(0.0, 1.0, 5, endpoint=False)
        a = space.collocation_matrix(pts)
        assert a.shape == (5, 12)
        np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-12)
        with pytest.raises(ShapeError):
            space.collocation_matrix(np.zeros((3, 3)))


class TestClassification:
    @pytest.mark.parametrize("spec", ALL_CONFIGS, ids=CONFIG_IDS)
    def test_table1_entries_hold(self, spec):
        """The paper's Table I, verified on assembled Q blocks."""
        a = spec.make_space().collocation_matrix()
        q = split_cyclic_banded(a).q
        assert classify_matrix(q) is expected_type(spec.degree, spec.uniform)

    def test_general_fallback(self, rng):
        a = rng.standard_normal((10, 10)) + 10 * np.eye(10)
        assert classify_matrix(a) is MatrixType.GENERAL

    def test_solver_names(self):
        assert MatrixType.PDS_TRIDIAGONAL.lapack_solver == "pttrs"
        assert MatrixType.PDS_BANDED.lapack_factorization == "pbtrf"
        assert MatrixType.GENERAL_BANDED.lapack_solver == "gbtrs"
        assert MatrixType.GENERAL.lapack_factorization == "getrf"

    def test_non_square_raises(self):
        with pytest.raises(ShapeError):
            classify_matrix(np.zeros((2, 3)))


class TestCyclicBlocks:
    def test_bandwidth_of_cyclic_tridiagonal(self):
        a = BSplineSpec(degree=3, n_points=16).make_space().collocation_matrix()
        assert cyclic_bandwidth(a) == 1

    def test_bandwidth_degree45(self):
        for degree in (4, 5):
            a = BSplineSpec(degree=degree, n_points=20).make_space().collocation_matrix()
            assert cyclic_bandwidth(a) == 2

    def test_split_reassembles(self):
        a = BSplineSpec(degree=4, n_points=20).make_space().collocation_matrix()
        blk = split_cyclic_banded(a)
        m = blk.q.shape[0]
        re = np.block([[blk.q, blk.gamma], [blk.lam, blk.delta]])
        np.testing.assert_allclose(re, a)
        assert blk.n == 20
        assert m == 20 - blk.corner_width

    def test_q_has_no_wrap(self):
        a = BSplineSpec(degree=5, n_points=24).make_space().collocation_matrix()
        blk = split_cyclic_banded(a)
        rows, cols = np.nonzero(np.abs(blk.q) > 1e-14)
        assert np.max(np.abs(rows - cols)) <= blk.corner_width

    def test_corner_sparsity_matches_paper(self):
        """§IV-D: degree-3 λ block has exactly 2 non-zeros."""
        a = BSplineSpec(degree=3, n_points=64).make_space().collocation_matrix()
        blk = split_cyclic_banded(a)
        assert blk.lam.shape == (1, 63)
        assert np.count_nonzero(np.abs(blk.lam) > 1e-14) == 2
        assert blk.gamma.shape == (63, 1)
        assert np.count_nonzero(np.abs(blk.gamma) > 1e-14) == 2

    def test_not_banded_raises(self, rng):
        with pytest.raises(ShapeError):
            split_cyclic_banded(rng.standard_normal((8, 8)))

    def test_diagonal_matrix(self):
        blk = split_cyclic_banded(np.diag([1.0, 2.0, 3.0, 4.0]))
        assert blk.corner_width == 1
        assert blk.q.shape == (3, 3)


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            BSplineSpec(degree=0)
        with pytest.raises(ValueError):
            BSplineSpec(degree=5, n_points=6)

    def test_with_size(self):
        spec = BSplineSpec(degree=4, n_points=32, uniform=False)
        bigger = spec.with_size(128)
        assert bigger.n_points == 128
        assert bigger.degree == 4 and not bigger.uniform

    def test_label(self):
        assert BSplineSpec(degree=3, n_points=16).label == "uniform (Degree 3)"
        assert (
            BSplineSpec(degree=5, n_points=16, uniform=False).label
            == "non-uniform (Degree 5)"
        )

    def test_paper_configurations(self):
        specs = list(paper_configurations(100))
        assert len(specs) == 6
        assert all(s.n_points == 100 for s in specs)
        assert {(s.degree, s.uniform) for s in specs} == {
            (d, u) for d in (3, 4, 5) for u in (True, False)
        }
