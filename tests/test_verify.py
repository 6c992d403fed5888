"""Unit tests for :mod:`repro.verify`: residual, condest, oracles, CLI."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.builder.builder import SplineBuilder
from repro.core.builder.ginkgo_builder import GinkgoSplineBuilder
from repro.core.builder.plan import make_plan
from repro.core.bsplines.classify import MatrixType
from repro.core.spec import BSplineSpec
from repro.exceptions import ShapeError, VerificationError
from repro.testing import (
    random_banded,
    random_general,
    random_spd_banded,
    random_spd_tridiagonal,
    tridiagonal_to_dense,
)
from repro.verify import (
    BandedOperator,
    OracleResult,
    ResidualChecker,
    backward_error,
    condest_from_plan,
    condest_from_solver,
    condition_tolerance,
    max_ulp_diff,
    onenormest,
    run_oracles,
)
from repro.verify.cli import main as verify_main

SPEC = BSplineSpec(degree=3, n_points=32)


# -- BandedOperator --------------------------------------------------------


@pytest.mark.parametrize("boundary", ["periodic", "clamped"])
@pytest.mark.parametrize("degree", [3, 5])
def test_banded_operator_round_trip(boundary, degree):
    spec = BSplineSpec(degree=degree, n_points=24, boundary=boundary)
    matrix = SplineBuilder(spec).matrix
    op = BandedOperator.from_dense(matrix)
    np.testing.assert_allclose(op.to_dense(), matrix, atol=1e-15)
    kl, ku = op.bandwidths
    assert kl >= 0 and ku >= 0
    assert op.nnz <= matrix.size
    if boundary == "periodic":
        assert op.corners.nnz > 0  # cyclic wrap lands in the corner list
    else:
        assert op.corners.nnz == 0


def test_banded_operator_matmat_matches_dense(rng):
    a = random_banded(20, 2, 3, rng)
    a[0, -1] = 0.5  # wrap corner entries
    a[-1, 0] = -0.25
    op = BandedOperator.from_dense(a)
    x = rng.standard_normal((20, 7))
    np.testing.assert_allclose(op.matmat(x), a @ x, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(op.matvec(x[:, 0]), a @ x[:, 0], rtol=1e-13)


def test_banded_operator_norms_exact(rng):
    a = random_banded(17, 1, 2, rng)
    a[0, -1] = 3.0
    op = BandedOperator.from_dense(a)
    assert op.norm_inf == pytest.approx(np.abs(a).sum(axis=1).max())
    assert op.norm1 == pytest.approx(np.abs(a).sum(axis=0).max())
    # cached: second read returns the same object state
    assert op.norm_inf == pytest.approx(np.abs(a).sum(axis=1).max())


def test_banded_operator_shape_errors(rng):
    with pytest.raises(ShapeError):
        BandedOperator.from_dense(np.zeros((3, 4)))
    op = BandedOperator.from_dense(np.eye(4))
    with pytest.raises(ShapeError):
        op.matmat(np.zeros(4))  # 1-D into matmat
    with pytest.raises(ShapeError):
        op.matmat(np.zeros((5, 2)))  # wrong leading extent


# -- backward_error --------------------------------------------------------


def test_backward_error_of_true_solution_is_tiny(rng):
    a = random_general(16, rng)
    op = BandedOperator.from_dense(a)
    b = rng.standard_normal((16, 4))
    x = np.linalg.solve(a, b)
    eta = backward_error(op, x, b)
    assert eta.shape == (4,)
    assert np.all(eta < 64 * np.finfo(np.float64).eps)


def test_backward_error_detects_perturbation(rng):
    a = random_general(16, rng)
    op = BandedOperator.from_dense(a)
    b = rng.standard_normal(16)
    x = np.linalg.solve(a, b)
    x[3] += 1.0
    assert backward_error(op, x, b)[0] > 1e-3


def test_backward_error_zero_and_nonfinite_columns(rng):
    op = BandedOperator.from_dense(np.eye(4))
    eta = backward_error(op, np.zeros((4, 1)), np.zeros((4, 1)))
    assert eta[0] == 0.0  # 0 = 0 solved exactly, not NaN
    bad = np.zeros((4, 1))
    bad[1] = np.nan
    assert backward_error(op, bad, np.zeros((4, 1)))[0] == np.inf
    with pytest.raises(ShapeError):
        backward_error(op, np.zeros((4, 2)), np.zeros((4, 3)))


# -- condest ---------------------------------------------------------------


def _plan_case(kind, rng):
    if kind is MatrixType.PDS_TRIDIAGONAL:
        return tridiagonal_to_dense(*random_spd_tridiagonal(24, rng))
    if kind is MatrixType.PDS_BANDED:
        return random_spd_banded(24, 2, rng)
    if kind is MatrixType.GENERAL_BANDED:
        return random_banded(24, 2, 3, rng)
    return random_general(24, rng)


@pytest.mark.parametrize("kind", list(MatrixType), ids=lambda k: k.lapack_solver)
def test_condest_from_plan_close_to_truth(kind, rng):
    a = _plan_case(kind, rng)
    plan = make_plan(a, force=kind)
    estimate = plan.condest()
    truth = np.linalg.cond(a, 1)
    assert 0.3 * truth <= estimate <= 3.0 * truth
    assert plan.condest() == estimate  # cached on the plan
    assert condest_from_plan(plan) == pytest.approx(estimate)


@pytest.mark.parametrize("kind", list(MatrixType), ids=lambda k: k.lapack_solver)
def test_plan_transpose_solve_matches_dense(kind, rng):
    a = _plan_case(kind, rng)
    plan = make_plan(a, force=kind)
    b = rng.standard_normal((24, 3))
    work = b.copy()
    plan.solve_transpose(work)
    np.testing.assert_allclose(work, np.linalg.solve(a.T, b), rtol=1e-9, atol=1e-10)


def test_onenormest_identity_and_errors():
    ident = lambda v: v.copy()  # noqa: E731
    assert onenormest(ident, ident, 8) == pytest.approx(1.0)
    assert onenormest(ident, ident, 1) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        onenormest(ident, ident, 0)
    with pytest.raises(ValueError):
        onenormest(ident, ident, 8, itmax=0)


def test_condest_from_solver_spline(rng):
    builder = SplineBuilder(SPEC)
    estimate = condest_from_solver(builder.solver)
    truth = np.linalg.cond(builder.matrix, 1)
    assert 0.3 * truth <= estimate <= 3.0 * truth


def test_condition_tolerance_scales_and_clips():
    eps64 = np.finfo(np.float64).eps
    assert condition_tolerance(10.0, np.float64) == pytest.approx(640 * eps64)
    assert condition_tolerance(1e20, np.float64) == 1.0  # clipped
    assert condition_tolerance(10.0, np.float32) > condition_tolerance(
        10.0, np.float64
    )


# -- ResidualChecker -------------------------------------------------------


def test_residual_checker_pass_and_report(rng):
    builder = SplineBuilder(SPEC)
    checker = ResidualChecker(builder)
    rhs = rng.standard_normal((builder.n, 6))
    report = checker.check(builder.solve(rhs), rhs, keep_errors=True)
    assert report.passed
    assert report.cols_checked == 6
    assert report.errors is not None and report.errors.shape == (6,)
    report.raise_if_failed()  # passing report must not raise


def test_residual_checker_explicit_tolerance(rng):
    builder = SplineBuilder(SPEC)
    checker = ResidualChecker(builder, tol=1e-30)  # absurdly tight
    rhs = rng.standard_normal((builder.n, 2))
    report = checker.check(builder.solve(rhs), rhs)
    assert not report.passed
    with pytest.raises(VerificationError) as excinfo:
        report.raise_if_failed()
    assert excinfo.value.tol == pytest.approx(1e-30)
    assert excinfo.value.backward_error == pytest.approx(report.worst)


def test_residual_checker_rejects_matrixless_builder():
    class NoMatrix:
        dtype = np.dtype(np.float64)

    with pytest.raises(TypeError):
        ResidualChecker(NoMatrix())


def test_residual_checker_iterative_builder_fallback(rng):
    """The Krylov builder has no transpose solve: κ falls back to 1."""
    builder = GinkgoSplineBuilder(SPEC)
    checker = ResidualChecker(builder)
    assert checker.kappa == 1.0
    rhs = rng.standard_normal((builder.n, 3))
    assert checker.check(builder.solve(rhs), rhs).passed


def test_uniform_periodic_solves_verify_at_large_n(rng):
    """A uniform periodic matrix is assembled as an exact circulant, so
    correct solves verify at any n.  The symmetric solvers factor one
    triangle; per-row rounding of the global knots once made the
    assembled matrix asymmetric by 1.1e-13 at n=1000, and η against it
    exceeded the engine's 64·κ₁·ε tolerance on correct answers."""
    from repro.runtime.engine import EngineConfig, SolveEngine

    with SolveEngine(EngineConfig(verify_every=1)) as engine:
        for degree in (3, 5):
            spec = BSplineSpec(degree=degree, n_points=1000)
            for rhs in (np.ones(1000), rng.standard_normal(1000)):
                engine.solve(spec, rhs)  # VerificationError on rejection
    eps = np.finfo(np.float64).eps
    for n in (500, 600, 1000):
        for degree in (3, 4, 5):
            builder = SplineBuilder(BSplineSpec(degree=degree, n_points=n))
            checker = ResidualChecker(builder)
            rhs = rng.standard_normal((n, 4))
            x = builder.solve(rhs)
            assert checker.backward_errors(x, rhs).max() <= 4 * eps
            perturbed = x * (1.0 + 1e-10 * rng.standard_normal(x.shape))
            assert not checker.check(perturbed, rhs).passed


# -- oracles ---------------------------------------------------------------


def test_max_ulp_diff_counts_ulps():
    ref = np.array([1.0, 2.0])
    got = ref + np.spacing(2.0) * np.array([0.0, 3.0])
    assert max_ulp_diff(got, ref) == pytest.approx(3.0, abs=0.01)
    assert max_ulp_diff(ref, ref) == 0.0
    with pytest.raises(ShapeError):
        max_ulp_diff(np.zeros(3), np.zeros(4))


def test_max_ulp_diff_uses_coarser_dtype():
    ref = np.ones(4, dtype=np.float64)
    got = (ref + np.spacing(np.float32(1.0))).astype(np.float32)
    assert max_ulp_diff(got, ref) == pytest.approx(1.0, abs=0.01)


def test_run_oracles_rejects_unknown_names():
    with pytest.raises(ValueError):
        run_oracles(SPEC, oracles=("nonsense",))


def test_oracle_result_str_formatting():
    result = OracleResult(
        oracle="backend", case="deg=3", passed=False,
        max_ulp=12.0, tol_ulp=4.0, kappa=2.0,
    )
    text = str(result)
    assert "FAIL" in text and "backend" in text and "12.0 ulp" in text


# -- CLI -------------------------------------------------------------------

_QUICK_ARGS = [
    "--quick", "--boundaries", "periodic", "--dtypes", "float64",
    "--versions", "2", "--backends", "vectorized",
]


def test_cli_quick_sweep_passes(capsys):
    rc = verify_main(_QUICK_ARGS + ["--oracles", "residual,backend"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "oracle scoreboard" in out
    assert "0 failed" in out


def test_cli_failures_only_quiet_on_success(capsys):
    rc = verify_main(_QUICK_ARGS + ["--oracles", "residual", "--failures-only"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "scoreboard" not in out  # table suppressed, summary still printed
    assert "0 failed" in out


def test_cli_rejects_unknown_oracle_and_dtype(capsys):
    assert verify_main(["--oracles", "bogus"]) == 2
    assert verify_main(["--dtypes", "float16"]) == 2


def test_cli_reports_failures_with_exit_one(capsys, monkeypatch):
    """An impossibly small tolerance factor makes every oracle fail."""
    rc = verify_main(
        _QUICK_ARGS + ["--oracles", "residual", "--tol-factor", "1e-12"]
    )
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out
