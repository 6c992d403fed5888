"""Tests for the repro.backend registry, helpers and engine plumbing."""

import numpy as np
import pytest

from repro.backend import (
    ENV_VAR,
    ascopy,
    asnumpy,
    available_backends,
    backend_name_of,
    default_namespace,
    get_namespace,
    is_floating,
    is_integral,
    is_numpy_namespace,
    ordered_matmul,
    outer,
    register_backend,
    registered_backends,
    resolve_backend,
)
from repro.exceptions import BackendError


class TestRegistry:
    def test_numpy_always_registered_and_available(self):
        assert "numpy" in registered_backends()
        assert "numpy" in available_backends()

    def test_minimal_backend_importable(self):
        xp = resolve_backend("minimal")
        assert backend_name_of(xp).endswith("minimal")

    def test_unknown_backend_raises(self):
        with pytest.raises(BackendError):
            resolve_backend("no-such-backend")

    def test_default_namespace_is_numpy_without_env(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert default_namespace() is np

    def test_env_var_selects_default(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "minimal")
        assert default_namespace() is resolve_backend("minimal")

    def test_register_backend_roundtrip(self):
        sentinel = object()
        register_backend("test-sentinel", lambda: sentinel)
        try:
            assert resolve_backend("test-sentinel") is sentinel
        finally:
            from repro.backend import registry

            with registry._LOCK:
                registry._REGISTRY.pop("test-sentinel", None)


class TestGetNamespace:
    def test_numpy_arrays_resolve_to_numpy(self):
        assert get_namespace(np.zeros(3)) is np
        assert is_numpy_namespace(get_namespace(np.zeros(3), 1.0, None))

    def test_scalars_alone_fall_back_to_default(self):
        assert get_namespace(1.0, 2, default=np) is np

    def test_minimal_arrays_resolve_to_minimal(self):
        xp = resolve_backend("minimal")
        a = xp.asarray(np.zeros(3))
        assert get_namespace(a) is xp
        assert not is_numpy_namespace(get_namespace(a))

    def test_mixed_namespaces_raise(self):
        xp = resolve_backend("minimal")
        with pytest.raises(BackendError):
            get_namespace(np.zeros(3), xp.asarray(np.zeros(3)))


class TestHelpers:
    def test_asnumpy_passthrough(self):
        a = np.arange(4.0)
        assert asnumpy(a) is a

    def test_asnumpy_from_minimal(self):
        xp = resolve_backend("minimal")
        a = xp.asarray(np.arange(6.0).reshape(2, 3))
        out = asnumpy(a)
        assert isinstance(out, np.ndarray)
        np.testing.assert_array_equal(out, np.arange(6.0).reshape(2, 3))

    def test_ascopy_is_a_fresh_buffer(self):
        a = np.ones(4)
        b = ascopy(a)
        b[0] = 7.0
        assert a[0] == 1.0

    def test_ascopy_casts(self):
        xp = resolve_backend("minimal")
        a = xp.asarray(np.ones(3))
        b = ascopy(a, dtype=np.float32, xp=xp)
        assert b.dtype == np.float32

    def test_ordered_matmul_matches_einsum_on_numpy(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 5))
        b = rng.standard_normal((5, 3))
        ref = np.einsum("ik,kj->ij", a, b, optimize=False)
        out = ordered_matmul(np, a, b)
        np.testing.assert_array_equal(out, ref)

    def test_outer_matches_np_outer(self):
        u = np.arange(3.0)
        v = np.arange(4.0) + 1.0
        np.testing.assert_array_equal(outer(np, u, v), np.outer(u, v))

    def test_dtype_kind_helpers(self):
        assert is_floating(np, np.dtype(np.float32))
        assert is_floating(np, np.dtype(np.complex128))
        assert not is_floating(np, np.dtype(np.int32))
        assert is_integral(np, np.dtype(np.int64))
        assert is_integral(np, np.dtype(bool))
        assert not is_integral(np, np.dtype(np.float64))


class TestMinimalStrictness:
    """The in-repo strict namespace must actually catch non-portable
    indexing, so passing the conformance suite means something."""

    def test_partial_indexing_rejected(self):
        xp = resolve_backend("minimal")
        a = xp.asarray(np.zeros((3, 4)))
        with pytest.raises(IndexError):
            a[0]

    def test_none_indexing_rejected(self):
        xp = resolve_backend("minimal")
        a = xp.asarray(np.zeros(3))
        with pytest.raises(IndexError):
            a[:, None]

    def test_ellipsis_indexing_accepted(self):
        xp = resolve_backend("minimal")
        a = xp.asarray(np.arange(12.0).reshape(3, 4))
        assert float(a[0, ...][1]) == 1.0

    def test_no_implicit_numpy_coercion(self):
        xp = resolve_backend("minimal")
        a = xp.asarray(np.zeros((2, 2)))
        assert not hasattr(a, "__array__")


class TestEngineBackendNs:
    def test_unknown_backend_ns_rejected(self):
        from repro.runtime.engine import EngineConfig

        with pytest.raises(BackendError):
            EngineConfig(backend_ns="no-such-backend")

    def test_processes_executor_requires_numpy(self):
        from repro.runtime.engine import EngineConfig, SolveEngine

        config = EngineConfig(executor="processes", backend_ns="minimal")
        with pytest.raises(BackendError):
            SolveEngine(config)

    def test_backend_ns_stages_results(self):
        from repro.core import BSplineSpec
        from repro.runtime.engine import SolveEngine

        xp = resolve_backend("minimal")
        spec = BSplineSpec(degree=3, n_points=24)
        with SolveEngine(max_batch=8, backend_ns="minimal") as engine:
            rhs = np.ones(24)
            out = engine.solve(spec, rhs)
            assert get_namespace(out) is xp
            ref = engine.solve(spec, xp.asarray(rhs))
            np.testing.assert_allclose(asnumpy(out), asnumpy(ref))

