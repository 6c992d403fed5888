"""Tests for the mini execution-space substrate."""

import numpy as np
import pytest

from repro.exceptions import BackendError, ShapeError
from repro.xspace import (
    LayoutLeft,
    LayoutRight,
    RangePolicy,
    SerialSpace,
    ThreadsSpace,
    View,
    create_mirror_view,
    deep_copy,
    get_execution_space,
    layout_of,
    parallel_for,
    parallel_reduce,
    subview,
)
from repro.xspace.layout import with_layout


class TestLayout:
    def test_layout_of_contiguous(self):
        a = np.zeros((3, 4))
        assert layout_of(a) is LayoutRight
        assert layout_of(np.asfortranarray(a)) is LayoutLeft

    def test_layout_of_strided_raises(self):
        a = np.zeros((4, 6))[:, ::2]
        with pytest.raises(ValueError):
            layout_of(a)

    def test_with_layout_copies_only_when_needed(self):
        a = np.zeros((3, 4))
        assert with_layout(a, LayoutRight) is a
        f = with_layout(a, LayoutLeft)
        assert f.flags["F_CONTIGUOUS"]

    def test_numpy_order(self):
        assert LayoutRight.numpy_order == "C"
        assert LayoutLeft.numpy_order == "F"


class TestView:
    def test_allocate_from_shape(self):
        v = View((3, 5), label="b0")
        assert v.shape == (3, 5)
        assert v.extent(1) == 5
        assert v.rank == 2
        assert v.label == "b0"
        np.testing.assert_allclose(v.data, 0.0)

    def test_wrap_existing_array(self):
        a = np.arange(6.0).reshape(2, 3)
        v = View(a)
        assert v.data is a  # no copy for matching layout

    def test_wrap_converts_layout(self):
        a = np.arange(6.0).reshape(2, 3)
        v = View(a, layout=LayoutLeft)
        assert v.data.flags["F_CONTIGUOUS"]
        np.testing.assert_allclose(v.data, a)

    def test_negative_extent_raises(self):
        with pytest.raises(ShapeError):
            View((3, -1))

    def test_getitem_setitem(self):
        v = View((2, 2))
        v[0, 1] = 7.0
        assert v[0, 1] == 7.0
        assert np.asarray(v).shape == (2, 2)

    def test_fill(self):
        v = View((4,))
        v.fill(2.5)
        np.testing.assert_allclose(v.data, 2.5)

    def test_subview_is_a_view(self):
        v = View((4, 6))
        col = subview(v, slice(None), 2)
        col[:] = 3.0
        np.testing.assert_allclose(v[:, 2], 3.0)

    def test_deep_copy(self):
        a = View((3,))
        b = View((3,))
        b.data[:] = [1.0, 2.0, 3.0]
        deep_copy(a, b)
        np.testing.assert_allclose(a.data, b.data)
        deep_copy(a, 9.0)
        np.testing.assert_allclose(a.data, 9.0)
        with pytest.raises(ShapeError):
            deep_copy(a, View((4,)))

    def test_mirror_view(self):
        v = View((2, 3), label="x")
        m = create_mirror_view(v, layout=LayoutLeft)
        assert m.shape == v.shape
        assert m.layout is LayoutLeft
        assert m.label == "x_mirror"


class TestSpaces:
    def test_registry(self):
        assert isinstance(get_execution_space("serial"), SerialSpace)
        assert isinstance(get_execution_space("threads"), ThreadsSpace)
        assert get_execution_space("serial") is get_execution_space("SERIAL")
        with pytest.raises(BackendError):
            get_execution_space("cuda")

    @pytest.mark.parametrize("space_name", ["serial", "threads"])
    def test_run_covers_range(self, space_name):
        space = get_execution_space(space_name)
        hits = np.zeros(101, dtype=np.int64)

        def functor(i):
            hits[i] += 1

        space.run(3, 101, functor)
        assert hits[:3].sum() == 0
        np.testing.assert_array_equal(hits[3:], 1)

    @pytest.mark.parametrize("space_name", ["serial", "threads"])
    def test_reduce(self, space_name):
        space = get_execution_space(space_name)
        total = space.reduce(0, 100, lambda i: float(i))
        assert total == pytest.approx(4950.0)

    def test_empty_range(self):
        space = get_execution_space("threads")
        space.run(5, 5, lambda i: 1 / 0)  # body must never run

    def test_threads_propagates_exceptions(self):
        space = ThreadsSpace(num_threads=2)

        def bad(i):
            if i == 37:
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            space.run(0, 64, bad)
        space.shutdown()

    def test_threads_validates_count(self):
        with pytest.raises(BackendError):
            ThreadsSpace(num_threads=0)


class TestParallelDispatch:
    def test_parallel_for_with_count(self):
        out = np.zeros(10)
        parallel_for("k", 10, lambda i: out.__setitem__(i, i * 2.0))
        np.testing.assert_allclose(out, np.arange(10) * 2.0)

    def test_parallel_for_with_policy(self):
        out = []
        parallel_for("k", RangePolicy(2, 5), out.append)
        assert out == [2, 3, 4]

    def test_parallel_reduce(self):
        assert parallel_reduce("r", 5, lambda i: float(i)) == pytest.approx(10.0)

    def test_negative_range_raises(self):
        with pytest.raises(ValueError):
            RangePolicy(5, 2)

    def test_parallel_scan_prefix_sums(self):
        from repro.xspace import parallel_scan

        values = [3.0, 1.0, 4.0, 1.0, 5.0]
        prefixes = {}

        def functor(i, partial, final):
            if final:
                prefixes[i] = partial  # exclusive prefix
            return values[i]

        total = parallel_scan("scan", len(values), functor)
        assert total == pytest.approx(14.0)
        assert prefixes == {0: 0.0, 1: 3.0, 2: 4.0, 3: 8.0, 4: 9.0}

    def test_parallel_scan_empty(self):
        from repro.xspace import parallel_scan

        assert parallel_scan("scan", 0, lambda i, p, f: 1.0) == 0.0

    def test_parallel_for_md_covers_rectangle(self):
        from repro.xspace import MDRangePolicy, parallel_for_md

        hits = np.zeros((4, 6), dtype=np.int64)
        parallel_for_md(
            "md", MDRangePolicy(1, 4, 2, 6),
            lambda i, j: hits.__setitem__((i, j), hits[i, j] + 1),
        )
        assert hits[1:4, 2:6].sum() == 12
        assert hits.sum() == 12

    def test_mdrange_validation(self):
        from repro.xspace import MDRangePolicy

        with pytest.raises(ValueError):
            MDRangePolicy(3, 1, 0, 2)

    def test_parallel_for_md_threads(self):
        from repro.xspace import MDRangePolicy, parallel_for_md

        out = np.zeros((8, 8))
        policy = MDRangePolicy(0, 8, 0, 8, space=get_execution_space("threads"))
        parallel_for_md("md", policy, lambda i, j: out.__setitem__((i, j), i * j))
        expected = np.arange(8)[:, None] * np.arange(8)[None, :]
        np.testing.assert_array_equal(out, expected)
