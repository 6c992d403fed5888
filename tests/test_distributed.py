"""Tests for the simulated distributed-memory layer."""

import numpy as np
import pytest

from repro.advection import BatchedAdvection1D
from repro.core import BSplineSpec, SplineBuilder
from repro.distributed import (
    Decomposition,
    DistributedAdvection1D,
    NetworkModel,
    SimulatedComm,
    redistribute_alltoall,
)
from repro.exceptions import ShapeError


class TestDecomposition:
    def test_bounds_cover_exactly(self):
        d = Decomposition(10, 3)
        spans = [d.bounds(r) for r in range(3)]
        assert spans == [(0, 4), (4, 7), (7, 10)]
        assert sum(d.local_size(r) for r in range(3)) == 10

    def test_even_split(self):
        d = Decomposition(8, 4)
        assert all(d.local_size(r) == 2 for r in range(4))

    def test_split_axis(self, rng):
        d = Decomposition(7, 2)
        a = rng.standard_normal((7, 3))
        blocks = d.split(a, axis=0)
        np.testing.assert_array_equal(np.concatenate(blocks, axis=0), a)
        b = rng.standard_normal((3, 7))
        blocks = d.split(b, axis=1)
        np.testing.assert_array_equal(np.concatenate(blocks, axis=1), b)

    def test_validation(self):
        with pytest.raises(ShapeError):
            Decomposition(0, 3)
        with pytest.raises(ShapeError):
            Decomposition(-1, 2)
        with pytest.raises(ShapeError):
            Decomposition(4, 0)
        with pytest.raises(ShapeError):
            Decomposition(4, 2).split(np.zeros((5, 2)), axis=0)

    def test_more_ranks_than_items_yields_zero_width_blocks(self):
        # Regression: this used to raise, crashing worker pools wider
        # than a narrow batch.  Trailing ranks now get (extent, extent).
        d = Decomposition(2, 5)
        spans = [d.bounds(r) for r in range(5)]
        assert spans == [(0, 1), (1, 2), (2, 2), (2, 2), (2, 2)]
        assert sum(d.local_size(r) for r in range(5)) == 2
        for begin, end in spans:
            assert 0 <= begin <= end <= 2

    def test_zero_width_split_blocks_are_empty(self, rng):
        d = Decomposition(3, 5)
        a = rng.standard_normal((4, 3))
        blocks = d.split(a, axis=1)
        assert [b.shape[1] for b in blocks] == [1, 1, 1, 0, 0]
        np.testing.assert_array_equal(np.concatenate(blocks, axis=1), a)

    @pytest.mark.parametrize("extent,ranks", [(10, 3), (11, 4), (7, 7),
                                              (5, 8), (1, 1)])
    def test_uneven_remainders_cover_contiguously(self, extent, ranks):
        d = Decomposition(extent, ranks)
        spans = [d.bounds(r) for r in range(ranks)]
        assert spans[0][0] == 0 and spans[-1][1] == extent
        for (_, e0), (b1, _) in zip(spans, spans[1:]):
            assert e0 == b1
        sizes = [d.local_size(r) for r in range(ranks)]
        assert max(sizes) - min(sizes) <= 1


class TestSimulatedComm:
    def test_send_recv_roundtrip(self, rng):
        comm = SimulatedComm(2)
        msg = rng.standard_normal(5)
        comm.send(0, 1, msg)
        np.testing.assert_array_equal(comm.recv(0, 1), msg)
        assert comm.bytes_sent == msg.nbytes
        assert comm.messages == 1

    def test_send_copies(self):
        comm = SimulatedComm(2)
        msg = np.zeros(3)
        comm.send(0, 1, msg)
        msg[:] = 9.0
        np.testing.assert_array_equal(comm.recv(0, 1), 0.0)

    def test_recv_empty_raises(self):
        comm = SimulatedComm(2)
        with pytest.raises(ShapeError):
            comm.recv(0, 1)

    def test_rank_validation(self):
        comm = SimulatedComm(2)
        with pytest.raises(ShapeError):
            comm.send(0, 5, np.zeros(1))
        with pytest.raises(ShapeError):
            SimulatedComm(0)

    def test_alltoall_transposes_ownership(self, rng):
        comm = SimulatedComm(3)
        chunks = [[rng.standard_normal(2) for _ in range(3)] for _ in range(3)]
        out = comm.alltoall(chunks)
        for src in range(3):
            for dst in range(3):
                np.testing.assert_array_equal(out[dst][src], chunks[src][dst])

    def test_alltoall_excludes_self_traffic(self):
        comm = SimulatedComm(2)
        chunks = [[np.zeros(4), np.zeros(4)], [np.zeros(4), np.zeros(4)]]
        comm.alltoall(chunks)
        assert comm.bytes_sent == 2 * 4 * 8  # only off-diagonal chunks

    def test_reset_counters(self):
        comm = SimulatedComm(2)
        comm.send(0, 1, np.zeros(2))
        comm.reset_counters()
        assert comm.bytes_sent == 0 and comm.messages == 0


class TestRedistribute:
    def test_roundtrip_recovers_field(self, rng):
        comm = SimulatedComm(3)
        rows, cols = Decomposition(9, 3), Decomposition(12, 3)
        f = rng.standard_normal((9, 12))
        row_blocks = rows.split(f, axis=0)
        col_blocks = redistribute_alltoall(comm, row_blocks, rows, cols)
        np.testing.assert_allclose(np.concatenate(col_blocks, axis=1), f)
        back = redistribute_alltoall(
            comm, [np.ascontiguousarray(b.T) for b in col_blocks], cols, rows
        )
        np.testing.assert_allclose(np.concatenate(back, axis=1), f.T)

    def test_block_count_validation(self):
        comm = SimulatedComm(2)
        with pytest.raises(ShapeError):
            redistribute_alltoall(comm, [np.zeros((2, 2))],
                                  Decomposition(4, 2), Decomposition(2, 2))

    @pytest.mark.parametrize("nrows,ncols,ranks", [
        (9, 12, 3),    # even split both ways
        (10, 7, 3),    # uneven remainders on both axes
        (5, 11, 4),    # remainder rows < ranks
        (6, 6, 1),     # single-rank degenerate: pure local copy
        (3, 8, 3),     # rows == ranks (one row per rank)
    ])
    def test_row_col_row_roundtrip_bitwise(self, rng, nrows, ncols, ranks):
        """Property: row→col→row redistribution is bitwise the identity.

        The transpose only moves bytes (slice, exchange, concatenate);
        no arithmetic touches them, so equality must be exact for any
        extent/rank combination, remainders included.
        """
        comm = SimulatedComm(ranks)
        rows = Decomposition(nrows, ranks)
        cols = Decomposition(ncols, ranks)
        f = rng.standard_normal((nrows, ncols))
        row_blocks = rows.split(f, axis=0)
        col_blocks = redistribute_alltoall(comm, row_blocks, rows, cols)
        back = redistribute_alltoall(
            comm,
            [np.ascontiguousarray(b.T) for b in col_blocks],
            cols,
            rows,
        )
        # back[r] is rank r's row block transposed: (ncols, local_rows).
        restored = np.concatenate(back, axis=1).T
        assert restored.dtype == f.dtype
        np.testing.assert_array_equal(restored, f)
        for r in range(ranks):
            np.testing.assert_array_equal(back[r].T, row_blocks[r])

    def test_roundtrip_counts_only_off_diagonal_bytes(self, rng):
        """Byte accounting excludes exactly the diagonal self-sends."""
        ranks, nrows, ncols = 3, 10, 7
        comm = SimulatedComm(ranks)
        rows = Decomposition(nrows, ranks)
        cols = Decomposition(ncols, ranks)
        f = rng.standard_normal((nrows, ncols))
        row_blocks = rows.split(f, axis=0)
        redistribute_alltoall(comm, row_blocks, rows, cols)
        itemsize = f.itemsize
        expected = sum(
            rows.local_size(src) * cols.local_size(dst) * itemsize
            for src in range(ranks)
            for dst in range(ranks)
            if src != dst
        )
        assert comm.bytes_sent == expected
        assert comm.messages == ranks * (ranks - 1)


class TestNetworkModel:
    def test_message_time(self):
        net = NetworkModel(latency_s=1e-6, bandwidth_gbs=10.0)
        assert net.message_time(0) == pytest.approx(1e-6)
        assert net.message_time(10**10) == pytest.approx(1.0, rel=0.01)

    def test_alltoall_single_rank_free(self):
        assert NetworkModel().alltoall_time(1, 10**9) == 0.0

    def test_alltoall_scales_with_ranks(self):
        net = NetworkModel()
        t4 = net.alltoall_time(4, 10**9)
        t16 = net.alltoall_time(16, 10**9)
        assert t4 > 0 and t16 > 0


class TestDistributedAdvection:
    @pytest.mark.parametrize("decompose", ["batch", "line"])
    @pytest.mark.parametrize("ranks", [1, 3, 4])
    def test_matches_single_rank(self, decompose, ranks):
        builder = SplineBuilder(BSplineSpec(degree=3, n_points=48))
        v = np.linspace(-1.0, 1.0, 10)
        serial = BatchedAdvection1D(builder, v, 0.02)
        dist = DistributedAdvection1D(builder, v, 0.02, ranks=ranks,
                                      decompose=decompose)
        f = np.sin(2 * np.pi * serial.x)[None, :] * np.cosh(v)[:, None]
        np.testing.assert_allclose(
            dist.step(f.copy()), serial.step(f.copy()), atol=1e-12
        )

    def test_batch_decomposition_has_zero_communication(self):
        builder = SplineBuilder(BSplineSpec(degree=3, n_points=32))
        dist = DistributedAdvection1D(builder, np.linspace(-1, 1, 8), 0.02,
                                      ranks=4, decompose="batch")
        f = np.ones((8, 32))
        dist.step(f)
        assert dist.bytes_communicated == 0
        assert dist.estimated_comm_seconds() == 0.0

    def test_line_decomposition_communicates(self):
        builder = SplineBuilder(BSplineSpec(degree=3, n_points=32))
        dist = DistributedAdvection1D(builder, np.linspace(-1, 1, 8), 0.02,
                                      ranks=4, decompose="line")
        f = np.ones((8, 32))
        dist.step(f)
        assert dist.bytes_communicated > 0
        assert dist.estimated_comm_seconds(steps=2) > 0.0

    def test_multi_step_accuracy(self):
        builder = SplineBuilder(BSplineSpec(degree=3, n_points=96))
        v = np.linspace(-1.0, 1.0, 6)
        dist = DistributedAdvection1D(builder, v, 0.02, ranks=3,
                                      decompose="line")
        adv = dist._engines[0]  # reuse exact-solution helper machinery
        f0 = lambda x: np.exp(np.cos(2 * np.pi * x))
        x = builder.interpolation_points()
        f = f0(x)[None, :] * np.ones((6, 1))
        f = dist.run(f, steps=4)
        shifted = x[None, :] - 4 * 0.02 * v[:, None]
        exact = f0(builder.space_1d.wrap(shifted))
        np.testing.assert_allclose(f, exact, atol=1e-4)

    def test_validation(self):
        builder = SplineBuilder(BSplineSpec(degree=3, n_points=32))
        with pytest.raises(ShapeError):
            DistributedAdvection1D(builder, np.ones(8), 0.1, decompose="2d")
        dist = DistributedAdvection1D(builder, np.linspace(0, 1, 8), 0.1)
        with pytest.raises(ShapeError):
            dist.step(np.ones((8, 31)))
