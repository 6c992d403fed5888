"""1-D block decompositions and the all-to-all redistribution.

:func:`redistribute_alltoall` converts a field distributed over one axis
into the same field distributed over the other axis — the transpose GYSELA
performs between advection directions when the dimension of interest is
not rank-local.  Each rank slices its block into per-destination chunks,
the communicator exchanges them, and every rank concatenates what it
received.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.distributed.comm import SimulatedComm
from repro.exceptions import ShapeError


@dataclass(frozen=True)
class Decomposition:
    """A contiguous block decomposition of ``extent`` items over ``ranks``."""

    extent: int
    ranks: int

    def __post_init__(self) -> None:
        if self.ranks < 1:
            raise ShapeError(f"ranks must be >= 1, got {self.ranks}")
        if self.extent < 1:
            raise ShapeError(f"extent must be >= 1, got {self.extent}")

    def bounds(self, rank: int) -> tuple:
        """``(begin, end)`` of *rank*'s block (remainder spread over the
        first ranks, the standard balanced block distribution).

        With more ranks than items the trailing ranks get well-formed
        zero-width blocks ``(extent, extent)`` — a worker pool wider
        than a narrow batch issues empty shards rather than crashing;
        executors skip dispatching them.
        """
        base, rem = divmod(self.extent, self.ranks)
        begin = rank * base + min(rank, rem)
        return begin, begin + base + (1 if rank < rem else 0)

    def local_size(self, rank: int) -> int:
        b, e = self.bounds(rank)
        return e - b

    def split(self, array: np.ndarray, axis: int = 0) -> List[np.ndarray]:
        """Slice *array* into per-rank blocks along *axis*."""
        if array.shape[axis] != self.extent:
            raise ShapeError(
                f"axis {axis} has extent {array.shape[axis]}, "
                f"expected {self.extent}"
            )
        return [
            np.take(array, np.arange(*self.bounds(r)), axis=axis)
            for r in range(self.ranks)
        ]


def redistribute_alltoall(
    comm: SimulatedComm,
    local_blocks: List[np.ndarray],
    row_decomp: Decomposition,
    col_decomp: Decomposition,
) -> List[np.ndarray]:
    """Switch a 2-D field from row-distributed to column-distributed.

    ``local_blocks[r]`` is rank *r*'s row block, shape
    ``(row_decomp.local_size(r), ncols)``.  Returns rank-indexed column
    blocks of shape ``(nrows, col_decomp.local_size(r))``.
    """
    if len(local_blocks) != comm.size:
        raise ShapeError("one block per rank required")
    chunks = [col_decomp.split(block, axis=1) for block in local_blocks]
    exchanged = comm.alltoall(chunks)
    # Rank r now holds, from every source, the rows of its column block.
    return [np.concatenate(exchanged[r], axis=0) for r in range(comm.size)]
