"""``parallel_for`` / ``parallel_reduce`` dispatch, mirroring Kokkos.

The batched solver kernels are expressed exactly as in the paper's
Listing 2::

    parallel_for("KokkosBatched::SerialPttrs", batch, functor)

where ``functor(i)`` operates on batch column ``i``.  The policy object
carries the execution space; the kernel-name label is kept for parity with
the listings.  Timing belongs to :class:`repro.runtime.telemetry.Telemetry`
spans, the program's one instrumentation system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from repro.xspace.spaces import DefaultExecutionSpace, ExecutionSpace


@dataclass
class RangePolicy:
    """A 1-D iteration range bound to an execution space."""

    begin: int
    end: int
    space: ExecutionSpace = field(default_factory=lambda: DefaultExecutionSpace)

    def __post_init__(self) -> None:
        if self.end < self.begin:
            raise ValueError(f"empty-negative range [{self.begin}, {self.end})")


def _resolve(policy: Union[int, RangePolicy]) -> RangePolicy:
    if isinstance(policy, RangePolicy):
        return policy
    return RangePolicy(0, int(policy))


def parallel_for(
    label: str,
    policy: Union[int, RangePolicy],
    functor: Callable[[int], None],
    space: Optional[ExecutionSpace] = None,
) -> None:
    """Run ``functor(i)`` for every ``i`` in the policy's range.

    ``policy`` may be a bare count ``n`` (meaning ``range(0, n)``), as in the
    paper's listings.  An explicit *space* overrides the policy's space.
    """
    pol = _resolve(policy)
    exec_space = space or pol.space
    exec_space.run(pol.begin, pol.end, functor)


def parallel_reduce(
    label: str,
    policy: Union[int, RangePolicy],
    functor: Callable[[int], float],
    space: Optional[ExecutionSpace] = None,
) -> float:
    """Sum ``functor(i)`` over the policy's range and return the total."""
    pol = _resolve(policy)
    exec_space = space or pol.space
    return exec_space.reduce(pol.begin, pol.end, functor)


def parallel_scan(
    label: str,
    policy: Union[int, RangePolicy],
    functor: Callable[[int, float, bool], float],
) -> float:
    """Inclusive prefix scan, Kokkos-style: ``functor(i, partial, final)``
    returns the contribution of index ``i``; on the ``final`` pass
    ``partial`` holds the *exclusive* prefix sum.  Returns the total.

    Scans are inherently ordered; like Kokkos' serial backend this runs the
    two-pass protocol sequentially (one discovery pass, one final pass), so
    functors written for Kokkos port directly.
    """
    pol = _resolve(policy)
    running = 0.0
    for i in range(pol.begin, pol.end):
        running += functor(i, running, False)
    total = running
    running = 0.0
    for i in range(pol.begin, pol.end):
        running += functor(i, running, True)
    return total


@dataclass
class MDRangePolicy:
    """A 2-D iteration rectangle (``Kokkos::MDRangePolicy<Rank<2>>``)."""

    begin0: int
    end0: int
    begin1: int
    end1: int
    space: ExecutionSpace = field(default_factory=lambda: DefaultExecutionSpace)

    def __post_init__(self) -> None:
        if self.end0 < self.begin0 or self.end1 < self.begin1:
            raise ValueError("empty-negative MD range")


def parallel_for_md(
    label: str,
    policy: MDRangePolicy,
    functor: Callable[[int, int], None],
) -> None:
    """Run ``functor(i, j)`` over the 2-D rectangle.  The outer dimension
    is distributed over the policy's execution space; the inner loop runs
    within the worker (the common Kokkos tiling for row-major data)."""
    extent1 = policy.end1 - policy.begin1

    def row(i: int) -> None:
        for j in range(policy.begin1, policy.begin1 + extent1):
            functor(i, j)

    policy.space.run(policy.begin0, policy.end0, row)
