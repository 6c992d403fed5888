"""Request coalescing — many small solves become one paper-scale batch.

The paper's central measurement is that the batched spline solve is
bandwidth-bound and only reaches the roofline when the batch is large
(§V: matrix ~1000, batch 1e5).  A caller holding a single right-hand side
gets none of that; a thousand callers each holding one right-hand side
*could*, if something stacked their columns.  :class:`RequestCoalescer`
is that something: it buffers :class:`SolveRequest` objects against one
spline-space key and cuts them into :class:`CoalescedBatch` units when

* the buffered column count reaches ``max_batch`` (a full batch), or
* the oldest buffered request has waited ``max_linger`` seconds (latency
  bound — a lone request is never stranded).

Batches are cut **round-robin across submitter keys** (one key per
tenant; anonymous requests share one key): each cut takes one buffered
request from each active tenant in turn, so a hot tenant's burst can no
longer fill whole batches end to end while another tenant's lone request
waits out ``max_linger`` behind it.  With a single submitter key the cut
order reduces exactly to the old FIFO behavior.

Assembly gathers the request columns into one contiguous ``(n, B)`` block
(the exact layout the §II-C vectorized kernels want); scatter slices the
solved block back per request and resolves each request's future.  Because
every batched kernel in :mod:`repro.kbatched` treats columns
independently, a coalesced solve is bitwise identical to solving each
request alone.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict, deque
from typing import Deque, List, Optional

import numpy as np

from concurrent.futures import Future

from repro.exceptions import ShapeError

__all__ = ["SolveRequest", "CoalescedBatch", "RequestCoalescer"]


class SolveRequest:
    """One caller's right-hand side awaiting a coalesced solve.

    ``rhs`` is 1-D ``(n,)`` (one column) or 2-D ``(n, b)`` (a small block
    that stays contiguous inside the coalesced batch).  ``future``
    resolves to the coefficients with the same shape as ``rhs``.
    ``tenant`` (any hashable; ``None`` — anonymous) is the submitter key
    the coalescer round-robins across and the label per-tenant telemetry
    attributes to.
    """

    __slots__ = (
        "rhs",
        "cols",
        "future",
        "enqueued_at",
        "deadline",
        "tenant",
        "seq",
    )

    _seq_counter = itertools.count()

    def __init__(
        self,
        rhs: np.ndarray,
        deadline: Optional[float] = None,
        tenant=None,
    ) -> None:
        rhs = np.asarray(rhs)
        if rhs.ndim not in (1, 2):
            raise ShapeError(
                f"expected a 1-D or 2-D right-hand side, got shape {rhs.shape}"
            )
        self.rhs = rhs
        self.cols = 1 if rhs.ndim == 1 else int(rhs.shape[1])
        self.future: Future = Future()
        self.enqueued_at = time.perf_counter()
        self.deadline = deadline
        self.tenant = tenant
        self.seq = next(SolveRequest._seq_counter)

    @property
    def n(self) -> int:
        return int(self.rhs.shape[0])

    def expired(self, now: Optional[float] = None) -> bool:
        if self.deadline is None:
            return False
        return (now if now is not None else time.perf_counter()) >= self.deadline


class CoalescedBatch:
    """A group of requests solved as one ``(n, B)`` block."""

    __slots__ = ("requests",)

    def __init__(self, requests: List[SolveRequest]) -> None:
        if not requests:
            raise ValueError("a coalesced batch needs at least one request")
        self.requests = requests

    @property
    def cols(self) -> int:
        return sum(r.cols for r in self.requests)

    @property
    def n(self) -> int:
        return self.requests[0].n

    def assemble(self, dtype, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Gather all request columns into one contiguous ``(n, B)`` block.

        With *out* (e.g. a shared-memory view) the gather writes there
        instead of allocating; its shape and dtype must match exactly.
        """
        if out is not None:
            if out.shape != (self.n, self.cols) or out.dtype != np.dtype(dtype):
                raise ShapeError(
                    f"assemble target {out.shape}/{out.dtype} does not match "
                    f"({self.n}, {self.cols})/{np.dtype(dtype)}"
                )
            block = out
        else:
            block = np.empty((self.n, self.cols), dtype=dtype, order="C")
        offset = 0
        for req in self.requests:
            cols = req.rhs if req.rhs.ndim == 2 else req.rhs[:, None]
            block[:, offset : offset + req.cols] = cols
            offset += req.cols
        return block

    def scatter(self, block: np.ndarray) -> None:
        """Slice the solved block back per request and resolve the futures.

        A block that owns its memory and holds a single request is handed
        to that request as is (the bulk path's block).  Anything else is
        copied out: *block* may be a recycled buffer (a pooled
        shared-memory segment under the process-sharded executor), so a
        request must never receive a view into it.
        """
        handover = len(self.requests) == 1 and block.flags.owndata
        offset = 0
        for req in self.requests:
            out = block[:, offset : offset + req.cols]
            if not handover:
                out = np.array(out, order="C", copy=True)
            offset += req.cols
            if not req.future.set_running_or_notify_cancel():
                continue  # caller cancelled while we were solving
            req.future.set_result(out[:, 0] if req.rhs.ndim == 1 else out)

    def fail(self, exc: BaseException) -> None:
        """Propagate *exc* to every request still waiting."""
        for req in self.requests:
            if req.future.set_running_or_notify_cancel():
                req.future.set_exception(exc)


class RequestCoalescer:
    """Thread-safe buffer turning small requests into full batches.

    Parameters
    ----------
    n:
        Right-hand-side length every request must match.
    max_batch:
        Column count that triggers a flush.  A single request wider than
        this is passed through as its own (oversized) batch rather than
        split — the batched kernels handle any width.
    max_linger:
        Seconds the oldest request may wait before :meth:`poll` cuts a
        partial batch.

    Buffered requests are keyed by ``request.tenant``; cuts round-robin
    across the active keys (one request per key per turn) so a batch is
    shared fairly among concurrent tenants.  Within one key the order is
    FIFO, and with a single key (the anonymous default) the whole
    coalescer behaves exactly like a FIFO.
    """

    def __init__(self, n: int, max_batch: int, max_linger: float) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_linger < 0:
            raise ValueError(f"max_linger must be >= 0, got {max_linger}")
        self.n = int(n)
        self.max_batch = int(max_batch)
        self.max_linger = float(max_linger)
        self._lock = threading.Lock()
        # One FIFO deque per submitter key plus a round-robin ring of the
        # active keys.  add() appends right, _cut_locked pops left from
        # each key in turn: a burst drain stays O(B), and no key's
        # backlog can monopolize a batch.
        self._queues: "OrderedDict[object, Deque[SolveRequest]]" = OrderedDict()
        self._ring: Deque[object] = deque()
        self._pending_cols = 0

    @property
    def pending_cols(self) -> int:
        with self._lock:
            return self._pending_cols

    def _cut_locked(self) -> CoalescedBatch:
        """Pop up to ``max_batch`` columns, one request per key per turn."""
        taken: List[SolveRequest] = []
        cols = 0
        while self._ring:
            key = self._ring[0]
            queue = self._queues[key]
            req = queue[0]
            if taken and cols + req.cols > self.max_batch:
                break
            taken.append(queue.popleft())
            cols += req.cols
            if queue:
                self._ring.rotate(-1)  # this key goes to the back of the ring
            else:
                self._ring.popleft()
                del self._queues[key]
            if cols >= self.max_batch:
                break
        self._pending_cols -= cols
        return CoalescedBatch(taken)

    def add(self, request: SolveRequest) -> List[CoalescedBatch]:
        """Buffer *request*; return every full batch this made cuttable.

        A single wide request can push ``pending_cols`` past several
        multiples of ``max_batch`` at once, so the cut loops until the
        buffer is below threshold again — cutting just one batch would
        leave *full* batches stranded behind the linger timer.
        """
        if request.n != self.n:
            raise ShapeError(
                f"right-hand side leading extent {request.n} does not match "
                f"the coalescer's {self.n}"
            )
        batches: List[CoalescedBatch] = []
        with self._lock:
            queue = self._queues.get(request.tenant)
            if queue is None:
                queue = self._queues[request.tenant] = deque()
                self._ring.append(request.tenant)
            queue.append(request)
            self._pending_cols += request.cols
            while self._pending_cols >= self.max_batch:
                batches.append(self._cut_locked())
        return batches

    def _oldest_locked(self) -> Optional[float]:
        """Enqueue time of the oldest buffered request (heads only)."""
        if not self._queues:
            return None
        return min(q[0].enqueued_at for q in self._queues.values())

    def poll(self, now: Optional[float] = None) -> Optional[CoalescedBatch]:
        """Cut a partial batch when the oldest request has lingered too long."""
        now = now if now is not None else time.perf_counter()
        with self._lock:
            oldest = self._oldest_locked()
            if oldest is None:
                return None
            if now - oldest < self.max_linger:
                return None
            return self._cut_locked()

    def drain(self) -> Optional[CoalescedBatch]:
        """Flush everything buffered, regardless of age or width."""
        with self._lock:
            if not self._queues:
                return None
            requests = [req for q in self._queues.values() for req in q]
            requests.sort(key=lambda r: r.seq)  # arrival order across keys
            self._queues.clear()
            self._ring.clear()
            self._pending_cols = 0
            return CoalescedBatch(requests)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RequestCoalescer(n={self.n}, pending_cols={self.pending_cols}, "
            f"max_batch={self.max_batch}, max_linger={self.max_linger})"
        )
