"""Multi-tenant admission control — quotas, priorities, fair share.

The engine under the service already has *global* safety valves
(backpressure, deadlines, a circuit breaker); what it cannot do is tell
tenants apart.  This module adds the *who* dimension in three pieces:

:class:`TokenBucket` / :class:`TenantQuota` / :class:`AdmissionController`
    Per-tenant rate limiting in columns per second.  Each tenant owns a
    token bucket (``rate`` columns/s refill, ``burst`` columns capacity);
    a request that cannot afford its column cost is rejected **at the
    door** with a ``retry_after`` hint, before any engine work — the
    service maps this to a ``THROTTLED`` error frame.  A hot tenant is
    therefore throttled to its quota no matter how fast it sends.

:class:`FairShareQueue`
    Deficit round-robin (DRR) dispatch ordering across the *admitted*
    requests.  Priority classes are strict — every queued
    ``interactive`` request dispatches before any ``normal``, which beats
    any ``batch`` — and within a class each tenant accumulates deficit
    (``quantum`` columns per round-robin turn) and may dispatch requests
    while its deficit covers their column cost.  Cost-aware
    deficits are what make one tenant's *wide* requests count against it:
    fairness is in columns, the unit the engine's batches are made of.

Both pieces are clock-injectable (``clock=``) so tests drive them
deterministically, and both are plain data structures — the asyncio
server wraps them, they do not know about sockets or the engine.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.exceptions import ReproError

__all__ = [
    "PRIORITIES",
    "DEFAULT_PRIORITY",
    "TokenBucket",
    "TenantQuota",
    "AdmissionController",
    "ThrottledError",
    "QuotaExceededError",
    "FairShareQueue",
]

#: priority classes in dispatch order: lower rank dispatches first
PRIORITIES: Dict[str, int] = {"interactive": 0, "normal": 1, "batch": 2}

DEFAULT_PRIORITY = "normal"


class ThrottledError(ReproError, RuntimeError):
    """A tenant exceeded its quota; retry after :attr:`retry_after` seconds."""

    def __init__(self, message: str, retry_after: float = 0.0, tenant=None):
        super().__init__(message)
        self.retry_after = retry_after
        self.tenant = tenant


class QuotaExceededError(ReproError, ValueError):
    """A single request's cost exceeds the tenant's *burst* capacity.

    Unlike :class:`ThrottledError` this is permanent — no amount of
    waiting refills a bucket beyond its burst, so retrying the same
    request can never succeed.  Subclasses :class:`ValueError` so the
    service maps it to a ``BAD_REQUEST`` error frame (no misleading
    ``retry_after`` hint).
    """

    def __init__(self, message: str, tenant=None):
        super().__init__(message)
        self.tenant = tenant


class TokenBucket:
    """A classic token bucket: *rate* tokens/s refill, *burst* capacity.

    Starts full.  ``try_acquire(cost)`` spends tokens if the bucket
    holds at least *cost*, else reports how long until it would.
    Unsynchronized — the owner (:class:`AdmissionController`) locks.
    """

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate: float, burst: float, now: float) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if burst <= 0:
            raise ValueError(f"burst must be > 0, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.stamp = now

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self.stamp)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.stamp = now

    def try_acquire(self, cost: float, now: float) -> Optional[float]:
        """Spend *cost* tokens; ``None`` on success, else seconds to wait.

        A *cost* beyond the burst capacity can **never** succeed — tokens
        cap at ``burst`` — so it returns ``math.inf`` rather than a
        finite wait a client would fruitlessly honour forever; callers
        must surface that as a permanent rejection, not a retry hint.
        """
        self._refill(now)
        if self.tokens >= cost:
            self.tokens -= cost
            return None
        if cost > self.burst:
            return math.inf
        return (cost - self.tokens) / self.rate


@dataclass(frozen=True)
class TenantQuota:
    """One tenant's admission parameters.

    ``rate``/``burst`` are in *columns* per second / columns — the unit
    of engine work — so a tenant sending wide blocks spends its quota
    exactly as fast as one sending many single columns.
    """

    rate: float = 10_000.0
    burst: float = 20_000.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if self.burst <= 0:
            raise ValueError(f"burst must be > 0, got {self.burst}")


class AdmissionController:
    """Per-tenant token-bucket admission, thread-safe.

    Parameters
    ----------
    default_quota:
        Applied to tenants without an explicit entry in *quotas*.
    quotas:
        Per-tenant overrides (the "paying customer" table).
    clock:
        Monotonic-seconds source; injected by tests.
    """

    def __init__(
        self,
        default_quota: Optional[TenantQuota] = None,
        quotas: Optional[Dict[str, TenantQuota]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.default_quota = default_quota or TenantQuota()
        self.quotas = dict(quotas or {})
        self.clock = clock
        self._lock = threading.Lock()
        self._buckets: Dict[str, TokenBucket] = {}
        self.admitted = 0
        self.rejected = 0

    def quota_for(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, self.default_quota)

    def admit(self, tenant: str, cols: int) -> None:
        """Charge *cols* columns to *tenant*; raise :class:`ThrottledError`
        (with a ``retry_after`` hint) when its bucket cannot afford them
        yet, or :class:`QuotaExceededError` when *cols* exceeds the
        tenant's burst capacity outright (permanently unserviceable).

        Zero-column requests are always admitted — they cost the engine
        nothing and keep the protocol's edge cases boring.
        """
        if cols <= 0:
            with self._lock:
                self.admitted += 1
            return
        now = self.clock()
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                quota = self.quota_for(tenant)
                bucket = self._buckets[tenant] = TokenBucket(
                    quota.rate, quota.burst, now
                )
            wait = bucket.try_acquire(float(cols), now)
            if wait is None:
                self.admitted += 1
                return
            self.rejected += 1
        if math.isinf(wait):
            raise QuotaExceededError(
                f"request of {cols} columns exceeds tenant {tenant!r} "
                f"burst capacity "
                f"({self.quota_for(tenant).burst:g} columns); "
                f"split the request — retrying cannot succeed",
                tenant=tenant,
            )
        raise ThrottledError(
            f"tenant {tenant!r} over quota "
            f"({self.quota_for(tenant).rate:g} cols/s): "
            f"retry in {wait:.3f}s",
            retry_after=wait,
            tenant=tenant,
        )


class FairShareQueue:
    """Strict-priority, deficit-round-robin dispatch queue.

    Items are pushed with ``(tenant, priority, cost)`` and popped in the
    order the service should hand them to the engine:

    1. priority classes are strict — any queued item of a higher class
       (lower :data:`PRIORITIES` rank) dispatches first;
    2. within a class, tenants are served round-robin; each visit tops a
       tenant's deficit up by ``quantum`` columns, and the tenant
       dispatches queued items (FIFO) while the deficit covers their
       cost.  Deficit persists across turns — a wide request is
       eventually affordable — and resets when the tenant's queue
       empties, so idle tenants cannot bank credit.

    Not thread-safe by itself; the asyncio server owns it from one loop
    (the sync tests drive it directly).
    """

    def __init__(self, quantum: float = 64.0) -> None:
        if quantum <= 0:
            raise ValueError(f"quantum must be > 0, got {quantum}")
        self.quantum = float(quantum)
        # class rank -> (ring of tenant keys, tenant -> FIFO of (cost, item))
        self._classes: Dict[int, Tuple[Deque[str], "OrderedDict[str, Deque]"]] = {}
        self._deficits: Dict[Tuple[int, str], float] = {}
        # rank -> tenant currently mid-visit at the ring head (already
        # topped up; drains without further refill until it rotates)
        self._visiting: Dict[int, Optional[str]] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _rank(self, priority: str) -> int:
        try:
            return PRIORITIES[priority]
        except KeyError:
            raise ValueError(
                f"unknown priority {priority!r}; expected one of "
                f"{sorted(PRIORITIES)}"
            ) from None

    def push(self, item, tenant: str, priority: str, cost: float) -> None:
        """Queue *item* for dispatch under (*tenant*, *priority*)."""
        rank = self._rank(priority)
        entry = self._classes.get(rank)
        if entry is None:
            entry = self._classes[rank] = (deque(), OrderedDict())
        ring, queues = entry
        queue = queues.get(tenant)
        if queue is None:
            queue = queues[tenant] = deque()
            ring.append(tenant)
        queue.append((max(0.0, float(cost)), item))
        self._size += 1

    def pop(self):
        """The next item in fair-share order, or ``None`` when empty."""
        for rank in sorted(self._classes):
            ring, queues = self._classes[rank]
            if not ring:
                continue
            # DRR: arriving at the ring head earns one quantum top-up;
            # the tenant then drains FIFO while the deficit
            # covers head costs (it stays "visiting" across pop calls,
            # with no further refill) and rotates away when it cannot
            # afford its next item.  A cost above the quantum just
            # takes several arrivals — deficit persists across turns.
            while True:
                tenant = ring[0]
                queue = queues[tenant]
                key = (rank, tenant)
                if self._visiting.get(rank) != tenant:
                    self._deficits[key] = self._deficits.get(key, 0.0) + self.quantum
                    self._visiting[rank] = tenant
                cost, item = queue[0]
                if self._deficits[key] >= cost:
                    queue.popleft()
                    self._deficits[key] -= cost
                    self._size -= 1
                    if not queue:
                        # Emptied: forget the deficit so credit does not
                        # bank across idle periods.
                        self._deficits.pop(key, None)
                        self._visiting[rank] = None
                        ring.popleft()
                        del queues[tenant]
                    return item
                self._visiting[rank] = None
                ring.rotate(-1)
        return None

    def drain(self) -> List:
        """Every queued item, highest priority first, fair-share within."""
        items = []
        while True:
            item = self.pop()
            if item is None:
                return items
            items.append(item)
