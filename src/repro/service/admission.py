"""Multi-tenant admission control — per-tenant quotas at the door.

The engine under the service already has *global* safety valves
(backpressure, deadlines, a circuit breaker); what it cannot do is tell
tenants apart.  This module adds the *who* dimension:
:class:`TokenBucket` / :class:`TenantQuota` / :class:`AdmissionController`
rate-limit each tenant in columns per second.  Each tenant owns a token
bucket (``rate`` columns/s refill, ``burst`` columns capacity); a request
that cannot afford its column cost is rejected **at the door** with a
``retry_after`` hint, before any engine work — the service maps this to
a ``THROTTLED`` error frame.  A hot tenant is therefore throttled to its
quota no matter how fast it sends.  Fair sharing of engine capacity
among admitted requests is the coalescer's job: it round-robins batch
slots across tenants.

The controller is clock-injectable (``clock=``) so tests drive it
deterministically, and it is a plain data structure — the asyncio server
wraps it; it does not know about sockets or the engine.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.exceptions import ReproError

__all__ = [
    "TokenBucket",
    "TenantQuota",
    "AdmissionController",
    "ThrottledError",
    "QuotaExceededError",
]


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

