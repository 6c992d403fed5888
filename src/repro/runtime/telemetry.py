"""Engine telemetry — counters, distributions and span timings.

Every moving part of the runtime engine reports here: the plan cache its
hits/misses/evictions, the coalescer its assembled batch widths, the engine
its queue depth and per-request latency.  A :class:`Telemetry` instance is
a thread-safe bag of

* **counters** — monotonically increasing integers (``incr``);
* **series** — bounded sample reservoirs with running count/sum/max, from
  which p50/p99 quantiles are read (``observe``);
* **spans** — ``with telemetry.span("solve"):`` context timing, recorded
  as a ``<name>.seconds`` series;
* **events** — bounded last-N rings of structured records (``event``),
  used by the resilience layer for state transitions (circuit breaker
  open/close, supervisor respawns, degradation-ladder steps) and for the
  poisoned-request quarantine ledger;
* **tenants** — the multi-tenant dimension (``tenant_incr`` /
  ``tenant_observe``): per-tenant counters and sample series kept beside
  the global ones, so an admission layer can attribute submissions,
  completions, rejections, quarantines and latency to *who* asked.
  Requests without a tenant label cost nothing here.

``snapshot()`` exports everything as a plain dict (the exa-scale analogue
would ship this to a metrics backend) with the per-tenant dimension under
``snapshot()["tenants"]``; ``render()`` prints it through the same
:class:`repro.bench.report.Table` layout as the paper-table benchmarks —
including a per-tenant table when any tenant reported — so engine runs
and paper runs read alike.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

import numpy as np

from repro.bench.report import Table

__all__ = [
    "Telemetry",
    "merged_counter",
    "merge_snapshots",
    "render_snapshot",
    "render_tenant_table",
    "DEFAULT_MAX_SAMPLES",
    "DEFAULT_MAX_EVENTS",
]

#: samples retained per series; older observations only survive in the
#: running count/sum/min/max aggregates
DEFAULT_MAX_SAMPLES = 4096

#: structured records retained per event ring; older events are dropped
DEFAULT_MAX_EVENTS = 64


class _Series:
    """One observed quantity: bounded reservoir + unbounded aggregates."""

    __slots__ = ("samples", "count", "total", "minimum", "maximum")

    def __init__(self, max_samples: int) -> None:
        self.samples: deque = deque(maxlen=max_samples)
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def observe(self, value: float) -> None:
        self.samples.append(value)
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    def snapshot_samples(self) -> np.ndarray:
        """The current reservoir as an array (call under the owning lock)."""
        return np.fromiter(self.samples, dtype=float, count=len(self.samples))

    @staticmethod
    def quantile_of(samples: np.ndarray, q: float) -> float:
        if samples.size == 0:
            return float("nan")
        return float(np.quantile(samples, q))

    def quantile(self, q: float) -> float:
        return self.quantile_of(self.snapshot_samples(), q)

    def summary(self) -> Dict[str, float]:
        mean = self.total / self.count if self.count else float("nan")
        samples = self.snapshot_samples()
        return {
            "count": self.count,
            "mean": mean,
            "min": self.minimum if self.count else float("nan"),
            "max": self.maximum if self.count else float("nan"),
            "p50": self.quantile_of(samples, 0.50),
            "p99": self.quantile_of(samples, 0.99),
        }


class Telemetry:
    """Thread-safe counters / series / span timings for the runtime engine."""

    def __init__(
        self,
        max_samples: int = DEFAULT_MAX_SAMPLES,
        max_events: int = DEFAULT_MAX_EVENTS,
        wall_clock=None,
        mono_clock=None,
    ) -> None:
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self.max_samples = int(max_samples)
        self.max_events = int(max_events)
        # Injectable clocks so clock-step behaviour is testable: ``t`` is
        # the human-readable wall stamp, ``mono`` the NTP-immune ordering
        # key (CLOCK_MONOTONIC is system-wide on Linux, so rings merged
        # across processes of one host still sort correctly).
        self._wall_clock = time.time if wall_clock is None else wall_clock
        self._mono_clock = time.monotonic if mono_clock is None else mono_clock
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._series: Dict[str, _Series] = {}
        self._events: Dict[str, deque] = {}
        # tenant -> ("counters" dict, "series" dict); populated only by
        # tenant-labelled traffic, so single-tenant runs never touch it
        self._tenants: Dict[str, tuple] = {}

    # -- recording ------------------------------------------------------

    def incr(self, name: str, amount: int = 1) -> None:
        """Add *amount* to the counter *name* (creating it at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def observe(self, name: str, value: float) -> None:
        """Record one sample of the distribution *name*."""
        with self._lock:
            series = self._series.get(name)
            if series is None:
                series = self._series[name] = _Series(self.max_samples)
            series.observe(float(value))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a block; the duration lands in the ``<name>.seconds`` series."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.observe(f"{name}.seconds", time.perf_counter() - t0)

    def _tenant_slot(self, tenant) -> tuple:
        """The (counters, series) pair of *tenant* (call under the lock)."""
        key = str(tenant)
        slot = self._tenants.get(key)
        if slot is None:
            slot = self._tenants[key] = ({}, {})
        return slot

    def tenant_incr(self, tenant, name: str, amount: int = 1) -> None:
        """Add *amount* to tenant-scoped counter *name* (creating at zero)."""
        with self._lock:
            counters, _ = self._tenant_slot(tenant)
            counters[name] = counters.get(name, 0) + amount

    def tenant_observe(self, tenant, name: str, value: float) -> None:
        """Record one sample of the tenant-scoped distribution *name*."""
        with self._lock:
            _, series = self._tenant_slot(tenant)
            s = series.get(name)
            if s is None:
                s = series[name] = _Series(self.max_samples)
            s.observe(float(value))

    def event(self, name: str, **fields) -> None:
        """Append one structured record to the bounded ring *name*.

        Each record is the given fields plus a wall-clock ``t`` stamp
        (human-readable) and a monotonic ``mono`` stamp (the ordering
        key — every deadline, token bucket and breaker in the runtime
        uses ``time.monotonic``, and unlike ``t`` it cannot jump under
        an NTP step; :func:`merge_snapshots` sorts merged rings on it).
        The ring keeps the most recent ``max_events`` records, so a
        long campaign's snapshot always shows the latest transitions
        (respawns, breaker flips, quarantined requests) without growing.
        """
        record = {"t": self._wall_clock(), "mono": self._mono_clock(), **fields}
        with self._lock:
            ring = self._events.get(name)
            if ring is None:
                ring = self._events[name] = deque(maxlen=self.max_events)
            ring.append(record)

    # -- reading --------------------------------------------------------

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def tenant_counter(self, tenant, name: str) -> int:
        with self._lock:
            slot = self._tenants.get(str(tenant))
            return slot[0].get(name, 0) if slot is not None else 0

    def events(self, name: str) -> list:
        """The retained records of the event ring *name* (oldest first)."""
        with self._lock:
            ring = self._events.get(name)
            return [dict(r) for r in ring] if ring is not None else []

    def quantile(self, name: str, q: float) -> float:
        # The sample reservoir must be materialized *under* the lock: a
        # concurrent observe() appending to the deque while np.fromiter
        # walks it raises "deque mutated during iteration".
        with self._lock:
            series = self._series.get(name)
            if series is None:
                return float("nan")
            samples = series.snapshot_samples()
        return _Series.quantile_of(samples, q)

    def snapshot(self) -> dict:
        """Everything as a plain dict:
        ``{"counters": ..., "series": ..., "events": ..., "tenants": ...}``
        where ``tenants`` maps each tenant id to its own
        ``{"counters": ..., "series": ...}`` sub-snapshot."""
        with self._lock:
            counters = dict(self._counters)
            series = {name: s.summary() for name, s in self._series.items()}
            events = {
                name: [dict(r) for r in ring]
                for name, ring in self._events.items()
                if ring
            }
            tenants = {
                tenant: {
                    "counters": dict(tc),
                    "series": {name: s.summary() for name, s in ts.items()},
                }
                for tenant, (tc, ts) in self._tenants.items()
            }
        return {
            "counters": counters,
            "series": series,
            "events": events,
            "tenants": tenants,
        }

    def render(self, title: str = "Runtime engine telemetry") -> str:
        """Counters and series as one paper-style ASCII table."""
        return render_snapshot(self.snapshot(), title)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._series.clear()
            self._events.clear()
            self._tenants.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return (
                f"Telemetry(counters={len(self._counters)}, "
                f"series={len(self._series)})"
            )


def render_snapshot(snapshot: dict, title: str = "Runtime engine telemetry") -> str:
    """A :meth:`Telemetry.snapshot`-shaped dict (possibly merged across
    workers by :func:`merge_snapshots`) as one paper-style ASCII table,
    followed by a per-tenant table when any tenant-labelled traffic was
    recorded (the rejection/quarantine attribution view)."""
    table = Table(title, ["metric", "count", "mean", "p50", "p99", "max"])
    for name in sorted(snapshot.get("counters", {})):
        table.add_row(name, snapshot["counters"][name], "", "", "", "")
    for name in sorted(snapshot.get("series", {})):
        s = snapshot["series"][name]
        table.add_row(name, s["count"], s["mean"], s["p50"], s["p99"], s["max"])
    rendered = table.render()
    tenants = snapshot.get("tenants") or {}
    if tenants:
        rendered += "\n\n" + render_tenant_table(tenants)
    return rendered


def render_tenant_table(tenants: dict, title: str = "Per-tenant telemetry") -> str:
    """The ``tenants`` section of a snapshot as one row-per-tenant table.

    The columns are the multi-tenant admission story: what each tenant
    submitted, what completed, and where the rest went — rejected at the
    door (admission/backpressure/circuit), timed out, or quarantined as
    poisoned — plus the tenant's observed latency tail.
    """
    table = Table(
        title,
        [
            "tenant",
            "submitted",
            "completed",
            "failed",
            "rejected",
            "timed_out",
            "quarantined",
            "p50 lat (s)",
            "p99 lat (s)",
        ],
    )
    for tenant in sorted(tenants):
        counters = tenants[tenant].get("counters", {})
        series = tenants[tenant].get("series", {})
        latency = series.get("request_latency_seconds", {})
        table.add_row(
            tenant,
            counters.get("requests_submitted", 0),
            counters.get("requests_completed", 0),
            counters.get("requests_failed", 0),
            counters.get("requests_rejected", 0),
            counters.get("requests_timed_out", 0),
            counters.get("requests_quarantined", 0),
            latency.get("p50", float("nan")),
            latency.get("p99", float("nan")),
        )
    return table.render()


def merged_counter(snapshot: dict, *names: str) -> int:
    """Sum several counters out of a :meth:`Telemetry.snapshot` dict."""
    counters = snapshot.get("counters", {})
    return sum(int(counters.get(name, 0)) for name in names)


def merge_snapshots(*snapshots: dict) -> dict:
    """Fold several :meth:`Telemetry.snapshot` dicts into one.

    The sharded executor keeps one :class:`Telemetry` per worker process;
    this merges their exported snapshots (plus the parent's) into a single
    fleet view.  Counters add exactly (each name is summed across
    snapshots with :func:`merged_counter`); series merge their exact
    aggregates — count, count-weighted mean, min, max.  Quantiles cannot
    be recovered from per-worker summaries, so a merged series keeps p50
    and p99 only when exactly one contributing snapshot observed it, and
    reports NaN otherwise.  Event rings concatenate and are sorted on
    their monotonic ``mono`` stamp when every record in the merged ring
    carries one (rings from processes of the same host share the
    system-wide CLOCK_MONOTONIC epoch); otherwise the wall-clock ``t``
    stamp orders them — never a mix, since the two epochs are
    incomparable.  The result is trimmed to the newest
    :data:`DEFAULT_MAX_EVENTS` records per name.  Per-tenant
    sub-snapshots merge with the same counter/series rules, tenant by
    tenant.
    """
    names = []
    for snap in snapshots:
        for name in snap.get("counters", {}):
            if name not in names:
                names.append(name)
    counters = {
        name: sum(merged_counter(snap, name) for snap in snapshots)
        for name in names
    }
    series: Dict[str, dict] = {}
    for snap in snapshots:
        for name, summ in snap.get("series", {}).items():
            _merge_series_into(series, name, summ)
    events: Dict[str, list] = {}
    for snap in snapshots:
        for name, records in snap.get("events", {}).items():
            events.setdefault(name, []).extend(records)
    events = {
        name: _sorted_ring(records)[-DEFAULT_MAX_EVENTS:]
        for name, records in events.items()
    }
    tenants: Dict[str, dict] = {}
    for snap in snapshots:
        for tenant, sub in (snap.get("tenants") or {}).items():
            merged = tenants.setdefault(tenant, {"counters": {}, "series": {}})
            for name, value in sub.get("counters", {}).items():
                merged["counters"][name] = merged["counters"].get(name, 0) + int(
                    value
                )
            for name, summ in sub.get("series", {}).items():
                _merge_series_into(merged["series"], name, summ)
    return {
        "counters": counters,
        "series": series,
        "events": events,
        "tenants": tenants,
    }


def _sorted_ring(records: list) -> list:
    """Order one merged event ring for trimming.

    Sorts on the monotonic ``mono`` stamp when every record carries one
    (the NTP-immune key); otherwise on the wall-clock ``t`` stamp.  The
    sort is stable, so records without either stamp keep snapshot order.
    """
    if records and all("mono" in r for r in records):
        return sorted(records, key=lambda r: r["mono"])
    return sorted(records, key=lambda r: r.get("t", 0.0))


def _merge_series_into(series: Dict[str, dict], name: str, summ: dict) -> None:
    """Fold one series summary into *series* (exact aggregates only)."""
    if int(summ.get("count", 0)) == 0:
        return
    merged = series.get(name)
    if merged is None:
        series[name] = dict(summ)
        return
    count = merged["count"] + summ["count"]
    merged["mean"] = (
        merged["mean"] * merged["count"] + summ["mean"] * summ["count"]
    ) / count
    merged["count"] = count
    merged["min"] = min(merged["min"], summ["min"])
    merged["max"] = max(merged["max"], summ["max"])
    merged["p50"] = merged["p99"] = float("nan")
