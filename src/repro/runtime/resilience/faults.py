"""Deterministic fault injection at named hook points in the runtime.

Every recovery path in the engine exists because some failure happens in
production; none of them is trustworthy unless that failure can be made
to happen *on demand, reproducibly, in CI*.  A :class:`FaultPlan` is a
seeded list of :class:`FaultSpec` triggers bound to named hook points
(:data:`HOOK_SITES`) that the runtime calls at its decision points:

====================== ==================================================
 site                   where it fires
====================== ==================================================
 plan_cache.factorize   leader path of a cold :class:`PlanCache` miss,
                        before the factorization runs
 shm.acquire            :meth:`SharedBlockPool.acquire`, before a pooled
                        segment is handed out
 engine.dispatch        :meth:`SolveEngine._dispatch`, before a coalesced
                        batch is submitted to the thread pool
 engine.rhs             after a batch (coalesced or bulk) is assembled
                        (the hook receives the block — ``corrupt``
                        poisons it)
 engine.batch_solve     before a local (thread-path) batched solve
 engine.verify          inside the verify-on-solve sample, before the
                        backward-error check
 sharded.dispatch       parent side, before a shard is issued to a
                        worker process
 sharded.worker_solve   worker side, before the shard solve (``crash``
                        and ``hang`` act on the worker process itself)
 durable.store_write    :meth:`PlanStore.save`, before a plan entry is
                        committed to disk
 durable.store_read     :meth:`PlanStore.load`, before a plan entry is
                        read and parsed
 campaign.chunk         :func:`~repro.runtime.durable.run_campaign`,
                        before each streamed chunk is solved (``crash``
                        kills the campaign mid-flight)
====================== ==================================================

Fault kinds: ``raise`` (a chosen exception flavor), ``crash``
(``os._exit`` — meaningful at ``sharded.worker_solve`` and
``campaign.chunk``), ``hang``
and ``slow`` (sleep for ``delay`` seconds), ``corrupt`` (write NaN/Inf
into the hook's array).  Triggering is deterministic: each spec counts
its own matching visits, skips the first ``after``, fires at most
``times`` times, and draws ``probability`` from a stream seeded by
``(seed, spec index)``.

A plan is off-by-default and free when absent: every hook is guarded by
``if faults is not None``, so the fault-free hot path pays one pointer
comparison.  Activate a plan with ``EngineConfig(faults=...)`` or by
setting the ``REPRO_FAULT_PLAN`` environment variable to the plan's JSON
(see :meth:`FaultPlan.to_json`).  Worker processes receive a private
copy of the plan, so worker-side sites count visits per process — a
respawned worker starts a fresh count, which the chaos tests account
for when choosing ``after``.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.exceptions import ReproError

__all__ = ["FaultSpec", "FaultPlan", "FaultInjected", "HOOK_SITES", "ENV_VAR"]

#: environment variable holding a JSON fault plan (see FaultPlan.to_json)
ENV_VAR = "REPRO_FAULT_PLAN"

#: every hook point the runtime calls, with what firing there exercises
HOOK_SITES = {
    "plan_cache.factorize": "factorization failure on a cold plan miss",
    "shm.acquire": "shared-memory segment allocation failure",
    "engine.dispatch": "thread-pool dispatch failure (serial-ladder rung)",
    "engine.rhs": "assembled right-hand-side block corruption (NaN/Inf)",
    "engine.batch_solve": "local batched solve failure or slowdown",
    "engine.verify": "forced verification failure",
    "sharded.dispatch": "parent-side shard issue failure",
    "sharded.worker_solve": "worker crash / hang / slow / raise mid-shard",
    "durable.store_write": "plan-store entry commit failure",
    "durable.store_read": "plan-store entry read/parse failure",
    "campaign.chunk": "out-of-core campaign chunk failure or kill",
}

_KINDS = ("raise", "crash", "hang", "slow", "corrupt")

#: exception flavors a kind="raise" spec can pick; resolved lazily so this
#: module never imports the modules it injects faults into
_ERROR_FLAVORS = (
    "fault",
    "runtime",
    "memory",
    "worker",
    "shm",
    "verification",
    "factorization",
    "durable",
)


class FaultInjected(ReproError, RuntimeError):
    """The default exception raised by a ``kind="raise"`` fault."""


def _exception_for(flavor: str, message: str) -> BaseException:
    """Instantiate the exception class a ``raise`` spec asked for."""
    if flavor == "runtime":
        return RuntimeError(message)
    if flavor == "memory":
        return MemoryError(message)
    if flavor == "worker":
        from repro.runtime.sharded import WorkerError

        return WorkerError(message)
    if flavor == "shm":
        from repro.runtime.shm import ShmError

        return ShmError(message)
    if flavor == "verification":
        from repro.exceptions import VerificationError

        return VerificationError(message)
    if flavor == "factorization":
        from repro.exceptions import SingularMatrixError

        return SingularMatrixError(message)
    if flavor == "durable":
        from repro.runtime.durable import DurableStoreError

        return DurableStoreError(message)
    return FaultInjected(message)


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic trigger: *where*, *what*, and *when* to fire.

    Attributes
    ----------
    site:
        Hook point name; must be one of :data:`HOOK_SITES`.
    kind:
        ``raise`` | ``crash`` | ``hang`` | ``slow`` | ``corrupt``.
    worker:
        Only match hook visits from this worker id (``sharded.*`` sites
        pass one); ``None`` matches every visitor.
    after:
        Matching visits skipped before the spec becomes eligible.
    times:
        Maximum firings (``None`` — unlimited).
    probability:
        Chance an eligible visit actually fires, drawn from the plan's
        seeded per-spec stream (1.0 — always).
    delay:
        Seconds slept by ``hang``/``slow`` faults.
    error:
        Exception flavor for ``raise``: ``fault`` | ``runtime`` |
        ``memory`` | ``worker`` | ``shm`` | ``verification`` |
        ``factorization``.
    message:
        Text carried by the raised exception.
    """

    site: str
    kind: str = "raise"
    worker: Optional[int] = None
    after: int = 0
    times: Optional[int] = 1
    probability: float = 1.0
    delay: float = 0.05
    error: str = "fault"
    message: str = ""

    def __post_init__(self) -> None:
        if self.site not in HOOK_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; expected one of "
                f"{sorted(HOOK_SITES)}"
            )
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {_KINDS}"
            )
        if self.error not in _ERROR_FLAVORS:
            raise ValueError(
                f"unknown error flavor {self.error!r}; expected one of "
                f"{_ERROR_FLAVORS}"
            )
        if self.after < 0:
            raise ValueError(f"after must be >= 0, got {self.after}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1 or None, got {self.times}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")


class FaultPlan:
    """A seeded set of :class:`FaultSpec` triggers, serializable to JSON.

    The plan is thread-safe (engine pool threads share it) and cheap to
    consult: a hook visit touches only the specs bound to its site.
    Serialization (:meth:`to_json` / :meth:`from_json`) ships the plan
    into worker processes and through the :data:`ENV_VAR` environment
    variable; a deserialized copy starts with fresh visit counters.
    """

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: int = 0) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(
            spec if isinstance(spec, FaultSpec) else FaultSpec(**spec)
            for spec in specs
        )
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._by_site: Dict[str, list] = {}
        for index, spec in enumerate(self.specs):
            self._by_site.setdefault(spec.site, []).append(index)
        self._visits: Dict[int, int] = {}
        self._fired: Dict[int, int] = {}
        self._site_visits: Dict[str, int] = {}
        self._streams: Dict[int, random.Random] = {
            index: random.Random(self.seed * 1_000_003 + index)
            for index, spec in enumerate(self.specs)
            if spec.probability < 1.0
        }

    # -- construction and serialization ----------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(
            specs=[FaultSpec(**spec) for spec in data.get("specs", [])],
            seed=data.get("seed", 0),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """The plan in :data:`ENV_VAR`, or ``None`` when unset/empty."""
        text = os.environ.get(ENV_VAR, "").strip()
        if not text:
            return None
        return cls.from_json(text)

    def to_dict(self) -> dict:
        return {"seed": self.seed, "specs": [asdict(s) for s in self.specs]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    # -- introspection ----------------------------------------------------

    def visits(self, site: str) -> int:
        """How many times the hook *site* has been visited."""
        with self._lock:
            return self._site_visits.get(site, 0)

    def fired(self, site: Optional[str] = None) -> int:
        """Total firings, optionally restricted to one *site*."""
        with self._lock:
            return sum(
                count
                for index, count in self._fired.items()
                if site is None or self.specs[index].site == site
            )

    # -- the hook ---------------------------------------------------------

    def fire(self, site: str, array=None, **ctx) -> None:
        """Visit hook *site*; execute every spec due to fire there.

        Called by the runtime at each hook point.  ``array`` is the
        mutable ndarray a ``corrupt`` spec poisons; other context (e.g.
        ``worker=``) feeds spec matching.  Raising specs raise from
        here; ``crash`` never returns.
        """
        indices = self._by_site.get(site)
        if not indices:
            with self._lock:
                self._site_visits[site] = self._site_visits.get(site, 0) + 1
            return
        due = []
        with self._lock:
            self._site_visits[site] = self._site_visits.get(site, 0) + 1
            for index in indices:
                spec = self.specs[index]
                if spec.worker is not None and ctx.get("worker") != spec.worker:
                    continue
                visit = self._visits.get(index, 0)
                self._visits[index] = visit + 1
                if visit < spec.after:
                    continue
                fired = self._fired.get(index, 0)
                if spec.times is not None and fired >= spec.times:
                    continue
                if spec.probability < 1.0:
                    if self._streams[index].random() >= spec.probability:
                        continue
                self._fired[index] = fired + 1
                due.append(spec)
        for spec in due:
            self._execute(spec, site, array)

    def _execute(self, spec: FaultSpec, site: str, array) -> None:
        if spec.kind == "corrupt":
            if array is not None and array.size:
                # Deterministic poison: NaN in the first entry, Inf in
                # the last — enough to trip both the NaN quarantine and
                # the backward-error check on any sampled column set.
                flat = array.reshape(-1)
                flat[0] = float("nan")
                flat[-1] = float("inf")
            return
        if spec.kind in ("hang", "slow"):
            time.sleep(spec.delay)
            return
        if spec.kind == "crash":
            os._exit(23)
        message = spec.message or (
            f"injected {spec.kind} fault at {site}"
            + (f" (worker {spec.worker})" if spec.worker is not None else "")
        )
        raise _exception_for(spec.error, message)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan(specs={len(self.specs)}, seed={self.seed})"
