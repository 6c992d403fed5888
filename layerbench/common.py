"""Shared pieces of the layer-ledger benchmark.

* :class:`Tracer` — in-memory spans and counters, written out as Chrome
  trace-event JSON (opens in Perfetto or ``chrome://tracing``);
* :func:`smooth_block` — seeded smooth periodic right-hand sides;
* :class:`InterpolationCheck` — an output check made apart from the
  program: coefficients are evaluated with ``scipy.interpolate.BSpline``
  on the space's own knot vector and must reproduce their inputs;
* process, thread, socket and shared-memory bookkeeping, so every run
  can prove it left nothing running.

Nothing here imports ``repro``: the checks must not lean on the code they
check.
"""

from __future__ import annotations

import json
import math
import os
import resource
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np
from scipy.interpolate import BSpline

#: unit round-off of float64
UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


# -- results ------------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload pass did: operations, failures and metrics."""

    attempted: int = 0
    failed: int = 0
    #: False once any output check fails
    correct: bool = True
    #: metric name -> (value, unit)
    metrics: Dict[str, tuple] = field(default_factory=dict)
    #: human-readable notes (check failures, mismatches), printed to stderr
    notes: List[str] = field(default_factory=list)
    #: a traced pass's own end-to-end figures, for the tracing overhead
    traced: Dict[str, float] = field(default_factory=dict)

    def fail(self, count: int, note: str) -> None:
        """*count* operations produced a wrong output."""
        self.failed += count
        self.correct = False
        self.notes.append(note)

    def error(self, note: str) -> None:
        """One operation raised instead of producing an output."""
        self.failed += 1
        self.notes.append(note)


def percentile_ms(seconds: List[float], q: float) -> float:
    """The *q*-th percentile of durations given in seconds, in ms."""
    return float(np.percentile(np.asarray(seconds), q)) * 1e3


# -- tracing ------------------------------------------------------------------


class Tracer:
    """Spans and counters kept in memory until the run ends.

    Each span records its name, start, end, the span that encloses it on
    the same thread (``parent``) and the operation it belongs to
    (``op``).  Span names are the per-layer metric names they feed.
    """

    def __init__(self) -> None:
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 1
        #: prefixed to operation ids, so passes of one run never share one
        self.scope = ""
        self.spans: List[dict] = []
        self.counters: List[dict] = []

    def _new_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    def add(self, name: str, start: float, end: float, op=None) -> None:
        """Record a top-level span timed elsewhere (e.g. one that completed
        on another thread)."""
        op = None if op is None else f"{self.scope}:{op}"
        record = {
            "name": name,
            "start": start,
            "end": end,
            "id": self._new_id(),
            "parent": None,
            "op": op,
            "tid": threading.get_ident(),
        }
        with self._lock:
            self.spans.append(record)

    @contextmanager
    def span(self, name: str, op=None):
        stack = self._local.__dict__.setdefault("stack", [])
        op = None if op is None else f"{self.scope}:{op}"
        span_id = self._new_id()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    {
                        "name": name,
                        "start": start,
                        "end": end,
                        "id": span_id,
                        "parent": parent,
                        "op": op,
                        "tid": threading.get_ident(),
                    }
                )

    def counter(self, name: str, value: float) -> None:
        """Record a value that is counted or derived rather than timed."""
        with self._lock:
            self.counters.append(
                {"name": name, "t": time.perf_counter(), "value": float(value)}
            )

    def durations(self, name: str) -> List[float]:
        """Seconds per operation: spans of *name* summed within each op."""
        per_op: Dict[object, float] = {}
        for span in self.spans:
            if span["name"] == name:
                key = span["op"] if span["op"] is not None else ("span", span["id"])
                per_op[key] = per_op.get(key, 0.0) + span["end"] - span["start"]
        return list(per_op.values())

    def median_ms(self, name: str) -> float:
        values = self.durations(name)
        if not values:
            raise RuntimeError(f"no spans named {name!r} were recorded")
        return float(np.median(values)) * 1e3

    def write_chrome(self, path: str, metadata: dict) -> None:
        """All spans ("X" events) and counters ("C" events) as trace JSON."""
        pid = os.getpid()

        def us(t: float) -> float:
            return round((t - self._t0) * 1e6, 3)

        events = [
            {
                "name": s["name"],
                "ph": "X",
                "ts": us(s["start"]),
                "dur": round((s["end"] - s["start"]) * 1e6, 3),
                "pid": pid,
                "tid": s["tid"],
                "args": {"span": s["id"], "parent": s["parent"], "op": s["op"]},
            }
            for s in self.spans
        ]
        events += [
            {
                "name": c["name"],
                "ph": "C",
                "ts": us(c["t"]),
                "pid": pid,
                "args": {"value": c["value"]},
            }
            for c in self.counters
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata},
                fh,
            )


# -- inputs -------------------------------------------------------------------

#: Fourier modes of the smooth inputs: 1..MODES periods over the domain
MODES = 3


def smooth_block(rng: np.random.Generator, x: np.ndarray, cols: int,
                 period: float = 1.0) -> np.ndarray:
    """``(len(x), cols)`` smooth periodic samples at the points *x*.

    Column ``j`` is ``a0_j + Σ_m s_mj sin(2πmx/L) + c_mj cos(2πmx/L)`` for
    ``m = 1..MODES``; amplitudes fall off as ``1/m`` so every column is
    well resolved by the mesh.
    """
    basis = [np.ones_like(x)]
    scale = [1.0]
    for m in range(1, MODES + 1):
        arg = 2.0 * np.pi * m * x / period
        basis += [np.sin(arg), np.cos(arg)]
        scale += [1.0 / m, 1.0 / m]
    basis = np.stack(basis, axis=1)
    coeffs = rng.standard_normal((basis.shape[1], cols)) * np.asarray(scale)[:, None]
    return np.ascontiguousarray(basis @ coeffs)


# -- output checks ------------------------------------------------------------


def periodic_collocation(knots: np.ndarray, degree: int, x: np.ndarray) -> np.ndarray:
    """Dense periodic collocation matrix at *x*, assembled by scipy.

    The ``n + degree`` plain B-splines on the extended knot vector are
    folded modulo ``n``: scipy's basis ``i`` is the periodic basis
    ``(i − degree) mod n``.
    """
    n = len(knots) - 2 * degree - 1
    plain = BSpline.design_matrix(x, knots, degree).toarray()
    folded = np.zeros((len(x), n))
    np.add.at(folded.T, (np.arange(n + degree) - degree) % n, plain.T)
    return folded


class InterpolationCheck:
    """Do coefficients interpolate their inputs?  Checked with scipy.

    Parameters
    ----------
    knots, degree:
        The periodic space's extended knot vector (length
        ``n + 2·degree + 1``) and degree.
    x:
        The points the inputs were sampled at (the Greville points).

    A column passes when ``max_i |S(x_i) − f_i|`` is at most
    ``(degree + 1) · n · u · κ∞(A) · max_i |f_i|``, with ``u`` the unit
    round-off: the solve's substitutions run ``n`` rows deep, each adding
    at most ``u · ‖A‖ · ‖c‖ ≤ u · κ∞ · ‖f‖`` to the residual (``‖A‖∞ = 1``
    because B-splines sum to one), and the evaluation sums ``degree + 1``
    terms.  κ∞ comes from a collocation matrix scipy assembles.  Measured
    errors reach 0.08 of this bound (uniform degree 3 at n = 1000); a
    wrong coefficient anywhere shows as an error of order ``‖f‖``.
    """

    def __init__(self, knots: np.ndarray, degree: int, x: np.ndarray) -> None:
        self.knots = np.asarray(knots, dtype=np.float64)
        self.degree = int(degree)
        self.x = np.asarray(x, dtype=np.float64)
        self.n = len(self.knots) - 2 * self.degree - 1
        a = periodic_collocation(self.knots, self.degree, self.x)
        self.kappa = float(np.linalg.cond(a, np.inf))
        self.rel_tol = (self.degree + 1) * self.n * UNIT_ROUNDOFF * self.kappa
        self._wrap = (np.arange(self.n + self.degree) - self.degree) % self.n

    def worst(self, coeffs: np.ndarray, f: np.ndarray) -> float:
        """Largest ``error / tolerance`` over the columns given (pass ≤ 1)."""
        coeffs = np.asarray(coeffs, dtype=np.float64).reshape(self.n, -1)
        f = np.asarray(f, dtype=np.float64).reshape(self.n, -1)
        values = BSpline(self.knots, coeffs[self._wrap], self.degree)(self.x)
        err = np.max(np.abs(values - f), axis=0)
        tol = self.rel_tol * np.max(np.abs(f), axis=0)
        if not np.all(np.isfinite(err)):
            return math.inf
        return float(np.max(err / tol))


def sample_columns(cols: int, take: int, offset: int) -> np.ndarray:
    """*take* evenly spread columns, rotated by *offset* so that successive
    operations check different columns."""
    step = max(1, cols // take)
    return (np.arange(min(take, cols)) * step + offset) % cols


# -- resources ----------------------------------------------------------------


class Interrupted(BaseException):
    """SIGTERM or SIGINT arrived; unwinds the run through its cleanups."""

    def __init__(self, signum: int) -> None:
        super().__init__(f"interrupted by signal {signum}")
        self.signum = signum


def install_signal_handlers() -> None:
    """Turn SIGTERM / SIGINT into :class:`Interrupted` in this process.

    Forked worker processes get back the handlers that were in place
    before, so they keep the program's own signal behaviour; the parent
    still stops them explicitly.  A second signal during the cleanup is
    ignored rather than cutting it short.
    """
    previous = {sig: signal.getsignal(sig) for sig in (signal.SIGTERM, signal.SIGINT)}

    def handler(signum, _frame):
        for sig in previous:
            signal.signal(sig, signal.SIG_IGN)
        raise Interrupted(signum)

    def restore_in_child():
        for sig, action in previous.items():
            signal.signal(sig, action)

    for sig in previous:
        signal.signal(sig, handler)
    os.register_at_fork(after_in_child=restore_in_child)


def _proc_status(pid: int) -> Dict[str, str]:
    fields = {}
    with open(f"/proc/{pid}/status", encoding="ascii", errors="replace") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            fields[key] = value.strip()
    return fields


def live_children() -> List[int]:
    """Pids of this process's children that have not exited."""
    pids = set()
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children", encoding="ascii") as fh:
                pids.update(int(p) for p in fh.read().split())
        except FileNotFoundError:  # the thread ended while we looked
            continue
    alive = []
    for pid in sorted(pids):
        try:
            if not _proc_status(pid).get("State", "").startswith("Z"):
                alive.append(pid)
        except FileNotFoundError:
            continue
    return alive


def resident_kib(pid: int) -> int:
    """Current resident KiB of process *pid*."""
    return int(_proc_status(pid)["VmRSS"].split()[0])


def peak_rss_mb(workers=None) -> float:
    """Peak resident MiB of this process plus what its workers added.

    *workers* maps each worker pid to its resident KiB when it started: a
    forked worker starts out sharing this process's pages copy-on-write,
    so it is charged its peak beyond that starting size.
    """
    total_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid, start_kib in (workers or {}).items():
        total_kib += int(_proc_status(pid)["VmHWM"].split()[0]) - start_kib
    return total_kib / 1024.0


def shm_names() -> set:
    """POSIX shared-memory segments now in ``/dev/shm``."""
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


def socket_fds() -> set:
    """File descriptors of this process that are sockets."""
    found = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            if os.readlink(f"/proc/self/fd/{fd}").startswith("socket:"):
                found.add(fd)
        except OSError:
            continue
    return found


@dataclass
class Baseline:
    """What existed before the run, so the leak check sees only its own."""

    shm: set
    sockets: set
    threads: set


def baseline() -> Baseline:
    return Baseline(shm_names(), socket_fds(), {t.ident for t in threading.enumerate()})


#: seconds a run waits for its threads and child processes to end
RELEASE_GRACE_S = 5.0


def release_and_check(before: Baseline) -> List[str]:
    """Wait for what the run started to end; return what is still there.

    Children still alive are killed and reaped, and stopping the
    multiprocessing resource tracker unlinks any segment the run left
    registered, so a failing run still leaves nothing behind.
    """
    problems = []
    deadline = time.monotonic() + RELEASE_GRACE_S
    for thread in threading.enumerate():
        if thread.ident not in before.threads and thread is not threading.current_thread():
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
    threads = [
        t.name for t in threading.enumerate()
        if t.ident not in before.threads and t.is_alive()
    ]
    if threads:
        problems.append(f"threads still running: {threads}")
    sockets = socket_fds() - before.sockets
    if sockets:
        problems.append(f"{len(sockets)} socket(s) still open")
    segments = sorted(shm_names() - before.shm)
    if segments:
        problems.append(f"shared-memory segments left in /dev/shm: {segments}")
    # The multiprocessing resource tracker is a child the run started
    # (lazily, with its first shared-memory segment).  It exits once every
    # holder of its pipe is gone, so it is stopped after the other children.
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    while True:
        children = [p for p in live_children() if p != getattr(tracker, "_pid", None)]
        if not children or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    _kill_reported(children, problems)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()
    _kill_reported(live_children(), problems)
    return problems


def _kill_reported(pids: List[int], problems: List[str]) -> None:
    if not pids:
        return
    problems.append(f"child processes still alive: {pids}")
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
