"""Durable runtime state: the on-disk plan store and out-of-core campaigns.

Two walls stand between the in-memory runtime and the paper's production
shape (batch axis ~1e12 columns, multi-hour campaigns):

* **Restarts refactorize.**  :class:`~repro.runtime.plan_cache.PlanCache`
  deduplicates factorizations *within* one process lifetime; a restarted
  :class:`~repro.runtime.engine.SolveEngine` (or a freshly spawned
  sharded worker) pays every setup phase again.  :class:`PlanStore`
  serializes factorized builders to per-key files — the stored factor
  arrays are the *exact bytes* of the original factorization, so a
  builder loaded from disk solves bitwise identically to the one that
  was saved — and ``PlanCache(store=...)`` consults it on every cold
  miss before factorizing, writing back after.  A warm boot performs
  zero factorizations (``plan_cache.factorized`` stays 0 in telemetry).

* **Batches outgrow RAM.**  :func:`run_campaign` streams a
  :class:`StreamingRHS` source (memory-mapped ``.npy`` or a spool of
  chunk files) through the engine in bounded-memory windows, writing
  coefficients to a memory-mapped output and recording completed chunk
  ranges in a :class:`CampaignState` JSON checkpoint after every window.
  A killed campaign resumes where it stopped; because the chunk
  boundaries are pinned in the checkpoint and chunks are independent,
  the stitched result is bitwise identical to an uninterrupted run.

Durability discipline (both the store and the checkpoint):

* writes are atomic — unique temp file in the destination directory,
  flush + fsync, then ``os.replace``; a kill mid-write leaves the old
  entry (or no entry), never a torn one;
* every store payload carries a blake2b checksum and a format version;
  *any* defect on load (truncation, bit flips, stale format, a
  half-written file from a non-atomic writer) quarantines the entry,
  bumps the ``durable.corrupt_evicted`` counter and surfaces as a clean
  :class:`DurableStoreError` — the cache falls back to refactorizing, so
  corruption can cost time but never correctness.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
from dataclasses import asdict
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.spec import BSplineSpec
from repro.exceptions import ReproError, ShapeError

__all__ = [
    "DurableStoreError",
    "atomic_write_bytes",
    "PlanStore",
    "StreamingRHS",
    "ArrayRHS",
    "MemmapRHS",
    "ChunkSpoolRHS",
    "CampaignState",
    "run_campaign",
    "FORMAT_VERSION",
    "PLAN_STORE_ENV",
]

#: store/checkpoint container format; entries written by a different
#: version are treated as stale and evicted rather than reinterpreted
FORMAT_VERSION = 1

#: environment variable naming a default plan-store directory; consulted
#: by :class:`~repro.runtime.engine.EngineConfig` when no directory is
#: configured explicitly, so a fleet can be pointed at a shared store
#: without touching code
PLAN_STORE_ENV = "REPRO_PLAN_STORE"

_MAGIC = b"RPLN"

#: memory-budget oversubscription guard: one streamed window costs about
#: this many copies of itself (source read copy, the engine's cast work
#: copy, the shm lease under executor="processes", the result block)
_WINDOW_COPIES = 4

#: default streamed window width when neither chunk_cols nor a memory
#: budget is given
_DEFAULT_CHUNK_COLS = 16384


class DurableStoreError(ReproError, RuntimeError):
    """A durable entry (plan file or checkpoint) is unusable.

    Raised on corruption, truncation, checksum mismatch, a stale format
    version, or an I/O failure while writing.  Callers that can
    recompute (the plan cache, a resumed campaign) treat it as "entry
    absent" and fall back; it is never allowed to become a wrong answer.
    """


# ---------------------------------------------------------------------------
# PlanKey <-> JSON
# ---------------------------------------------------------------------------


def _key_to_dict(key) -> dict:
    return {
        "spec": asdict(key.spec),
        "version": key.version,
        "dtype": key.dtype,
        "chunk": key.chunk,
        "drop_tol": key.drop_tol,
        "backend": key.backend,
    }


def _key_from_dict(data: dict):
    from repro.runtime.plan_cache import PlanKey

    return PlanKey(
        spec=BSplineSpec(**data["spec"]),
        version=int(data["version"]),
        dtype=str(data["dtype"]),
        chunk=int(data["chunk"]),
        drop_tol=float(data["drop_tol"]),
        backend=str(data["backend"]),
    )


def _canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _key_digest(key) -> str:
    """Stable filename stem for *key* (blake2b of its canonical JSON)."""
    payload = _canonical_json(_key_to_dict(key)).encode("utf-8")
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


# ---------------------------------------------------------------------------
# Builder (de)serialization
# ---------------------------------------------------------------------------

#: per-plan-class extra integer attributes beyond (n, dtype, norm1)
_PLAN_INTS = {
    "PttrsPlan": (),
    "PbtrsPlan": ("kd",),
    "GbtrsPlan": ("kl", "ku"),
    "GetrsPlan": (),
}

#: per-plan-class stored arrays (factor arrays plus pivot vectors)
_PLAN_ARRAYS = {
    "PttrsPlan": ("d", "e"),
    "PbtrsPlan": ("ab",),
    "GbtrsPlan": ("ab", "ipiv"),
    "GetrsPlan": ("lu", "ipiv"),
}


def _pack_plan(plan, prefix: str, arrays: dict) -> dict:
    """Record one :class:`FactorizationPlan` into (meta dict, arrays)."""
    cls = type(plan).__name__
    if cls not in _PLAN_ARRAYS:
        raise DurableStoreError(f"cannot serialize plan class {cls!r}")
    meta = {
        "class": cls,
        "n": int(plan.n),
        "dtype": plan.dtype.name,
        "norm1": float(plan.norm1),
    }
    for name in _PLAN_INTS[cls]:
        meta[name] = int(getattr(plan, name))
    for name in _PLAN_ARRAYS[cls]:
        arrays[f"{prefix}__{name}"] = np.ascontiguousarray(getattr(plan, name))
    return meta


def _unpack_plan(meta: dict, prefix: str, arrays: dict):
    """Rebuild a :class:`FactorizationPlan` without refactorizing."""
    from repro.core.builder import plan as plan_module

    cls_name = meta.get("class")
    if cls_name not in _PLAN_ARRAYS:
        raise DurableStoreError(f"unknown plan class {cls_name!r} in store entry")
    cls = getattr(plan_module, cls_name)
    plan = cls.__new__(cls)
    plan_module.FactorizationPlan.__init__(
        plan, int(meta["n"]), np.dtype(meta["dtype"]), float(meta["norm1"])
    )
    for name in _PLAN_INTS[cls_name]:
        setattr(plan, name, int(meta[name]))
    for name in _PLAN_ARRAYS[cls_name]:
        stored = arrays.get(f"{prefix}__{name}")
        if stored is None:
            raise DurableStoreError(
                f"store entry is missing factor array {prefix}__{name}"
            )
        setattr(plan, name, np.ascontiguousarray(stored))
    return plan


def _pack_builder(builder) -> Tuple[dict, dict]:
    """``(meta, arrays)`` capturing *builder*'s factorization exactly.

    Only what cannot be reassembled cheaply and deterministically is
    stored: the factor arrays, pivots and corner operators.  The spline
    space, collocation matrix and Greville points are rebuilt from the
    spec on load — assembly is cheap; it is the factorization (serial
    Listing-2 style kernels, O(n) Python-level iterations) that the
    store exists to skip.
    """
    from repro.core.builder.schur import SchurSolver

    solver = builder.solver
    arrays: dict = {}
    if isinstance(solver, SchurSolver):
        meta = {
            "solver": "schur",
            "n": int(solver.n),
            "m": int(solver.m),
            "corner_width": int(solver.corner_width),
            "chunk": int(solver.chunk),
            "drop_tol": float(solver.drop_tol),
            "dtype": solver.dtype.name,
            "norm1": float(solver.norm1),
            "norm_inf": float(solver.norm_inf),
            "q": _pack_plan(solver.q_plan, "q", arrays),
            "delta": _pack_plan(solver.delta_plan, "delta", arrays),
        }
        arrays["beta"] = np.ascontiguousarray(solver.beta)
        arrays["lam"] = np.ascontiguousarray(solver.lam)
    else:
        meta = {
            "solver": "direct",
            "n": int(solver.n),
            "chunk": int(solver.chunk),
            "drop_tol": float(solver.drop_tol),
            "dtype": solver.dtype.name,
            "norm1": float(solver.norm1),
            "norm_inf": float(solver.norm_inf),
            "p": _pack_plan(solver.plan, "p", arrays),
        }
    return meta, arrays


def _unpack_builder(key, meta: dict, arrays: dict):
    """Rebuild the :class:`SplineBuilder` for *key* from a store entry.

    The spline space and collocation matrix are reassembled from the
    spec (deterministic, no factorization); the solver is reconstructed
    around the stored factor bytes, so its solves are bitwise identical
    to the builder that was saved.
    """
    from repro.core.builder.builder import SplineBuilder
    from repro.core.builder.direct import DirectBandSolver
    from repro.core.builder.schur import SchurSolver
    from repro.kbatched import Coo
    from repro.xspace import DefaultExecutionSpace

    kind = meta.get("solver")
    if kind == "schur":
        solver = SchurSolver.__new__(SchurSolver)
        solver.n = int(meta["n"])
        solver.m = int(meta["m"])
        solver.corner_width = int(meta["corner_width"])
        solver.chunk = int(meta["chunk"])
        solver.drop_tol = float(meta["drop_tol"])
        solver.dtype = np.dtype(meta["dtype"])
        solver.norm1 = float(meta["norm1"])
        solver.norm_inf = float(meta["norm_inf"])
        solver.q_plan = _unpack_plan(meta["q"], "q", arrays)
        solver.delta_plan = _unpack_plan(meta["delta"], "delta", arrays)
        beta = arrays.get("beta")
        lam = arrays.get("lam")
        if beta is None or lam is None:
            raise DurableStoreError("store entry is missing corner operators")
        solver.beta = np.ascontiguousarray(beta)
        solver.lam = np.ascontiguousarray(lam)
        # The COO corners are a deterministic function of the dense
        # corners and drop_tol, so rebuilding them preserves bitwise
        # solve identity while keeping the payload small.
        solver.beta_coo = Coo.from_dense(solver.beta, drop_tol=solver.drop_tol)
        solver.lam_coo = Coo.from_dense(solver.lam, drop_tol=solver.drop_tol)
    elif kind == "direct":
        solver = DirectBandSolver.__new__(DirectBandSolver)
        solver.n = int(meta["n"])
        solver.chunk = int(meta["chunk"])
        solver.drop_tol = float(meta["drop_tol"])
        solver.corner_width = 0
        solver.dtype = np.dtype(meta["dtype"])
        solver.norm1 = float(meta["norm1"])
        solver.norm_inf = float(meta["norm_inf"])
        solver.plan = _unpack_plan(meta["p"], "p", arrays)
    else:
        raise DurableStoreError(f"unknown solver kind {kind!r} in store entry")

    builder = SplineBuilder.__new__(SplineBuilder)
    builder.spec = key.spec
    builder.space_1d = key.spec.make_space()
    builder.version = key.version
    builder.backend = key.backend
    builder.exec_space = DefaultExecutionSpace
    builder.dtype = np.dtype(key.dtype)
    builder.chunk = key.chunk
    builder.drop_tol = key.drop_tol
    builder.matrix = builder.space_1d.collocation_matrix()
    builder.solver = solver
    builder.n = builder.space_1d.nbasis
    builder.engine = None
    if builder.n != solver.n:
        raise DurableStoreError(
            f"stored factorization is for n={solver.n} but the key's spec "
            f"assembles n={builder.n}"
        )
    return builder


# ---------------------------------------------------------------------------
# Atomic file helpers
# ---------------------------------------------------------------------------


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write *payload* to *path* atomically (tmp + fsync + rename).

    A reader concurrent with the write sees either the old file or the
    new one, never a mixture; a kill mid-write leaves only a temp file
    that the next :meth:`PlanStore.save` sweep removes.  Shared by the
    plan store and campaign checkpoints — one durability discipline for
    every on-disk artifact.
    """
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".tmp.", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    # Durability of the rename itself: fsync the directory (best-effort;
    # some filesystems refuse O_RDONLY directory fds).
    try:
        dfd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dfd)
    except OSError:
        pass
    finally:
        os.close(dfd)


# ---------------------------------------------------------------------------
# PlanStore
# ---------------------------------------------------------------------------


class PlanStore:
    """Versioned, checksummed, per-key on-disk store of factorized builders.

    One entry per :class:`~repro.runtime.plan_cache.PlanKey`, named by
    the blake2b digest of the key's canonical JSON.  The container is::

        b"RPLN" | format byte | uint32 header length | JSON header | payload

    where the header records the format version, the full key, dtype and
    library metadata and the blake2b checksum of the payload, and the
    payload is an ``.npz`` archive of the factor arrays.  Writes are
    atomic (tmp + fsync + rename), so concurrent processes — sharded
    workers, several engines sharing one store directory — can read and
    write the same store safely: the worst race is two processes
    factorizing the same key once each and one of the identical entries
    winning the rename.

    Parameters
    ----------
    root:
        Store directory; created on first use.
    telemetry:
        Optional :class:`~repro.runtime.telemetry.Telemetry` for the
        ``durable.*`` counters (hits, misses, writes, write failures,
        corrupt evictions).
    faults:
        Optional :class:`~repro.runtime.resilience.faults.FaultPlan`;
        fires ``durable.store_write`` before an entry is committed and
        ``durable.store_read`` before one is parsed.
    """

    def __init__(self, root, telemetry=None, faults=None) -> None:
        self.root = os.fspath(root)
        self.telemetry = telemetry
        self.faults = faults
        os.makedirs(self.root, exist_ok=True)

    # -- small internals --------------------------------------------------

    def _count(self, name: str) -> None:
        if self.telemetry is not None:
            self.telemetry.incr(f"durable.{name}")

    def path_for(self, key) -> str:
        """The entry filename this *key* maps to (existing or not)."""
        return os.path.join(self.root, _key_digest(key) + ".plan")

    def _entry_paths(self) -> List[str]:
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            return []
        return [
            os.path.join(self.root, name)
            for name in names
            if name.endswith(".plan")
        ]

    def __len__(self) -> int:
        return len(self._entry_paths())

    def __contains__(self, key) -> bool:
        return os.path.exists(self.path_for(key))

    # -- write -------------------------------------------------------------

    def save(self, key, builder) -> str:
        """Serialize *builder* under *key* atomically; returns the path.

        Any failure (serialization, injected fault, I/O) is converted to
        :class:`DurableStoreError` after counting
        ``durable.store_write_failures`` — a failed write must never
        take down the solve that produced the factorization.
        """
        path = self.path_for(key)
        try:
            meta, arrays = _pack_builder(builder)
            buf = io.BytesIO()
            np.savez(buf, **arrays)
            payload = buf.getvalue()
            header = {
                "format_version": FORMAT_VERSION,
                "key": _key_to_dict(key),
                "solver": meta,
                "payload_checksum": hashlib.blake2b(
                    payload, digest_size=16
                ).hexdigest(),
                "payload_nbytes": len(payload),
                "library": {"numpy": np.__version__},
            }
            header_bytes = _canonical_json(header).encode("utf-8")
            container = b"".join(
                (
                    _MAGIC,
                    bytes([FORMAT_VERSION]),
                    len(header_bytes).to_bytes(4, "little"),
                    header_bytes,
                    payload,
                )
            )
            if self.faults is not None:
                self.faults.fire("durable.store_write", key=key, path=path)
            atomic_write_bytes(path, container)
        except BaseException as exc:
            self._count("store_write_failures")
            if self.telemetry is not None:
                self.telemetry.event(
                    "durable", action="write_failed", reason=str(exc)
                )
            raise DurableStoreError(
                f"could not persist plan entry {os.path.basename(path)}: {exc}"
            ) from exc
        self._count("store_writes")
        return path

    # -- read --------------------------------------------------------------

    def _parse(self, raw: bytes, expect_key=None):
        """``(key, builder)`` from container bytes; raises on any defect."""
        if len(raw) < len(_MAGIC) + 5:
            raise DurableStoreError("entry is truncated (no container header)")
        if raw[: len(_MAGIC)] != _MAGIC:
            raise DurableStoreError("entry does not start with the store magic")
        if raw[len(_MAGIC)] != FORMAT_VERSION:
            raise DurableStoreError(
                f"stale store format {raw[len(_MAGIC)]} (expected "
                f"{FORMAT_VERSION})"
            )
        offset = len(_MAGIC) + 1
        header_len = int.from_bytes(raw[offset : offset + 4], "little")
        offset += 4
        header_bytes = raw[offset : offset + header_len]
        if len(header_bytes) != header_len:
            raise DurableStoreError("entry is truncated inside the header")
        try:
            header = json.loads(header_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DurableStoreError(f"unreadable entry header: {exc}") from exc
        if header.get("format_version") != FORMAT_VERSION:
            raise DurableStoreError(
                f"stale entry format_version {header.get('format_version')} "
                f"(expected {FORMAT_VERSION})"
            )
        payload = raw[offset + header_len :]
        if len(payload) != header.get("payload_nbytes"):
            raise DurableStoreError(
                f"payload is {len(payload)} bytes, header promised "
                f"{header.get('payload_nbytes')}"
            )
        checksum = hashlib.blake2b(payload, digest_size=16).hexdigest()
        if checksum != header.get("payload_checksum"):
            raise DurableStoreError("payload checksum mismatch (bit rot?)")
        try:
            key = _key_from_dict(header["key"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DurableStoreError(f"unreadable entry key: {exc}") from exc
        if expect_key is not None and key != expect_key:
            raise DurableStoreError(
                "entry key does not match its filename digest "
                "(hash collision or tampering)"
            )
        try:
            with np.load(io.BytesIO(payload), allow_pickle=False) as npz:
                arrays = {name: npz[name] for name in npz.files}
        except Exception as exc:  # noqa: BLE001 - any defect is corruption
            raise DurableStoreError(f"unreadable entry payload: {exc}") from exc
        return key, _unpack_builder(key, header["solver"], arrays)

    def load(self, key):
        """The stored builder for *key*, or ``None`` on a clean miss.

        A present-but-unusable entry (truncated, corrupted, stale
        format) is quarantined — the file is removed, the
        ``durable.corrupt_evicted`` counter bumped — and
        :class:`DurableStoreError` raised; the plan cache treats that
        exactly like a miss and refactorizes.
        """
        path = self.path_for(key)
        if self.faults is not None:
            self.faults.fire("durable.store_read", key=key, path=path)
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            self._count("store_misses")
            return None
        except OSError as exc:
            self._count("store_misses")
            raise DurableStoreError(
                f"could not read plan entry {os.path.basename(path)}: {exc}"
            ) from exc
        try:
            _, builder = self._parse(raw, expect_key=key)
        except DurableStoreError:
            self.evict_path(path)
            raise
        except Exception as exc:  # noqa: BLE001 - treat as corruption
            self.evict_path(path)
            raise DurableStoreError(
                f"unusable plan entry {os.path.basename(path)}: {exc}"
            ) from exc
        self._count("store_hits")
        return builder

    def evict_path(self, path: str) -> None:
        """Quarantine one unusable entry file (idempotent)."""
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        except OSError:
            pass
        self._count("corrupt_evicted")
        if self.telemetry is not None:
            self.telemetry.event(
                "durable", action="corrupt_evicted", path=os.path.basename(path)
            )

    def evict(self, key) -> None:
        """Drop the entry for *key* if present (no corruption counting)."""
        try:
            os.unlink(self.path_for(key))
        except OSError:
            pass

    def entries(self) -> Iterator[Tuple[object, object]]:
        """Yield ``(key, builder)`` for every readable entry.

        Unusable entries are quarantined and skipped — a warm boot never
        fails because one file rotted.
        """
        for path in self._entry_paths():
            try:
                with open(path, "rb") as fh:
                    raw = fh.read()
                yield self._parse(raw)
            except DurableStoreError:
                self.evict_path(path)
            except OSError:
                continue

    def clear(self) -> None:
        """Remove every entry (the store directory itself survives)."""
        for path in self._entry_paths():
            try:
                os.unlink(path)
            except OSError:
                pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlanStore(root={self.root!r}, entries={len(self)})"


# ---------------------------------------------------------------------------
# Streaming right-hand-side sources
# ---------------------------------------------------------------------------


class StreamingRHS:
    """A column-streamable right-hand side of shape ``(n, total_cols)``.

    Sources promise only :meth:`read` over ``[col0, col1)`` windows — the
    full array never needs to exist in memory.  ``fingerprint()``
    identifies the data for campaign-resume validation.
    """

    @property
    def shape(self) -> Tuple[int, int]:
        raise NotImplementedError

    @property
    def dtype(self) -> np.dtype:
        raise NotImplementedError

    def read(self, col0: int, col1: int) -> np.ndarray:
        """The ``(n, col1 - col0)`` window; may be a read-only view."""
        raise NotImplementedError

    def fingerprint(self) -> str:
        """A stable identity digest (shape, dtype, leading bytes)."""
        n, total = self.shape
        digest = hashlib.blake2b(digest_size=16)
        digest.update(repr((n, total)).encode())
        digest.update(np.dtype(self.dtype).str.encode())
        head = np.ascontiguousarray(self.read(0, min(total, max(1, 8))))
        digest.update(memoryview(head).cast("B")[:65536])
        return digest.hexdigest()


class ArrayRHS(StreamingRHS):
    """An in-memory array presented through the streaming interface."""

    def __init__(self, array: np.ndarray) -> None:
        array = np.asarray(array)
        if array.ndim != 2:
            raise ShapeError(
                f"streaming sources are 2-D (n, cols), got {array.shape}"
            )
        self._array = array

    @property
    def shape(self) -> Tuple[int, int]:
        return self._array.shape

    @property
    def dtype(self) -> np.dtype:
        return self._array.dtype

    def read(self, col0: int, col1: int) -> np.ndarray:
        return self._array[:, col0:col1]


class MemmapRHS(StreamingRHS):
    """A memory-mapped ``.npy`` file: windows are paged in on demand.

    The OS page cache, not the process heap, holds the working set, so
    the campaign's resident footprint is bounded by the window width
    regardless of the file size.
    """

    def __init__(self, path) -> None:
        self.path = os.fspath(path)
        self._mm = np.load(self.path, mmap_mode="r")
        if self._mm.ndim != 2:
            raise ShapeError(
                f"streaming sources are 2-D (n, cols), got {self._mm.shape}"
            )

    @property
    def shape(self) -> Tuple[int, int]:
        return self._mm.shape

    @property
    def dtype(self) -> np.dtype:
        return self._mm.dtype

    def read(self, col0: int, col1: int) -> np.ndarray:
        return self._mm[:, col0:col1]


class ChunkSpoolRHS(StreamingRHS):
    """A directory of sequential ``part-NNNNN.npy`` column chunks.

    For right-hand sides *generated* incrementally (a producer that
    cannot hold the whole batch either), :meth:`spool` writes each
    produced block to its own file plus a JSON manifest; reads memory-map
    the parts and stitch windows across part boundaries.
    """

    MANIFEST = "manifest.json"

    def __init__(self, root) -> None:
        self.root = os.fspath(root)
        manifest_path = os.path.join(self.root, self.MANIFEST)
        try:
            with open(manifest_path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise DurableStoreError(
                f"unreadable spool manifest {manifest_path}: {exc}"
            ) from exc
        if manifest.get("format_version") != FORMAT_VERSION:
            raise DurableStoreError(
                f"stale spool manifest format "
                f"{manifest.get('format_version')} (expected {FORMAT_VERSION})"
            )
        self._n = int(manifest["n"])
        self._dtype = np.dtype(str(manifest["dtype"]))
        self._part_cols: List[int] = [int(c) for c in manifest["part_cols"]]
        self._offsets = np.concatenate(
            ([0], np.cumsum(self._part_cols))
        ).astype(np.int64)

    @classmethod
    def spool(cls, root, blocks) -> "ChunkSpoolRHS":
        """Write an iterable of ``(n, c_i)`` blocks into a new spool."""
        root = os.fspath(root)
        os.makedirs(root, exist_ok=True)
        part_cols: List[int] = []
        n: Optional[int] = None
        dtype: Optional[np.dtype] = None
        for index, block in enumerate(blocks):
            block = np.ascontiguousarray(block)
            if block.ndim != 2:
                raise ShapeError(
                    f"spooled blocks are 2-D (n, cols), got {block.shape}"
                )
            if n is None:
                n, dtype = block.shape[0], block.dtype
            elif block.shape[0] != n or block.dtype != dtype:
                raise ShapeError(
                    "spooled blocks must agree on n and dtype; got "
                    f"{block.shape[0]}/{block.dtype} after {n}/{dtype}"
                )
            np.save(os.path.join(root, f"part-{index:05d}.npy"), block)
            part_cols.append(block.shape[1])
        if n is None:
            raise ValueError("cannot spool an empty block iterable")
        manifest = {
            "format_version": FORMAT_VERSION,
            "n": int(n),
            "dtype": np.dtype(dtype).name,
            "part_cols": part_cols,
        }
        atomic_write_bytes(
            os.path.join(root, cls.MANIFEST),
            _canonical_json(manifest).encode("utf-8"),
        )
        return cls(root)

    @property
    def shape(self) -> Tuple[int, int]:
        return (self._n, int(self._offsets[-1]))

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    def read(self, col0: int, col1: int) -> np.ndarray:
        out = np.empty((self._n, col1 - col0), dtype=self._dtype)
        cursor = col0
        while cursor < col1:
            part = int(np.searchsorted(self._offsets, cursor, side="right")) - 1
            start = int(self._offsets[part])
            stop = int(self._offsets[part + 1])
            take = min(col1, stop) - cursor
            mm = np.load(
                os.path.join(self.root, f"part-{part:05d}.npy"), mmap_mode="r"
            )
            out[:, cursor - col0 : cursor - col0 + take] = mm[
                :, cursor - start : cursor - start + take
            ]
            cursor += take
        return out


# ---------------------------------------------------------------------------
# Campaign checkpointing
# ---------------------------------------------------------------------------


def _merge_ranges(ranges: Sequence[Sequence[int]]) -> List[List[int]]:
    """Sorted, coalesced ``[c0, c1)`` ranges."""
    merged: List[List[int]] = []
    for c0, c1 in sorted((int(a), int(b)) for a, b in ranges):
        if merged and c0 <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], c1)
        else:
            merged.append([c0, c1])
    return merged


class CampaignState:
    """The JSON checkpoint of one out-of-core campaign.

    Records the campaign identity (key + source fingerprint + pinned
    chunk geometry) and the completed column ranges; every update is an
    atomic file replace, so the checkpoint on disk is always a
    consistent prefix of the campaign's true progress.  A chunk whose
    data write landed but whose checkpoint update did not is simply
    re-solved on resume — chunks are independent and deterministic, so
    the rewrite is byte-identical and resume stays bitwise exact.
    """

    def __init__(
        self,
        path,
        campaign_id: str,
        n: int,
        total_cols: int,
        chunk_cols: int,
        dtype: str,
        completed: Optional[Sequence[Sequence[int]]] = None,
    ) -> None:
        self.path = os.fspath(path)
        self.campaign_id = str(campaign_id)
        self.n = int(n)
        self.total_cols = int(total_cols)
        self.chunk_cols = int(chunk_cols)
        self.dtype = str(dtype)
        self.completed: List[List[int]] = _merge_ranges(completed or [])

    # -- persistence -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "campaign_id": self.campaign_id,
            "n": self.n,
            "total_cols": self.total_cols,
            "chunk_cols": self.chunk_cols,
            "dtype": self.dtype,
            "completed": self.completed,
        }

    def save(self) -> None:
        atomic_write_bytes(
            self.path, _canonical_json(self.to_dict()).encode("utf-8")
        )

    @classmethod
    def load(cls, path) -> "CampaignState":
        path = os.fspath(path)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DurableStoreError(
                f"unreadable campaign checkpoint {path}: {exc}"
            ) from exc
        if data.get("format_version") != FORMAT_VERSION:
            raise DurableStoreError(
                f"stale campaign checkpoint format "
                f"{data.get('format_version')} (expected {FORMAT_VERSION})"
            )
        try:
            return cls(
                path,
                campaign_id=data["campaign_id"],
                n=data["n"],
                total_cols=data["total_cols"],
                chunk_cols=data["chunk_cols"],
                dtype=data["dtype"],
                completed=data.get("completed", []),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DurableStoreError(
                f"malformed campaign checkpoint {path}: {exc}"
            ) from exc

    # -- progress ----------------------------------------------------------

    def chunks(self) -> Iterator[Tuple[int, int]]:
        """Every ``[c0, c1)`` chunk of the pinned geometry, in order."""
        for c0 in range(0, self.total_cols, self.chunk_cols):
            yield c0, min(c0 + self.chunk_cols, self.total_cols)

    def is_done(self, c0: int, c1: int) -> bool:
        return any(a <= c0 and c1 <= b for a, b in self.completed)

    def mark_done(self, c0: int, c1: int) -> None:
        self.completed = _merge_ranges(self.completed + [[c0, c1]])

    @property
    def done_cols(self) -> int:
        return sum(c1 - c0 for c0, c1 in self.completed)

    @property
    def finished(self) -> bool:
        return self.done_cols >= self.total_cols

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CampaignState(id={self.campaign_id[:8]}, "
            f"{self.done_cols}/{self.total_cols} cols, "
            f"chunk={self.chunk_cols})"
        )


def _campaign_id(key, source: StreamingRHS, chunk_cols: int) -> str:
    digest = hashlib.blake2b(digest_size=16)
    digest.update(_canonical_json(_key_to_dict(key)).encode())
    digest.update(source.fingerprint().encode())
    digest.update(str(int(chunk_cols)).encode())
    return digest.hexdigest()


def derive_chunk_cols(
    n: int, itemsize: int, memory_budget: int, copies: int = _WINDOW_COPIES
) -> int:
    """Window width (columns) that keeps *copies* windows under *budget*."""
    if memory_budget < 1:
        raise ValueError(f"memory_budget must be >= 1 byte, got {memory_budget}")
    per_col = max(1, int(n) * int(itemsize) * int(copies))
    return max(1, int(memory_budget) // per_col)


def run_campaign(
    engine,
    spec,
    source: StreamingRHS,
    out_path,
    *,
    version: int = 2,
    dtype=np.float64,
    backend: str = "vectorized",
    chunk_cols: Optional[int] = None,
    memory_budget: Optional[int] = None,
    state_path=None,
    resume: bool = True,
) -> np.ndarray:
    """Stream *source* through *engine* into a memory-mapped ``.npy`` result.

    The source is solved in ``chunk_cols``-column windows (derived from
    *memory_budget* when given: :func:`derive_chunk_cols` budgets for the
    read copy, the engine's work copy, the shm lease and the result);
    each solved window is written to *out_path* and its range recorded in
    the :class:`CampaignState` at *state_path*.  Killed mid-campaign, a
    re-invocation with the same arguments resumes after the last
    checkpointed chunk and produces a result bitwise identical to an
    uninterrupted run — the chunk geometry is pinned in the checkpoint
    and every chunk is solved independently.

    Returns the ``(n, total_cols)`` result as a read-write memmap.
    """
    n, total = source.shape
    if total < 1:
        raise ValueError("cannot run a campaign over an empty source")
    work_dtype = np.dtype(dtype)
    if chunk_cols is None:
        if memory_budget is not None:
            chunk_cols = derive_chunk_cols(n, work_dtype.itemsize, memory_budget)
        else:
            chunk_cols = _DEFAULT_CHUNK_COLS
    chunk_cols = max(1, min(int(chunk_cols), total))

    from repro.runtime.plan_cache import PlanKey

    key = PlanKey.from_spec(
        spec, version=version, dtype=work_dtype, backend=backend
    )
    campaign_id = _campaign_id(key, source, chunk_cols)

    out_path = os.fspath(out_path)
    state_path = (
        os.fspath(state_path)
        if state_path is not None
        else out_path + ".campaign.json"
    )

    telemetry = getattr(engine, "telemetry", None)
    faults = getattr(engine, "_faults", None)

    state: Optional[CampaignState] = None
    if resume and os.path.exists(state_path):
        state = CampaignState.load(state_path)
        if state.campaign_id != campaign_id:
            raise DurableStoreError(
                "campaign checkpoint belongs to a different campaign "
                f"(id {state.campaign_id[:8]}, expected {campaign_id[:8]}); "
                "pass resume=False or remove the checkpoint to start over"
            )
        if not os.path.exists(out_path):
            # The data a checkpoint vouches for is gone; restart cleanly.
            state = None
            if telemetry is not None:
                telemetry.event("campaign", action="restart_missing_output")
    if state is not None:
        chunk_cols = state.chunk_cols  # the pinned geometry wins
        if telemetry is not None:
            telemetry.incr("campaign.resumes")
    else:
        state = CampaignState(
            state_path,
            campaign_id=campaign_id,
            n=n,
            total_cols=total,
            chunk_cols=chunk_cols,
            dtype=work_dtype.name,
        )
        state.save()

    if os.path.exists(out_path) and state.done_cols:
        out = np.lib.format.open_memmap(out_path, mode="r+")
        if out.shape != (n, total) or out.dtype != work_dtype:
            raise DurableStoreError(
                f"existing campaign output {out_path} has shape {out.shape} "
                f"dtype {out.dtype}; the campaign needs ({n}, {total}) "
                f"{work_dtype}"
            )
    else:
        out = np.lib.format.open_memmap(
            out_path, mode="w+", dtype=work_dtype, shape=(n, total)
        )

    for c0, c1 in state.chunks():
        if state.is_done(c0, c1):
            if telemetry is not None:
                telemetry.incr("campaign.chunks_skipped")
            continue
        if faults is not None:
            faults.fire("campaign.chunk", cols=(c0, c1))
        window = np.array(
            source.read(c0, c1), dtype=work_dtype, copy=True, order="C"
        )
        if telemetry is not None:
            telemetry.observe("campaign.window_bytes", window.nbytes)
        solved = engine.map_batches(
            spec, [window], version=version, dtype=work_dtype, backend=backend
        )[0]
        out[:, c0:c1] = solved
        out.flush()
        state.mark_done(c0, c1)
        state.save()
        if telemetry is not None:
            telemetry.incr("campaign.chunks_completed")
            telemetry.observe("campaign.completed_cols", c1 - c0)
    return out
