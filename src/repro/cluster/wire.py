"""Cluster shard transport frames — the service framing, new frame types.

The cluster speaks the exact length-prefixed framing of
:mod:`repro.service.protocol` (magic, version, type, flags, length) with
its own frame-type codes in the ``>= 32`` range, so a service endpoint
and a cluster endpoint can never mistake each other's frames for their
own.  Shard payloads reuse the protocol's array-payload convention —
JSON metadata plus the **raw C-order array bytes** — so right-hand sides
and solved coefficients cross the wire bitwise, never pickled:

========== ===============================================================
 frame      meaning
========== ===============================================================
 REGISTER   worker → coordinator, first frame on a connection
 WELCOME    coordinator → worker: assigned id, lease clock, fault plan,
            durable plan-store directory (warm-start ships to the node)
 HEARTBEAT  worker → coordinator lease renewal
 SHARD      coordinator → worker: one column shard (task id, plan key,
            raw RHS bytes)
 SHARD_OK   worker → coordinator: the solved shard (task id, raw bytes)
 SHARD_ERR  worker → coordinator: structured shard failure
 SNAP_REQ   coordinator → worker: telemetry snapshot request
 SNAPSHOT   worker → coordinator: the snapshot (also the STOP farewell)
 STOP       coordinator → worker: drain and exit; carries a *reason*
            (``shutdown`` / ``retire`` / ``lost``) — a worker stopped as
            ``lost`` may re-dial and re-REGISTER instead of exiting
========== ===============================================================

The :class:`~repro.runtime.plan_cache.PlanKey` travels as JSON through
:func:`key_to_dict` / :func:`key_from_dict` — the spec's frozen fields
via the service's ``spec_to_dict`` plus the version / dtype / chunk /
drop-tolerance / backend coordinates, so a remote worker factorizes (or
warm-loads) exactly the plan the coordinator asked for.
"""

from __future__ import annotations

import json
from enum import IntEnum
from typing import Tuple

import numpy as np

from repro.runtime.plan_cache import PlanKey
from repro.service.protocol import (
    ProtocolError,
    encode_frame,
    pack_meta_and_array,
    spec_from_dict,
    spec_to_dict,
    unpack_meta_and_array,
)

__all__ = [
    "ClusterFrame",
    "key_to_dict",
    "key_from_dict",
    "encode_register",
    "encode_welcome",
    "encode_heartbeat",
    "decode_heartbeat",
    "encode_shard",
    "decode_shard",
    "encode_shard_ok",
    "decode_shard_ok",
    "encode_shard_err",
    "decode_shard_err",
    "encode_snapshot_req",
    "encode_snapshot",
    "decode_snapshot",
    "encode_stop",
    "decode_stop",
    "decode_json",
]


class ClusterFrame(IntEnum):
    """Cluster frame-type codes (disjoint from the service's 1–8)."""

    REGISTER = 32
    WELCOME = 33
    HEARTBEAT = 34
    SHARD = 35
    SHARD_OK = 36
    SHARD_ERR = 37
    SNAP_REQ = 38
    SNAPSHOT = 39
    STOP = 40


# -- plan keys over the wire -------------------------------------------------


def key_to_dict(key: PlanKey) -> dict:
    """A :class:`PlanKey` as a JSON-safe dict (every coordinate explicit)."""
    return {
        "spec": spec_to_dict(key.spec),
        "version": int(key.version),
        "dtype": str(key.dtype),
        "chunk": int(key.chunk),
        "drop_tol": float(key.drop_tol),
        "backend": str(key.backend),
    }


def key_from_dict(data: dict) -> PlanKey:
    """Rebuild a :class:`PlanKey`; malformed input is a protocol error."""
    try:
        return PlanKey(
            spec=spec_from_dict(data["spec"]),
            version=int(data["version"]),
            dtype=str(data["dtype"]),
            chunk=int(data["chunk"]),
            drop_tol=float(data["drop_tol"]),
            backend=str(data["backend"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad plan key metadata: {exc}") from exc


# -- JSON control frames -----------------------------------------------------


def _encode_json(ftype: int, data: dict) -> bytes:
    return encode_frame(
        ftype, json.dumps(data, default=str).encode("utf-8")
    )


def decode_json(payload: bytes) -> dict:
    """Any cluster control frame's JSON payload as a dict."""
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable cluster frame: {exc}") from exc


def encode_register(pid: int, tag: str = "") -> bytes:
    """A worker's opening frame: who is connecting."""
    return _encode_json(ClusterFrame.REGISTER, {"pid": int(pid), "tag": tag})


def encode_welcome(
    worker_id: int,
    heartbeat_interval: float,
    lease_timeout: float,
    fault_json=None,
    plan_store_dir=None,
) -> bytes:
    """The coordinator's reply: identity plus everything the node needs."""
    return _encode_json(
        ClusterFrame.WELCOME,
        {
            "worker": int(worker_id),
            "heartbeat_interval": float(heartbeat_interval),
            "lease_timeout": float(lease_timeout),
            "faults": fault_json,
            "plan_store_dir": plan_store_dir,
        },
    )


def encode_heartbeat(worker_id: int, seq: int) -> bytes:
    return _encode_json(
        ClusterFrame.HEARTBEAT, {"worker": int(worker_id), "seq": int(seq)}
    )


def decode_heartbeat(payload: bytes) -> Tuple[int, int]:
    data = decode_json(payload)
    try:
        return int(data["worker"]), int(data["seq"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad heartbeat frame: {exc}") from exc


def encode_snapshot_req(req_id: int) -> bytes:
    return _encode_json(ClusterFrame.SNAP_REQ, {"req": int(req_id)})


def encode_snapshot(req_id: int, snapshot: dict) -> bytes:
    return _encode_json(
        ClusterFrame.SNAPSHOT, {"req": int(req_id), "snapshot": snapshot}
    )


def decode_snapshot(payload: bytes) -> Tuple[int, dict]:
    data = decode_json(payload)
    try:
        return int(data["req"]), dict(data["snapshot"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad snapshot frame: {exc}") from exc


#: STOP reasons a worker may receive; ``lost`` invites a re-dial +
#: re-REGISTER (the lease lapsed but the process may be healthy), the
#: other two are terminal
STOP_REASONS = ("shutdown", "retire", "lost")


def encode_stop(reason: str = "shutdown") -> bytes:
    if reason not in STOP_REASONS:
        raise ValueError(f"unknown STOP reason {reason!r}")
    return _encode_json(ClusterFrame.STOP, {"reason": reason})


def decode_stop(payload: bytes) -> str:
    """The STOP reason; frames from older coordinators default to
    ``shutdown`` (terminal) so a stale peer can never trap a worker in a
    re-dial loop."""
    reason = decode_json(payload).get("reason", "shutdown")
    return reason if reason in STOP_REASONS else "shutdown"


# -- shard frames (raw array bytes) ------------------------------------------


def encode_shard(
    task_id: int,
    key: PlanKey,
    shard: np.ndarray,
    col0: int,
    col1: int,
) -> bytes:
    """One column shard to a worker: id, plan key, raw C-order RHS bytes."""
    meta = {
        "task": int(task_id),
        "key": key_to_dict(key),
        "col0": int(col0),
        "col1": int(col1),
        "array_shape": list(shard.shape),
        "array_dtype": shard.dtype.str,  # byte order included: bitwise
    }
    return encode_frame(ClusterFrame.SHARD, pack_meta_and_array(meta, shard))


def decode_shard(payload: bytes) -> Tuple[int, PlanKey, np.ndarray, int, int]:
    meta, shard = unpack_meta_and_array(payload)
    try:
        return (
            int(meta["task"]),
            key_from_dict(meta["key"]),
            shard,
            int(meta["col0"]),
            int(meta["col1"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad shard metadata: {exc}") from exc


def encode_shard_ok(task_id: int, solved: np.ndarray) -> bytes:
    """The solved shard riding the acknowledgement back, bitwise."""
    meta = {
        "task": int(task_id),
        "array_shape": list(solved.shape),
        "array_dtype": solved.dtype.str,
    }
    return encode_frame(ClusterFrame.SHARD_OK, pack_meta_and_array(meta, solved))


def decode_shard_ok(payload: bytes) -> Tuple[int, np.ndarray]:
    meta, solved = unpack_meta_and_array(payload)
    try:
        return int(meta["task"]), solved
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad shard ack metadata: {exc}") from exc


def encode_shard_err(task_id: int, exc: BaseException) -> bytes:
    return _encode_json(
        ClusterFrame.SHARD_ERR,
        {
            "task": int(task_id),
            "error": type(exc).__name__,
            "message": str(exc),
        },
    )


def decode_shard_err(payload: bytes) -> Tuple[int, str, str]:
    data = decode_json(payload)
    try:
        return (
            int(data["task"]),
            str(data.get("error", "")),
            str(data.get("message", "")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad shard error frame: {exc}") from exc
