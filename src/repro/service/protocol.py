"""The wire protocol of the solve service — compact length-prefixed frames.

Every message on a service connection is one **frame**:

.. code-block:: text

    0      4      5      6      8          12
    +------+------+------+------+----------+=================+
    | MAGC | ver  | type | flags| payload  |  payload bytes  |
    | 4 B  | u8   | u8   | u16  | len u32  |  (len bytes)    |
    +------+------+------+------+----------+=================+

The 12-byte header is ``!4sBBHI`` big-endian: the magic ``b"RSPL"``, the
protocol :data:`VERSION`, a frame type from :class:`FrameType`, reserved
flags, and the payload length.  A reader that sees a wrong magic or an
unknown version fails the connection immediately with
:class:`ProtocolError` — no resynchronization is attempted, a framing bug
must be loud.

Payloads carrying arrays (:data:`FrameType.REQUEST` /
:data:`FrameType.RESULT`) are a 4-byte JSON-metadata length, the UTF-8
JSON metadata, then the **raw C-order array bytes** exactly as NumPy
holds them (``dtype.str`` in the metadata preserves byte order).  Raw
bytes — not a textual encoding — are what make the service's end-to-end
bitwise-parity guarantee possible: the engine solves the very same IEEE
values the client held.  Control payloads (:data:`FrameType.ERROR`,
:data:`FrameType.CANCEL`, telemetry) are plain JSON.

Request metadata carries the full :class:`~repro.runtime.plan_cache.PlanKey`
spec — the frozen :class:`~repro.core.spec.BSplineSpec` fields plus
version / dtype / backend — and the multi-tenant envelope: tenant id,
priority class, per-request deadline (relative seconds), and the
client-chosen request id responses are matched on, which is what lets
responses return out of order (and hedged duplicates be told apart).
"""

from __future__ import annotations

import asyncio
import json
import math
import socket
import struct
from dataclasses import asdict, dataclass
from enum import IntEnum
from typing import Optional, Tuple

import numpy as np

from repro.core.spec import BSplineSpec
from repro.exceptions import ReproError

__all__ = [
    "MAGIC",
    "VERSION",
    "MAX_PAYLOAD",
    "FrameType",
    "ProtocolError",
    "Request",
    "Result",
    "ErrorInfo",
    "encode_frame",
    "decode_header",
    "HEADER",
    "HEADER_SIZE",
    "encode_request",
    "decode_request",
    "encode_result",
    "decode_result",
    "encode_error",
    "decode_error",
    "encode_cancel",
    "decode_cancel",
    "encode_telemetry",
    "decode_telemetry",
    "spec_to_dict",
    "spec_from_dict",
    "read_frame",
    "write_frame",
    "read_frame_async",
]

#: the four magic bytes opening every frame
MAGIC = b"RSPL"

#: protocol version; bumped on any incompatible framing change
VERSION = 1

#: absolute ceiling on payload size (a corrupt length prefix must not
#: OOM us); servers typically enforce a much smaller per-connection cap
#: via the ``max_payload`` argument of the frame readers — the declared
#: length is checked against it *before* any payload byte is read, so an
#: over-cap (or over-quota) client cannot force large allocations
MAX_PAYLOAD = 1 << 30

#: header: magic, version, frame type, flags, payload length
HEADER = struct.Struct("!4sBBHI")
HEADER_SIZE = HEADER.size


class FrameType(IntEnum):
    """What a frame's payload means."""

    REQUEST = 1  #: (spec, RHS, tenant, priority, deadline) solve request
    RESULT = 2  #: solved coefficients for one request id
    ERROR = 3  #: structured failure for one request id (or the connection)
    CANCEL = 4  #: drop a queued/hedged request id, no response owed
    TELEMETRY_REQ = 5  #: ask the server for its telemetry snapshot
    TELEMETRY = 6  #: the snapshot, as JSON
    PING = 7  #: liveness probe
    PONG = 8  #: liveness answer


class ProtocolError(ReproError, RuntimeError):
    """Malformed framing: bad magic, unknown version, truncated frame."""


# -- spec (de)serialization --------------------------------------------------

_SPEC_FIELDS = (
    "degree",
    "n_points",
    "uniform",
    "xmin",
    "xmax",
    "boundary",
    "nonuniform_kind",
    "nonuniform_strength",
    "seed",
)


def spec_to_dict(spec: BSplineSpec) -> dict:
    """A :class:`BSplineSpec` as a JSON-safe dict (all fields, explicit)."""
    return {name: getattr(spec, name) for name in _SPEC_FIELDS}


def spec_from_dict(data: dict) -> BSplineSpec:
    """Rebuild a :class:`BSplineSpec`; unknown keys are a protocol error."""
    unknown = set(data) - set(_SPEC_FIELDS)
    if unknown:
        raise ProtocolError(f"unknown BSplineSpec fields {sorted(unknown)}")
    try:
        return BSplineSpec(**data)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid BSplineSpec: {exc}") from exc


# -- message dataclasses -----------------------------------------------------


@dataclass
class Request:
    """One decoded solve request (the server-side view)."""

    id: int
    spec: BSplineSpec
    rhs: np.ndarray
    version: int = 2
    dtype: str = "float64"
    backend: str = "vectorized"
    tenant: str = "anonymous"
    priority: str = "normal"
    deadline: Optional[float] = None  #: relative seconds, not a wall time

    @property
    def cols(self) -> int:
        return 1 if self.rhs.ndim == 1 else int(self.rhs.shape[1])


@dataclass
class Result:
    """One decoded solve result (the client-side view)."""

    id: int
    coeffs: np.ndarray


@dataclass
class ErrorInfo:
    """One decoded error frame.

    ``code`` is a stable machine-readable string (``THROTTLED``,
    ``BACKPRESSURE``, ``TIMEOUT``, ``SHUTDOWN``, ``CIRCUIT_OPEN``,
    ``VERIFY_FAILED``, ``BAD_REQUEST``, ``INTERNAL``); ``error`` the
    server-side exception type name; ``retry_after`` a hint in seconds
    for ``THROTTLED`` rejections.  ``id`` is ``None`` for connection-level
    failures (e.g. an undecodable frame).
    """

    code: str
    message: str
    id: Optional[int] = None
    error: str = ""
    retry_after: Optional[float] = None
    tenant: Optional[str] = None


# -- frame encode / decode ---------------------------------------------------


def encode_frame(ftype: int, payload: bytes, flags: int = 0) -> bytes:
    """One complete frame: header + payload."""
    if len(payload) > MAX_PAYLOAD:
        raise ProtocolError(
            f"payload of {len(payload)} bytes exceeds MAX_PAYLOAD={MAX_PAYLOAD}"
        )
    return HEADER.pack(MAGIC, VERSION, int(ftype), flags, len(payload)) + payload


def decode_header(
    header: bytes, max_payload: int = MAX_PAYLOAD
) -> Tuple[int, int, int]:
    """Validate a 12-byte header; return ``(frame_type, flags, length)``.

    *max_payload* lets a reader enforce a cap tighter than the absolute
    :data:`MAX_PAYLOAD` ceiling; an over-cap declared length fails here,
    before any payload byte is read or buffered.
    """
    if len(header) != HEADER_SIZE:
        raise ProtocolError(
            f"short frame header: {len(header)} of {HEADER_SIZE} bytes"
        )
    magic, version, ftype, flags, length = HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r} (expected {MAGIC!r})")
    if version != VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version} (speaking {VERSION})"
        )
    if length > min(max_payload, MAX_PAYLOAD):
        raise ProtocolError(
            f"declared payload of {length} bytes exceeds the "
            f"{min(max_payload, MAX_PAYLOAD)}-byte payload cap"
        )
    return ftype, flags, length


def _pack_meta_and_array(meta: dict, array: np.ndarray) -> bytes:
    body = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    raw = np.ascontiguousarray(array)
    return struct.pack("!I", len(body)) + body + raw.tobytes(order="C")


def _unpack_meta_and_array(payload: bytes) -> Tuple[dict, np.ndarray]:
    if len(payload) < 4:
        raise ProtocolError("array payload shorter than its metadata prefix")
    (meta_len,) = struct.unpack_from("!I", payload)
    if 4 + meta_len > len(payload):
        raise ProtocolError("metadata length prefix exceeds payload")
    try:
        meta = json.loads(payload[4 : 4 + meta_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame metadata: {exc}") from exc
    try:
        dtype = np.dtype(meta["array_dtype"])
        shape = tuple(int(s) for s in meta["array_shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad array metadata: {exc}") from exc
    if any(s < 0 for s in shape):
        raise ProtocolError(f"negative extent in declared shape {shape}")
    # Pure-Python ints: a huge declared shape must fail loudly here, not
    # wrap to a spuriously-passing expected byte count.
    count = math.prod(shape)
    if count > MAX_PAYLOAD:
        raise ProtocolError(
            f"declared shape {shape} ({count} elements) exceeds any "
            f"payload the protocol admits"
        )
    expected = dtype.itemsize * count
    raw = payload[4 + meta_len :]
    if len(raw) != expected:
        raise ProtocolError(
            f"array byte count {len(raw)} does not match declared "
            f"shape {shape} / dtype {dtype} ({expected} bytes)"
        )
    array = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    return meta, array


def encode_request(req: Request) -> bytes:
    """A :class:`Request` as one REQUEST frame."""
    meta = {
        "id": int(req.id),
        "spec": spec_to_dict(req.spec),
        "version": int(req.version),
        "dtype": str(req.dtype),
        "backend": str(req.backend),
        "tenant": str(req.tenant),
        "priority": str(req.priority),
        "deadline": req.deadline,
        "array_shape": list(req.rhs.shape),
        "array_dtype": req.rhs.dtype.str,  # byte order included: bitwise
    }
    return encode_frame(FrameType.REQUEST, _pack_meta_and_array(meta, req.rhs))


def decode_request(payload: bytes) -> Request:
    meta, rhs = _unpack_meta_and_array(payload)
    try:
        return Request(
            id=int(meta["id"]),
            spec=spec_from_dict(meta["spec"]),
            rhs=rhs,
            version=int(meta.get("version", 2)),
            dtype=str(meta.get("dtype", "float64")),
            backend=str(meta.get("backend", "vectorized")),
            tenant=str(meta.get("tenant", "anonymous")),
            priority=str(meta.get("priority", "normal")),
            deadline=meta.get("deadline"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad request metadata: {exc}") from exc


def encode_result(request_id: int, coeffs: np.ndarray) -> bytes:
    meta = {
        "id": int(request_id),
        "array_shape": list(coeffs.shape),
        "array_dtype": coeffs.dtype.str,
    }
    return encode_frame(FrameType.RESULT, _pack_meta_and_array(meta, coeffs))


def decode_result(payload: bytes) -> Result:
    meta, coeffs = _unpack_meta_and_array(payload)
    try:
        return Result(id=int(meta["id"]), coeffs=coeffs)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad result metadata: {exc}") from exc


def encode_error(info: ErrorInfo) -> bytes:
    payload = json.dumps(
        {k: v for k, v in asdict(info).items() if v is not None},
        separators=(",", ":"),
    ).encode("utf-8")
    return encode_frame(FrameType.ERROR, payload)


def decode_error(payload: bytes) -> ErrorInfo:
    try:
        data = json.loads(payload.decode("utf-8"))
        return ErrorInfo(
            code=str(data["code"]),
            message=str(data.get("message", "")),
            id=data.get("id"),
            error=str(data.get("error", "")),
            retry_after=data.get("retry_after"),
            tenant=data.get("tenant"),
        )
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ProtocolError(f"undecodable error frame: {exc}") from exc


def encode_cancel(request_id: int) -> bytes:
    return encode_frame(
        FrameType.CANCEL,
        json.dumps({"id": int(request_id)}, separators=(",", ":")).encode(),
    )


def decode_cancel(payload: bytes) -> int:
    try:
        return int(json.loads(payload.decode("utf-8"))["id"])
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ProtocolError(f"undecodable cancel frame: {exc}") from exc


def encode_telemetry(snapshot: dict) -> bytes:
    # allow_nan: telemetry quantiles are NaN before any sample; both ends
    # of this protocol are Python's json module, which round-trips them.
    return encode_frame(
        FrameType.TELEMETRY, json.dumps(snapshot, default=str).encode("utf-8")
    )


def decode_telemetry(payload: bytes) -> dict:
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable telemetry frame: {exc}") from exc


# -- blocking socket I/O (sync client, tests) --------------------------------


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    """Read exactly *count* bytes or raise on EOF mid-frame."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError(
                f"connection closed mid-frame ({count - remaining} of "
                f"{count} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(
    sock: socket.socket, max_payload: int = MAX_PAYLOAD
) -> Tuple[int, int, bytes]:
    """Read one frame from a blocking socket: ``(type, flags, payload)``.

    Raises :class:`ConnectionError` on clean EOF *before* a header (the
    peer closed between frames) with an empty message marker, and on EOF
    mid-frame with a diagnostic.  A declared length beyond *max_payload*
    raises :class:`ProtocolError` before any payload byte is read.
    """
    try:
        header = _recv_exactly(sock, HEADER_SIZE)
    except ConnectionError as exc:
        if "0 of" in str(exc):
            raise ConnectionError("connection closed") from None
        raise
    ftype, flags, length = decode_header(header, max_payload)
    payload = _recv_exactly(sock, length) if length else b""
    return ftype, flags, payload


def write_frame(sock: socket.socket, frame: bytes) -> None:
    sock.sendall(frame)


# -- asyncio stream I/O (server, async client) -------------------------------


async def read_frame_async(
    reader: "asyncio.StreamReader", max_payload: int = MAX_PAYLOAD
) -> Tuple[int, int, bytes]:
    """Read one frame from an asyncio stream: ``(type, flags, payload)``.

    Raises :class:`asyncio.IncompleteReadError` on EOF (empty partial
    means the peer closed cleanly between frames) and
    :class:`ProtocolError` — before buffering any payload byte — when
    the declared length exceeds *max_payload*.
    """
    header = await reader.readexactly(HEADER_SIZE)
    ftype, flags, length = decode_header(header, max_payload)
    payload = await reader.readexactly(length) if length else b""
    return ftype, flags, payload
