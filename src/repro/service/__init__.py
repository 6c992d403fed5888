"""repro.service — serve spline solves over the network.

Layer on top of the runtime engine: a compact binary wire protocol
(:mod:`~repro.service.protocol`), an asyncio TCP server that admits each
request through per-tenant quotas and hands it straight to the engine
(:mod:`~repro.service.server`, :mod:`~repro.service.admission`), and a
client with hedged sends and throttle retries
(:mod:`~repro.service.client`) whose futures asyncio callers await
through ``asyncio.wrap_future``.

Quick start::

    from repro.runtime.engine import SolveEngine
    from repro.service import ServiceThread, ServiceClient

    engine = SolveEngine()
    with ServiceThread(engine, own_engine=True) as hosted:
        with ServiceClient(hosted.host, hosted.port) as client:
            coeffs = client.solve(spec, rhs, tenant="alice")
"""

from repro.service.admission import (
    AdmissionController,
    QuotaExceededError,
    TenantQuota,
    ThrottledError,
    TokenBucket,
)
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import ErrorInfo, FrameType, ProtocolError, Request
from repro.service.server import ServiceConfig, ServiceThread, SolveService, serve

__all__ = [
    "AdmissionController",
    "QuotaExceededError",
    "TenantQuota",
    "ThrottledError",
    "TokenBucket",
    "ServiceClient",
    "ServiceError",
    "ErrorInfo",
    "FrameType",
    "ProtocolError",
    "Request",
    "ServiceConfig",
    "ServiceThread",
    "SolveService",
    "serve",
]
