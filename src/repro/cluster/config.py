"""Tunables of the multi-host cluster executor.

Kept free of engine imports so :class:`~repro.runtime.engine.EngineConfig`
can validate its ``cluster`` field lazily without an import cycle; the
defaults describe a loopback fleet suitable for tests and the quick
scaling bench, with every timing knob explicit so chaos tests can
compress the lease clock down to fractions of a second.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["ClusterConfig", "ElasticPolicy"]


@dataclass(frozen=True)
class ElasticPolicy:
    """When the elastic controller grows or shrinks the fleet.

    The controller samples the coordinator's backlog — pending shards
    per live worker — every *interval* seconds.  A sustained backlog
    above *high_backlog* adds a worker (up to *max_workers*); a backlog
    below *low_backlog* retires one (down to *min_workers*), draining it
    gracefully so no shard is lost.  *cooldown* seconds must pass
    between scaling actions, so one burst does not thrash the fleet.
    """

    min_workers: int = 1
    max_workers: int = 8
    high_backlog: float = 2.0
    low_backlog: float = 0.25
    interval: float = 0.25
    cooldown: float = 1.0

    def __post_init__(self) -> None:
        if self.min_workers < 1:
            raise ValueError(f"min_workers must be >= 1, got {self.min_workers}")
        if self.max_workers < self.min_workers:
            raise ValueError(
                f"max_workers must be >= min_workers, got "
                f"{self.max_workers} < {self.min_workers}"
            )
        if self.high_backlog <= self.low_backlog:
            raise ValueError(
                f"high_backlog must exceed low_backlog, got "
                f"{self.high_backlog} <= {self.low_backlog}"
            )
        if self.low_backlog < 0:
            raise ValueError(f"low_backlog must be >= 0, got {self.low_backlog}")
        if self.interval <= 0:
            raise ValueError(f"interval must be > 0, got {self.interval}")
        if self.cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {self.cooldown}")


@dataclass(frozen=True)
class ClusterConfig:
    """Tunables of one :class:`~repro.cluster.executor.ClusterExecutor`.

    Attributes
    ----------
    host, port:
        Coordinator bind address.  Port 0 (the default) lets the OS
        choose; the bound port is readable on the running coordinator,
        which is how loopback tests wire worker processes to it.
    heartbeat_interval:
        Seconds between a worker's heartbeats (its lease renewals).
    lease_timeout:
        Seconds without a heartbeat before a worker's lease lapses and
        it is declared lost (its in-flight shards re-issue onto
        survivors).  Must comfortably exceed *heartbeat_interval* —
        one dropped heartbeat must not kill a healthy node.
    shard_attempts:
        Delivery attempts one shard may consume across re-issues before
        its failure is surfaced (mirrors the single-host executor's
        requeue bound).
    max_payload:
        Per-connection payload cap in bytes; a corrupt or hostile
        length prefix fails before any payload byte is read.
    connect_timeout:
        Seconds a worker waits to reach the coordinator (and the
        executor waits for an owned worker's registration).
    drain_timeout:
        Seconds a graceful retirement waits for a worker's in-flight
        shards before closing it anyway.
    elastic:
        An :class:`ElasticPolicy`, or ``None`` for a fixed-size fleet.
    speculative_age:
        Age (seconds) past which an in-flight shard is duplicated onto
        another live worker — first ack wins, the loser's ack drops as
        stale.  ``None`` (the default) turns speculation off.
    rejoin_grace:
        Seconds the executor waits for a lost-but-alive owned worker (a
        healed partition) to re-dial and re-REGISTER under a fresh
        worker id before falling back to respawn/zombie handling.
    """

    host: str = "127.0.0.1"
    port: int = 0
    heartbeat_interval: float = 0.5
    lease_timeout: float = 2.0
    shard_attempts: int = 3
    max_payload: int = 1 << 28
    connect_timeout: float = 10.0
    drain_timeout: float = 5.0
    elastic: Optional[ElasticPolicy] = None
    speculative_age: Optional[float] = None
    rejoin_grace: float = 5.0

    def __post_init__(self) -> None:
        if not self.host:
            raise ValueError("host must be non-empty")
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be in [0, 65535], got {self.port}")
        if self.heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be > 0, got {self.heartbeat_interval}"
            )
        if self.lease_timeout <= self.heartbeat_interval:
            raise ValueError(
                f"lease_timeout ({self.lease_timeout}) must exceed "
                f"heartbeat_interval ({self.heartbeat_interval}); one "
                "late heartbeat must not lose a healthy worker"
            )
        if self.shard_attempts < 1:
            raise ValueError(
                f"shard_attempts must be >= 1, got {self.shard_attempts}"
            )
        if self.max_payload < 4096:
            raise ValueError(
                f"max_payload must be >= 4096, got {self.max_payload}"
            )
        if self.connect_timeout <= 0:
            raise ValueError(
                f"connect_timeout must be > 0, got {self.connect_timeout}"
            )
        if self.drain_timeout <= 0:
            raise ValueError(
                f"drain_timeout must be > 0, got {self.drain_timeout}"
            )
        if self.elastic is not None and not isinstance(
            self.elastic, ElasticPolicy
        ):
            raise TypeError(
                f"elastic must be an ElasticPolicy or None, "
                f"got {type(self.elastic).__name__}"
            )
        if self.speculative_age is not None and self.speculative_age <= 0:
            raise ValueError(
                f"speculative_age must be > 0 or None, "
                f"got {self.speculative_age}"
            )
        if self.rejoin_grace <= 0:
            raise ValueError(
                f"rejoin_grace must be > 0, got {self.rejoin_grace}"
            )
