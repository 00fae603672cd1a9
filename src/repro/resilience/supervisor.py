"""The bounds of the shard coordinator's supervision ladder.

:class:`~repro.shard.coordinator.ShardedQueryService` re-dispatches a
fragment whose shard worker died or hung, respawning the worker, and
quarantines the shard to in-process execution once one query has spent its
re-dispatch budget on it.  :class:`SupervisionPolicy` holds the deadlines
and the budget of that ladder; the ladder itself lives in the coordinator.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SupervisionPolicy:
    """Bounds and cadence of shard supervision.

    Attributes:
        fragment_timeout_seconds: wall-clock deadline for one fragment (or
            one fragment LOAD); a shard still silent past it is declared
            hung, respawned, and the fragment re-dispatched.
        heartbeat_seconds: heartbeat cadence; a ``PING`` unanswered for ten
            heartbeats counts as a hang.
        max_redispatches: re-dispatches one query tolerates on one shard
            before the shard is quarantined to in-process execution.
    """

    fragment_timeout_seconds: float = 30.0
    heartbeat_seconds: float = 0.5
    max_redispatches: int = 3

    def __post_init__(self) -> None:
        if self.fragment_timeout_seconds <= 0:
            raise ValueError(
                f"fragment_timeout_seconds must be positive, "
                f"got {self.fragment_timeout_seconds}"
            )
        if self.heartbeat_seconds <= 0:
            raise ValueError(
                f"heartbeat_seconds must be positive, got {self.heartbeat_seconds}"
            )
        if self.max_redispatches < 0:
            raise ValueError(
                f"max_redispatches must be >= 0, got {self.max_redispatches}"
            )


__all__ = ["SupervisionPolicy"]
