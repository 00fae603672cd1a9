"""Sessions: per-client lifecycle and configuration overrides.

A :class:`Session` is one client's handle on the
:class:`~repro.service.service.QueryService`: it carries that client's
configuration overrides (execution mode, memory ask, cache opt-outs,
admission timeout), submits queries and writes, and must be closed --
every operation on a closed session raises
:class:`~repro.model.errors.SessionClosedError`.  Sessions are cheap; the
service caps how many may be open at once.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

from repro.algebra.predicates import resolve_predicate
from repro.exec import ALL_EXECUTION_MODES
from repro.model.errors import ServiceError, SessionClosedError
from repro.model.vtuple import VTTuple

#: Rows a write accepts: prepared VTTuples or ``(attrs..., vs, ve)`` rows.
Rows = Union[Iterable[VTTuple], Iterable[Tuple]]

#: Join methods a session, or one submitted join, may name.
JOIN_METHODS = ("auto", "partition", "sweep", "sort_merge", "nested_loop")


@dataclass(frozen=True)
class SessionConfig:
    """Per-session overrides of the service defaults (None = inherit).

    Attributes:
        memory_pages: buffer-page ask per query (the admission request is
            still capped by the planner's grant estimate).
        execution: partition-join execution mode override.
        method: default join method for this session (``"auto"``,
            ``"partition"``, ``"sweep"``, ``"sort_merge"``,
            ``"nested_loop"``).
        predicate: Allen-algebra join predicate
            (:func:`repro.algebra.predicates.predicate_names`; None = the
            natural join's ``"intersects"``).  Any other predicate is
            evaluated by the forward-scan sweep, so it requires ``method``
            ``"auto"`` or ``"sweep"``.
        use_plan_cache: serve/populate the shared plan cache.
        use_result_cache: serve/populate the shared result cache.
        admission_timeout: seconds this session's queries may queue.
        deadline_seconds: whole-query deadline budget -- admission wait
            *plus* execution, measured from submission.  A query past its
            deadline raises
            :class:`~repro.model.errors.QueryDeadlineError` at its next
            deadline check (admission waits are capped to the remaining
            budget).  None disables the budget.
        label: diagnostic name (metrics and grant labels).
    """

    memory_pages: Optional[int] = None
    execution: Optional[str] = None
    method: str = "auto"
    predicate: Optional[str] = None
    use_plan_cache: bool = True
    use_result_cache: bool = True
    admission_timeout: Optional[float] = None
    deadline_seconds: Optional[float] = None
    label: str = ""


def resolve_session_config(
    config: Optional[SessionConfig], overrides: Dict
) -> SessionConfig:
    """*config* (or the defaults) with keyword *overrides* applied, validated.

    What both services' ``open_session`` accept; raises
    :class:`~repro.model.errors.ServiceError` on a value neither can serve.
    """
    if config is None:
        config = SessionConfig(**overrides)
    elif overrides:
        config = dataclasses.replace(config, **overrides)
    if config.execution is not None and config.execution not in ALL_EXECUTION_MODES:
        raise ServiceError(
            f"execution must be one of {ALL_EXECUTION_MODES}, "
            f"got {config.execution!r}"
        )
    if config.method not in JOIN_METHODS:
        raise ServiceError(
            f"method must be one of {JOIN_METHODS}, got {config.method!r}"
        )
    if config.predicate is not None:
        try:
            resolve_predicate(config.predicate)
        except ValueError as error:
            raise ServiceError(str(error)) from None
    if config.memory_pages is not None and config.memory_pages < 4:
        raise ServiceError(f"memory_pages must be >= 4, got {config.memory_pages}")
    if config.deadline_seconds is not None and config.deadline_seconds <= 0:
        raise ServiceError(
            f"deadline_seconds must be positive (or None), "
            f"got {config.deadline_seconds}"
        )
    return config


class Session:
    """One client's connection to the query service."""

    def __init__(self, service, session_id: int, config: SessionConfig) -> None:
        self._service = service
        self.session_id = session_id
        self.config = config
        self._lock = threading.Lock()
        self._closed = False
        self.queries_submitted = 0

    # -- lifecycle -----------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the session (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._service._session_closed(self)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise SessionClosedError(
                f"session {self.session_id} ({self.config.label or 'unlabeled'}) "
                f"is closed"
            )

    # -- queries -------------------------------------------------------------

    def submit_join(
        self,
        outer: str,
        inner: str,
        *,
        method: Optional[str] = None,
        timeout: Optional[float] = None,
    ):
        """Queue a join; returns its :class:`~repro.service.executor.QueryHandle`."""
        self._check_open()
        with self._lock:
            self.queries_submitted += 1
        return self._service._submit_join(
            self, outer, inner, method=method, timeout=timeout
        )

    def join(
        self,
        outer: str,
        inner: str,
        *,
        method: Optional[str] = None,
        timeout: Optional[float] = None,
        result_timeout: Optional[float] = 300.0,
    ):
        """Run a join synchronously; returns a
        :class:`~repro.service.service.ServiceQueryResult`."""
        return self.submit_join(outer, inner, method=method, timeout=timeout).result(
            result_timeout
        )

    # -- writes --------------------------------------------------------------

    def append(self, name: str, rows: Rows) -> int:
        """Append rows to a relation; returns the new catalog epoch."""
        self._check_open()
        return self._service._append(self, name, rows)

    def delete(self, name: str, rows: Rows) -> int:
        """Delete rows from a relation; returns the new catalog epoch."""
        self._check_open()
        return self._service._delete(self, name, rows)

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"Session(id={self.session_id}, {state}, label={self.config.label!r})"


def coerce_rows(schema, rows: Rows) -> Sequence[VTTuple]:
    """Accept VTTuples as-is; convert ``(attrs..., vs, ve)`` rows via schema."""
    from repro.model.relation import ValidTimeRelation

    materialized = list(rows)
    if all(isinstance(row, VTTuple) for row in materialized):
        return materialized
    return list(ValidTimeRelation.from_rows(schema, materialized))
