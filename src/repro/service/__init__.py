"""The concurrent query service: sessions, admission, isolation, caching.

The serving layer the ROADMAP's north star asks for: many concurrent
sessions evaluating valid-time joins over one
:class:`~repro.engine.catalog.VersionedCatalog`, sharing one buffer budget
without ever oversubscribing it.  Six cooperating pieces (see
``docs/SERVICE.md``):

* :mod:`repro.service.admission` -- memory-grant admission control over a
  shared (thread-safe) :class:`~repro.storage.buffer.BufferPool`, sized by
  the planner's :func:`~repro.core.planner.estimate_grant_pages`, with
  FIFO / smallest-grant-first policies, degradation under pressure, and
  :class:`~repro.model.errors.AdmissionTimeoutError` on timeout;
* :mod:`repro.service.cache` -- the epoch-keyed plan and result caches;
* :mod:`repro.service.executor` -- a worker-thread executor with a bounded
  run queue, per-query cancellation, and whole-query deadline budgets;
* :mod:`repro.service.session` -- session lifecycle and per-session
  configuration overrides;
* :mod:`repro.service.core` -- :class:`~repro.service.core.ServiceCore`:
  the session lifecycle, writes, query resolution, result cache and status
  metrics this service shares with the sharded one (:mod:`repro.shard`);
* :mod:`repro.service.service` -- :class:`QueryService`, the core plus how
  it evaluates a resolved query (plan cache, admission, evaluation),
  exposing the ``repro_service_*`` metric families.

Snapshot isolation: every query joins against the catalog snapshot it took
at submission; the property suite proves each result bit-identical to a
serial replay at the same snapshot epochs, in each of the four partition
execution modes (``EXECUTION_MODES``; ``forward-sweep`` is the fifth mode).
"""

from repro.model.errors import (
    AdmissionTimeoutError,
    QueryCancelledError,
    QueryDeadlineError,
    ServiceError,
    SessionClosedError,
)
from repro.service.admission import AdmissionController, MemoryGrant
from repro.service.cache import CachedJoin, PlanCache, ResultCache
from repro.service.executor import QueryExecutor, QueryHandle
from repro.service.core import ServiceQueryResult
from repro.service.service import QueryService
from repro.service.session import Session, SessionConfig
from repro.service.workload import (
    demo_workload,
    load_workload,
    run_workload,
)

__all__ = [
    "AdmissionController",
    "AdmissionTimeoutError",
    "CachedJoin",
    "MemoryGrant",
    "PlanCache",
    "QueryCancelledError",
    "QueryDeadlineError",
    "QueryExecutor",
    "QueryHandle",
    "QueryService",
    "ResultCache",
    "ServiceError",
    "ServiceQueryResult",
    "Session",
    "SessionClosedError",
    "SessionConfig",
    "demo_workload",
    "load_workload",
    "run_workload",
]
