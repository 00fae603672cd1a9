"""Declarative concurrent workloads for the query service.

A workload is a list of JSON statements (one object per line in a ``.jsonl``
script).  *Setup* statements build the catalog serially; *serve* statements
carry a ``"session"`` number and are replayed concurrently -- one thread per
session, each session's statements in order (so a session sees its own
writes, while cross-session interleaving is up to the scheduler, exactly
the regime the snapshot-isolation property covers).

Statement reference::

    {"op": "create",   "name": "r", "join_attributes": ["k"],
     "payload_attributes": ["v"], "rows": [["k1", 1, 0, 9], ...]}
    {"op": "generate", "name": "r", "n_tuples": 5000, "seed": 0,
     "n_keys": 32, "lifespan": 50000}
    {"op": "join",     "session": 0, "outer": "r", "inner": "s",
     "method": "auto", "repeat": 3}
    {"op": "append",   "session": 1, "name": "r", "rows": [...]}
    {"op": "append",   "session": 1, "name": "r", "n_tuples": 64, "seed": 7}
    {"op": "delete",   "session": 1, "name": "r", "rows": [...]}

``python -m repro serve --script workload.jsonl`` drives this module from
the command line; :func:`demo_workload` produces a ready-made script.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.model.errors import ServiceError
from repro.model.relation import ValidTimeRelation
from repro.model.schema import RelationSchema
from repro.model.vtuple import VTTuple
from repro.time.interval import Interval

_SETUP_OPS = ("create", "generate")
_SERVE_OPS = ("join", "append", "delete")


def percentile(samples: Sequence[float], q: float) -> float:
    """The *q*-quantile (0..1) by linear interpolation; 0.0 when empty."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def _generated_rows(
    n_tuples: int, *, seed: int, n_keys: int, lifespan: int
) -> List[VTTuple]:
    """Seeded probe-heavy tuples: few keys, short intervals, long lifespan."""
    rng = random.Random(seed)
    rows = []
    for number in range(n_tuples):
        start = rng.randrange(max(1, lifespan))
        end = min(lifespan - 1, start + rng.randrange(4)) if lifespan > 1 else start
        rows.append(
            VTTuple(
                (f"k{rng.randrange(n_keys)}",),
                (number,),
                Interval(start, max(start, end)),
            )
        )
    return rows


def load_workload(path: str) -> List[Dict]:
    """Parse a ``.jsonl`` workload script (blank lines and ``#`` comments ok)."""
    statements = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                statement = json.loads(text)
            except json.JSONDecodeError as error:
                raise ServiceError(
                    f"{path}:{lineno}: not a JSON statement: {error}"
                ) from error
            if not isinstance(statement, dict) or "op" not in statement:
                raise ServiceError(f"{path}:{lineno}: statement needs an 'op' key")
            statements.append(statement)
    return statements


def demo_workload(
    *,
    n_tuples: int = 2_000,
    sessions: int = 4,
    queries_per_session: int = 4,
    seed: int = 0,
    n_keys: int = 32,
    lifespan: int = 50_000,
    appends: bool = True,
) -> List[Dict]:
    """A ready-made mixed workload: two generated relations, repeated joins
    on every session, and (optionally) one session interleaving appends."""
    statements: List[Dict] = [
        {
            "op": "generate",
            "name": name,
            "n_tuples": n_tuples,
            "seed": seed + offset,
            "n_keys": n_keys,
            "lifespan": lifespan,
        }
        for offset, name in ((0, "r"), (1, "s"))
    ]
    for session in range(sessions):
        statements.append(
            {
                "op": "join",
                "session": session,
                "outer": "r",
                "inner": "s",
                "repeat": queries_per_session,
            }
        )
        if appends and session == sessions - 1 and sessions > 1:
            statements.append(
                {
                    "op": "append",
                    "session": session,
                    "name": "r",
                    "n_tuples": 32,
                    "seed": seed + 99,
                }
            )
            statements.append(
                {
                    "op": "join",
                    "session": session,
                    "outer": "r",
                    "inner": "s",
                }
            )
    return statements


@dataclass
class QueryRecord:
    """One served query as the workload driver saw it."""

    session: int
    outer: str
    inner: str
    algorithm: str
    epochs: Tuple[int, int]
    n_result_tuples: int
    latency_seconds: float
    queue_wait_seconds: float
    charged_ops: int
    cost: float
    result_cache_hit: bool
    plan_cache_hit: bool
    degraded: bool


@dataclass
class WorkloadReport:
    """What one concurrent workload run measured."""

    queries: List[QueryRecord] = field(default_factory=list)
    writes: int = 0
    errors: List[str] = field(default_factory=list)
    wall_seconds: float = 0.0
    sessions: int = 0
    service_report: Dict = field(default_factory=dict)

    def summary(self) -> Dict:
        """The JSON-friendly rollup the CLI prints."""
        waits = [record.queue_wait_seconds for record in self.queries]
        latencies = [record.latency_seconds for record in self.queries]
        return {
            "sessions": self.sessions,
            "queries": len(self.queries),
            "writes": self.writes,
            "errors": len(self.errors),
            "wall_seconds": round(self.wall_seconds, 4),
            "queries_per_second": round(
                len(self.queries) / self.wall_seconds, 2
            )
            if self.wall_seconds > 0
            else 0.0,
            "result_cache_hits": sum(1 for q in self.queries if q.result_cache_hit),
            "plan_cache_hits": sum(1 for q in self.queries if q.plan_cache_hit),
            "degraded_grants": sum(1 for q in self.queries if q.degraded),
            "charged_ops_total": sum(q.charged_ops for q in self.queries),
            "queue_wait_p50_seconds": round(percentile(waits, 0.50), 6),
            "queue_wait_p95_seconds": round(percentile(waits, 0.95), 6),
            "latency_p50_seconds": round(percentile(latencies, 0.50), 6),
            "latency_p95_seconds": round(percentile(latencies, 0.95), 6),
            "service": self.service_report,
        }


def apply_setup(catalog, statements: Sequence[Dict]) -> None:
    """Apply the setup statements (``create``/``generate``) serially."""
    for statement in statements:
        op = statement.get("op")
        if op == "create":
            schema = RelationSchema(
                name=statement["name"],
                join_attributes=tuple(statement.get("join_attributes", ("k",))),
                payload_attributes=tuple(statement.get("payload_attributes", ())),
            )
            relation = ValidTimeRelation.from_rows(
                schema, [tuple(row) for row in statement.get("rows", [])]
            )
            catalog.register(schema, relation.tuples)
        elif op == "generate":
            schema = RelationSchema(
                name=statement["name"],
                join_attributes=("k",),
                payload_attributes=(f"{statement['name']}_payload",),
            )
            catalog.register(
                schema,
                _generated_rows(
                    int(statement["n_tuples"]),
                    seed=int(statement.get("seed", 0)),
                    n_keys=int(statement.get("n_keys", 32)),
                    lifespan=int(statement.get("lifespan", 50_000)),
                ),
            )
        else:
            raise ServiceError(f"unknown setup op {op!r}")


def split_statements(
    statements: Sequence[Dict],
) -> Tuple[List[Dict], Dict[int, List[Dict]]]:
    """Split a script into (setup, per-session serve lists)."""
    setup: List[Dict] = []
    per_session: Dict[int, List[Dict]] = {}
    for statement in statements:
        op = statement.get("op")
        if op in _SETUP_OPS:
            setup.append(statement)
        elif op in _SERVE_OPS:
            session = int(statement.get("session", 0))
            per_session.setdefault(session, []).append(statement)
        else:
            raise ServiceError(f"unknown workload op {op!r}")
    return setup, per_session


def _replay_session(
    service,
    session_number: int,
    statements: Sequence[Dict],
    report: WorkloadReport,
    lock: threading.Lock,
    start_barrier: threading.Barrier,
) -> None:
    from repro.service.session import SessionConfig

    config = SessionConfig(label=f"workload-{session_number}")
    with service.open_session(config) as session:
        start_barrier.wait()
        for statement in statements:
            op = statement["op"]
            try:
                if op == "join":
                    for _ in range(int(statement.get("repeat", 1))):
                        begin = time.monotonic()
                        result = session.join(
                            statement["outer"],
                            statement["inner"],
                            method=statement.get("method"),
                        )
                        latency = time.monotonic() - begin
                        record = QueryRecord(
                            session=session_number,
                            outer=result.outer,
                            inner=result.inner,
                            algorithm=result.algorithm,
                            epochs=result.epochs,
                            n_result_tuples=result.outcome.n_result_tuples,
                            latency_seconds=latency,
                            queue_wait_seconds=result.queue_wait_seconds,
                            charged_ops=result.charged_ops,
                            cost=result.cost,
                            result_cache_hit=result.result_cache_hit,
                            plan_cache_hit=result.plan_cache_hit,
                            degraded=result.degraded,
                        )
                        with lock:
                            report.queries.append(record)
                elif op in ("append", "delete"):
                    rows = statement.get("rows")
                    if rows is None:
                        rows = _generated_rows(
                            int(statement.get("n_tuples", 16)),
                            seed=int(statement.get("seed", session_number)),
                            n_keys=int(statement.get("n_keys", 32)),
                            lifespan=int(statement.get("lifespan", 50_000)),
                        )
                    else:
                        rows = [tuple(row) for row in rows]
                    getattr(session, op)(statement["name"], rows)
                    with lock:
                        report.writes += 1
            except Exception as error:  # noqa: BLE001 -- reported, not fatal
                with lock:
                    report.errors.append(f"session {session_number} {op}: {error}")


def run_workload(statements: Sequence[Dict], service) -> WorkloadReport:
    """Run a workload script concurrently; returns its :class:`WorkloadReport`.

    *service* is an open :class:`~repro.service.service.QueryService` or
    :class:`~repro.shard.coordinator.ShardedQueryService`, left open
    afterwards.  Only the serve statements are replayed: the setup
    statements go through :func:`apply_setup` *before* the service is built
    (a sharded service forks its workers at construction).
    """
    _setup, per_session = split_statements(statements)

    report = WorkloadReport(sessions=len(per_session))
    lock = threading.Lock()
    if per_session:
        barrier = threading.Barrier(len(per_session))
        threads = [
            threading.Thread(
                target=_replay_session,
                args=(service, number, session_statements, report, lock, barrier),
                name=f"workload-session-{number}",
            )
            for number, session_statements in sorted(per_session.items())
        ]
        begin = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        report.wall_seconds = time.monotonic() - begin
    report.service_report = service.report()
    return report
