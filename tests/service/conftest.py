"""Shared builders for the query-service suite."""

from __future__ import annotations

import random

import pytest

from repro.engine.catalog import VersionedCatalog
from repro.model.schema import RelationSchema
from repro.model.vtuple import VTTuple
from repro.service import QueryService
from repro.shard import ShardedQueryService
from repro.time.interval import Interval


def make_tuples(n: int, *, seed: int, n_keys: int = 8, lifespan: int = 60):
    """Seeded overlap-heavy tuples (few keys, short lifespan => real matches)."""
    rng = random.Random(seed)
    rows = []
    for number in range(n):
        start = rng.randrange(lifespan)
        end = min(lifespan - 1, start + rng.randrange(6))
        rows.append(
            VTTuple((f"k{rng.randrange(n_keys)}",), (number,), Interval(start, end))
        )
    return rows


def make_catalog(n_r: int = 60, n_s: int = 45, *, seed: int = 0) -> VersionedCatalog:
    catalog = VersionedCatalog()
    catalog.register(
        RelationSchema("r", join_attributes=("k",), payload_attributes=("pr",)),
        make_tuples(n_r, seed=seed),
    )
    catalog.register(
        RelationSchema("s", join_attributes=("k",), payload_attributes=("ps",)),
        make_tuples(n_s, seed=seed + 1),
    )
    return catalog


@pytest.fixture
def catalog() -> VersionedCatalog:
    return make_catalog()


@pytest.fixture
def service(catalog):
    with QueryService(catalog, pool_pages=32, workers=3) as svc:
        yield svc


#: kind -> (service class, extra constructor options, query-count family).
SERVICE_KINDS = {
    "single": (QueryService, {}, "repro_service_queries_total"),
    "sharded": (ShardedQueryService, {"shards": 2}, "repro_shard_queries_total"),
}


def open_service(kind: str, catalog: VersionedCatalog, **options):
    """Either service over *catalog*: what both constructors accept, plus
    the two shards of the sharded kind."""
    cls, extra, _family = SERVICE_KINDS[kind]
    return cls(catalog, **{**extra, **options})


@pytest.fixture(params=list(SERVICE_KINDS))
def either_service(request, catalog):
    """Both services over the same catalog, each with its query-count family."""
    with open_service(request.param, catalog, pool_pages=32, workers=3) as svc:
        yield svc, SERVICE_KINDS[request.param][2]


def outcome_counters(outcome):
    """The JoinOutcome fingerprint minus the relation object itself."""
    return (
        outcome.n_result_tuples,
        outcome.overflow_blocks,
        outcome.cache_tuples_peak,
        outcome.cache_tuples_spilled,
    )
