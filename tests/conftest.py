"""Shared fixtures and relation builders for the test suite."""

from __future__ import annotations

import multiprocessing
import random
from typing import List, Optional

import pytest

from repro.model.relation import ValidTimeRelation
from repro.model.schema import RelationSchema
from repro.model.vtuple import VTTuple
from repro.time.interval import Interval


@pytest.fixture(autouse=True)
def _no_leaked_spans():
    """Fail any test that leaves a tracer span open at teardown.

    An instrumentation site that opens a span without closing it (a missing
    ``with``, an early return around ``_end``) would otherwise only show up
    as a silently truncated trace.
    """
    from repro.obs.trace import open_span_leaks

    yield
    leaks = open_span_leaks()
    assert not leaks, (
        "tracer span(s) left open after test: "
        + ", ".join(f"{tracer!r} ({count} open)" for tracer, count in leaks)
    )


@pytest.fixture(autouse=True)
def _no_leaked_processes():
    """Fail any test that leaves a child process it started running.

    Lane pools and shard workers must be reaped by whoever forked them; a
    survivor would otherwise live until interpreter exit, unseen.  Children
    still exiting get a bounded join; a real survivor is killed so that one
    leak fails one test.
    """
    before = set(multiprocessing.active_children())
    yield
    leaked = [
        proc for proc in multiprocessing.active_children() if proc not in before
    ]
    for proc in leaked:
        proc.join(timeout=2.0)
    survivors = [proc for proc in leaked if proc.is_alive()]
    for proc in survivors:
        proc.kill()
        proc.join(timeout=2.0)
    assert not survivors, "child process(es) left running after test: " + ", ".join(
        f"{proc.name} (pid {proc.pid})" for proc in survivors
    )


@pytest.fixture
def schema_r() -> RelationSchema:
    return RelationSchema(
        "works_on", join_attributes=("emp",), payload_attributes=("project",)
    )


@pytest.fixture
def schema_s() -> RelationSchema:
    return RelationSchema(
        "earns", join_attributes=("emp",), payload_attributes=("salary",)
    )


def make_relation(
    schema: RelationSchema,
    rows: List[tuple],
) -> ValidTimeRelation:
    """Rows are (key..., payload..., vs, ve)."""
    return ValidTimeRelation.from_rows(schema, rows)


def random_relation(
    schema: RelationSchema,
    n_tuples: int,
    seed: int,
    *,
    n_keys: int = 12,
    lifespan: int = 512,
    long_lived_fraction: float = 0.25,
    payload_tag: str = "v",
) -> ValidTimeRelation:
    """A mixed instantaneous/long-lived relation for equivalence tests."""
    rng = random.Random(seed)
    relation = ValidTimeRelation(schema)
    for number in range(n_tuples):
        key = (f"k{rng.randrange(n_keys)}",)
        start = rng.randrange(lifespan)
        if rng.random() < long_lived_fraction:
            end = min(lifespan - 1, start + rng.randrange(1, lifespan // 2))
        else:
            end = start
        relation.add(VTTuple(key, (f"{payload_tag}{number}",), Interval(start, end)))
    return relation


@pytest.fixture
def small_r(schema_r) -> ValidTimeRelation:
    return random_relation(schema_r, 60, seed=11, payload_tag="p")


@pytest.fixture
def small_s(schema_s) -> ValidTimeRelation:
    return random_relation(schema_s, 60, seed=23, payload_tag="q")
