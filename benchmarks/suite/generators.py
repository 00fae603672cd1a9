"""Seeded input generators for the five workloads.

Every generator draws from ``random.Random`` streams derived from the run's
``--seed``, so equal seeds give equal inputs, and works in pure Python (no
numpy).  :func:`sha256_columns` fingerprints a relation's columns; each run
prints the fingerprints so two runs provably joined the same inputs.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import itertools
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.model.relation import ValidTimeRelation
from repro.model.schema import RelationSchema
from repro.workloads import fig8_spec, generate_pair

Columns = Tuple[List[Tuple], List[Tuple], List[int], List[int]]
WriteRow = Tuple[str, str, int, int]  # (key, payload, vs, ve): Session.append's row shape


def _stream(seed: int, *parts: object) -> random.Random:
    return random.Random("/".join(str(part) for part in (seed,) + parts))


def zipf_cumulative(n_keys: int, exponent: float = 1.0) -> List[float]:
    """Cumulative Zipf weights: key *k* is drawn with weight ``1/(k+1)^s``."""
    return list(itertools.accumulate(1.0 / (k + 1) ** exponent for k in range(n_keys)))


def _draw_keys(
    rng: random.Random, n: int, n_keys: int, cumulative: Optional[Sequence[float]]
) -> List[int]:
    if cumulative is None:
        return [rng.randrange(n_keys) for _ in range(n)]
    total = cumulative[-1]
    return [bisect.bisect_left(cumulative, rng.random() * total) for _ in range(n)]


def interval_relation(
    name: str,
    n_tuples: int,
    rng: random.Random,
    *,
    n_keys: int,
    lifespan: int,
    max_extra: int,
    zipf: bool = False,
    endpoint_sorted: bool = False,
) -> ValidTimeRelation:
    """A relation of ``[start, start + extra]`` intervals, extra in ``0..max_extra``.

    Keys are uniform over ``n_keys`` (or Zipf(s=1) with *zipf*); starts are
    uniform over the lifespan; ends are clipped to it.  With
    *endpoint_sorted* the rows come out in ``(start, end)`` order, the
    forward sweep's best case.
    """
    keys = _draw_keys(rng, n_tuples, n_keys, zipf_cumulative(n_keys) if zipf else None)
    spans = []
    for key in keys:
        start = rng.randrange(lifespan)
        spans.append((start, min(lifespan - 1, start + rng.randrange(max_extra + 1)), key))
    if endpoint_sorted:
        spans.sort()
    schema = RelationSchema(
        name, join_attributes=("k",), payload_attributes=(f"{name}_payload",)
    )
    return ValidTimeRelation.from_columns(
        schema,
        [(f"k{key}",) for _, _, key in spans],
        [(f"{name}{number}",) for number in range(n_tuples)],
        [start for start, _, _ in spans],
        [end for _, end, _ in spans],
    )


def probe_heavy_pair(seed: int, scale: int) -> Tuple[ValidTimeRelation, ValidTimeRelation]:
    """50 000 x 50 000, 32 uniform keys, lengths 1-4 over 50 000 chronons, unsorted."""
    n = 50_000 // scale
    return tuple(
        interval_relation(
            role, n, _stream(seed, "probe_heavy", role),
            n_keys=32, lifespan=50_000, max_extra=3,
        )
        for role in ("r", "s")
    )


def long_lived_pair(seed: int, scale: int) -> Tuple[ValidTimeRelation, ValidTimeRelation]:
    """The paper's section 4.3/4.4 recipe at 1/8 scale: 16 384 tuples per side,
    4 000 of them long-lived (half the lifespan), the rest one chronon long."""
    spec = dataclasses.replace(fig8_spec(64_000).scaled(8 * scale), seed=seed)
    return generate_pair(spec)


def result_heavy_pair(seed: int, scale: int) -> Tuple[ValidTimeRelation, ValidTimeRelation]:
    """4 000 x 4 000, 16 keys, lengths 0-25 000 over 100 000 chronons, endpoint-sorted."""
    n = 4_000 // scale
    return tuple(
        interval_relation(
            role, n, _stream(seed, "result_heavy", role),
            n_keys=16, lifespan=100_000, max_extra=25_000, endpoint_sorted=True,
        )
        for role in ("r", "s")
    )


SERVICE_KEYS = 64
SERVICE_LIFESPAN = 50_000
WRITE_BATCH_ROWS = 32


def service_relations(seed: int, scale: int, sessions: int) -> Dict[str, ValidTimeRelation]:
    """Per session *i* a private pair ``r_i``, ``s_i``: 20 000 tuples each,
    Zipf(s=1) keys over 64 keys, lengths 1-4 over 50 000 chronons."""
    n = 20_000 // scale
    return {
        f"{role}{i}": interval_relation(
            f"{role}{i}", n, _stream(seed, "service", role, i),
            n_keys=SERVICE_KEYS, lifespan=SERVICE_LIFESPAN, max_extra=3, zipf=True,
        )
        for i in range(sessions)
        for role in ("r", "s")
    }


def write_batch(seed: int, session: int) -> List[WriteRow]:
    """The 32 rows session *session* appends to ``r_i`` and later deletes again."""
    rng = _stream(seed, "service", "writes", session)
    keys = _draw_keys(rng, WRITE_BATCH_ROWS, SERVICE_KEYS, zipf_cumulative(SERVICE_KEYS))
    rows = []
    for number, key in enumerate(keys):
        start = rng.randrange(SERVICE_LIFESPAN)
        end = min(SERVICE_LIFESPAN - 1, start + rng.randrange(4))
        rows.append((f"k{key}", f"w{session}_{number}", start, end))
    return rows


def sha256_columns(relation: ValidTimeRelation) -> str:
    """SHA-256 over the relation's ``(keys, payloads, starts, ends)`` columns."""
    digest = hashlib.sha256()
    for column in relation.to_columns():
        digest.update(repr(column).encode("utf-8"))
    return digest.hexdigest()
