"""Temporal join predicates over Allen's interval algebra.

The partition join evaluates exactly one temporal predicate -- interval
intersection (the valid-time natural join).  The forward-scan sweep
operator (``repro.exec.forward_sweep``) generalizes this to *any* subset
of Allen's thirteen relations: a :class:`TemporalPredicate` names such a
subset plus the timestamp policy used to stamp emitted pairs, and
compiles the subset into the two probe shapes the sweep understands:

* **Sign-grid cells** for the nine *intersecting* relations.  Every pair
  the sweep's intersecting windows find already intersects (one row starts
  inside the other), so the exact Allen relation of the pair ``(r, s)``
  collapses to the pair of comparisons
  ``(sign(r.start - s.start), sign(r.end - s.end))``:

  ========================  ==========================
  ``(ds, de)``              relation of ``(r, s)``
  ========================  ==========================
  ``(-1, -1)``              OVERLAPS
  ``(-1,  0)``              FINISHED_BY
  ``(-1, +1)``              CONTAINS
  ``( 0, -1)``              STARTS
  ``( 0,  0)``              EQUAL
  ``( 0, +1)``              STARTED_BY
  ``(+1, -1)``              DURING
  ``(+1,  0)``              FINISHES
  ``(+1, +1)``              OVERLAPPED_BY
  ========================  ==========================

  A predicate therefore becomes a 3x3 boolean table indexed by
  ``(ds + 1, de + 1)`` -- one vectorized gather over all pairs.

* **Scan windows** for the four *disjoint* relations (BEFORE, MEETS,
  MET_BY, AFTER).  Those pairs never intersect; the sweep answers them
  with binary-searched windows over the inner rows grouped by key and
  sorted on start or end (see :mod:`repro.exec.forward_sweep`).

Timestamp policies mirror :func:`repro.variants.allen_joins.allen_join`:
``"intersection"`` is only legal when every accepted relation
intersects; predicates containing a disjoint relation default to
``"left"`` stamps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Tuple

from repro.time.allen import AllenRelation
from repro.variants.allen_joins import CONTAIN_RELATIONS, INTERSECTING_RELATIONS

__all__ = [
    "PREDICATES",
    "SIGN_GRID",
    "TemporalPredicate",
    "predicate_names",
    "resolve_predicate",
]

#: The natural-join predicate name; partition executions support only this.
NATURAL_PREDICATE = "intersects"

#: Sign-grid cell -> Allen relation, valid only for intersecting pairs.
SIGN_GRID: Dict[Tuple[int, int], AllenRelation] = {
    (-1, -1): AllenRelation.OVERLAPS,
    (-1, 0): AllenRelation.FINISHED_BY,
    (-1, 1): AllenRelation.CONTAINS,
    (0, -1): AllenRelation.STARTS,
    (0, 0): AllenRelation.EQUAL,
    (0, 1): AllenRelation.STARTED_BY,
    (1, -1): AllenRelation.DURING,
    (1, 0): AllenRelation.FINISHES,
    (1, 1): AllenRelation.OVERLAPPED_BY,
}

#: Relations whose pairs never share a chronon (handled by scan windows).
DISJOINT_RELATIONS: FrozenSet[AllenRelation] = frozenset(
    {
        AllenRelation.BEFORE,
        AllenRelation.MEETS,
        AllenRelation.MET_BY,
        AllenRelation.AFTER,
    }
)


@dataclass(frozen=True)
class TemporalPredicate:
    """A named subset of Allen relations plus its stamping policy.

    Attributes:
        name: registry key (``"overlaps"``, ``"intersects"``, ...).
        relations: accepted Allen relations for a pair ``(r, s)``.
        timestamp: ``"intersection"``, ``"left"`` or ``"right"`` -- the
            valid interval stamped onto emitted tuples.
    """

    name: str
    relations: FrozenSet[AllenRelation]
    timestamp: str = "intersection"
    #: 3x3 table indexed ``[ds + 1][de + 1]``; True cells accept the pair.
    sign_table: Tuple[Tuple[bool, bool, bool], ...] = field(init=False)

    def __post_init__(self) -> None:
        if not self.relations:
            raise ValueError(f"predicate {self.name!r} accepts no relations")
        unknown = self.relations - set(AllenRelation)
        if unknown:
            raise ValueError(f"unknown Allen relations: {sorted(unknown)}")
        if self.timestamp not in ("intersection", "left", "right"):
            raise ValueError(f"unknown timestamp policy {self.timestamp!r}")
        if self.timestamp == "intersection" and self.disjoint_relations:
            raise ValueError(
                "intersection timestamps undefined for "
                f"{sorted(rel.value for rel in self.disjoint_relations)}"
            )
        table = tuple(
            tuple(
                SIGN_GRID[(ds, de)] in self.relations for de in (-1, 0, 1)
            )
            for ds in (-1, 0, 1)
        )
        object.__setattr__(self, "sign_table", table)

    @property
    def intersecting_relations(self) -> FrozenSet[AllenRelation]:
        """The accepted relations answerable from the sign grid."""
        return self.relations & INTERSECTING_RELATIONS

    @property
    def disjoint_relations(self) -> FrozenSet[AllenRelation]:
        """The accepted relations requiring scan windows."""
        return self.relations & DISJOINT_RELATIONS

    @property
    def is_natural(self) -> bool:
        """True when this predicate *is* the valid-time natural join."""
        return (
            self.relations == INTERSECTING_RELATIONS
            and self.timestamp == "intersection"
        )

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        rels = ",".join(sorted(rel.value for rel in self.relations))
        return f"TemporalPredicate({self.name!r}, {{{rels}}}, {self.timestamp!r})"


def _single(relation: AllenRelation, name: str = "") -> TemporalPredicate:
    stamp = "left" if relation in DISJOINT_RELATIONS else "intersection"
    return TemporalPredicate(
        name or relation.value, frozenset({relation}), timestamp=stamp
    )


#: The registry: all thirteen single-relation predicates plus the two
#: disjunctions the planner and service expose.  ``"intersects"`` is the
#: valid-time natural join; ``"covers"`` accepts every relation where the
#: left interval contains the right one (including shared endpoints).
PREDICATES: Dict[str, TemporalPredicate] = {
    pred.name: pred
    for pred in (
        _single(AllenRelation.BEFORE),
        _single(AllenRelation.MEETS),
        _single(AllenRelation.OVERLAPS),
        _single(AllenRelation.STARTS),
        _single(AllenRelation.DURING),
        _single(AllenRelation.FINISHES),
        _single(AllenRelation.EQUAL, "equals"),
        _single(AllenRelation.AFTER),
        _single(AllenRelation.MET_BY),
        _single(AllenRelation.OVERLAPPED_BY),
        _single(AllenRelation.STARTED_BY),
        _single(AllenRelation.CONTAINS),
        _single(AllenRelation.FINISHED_BY),
        TemporalPredicate(NATURAL_PREDICATE, INTERSECTING_RELATIONS),
        TemporalPredicate("covers", frozenset(CONTAIN_RELATIONS)),
    )
}

#: Accepted spelling variants.
_ALIASES = {"equal": "equals", "natural": NATURAL_PREDICATE}


def predicate_names() -> Tuple[str, ...]:
    """Registry keys in deterministic (sorted) order."""
    return tuple(sorted(PREDICATES))


def resolve_predicate(name: str) -> TemporalPredicate:
    """Look up a predicate by name (accepting aliases); raise on unknown."""
    key = _ALIASES.get(name, name)
    try:
        return PREDICATES[key]
    except KeyError:
        raise ValueError(
            f"unknown temporal predicate {name!r}; expected one of "
            f"{', '.join(predicate_names())}"
        ) from None
