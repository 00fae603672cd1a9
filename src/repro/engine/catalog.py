"""Catalog statistics: what the optimizer is allowed to know.

A 1994 optimizer plans from maintained statistics, not from scanning the
data at plan time.  :class:`RelationStatistics` captures the facts the
join-method chooser consumes -- page count, lifespan, long-lived fraction,
key cardinality -- and :func:`analyze` computes them with one pass, the
moral equivalent of an ``ANALYZE`` command.

The long-lived classification follows the experiments' usage: a tuple is
long-lived when its duration is a noticeable fraction of the relation
lifespan (instantaneous tuples and short intervals behave identically for
caching and backing-up purposes).

The second half of the module is the :class:`VersionedCatalog`: immutable
copy-on-write relation versions under a single monotonic epoch counter,
giving the concurrent query service (:mod:`repro.service`) snapshot
isolation -- readers join against a :class:`CatalogSnapshot` while writers
install new versions, and any historical version stays replayable through
:meth:`VersionedCatalog.version_at`.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.model.errors import CatalogError, SchemaError
from repro.model.relation import ValidTimeRelation
from repro.model.schema import RelationSchema
from repro.model.vtuple import VTTuple
from repro.storage.page import PageSpec
from repro.time.lifespan import Lifespan

#: A tuple is long-lived when it covers at least this fraction of the
#: relation lifespan (the experiments' long-lived tuples cover one half).
LONG_LIVED_THRESHOLD = 0.10


@dataclass(frozen=True)
class RelationStatistics:
    """Planning-time facts about one relation.

    Attributes:
        n_tuples: cardinality.
        n_pages: pages under the catalog's page geometry.
        lifespan: hull of the timestamps (None when empty).
        long_lived_fraction: share of tuples covering at least
            :data:`LONG_LIVED_THRESHOLD` of the lifespan.
        n_keys: distinct join-attribute values.
        mean_duration: average timestamp duration in chronons.
        endpoint_sorted: the relation's tuples iterate in ``(start, end)``
            order -- the forward-scan sweep can skip its external-sort
            charge (an empty relation is trivially sorted).
    """

    n_tuples: int
    n_pages: int
    lifespan: Optional[Lifespan]
    long_lived_fraction: float
    n_keys: int
    mean_duration: float
    endpoint_sorted: bool = False

    @property
    def tuples_per_key(self) -> float:
        """Average version-chain length (the paper's ~10 tuples per object)."""
        if self.n_keys == 0:
            return 0.0
        return self.n_tuples / self.n_keys


def analyze(relation: ValidTimeRelation, spec: PageSpec) -> RelationStatistics:
    """Compute :class:`RelationStatistics` with a single pass."""
    n_tuples = len(relation)
    n_pages = spec.pages_for_tuples(n_tuples)
    span = relation.lifespan()
    if n_tuples == 0 or span is None:
        return RelationStatistics(0, 0, None, 0.0, 0, 0.0, endpoint_sorted=True)

    threshold = max(2, int(span.duration * LONG_LIVED_THRESHOLD))
    long_lived = 0
    total_duration = 0
    keys = set()
    endpoint_sorted = True
    last_span: Optional[Tuple[int, int]] = None
    for tup in relation:
        duration = tup.valid.duration
        total_duration += duration
        if duration >= threshold:
            long_lived += 1
        keys.add(tup.key)
        tup_span = (tup.vs, tup.ve)
        if last_span is not None and tup_span < last_span:
            endpoint_sorted = False
        last_span = tup_span
    return RelationStatistics(
        n_tuples=n_tuples,
        n_pages=n_pages,
        lifespan=span,
        long_lived_fraction=long_lived / n_tuples,
        n_keys=len(keys),
        mean_duration=total_duration / n_tuples,
        endpoint_sorted=endpoint_sorted,
    )


# ---------------------------------------------------------------------------
# Versioned catalog: snapshot isolation for the concurrent query service.
#
# Relations are stored as immutable *versions* under a single monotonic
# epoch counter.  A writer never touches an existing version: append/delete
# build a new relation object (copy-on-write) and install it as the current
# version at the next epoch.  A reader takes a CatalogSnapshot -- a frozen
# name -> version mapping -- and joins against it for as long as it likes;
# concurrent writers advance the catalog underneath without affecting it.
# Every version ever installed stays reachable through version_at(), which
# is what lets the property suite replay any query serially at the exact
# epochs it saw (docs/SERVICE.md).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelationVersion:
    """One immutable version of a named relation.

    The wrapped :class:`~repro.model.relation.ValidTimeRelation` must never
    be mutated -- the catalog builds a fresh one per mutation and hands out
    the old object to snapshot holders.

    Attributes:
        name: catalog name of the relation.
        epoch: global catalog epoch at which this version was installed.
        relation: the version's (immutable-by-contract) contents.
        parent_epoch: epoch of the version the installing write was applied
            to (None for a registration): ``relation`` is that version's
            rows without the first occurrence of each of ``removed``, then
            ``added`` appended.  What incremental views fold in and what a
            shard holding the parent is shipped instead of the relation.
        added / removed: the rows the write appended / deleted.
    """

    name: str
    epoch: int
    relation: ValidTimeRelation
    parent_epoch: Optional[int] = None
    added: Tuple[VTTuple, ...] = ()
    removed: Tuple[VTTuple, ...] = ()

    @property
    def schema(self) -> RelationSchema:
        return self.relation.schema

    def __len__(self) -> int:
        return len(self.relation)


@dataclass(frozen=True)
class CatalogSnapshot:
    """A stable view of the whole catalog at one epoch.

    Attributes:
        epoch: the global epoch the snapshot was taken at.
        versions: name -> :class:`RelationVersion` current at that epoch.
    """

    epoch: int
    versions: Mapping[str, RelationVersion] = field(default_factory=dict)

    def __contains__(self, name: str) -> bool:
        return name in self.versions

    def version(self, name: str) -> RelationVersion:
        try:
            return self.versions[name]
        except KeyError:
            raise CatalogError(f"no relation named {name!r} in snapshot") from None

    def relation(self, name: str) -> ValidTimeRelation:
        return self.version(name).relation


@dataclass
class _ViewBinding:
    """A live incremental view and the base relations feeding it."""

    name: str
    view: object  # MaterializedVTJoin-shaped: insert_r/delete_r/insert_s/delete_s
    r_name: str
    s_name: str


class VersionedCatalog:
    """Copy-on-write relation versions under one monotonic epoch counter.

    Every mutation -- :meth:`register`, :meth:`append`, :meth:`delete`,
    :meth:`drop` -- takes the catalog lock, bumps the epoch by exactly one,
    and (for the relation mutations) installs a brand-new relation version.
    Readers call :meth:`snapshot` and never block writers; writers never
    invalidate readers.  The epoch a query's inputs carried is the cache key
    the service layer builds plan- and result-cache entries from.

    Incremental views (:class:`~repro.incremental.view.MaterializedVTJoin`)
    can be attached to a pair of base relations; the catalog folds every
    append/delete delta into them while holding the lock, and refuses to
    drop a base relation that still feeds a live view.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._epoch = 0
        self._current: Dict[str, RelationVersion] = {}
        self._history: Dict[str, List[RelationVersion]] = {}
        self._views: Dict[str, _ViewBinding] = {}
        self._shard_maps: List[Tuple[int, Dict]] = []

    # -- reading --------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The global epoch (bumped by exactly one on every mutation)."""
        with self._lock:
            return self._epoch

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._current)

    def snapshot(self) -> CatalogSnapshot:
        """A stable view of every current relation version."""
        with self._lock:
            return CatalogSnapshot(epoch=self._epoch, versions=dict(self._current))

    def current(self, name: str) -> RelationVersion:
        """The current version of *name*."""
        with self._lock:
            try:
                return self._current[name]
            except KeyError:
                raise CatalogError(f"no relation named {name!r}") from None

    def version_at(self, name: str, epoch: int) -> RelationVersion:
        """The version of *name* that was current at global *epoch*.

        The serial-replay hook: a query that recorded its snapshot epochs
        can be re-run later against exactly the inputs it saw.
        """
        with self._lock:
            history = self._history.get(name)
            if not history:
                raise CatalogError(f"no relation named {name!r}")
            index = bisect_right(history, epoch, key=attrgetter("epoch"))
            if index == 0:
                raise CatalogError(
                    f"relation {name!r} did not exist at epoch {epoch} "
                    f"(registered at epoch {history[0].epoch})"
                )
            return history[index - 1]

    # -- shard maps -----------------------------------------------------------

    def record_shard_map(self, map_dict: Dict) -> int:
        """Record the active shard routing, stamped with the current epoch.

        Recording does *not* bump the epoch -- the map describes how
        existing versions route, it does not create new ones.  Any snapshot
        taken at or after the stamped epoch resolves to this map
        (:meth:`shard_map_at`), which keeps fragment routing a pure
        function of ``(snapshot epoch, shard rank)`` across coordinator
        restarts.
        """
        with self._lock:
            self._shard_maps.append((self._epoch, dict(map_dict)))
            return self._epoch

    def shard_map_at(self, epoch: int) -> Optional[Dict]:
        """The shard map in force at global *epoch* (None if never sharded)."""
        with self._lock:
            candidate = None
            for stamped, map_dict in self._shard_maps:
                if stamped <= epoch:
                    candidate = map_dict
                else:
                    break
            return dict(candidate) if candidate is not None else None

    @property
    def shard_maps(self) -> List[Tuple[int, Dict]]:
        """Every recorded ``(epoch, map)`` pair, oldest first."""
        with self._lock:
            return [(epoch, dict(map_dict)) for epoch, map_dict in self._shard_maps]

    # -- mutating -------------------------------------------------------------

    def register(
        self, schema: RelationSchema, tuples: Iterable[VTTuple] = ()
    ) -> RelationVersion:
        """Create a relation under its schema name (epoch + 1).

        Raises:
            SchemaError: the name is already registered (re-registration
                would silently orphan existing snapshots and cache keys).
        """
        with self._lock:
            if schema.name in self._current:
                raise SchemaError(f"relation {schema.name!r} already exists")
            relation = ValidTimeRelation(schema, tuples)
            self._epoch += 1
            version = RelationVersion(schema.name, self._epoch, relation)
            self._current[schema.name] = version
            self._history.setdefault(schema.name, []).append(version)
            return version

    def append(self, name: str, tuples: Iterable[VTTuple]) -> RelationVersion:
        """Install a new version of *name* with *tuples* appended (epoch + 1)."""
        with self._lock:
            old = self.current(name)
            added = ValidTimeRelation(old.schema, tuples)._tuples  # validates arity
            return self._install(old, old.relation.with_rows(added), added=added)

    def delete(self, name: str, tuples: Iterable[VTTuple]) -> RelationVersion:
        """Install a new version of *name* with *tuples* removed (epoch + 1).

        Multiset semantics: each given tuple removes one occurrence, the
        first still present.

        Raises:
            CatalogError: a tuple is not present in the current version (as
                often as it was given); nothing was installed.
        """
        with self._lock:
            old = self.current(name)
            removed = list(tuples)
            remaining, missing = old.relation.without_rows(removed)
            if missing:
                raise CatalogError(
                    f"cannot delete {next(iter(missing))!r}: not present in {name!r}"
                )
            return self._install(old, remaining, removed=removed)

    def drop(self, name: str) -> None:
        """Remove *name* from the catalog (epoch + 1).

        Existing snapshots keep their versions; :meth:`version_at` keeps
        answering for the dropped name's history.

        Raises:
            CatalogError: the relation feeds a live incremental view (detach
                the view first; a maintained view over a vanished base would
                silently go stale).
        """
        with self._lock:
            if name not in self._current:
                raise CatalogError(f"no relation named {name!r}")
            holders = [
                binding.name
                for binding in self._views.values()
                if name in (binding.r_name, binding.s_name)
            ]
            if holders:
                raise CatalogError(
                    f"cannot drop {name!r}: live incremental view(s) "
                    f"{sorted(holders)} depend on it"
                )
            del self._current[name]
            self._epoch += 1

    def _install(
        self, old: RelationVersion, relation: ValidTimeRelation, *, added=(), removed=()
    ) -> RelationVersion:
        """Install *relation* (derived from *old*'s, which took over its
        columns: history keeps a superseded version's rows only) as the next
        version, recording the write that made it, and fold that write into
        the live views."""
        self._epoch += 1
        version = RelationVersion(
            old.name,
            self._epoch,
            relation,
            old.epoch,
            tuple(added),
            tuple(removed),
        )
        self._current[old.name] = version
        self._history[old.name].append(version)
        self._maintain_views(version)
        return version

    # -- incremental views ----------------------------------------------------

    def attach_view(self, view_name: str, view: object, r_name: str, s_name: str) -> None:
        """Register a live incremental view over two base relations.

        *view* is :class:`~repro.incremental.view.MaterializedVTJoin`-shaped;
        from now on every append/delete on the bases is folded into it under
        the catalog lock, so a view snapshot is always consistent with the
        current epoch.
        """
        with self._lock:
            if view_name in self._views:
                raise CatalogError(f"view {view_name!r} already attached")
            for base in (r_name, s_name):
                if base not in self._current:
                    raise CatalogError(f"no relation named {base!r}")
            self._views[view_name] = _ViewBinding(view_name, view, r_name, s_name)

    def detach_view(self, view_name: str) -> None:
        with self._lock:
            if view_name not in self._views:
                raise CatalogError(f"no view named {view_name!r}")
            del self._views[view_name]

    def view(self, view_name: str):
        with self._lock:
            try:
                return self._views[view_name].view
            except KeyError:
                raise CatalogError(f"no view named {view_name!r}") from None

    def view_for(self, r_name: str, s_name: str):
        """The live view maintained over ``(r_name, s_name)``, or None."""
        with self._lock:
            for binding in self._views.values():
                if (binding.r_name, binding.s_name) == (r_name, s_name):
                    return binding.view
            return None

    def _maintain_views(self, version: RelationVersion) -> None:
        """Fold the write that made *version* into every view it feeds."""
        for binding in self._views.values():
            if binding.r_name == version.name:
                insert, remove = binding.view.insert_r, binding.view.delete_r
            elif binding.s_name == version.name:
                insert, remove = binding.view.insert_s, binding.view.delete_s
            else:
                continue
            for tup in version.removed:
                remove(tup)
            for tup in version.added:
                insert(tup)
