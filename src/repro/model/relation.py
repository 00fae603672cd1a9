"""In-memory valid-time relations.

A :class:`ValidTimeRelation` is an ordered multiset of :class:`VTTuple`
conforming to a :class:`RelationSchema`.  It is the logical-level
representation; the storage layer (:mod:`repro.storage.heapfile`) holds the
physical, paged representation the cost experiments run against.

Relations are multisets: the paper's 1NF tuple-timestamped model permits
duplicate snapshot tuples with different timestamps (and the join algorithms
are compared by result *multiset* in the test-suite).

**Chunks.**  A relation is a sequence of chunks: plain tuple lists (what
:meth:`ValidTimeRelation.add` appends to) and lazy row blocks
(:mod:`repro.model.match_block`, what the batch engine and the shard merge
append whole).  ``len`` and :meth:`ValidTimeRelation.to_columns` answer from
the chunks; everything else reads ``_tuples``, which on first touch builds
every block's rows into one list *aside* and publishes it as the only chunk
with a single assignment -- so sessions sharing a cached result see either
the blocks or the finished list, never a half-extended one.

**Columns.**  :meth:`ValidTimeRelation.columns` is the relation split once
into ``(key code, start, end)`` columns, memoised until the next write; a
relation built from columns or derived from a split one
(:meth:`~ValidTimeRelation.with_rows`, :meth:`~ValidTimeRelation.without_rows`)
gets its columns from those.
"""

from __future__ import annotations

from array import array
from collections import Counter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.model.errors import SchemaError
from repro.model.match_block import ColumnBlock, LazyRows, spans_sorted
from repro.model.schema import RelationSchema
from repro.model.vtuple import VTTuple
from repro.time.chronon import BEGINNING, FOREVER
from repro.time.interval import Interval
from repro.time.lifespan import Lifespan, lifespan_of


def without_first(
    rows: Iterable[VTTuple], doomed: Iterable[VTTuple]
) -> Tuple[List[VTTuple], List[int], Dict[VTTuple, int]]:
    """*rows* without the first occurrence of each *doomed* row, in one pass.

    Multiset semantics -- a row doomed *n* times loses its first *n*
    occurrences, exactly what *n* ``list.remove`` calls would leave.
    Returns the rows kept, the (ascending) positions dropped, and the doomed
    rows that were not there to remove, with their counts.  Only a row
    starting where some doomed row starts is hashed whole.
    """
    want = Counter(doomed)
    if not want:
        return list(rows), [], want
    starts = {tup.valid.start for tup in want}
    kept: List[VTTuple] = []
    dropped: List[int] = []
    for position, tup in enumerate(rows):
        if tup.valid.start in starts and want.get(tup, 0) > 0:
            want[tup] -= 1
            dropped.append(position)
        else:
            kept.append(tup)
    return kept, dropped, +want


class ValidTimeRelation:
    """An instance of a valid-time relation schema.

    Args:
        schema: the relation's schema.
        tuples: optional initial contents (validated against the schema).
    """

    def __init__(self, schema: RelationSchema, tuples: Optional[Iterable[VTTuple]] = None):
        self.schema = schema
        self._chunks: list = []
        self._columns = None  # the memo of columns(); every write clears it
        if tuples is not None:
            for tup in tuples:
                self.add(tup)

    @property
    def _tuples(self) -> List[VTTuple]:
        """The rows as one list, building any lazy chunk first (memoized).

        The returned list *is* the relation's storage: mutating it mutates
        the relation, exactly as when it was a plain attribute.
        """
        chunks = self._chunks
        if len(chunks) == 1 and type(chunks[0]) is list:
            return chunks[0]
        rows: List[VTTuple] = []
        for chunk in chunks:
            if type(chunk) is not list:
                chunk = chunk.rows()
                for arity in {(len(tup.key), len(tup.payload)) for tup in chunk}:
                    self._check_arity(*arity)
            rows.extend(chunk)
        self._chunks = [rows]
        return rows

    @_tuples.setter
    def _tuples(self, rows: List[VTTuple]) -> None:
        self._chunks = [rows]
        self._columns = None

    @property
    def materialized(self) -> bool:
        """False while some rows exist only as a lazy block's columns."""
        return all(type(chunk) is list for chunk in self._chunks)

    # -- construction -------------------------------------------------------

    @classmethod
    def over(cls, schema: RelationSchema, rows: List[VTTuple]) -> "ValidTimeRelation":
        """A relation whose storage *is* the list *rows*, which the caller
        built from rows that already passed this schema's validation."""
        relation = cls(schema)
        relation._tuples = rows
        return relation

    @classmethod
    def from_rows(
        cls,
        schema: RelationSchema,
        rows: Iterable[Tuple],
    ) -> "ValidTimeRelation":
        """Build a relation from ``(attr..., vs, ve)`` rows.

        Each row supplies the explicit attributes in schema order followed by
        the inclusive valid-time start and end chronons.
        """
        relation = cls(schema)
        n_join = len(schema.join_attributes)
        n_attrs = len(schema.attributes)
        for row in rows:
            if len(row) != n_attrs + 2:
                raise SchemaError(
                    f"row of arity {len(row)} does not match schema "
                    f"{schema.name!r} (expected {n_attrs} attributes + vs, ve)"
                )
            key = tuple(row[:n_join])
            payload = tuple(row[n_join:n_attrs])
            relation.add(VTTuple(key, payload, Interval(row[-2], row[-1])))
        return relation

    @classmethod
    def from_columns(
        cls,
        schema: RelationSchema,
        keys: Iterable[Tuple],
        payloads: Iterable[Tuple],
        starts: Iterable[int],
        ends: Iterable[int],
    ) -> "ValidTimeRelation":
        """Build a relation from parallel columns (the batch decomposition).

        Inverse of :meth:`to_columns`; the columnar serialization format and
        the execution layer's :class:`~repro.exec.batch.PageBatch` share
        this representation.
        """
        from repro.exec.batch import PageBatch

        relation = cls(schema)
        keys = [tuple(key) for key in keys]
        starts = [int(vs) for vs in starts]
        ends = [int(ve) for ve in ends]
        for key, payload, vs, ve in zip(keys, payloads, starts, ends):
            relation.add(VTTuple(key, tuple(payload), Interval(vs, ve)))
        rows = relation._tuples
        if len(rows) == len(keys) == len(starts) == len(ends):
            relation._columns = PageBatch.keyed(list(rows), keys, starts, ends)
        return relation

    def columns(self):
        """The rows as one shared, immutable :class:`~repro.exec.batch.PageBatch`
        (``(key code, start, end)``, the codes' dictionary, the rows boxed
        once as references), split once
        and kept until the next write or until a derived relation takes it
        over.  The memo is a benign race: threads that find it empty each
        publish a finished batch with one assignment, and the last writer
        wins.
        """
        columns = self._columns
        if columns is None:
            from repro.exec.batch import PageBatch

            columns = self._columns = PageBatch.keyed(self._tuples)
        return columns

    def with_rows(self, added: List[VTTuple]) -> "ValidTimeRelation":
        """A new relation: these rows, then *added* (valid under this
        schema).  Its columns extend this one's, if split -- and replace
        them: a superseded version that is joined again splits again."""
        relation = ValidTimeRelation.over(self.schema, self._tuples + added)
        columns, self._columns = self._columns, None
        if columns is not None:
            from repro.exec.batch import PageBatch

            keys = None if columns.keys is None else columns.keys.grown(
                tup.key for tup in added
            )
            # The rows are boxed into one new source; the parent's goes with
            # the parent's memo, so a chain of writes pins no ancestor's.
            relation._columns = PageBatch.concat(
                [columns, PageBatch.from_tuples(added, keys)]
            )
        return relation

    def without_rows(
        self, doomed: Iterable[VTTuple]
    ) -> Tuple["ValidTimeRelation", Dict[VTTuple, int]]:
        """A new relation without the first occurrence of each *doomed* row
        (:func:`without_first`), and the doomed rows that were missing.  When
        none was, its columns are this one's less the dropped rows, taken
        over as by :meth:`with_rows`."""
        kept, dropped, missing = without_first(self._tuples, doomed)
        relation = ValidTimeRelation.over(self.schema, kept)
        if self._columns is not None and not missing:
            columns, self._columns = self._columns, None
            relation._columns = columns.without(dropped)
        return relation, missing

    def to_columns(self) -> Tuple[List[Tuple], List[Tuple], List[int], List[int]]:
        """Decompose into ``(keys, payloads, starts, ends)`` parallel columns.

        Lazy chunks answer from their own columns: no tuple is built.
        """
        keys: List[Tuple] = []
        payloads: List[Tuple] = []
        starts: List[int] = []
        ends: List[int] = []
        for chunk in self._chunks:
            if type(chunk) is list:
                for tup in chunk:
                    keys.append(tup.key)
                    payloads.append(tup.payload)
                    starts.append(tup.valid.start)
                    ends.append(tup.valid.end)
            else:
                for column, part in zip((keys, payloads, starts, ends), chunk.columns()):
                    column.extend(part)
        return keys, payloads, starts, ends

    def _check_arity(self, n_key: int, n_payload: int) -> None:
        """Raise unless a row of these arities fits the schema."""
        if n_key != len(self.schema.join_attributes):
            raise SchemaError(
                f"tuple key arity {n_key} does not match schema "
                f"{self.schema.name!r} join attributes {self.schema.join_attributes}"
            )
        if n_payload != len(self.schema.payload_attributes):
            raise SchemaError(
                f"tuple payload arity {n_payload} does not match schema "
                f"{self.schema.name!r} payload attributes {self.schema.payload_attributes}"
            )

    def add(self, tup: VTTuple) -> None:
        """Append *tup* after validating its arity against the schema."""
        schema = self.schema
        if len(tup.key) != len(schema.join_attributes) or len(tup.payload) != len(
            schema.payload_attributes
        ):
            self._check_arity(len(tup.key), len(tup.payload))
        self._columns = None
        chunks = self._chunks
        if chunks and type(chunks[-1]) is list:
            chunks[-1].append(tup)
        else:
            chunks.append([tup])

    def append_block(self, block: LazyRows) -> None:
        """Append a lazy row block (:mod:`repro.model.match_block`) whole.

        The first row's arity is checked now, so a block built for another
        schema fails at the append; every row is checked when the block is
        materialized.
        """
        if len(block):
            self._check_arity(*block.arity())
            self._chunks.append(block)
            self._columns = None

    def append_columns(
        self,
        keys: List[Tuple],
        payloads: List[Tuple],
        starts: List[int],
        ends: List[int],
    ) -> None:
        """Append rows given as parallel columns, validated column-wise.

        What the constructors check per tuple -- tuple-typed keys and
        payloads of the schema's arity, ``int`` chronons on the time-line,
        ``end >= start`` -- is checked here once per column; the rows stay a
        lazy :class:`~repro.model.match_block.ColumnBlock` until touched.
        """
        if not len(keys) == len(payloads) == len(starts) == len(ends):
            raise ValueError("column lengths differ")
        if not all(type(item) is tuple for column in (keys, payloads) for item in column):
            raise TypeError("key and payload columns must hold tuples")
        for arity in set(zip(map(len, keys), map(len, payloads))):
            self._check_arity(*arity)
        for column in (starts, ends):
            # A packed ``array('q')`` (what the shard transport decodes
            # endpoints to) holds nothing but 64-bit ints by construction.
            packed = type(column) is array and column.typecode == "q"
            if not packed and not all(type(chronon) is int for chronon in column):
                raise TypeError("start and end columns must hold int chronons")
        if keys and not (BEGINNING <= min(starts) and max(ends) <= FOREVER):
            raise ValueError("chronon outside representable time-line")
        if any(end < start for start, end in zip(starts, ends)):
            raise ValueError("an interval's end precedes its start")
        self.append_block(ColumnBlock(keys, payloads, starts, ends))

    def extend(self, tuples: Iterable[VTTuple]) -> None:
        """Append every tuple in *tuples* with validation."""
        for tup in tuples:
            self.add(tup)

    # -- container protocol --------------------------------------------------

    def __iter__(self) -> Iterator[VTTuple]:
        return iter(self._tuples)

    def __len__(self) -> int:
        return sum(map(len, self._chunks))

    def __contains__(self, tup: object) -> bool:
        return tup in self._tuples

    def __repr__(self) -> str:
        return f"ValidTimeRelation({self.schema.name!r}, {len(self)} tuples)"

    @property
    def tuples(self) -> Tuple[VTTuple, ...]:
        """Immutable snapshot of the current contents."""
        return tuple(self._tuples)

    # -- temporal queries -----------------------------------------------------

    def lifespan(self) -> Optional[Lifespan]:
        """The relation lifespan: hull of all tuple timestamps (None if empty)."""
        return lifespan_of(tup.valid for tup in self._tuples)

    def endpoint_sorted(self) -> bool:
        """True when tuples iterate in ``(start, end)`` order.

        The forward-scan sweep (:mod:`repro.exec.forward_sweep`) consumes
        endpoint-sorted inputs without a sort pass; bulk-loading this
        relation preserves the property as heap-file metadata
        (:attr:`~repro.storage.heapfile.HeapFile.endpoint_sorted`).  An
        empty relation is trivially sorted.
        """
        rows = self._tuples
        return spans_sorted((tup.vs for tup in rows), (tup.ve for tup in rows), None)

    def overlapping(self, interval: Interval) -> Iterator[VTTuple]:
        """Iterate over tuples whose validity overlaps *interval*."""
        return (tup for tup in self._tuples if tup.valid.overlaps(interval))

    def timeslice(self, chronon: int) -> List[Tuple]:
        """The snapshot state at *chronon*: explicit attribute rows, no timestamps.

        This is the timeslice operator ``tau_t``; the snapshot-reducibility
        property tests use it to check that timeslice commutes with the join.
        """
        return [
            tup.key + tup.payload
            for tup in self._tuples
            if tup.valid.contains_chronon(chronon)
        ]

    # -- grouping helpers ------------------------------------------------------

    def group_by_key(self) -> Dict[Tuple, List[VTTuple]]:
        """Group tuples by their explicit join-attribute values."""
        groups: Dict[Tuple, List[VTTuple]] = {}
        for tup in self._tuples:
            groups.setdefault(tup.key, []).append(tup)
        return groups

    def sorted_by(self, sort_key: Callable[[VTTuple], Tuple]) -> "ValidTimeRelation":
        """A copy of this relation with tuples ordered by *sort_key*."""
        return ValidTimeRelation.over(self.schema, sorted(self._tuples, key=sort_key))

    def sorted_by_vs(self) -> "ValidTimeRelation":
        """A copy sorted on valid-time start (the sort-merge baseline order)."""
        return self.sorted_by(lambda tup: (tup.vs, tup.ve, tup.key))

    # -- multiset comparison ----------------------------------------------------

    def as_multiset(self) -> Dict[VTTuple, int]:
        """Contents as a tuple -> multiplicity map (order-insensitive equality)."""
        counts: Dict[VTTuple, int] = {}
        for tup in self._tuples:
            counts[tup] = counts.get(tup, 0) + 1
        return counts

    def multiset_equal(self, other: "ValidTimeRelation") -> bool:
        """True when both relations hold the same tuples with the same counts."""
        return self.as_multiset() == other.as_multiset()
