"""Columnar batches: the unit of work of the vectorized kernels.

A :class:`PageBatch` is a page of tuples -- or a *run* of pages, what the
sweep probes at once -- decomposed into parallel columns: interned key ids,
start chronons, end chronons, and row indices back into the original tuple
list.  It is built **once per run** as the pages pass through memory;
every kernel then operates on whole columns instead of revisiting each
tuple.

Keys are arbitrary Python tuples (the explicit join attributes), so they
cannot live in a numeric column directly.  A :class:`KeyInterner` maps each
distinct key to a small integer id; the build side of a join *interns*
(assigns fresh ids), the probe side *looks up* (unknown keys map to ``-1``
and can never match, which is exactly the hash-join semantics of
``probe_index.get(key, ())``).
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.model.vtuple import VTTuple


class KeyInterner:
    """Bidirectional key <-> dense-integer-id map shared across batches.

    The concrete id *values* never influence join results -- match sets are
    id-agnostic and emission order is restored by a final row-index sort.
    A relation version's dictionary (the ``keys`` of its
    :meth:`~repro.model.relation.ValidTimeRelation.columns`) is one,
    read-only once built; a join's interner starts as a :meth:`copy` of
    its outer relation's and grows from there.
    """

    __slots__ = ("_ids",)

    def __init__(self) -> None:
        self._ids: Dict[Tuple, int] = {}

    def __len__(self) -> int:
        return len(self._ids)

    def intern(self, key: Tuple) -> int:
        """Id of *key*, assigning the next dense id on first sight."""
        ids = self._ids
        found = ids.get(key)
        if found is None:
            found = ids[key] = len(ids)
        return found

    def lookup(self, key: Tuple) -> int:
        """Id of *key*, or ``-1`` when the key was never interned."""
        return self._ids.get(key, -1)

    def keys_in_id_order(self) -> List[Tuple]:
        """Every interned key, ordered by assigned id (snapshot copy)."""
        return list(self._ids)

    def copy(self) -> "KeyInterner":
        """These ids in an interner of their own, to grow."""
        copied = KeyInterner()
        copied._ids = dict(self._ids)
        return copied

    def grown(self, keys: Iterable[Tuple]) -> "KeyInterner":
        """These ids plus every key of *keys*: this interner when it knows
        them all, else a copy that learnt the rest (one in use is never
        written to)."""
        grown = self.copy()
        for key in keys:
            grown.intern(key)
        return grown if len(grown) > len(self) else self


class RowRefs(SequenceABC):
    """Rows named by their positions (a ``range``, else ``int64``) in one
    object array *source* they were boxed into once (a relation version's,
    :meth:`~repro.model.relation.ValidTimeRelation.columns`): a carried row
    moves as an int.  Slicing, :meth:`take`, :meth:`without` and a
    one-source :meth:`concat` move positions only.  It iterates, reprs and
    compares as the list it names, read by :meth:`tolist` -- the one place
    rows are fetched together; a stored page cut from it is that list
    (:meth:`page`).  It has no ``+``: buffers grow by :func:`extended`.
    """

    __slots__ = ("source", "positions")

    def __init__(self, source: np.ndarray, positions=None) -> None:
        self.source = source
        self.positions = range(len(source)) if positions is None else positions

    @classmethod
    def of(cls, rows: Sequence[VTTuple]) -> "RowRefs":
        """*rows* as references: these as they are, any other sequence boxed."""
        if isinstance(rows, RowRefs):
            return rows
        return cls(np.fromiter(rows, object, len(rows)))

    @classmethod
    def concat(cls, parts: Sequence[Sequence[VTTuple]]) -> "RowRefs":
        """*parts* -- references or plain rows -- one after another."""
        parts = [part for part in parts if len(part)]
        if len(parts) <= 1:
            return cls.of(parts[0] if parts else [])
        source = parts[0].source if isinstance(parts[0], RowRefs) else None
        if all(isinstance(part, RowRefs) and part.source is source for part in parts):
            return cls(parts[0].source, np.concatenate([part.array() for part in parts]))
        return cls(np.concatenate([cls.of(part).objects() for part in parts]))

    def array(self) -> np.ndarray:
        """The positions as an ``int64`` array."""
        at = self.positions
        return np.arange(at.start, at.stop, dtype=np.int64) if type(at) is range else at

    def objects(self) -> np.ndarray:
        """The rows named, as an object array (a view of a contiguous stretch)."""
        at = self.positions
        return self.source[at.start : at.stop] if type(at) is range else self.source.take(at)

    def tolist(self) -> List[VTTuple]:
        """The rows named, as a list."""
        return self.objects().tolist()

    def take(self, rows) -> "RowRefs":
        """The rows at the positions *rows* of this sequence, in order."""
        at = self.positions
        if type(at) is range:  # offset the positions; build no range-long column
            return RowRefs(self.source, np.asarray(rows, np.int64) * at.step + at.start)
        return RowRefs(self.source, at[rows])

    def without(self, rows: List[int]) -> "RowRefs":
        """This sequence less the rows at the ascending positions *rows*."""
        return RowRefs(self.source, np.delete(self.array(), rows)) if rows else self

    def __len__(self) -> int:
        return len(self.positions)

    def __getitem__(self, index):
        if not isinstance(index, slice):
            return self.source[self.positions[index]]
        if index.indices(len(self)) == (0, len(self), 1):
            return self  # immutable: the whole of it is itself
        at = self.positions[index]
        stepped = type(at) is range and at.step != 1
        return RowRefs(self.source, np.array(at, np.int64) if stepped else at)

    def __iter__(self) -> Iterator[VTTuple]:
        return iter(self.tolist())

    def __repr__(self) -> str:
        return repr(self.tolist())

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if isinstance(other, (RowRefs, list)) and (len(other) != len(self) or not len(self)):
            return len(other) == len(self)
        if isinstance(other, RowRefs):
            if other.source is self.source and np.array_equal(self.array(), other.array()):
                return True
            other = other.tolist()
        return self.tolist() == other

    __hash__ = None

    def page(self, lo: int, hi: int) -> List[VTTuple]:
        """Rows *lo* to *hi* as a stored page is read: a plain list."""
        return self[lo:hi].tolist()


def extended(rows: Sequence[VTTuple], more: Sequence[VTTuple]) -> Sequence[VTTuple]:
    """*rows* then *more*: *rows* extended in place while both are lists,
    else their :meth:`RowRefs.concat` -- how a buffer of rows grows."""
    if not len(more):
        return rows
    if type(rows) is list and type(more) is list:
        rows.extend(more)
        return rows
    return RowRefs.concat([rows, more])


class PageBatch:
    """One page of tuples in columnar form.

    Attributes:
        tuples: the page's tuples, in page order (kernels return row indices
            into this sequence; emission takes whole :class:`VTTuple`
            objects from it): a list as decomposed, or a
            :class:`RowRefs` on the carried path.
        key_ids: per-row interned key id (``-1`` = key unknown to the build
            side), or None when built without an interner.
        starts: per-row valid-time start chronon.
        ends: per-row valid-time end chronon.
        keys: the :class:`KeyInterner` that ``key_ids`` are ids of: a
            join's own, or a relation version's dictionary.

    Columns are numpy ``int64`` arrays.

    A batch is also how a row *keeps* its columns after its page has been
    split: the sweep slices, masks and concatenates batches (the methods
    below) to carry rows from one partition to the next instead of
    decomposing them again; they make ``tuples`` :class:`RowRefs`, so a
    carried row moves as its position.  Across files too: a heap file
    carries the batch of what was written to it
    (:attr:`~repro.storage.heapfile.HeapFile.carried`), and a scan takes a
    delivered page's columns from it once :meth:`matching` says so.
    """

    __slots__ = ("tuples", "key_ids", "starts", "ends", "keys")

    def __init__(self, tuples, key_ids, starts, ends, keys=None) -> None:
        self.tuples = tuples
        self.key_ids = key_ids
        self.starts = starts
        self.ends = ends
        self.keys = keys

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[VTTuple]:
        return iter(self.tuples)

    def __getitem__(self, index):
        """Row *index*, or for a slice the sub-batch (column views)."""
        if not isinstance(index, slice):
            return self.tuples[index]
        return self._sliced(self.tuples[index], index)

    def _sliced(self, tuples: List[VTTuple], index: slice) -> "PageBatch":
        key_ids = self.key_ids
        return PageBatch(
            tuples,
            None if key_ids is None else key_ids[index],
            self.starts[index],
            self.ends[index],
            self.keys,
        )

    def holds(self, start: int, rows: Sequence[VTTuple]) -> bool:
        """True when the rows from row *start* on equal *rows* (positions
        compared for references, else pointers, as :class:`RowRefs` does)."""
        return self.tuples[start : start + len(rows)] == rows

    def matching(self, start: int, rows: Sequence[VTTuple]) -> Optional["PageBatch"]:
        """The sub-batch from row *start* on if it :meth:`holds` *rows*.

        How a delivered page gets its columns back without a decomposition.
        None when the delivery differs from what is carried -- a torn page,
        a shifted offset -- and the caller must decompose *rows* itself.
        """
        part = self[start : start + len(rows)]
        return part if part.tuples == rows else None

    def overlapping(self, window: Tuple[float, float]) -> np.ndarray:
        """Rows whose interval overlaps the partition *window*, ascending, as
        an ``int64`` array (:meth:`~repro.exec.kernels.PartitionBoundaries.window`
        semantics, the whole-column form of ``Kernels.migration_rows``)."""
        lo, hi = window
        return np.flatnonzero((self.ends > lo) & (self.starts <= hi))

    def take(self, rows) -> "PageBatch":
        """The sub-batch of *rows* (a list or an index array), in order."""
        at = np.asarray(rows, dtype=np.int64)
        gathered = [
            None if column is None else column[at]
            for column in (self.key_ids, self.starts, self.ends)
        ]
        return PageBatch(RowRefs.of(self.tuples).take(at), *gathered, self.keys)

    def without(self, rows: List[int]) -> "PageBatch":
        """This batch less the rows at the ascending positions *rows*."""

        def less(column):
            if column is None or not rows:
                return column
            return np.delete(column, rows)

        refs = RowRefs.of(self.tuples).without(rows)
        return PageBatch(refs, less(self.key_ids), less(self.starts), less(self.ends), self.keys)

    @classmethod
    def concat(cls, batches: Sequence["PageBatch"]) -> "PageBatch":
        """*batches* (at least one) as one batch, in order; the last one's
        ``keys`` must know every id (:meth:`KeyInterner.grown`)."""
        first = batches[0]
        if len(batches) == 1:
            return first
        return cls(
            RowRefs.concat([batch.tuples for batch in batches]),
            None if first.key_ids is None else np.concatenate([b.key_ids for b in batches]),
            np.concatenate([batch.starts for batch in batches]),
            np.concatenate([batch.ends for batch in batches]),
            batches[-1].keys,
        )

    @classmethod
    def from_tuples(
        cls,
        tuples: Sequence[VTTuple],
        interner: Optional[KeyInterner] = None,
        *,
        intern: bool = False,
    ) -> "PageBatch":
        """Decompose *tuples* into columns.

        Args:
            tuples: the page (any tuple sequence works; pages are typical).
            interner: key dictionary shared with the other batches of the
                join; omit when key columns are not needed.
            intern: assign fresh ids for unseen keys (build side) instead of
                mapping them to ``-1`` (probe side).
        """
        key_ids: Optional[Sequence[int]]
        if interner is None:
            key_ids = None
        else:
            # ``lookup`` inlined: one dict probe per row, no method frame.
            get = interner._ids.get
            key_ids = [get(tup.key, -1) for tup in tuples]
            if intern and -1 in key_ids:
                intern_one = interner.intern
                key_ids = [
                    intern_one(tup.key) if key_id < 0 else key_id
                    for tup, key_id in zip(tuples, key_ids)
                ]
        # Every column is int64 even when the page is empty, so downstream
        # concatenation/sorting never sees a stray float64 from ``np.array([])``.
        starts = np.array([tup.valid.start for tup in tuples], dtype=np.int64)
        ends = np.array([tup.valid.end for tup in tuples], dtype=np.int64)
        if key_ids is not None:
            key_ids = np.array(key_ids, dtype=np.int64)
        return cls(list(tuples), key_ids, starts, ends, interner)

    @classmethod
    def keyed(cls, tuples: List[VTTuple], keys=None, starts=None, ends=None) -> "PageBatch":
        """*tuples* -- boxed once, as :class:`RowRefs` -- split against a
        dictionary of their own (``batch.keys``).  Given the rows' *keys*,
        *starts* and *ends* columns, no row is read."""
        dictionary, refs = KeyInterner(), RowRefs.of(tuples)
        if keys is None:
            batch = cls.from_tuples(tuples, dictionary, intern=True)
            return cls(refs, batch.key_ids, batch.starts, batch.ends, dictionary)
        columns = (list(map(dictionary.intern, keys)), starts, ends)
        return cls(refs, *(np.array(column, np.int64) for column in columns), dictionary)
