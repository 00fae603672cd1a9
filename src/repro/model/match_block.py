"""Lazy row blocks: result rows known by their columns, built on first touch.

The batch engine knows a run's matches as four columns -- the matched outer
row, the matched inner row, and the overlap's ``starts | ends`` -- long
before anyone needs a :class:`~repro.model.vtuple.VTTuple` per match.  A
:class:`MatchBlock` keeps exactly that; the result heap file stores page-sized
slices of it and the collected :class:`~repro.model.relation.ValidTimeRelation`
appends it whole, both in O(1) per block.  Rows are built -- through the
trusted constructors, every value having passed the validating ones when the
inputs were built -- only when something iterates or indexes the block, once,
and shared by every holder of the block.

A block holds the *matched* rows, never the pages or outer block they came
from, so a cached result that outlives its disk layout pins O(result rows).

:class:`ColumnBlock` is the same thing for rows that arrive as ``keys |
payloads | starts | ends`` (a shard's answer): validated column-wise by
:meth:`ValidTimeRelation.append_columns`, built on first touch.

**Sharing.**  A cached result is read by several sessions at once.
:meth:`LazyRows.rows` builds its list aside and publishes it with one
assignment: a reader sees no list or the finished one, never a partial one.
Two racing readers may both build; both lists hold equal rows and either
wins.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Iterator, List, Optional, Tuple

from repro.model.vtuple import VTTuple, trusted_tuple
from repro.time.interval import Interval, trusted_interval


def _as_list(column) -> list:
    """A column as a plain list (numpy and ``array`` columns convert in one C call)."""
    return column if isinstance(column, list) else column.tolist()


def spans_sorted(starts, ends, last: Optional[Tuple[int, int]]) -> bool:
    """True when the rows of two endpoint columns continue a ``(start,
    end)``-sorted sequence whose latest span is *last* (None: nothing
    precedes them).  Lists stop at the first violation; arrays compare whole."""
    if not hasattr(starts, "shape"):  # lists, packed arrays, any iterable
        for span in zip(starts, ends):
            if last is not None and span < last:
                return False
            last = span
        return True
    if len(starts) == 0:
        return True
    if last is not None and (starts[0], ends[0]) < last:
        return False
    rise, tie = starts[1:] > starts[:-1], starts[1:] == starts[:-1]
    return bool((rise | (tie & (ends[1:] >= ends[:-1]))).all())


class LazyRows(Sequence):
    """An immutable row sequence whose tuples are built once, on first touch.

    Subclasses hold the columns and implement :meth:`_build`,
    :meth:`columns` and :meth:`arity`.  ``starts``/``ends`` are ``int64``
    arrays from the batch engine, packed ``array('q')`` when they came off
    the shard wire, or any other integer sequence.
    """

    __slots__ = ("starts", "ends", "_rows")

    def __init__(self, starts, ends) -> None:
        self.starts = starts
        self.ends = ends
        self._rows: Optional[List[VTTuple]] = None

    def _build(self) -> List[VTTuple]:
        raise NotImplementedError

    def columns(self) -> Tuple[List[Tuple], List[Tuple], List[int], List[int]]:
        """``(keys, payloads, starts, ends)`` as lists, no tuple built."""
        raise NotImplementedError

    def arity(self) -> Tuple[int, int]:
        """``(key arity, payload arity)`` of the first row (block not empty)."""
        raise NotImplementedError

    @property
    def materialized(self) -> bool:
        return self._rows is not None

    def rows(self) -> List[VTTuple]:
        """Every row, in block order (memoized; see the module docstring)."""
        rows = self._rows
        if rows is None:
            rows = self._build()
            self._rows = rows
        return rows

    def spans_sorted(self, last: Optional[Tuple[int, int]]) -> bool:
        """:func:`spans_sorted` of this block's rows."""
        return spans_sorted(self.starts, self.ends, last)

    def last_span(self) -> Tuple[int, int]:
        return int(self.starts[-1]), int(self.ends[-1])

    # -- sequence protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, index):
        return self.rows()[index]

    def __iter__(self) -> Iterator[VTTuple]:
        return iter(self.rows())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self)} rows)"


class MatchBlock(LazyRows):
    """One run's natural-join matches: row ``t`` is ``left[t].key``,
    ``left[t].payload + right[t].payload``, ``[starts[t], ends[t]]``.

    *left* and *right* are parallel sequences of the matched input rows
    (object arrays under numpy, lists without).
    """

    __slots__ = ("left", "right")

    def __init__(self, left: Sequence[VTTuple], right: Sequence[VTTuple], starts, ends):
        super().__init__(starts, ends)
        self.left = left
        self.right = right

    def flipped(self) -> "MatchBlock":
        """The same matches with the payload order reversed."""
        return MatchBlock(self.right, self.left, self.starts, self.ends)

    def _lists(self) -> Tuple[list, list, list, list]:
        """``(left, right, starts, ends)`` as plain lists."""
        return (
            _as_list(self.left),
            _as_list(self.right),
            _as_list(self.starts),
            _as_list(self.ends),
        )

    def pairs(self) -> Iterator[Tuple[VTTuple, VTTuple, Interval]]:
        """``(left row, right row, overlap)`` per match: the triples the
        tuple engine hands back, to compare a block with them."""
        for x, y, start, end in zip(*self._lists()):
            yield x, y, trusted_interval(start, end)

    def _build(self) -> List[VTTuple]:
        return [
            trusted_tuple(x.key, x.payload + y.payload, start, end)
            for x, y, start, end in zip(*self._lists())
        ]

    def columns(self):
        left, right, starts, ends = self._lists()
        return (
            [x.key for x in left],
            [x.payload + y.payload for x, y in zip(left, right)],
            starts,
            ends,
        )

    def arity(self) -> Tuple[int, int]:
        x, y = self.left[0], self.right[0]
        return len(x.key), len(x.payload) + len(y.payload)


class ColumnBlock(LazyRows):
    """Rows held as ``keys | payloads | starts | ends`` columns."""

    __slots__ = ("keys", "payloads")

    def __init__(self, keys: List[Tuple], payloads: List[Tuple], starts, ends) -> None:
        super().__init__(starts, ends)
        self.keys = keys
        self.payloads = payloads

    def _build(self) -> List[VTTuple]:
        return list(
            map(trusted_tuple, self.keys, self.payloads,
                _as_list(self.starts), _as_list(self.ends))
        )

    def columns(self):
        return self.keys, self.payloads, _as_list(self.starts), _as_list(self.ends)

    def arity(self) -> Tuple[int, int]:
        return len(self.keys[0]), len(self.payloads[0])
