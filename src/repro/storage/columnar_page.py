"""Zero-copy columnar pages: a fixed binary column layout for heap pages.

The PR-3 profile showed the sweep's wall-clock dominated not by charged I/O
(already optimal at 1.0x) but by per-tuple Python work the paper never
models: every page read re-decomposes its tuples into
:class:`~repro.exec.batch.PageBatch` columns through list comprehensions.
A :class:`ColumnarPage` removes that loop from the read path by storing the
page *already decomposed*:

* the start and end chronons live in one packed little-endian ``int64``
  buffer, so the batch columns become ``np.frombuffer`` views over the page
  bytes -- zero copies, zero per-tuple work;
* the join keys (arbitrary Python tuples, unpackable into a numeric
  column) are stored as **relation-local codes** against the owning file's
  :class:`KeyDictionary`; the probe side translates codes to join-wide
  interner ids with one vectorized gather through a per-dictionary table
  (see :class:`~repro.exec.batch.CodeTranslator`) instead of a dict lookup
  per tuple;
* payloads stay as Python tuples, untouched until a row is *emitted* --
  tuple materialization is deferred to result emission, and materialized
  rows are memoized so a row matched many times is built once.

A columnar page is an immutable :class:`~typing.Sequence` of
:class:`~repro.model.vtuple.VTTuple`, so every tuple-at-a-time consumer
(the oracle engine, migration, ``all_tuples``) sees exactly the tuples a
list page would hold -- bit-identical results are a structural property,
not a re-derivation.  ``repr`` is content-based and deterministic, which is
all the checksumming disk (``page_checksum``) needs.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.model.vtuple import VTTuple, trusted_tuple
from repro.time.interval import Interval, trusted_interval


class KeyDictionary:
    """Dense key <-> code map owned by one heap file (relation-local).

    Codes are assigned in first-seen order at *write* time, so a file's
    dictionary is a pure function of its tuple sequence -- two identically
    loaded files build identical dictionaries, keeping every downstream
    computation deterministic.
    """

    __slots__ = ("keys", "_codes")

    def __init__(self) -> None:
        self.keys: List[Tuple] = []
        self._codes: Dict[Tuple, int] = {}

    def __len__(self) -> int:
        return len(self.keys)

    def code(self, key: Tuple) -> int:
        """Code of *key*, assigning the next dense code on first sight."""
        found = self._codes.get(key)
        if found is None:
            found = len(self.keys)
            self._codes[key] = found
            self.keys.append(key)
        return found

    def key(self, code: int) -> Tuple:
        """The key stored under *code*."""
        return self.keys[code]


class ColumnarPage(Sequence):
    """One heap page in packed columnar form.

    The binary layout is three little-endian ``int64`` runs -- starts, ends,
    key codes, each ``n`` values -- in one ``bytes`` buffer, plus the Python
    payload tuples.  The buffer is immutable, so column views can be handed
    out without defensive copies and the page can be shared freely between
    the disk, the prefetch cache, and the probe engines.
    """

    __slots__ = ("_buf", "_n", "dictionary", "payloads", "_materialized", "_view")

    def __init__(
        self,
        buf: bytes,
        n: int,
        dictionary: KeyDictionary,
        payloads: Tuple[Tuple, ...],
    ) -> None:
        self._buf = buf
        self._n = n
        self.dictionary = dictionary
        self.payloads = payloads
        self._materialized: Optional[List[Optional[VTTuple]]] = None
        self._view = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_tuples(
        cls, tuples: Sequence[VTTuple], dictionary: KeyDictionary
    ) -> "ColumnarPage":
        """Pack *tuples* into the binary column layout.

        The per-tuple work happens here, once, on the write path; every
        later read gets the columns for free.
        """
        code = dictionary.code
        intervals = [tup.valid for tup in tuples]
        columns = array("q")
        columns.extend([valid.start for valid in intervals])
        columns.extend([valid.end for valid in intervals])
        columns.extend([code(tup.key) for tup in tuples])
        return cls(
            columns.tobytes(),
            len(tuples),
            dictionary,
            tuple(tup.payload for tup in tuples),
        )

    # -- column views (zero-copy) -------------------------------------------

    @property
    def n_rows(self) -> int:
        return self._n

    def starts_view(self):
        """``np.int64`` view of the start chronons over the page buffer."""
        return np.frombuffer(self._buf, dtype="<i8", count=self._n)

    def ends_view(self):
        """``np.int64`` view of the end chronons over the page buffer."""
        return np.frombuffer(self._buf, dtype="<i8", count=self._n, offset=8 * self._n)

    def codes_view(self):
        """``np.int64`` view of the relation-local key codes."""
        return np.frombuffer(
            self._buf, dtype="<i8", count=self._n, offset=16 * self._n
        )

    def starts_list(self) -> List[int]:
        """Start chronons as a plain list (for per-row loops)."""
        return memoryview(self._buf).cast("q")[: self._n].tolist()

    def ends_list(self) -> List[int]:
        """End chronons as a plain list (for per-row loops)."""
        return memoryview(self._buf).cast("q")[self._n : 2 * self._n].tolist()

    def codes_list(self) -> List[int]:
        """Key codes as a plain list (for per-row loops)."""
        return memoryview(self._buf).cast("q")[2 * self._n : 3 * self._n].tolist()

    @property
    def nbytes(self) -> int:
        """Size of the packed column buffer (payloads excluded)."""
        return len(self._buf)

    # -- deferred tuple materialization ---------------------------------------

    def _cast(self):
        """The buffer as one cached ``int64`` memoryview (starts|ends|codes)."""
        view = self._view
        if view is None:
            view = self._view = memoryview(self._buf).cast("q")
        return view

    def span(self, index: int) -> Interval:
        """The valid-time interval of row *index*, without the tuple.

        For consumers that never look at keys or payloads (the planner's
        sampling); cheaper than :meth:`row` by the whole tuple build.
        """
        view = self._cast()
        return trusted_interval(view[index], view[self._n + index])

    def row(self, index: int) -> VTTuple:
        """Materialize row *index* (memoized: matched-many rows build once)."""
        if index < 0:
            index += self._n
        if not 0 <= index < self._n:
            raise IndexError(f"row {index} out of range for {self._n}-row page")
        cache = self._materialized
        if cache is None:
            cache = self._materialized = [None] * self._n
        tup = cache[index]
        if tup is None:
            view = self._cast()
            # Every value in the buffer was validated at pack time.
            tup = trusted_tuple(
                self.dictionary.key(view[2 * self._n + index]),
                self.payloads[index],
                view[index],
                view[self._n + index],
            )
            cache[index] = tup
        return tup

    def tuples(self) -> List[VTTuple]:
        """Every row materialized, in page order (memoized like :meth:`row`).

        Decodes the three columns in bulk (one cached cast, three C-level
        ``tolist`` slices) instead of touching the memoryview per row -- the
        full-page path every scan loop hits.
        """
        n = self._n
        if n == 0:
            return []
        cache = self._materialized
        if cache is not None and cache[-1] is not None and None not in cache:
            return list(cache)
        view = self._cast()
        starts = view[:n].tolist()
        ends = view[n : 2 * n].tolist()
        codes = view[2 * n : 3 * n].tolist()
        keys = self.dictionary.keys
        build = trusted_tuple
        if cache is None:
            rows = [
                build(keys[c], p, s, e)
                for s, e, c, p in zip(starts, ends, codes, self.payloads)
            ]
        else:
            rows = [
                cached
                if cached is not None
                else build(keys[c], p, s, e)
                for cached, s, e, c, p in zip(
                    cache, starts, ends, codes, self.payloads
                )
            ]
        self._materialized = rows
        return list(rows)

    # -- sequence protocol ----------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self.row(i) for i in range(*index.indices(self._n))]
        return self.row(index)

    def __iter__(self) -> Iterator[VTTuple]:
        if self._n == 0:
            return iter(())
        cache = self._materialized
        if cache is None or cache[-1] is None or None in cache:
            self.tuples()
            cache = self._materialized
        return iter(cache)

    def __repr__(self) -> str:
        # Content-based and deterministic: the checksumming disk hashes
        # ``repr(payload)``, so this must be a pure function of the rows.
        return f"ColumnarPage({self.tuples()!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ColumnarPage):
            return self.tuples() == other.tuples()
        if isinstance(other, (list, tuple)):
            return self.tuples() == list(other)
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    __hash__ = None  # mutable memoization cache; never used as a dict key


def page_view(payload: object):
    """A safe caller-facing view of a stored page payload.

    List payloads are copied (callers may extend/mutate their copy);
    columnar pages are immutable and handed out as-is -- that unshared
    ``list(...)`` copy is exactly the per-read cost this layout removes.
    """
    if isinstance(payload, ColumnarPage):
        return payload
    return list(payload)


__all__ = ["ColumnarPage", "KeyDictionary", "page_view"]
