"""An independent oracle for the valid-time natural join.

A per-key forward-scan plane sweep over ``(key, payload, start, end)`` rows
in pure Python.  It shares no code with the system under test: this module
imports only the standard library, so an oracle verdict can never be a
program bug agreeing with itself.

Two rows join when their keys are equal and their closed intervals share a
chronon; the result row carries the key, both payloads, and the
intersection.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import Dict, Iterable, List, Tuple

Row = Tuple[Tuple, Tuple, int, int]  # (key, payload, start, end)

_BY_START = itemgetter(1)


def _group_by_key(rows: Iterable[Row]) -> Dict[Tuple, List[Tuple[Tuple, int, int]]]:
    groups: Dict[Tuple, List[Tuple[Tuple, int, int]]] = {}
    for key, payload, start, end in rows:
        groups.setdefault(key, []).append((payload, start, end))
    for group in groups.values():
        group.sort(key=_BY_START)
    return groups


def natural_join(r_rows: Iterable[Row], s_rows: Iterable[Row]) -> Counter:
    """The result multiset of ``r JOIN_V s`` as a ``Counter`` of rows.

    Within one key both sides are sorted by start and swept once: the side
    whose next interval starts first is paired with every interval of the
    other side that starts before it ends.  Every inspected pair overlaps,
    so the sweep costs ``O(n log n + results)``.
    """
    r_groups = _group_by_key(r_rows)
    s_groups = _group_by_key(s_rows)
    result: Counter = Counter()
    for key, r_list in r_groups.items():
        s_list = s_groups.get(key)
        if s_list is None:
            continue
        i = j = 0
        n_r, n_s = len(r_list), len(s_list)
        while i < n_r and j < n_s:
            r_payload, r_start, r_end = r_list[i]
            s_payload, s_start, s_end = s_list[j]
            if r_start <= s_start:
                k = j
                while k < n_s and s_list[k][1] <= r_end:
                    other_payload, other_start, other_end = s_list[k]
                    result[
                        (key, r_payload + other_payload, other_start, min(r_end, other_end))
                    ] += 1
                    k += 1
                i += 1
            else:
                k = i
                while k < n_r and r_list[k][1] <= s_end:
                    other_payload, other_start, other_end = r_list[k]
                    result[
                        (key, other_payload + s_payload, other_start, min(s_end, other_end))
                    ] += 1
                    k += 1
                j += 1
    return result
