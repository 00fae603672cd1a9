"""Graceful degradation: keep answering when the planned evaluation cannot.

Two mechanisms, both reporting through the layout's
:class:`~repro.resilience.report.ResilienceReport`:

* **Mid-sweep buffer reduction** (:class:`BufferReduction`): the memory
  budget shrinks while the sweep runs (another workload claimed pages).
  The sweep shrinks its outer area at the given position and routes the
  excess through the Section 3.4 overflow-block machinery -- correctness
  preserved, performance degraded, exactly the paper's overflow promise.
* **Nested-loop fallback** (:func:`fallback_nested_loop_join`): a page
  failed permanently (retry policy exhausted), so partition files on the
  damaged device cannot be trusted.  The join re-runs as a block nested
  loop over *fresh placements of the base relations*, which sidesteps every
  temporary file.  Expensive -- quadratic in the smaller relation's blocks
  -- but it only needs one buffer-sized block plus one page at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.joiner import JoinOutcome, natural_pair
from repro.model.relation import ValidTimeRelation
from repro.storage.layout import DiskLayout


@dataclass(frozen=True)
class BufferReduction:
    """A scheduled mid-sweep shrink of the memory budget.

    Attributes:
        at_position: sweep step (0-based, in sweep order) from which the
            reduced budget applies.
        buff_size: outer-area pages available from that step on.
    """

    at_position: int
    buff_size: int

    def __post_init__(self) -> None:
        if self.at_position < 0:
            raise ValueError(f"at_position must be >= 0, got {self.at_position}")
        if self.buff_size < 1:
            raise ValueError(f"reduced buff_size must be >= 1, got {self.buff_size}")


def fallback_nested_loop_join(
    r: ValidTimeRelation,
    s: ValidTimeRelation,
    buff_size: int,
    layout: DiskLayout,
    result_schema,
    *,
    collect: bool,
) -> JoinOutcome:
    """Block nested-loop valid-time join over fresh base placements.

    The outer relation is read a *block* (``buff_size`` pages) at a time;
    for each block the whole inner relation streams through one page.  Pairs
    are matched on key equality and interval overlap -- no partition
    ownership filter is needed because each pair co-resides exactly once.
    Emission order is (outer block, inner page, inner row, outer row), which
    differs from the sweep's; callers comparing against it sort first.

    Charged under its own ``"degraded-join"`` phase on the layout's tracker.
    """
    r_file = layout.place_relation(r)
    s_file = layout.place_relation(s)
    result_file = layout.result_file("fallback_result")
    collected = ValidTimeRelation(result_schema) if collect else None
    outcome = JoinOutcome(result=collected)
    spec = layout.spec
    block_tuples = max(1, buff_size * spec.capacity)

    layout.disk.park_heads()
    with layout.tracker.phase("degraded-join"):
        block_starts = list(range(0, max(r_file.n_pages, 1), max(1, buff_size)))
        for block_start in block_starts:
            block = []
            for page_index in range(
                block_start, min(block_start + buff_size, r_file.n_pages)
            ):
                block.extend(r_file.read_page(page_index))
            if not block and r_file.n_pages > 0:
                continue
            probe = {}
            for tup in block:
                probe.setdefault(tup.key, []).append(tup)
            for page in s_file.scan_pages():
                for inner_tup in page:
                    for outer_tup in probe.get(inner_tup.key, ()):
                        common = outer_tup.valid.intersect(inner_tup.valid)
                        if common is None:
                            continue
                        joined = natural_pair(outer_tup, inner_tup, common)
                        outcome.n_result_tuples += 1
                        layout.write_result(result_file, joined)
                        if collected is not None:
                            collected.add(joined)
            layout.disk.park_heads()
        result_file.flush()
    return outcome
