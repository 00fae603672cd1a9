"""Block nested-loop evaluation of the valid-time natural join.

The classic fallback the paper's introduction warns about: without better
structure, joining is "tantamount to computing the Cartesian product of the
input relations".  Block nested loops softens the quadratic page cost by
holding as large a block of the outer relation in memory as fits
(``memory - 2`` pages: one page for the inner relation, one for the
result) and scanning the inner relation once per block.

Long-lived tuples do not affect this algorithm's I/O at all (Section 4.3
includes it "for completeness" as a flat line), which the experiments
confirm.  In-memory matching uses a hash index on the explicit join
attributes -- in-memory operations are outside the paper's cost model.

The in-memory matching also routes through the batch kernels when
``execution="batch"``: the same key-equality probe and interval
intersection that accelerate the partition sweep apply unchanged here
(there is no partition map, so the owner filter is simply skipped), which
is the point of a shared kernel layer -- every block-probe algorithm in
the library targets one API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.exec import EXECUTION_MODES
from repro.model.errors import PlanError
from repro.model.relation import ValidTimeRelation
from repro.model.vtuple import VTTuple, join_tuples
from repro.storage.layout import DiskLayout
from repro.storage.page import PageSpec


@dataclass
class NestedLoopResult:
    """Result and bookkeeping of a nested-loop join run."""

    result: Optional[ValidTimeRelation]
    n_result_tuples: int
    n_outer_blocks: int
    layout: DiskLayout


def nested_loop_join(
    r: ValidTimeRelation,
    s: ValidTimeRelation,
    memory_pages: int,
    *,
    page_spec: Optional[PageSpec] = None,
    layout: Optional[DiskLayout] = None,
    collect_result: bool = True,
    execution: str = "tuple",
) -> NestedLoopResult:
    """Evaluate ``r JOIN_V s`` by block nested loops over the simulated disk.

    Args:
        r: outer relation (blocked in memory).
        s: inner relation (scanned once per outer block).
        memory_pages: total buffer pages; the outer block gets
            ``memory_pages - 2``.
        page_spec: page geometry (defaults to the library default).
        layout: pass to accumulate statistics across operations.
        collect_result: materialize the result relation in memory.
        execution: ``"tuple"`` for the classic loop, ``"batch"`` for the
            batch kernels.  I/O is unaffected either way: only in-memory
            matching changes.
    """
    if memory_pages < 3:
        raise PlanError(f"nested loops needs >= 3 buffer pages, got {memory_pages}")
    if execution not in EXECUTION_MODES:
        raise PlanError(f"execution must be one of {EXECUTION_MODES}, got {execution!r}")
    result_schema = r.schema.join_result_schema(s.schema)
    if layout is None:
        layout = DiskLayout(spec=page_spec if page_spec is not None else PageSpec())

    r_file = layout.place_relation(r)
    s_file = layout.place_relation(s)
    result_file = layout.result_file("nl_result")
    collected = ValidTimeRelation(result_schema) if collect_result else None

    batched = execution != "tuple"
    if batched:
        from repro.exec.kernels import get_kernels

        kernels = get_kernels()
        interner = kernels.make_interner()

    block_pages = memory_pages - 2
    n_result = 0
    n_blocks = 0
    with layout.tracker.phase("join"):
        for block_start in range(0, r_file.n_pages, block_pages):
            n_blocks += 1
            block: List[VTTuple] = []
            block_end = min(block_start + block_pages, r_file.n_pages)
            for page_index in range(block_start, block_end):
                block.extend(r_file.read_page(page_index))
            if batched:
                batch_index = kernels.build_probe_index(block, interner)
            else:
                probe_index: Dict[Tuple, List[VTTuple]] = {}
                for tup in block:
                    probe_index.setdefault(tup.key, []).append(tup)
            for page in s_file.scan_pages():
                if batched:
                    # No partition map: key probe + intersection only.
                    matches = kernels.probe(
                        batch_index, kernels.page_batch(page, interner)
                    )
                    joined_tuples = [
                        VTTuple(outer.key, outer.payload + inner.payload, common)
                        for outer, inner, common in matches
                    ]
                else:
                    joined_tuples = [
                        joined
                        for inner_tup in page
                        for outer_tup in probe_index.get(inner_tup.key, ())
                        if (joined := join_tuples(outer_tup, inner_tup)) is not None
                    ]
                for joined in joined_tuples:
                    n_result += 1
                    layout.write_result(result_file, joined)
                    if collected is not None:
                        collected.add(joined)
    result_file.flush()
    return NestedLoopResult(
        result=collected,
        n_result_tuples=n_result,
        n_outer_blocks=n_blocks,
        layout=layout,
    )
