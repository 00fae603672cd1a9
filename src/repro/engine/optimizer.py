"""Analytical join-cost estimates and the cost-based algorithm chooser.

The estimates mirror each algorithm's pass structure under the simulator's
accounting; they are *planning* estimates (catalog statistics only: page
counts and an optional long-lived fraction), deliberately coarse the way a
1994 optimizer's would be:

* **nested loops** -- the paper's own closed form
  (:func:`repro.baselines.nested_loop_cost.nested_loop_cost`).
* **sort-merge** -- run formation + merge passes + the match scan, with a
  backing-up surcharge when long-lived pages are expected to exceed the
  match window.
* **partition join** -- a sampling pass (scan-capped), a partitioning
  read+write per relation, and the join-phase read, with a tuple-cache
  surcharge proportional to the long-lived fraction.

The chooser picks the minimum; ties favour the partition join (no sort
order or access-path maintenance, the paper's qualitative tie-breakers).
:func:`choose_method` is the same choice from two relations' catalog
statistics and the join predicate -- what ``method="auto"`` means in
:class:`~repro.engine.database.TemporalDatabase` and in both services.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.algebra.predicates import NATURAL_PREDICATE
from repro.baselines.nested_loop_cost import nested_loop_cost
from repro.storage.buffer import JoinBufferAllocation
from repro.storage.iostats import CostModel


@dataclass(frozen=True)
class JoinEstimate:
    """Catalog-level estimate for one algorithm."""

    algorithm: str
    cost: float
    note: str = ""


def estimate_costs(
    outer_pages: int,
    inner_pages: int,
    memory_pages: int,
    cost_model: CostModel,
    *,
    long_lived_fraction: float = 0.0,
    endpoint_sorted: Optional[Tuple[bool, bool]] = None,
) -> Dict[str, JoinEstimate]:
    """Estimated evaluation cost of every algorithm, by name.

    *endpoint_sorted* opts the forward-scan sweep into the comparison: pass
    the catalog's ``(outer_sorted, inner_sorted)`` flags and a ``"sweep"``
    entry is added (one sorted scan per input, plus the external-sort
    charge for each unsorted side).  The entry only appears when at least
    one flag is True: the simulator's single-run sort charge is optimistic
    next to a real multi-pass external sort at scarce memory, so
    fully-unsorted inputs never compete (matching
    :func:`repro.core.planner.choose_physical_operator`).  None -- the
    default, and what every pre-sweep caller passes -- leaves the estimate
    set unchanged.
    """
    if outer_pages < 0 or inner_pages < 0:
        raise ValueError("relation sizes must be non-negative")
    if not 0.0 <= long_lived_fraction <= 1.0:
        raise ValueError("long_lived_fraction must lie in [0, 1]")
    estimates = {
        "nested_loop": _nested_loop(outer_pages, inner_pages, memory_pages, cost_model),
        "sort_merge": _sort_merge(
            outer_pages, inner_pages, memory_pages, cost_model, long_lived_fraction
        ),
        "partition": _partition(
            outer_pages, inner_pages, memory_pages, cost_model, long_lived_fraction
        ),
    }
    if endpoint_sorted is not None and any(endpoint_sorted):
        from repro.core.planner import estimate_forward_sweep_cost

        outer_sorted, inner_sorted = endpoint_sorted
        sweep = estimate_forward_sweep_cost(
            outer_pages,
            inner_pages,
            cost_model,
            outer_sorted=outer_sorted,
            inner_sorted=inner_sorted,
        )
        note = (
            "sorted scan of each input"
            if sweep.c_sort == 0.0
            else f"sort charge {sweep.c_sort:.0f}"
        )
        estimates["sweep"] = JoinEstimate("sweep", sweep.total, note)
    return estimates


def choose_algorithm(
    outer_pages: int,
    inner_pages: int,
    memory_pages: int,
    cost_model: CostModel,
    *,
    long_lived_fraction: float = 0.0,
    endpoint_sorted: Optional[Tuple[bool, bool]] = None,
) -> str:
    """The estimated-cheapest algorithm (partition join wins ties).

    With *endpoint_sorted* flags the forward-scan sweep competes too, but
    must be strictly cheaper than every alternative -- ties keep the
    pre-sweep choice, so existing plans never shift on equal estimates.
    """
    estimates = estimate_costs(
        outer_pages,
        inner_pages,
        memory_pages,
        cost_model,
        long_lived_fraction=long_lived_fraction,
        endpoint_sorted=endpoint_sorted,
    )
    order = {"partition": 0, "sweep": 1, "sort_merge": 2, "nested_loop": 3}
    best = min(estimates.values(), key=lambda e: (e.cost, order[e.algorithm]))
    return best.algorithm


def choose_method(
    outer,
    inner,
    memory_pages: int,
    cost_model: CostModel,
    *,
    predicate: str = NATURAL_PREDICATE,
) -> str:
    """Resolve ``method="auto"`` from catalog statistics.

    Args:
        outer / inner: the inputs'
            :class:`~repro.engine.catalog.RelationStatistics`.
        predicate: the resolved join predicate name.  Only the forward
            sweep evaluates a non-intersection Allen predicate, so there is
            nothing to choose for those.
    """
    if predicate != NATURAL_PREDICATE:
        return "sweep"
    return choose_algorithm(
        outer.n_pages,
        inner.n_pages,
        memory_pages,
        cost_model,
        long_lived_fraction=inner.long_lived_fraction,
        endpoint_sorted=(outer.endpoint_sorted, inner.endpoint_sorted),
    )


def _nested_loop(
    outer_pages: int, inner_pages: int, memory_pages: int, model: CostModel
) -> JoinEstimate:
    cost = nested_loop_cost(outer_pages, inner_pages, memory_pages, model)
    blocks = math.ceil(outer_pages / max(1, memory_pages - 2))
    return JoinEstimate("nested_loop", cost, f"{blocks} inner scan(s)")


def _sort_passes(pages: int, memory_pages: int) -> int:
    """Data passes (each read + write) to fully sort *pages*."""
    if pages <= memory_pages:
        return 1  # single sorted run
    runs = math.ceil(pages / memory_pages)
    fan_in = max(2, memory_pages - 1)
    passes = 1
    while runs > 1:
        runs = math.ceil(runs / fan_in)
        passes += 1
    return passes


def _sort_merge(
    outer_pages: int,
    inner_pages: int,
    memory_pages: int,
    model: CostModel,
    long_lived_fraction: float,
) -> JoinEstimate:
    total_pages = outer_pages + inner_pages
    # Everything-fits shortcut: two linear scans.
    if total_pages <= memory_pages - 1:
        return JoinEstimate(
            "sort_merge",
            model.cost_of_run(outer_pages) + model.cost_of_run(inner_pages),
            "in-memory",
        )
    cost = 0.0
    for pages in (outer_pages, inner_pages):
        passes = _sort_passes(pages, memory_pages)
        cost += passes * 2 * model.cost_of_run(pages)  # read + write per pass
        cost += model.cost_of_run(pages)  # the match-phase read
    # Backing-up surcharge: if pages holding live long-lived tuples exceed
    # the window, each excess page is re-read once per outer page.
    live_pages = long_lived_fraction * inner_pages
    window = max(1, memory_pages - 2)
    excess = max(0.0, live_pages - window)
    cost += excess * outer_pages * model.io_seq
    return JoinEstimate("sort_merge", cost, f"backup excess ~{excess:.0f} pages")


def _partition(
    outer_pages: int,
    inner_pages: int,
    memory_pages: int,
    model: CostModel,
    long_lived_fraction: float,
) -> JoinEstimate:
    buff_size = JoinBufferAllocation(max(4, memory_pages)).buff_size
    if min(outer_pages, inner_pages) <= buff_size:
        return JoinEstimate(
            "partition",
            model.cost_of_run(outer_pages) + model.cost_of_run(inner_pages),
            "single partition",
        )
    num_partitions = max(1, math.ceil(outer_pages / buff_size))
    # Sampling (scan-capped), partition read+write for both relations, and
    # the join-phase read of every partition.
    cost = model.cost_of_run(outer_pages)
    for pages in (outer_pages, inner_pages):
        cost += 2 * model.cost_of_run(pages)  # partition write + join read
        cost += num_partitions * model.io_ran  # per-partition seeks
    # Tuple-cache surcharge: long-lived inner tuples cross on average half
    # the partitions, written and re-read once per crossing.
    cache_pages = long_lived_fraction * inner_pages * max(0, num_partitions - 1) / 2
    cost += 2 * cache_pages * model.io_seq
    return JoinEstimate(
        "partition", cost, f"{num_partitions} partition(s)"
    )
