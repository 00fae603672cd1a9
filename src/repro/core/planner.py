"""``determinePartIntervals`` (Appendix A.2): the partition-size planner.

The planner sweeps candidate outer-partition sizes ``partSize`` from 1 to
``buffSize - 1`` pages.  For each candidate it:

1. computes ``errorSize = buffSize - partSize`` and, from the Kolmogorov
   bound, the samples ``m = ceil((1.63 x |r| / errorSize)^2)`` needed so a
   partition overflows its error space with probability at most 1%;
2. estimates ``C_sample`` -- ``m x IO_ran``, capped by the Section 4.2
   sequential-scan optimization at one linear scan of the outer relation;
3. chooses partitioning intervals from a prefix of the sample set
   (Appendix A.3) and estimates the tuple-cache pages per partition
   (Appendix A.4);
4. estimates ``C_join = 2 x (numPartitions x IO_ran + (partSize - 1) x
   numPartitions x IO_seq)`` plus ``2 x (IO_ran + IO_seq x (m_c - 1))`` for
   each partition's ``m_c`` cache pages -- partitions of both relations read
   once, each cache page written once and read once.

The candidate minimizing ``C_sample + C_join`` wins; the full per-candidate
curve is retained because it *is* Figure 4.

Step 3's consumers read a sample only through its two endpoint multisets,
so every prefix is one :class:`~repro.core.intervals.SampleSpans` of sorted
start and end columns: a longer prefix merges only its new draws in, and
candidates handed the same prefix share its coverage sweep.  The plans are
those of the unsorted sample, bit for bit.

Deviations from the appendix, all documented in DESIGN.md:

* Samples are drawn incrementally as in the appendix (each candidate only
  pays for the increment beyond what earlier candidates drew), with the
  Section 4.2 rule applied to the *cumulative* draw: once the cumulative
  requirement makes a sequential scan cheaper than further random draws,
  one scan is charged and supplies every later increment.
* The sweep prunes: ``C_sample`` is non-decreasing in ``partSize`` and
  ``C_join`` is non-negative, so as soon as a candidate's sampling cost
  alone reaches the best total seen, every remaining (larger) candidate is
  provably worse and the planner stops drawing.  Figure 4 regeneration
  passes ``prune=False`` to get the full curve.
* At paper scale ``buffSize`` is thousands of pages; evaluating every
  integer candidate makes the planner itself quadratic.  The sweep uses a
  geometrically spaced candidate grid (all integers when ``buffSize`` is
  small); the cost curve is smooth (Figure 4), so the grid loses little.
"""

from __future__ import annotations

import math
import random
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import chain
from typing import List, Optional, Sequence

import numpy as np

from repro.core.cache_estimate import cache_pages_at
from repro.core.intervals import PartitionMap, SampleSpans, choose_cuts, tile
from repro.model.errors import PlanError
from repro.sampling.kolmogorov import required_samples
from repro.sampling.sampler import SamplePlan, SampleStrategy, plan_sampling
from repro.storage.heapfile import HeapFile
from repro.storage.iostats import CostModel
from repro.time.interval import Interval


@dataclass(frozen=True)
class CandidateCost:
    """One point of the Figure 4 curve.

    Attributes:
        part_size: candidate outer-partition size, in pages.
        error_size: overflow slack, ``buffSize - partSize`` pages.
        n_samples: Kolmogorov sample requirement for this slack.
        num_partitions: partitions the outer relation splits into.
        c_sample: estimated sampling cost (scan-capped).
        c_join_scan: partition-read component of ``C_join``.
        c_join_cache: tuple-cache paging component of ``C_join``.
    """

    part_size: int
    error_size: int
    n_samples: int
    num_partitions: int  # achieved interval count
    c_sample: float
    c_join_scan: float
    c_join_cache: float
    num_requested: int = 0  # partition count the estimate charged for

    @property
    def c_join(self) -> float:
        return self.c_join_scan + self.c_join_cache

    @property
    def total(self) -> float:
        return self.c_sample + self.c_join


@dataclass
class PartitionPlan:
    """The planner's output: a partitioning plus its cost pedigree.

    Attributes:
        intervals: the chosen partitioning intervals (ascending tiling).
        part_size: chosen outer-partition size in pages.
        buff_size: the buffer constraint the plan was made for.
        chosen: the winning candidate's cost breakdown.
        curve: every evaluated candidate (the Figure 4 data).
        sample_plan: how the samples were actually drawn.
        cache_pages: estimated tuple-cache pages per partition.
    """

    intervals: List[Interval]
    part_size: int
    buff_size: int
    chosen: Optional[CandidateCost]  # None only for trivial/degenerate plans
    curve: List[CandidateCost] = field(default_factory=list)
    sample_plan: Optional[SamplePlan] = None
    cache_pages: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Plan invariants every consumer leans on: a partition occupies at
        # least one page and must fit the outer buffer area it was sized
        # for.  (Equality is legal: the degenerate single-partition plan
        # fills the buffer exactly.)
        if self.part_size < 1:
            raise PlanError(
                f"plan part_size must be >= 1 page, got {self.part_size}",
                part_size=self.part_size,
                buff_size=self.buff_size,
            )
        if self.buff_size < self.part_size:
            raise PlanError(
                f"plan part_size {self.part_size} exceeds the buffer area "
                f"of {self.buff_size} pages",
                part_size=self.part_size,
                buff_size=self.buff_size,
            )
        if not self.intervals:
            raise PlanError("a plan needs at least one partitioning interval")

    @property
    def num_partitions(self) -> int:
        return len(self.intervals)

    def partition_map(self) -> PartitionMap:
        return PartitionMap(self.intervals)


#: Sample floor for estimate quality (see determine_part_intervals).
_MIN_ESTIMATE_SAMPLES = 64


def candidate_part_sizes(buff_size: int, max_candidates: int = 64) -> List[int]:
    """The candidate grid: all sizes when small, geometric otherwise."""
    if buff_size < 2:
        raise PlanError(f"buffSize must be >= 2 pages to leave error space, got {buff_size}")
    largest = buff_size - 1
    if largest <= max_candidates:
        return list(range(1, largest + 1))
    sizes: List[int] = []
    value = 1.0
    ratio = largest ** (1.0 / (max_candidates - 1))
    for _ in range(max_candidates):
        size = int(round(value))
        if not sizes or size > sizes[-1]:
            sizes.append(min(size, largest))
        value *= ratio
    if sizes[-1] != largest:
        sizes.append(largest)
    return sizes


def estimate_join_cost(
    relation_pages: int,
    num_partitions: int,
    cache_pages: Sequence[int],
    cost_model: CostModel,
) -> tuple[float, float]:
    """The two components of the Appendix A.2 ``C_join`` estimate.

    Returns ``(scan_component, cache_component)``: reading every partition
    of both relations (the leading factor 2), plus writing and re-reading
    each partition's tuple cache (the inner factor 2).

    The appendix writes the scan component as ``numPartitions x IO_ran +
    (partSize - 1) x numPartitions x IO_seq``, which assumes ``numPartitions
    x partSize = |r|``; rearranged over the whole relation this is
    ``num x IO_ran + (|r| - num) x IO_seq``.  The *requested* partition
    count is charged, exactly as the appendix does: when the sample is too
    small to realize that many boundaries, the pessimistic seek term steers
    the search away from the candidate -- which is the correct direction,
    because an under-sampled fine partitioning hides unestimated
    tuple-cache paging.
    """
    scan = 2 * (
        num_partitions * cost_model.io_ran
        + max(0, relation_pages - num_partitions) * cost_model.io_seq
    )
    pages = np.asarray(cache_pages, dtype=np.int64)
    terms = 2 * (cost_model.io_ran + cost_model.io_seq * (pages[pages > 0] - 1))
    # Left to right, as a loop adds (``np.sum`` pairs terms up): ties compare totals.
    cache = float(np.add.accumulate(terms, dtype=float)[-1]) if len(terms) else 0.0
    return scan, cache


def estimate_partition_cost(
    outer_pages: int,
    inner_pages: int,
    num_partitions: int,
    cost_model: CostModel,
) -> float:
    """Predicted cost of the Grace-partitioning phase (``C_partition``).

    The appendix folds partitioning into the measured total without a
    closed-form estimate; EXPLAIN ANALYZE needs one so planner drift is
    visible per phase.  The model is the idealized Section 3.2 pattern:
    each relation is read once linearly (one seek plus sequential
    transfers) and written out as one contiguous run per partition.  Real
    runs pay more when bucket buffers flush early -- exactly the deviation
    ``explain_analyze`` is there to expose.
    """
    if num_partitions < 1:
        raise PlanError(f"partition estimate needs >= 1 partition, got {num_partitions}")
    cost = 0.0
    for pages in (outer_pages, inner_pages):
        if pages <= 0:
            continue
        parts = min(num_partitions, pages)
        cost += cost_model.cost_of_run(pages)  # the input scan
        cost += parts * cost_model.io_ran + (pages - parts) * cost_model.io_seq
    return cost


#: Smallest memory grant worth running a partition join under: the three
#: fixed single-page areas of Figure 3 plus one outer-partition page.
MIN_GRANT_PAGES = 4

#: Admission-grant ceiling of the forward sweep: two scan pages, a result
#: page, and a small fixed budget for the open intervals -- what a
#: streaming sweep holds, which does not grow with the relations' page
#: counts.  The array evaluation also holds both inputs' columns, which no
#: grant meters yet.
FORWARD_SWEEP_GRANT_PAGES = 8


def estimate_grant_pages(
    outer_pages: int,
    inner_pages: int,
    requested_pages: int,
    *,
    execution: Optional[str] = None,
) -> int:
    """Buffer pages a join can actually *use*, for admission control.

    The service layer grants memory from a shared pool (``docs/SERVICE.md``);
    over-granting starves concurrent queries for nothing.  The planner's own
    shortcut bounds the useful budget: once ``buffSize`` covers the smaller
    input the evaluation collapses to a single partition, so pages beyond
    ``min(outer, inner) + FIXED_PAGES`` cannot change the plan, the I/O, or
    the result.  The estimate clamps the request into
    ``[MIN_GRANT_PAGES, useful]`` (a request below the Figure 3 minimum is
    raised to it -- the join cannot run at all under fewer pages).

    Args:
        outer_pages: catalog page count of the outer relation.
        inner_pages: catalog page count of the inner relation.
        requested_pages: the memory budget the query asked for
            (``PartitionJoinConfig.memory_pages``).
        execution: the query's execution mode; ``"forward-sweep"`` changes
            the estimate.
    """
    from repro.storage.buffer import JoinBufferAllocation

    if outer_pages < 0 or inner_pages < 0:
        raise PlanError(
            f"grant estimate needs non-negative page counts, got "
            f"{outer_pages} and {inner_pages}"
        )
    if requested_pages < 1:
        raise PlanError(
            f"grant estimate needs a positive request, got {requested_pages}"
        )
    if execution == "forward-sweep":
        # A streaming sweep's appetite is O(open intervals), not O(min
        # input): it reads both inputs once and holds the open intervals,
        # one scan page per input, and a result page.  Granting the
        # partition join's ``min(input) + FIXED`` shape would starve
        # concurrent queries for pages the sweep never touches.
        return max(
            MIN_GRANT_PAGES, min(requested_pages, FORWARD_SWEEP_GRANT_PAGES)
        )
    useful = max(
        MIN_GRANT_PAGES,
        min(outer_pages, inner_pages) + JoinBufferAllocation.FIXED_PAGES,
    )
    return max(MIN_GRANT_PAGES, min(requested_pages, useful))


@dataclass(frozen=True)
class SweepCostEstimate:
    """Predicted charged I/O of a forward-sweep evaluation.

    Attributes:
        c_scan: the join phase -- one sorted linear scan of each input.
        c_sort: the external-sort charge for inputs lacking endpoint-sorted
            metadata -- per unsorted input, one extra base scan plus one
            sorted-run write (the run's join-phase re-scan replaces the
            base scan already counted in ``c_scan``).
    """

    c_scan: float
    c_sort: float

    @property
    def total(self) -> float:
        return self.c_scan + self.c_sort


def estimate_forward_sweep_cost(
    outer_pages: int,
    inner_pages: int,
    cost_model: CostModel,
    *,
    outer_sorted: bool = False,
    inner_sorted: bool = False,
) -> SweepCostEstimate:
    """The sweep's crossover formula (see docs/COST_MODEL.md).

    A sorted input costs one linear scan; an unsorted one costs three
    passes (scan, sorted-run write, run re-scan), which is what makes the
    partition join win once sorting must be charged on both sides.
    """
    c_scan = cost_model.cost_of_run(outer_pages) + cost_model.cost_of_run(inner_pages)
    c_sort = 0.0
    if not outer_sorted:
        c_sort += 2 * cost_model.cost_of_run(outer_pages)
    if not inner_sorted:
        c_sort += 2 * cost_model.cost_of_run(inner_pages)
    return SweepCostEstimate(c_scan=c_scan, c_sort=c_sort)


@dataclass(frozen=True)
class OperatorChoice:
    """The planner's physical-operator decision, surfaced by EXPLAIN.

    Attributes:
        operator: ``"forward-sweep"`` or ``"partition"``.
        sweep_cost: predicted charged I/O of the forward sweep.
        partition_cost: predicted charged I/O of the partition join.
        sort_charge: the sweep estimate's external-sort component.
        rationale: one human-readable sentence explaining the pick.
    """

    operator: str
    sweep_cost: float
    partition_cost: float
    sort_charge: float
    rationale: str


def choose_physical_operator(
    outer_pages: int,
    inner_pages: int,
    memory_pages: int,
    cost_model: CostModel,
    *,
    outer_sorted: bool = False,
    inner_sorted: bool = False,
    long_lived_fraction: float = 0.0,
    predicate: str = "intersects",
) -> OperatorChoice:
    """Pick between the partition join and the forward sweep.

    Non-natural predicates force the sweep (the partition machinery only
    evaluates interval intersection).  For the natural join the cheaper
    predicted operator wins; ties keep the partition join, so the sweep
    must be *strictly* cheaper -- typically exactly when sortedness
    metadata waives its sort charge.
    """
    sweep = estimate_forward_sweep_cost(
        outer_pages,
        inner_pages,
        cost_model,
        outer_sorted=outer_sorted,
        inner_sorted=inner_sorted,
    )
    from repro.engine.optimizer import estimate_costs

    partition_cost = estimate_costs(
        outer_pages,
        inner_pages,
        memory_pages,
        cost_model,
        long_lived_fraction=long_lived_fraction,
    )["partition"].cost
    from repro.algebra.predicates import resolve_predicate

    if not resolve_predicate(predicate).is_natural:
        return OperatorChoice(
            operator="forward-sweep",
            sweep_cost=sweep.total,
            partition_cost=partition_cost,
            sort_charge=sweep.c_sort,
            rationale=(
                f"predicate {predicate!r} requires the forward sweep; the "
                f"partition join evaluates only interval intersection"
            ),
        )
    sortedness = (
        "both inputs endpoint-sorted"
        if outer_sorted and inner_sorted
        else "one input endpoint-sorted"
        if outer_sorted or inner_sorted
        else "no endpoint-sorted metadata"
    )
    if not (outer_sorted or inner_sorted):
        # The simulator sorts each unsorted side in one charged TEMP run
        # regardless of the memory budget -- optimistic next to a real
        # multi-pass external sort at scarce memory.  Without at least one
        # sorted input that optimism could undercut the partition join, so
        # fully-unsorted inputs keep the partition operator outright.
        return OperatorChoice(
            operator="partition",
            sweep_cost=sweep.total,
            partition_cost=partition_cost,
            sort_charge=sweep.c_sort,
            rationale=(
                f"partition {partition_cost:.1f}: the sweep only competes "
                f"on endpoint-sorted input ({sortedness})"
            ),
        )
    if sweep.total < partition_cost:
        return OperatorChoice(
            operator="forward-sweep",
            sweep_cost=sweep.total,
            partition_cost=partition_cost,
            sort_charge=sweep.c_sort,
            rationale=(
                f"sweep {sweep.total:.1f} < partition {partition_cost:.1f} "
                f"({sortedness}, sort charge {sweep.c_sort:.1f})"
            ),
        )
    return OperatorChoice(
        operator="partition",
        sweep_cost=sweep.total,
        partition_cost=partition_cost,
        sort_charge=sweep.c_sort,
        rationale=(
            f"partition {partition_cost:.1f} <= sweep {sweep.total:.1f} "
            f"({sortedness}, sort charge {sweep.c_sort:.1f})"
        ),
    )


def _shuffled_positions(n: int, rng: random.Random) -> List[int]:
    """``list(range(n))`` in the order ``rng.shuffle`` leaves it.

    The same Fisher-Yates, drawing each swap index with ``getrandbits``
    exactly as ``Random._randbelow`` does, so the permutation and the
    generator's state afterwards are ``rng.shuffle``'s -- without a method
    call per position.  The sampler keeps what it draws (:class:`_Permutations`).
    """
    positions = list(range(n))
    getrandbits = rng.getrandbits
    for i in range(n - 1, 0, -1):
        bits = (i + 1).bit_length()
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
        positions[i], positions[j] = positions[j], positions[i]
    return positions


class _Permutations:
    """Shuffled positions by ``(n, generator state)``, on which alone a
    permutation depends: every plan seeds a fresh generator, so the calls,
    served misses and shards planning one relation size share one.  An
    entry is a read-only ``int32`` column and the generator's post-shuffle
    state, which a hit restores.  At most *budget* positions are held,
    least recently used out; executor threads plan at once, hence the lock.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.held = 0  # positions in all entries
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def draw(self, n: int, rng: random.Random) -> np.ndarray:
        key = (n, rng.getstate())
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                positions, after = self._entries[key]
                rng.setstate(after)
                return positions
        positions = np.array(_shuffled_positions(n, rng), dtype=np.int32)
        positions.flags.writeable = False
        with self._lock:
            if n <= self.budget and key not in self._entries:
                self._entries[key] = (positions, rng.getstate())
                self.held += n
                while self.held > self.budget:
                    self.held -= len(self._entries.popitem(last=False)[1][0])
        return positions


#: The permutation cache's bound, in positions: 8 MiB of ``int32``.
PERMUTATION_BUDGET = 2**21
_PERMUTATIONS = _Permutations(PERMUTATION_BUDGET)


def _span_columns(pages: Sequence, carried=None) -> tuple:
    """``(starts, ends)`` ``int64`` columns of a scanned relation, in row
    order: the columns its file carries (*carried*) when the scan delivered
    exactly those rows, else decomposed here.
    """
    if carried is not None:
        batch = carried.matching(0, list(chain.from_iterable(pages)))
        if batch is not None:
            return batch.starts, batch.ends
    starts: List[int] = []
    ends: List[int] = []
    for page in pages:
        starts += [tup.vs for tup in page]
        ends += [tup.ve for tup in page]
    return np.asarray(starts, dtype=np.int64), np.asarray(ends, dtype=np.int64)


class _IncrementalSampler:
    """Draws ever-larger sample prefixes, switching to one scan when cheaper.

    Positions are pre-shuffled (:class:`_Permutations`, never written) so
    every prefix is a uniform without-replacement sample.  Random draws
    charge one page read each (through the head model); the scan charges
    one linear pass of the relation and supplies every later increment for
    free -- the Section 4.2 optimization applied to the cumulative
    requirement.  Draw or scan, a position whose row did not arrive (a torn
    page) is passed over: the sample is among the rows that came.

    A prefix is handed out as one :class:`SampleSpans` whose start and end
    columns are sorted: the plan consumers read only those two multisets.
    Growing the prefix from m1 to m2 draws sorts only the m2 - m1 new draws
    and merges them into the held columns; asking again for the same length
    returns the same object, so the candidates that share a prefix share
    its coverage sweep.  Nothing outlives the planning call.
    """

    def __init__(
        self,
        outer: HeapFile,
        cost_model: CostModel,
        rng: random.Random,
        allow_scan: bool,
    ) -> None:
        self._outer = outer
        self._cost_model = cost_model
        self._allow_scan = allow_scan
        self._positions = _PERMUTATIONS.draw(outer.n_tuples, rng)
        self._cursor = 0  # positions drawn, whether their row came or not
        self._prefix = SampleSpans.of(())
        self._columns = None  # the scan's (starts, ends) by row
        self.scan_done = False

    def prefix(self, needed: int) -> SampleSpans:
        """The first *needed* samples, drawing (and charging) as required.

        Requests never shrink: the candidates' requirements grow with
        ``partSize``.
        """
        held = len(self._prefix)
        needed = min(needed, held + len(self._positions) - self._cursor)
        assert needed >= held, "sample prefixes only grow"
        if needed == held:
            return self._prefix
        scan_cost = self._cost_model.cost_of_run(self._outer.n_pages)
        random_cost = needed * self._cost_model.io_ran
        if self._allow_scan and (self.scan_done or random_cost >= scan_cost):
            if not self.scan_done:
                self._scan()
            at = self._positions[self._cursor : self._cursor + needed - held]
            self._cursor += len(at)
            starts, ends = self._columns[0][at], self._columns[1][at]
        else:
            starts, ends = [], []
            while held + len(starts) < needed and self._cursor < len(self._positions):
                tup = self._outer.read_tuple(int(self._positions[self._cursor]))
                self._cursor += 1
                if tup is not None:
                    starts.append(tup.vs)
                    ends.append(tup.ve)
        self._prefix = self._prefix.grown(starts, ends)
        return self._prefix

    def _scan(self) -> None:
        self.scan_done = True
        carried = self._outer.carried
        if carried is not None and self._outer.bill_scan(carried.tuples):
            self._columns = carried.starts, carried.ends
            return
        # Nothing else touches the disk during the scan: one run.
        pages = list(chain.from_iterable(self._outer.scan_runs(self._outer.n_tuples)))
        delivered = sum(map(len, pages))
        if delivered < self._outer.n_tuples:
            # Torn deliveries lost rows: sample among those that came.
            rest = self._positions[self._cursor :]
            self._positions, self._cursor = rest[rest < delivered], 0
        self._columns = _span_columns(pages, self._outer.carried)

    def estimate_cost(self, needed: int) -> float:
        """Estimated ``C_sample`` for a candidate needing *needed* samples."""
        return plan_sampling(
            min(needed, self._outer.n_tuples),
            self._outer.n_pages,
            self._cost_model,
            allow_scan=self._allow_scan,
        ).estimated_cost

    def executed_plan(self) -> SamplePlan:
        """How the draw actually went, for the plan record."""
        strategy = SampleStrategy.SCAN if self.scan_done else SampleStrategy.RANDOM
        n_samples = len(self._prefix)
        cost = (
            self._cost_model.cost_of_run(self._outer.n_pages)
            if self.scan_done
            else n_samples * self._cost_model.io_ran
        )
        return SamplePlan(n_samples, strategy, cost)


def determine_part_intervals(
    buff_size: int,
    outer: HeapFile,
    inner_tuples: int,
    cost_model: CostModel,
    rng: random.Random,
    *,
    allow_scan_sampling: bool = True,
    max_candidates: int = 64,
    prune: bool = True,
    inner: Optional[HeapFile] = None,
) -> PartitionPlan:
    """Plan the partitioning of the join inputs (Appendix A.2).

    Args:
        buff_size: pages available for the outer-partition area (``buffSize``
            of Figure 3 -- the fixed single-page areas are already excluded).
        outer: the outer relation on disk; sampling I/O is charged to it.
        inner_tuples: cardinality of the inner relation, for the cache
            estimate.
        cost_model: active random/sequential weights.
        rng: source of randomness for sample positions.
        allow_scan_sampling: disable to force per-sample random I/O
            (ablation of the Section 4.2 optimization).
        max_candidates: size of the candidate grid.
        prune: stop the sweep once a candidate's sampling cost alone exceeds
            the best total (disable to trace the full Figure 4 curve).
        inner: pass the inner relation to base the tuple-cache estimate on a
            (small, charged) sample of the *inner* relation instead of the
            outer's.  The paper assumes similar temporal distributions and
            notes in Section 5 that when the assumption fails "gross
            mis-estimation of tuple caching costs may result"; this option
            is the fix it suggests considering ("directly sampling the
            inner relation").

    Raises:
        PlanError: if the outer relation is empty or the buffer is too small.
    """
    if outer.n_tuples == 0:
        raise PlanError("cannot plan a partitioning for an empty outer relation")
    relation_pages = outer.n_pages
    sizes = candidate_part_sizes(buff_size, max_candidates)
    sampler = _IncrementalSampler(outer, cost_model, rng, allow_scan_sampling)
    inner_sampler: Optional[_IncrementalSampler] = None
    if inner is not None and inner.n_tuples > 0:
        inner_sampler = _IncrementalSampler(inner, cost_model, rng, allow_scan_sampling)

    best: Optional[CandidateCost] = None
    curve: List[CandidateCost] = []
    for part_size in sizes:
        needed = required_samples(relation_pages, buff_size - part_size)
        c_sample = sampler.estimate_cost(needed)
        if prune and best is not None:
            # A larger candidate can save at most the best candidate's cache
            # cost plus the seek overhead of its extra partitions; once the
            # added sampling cost exceeds that, every remaining candidate is
            # provably worse (C_sample is non-decreasing in partSize).
            scan_saving = (
                2 * (best.num_requested - 1) * (cost_model.io_ran - cost_model.io_seq)
            )
            if c_sample - best.c_sample >= best.c_join_cache + scan_saving:
                break
        # Partitions must be read back whole, so the count rounds *up* (a
        # floor leaves a remainder that overflows the buffer), and each
        # partition needs a bucket buffer page during Grace partitioning
        # ("we assume that the number of partitions is small"), capping the
        # count at the memory size.
        num_partitions = max(
            1, min(math.ceil(relation_pages / part_size), buff_size + 2)
        )
        # The Kolmogorov requirement governs overflow risk, not estimate
        # quality: tiny requirements (a large error space needs only a
        # handful of samples) would make the cache estimate of Appendix A.4
        # blind to moderate long-lived fractions and steer the search into
        # fine partitionings whose migration cost it cannot see.  Detecting
        # a long-lived fraction f needs on the order of 1/f samples
        # regardless of relation size, so the floor is absolute: a few
        # dozen random reads, charged like any others and negligible
        # against a relation scan at realistic sizes.
        estimate_floor = min(_MIN_ESTIMATE_SAMPLES, outer.n_tuples)
        prefix = sampler.prefix(max(needed, estimate_floor))
        cuts = choose_cuts(prefix, num_partitions)
        cache_basis = prefix
        if inner_sampler is not None:
            cache_basis = inner_sampler.prefix(min(_MIN_ESTIMATE_SAMPLES, inner_tuples))
        cache_pages = cache_pages_at(cache_basis, inner_tuples, cuts - 1, outer.spec)
        scan, cache = estimate_join_cost(relation_pages, num_partitions, cache_pages, cost_model)
        candidate = CandidateCost(
            part_size=part_size,
            error_size=buff_size - part_size,
            n_samples=needed,
            num_partitions=len(cuts) + 1,
            c_sample=c_sample,
            c_join_scan=scan,
            c_join_cache=cache,
            num_requested=num_partitions,
        )
        curve.append(candidate)
        # "if cost <= minCost" in the appendix: later (larger) candidates win
        # ties, preferring fewer, larger partitions.
        if best is None or candidate.total <= best.total:
            best, best_prefix, best_cuts, best_cache = candidate, prefix, cuts, cache_pages

    assert best is not None
    return PartitionPlan(
        intervals=tile(best_prefix.lifespan(), best_cuts),
        part_size=best.part_size,
        buff_size=buff_size,
        chosen=best,
        curve=curve,
        sample_plan=sampler.executed_plan(),
        cache_pages=best_cache.tolist(),
    )
