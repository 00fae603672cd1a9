"""I/O statistics and the weighted random/sequential cost model.

The unit of measurement throughout the reproduction is the paper's: one
sequential page transfer costs ``io_seq`` and one random access (a seek plus
a transfer) costs ``io_ran``.  The experiments vary the ratio
``io_ran : io_seq`` over 2:1, 5:1, and 10:1 (Section 4.2) with ``io_seq``
normalized to 1.

Statistics are additive so phase-level accounting (sampling, partitioning,
joining -- the three components of ``C_total`` in Section 3.4) composes into
relation-level and experiment-level totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional


@dataclass(frozen=True)
class CostModel:
    """Weights for random and sequential I/O operations.

    Attributes:
        io_ran: cost of one random access (``IO_ran`` in Appendix A.2).
        io_seq: cost of one sequential access (``IO_seq``).
    """

    io_ran: float = 5.0
    io_seq: float = 1.0

    def __post_init__(self) -> None:
        if self.io_ran <= 0 or self.io_seq <= 0:
            raise ValueError("I/O costs must be positive")
        if self.io_ran < self.io_seq:
            raise ValueError("random access cannot be cheaper than sequential")

    @classmethod
    def with_ratio(cls, ratio: float) -> "CostModel":
        """Cost model with ``io_ran = ratio`` and ``io_seq = 1`` (paper style)."""
        return cls(io_ran=float(ratio), io_seq=1.0)

    @property
    def ratio(self) -> float:
        """The random:sequential cost ratio."""
        return self.io_ran / self.io_seq

    def cost_of_run(self, pages: int) -> float:
        """Cost of touching *pages* contiguous pages: 1 random + rest sequential.

        This is the paper's recurring accounting unit: "a single random seek
        followed by i-1 sequential reads".  Zero pages cost nothing.
        """
        if pages <= 0:
            return 0.0
        return self.io_ran + (pages - 1) * self.io_seq


@dataclass
class IOStatistics:
    """Mutable counters of I/O operations, split by kind and direction.

    ``retry_reads``/``retry_writes`` count access *re-attempts* forced by
    injected faults or checksum failures.  Every retried attempt is charged
    into the four main buckets exactly like a first attempt (so retries
    appear in ``total_ops`` and :meth:`cost`); the retry counters exist so
    fault overhead stays separately visible.
    """

    random_reads: int = 0
    sequential_reads: int = 0
    random_writes: int = 0
    sequential_writes: int = 0
    retry_reads: int = 0
    retry_writes: int = 0

    #: The label-tag fields: counters that annotate already-charged
    #: operations without ever adding to ``total_ops`` or :meth:`cost`.
    TAG_FIELDS = ("retry_reads", "retry_writes")

    # -- recording ----------------------------------------------------------

    def record(self, *, write: bool, sequential: bool, count: int = 1) -> None:
        """Record *count* operations of the given kind."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if write:
            if sequential:
                self.sequential_writes += count
            else:
                self.random_writes += count
        else:
            if sequential:
                self.sequential_reads += count
            else:
                self.random_reads += count

    def record_retry(self, *, write: bool, count: int = 1) -> None:
        """Tag *count* already-recorded operations as fault retries."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if write:
            self.retry_writes += count
        else:
            self.retry_reads += count

    def record_tag(self, tag: str, count: int = 1) -> None:
        """Tag *count* already-recorded operations under a named tag field.

        The generic entry point the metrics bridge uses: ``tag`` must be one
        of :attr:`TAG_FIELDS` (``retry_reads``, ``retry_writes``).  An
        unknown tag raises
        instead of silently minting a counter nothing will ever read.
        """
        if tag not in self.TAG_FIELDS:
            raise ValueError(
                f"unknown I/O tag {tag!r}; valid tags are {self.TAG_FIELDS}"
            )
        if count < 0:
            raise ValueError("count must be non-negative")
        setattr(self, tag, getattr(self, tag) + count)

    def add(self, other: "IOStatistics") -> None:
        """Accumulate *other* into this object."""
        self.random_reads += other.random_reads
        self.sequential_reads += other.sequential_reads
        self.random_writes += other.random_writes
        self.sequential_writes += other.sequential_writes
        self.retry_reads += other.retry_reads
        self.retry_writes += other.retry_writes

    def merge(self, other: "IOStatistics") -> "IOStatistics":
        """Accumulate *other* into this object and return ``self``.

        The explicit merge point for per-worker / per-stage counters: each
        contributing :class:`IOStatistics` is an independent ledger, and the
        caller folds them together exactly once.  Merging an object into
        itself would double every counter, so it is rejected.
        """
        if other is self:
            raise ValueError("cannot merge IOStatistics into itself")
        self.add(other)
        return self

    def __iadd__(self, other: "IOStatistics") -> "IOStatistics":
        return self.merge(other)

    # -- derived quantities ---------------------------------------------------

    @property
    def random_ops(self) -> int:
        return self.random_reads + self.random_writes

    @property
    def sequential_ops(self) -> int:
        return self.sequential_reads + self.sequential_writes

    @property
    def total_ops(self) -> int:
        """Total pages touched, regardless of access kind."""
        return self.random_ops + self.sequential_ops

    @property
    def reads(self) -> int:
        return self.random_reads + self.sequential_reads

    @property
    def writes(self) -> int:
        return self.random_writes + self.sequential_writes

    @property
    def retry_ops(self) -> int:
        """Access attempts that were fault-forced retries."""
        return self.retry_reads + self.retry_writes

    def cost(self, model: CostModel) -> float:
        """Weighted evaluation cost under *model* (the paper's y-axis)."""
        return self.random_ops * model.io_ran + self.sequential_ops * model.io_seq

    def as_dict(self) -> Dict[str, int]:
        """Every counter field as a plain dict (the metrics-bridge shape)."""
        return {
            "random_reads": self.random_reads,
            "sequential_reads": self.sequential_reads,
            "random_writes": self.random_writes,
            "sequential_writes": self.sequential_writes,
            "retry_reads": self.retry_reads,
            "retry_writes": self.retry_writes,
        }

    def copy(self) -> "IOStatistics":
        return IOStatistics(
            self.random_reads,
            self.sequential_reads,
            self.random_writes,
            self.sequential_writes,
            self.retry_reads,
            self.retry_writes,
        )

    def diff(self, earlier: "IOStatistics") -> "IOStatistics":
        """Operations performed since the *earlier* snapshot."""
        return IOStatistics(
            self.random_reads - earlier.random_reads,
            self.sequential_reads - earlier.sequential_reads,
            self.random_writes - earlier.random_writes,
            self.sequential_writes - earlier.sequential_writes,
            self.retry_reads - earlier.retry_reads,
            self.retry_writes - earlier.retry_writes,
        )

    def __repr__(self) -> str:
        base = (
            f"IOStatistics(ran_r={self.random_reads}, seq_r={self.sequential_reads}, "
            f"ran_w={self.random_writes}, seq_w={self.sequential_writes}"
        )
        if self.retry_ops:
            base += f", retry_r={self.retry_reads}, retry_w={self.retry_writes}"
        return base + ")"


@dataclass
class PhaseTracker:
    """Per-phase I/O accounting over a shared :class:`IOStatistics` stream.

    ``C_total = C_sample + C_partition + C_join`` (Section 3.4): algorithms
    wrap each phase in :meth:`phase` and the tracker attributes the I/O the
    disk records in between to that phase.
    """

    stats: IOStatistics = field(default_factory=IOStatistics)
    phases: Dict[str, IOStatistics] = field(default_factory=dict)
    _current: Optional[str] = None
    _mark: IOStatistics = field(default_factory=IOStatistics)

    def phase(self, name: str) -> "_PhaseContext":
        """Context manager attributing enclosed I/O to phase *name*."""
        return _PhaseContext(self, name)

    def _enter(self, name: str) -> None:
        if self._current is not None:
            raise RuntimeError(f"phase {self._current!r} already active")
        self._current = name
        self._mark = self.stats.copy()

    def _exit(self) -> None:
        if self._current is None:
            raise RuntimeError("no active phase")
        delta = self.stats.diff(self._mark)
        bucket = self.phases.setdefault(self._current, IOStatistics())
        bucket.add(delta)
        self._current = None

    def recover(self) -> Optional[str]:
        """Close a phase left open by an exception (e.g. a simulated crash).

        I/O recorded between the phase entry and the interruption is
        attributed to that phase, exactly as a normal exit would have; a
        subsequent :meth:`phase` with the same name then accumulates the
        resumed work on top -- "correctly merged" statistics across a
        crash/resume boundary.  Returns the name of the recovered phase, or
        None when no phase was open.
        """
        if self._current is None:
            return None
        name = self._current
        self._exit()
        return name

    def phase_cost(self, name: str, model: CostModel) -> float:
        """Weighted cost of phase *name* (0 when the phase never ran)."""
        phase_stats = self.phases.get(name)
        return phase_stats.cost(model) if phase_stats is not None else 0.0

    def breakdown(self, model: CostModel) -> Dict[str, float]:
        """Weighted cost of every recorded phase."""
        return {name: stats.cost(model) for name, stats in self.phases.items()}


class _PhaseContext:
    """Context manager returned by :meth:`PhaseTracker.phase`."""

    def __init__(self, tracker: PhaseTracker, name: str) -> None:
        self._tracker = tracker
        self._name = name

    def __enter__(self) -> PhaseTracker:
        self._tracker._enter(self._name)
        return self._tracker

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self._tracker._exit()


def iter_phases(tracker: PhaseTracker) -> Iterator[str]:
    """Names of the phases recorded so far, in insertion order."""
    return iter(tracker.phases)
