"""Canonical device layout for all experiments.

Section 4.1's simulation counts the I/O streams of each algorithm
independently -- reading the outer partition, reading the inner partition,
and paging the tuple cache each cost "a single random seek followed by i-1
sequential reads", and result writes are excluded from every algorithm's
reported cost.  Mapping each stream class to its own simulated device (its
own head) reproduces that accounting, while streams that genuinely contend
(e.g. the partition buckets being flushed during Grace partitioning, or the
runs being merged during external sort) share the TEMP device and pay
random accesses when they interleave -- exactly the effects the paper
describes.

Result I/O is tracked on a *separate statistics stream* so it exists (the
algorithms really produce paged output) but is excluded from the reported
evaluation cost, matching "the cost of writing the result relation is
omitted since this cost is incurred by all evaluation algorithms"
(Appendix A.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.model.relation import ValidTimeRelation
from repro.model.vtuple import VTTuple
from repro.resilience.faults import FaultInjector
from repro.resilience.report import ResilienceReport
from repro.resilience.retry import RetryPolicy
from repro.storage.disk import SimulatedDisk
from repro.storage.heapfile import HeapFile
from repro.storage.iostats import IOStatistics, PhaseTracker
from repro.storage.page import PageSpec


class Device(enum.IntEnum):
    """The canonical device classes of the layout.

    Algorithms may also use device numbers beyond the enum (the external
    sort alternates between scratch devices per merge pass, as a real system
    alternates sort areas); the enum names the ones with fixed roles.
    """

    BASE = 0  # input relations r and s
    TEMP = 1  # partitions, sort runs
    CACHE = 2  # the long-lived tuple cache
    RESULT = 3  # join output (cost excluded from reports)
    SCRATCH_A = 4  # sort areas: merge passes alternate between these
    SCRATCH_B = 5
    SCRATCH_C = 6
    SCRATCH_D = 7
    CHECKPOINT = 8  # sweep checkpoints (resilience metadata)


@dataclass
class DiskLayout:
    """A configured disk plus the bookkeeping every algorithm needs.

    Attributes:
        spec: page geometry shared by all files.
        tracker: phase-aware counters for the *reported* cost.
        result_stats: counters for result writes (kept separate, see module
            docstring).
        fault_injector: optional fault source attached to the main disk.
            The result disk never carries faults -- its cost stream is
            excluded from every algorithm's report, so failing it would
            perturb nothing the paper measures.
        retry_policy: retry bounds of the main disk (None = defaults).
        checksums: store checksummed page frames on the main disk.
    """

    spec: PageSpec = field(default_factory=PageSpec)
    tracker: PhaseTracker = field(default_factory=PhaseTracker)
    result_stats: IOStatistics = field(default_factory=IOStatistics)
    fault_injector: Optional[FaultInjector] = None
    retry_policy: Optional[RetryPolicy] = None
    checksums: bool = False

    def __post_init__(self) -> None:
        self.disk = SimulatedDisk(
            self.tracker.stats,
            fault_injector=self.fault_injector,
            retry_policy=self.retry_policy,
            checksums=self.checksums,
        )
        self._result_disk = SimulatedDisk(self.result_stats)

    @property
    def resilience_report(self) -> ResilienceReport:
        """What the resilience machinery observed and did on the main disk."""
        return self.disk.report

    # -- relation placement -----------------------------------------------------

    def place_relation(self, relation: ValidTimeRelation) -> HeapFile:
        """Store *relation* on the BASE device without charging I/O; the
        file carries the relation's (memoised) columns."""
        columns = relation.columns()
        return HeapFile.bulk_load(
            self.disk,
            relation.schema.name,
            self.spec,
            columns.tuples,
            device=Device.BASE,
            columns=columns,
        )

    def temp_file(self, name: str, capacity_tuples: int = 0) -> HeapFile:
        """A fresh charged heap file on the TEMP device."""
        return HeapFile.create(
            self.disk,
            name,
            self.spec,
            device=Device.TEMP,
            capacity_tuples=capacity_tuples,
        )

    def file_on(self, device: int, name: str, capacity_tuples: int = 0) -> HeapFile:
        """A fresh charged heap file on an arbitrary device."""
        return HeapFile.create(
            self.disk,
            name,
            self.spec,
            device=device,
            capacity_tuples=capacity_tuples,
        )

    def cache_file(self, name: str, capacity_tuples: int = 0) -> HeapFile:
        """A fresh charged heap file on the CACHE device."""
        return HeapFile.create(
            self.disk,
            name,
            self.spec,
            device=Device.CACHE,
            capacity_tuples=capacity_tuples,
        )

    def result_file(self, name: str, result_spec: Optional[PageSpec] = None) -> HeapFile:
        """A result file whose I/O is recorded on the excluded stream."""
        return HeapFile.create(
            self._result_disk,
            name,
            result_spec if result_spec is not None else self.spec,
            device=Device.RESULT,
        )

    # -- convenience ----------------------------------------------------------------

    def pages_of(self, relation: ValidTimeRelation) -> int:
        """Pages *relation* occupies under this layout's page geometry."""
        return self.spec.pages_for_tuples(len(relation))

    def collect_result(self, result_file: HeapFile, schema) -> ValidTimeRelation:
        """Drain a result heap file into an in-memory relation (uncharged)."""
        relation = ValidTimeRelation(schema)
        for tup in result_file.all_tuples():
            relation.add(tup)
        return relation

    def write_result(self, result_file: HeapFile, tup: VTTuple) -> None:
        """Append a result tuple through the excluded-cost stream."""
        result_file.append(tup)
