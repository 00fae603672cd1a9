"""Inclusive valid-time intervals and the paper's ``overlap`` function.

Section 2 of the paper timestamps every tuple with a single interval
``[Vs, Ve]`` of inclusive starting and ending chronons, and defines the
valid-time natural join in terms of ``overlap(U, V)``: the maximal interval
contained in both arguments, or bottom (here ``None``) when the arguments
share no chronon.

The procedural definition in the paper iterates over every chronon of ``U``;
that is the *specification*.  :func:`overlap` implements the equivalent
closed form ``[max(Us, Vs), min(Ue, Ve)]`` and the test-suite checks the two
against each other chronon-by-chronon on small intervals.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.time.chronon import validate_chronon


class Interval:
    """An inclusive interval ``[start, end]`` of chronons.

    Instances are immutable and hashable so they can key dictionaries and
    live in sets.  ``start == end`` denotes an instantaneous (one-chronon)
    interval -- the kind used for the non-long-lived tuples in the paper's
    experiments.

    Raises:
        ValueError: if ``end < start`` (the empty interval is represented by
            ``None`` throughout the library, mirroring the paper's bottom).
    """

    __slots__ = ("start", "end")

    start: int
    end: int

    def __init__(self, start: int, end: int) -> None:
        validate_chronon(start, "start")
        validate_chronon(end, "end")
        if end < start:
            raise ValueError(f"interval end {end} precedes start {start}")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Interval is immutable")

    # -- identity ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        return self.start == other.start and self.end == other.end

    def __hash__(self) -> int:
        return hash((self.start, self.end))

    def __repr__(self) -> str:
        return f"Interval({self.start}, {self.end})"

    def __lt__(self, other: "Interval") -> bool:
        """Order by start chronon, then end chronon (sort-merge order)."""
        if not isinstance(other, Interval):
            return NotImplemented
        return (self.start, self.end) < (other.start, other.end)

    # -- basic queries -----------------------------------------------------

    @property
    def duration(self) -> int:
        """Number of chronons covered; an instantaneous interval has 1."""
        return self.end - self.start + 1

    def contains_chronon(self, t: int) -> bool:
        """Return True when chronon *t* lies within the interval."""
        return self.start <= t <= self.end

    def contains(self, other: "Interval") -> bool:
        """Return True when *other* lies entirely within this interval."""
        return self.start <= other.start and other.end <= self.end

    def overlaps(self, other: "Interval") -> bool:
        """Return True when the two intervals share at least one chronon."""
        return self.start <= other.end and other.start <= self.end

    def precedes(self, other: "Interval") -> bool:
        """Return True when this interval ends before *other* starts."""
        return self.end < other.start

    def meets(self, other: "Interval") -> bool:
        """Return True when this interval ends exactly one chronon before
        *other* starts (adjacent but not overlapping)."""
        return self.end + 1 == other.start

    def chronons(self) -> Iterator[int]:
        """Iterate over every chronon in the interval.

        Only sensible for short intervals; used by the specification-level
        tests that replay the paper's chronon-by-chronon ``overlap``.
        """
        return iter(range(self.start, self.end + 1))

    # -- combination -------------------------------------------------------

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        """The paper's ``overlap``: maximal interval within both, else None."""
        start = self.start if self.start >= other.start else other.start
        end = self.end if self.end <= other.end else other.end
        if end < start:
            return None
        return Interval(start, end)

    def union(self, other: "Interval") -> "Interval":
        """Union of two overlapping or adjacent intervals.

        Raises:
            ValueError: if the intervals neither overlap nor meet, since the
                union would not be a single interval.
        """
        if not (self.overlaps(other) or self.meets(other) or other.meets(self)):
            raise ValueError(f"union of disjoint intervals {self} and {other}")
        return Interval(min(self.start, other.start), max(self.end, other.end))

    def clamp(self, bounds: "Interval") -> Optional["Interval"]:
        """Restrict this interval to *bounds* (alias of :meth:`intersect`)."""
        return self.intersect(bounds)

    def shifted(self, delta: int) -> "Interval":
        """Return a copy translated by *delta* chronons."""
        return Interval(self.start + delta, self.end + delta)


def trusted_interval(start: int, end: int) -> Interval:
    """Build an :class:`Interval` without re-validating.

    Only for endpoints that already passed the validating constructor --
    values coming back out of a column of stored endpoints, or the
    ``max``/``min`` of two validated intervals' endpoints.
    """
    valid = Interval.__new__(Interval)
    object.__setattr__(valid, "start", start)
    object.__setattr__(valid, "end", end)
    return valid


def overlap(u: Optional[Interval], v: Optional[Interval]) -> Optional[Interval]:
    """Module-level ``overlap`` exactly as named in the paper.

    Accepts ``None`` (bottom) for either argument and propagates it, so the
    algorithms of Appendix A can be transcribed directly.
    """
    if u is None or v is None:
        return None
    return u.intersect(v)


def overlaps(u: Interval, v: Interval) -> bool:
    """Predicate form of :func:`overlap`: do *u* and *v* share a chronon?"""
    return u.overlaps(v)


def hull(intervals: "list[Interval]") -> Optional[Interval]:
    """Smallest single interval covering every interval in the list.

    Returns None for an empty list.
    """
    if not intervals:
        return None
    start = min(interval.start for interval in intervals)
    end = max(interval.end for interval in intervals)
    return Interval(start, end)
