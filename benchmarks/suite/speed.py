"""A speed gauge: how fast the machine ran while a loop was being timed.

The builder's 2-core VM shares its host.  Measured on it, the same call
takes 0.87 s in one minute and 1.15 s in the next, the shifts come and go
within seconds, and two sets of ten runs a quarter of an hour apart differed
by 30 % in their medians.  A longer loop does not average away a shift that
lasts as long as the loop.

So a timed loop that runs in the main thread (the library calls, every
set-up) is interleaved with samples of a fixed pure-Python reference task
that shares no code with the program, and its timings are reported at the
machine's *nominal* speed::

    reported = measured * NOMINAL_SECONDS / lower_quartile(reference samples)

A change to the program moves the measured time and not the reference, so it
shows in full; a slow minute on the host moves both and cancels.  On a quiet
builder machine the factor is about 1 and the numbers read as plain
milliseconds.  Over two sets of ten runs the spread of ``join_p50_ms`` on
``long_lived`` fell from 18 % and 41 % raw to 11 % and 12 %.

Interleaving is what makes it work: on 260 recorded calls the spread of
10-call medians fell from 14 % raw to 6 % with a sample after every call,
but only to 11 % with samples before and after each group of ten.  That is
also why the service loops stay raw: their work runs in other threads and
processes on both cores, out of this gauge's reach, and normalising them made
them noisier (10-32 % against 6-19 %).
"""

from __future__ import annotations

import functools
import gc
import random
import time
from typing import Callable, List, Tuple, TypeVar

from benchmarks.suite.metrics import percentile
from benchmarks.suite.spans import clock

T = TypeVar("T")

#: Lower-quartile seconds of one reference sample on the quiet builder machine
#: (2 cores, CPython 3.11).  It only fixes the scale of the reported numbers.
NOMINAL_SECONDS = 0.040

#: Reference samples taken at each pause of a timed loop.
SAMPLES_PER_PAUSE = 2


@functools.lru_cache(maxsize=1)
def _rows() -> Tuple[Tuple[int, int, str], ...]:
    rng = random.Random(1994)
    return tuple(
        (rng.randrange(1000), rng.randrange(50_000), f"p{number}")
        for number in range(100_000)
    )


def _reference_task() -> float:
    """Seconds to group, sort and rebuild 100 000 small tuples.

    The same kind of work the program does in Python -- dictionary inserts,
    tuple allocation, list sorts -- on data that never changes.  The garbage
    collector is held off so the sample does not pay for collecting the
    workload's heap.
    """
    rows = _rows()
    collecting = gc.isenabled()
    gc.disable()
    try:
        begin = time.perf_counter()
        groups: dict = {}
        for key, start, payload in rows:
            groups.setdefault(key, []).append((start, payload))
        for members in groups.values():
            members.sort()
        [(key, start + 1, payload) for key, start, payload in rows if start > 100]
        return time.perf_counter() - begin
    finally:
        if collecting:
            gc.enable()


class SpeedGauge:
    """Reference samples taken in the pauses of one timed loop."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def pause(self) -> None:
        """Take this pause's samples; call it between timed operations only."""
        for _ in range(SAMPLES_PER_PAUSE):
            self.samples.append(_reference_task())

    def factor(self) -> float:
        """What a measured time is multiplied by to read at nominal speed."""
        return NOMINAL_SECONDS / percentile(self.samples, 0.25)


def gauged(gauge: SpeedGauge, call: Callable[[], T]) -> Tuple[T, float]:
    """Time *call* with a pause of *gauge* before and after: ``(value, seconds)``."""
    gauge.pause()
    value, elapsed = clock(call)
    gauge.pause()
    return value, elapsed
