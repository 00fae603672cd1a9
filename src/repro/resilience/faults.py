"""Deterministic, seedable fault injection for the simulated disk.

A :class:`FaultInjector` is attached to a :class:`~repro.storage.disk.
SimulatedDisk` and consulted on every charged read and write.  It can

* raise **transient I/O faults** -- the access attempt fails and the disk's
  retry policy decides whether to try again;
* deliver **torn/corrupted pages** -- the stored page is intact, but the
  copy handed to the reader is damaged.  With checksummed frames the
  corruption is detected and retried; without them it is silent;
* **crash** the run at a scheduled operation count, modeling process death
  mid-sweep (:class:`~repro.model.errors.SimulatedCrashError`).

Faults come from two sources that compose:

* **Scripted faults** target a named extent page explicitly
  (:meth:`fail_read`, :meth:`fail_write`, :meth:`corrupt_read`) and fire a
  bounded number of times -- the deterministic building block of the unit
  tests and degradation scenarios.
* **Seeded random faults** fire with configured per-access probabilities
  from a private :class:`random.Random`.  The decision stream is a pure
  function of the seed and the access sequence, so a chaos run is exactly
  reproducible from its seed.

The injector never mutates stored state; permanently bad *storage* is
modeled by :meth:`repro.storage.disk.SimulatedDisk.corrupt_stored`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.model.errors import SimulatedCrashError


@dataclass(frozen=True)
class FaultDecision:
    """What the injector decided for one access attempt.

    Attributes:
        kind: ``"io"`` (the attempt errors outright) or ``"corrupt"``
            (the attempt "succeeds" but delivers a damaged page).
    """

    kind: str


#: Scripted-fault key: (extent name, page index, "read"/"write").
_ScriptKey = Tuple[str, int, str]


class FaultInjector:
    """Seeded fault source consulted by the disk on every charged access.

    Args:
        seed: seed of the random-fault stream.
        read_fault_rate: probability a read attempt raises a transient fault.
        write_fault_rate: probability a write attempt raises a transient fault.
        corruption_rate: probability a read attempt delivers a corrupted page.
        devices: restrict random faults to these device numbers (None = all;
            scripted faults always fire regardless).
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        read_fault_rate: float = 0.0,
        write_fault_rate: float = 0.0,
        corruption_rate: float = 0.0,
        devices: Optional[Sequence[int]] = None,
    ) -> None:
        for name, rate in (
            ("read_fault_rate", read_fault_rate),
            ("write_fault_rate", write_fault_rate),
            ("corruption_rate", corruption_rate),
        ):
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {rate}")
        self.seed = seed
        self.read_fault_rate = read_fault_rate
        self.write_fault_rate = write_fault_rate
        self.corruption_rate = corruption_rate
        self.devices = frozenset(devices) if devices is not None else None
        self._rng = random.Random(seed)
        self._ops = 0
        self._crash_at: Optional[int] = None
        self._scripted: Dict[_ScriptKey, int] = {}
        self._scripted_corrupt: Dict[Tuple[str, int], int] = {}

    # -- crash scheduling ------------------------------------------------------

    @property
    def ops_seen(self) -> int:
        """Charged disk operations observed so far (retries not counted)."""
        return self._ops

    def schedule_crash(self, at_op: int) -> None:
        """Crash the run when the *at_op*-th operation is issued.

        One-shot: after firing, the crash is disarmed, so a resumed run
        proceeds (re-arm explicitly to model repeated failures).
        """
        if at_op < 1:
            raise ValueError(f"crash operation count must be >= 1, got {at_op}")
        self._crash_at = at_op

    def disarm_crash(self) -> None:
        """Cancel a scheduled crash."""
        self._crash_at = None

    def tick(self) -> None:
        """Count one logical disk operation; crash if its turn has come."""
        self._ops += 1
        if self._crash_at is not None and self._ops >= self._crash_at:
            self._crash_at = None
            raise SimulatedCrashError(
                f"simulated crash at operation {self._ops}", operation=self._ops
            )

    # -- scripted faults ----------------------------------------------------------

    def fail_read(self, extent_name: str, page_index: int, *, times: int = 1) -> None:
        """Make the next *times* read attempts of a page raise I/O faults."""
        self._script((extent_name, page_index, "read"), times)

    def fail_write(self, extent_name: str, page_index: int, *, times: int = 1) -> None:
        """Make the next *times* write attempts of a page raise I/O faults."""
        self._script((extent_name, page_index, "write"), times)

    def corrupt_read(self, extent_name: str, page_index: int, *, times: int = 1) -> None:
        """Make the next *times* read attempts of a page deliver a torn copy."""
        if times < 1:
            raise ValueError(f"times must be >= 1, got {times}")
        key = (extent_name, page_index)
        self._scripted_corrupt[key] = self._scripted_corrupt.get(key, 0) + times

    def _script(self, key: _ScriptKey, times: int) -> None:
        if times < 1:
            raise ValueError(f"times must be >= 1, got {times}")
        self._scripted[key] = self._scripted.get(key, 0) + times

    # -- the per-attempt decision --------------------------------------------------

    def on_access(
        self, extent_name: str, device: int, page_index: int, *, write: bool
    ) -> Optional[FaultDecision]:
        """Decide the fate of one access attempt (called per attempt, so a
        retried access is re-examined and scripted counters burn down)."""
        key = (extent_name, page_index, "write" if write else "read")
        remaining = self._scripted.get(key, 0)
        if remaining > 0:
            self._scripted[key] = remaining - 1
            return FaultDecision("io")
        if not write:
            ckey = (extent_name, page_index)
            remaining = self._scripted_corrupt.get(ckey, 0)
            if remaining > 0:
                self._scripted_corrupt[ckey] = remaining - 1
                return FaultDecision("corrupt")
        if self.devices is not None and device not in self.devices:
            return None
        rate = self.write_fault_rate if write else self.read_fault_rate
        if rate > 0.0 and self._rng.random() < rate:
            return FaultDecision("io")
        if not write and self.corruption_rate > 0.0:
            if self._rng.random() < self.corruption_rate:
                return FaultDecision("corrupt")
        return None
