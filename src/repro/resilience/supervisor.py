"""Lane supervision: heartbeats, deterministic re-dispatch, and quarantine.

The pipelined sweeps fan pure-compute probe work out to a
``multiprocessing`` pool.  Before this module, a dying or hung worker was
swallowed by blanket ``except Exception`` fallbacks -- the sweep silently
reran everything serially, unobserved and untested.  The
:class:`LaneSupervisor` replaces the raw ``pool.map`` with a supervised
dispatch that makes every failure mode explicit:

* **Crashed lanes** (SIGKILL, OOM-kill, hard exit) are detected by watching
  the exit codes of the worker processes snapshotted at dispatch time --
  a pool quietly repopulates dead workers, but the in-flight task is lost
  and a bare ``map`` would wait forever.
* **Hung lanes** are detected by a per-dispatch deadline
  (:attr:`SupervisionPolicy.lane_timeout_seconds`); progress is sampled on
  a heartbeat and intervals without a newly completed lane are counted as
  heartbeat misses.

Recovery is **deterministic re-dispatch**: lane tasks are pure functions of
their inputs (``group_rank % lanes`` fan-out, no I/O, no shared mutable
state), so terminating the pool and re-running the failed dispatch on a
fresh one is bit-identical by construction.  Every recovery charges a
:class:`~repro.resilience.retry.RetryPolicy` backoff penalty to the
supervisor's own ledger (:attr:`LaneSupervisionStats.backoff_ops`) --
deliberately *not* to the charged-I/O statistics, because lanes perform no
I/O and the acceptance contract is that a disturbed run's charged ledger
stays bit-identical to an undisturbed one.

Repeated failure walks a quarantine ladder: every
:attr:`SupervisionPolicy.quarantine_after` consecutive failures retires one
lane (shrinking the fan-out), and when fewer than two lanes remain -- or
:attr:`SupervisionPolicy.max_redispatches` is exceeded -- the supervisor
retires entirely and the identical computation continues in-process.

Everything is observable: ``repro_lane_*`` metrics, trace events, and
:class:`~repro.resilience.report.DegradationEvent` entries with ``lane-*``
kinds (which the service layer uses to keep disturbed runs out of the
result cache and to trip its circuit breaker).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.model.errors import LaneFailureError
from repro.resilience.retry import RetryPolicy

#: Exceptions a pool dispatch can legitimately surface in restricted or
#: degraded environments (spawn refused, pipe torn, worker lost, payload
#: unpicklable).  Fallback handlers catch exactly these -- never a blanket
#: ``Exception`` -- so genuine bugs keep propagating.
LANE_POOL_ERRORS: Tuple[type, ...] = (
    OSError,
    ValueError,
    ImportError,
    RuntimeError,
    EOFError,
    MemoryError,
    multiprocessing.ProcessError,
    pickle.PicklingError,
    pickle.UnpicklingError,
)

#: Process-global lane-fault injector hook.  The service layer builds its
#: configs from frozen, hashable dataclasses that cannot carry an injector
#: object, so service-level chaos tests install one here instead; every
#: supervisor consults it after its own injector.
_GLOBAL_LANE_INJECTOR = None


def install_lane_injector(injector) -> None:
    """Install a process-global lane-fault injector (chaos tests)."""
    global _GLOBAL_LANE_INJECTOR
    _GLOBAL_LANE_INJECTOR = injector


def clear_lane_injector() -> None:
    """Remove the process-global lane-fault injector."""
    global _GLOBAL_LANE_INJECTOR
    _GLOBAL_LANE_INJECTOR = None


@dataclass(frozen=True)
class SupervisionPolicy:
    """Bounds and cadence of lane supervision.

    Attributes:
        lane_timeout_seconds: wall-clock deadline for one dispatch; a
            dispatch still incomplete past it is declared hung and
            re-dispatched on a fresh pool.
        heartbeat_seconds: progress-sampling interval; a heartbeat with no
            newly completed lane counts one miss (observability only --
            misses never trigger recovery by themselves).
        max_redispatches: consecutive failed dispatches tolerated before
            the supervisor retires to in-process execution.
        quarantine_after: consecutive failures per quarantined lane; every
            ``quarantine_after``-th consecutive failure retires one lane.
            0 disables quarantine (the lane count never shrinks).
        retry: backoff shape; recovery ``i`` of a consecutive-failure run
            charges ``retry.penalty(i)`` operations to the supervisor's
            backoff ledger (never to the charged-I/O statistics).
    """

    lane_timeout_seconds: float = 30.0
    heartbeat_seconds: float = 0.5
    max_redispatches: int = 3
    quarantine_after: int = 2
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        if self.lane_timeout_seconds <= 0:
            raise ValueError(
                f"lane_timeout_seconds must be positive, got {self.lane_timeout_seconds}"
            )
        if self.heartbeat_seconds <= 0:
            raise ValueError(
                f"heartbeat_seconds must be positive, got {self.heartbeat_seconds}"
            )
        if self.max_redispatches < 0:
            raise ValueError(
                f"max_redispatches must be >= 0, got {self.max_redispatches}"
            )
        if self.quarantine_after < 0:
            raise ValueError(
                f"quarantine_after must be >= 0 (0 disables quarantine), "
                f"got {self.quarantine_after}"
            )


@dataclass
class LaneSupervisionStats:
    """What one supervisor observed and did over its lifetime.

    ``backoff_ops`` is the supervisor's own charged ledger: recovery
    penalties land here (and on the ``repro_lane_backoff_ops_total``
    metric), never on the disk's I/O statistics -- lanes do no I/O, so the
    charged bill of a disturbed run must stay bit-identical.
    """

    dispatches: int = 0
    deaths: int = 0
    hangs: int = 0
    errors: int = 0
    heartbeat_misses: int = 0
    redispatches: int = 0
    quarantines: int = 0
    backoff_ops: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "dispatches": self.dispatches,
            "deaths": self.deaths,
            "hangs": self.hangs,
            "errors": self.errors,
            "heartbeat_misses": self.heartbeat_misses,
            "redispatches": self.redispatches,
            "quarantines": self.quarantines,
            "backoff_ops": self.backoff_ops,
        }

    @property
    def failures(self) -> int:
        return self.deaths + self.hangs + self.errors


def _wedged_lane(args):
    """Scripted hang: wedge one lane well past the dispatch deadline.

    Used by the fault injector's ``hang_lane`` script; the sleep exceeds
    the supervisor's deadline, so detection -- and the SIGTERM delivered by
    the recovery's ``pool.terminate()`` -- always wins.
    """
    fn, task, seconds = args
    time.sleep(seconds)
    return fn(task)


class LaneSupervisor:
    """Supervised ``map`` over a lane pool the supervisor owns.

    Args:
        lanes: initial lane count (< 2 means in-process from the start).
        policy: supervision bounds (None = defaults).
        injector: optional :class:`~repro.resilience.faults.FaultInjector`;
            its ``on_lane_dispatch`` script drives the chaos tests.  The process-global injector installed via
            :func:`install_lane_injector` is consulted as well.
        report: optional :class:`~repro.resilience.report.ResilienceReport`
            receiving ``lane-*`` degradation events.
        obs: optional observability runtime for metrics and events.
        initializer / initargs: forwarded to the pool (and run once
            in-process when the pool cannot be used, so initializer-
            dependent task functions keep working in the fallback).
    """

    def __init__(
        self,
        lanes: int,
        *,
        policy: Optional[SupervisionPolicy] = None,
        injector=None,
        report=None,
        obs=None,
        initializer: Optional[Callable] = None,
        initargs: Tuple = (),
    ) -> None:
        self.policy = policy if policy is not None else SupervisionPolicy()
        self.lanes = max(1, int(lanes))
        self.stats = LaneSupervisionStats()
        self._injector = injector
        self._report = report
        self._obs = obs
        self._initializer = initializer
        self._initargs = initargs
        self._init_done = False
        self._pool = None
        self._retired = False
        self._spawn_failed = False
        self._consecutive = 0
        self._teardowns: List[Callable[[], None]] = []
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    @property
    def retired(self) -> bool:
        """True once the supervisor gave up on pools for good."""
        return self._retired or self._spawn_failed or self._closed

    def add_teardown(self, closer: Callable[[], None]) -> None:
        """Register a resource closed with the supervisor (idempotent safe).

        Whatever is registered here is reclaimed on the supervisor-owned
        teardown path even when a lane died mid-dispatch and the caller's
        unwind is abnormal.
        """
        self._teardowns.append(closer)

    def ensure_pool(self):
        """The live lane pool, or None when work must run in-process."""
        if self.retired or self.lanes < 2:
            return None
        if self._pool is None:
            try:
                self._pool = multiprocessing.get_context().Pool(
                    processes=self.lanes,
                    initializer=self._initializer,
                    initargs=self._initargs,
                )
                if self._obs is not None:
                    self._obs.event("lane-pool-start", lanes=self.lanes)
            except LANE_POOL_ERRORS:
                # Restricted environments (sandboxes, some CI runners)
                # cannot spawn processes; same computation, one process.
                self._spawn_failed = True
                self._degrade(
                    "pool-fallback",
                    f"lane pool of {self.lanes} workers could not be spawned; "
                    f"running in-process",
                )
        return self._pool

    def close(self) -> None:
        """Run registered teardowns and discard the pool (idempotent)."""
        if self._closed:
            return
        self._closed = True
        teardowns, self._teardowns = self._teardowns, []
        for closer in teardowns:
            try:
                closer()
            except Exception:
                pass
        self._discard_pool()

    def _discard_pool(self, *, broken: bool = False) -> None:
        """Tear the pool down without ever blocking the parent.

        ``Pool.terminate()`` can deadlock after a worker was SIGKILLed: the
        dead worker may have held the shared task-queue lock, and the
        pool's teardown helper blocks on that lock forever.  So a *broken*
        pool's surviving workers are killed directly first (their tasks are
        re-dispatched anyway), and the stdlib teardown runs on a bounded
        daemon thread -- if it wedges on the poisoned lock, the thread is
        abandoned and cannot keep the process alive, and the workers it
        would have reaped are killed and reaped here.  A healthy pool is
        NEVER pre-killed: SIGKILLing an idle worker that holds the
        task-queue read lock would *create* the poisoned lock and stall
        every clean close for the full reaper timeout.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if broken:
            for proc in list(getattr(pool, "_pool", None) or []):
                try:
                    if proc is not None and proc.exitcode is None:
                        os.kill(proc.pid, signal.SIGKILL)
                except OSError:
                    pass

        def teardown() -> None:
            try:
                pool.terminate()
                pool.join()
            except Exception:
                pass

        reaper = threading.Thread(
            target=teardown, name="lane-pool-reaper", daemon=True
        )
        reaper.start()
        reaper.join(timeout=1.0)
        if reaper.is_alive():
            # The teardown wedged and is abandoned, so nothing else will
            # ever reap this pool's workers -- including the ones the pool
            # respawned after the pre-kill above.  Kill and reap them here
            # instead of leaving them until interpreter exit.
            for proc in list(getattr(pool, "_pool", None) or []):
                try:
                    if proc.exitcode is None:
                        proc.kill()
                    proc.join(timeout=1.0)
                except OSError:
                    pass

    # -- the supervised dispatch ----------------------------------------------

    def map(self, fn: Callable, tasks: Sequence, *, label: str = "lanes") -> List:
        """Run ``fn`` over *tasks* on the supervised pool, in task order.

        Detects crashed, hung, and erroring dispatches and recovers by
        re-dispatching the whole failed dispatch on a fresh pool -- the
        tasks are pure, so the retry is bit-identical.  After retirement
        (or when no pool is available) the identical computation runs
        in-process.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        while True:
            pool = self.ensure_pool()
            if pool is None:
                if self._initializer is not None and not self._init_done:
                    self._initializer(*self._initargs)
                    self._init_done = True
                return [fn(task) for task in tasks]
            self.stats.dispatches += 1
            fault = self._scripted_lane_fault()
            try:
                results = self._dispatch(pool, fn, tasks, fault, label)
            except LaneFailureError as failure:
                self._recover(failure, label)
                continue
            self._consecutive = 0
            return results

    def _dispatch(self, pool, fn, tasks, fault: Optional[str], label: str) -> List:
        policy = self.policy
        # Snapshot the worker processes NOW: the pool silently replaces a
        # dead worker, but the task it held is gone -- the exit codes of
        # this snapshot are the crash detector.
        procs = [p for p in (getattr(pool, "_pool", None) or []) if p is not None]
        asyncs = []
        for i, task in enumerate(tasks):
            if fault == "hang" and i == 0:
                wedge = (fn, task, policy.lane_timeout_seconds * 4 + 1.0)
                asyncs.append(pool.apply_async(_wedged_lane, (wedge,)))
            else:
                asyncs.append(pool.apply_async(fn, (task,)))
        if fault == "kill" and procs:
            victim = procs[self.stats.dispatches % len(procs)]
            try:
                os.kill(victim.pid, signal.SIGKILL)
            except OSError:
                pass

        start = time.monotonic()
        deadline = start + policy.lane_timeout_seconds
        next_beat = start + policy.heartbeat_seconds
        last_ready = -1
        slice_s = min(0.05, max(0.005, policy.heartbeat_seconds / 4.0))
        while True:
            dead = [p.exitcode for p in procs if p.exitcode is not None]
            if dead:
                raise LaneFailureError(
                    f"lane worker died mid-dispatch ({label})",
                    kind="death",
                    exitcodes=tuple(dead),
                )
            ready = sum(1 for a in asyncs if a.ready())
            if ready == len(asyncs):
                try:
                    return [a.get() for a in asyncs]
                except LaneFailureError:
                    raise
                except Exception as error:
                    raise LaneFailureError(
                        f"lane task raised {type(error).__name__}: {error} ({label})",
                        kind="error",
                    ) from error
            now = time.monotonic()
            if now >= deadline:
                raise LaneFailureError(
                    f"lane dispatch exceeded its {policy.lane_timeout_seconds:.3f}s "
                    f"deadline with {len(asyncs) - ready} lanes outstanding ({label})",
                    kind="hang",
                    timeout=policy.lane_timeout_seconds,
                )
            if now >= next_beat:
                if ready == last_ready:
                    self.stats.heartbeat_misses += 1
                    if self._obs is not None:
                        self._obs.count(
                            "repro_lane_heartbeat_misses_total",
                            "Heartbeat intervals with no lane progress.",
                        )
                last_ready = ready
                next_beat = now + policy.heartbeat_seconds
            for a in asyncs:
                if not a.ready():
                    a.wait(min(slice_s, max(1e-4, deadline - now)))
                    break

    # -- failure accounting ----------------------------------------------------

    def _recover(self, failure: LaneFailureError, label: str) -> None:
        """Account one failed dispatch and prepare the re-dispatch.

        The pool is discarded wholesale: any worker of a failed dispatch
        may hold stale state (a wedged task), and lane
        tasks are cheap pure compute, so a fresh pool is both the safe and
        the simple recovery.  The caller's loop then re-runs every task of
        the dispatch -- results of an aborted dispatch are never trusted,
        and purity makes the re-run free of semantic cost.
        """
        self._discard_pool(broken=True)
        kind = str(failure.context.get("kind", "error"))
        if kind == "death":
            self.stats.deaths += 1
            metric = "repro_lane_deaths_total"
        elif kind == "hang":
            self.stats.hangs += 1
            metric = "repro_lane_hangs_total"
        else:
            self.stats.errors += 1
            metric = "repro_lane_errors_total"
        if self._obs is not None:
            self._obs.count(metric, "Supervised lane failures by kind.")
        self._charge_failure(f"lane-{kind}", f"{failure} (dispatch {self.stats.dispatches}, {label})")

    def _charge_failure(self, kind: str, detail: str) -> None:
        self._consecutive += 1
        attempt = self._consecutive
        penalty = self.policy.retry.penalty(attempt)
        self.stats.backoff_ops += penalty
        self.stats.redispatches += 1
        self._degrade(kind, f"{detail}; re-dispatch {attempt} charged {penalty} backoff ops")
        if self._obs is not None:
            self._obs.count(
                "repro_lane_redispatches_total",
                "Lane dispatches re-run after a failure.",
            )
            if penalty:
                self._obs.count(
                    "repro_lane_backoff_ops_total",
                    "Backoff penalty ops charged to the supervisor's ledger.",
                    float(penalty),
                )
            self._obs.event("lane-failure", kind=kind, attempt=attempt, detail=detail)
        if attempt > self.policy.max_redispatches:
            self._retire(
                f"{attempt} consecutive lane failures exceeded "
                f"max_redispatches={self.policy.max_redispatches}"
            )
            return
        if self.policy.quarantine_after and attempt % self.policy.quarantine_after == 0:
            self.lanes -= 1
            self.stats.quarantines += 1
            self._degrade(
                "lane-quarantine",
                f"lane retired after {attempt} consecutive failures; "
                f"{self.lanes} lanes remain",
            )
            if self._obs is not None:
                self._obs.count(
                    "repro_lane_quarantines_total",
                    "Lanes retired by the quarantine ladder.",
                )
            if self.lanes < 2:
                self._retire("lane count shrank below 2")

    def _retire(self, reason: str) -> None:
        if self._retired:
            return
        self._retired = True
        self._degrade("lane-retired", f"{reason}; continuing in-process")

    def _degrade(self, kind: str, detail: str) -> None:
        if self._report is not None:
            self._report.record_degradation(kind, detail)
        if self._obs is not None:
            self._obs.event("degradation", kind=kind, detail=detail)
            self._obs.count(
                "repro_degradations_total",
                "Recorded degradation events by kind.",
                kind=kind,
            )

    # -- scripted chaos ----------------------------------------------------------

    def _scripted_lane_fault(self) -> Optional[str]:
        for injector in (self._injector, _GLOBAL_LANE_INJECTOR):
            hook = getattr(injector, "on_lane_dispatch", None)
            if hook is not None:
                fault = hook(self.stats.dispatches)
                if fault is not None:
                    return fault
        return None


__all__ = [
    "LANE_POOL_ERRORS",
    "LaneSupervisionStats",
    "LaneSupervisor",
    "SupervisionPolicy",
    "clear_lane_injector",
    "install_lane_injector",
]
