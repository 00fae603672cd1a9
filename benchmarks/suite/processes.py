"""Leave no process behind: everything a run started has ended when it exits.

The program under test forks lane pools and shard workers, and its
shared-memory arenas make the standard library spawn a
``multiprocessing.resource_tracker`` helper that by design outlives its
parent for a moment.  :func:`guard` makes this process the reaper of every
descendant, orphaned grandchildren included, and registers :func:`reap_all`
to run at interpreter exit.  Call it before anything imports
``multiprocessing``: exit handlers run last-registered-first, so the reaper
then runs after ``multiprocessing``'s own orderly shutdown, on every way
out that Python controls (return, ``sys.exit``, uncaught exception).
"""

from __future__ import annotations

import atexit
import os
import signal
import sys
import time
from typing import List

#: How long a child may take to end by itself, then after SIGTERM.
GRACE_SECONDS = 2.0
_PR_SET_CHILD_SUBREAPER = 36
_guarded = False


def guard() -> None:
    """Adopt orphaned descendants from now on and reap them all at exit."""
    global _guarded
    if _guarded:
        return
    _guarded = True
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: direct children are still reaped below
    atexit.register(reap_all)


def children() -> List[int]:
    """Pids whose parent is this process, zombies included."""
    me = os.getpid()
    found = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return found
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue  # ended while we were looking
        # pid (comm) state ppid ...; comm may itself contain spaces and parentheses
        if int(stat[stat.rindex(")") + 2 :].split()[1]) == me:
            found.append(int(entry))
    return found


def _stop_resource_tracker() -> None:
    """End the stdlib's shared-memory tracker the way it expects: close its pipe."""
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(tracker_module, "_resource_tracker", None)
    fd = getattr(tracker, "_fd", None)
    if fd is None:
        return
    try:
        os.close(fd)
    except OSError:
        pass
    tracker._fd = None  # a later ensure_running() would start a fresh one


def _wait_for(pids: List[int], seconds: float) -> List[int]:
    """Reap *pids* as they end; return those still running after *seconds*."""
    deadline = time.monotonic() + seconds
    pending = list(pids)
    while pending:
        for pid in list(pending):
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                done = pid  # somebody else already reaped it
            if done:
                pending.remove(pid)
        if not pending or time.monotonic() >= deadline:
            break
        time.sleep(0.005)
    return pending


def reap_all() -> None:
    """Stop and wait for every remaining child; adopted orphans arrive in later rounds."""
    _stop_resource_tracker()
    for _ in range(5):
        pending = children()
        if not pending:
            return
        pending = _wait_for(pending, GRACE_SECONDS)
        for sig in (signal.SIGTERM, signal.SIGKILL):
            if not pending:
                break
            for pid in pending:
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
            pending = _wait_for(pending, GRACE_SECONDS)
