"""Run a command in a session of its own, and leave nothing of it behind.

A run starts processes that outlive their parents by a moment or for good:
``multiprocessing``'s resource tracker (started by the engine's process pools
and shared-memory planes, inside ``python -m repro --jobs 2`` and inside the
traced run's in-process jobs probes) exits only *after* the process that
started it, and a crashed pool leaves its workers.  A benchmark that returns
while one of them is alive has not stopped what it started.

So the one-run form of ``run.py`` is two processes: this supervisor, which
measures nothing, and the run proper, started in a new session.  The
supervisor makes itself the *child subreaper*, so that every orphaned
descendant becomes its child, and returns only when the session is empty and
it has no child left — waiting a moment for those that are leaving on their
own, killing those that are not — on every path out, a signal included.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import time

_PR_SET_CHILD_SUBREAPER = 36
#: Seconds an orphan may take to leave on its own (the resource tracker unlinks
#: leaked shared memory on its way out) before it is killed.
GRACE_S = 2.0


def _become_subreaper() -> None:
    # Best effort: without it the session scan below still finds the orphans,
    # it only cannot wait() for those that init has adopted.
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _parent_of(pid: int) -> "int | None":
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return int(stat.read().rpartition(")")[2].split()[1])
    except (OSError, ValueError, IndexError):
        return None


def _reap() -> bool:
    """Collect every child that has ended; true if a child is still there."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return False
        if pid == 0:
            return True


def _alive(session: int) -> "list[int]":
    """Processes of ``session``, and our own children whatever their session."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == me:
            continue
        pid = int(entry)
        try:
            member = os.getsid(pid) == session
        except OSError:
            continue
        if member or _parent_of(pid) == me:
            found.append(pid)
    return found


def sweep(session: int, grace_s: float = GRACE_S) -> None:
    """Return once nothing of ``session`` and no child of ours is left."""
    deadline = time.monotonic() + grace_s
    while True:
        children = _reap()
        alive = _alive(session)
        if not children and not alive:
            return
        if time.monotonic() >= deadline:
            for pid in alive:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        time.sleep(0.005)


class _Stopped(BaseException):
    """A termination signal reached the supervisor."""


def _raise_stopped(signum: int, frame: object) -> None:
    raise _Stopped(signum)


def supervised(argv: "list[str]") -> int:
    """``argv`` to completion in its own session; its exit code.

    The child inherits stdout and stderr, so what it prints last is what the
    caller reads last.
    """
    _become_subreaper()
    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, _raise_stopped)
    child = subprocess.Popen(argv, start_new_session=True)
    grace_s = GRACE_S
    try:
        return child.wait()
    except _Stopped as stopped:
        grace_s = 0.0
        return 128 + int(stopped.args[0])
    finally:
        for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
            signal.signal(signum, signal.SIG_IGN)
        sweep(child.pid, grace_s)
