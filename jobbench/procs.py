"""Launching job processes: fresh sandboxes, timeouts, memory, leaks.

Every job process starts in its own session with fresh ``HOME``,
``XDG_CACHE_HOME`` and ``TMPDIR`` directories, so an on-disk cache the
program might add starts empty for each job.  After the process exits
the launcher checks that no process of its session is still alive.
Jobs may run concurrently from several threads; ``/dev/shm`` is checked
by the caller once every concurrent job has ended (``shm_entries``).
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path

SHM_DIR = Path("/dev/shm")

#: How long stragglers (e.g. Python's resource tracker) may take to exit
#: after the job process itself has exited.
LEAK_GRACE_S = 3.0


def become_subreaper() -> None:
    """Adopt orphaned grandchildren so they can be reaped (Linux only)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def sandbox(root: Path) -> dict[str, str]:
    """Fresh per-job HOME/XDG_CACHE_HOME/TMPDIR under *root*."""
    env = {}
    for var, name in (
        ("HOME", "home"),
        ("XDG_CACHE_HOME", "cache"),
        ("TMPDIR", "tmp"),
    ):
        path = root / name
        path.mkdir(parents=True, exist_ok=True)
        env[var] = str(path)
    return env


def job_env(src: Path, sandbox_env: dict[str, str]) -> dict[str, str]:
    env = dict(os.environ)
    env.update(sandbox_env)
    env["PYTHONPATH"] = str(src)
    return env


def shm_entries() -> set[str]:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


#: Job processes a launcher thread is waiting for: reaping orphans must
#: leave them to their own thread's ``wait4``.  Guarded by ``_LOCK``.
_WAITING: set[int] = set()
_LOCK = threading.Lock()


def _process_stats():
    """``(pid, fields)`` of every process; ``fields`` are the ``stat``
    fields after the command name (state, ppid, pgrp, session, ...)."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read().decode(errors="replace")
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 3:
            yield int(entry), fields


def session_members(sid: int) -> list[int]:
    """Live processes whose session id is *sid*."""
    return [
        pid
        for pid, fields in _process_stats()
        if fields[0] != "Z" and fields[3] == str(sid)
    ]


def _reap_orphans() -> None:
    """Reap adopted children that have exited (subreaper bookkeeping),
    except job processes another thread is waiting for."""
    me = str(os.getpid())
    with _LOCK:
        for pid, fields in _process_stats():
            if fields[0] == "Z" and fields[1] == me and pid not in _WAITING:
                try:
                    os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    pass


@dataclass
class Outcome:
    """What one job process did."""

    returncode: int | None
    wall_s: float
    started_at: float  #: wall-clock (``time.time``) launch instant
    peak_rss_mb: float
    timed_out: bool = False
    leaked_processes: int = 0


def run_process(
    argv: list[str],
    *,
    cwd: Path,
    env: dict[str, str],
    stdout: Path,
    stderr: Path,
    timeout_s: float,
) -> Outcome:
    """Run *argv* to completion (or kill it at *timeout_s*).

    ``peak_rss_mb`` is the largest resident set of the process and every
    descendant it reaped (pool workers included), from ``wait4``.
    Safe to call from several threads at once.
    """
    timed_out = threading.Event()
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        started_at = time.time()
        started = time.perf_counter()
        with _LOCK:
            proc = subprocess.Popen(
                argv,
                cwd=cwd,
                env=env,
                stdout=out,
                stderr=err,
                stdin=subprocess.DEVNULL,
                start_new_session=True,
            )
            _WAITING.add(proc.pid)

        def kill() -> None:
            timed_out.set()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(timeout_s, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            with _LOCK:
                _WAITING.discard(proc.pid)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    leaked = _settle_session(proc.pid)
    return Outcome(
        returncode=None if timed_out.is_set() else proc.returncode,
        wall_s=wall,
        started_at=started_at,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        timed_out=timed_out.is_set(),
        leaked_processes=leaked,
    )


def remove_shm(names: set[str]) -> list[str]:
    """Unlink the ``/dev/shm`` entries *names*; their sorted list."""
    for name in names:
        try:
            os.unlink(SHM_DIR / name)
        except OSError:
            pass
    return sorted(names)


def _settle_session(sid: int) -> int:
    """Wait for the session to empty; kill and count what outlives the
    grace period."""
    deadline = time.monotonic() + LEAK_GRACE_S
    members = session_members(sid)
    while members and time.monotonic() < deadline:
        time.sleep(0.05)
        _reap_orphans()
        members = session_members(sid)
    if not members:
        return 0
    for pid in members:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 10.0
    while session_members(sid) and time.monotonic() < deadline:
        time.sleep(0.05)
        _reap_orphans()
    return len(members)
