"""Process-tree memory and leak accounting from ``/proc`` and ``/dev/shm``."""

from __future__ import annotations

import ctypes
import os
import signal
import time
from typing import Dict, Iterable, List, Set

SHM_DIR = "/dev/shm"

#: How long processes get to exit after their owner shut down.
EXIT_GRACE_SECONDS = 3.0

#: ``prctl`` option that makes orphaned descendants children of the caller.
PR_SET_CHILD_SUBREAPER = 36


def _children_map() -> Dict[int, List[int]]:
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    return children


def descendants(pid: int) -> List[int]:
    """Every live process below ``pid``."""
    children = _children_map()
    found: List[int] = []
    stack = list(children.get(pid, []))
    while stack:
        child = stack.pop()
        found.append(child)
        stack.extend(children.get(child, []))
    return found


def alive(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def own_resource_tracker() -> int:
    """Pid of this process's shared-memory tracker, or 0 if none runs."""
    from multiprocessing import resource_tracker

    return getattr(resource_tracker._resource_tracker, "_pid", None) or 0


def tree_pss_mb(pid: int) -> float:
    """Summed proportional set size of ``pid`` and its descendants in MiB."""
    total_kb = 0
    for member in [pid] + descendants(pid):
        try:
            with open(f"/proc/{member}/smaps_rollup") as handle:
                for line in handle:
                    if line.startswith("Pss:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def shm_segments() -> Set[str]:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


class LeakCheck:
    """Snapshot before a workload; :meth:`leaks` lists what outlived it.

    Call :meth:`track` with the program's processes while they run; any of
    them still alive afterwards (orphans included) is a leak, as is any new
    ``/dev/shm`` entry.
    """

    def __init__(self) -> None:
        self._shm = shm_segments()
        self._pids: Set[int] = set()

    def track(self, pids: Iterable[int]) -> None:
        self._pids.update(pids)

    def leaks(self) -> List[str]:
        own = os.getpid()
        deadline = time.monotonic() + EXIT_GRACE_SECONDS
        while True:
            mine = set(descendants(own))
            live = [
                pid for pid in sorted((self._pids | mine) - {own, own_resource_tracker()})
                if alive(pid)
            ]
            if not live or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        found = [f"process {pid}" for pid in live]
        found += [f"shm {name}" for name in sorted(shm_segments() - self._shm)]
        return found


def become_subreaper() -> None:
    """Adopt orphaned descendants, so that the run can wait for every one.

    Without it a process whose parent exits first (the service's own
    shared-memory tracker, a worker outliving its pool) is re-parented
    outside the run and may outlive it.
    """
    try:
        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _await_exit(select, grace: float) -> List[int]:
    """Wait for the live descendants ``select`` keeps to end; kill stragglers."""
    own = os.getpid()
    deadline = time.monotonic() + grace
    killed: List[int] = []
    while True:
        live = [pid for pid in descendants(own) if alive(pid) and select(pid)]
        if not live:
            return killed
        if time.monotonic() > deadline:
            for pid in live:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    continue
                killed.append(pid)
        time.sleep(0.02)


def stop_all(grace: float = EXIT_GRACE_SECONDS) -> List[int]:
    """Stop every process the run started and reap each; return the killed.

    The program's processes get ``grace`` seconds to end on their own.  The
    stdlib shared-memory tracker ends only when its pipe closes, so it is
    stopped last, and then every remaining child is reaped.
    """
    tracker = own_resource_tracker()
    killed = _await_exit(lambda pid: pid != tracker, grace)
    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    except (ImportError, AttributeError, ChildProcessError):
        pass
    killed += _await_exit(lambda pid: True, grace)
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return killed
