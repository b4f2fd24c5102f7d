"""Child processes of a run: started in their own process group, always reaped.

A :class:`Child` runs one program (the daemon or the sweep worker) in a
new session, so it and everything it spawns (the daemon's pool worker,
multiprocessing's helpers) share one process group.  :meth:`Child.stop`
asks the leader to drain with SIGTERM, kills the whole group if it has
not ended in time, reaps the leader and then waits until every process
it ever saw in the group is gone.

Resident-set peaks and CPU times are read from ``/proc``.
"""

from __future__ import annotations

import os
import resource
import signal
import subprocess
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

_TICKS = os.sysconf("SC_CLK_TCK")


def descendants(pid: int) -> List[int]:
    """*pid*'s live descendants, from ``/proc/<pid>/task/*/children``."""
    found: List[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                text = Path(f"/proc/{parent}/task/{task}/children").read_text()
            except OSError:
                continue
            for child in text.split():
                found.append(int(child))
                frontier.append(int(child))
    return found


def alive(pid: int) -> bool:
    """True while *pid* exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds *pid* has used (0 once it is gone)."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICKS


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of *pid*, or of this process, in MiB."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Child:
    """One program started in a new process group, optionally on one CPU.

    With *cpu* set the program and everything it spawns run on that CPU
    only (see :mod:`perfbench.calibration` for why).
    """

    def __init__(
        self,
        argv: Sequence[str],
        env: Dict[str, str],
        log: Path,
        cpu: Optional[int] = None,
    ):
        self.argv = list(argv)
        self.log = log
        pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
        with open(log, "ab") as handle:
            self.proc = subprocess.Popen(
                self.argv,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=handle,
                stderr=subprocess.STDOUT,
                start_new_session=True,
                preexec_fn=pin,
            )
        self.pid = self.proc.pid
        self.seen: Set[int] = {self.pid}

    def pids(self) -> List[int]:
        """The leader and its live descendants (remembered for :meth:`stop`)."""
        current = [self.pid] + descendants(self.pid)
        self.seen.update(current)
        return current

    def check_running(self) -> None:
        if self.proc.poll() is not None:
            tail = self.log.read_text(errors="replace")[-2000:]
            raise RuntimeError(
                f"{self.argv[2:4]} exited with {self.proc.returncode}:\n{tail}"
            )

    def stop(self, grace: float = 10.0) -> None:
        """SIGTERM the leader, SIGKILL the group after *grace* seconds
        (at once when *grace* is 0), then reap and wait for all of it."""
        self.pids()
        if grace and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                pass
        _kill_group(self.pid)
        self.proc.wait()
        wait_gone(self.seen, timeout=10.0)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def wait_gone(pids: Iterable[int], timeout: float) -> List[int]:
    """Wait until none of *pids* is alive; returns the ones still alive."""
    deadline = time.monotonic() + timeout
    left = [pid for pid in pids if alive(pid)]
    while left and time.monotonic() < deadline:
        time.sleep(0.02)
        left = [pid for pid in left if alive(pid)]
    return left
