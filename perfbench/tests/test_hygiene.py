"""No process outlives a run, and a run without the program fails cleanly."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import procs, workloads

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"

#: A parent and a child that both ignore SIGTERM and would sleep for a minute.
STUBBORN = (
    "import signal, subprocess, sys, time\n"
    "signal.signal(signal.SIGTERM, signal.SIG_IGN)\n"
    "subprocess.Popen([sys.executable, '-c', 'import signal, time; "
    "signal.signal(signal.SIGTERM, signal.SIG_IGN); time.sleep(60)'])\n"
    "time.sleep(60)\n"
)


def test_stop_kills_and_reaps_the_whole_group(tmp_path: Path):
    child = procs.Child([sys.executable, "-c", STUBBORN], {}, tmp_path / "log")
    deadline = time.monotonic() + 10.0
    while len(child.pids()) < 2 and time.monotonic() < deadline:
        time.sleep(0.02)
    assert len(child.pids()) == 2
    child.stop(grace=0.5)
    assert child.proc.returncode is not None
    assert procs.wait_gone(child.seen, timeout=5.0) == []


def test_run_reaps_daemon_pool_and_worker():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "sweep_dist", "--seed", "5",
         "--seconds", "0.1"],
        capture_output=True, text=True, timeout=180, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    detail = json.loads(lines[-2][2:])
    # Daemon, its pool worker(s) and the sweep worker, over three trials.
    assert len(detail["pids"]) >= 9
    assert procs.wait_gone(detail["pids"], timeout=5.0) == []


def test_failing_run_still_reaps(monkeypatch, tmp_path: Path):
    monkeypatch.setattr(workloads, "SETUP_TRIALS", 1)

    def broken(self, round_no):
        raise RuntimeError("round failed")

    monkeypatch.setattr(workloads.ServeMixed, "round", broken)
    seen = []
    original_stop = workloads.Workload.stop

    def recording_stop(self, graceful=True):
        seen.extend(pid for child in self.children for pid in child.pids())
        original_stop(self, graceful)

    monkeypatch.setattr(workloads.Workload, "stop", recording_stop)
    ctx = workloads.Context(root=ROOT, tmp=tmp_path, seed=1, seconds=1.0,
                            trace=False, started=0.0, imported=0.0)
    with pytest.raises(RuntimeError, match="round failed"):
        workloads.run("serve_mixed", ctx)
    assert seen
    assert procs.wait_gone(seen, timeout=5.0) == []


def test_without_the_program_the_run_fails_without_a_result(tmp_path: Path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
