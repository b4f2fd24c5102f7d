"""The four workloads: set-up, timed rounds, output checks and metrics.

Every workload is a closed loop driven by this one process with one
request in flight.  :func:`run` does the same for each:

1. set-up, timed as ``setup_s``: imports (timed by the caller), three
   trials of input generation and service start-up (the median counts;
   the third trial's services are kept, the others are stopped outside
   the clock), and for ``batch_warm`` the cache fill;
2. a fixed number of whole rounds of the workload's job set, enough to
   fill ``--seconds`` on the reference host (see :mod:`.calibration`),
   with calibration slices between jobs and around rounds, outside the
   clocks;
3. after each round, outside the round clock, the output checks of
   :mod:`perfbench.checks` against in-process reference compiles, the
   differential oracle on the first result of each distinct program
   included; only a small summary of each reference is kept;
4. services stopped and reaped, also when anything above fails.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.api import BatchCompiler, Toolchain
from repro.service.client import ServiceClient

from . import checks, inputs
from .calibration import Calibration
from .layers import Tracer, instrument
from .procs import Child, cpu_seconds, peak_rss_mb

#: Set-up trials (input generation and service start-up) per run;
#: ``setup_s`` counts their median.
SETUP_TRIALS = 3

#: Seconds a service gets to come up before the run fails.
START_TIMEOUT = 60.0


def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile of *values* (q in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


@dataclass
class Context:
    """What one run needs from its caller."""

    root: Path
    tmp: Path
    seed: int
    seconds: float
    trace: bool
    started: float  # perf_counter() before the program was imported
    imported: float  # perf_counter() once it was


@dataclass
class Outcome:
    """Everything one run measured and checked."""

    attempted: int = 0
    problems: List[str] = field(default_factory=list)
    failed_jobs: set = field(default_factory=set)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    detail: Dict[str, object] = field(default_factory=dict)
    tracer: Optional[Tracer] = None


class Workload:
    """Shared machinery; subclasses fill in the workload-specific steps."""

    name = ""
    #: Jobs per round (the whole job set, sent once or repeatedly).
    jobs_per_round = 0
    #: Seconds one round takes on the reference host.  A run makes
    #: ``ceil(--seconds / round_seconds)`` rounds, and at least
    #: ``min_rounds``: the same work on any host, so counts and memory
    #: peaks do not depend on its speed.
    round_seconds = 1.0
    min_rounds = 1

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.tracer = Tracer()
        self.tracer.enabled = False  # on only inside timed rounds
        # Every process of the run works on this one CPU, the one the
        # calibration slices measure (see calibration.py).
        self.cpu = max(os.sched_getaffinity(0))
        self.cal = Calibration()
        self.latencies: List[float] = []  # raw seconds per job
        self.scaled: List[float] = []  # the same, at reference host speed
        self.wall = {"raw": 0.0, "scaled": 0.0}
        self.round_log: List[tuple] = []  # (raw seconds, scale) per round
        self.outcome = Outcome()
        self.children: List[Child] = []
        self.client: Optional[ServiceClient] = None  # to the daemon, if any
        self.stopped_pids: set = set()  # every process a stopped child had
        self.cpu_time: Dict[str, float] = {}  # role -> seconds in rounds
        self.verified: set = set()  # fingerprints the oracle has run on
        self.round0: List[Dict[str, int]] = []  # job_counters of round 0

    # -- steps a workload overrides ------------------------------------

    def prepare(self) -> None:
        """Generate the inputs (once per set-up trial)."""

    def start(self, trial: int) -> None:
        """Start the services (once per set-up trial)."""

    def fill(self) -> None:
        """Extra one-time set-up after the services are up."""

    def before_round(self, round_no: int) -> None:
        """Untimed preparation of one round."""

    def round(self, round_no: int) -> None:
        """One timed round; appends to ``self.latencies``."""
        raise NotImplementedError

    def after_round(self, round_no: int) -> None:
        """Untimed output checks of one round."""

    def service_counters(self) -> Dict[str, float]:
        """Counters read from the services at the end of the timed phase."""
        return {}

    def program_pids(self) -> Dict[str, List[int]]:
        """Process role -> pids of the system under test (not this one)."""
        return {}

    # -- shared helpers -------------------------------------------------

    def stop(self, graceful: bool = True) -> None:
        """Stop the services: drained, or killed at once (start-up trials)."""
        if self.client is not None:
            self.client.close()
            self.client = None
        while self.children:
            child = self.children.pop()
            child.stop(grace=10.0 if graceful else 0.0)
            self.stopped_pids.update(child.seen)

    def fail(self, job: object, problem: Optional[str]) -> None:
        if problem:
            self.outcome.failed_jobs.add(job)
            self.outcome.problems.append(problem)

    def verify_once(self, job: object, want: checks.Expected, compiled) -> None:
        """The differential oracle, on the first program of each schedule."""
        if want.fingerprint not in self.verified:
            self.verified.add(want.fingerprint)
            for problem in checks.oracle_problems(compiled):
                self.fail(job, problem)

    def check_report(self, job: object, want: checks.Expected, report) -> None:
        """Check a returned report against its reference compile's *want*."""
        label = f"{want.label} (job {job})"
        self.fail(job, checks.fingerprint_problem(
            checks.fingerprint(report), want.fingerprint, label))
        self.fail(job, checks.ii_problem(report.result.ii, want.bound, label))
        self.fail(job, checks.program_problem(report, want.program, label))
        self.verify_once(job, want, report.compiled)

    def keep_round0(self, reports: List[object]) -> None:
        """Keep the counters of round 0's reference reports."""
        self.round0 = [job_counters(r, self.ctx.trace) for r in reports]

    def child_env(self) -> Dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.ctx.root / "src")
        env["TMPDIR"] = str(self.ctx.tmp)
        return env

    def start_daemon(self, folder: Path, disk_cache: bool) -> str:
        folder.mkdir(parents=True)
        cache = ["--cache", str(folder / "cache")] if disk_cache else []
        daemon = Child(
            [sys.executable, "-m", "repro.cli", "serve", "--workers", "1",
             *cache,
             "--journal", str(folder / "journal.jsonl"),
             "--port-file", str(folder / "port")],
            self.child_env(),
            folder / "daemon.log",
            cpu=self.cpu,
        )
        self.children.append(daemon)
        port_file = folder / "port"
        deadline = time.monotonic() + START_TIMEOUT
        while not (port_file.exists() and port_file.read_text().strip()):
            daemon.check_running()
            if time.monotonic() > deadline:
                raise RuntimeError("daemon did not bind in time")
            time.sleep(0.005)
        address = port_file.read_text().strip()
        with ServiceClient(address) as client:
            client.healthz()
        self.daemon = daemon
        return address

    def cpu_roles(self) -> Dict[str, float]:
        """CPU seconds used so far by each process role."""
        roles = {"client": time.process_time()}
        for role, pids in self.program_pids().items():
            roles[role] = sum(cpu_seconds(pid) for pid in pids)
        return roles

    def timed_round(self, round_no: int) -> None:
        """Run one round between calibration bursts; add up its times.

        The round's raw latencies and wall time are also scaled by the
        calibration slices taken during and around it.
        """
        # What this process keeps between rounds (inputs, reference
        # reports for the checks) is moved out of the collector's reach,
        # so every round starts from the same garbage-collection state
        # instead of each one scanning the previous rounds' results.
        gc.collect()
        gc.freeze()
        mark, first = len(self.cal.samples), len(self.latencies)
        self.cal.burst()
        before = self.cpu_roles()
        paused = self.cal.paused
        self.tracer.enabled = True
        started = time.perf_counter()
        try:
            self.round(round_no)
        finally:
            elapsed = time.perf_counter() - started
            self.tracer.enabled = False
        paused = self.cal.paused - paused
        after = self.cpu_roles()
        after["client"] -= paused
        for role, seconds in after.items():
            self.cpu_time[role] = (
                self.cpu_time.get(role, 0.0) + seconds - before.get(role, 0.0)
            )
        self.cal.burst()
        factor = self.cal.factor(mark)
        self.scaled.extend(f * factor for f in self.latencies[first:])
        self.wall["raw"] += elapsed - paused
        self.wall["scaled"] += (elapsed - paused) * factor
        self.round_log.append((round(elapsed - paused, 4), round(factor, 4)))

    # -- metrics ----------------------------------------------------------

    def structure_layers(self) -> Dict[str, float]:
        """Exact per-job-set counters summed over round 0's jobs."""
        out: Dict[str, float] = {
            name: sum(c[name] for c in self.round0)
            for name in self.round0[0] if name != "cycles"
        }
        attempts = out["sched.attempts"]
        out["sched.useful_ratio"] = len(self.round0) / attempts if attempts else 0.0
        return out

    def gen_cycles(self) -> int:
        return sum(c["cycles"] for c in self.round0)


def job_counters(report, trace: bool) -> Dict[str, int]:
    """One job's modelled cycles, plus its structure counters if *trace*."""
    compiled = report.compiled
    counters = {"cycles": compiled.cycles}
    if trace:
        result = report.result
        stats = result.stats
        counters.update({
            "sched.attempts": stats.restart_attempts,
            "sched.ii_attempts": stats.ii_attempts,
            "sched.futility_aborts": stats.futility_aborts,
            "sched.placements": stats.placements,
            "sched.ejections": stats.total_ejections,
            "sched.chains_built": stats.chains_built,
            "sched.moves_inserted": stats.moves_inserted,
            "sched.ii_excess": result.ii - result.mii,
            "ir.ops_unrolled": len(compiled.loop.ddg) * compiled.unroll_factor,
            "ir.ops_final": len(result.ddg),
            "regs.queues": (
                compiled.allocation.total_queues
                if compiled.allocation is not None else 0
            ),
            "codegen.asm_bytes": len(_assembly(report).encode("utf-8")),
        })
    return counters


def _assembly(report) -> str:
    text = report.artifacts.get("assembly")
    if text is None:
        from repro.codegen import assembly_for

        text = assembly_for(report.result, report.compiled.allocation)
    return text


def _ms(values: List[float]) -> float:
    return 1e3 * statistics.fmean(values) if values else 0.0


# ----------------------------------------------------------------------
# batch_cold / batch_warm
# ----------------------------------------------------------------------


class BatchCold(Workload):
    """The kernel matrix compiled job by job into a fresh disk cache."""

    name = "batch_cold"
    round_seconds = 9.2
    #: One round's median job is small enough that its cache write, file
    #: system work the calibration does not track, is much of it; two
    #: rounds cut that median's run-to-run spread from 16% to 9-12%.
    min_rounds = 2

    def prepare(self) -> None:
        self.requests = inputs.matrix_requests()
        self.jobs_per_round = len(self.requests)
        self.toolchain = Toolchain.full()

    def compile_round(self, cache_dir: Path, round_no: int) -> List[object]:
        compiler = BatchCompiler(toolchain=self.toolchain, cache=cache_dir)
        reports: List[object] = [None] * len(self.requests)
        order = inputs.round_order(len(self.requests), self.ctx.seed, round_no)
        for index in order:
            started = time.perf_counter()
            with self.tracer.span("job"):
                reports[index] = compiler.compile_many([self.requests[index]])[0]
            self.latencies.append(time.perf_counter() - started)
            self.cal.between_jobs()
        return reports

    def round(self, round_no: int) -> None:
        self.reports = self.compile_round(self.ctx.tmp / f"cold-{round_no}", round_no)

    def after_round(self, round_no: int) -> None:
        if round_no == 0:
            # Round 0 is the reference; later rounds recompile the same
            # requests and must emit the same programs.
            self.expected = [checks.Expected.of(r) for r in self.reports]
            self.keep_round0(self.reports)
        self.check_round(round_no)

    def check_round(self, round_no: int) -> None:
        for index, report in enumerate(self.reports):
            self.check_report((round_no, index), self.expected[index], report)
            # Let each report go once checked, so the oracle's working set
            # does not add to a whole round's reports in ``peak_rss_mb``.
            self.reports[index] = None
        self.reports = []


class BatchWarm(BatchCold):
    """The same matrix answered from a disk cache filled during set-up."""

    name = "batch_warm"
    round_seconds = 0.65

    def fill(self) -> None:
        self.cache_dir = self.ctx.tmp / "warm"
        with self.tracer.span("fill"):
            filled = self.compile_round(self.cache_dir, -1)
        self.latencies.clear()
        self.expected = [checks.Expected.of(r) for r in filled]
        self.keep_round0(filled)

    def round(self, round_no: int) -> None:
        self.reports = self.compile_round(self.cache_dir, round_no)

    def after_round(self, round_no: int) -> None:
        # The oracle runs on round 0's decoded reports, not on the fill's.
        for index, report in enumerate(self.reports):
            if not report.cache_hit:
                self.fail((round_no, index), f"job {index} missed a warm cache")
        self.check_round(round_no)


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------


class ServeMixed(Workload):
    """Single-request round trips to ``repro serve``: misses, then hits."""

    name = "serve_mixed"
    round_seconds = 2.05

    def prepare(self) -> None:
        self.base = inputs.serve_payloads()
        self.jobs_per_round = len(self.base) * inputs.SERVE_REPEATS
        self.toolchain = Toolchain.default()
        self.docs: List[tuple] = []
        self.rtt = {"hit": [], "miss": [], "overhead": [], "bytes": []}
        self.pass_ms: Dict[str, float] = {}
        self.compiled = 0

    def start(self, trial: int) -> None:
        self.address = self.start_daemon(self.ctx.tmp / f"serve-{trial}",
                                         disk_cache=True)
        self.client = ServiceClient(self.address)

    def program_pids(self) -> Dict[str, List[int]]:
        pids = self.daemon.pids()
        return {"daemon": pids[:1], "pool": pids[1:]}

    def service_counters(self) -> Dict[str, float]:
        snapshot = self.client.metrics()
        return {
            "journal_appends": snapshot["journal"]["appends"],
            "memory_hits": snapshot["cache"]["memory_hits"],
        }

    def before_round(self, round_no: int) -> None:
        self.payloads = [inputs.for_round(p, round_no) for p in self.base]

    def round(self, round_no: int) -> None:
        stream = [
            index % len(self.payloads)
            for index in inputs.round_order(
                self.jobs_per_round, self.ctx.seed, round_no
            )
        ]
        for index in stream:
            started = time.perf_counter()
            with self.tracer.span("job"):
                doc = self.client.compile(self.payloads[index])
            seconds = time.perf_counter() - started
            self.latencies.append(seconds)
            self.docs.append((index, doc, seconds))
            self.cal.between_jobs()

    def after_round(self, round_no: int) -> None:
        references = [
            self.toolchain.compile(inputs.to_request(p)) for p in self.payloads
        ]
        wants = [checks.Expected.of(r) for r in references]
        # A response carries no program object: the oracle runs on the
        # reference, whose fingerprint, II and cycles each response shares.
        for index, (want, reference) in enumerate(zip(wants, references)):
            self.verify_once((round_no, index), want, reference.compiled)
        if round_no == 0:
            self.keep_round0(references)
        for index, doc, seconds in self.docs:
            job = (round_no, index)
            report = doc["report"]
            want = wants[index]
            label = f"{want.label} (job {job})"
            self.fail(job, checks.fingerprint_problem(
                doc["fingerprint"], want.fingerprint, label))
            self.fail(job, checks.ii_problem(int(report["ii"]), want.bound, label))
            if report["cycles"] != want.cycles:
                self.fail(job, f"{label}: cycles differ from the reference")
            if doc["served_from"] == "compile":
                self.rtt["miss"].append(seconds)
                passes = report["timings_ms"]
                self.rtt["overhead"].append(seconds - sum(passes.values()) / 1e3)
                for name, ms in passes.items():
                    self.pass_ms[name] = self.pass_ms.get(name, 0.0) + ms
                self.compiled += 1
            else:
                self.rtt["hit"].append(seconds)
            self.rtt["bytes"].append(len(json.dumps(doc, sort_keys=True)) + 1)
        self.docs = []


# ----------------------------------------------------------------------
# sweep_dist
# ----------------------------------------------------------------------


class SweepDist(Workload):
    """One sweep per round through a coordinator and one pull worker."""

    name = "sweep_dist"
    round_seconds = 2.5
    #: Each round yields one latency sample, and sweep times vary by a
    #: fifth from one sweep to the next (mostly in the coordinator's
    #: completion handling), so a run needs more than ``--seconds`` gives.
    min_rounds = 5

    def prepare(self) -> None:
        self.base = inputs.sweep_payloads()
        self.jobs_per_round = len(self.base)
        self.toolchain = Toolchain.default()

    def start(self, trial: int) -> None:
        folder = self.ctx.tmp / f"sweep-{trial}"
        self.address = self.start_daemon(folder, disk_cache=False)
        self.client = ServiceClient(self.address)
        ready = folder / "worker.ready"
        argv = [sys.executable, str(self.ctx.root / "perfbench" / "sweep_worker.py"),
                "--coordinator", self.address, "--ready", str(ready)]
        self.worker_trace = folder / "worker-trace.json"
        if self.ctx.trace:
            argv += ["--trace-out", str(self.worker_trace)]
        self.worker = Child(argv, self.child_env(), folder / "worker.log",
                            cpu=self.cpu)
        self.children.append(self.worker)
        deadline = time.monotonic() + START_TIMEOUT
        while not ready.exists():
            self.worker.check_running()
            if time.monotonic() > deadline:
                raise RuntimeError("sweep worker did not start in time")
            time.sleep(0.005)

    def program_pids(self) -> Dict[str, List[int]]:
        pids = self.daemon.pids()
        return {"daemon": pids[:1], "pool": pids[1:], "worker": self.worker.pids()}

    def service_counters(self) -> Dict[str, float]:
        sweep = self.client.metrics().get("sweep") or {}
        return {
            "lease_expiries": sweep.get("chunks", {}).get("lease_expiries", 0),
            "duplicates": sweep.get("completions", {}).get("duplicate", 0),
        }

    def before_round(self, round_no: int) -> None:
        self.requests = [
            inputs.to_request(inputs.for_round(p, round_no)) for p in self.base
        ]
        self.compiler = BatchCompiler(
            toolchain=self.toolchain,
            cache=self.ctx.tmp / f"sweep-local-{round_no}",
            coordinator=self.address,
        )

    def round(self, round_no: int) -> None:
        started = time.perf_counter()
        with self.tracer.span("job"):
            self.reports = self.compiler.compile_many(self.requests)
        self.latencies.append(time.perf_counter() - started)

    def after_round(self, round_no: int) -> None:
        references = [self.toolchain.compile(r) for r in self.requests]
        wants = [checks.Expected.of(r) for r in references]
        if round_no == 0:
            self.keep_round0(references)
        # The oracle runs on the merged reports the sweep returned.
        for index, report in enumerate(self.reports):
            self.check_report((round_no, index), wants[index], report)
        self.reports = []


WORKLOADS = {cls.name: cls for cls in (BatchCold, BatchWarm, ServeMixed, SweepDist)}


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


def run(name: str, ctx: Context) -> Outcome:
    """Set up, time, check and measure one run of workload *name*."""
    workload = WORKLOADS[name](ctx)
    outcome = workload.outcome
    scope = instrument(workload.tracer) if ctx.trace else contextlib.nullcontext()
    affinity = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {workload.cpu})
        with scope:
            timed = _run_phases(workload, ctx)
    finally:
        os.sched_setaffinity(0, affinity)
        began = time.perf_counter()
        workload.stop()
    timed["detail"]["phase_s"]["stop"] = round(time.perf_counter() - began, 3)
    outcome.end_to_end = {
        "setup_s": timed["setup_s"],
        "jobs_per_s": timed["jobs"] / workload.wall["scaled"],
        "lat_p50_ms": 1e3 * quantile(workload.scaled, 0.50),
        "gen_cycles": workload.gen_cycles(),
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    outcome.detail.update(timed["detail"])
    # The p95 is reported, but not among the end-to-end metrics: with
    # five sweeps per run it is the slowest sweep, and between two sets
    # of ten runs it spread 17-26% (sweep_dist) and 11-22% (serve_mixed).
    outcome.detail["lat_p95_ms"] = 1e3 * quantile(workload.scaled, 0.95)
    outcome.detail["raw"] = {
        "setup_s": timed["setup_raw_s"],
        "jobs_per_s": timed["jobs"] / workload.wall["raw"],
        "lat_p50_ms": 1e3 * quantile(workload.latencies, 0.50),
        "lat_p95_ms": 1e3 * quantile(workload.latencies, 0.95),
    }
    if ctx.trace:
        outcome.layers = _layers(workload, timed)
        outcome.layers["lat.p95_ms"] = outcome.detail["lat_p95_ms"]
        outcome.tracer = workload.tracer
    return outcome


def _run_phases(workload: Workload, ctx: Context) -> Dict[str, object]:
    cal = workload.cal
    phase_start = time.perf_counter()
    cal.burst()
    trials = []
    for trial in range(SETUP_TRIALS):
        workload.stop(graceful=False)  # the previous trial's, off the clock
        began = time.perf_counter()
        workload.prepare()
        workload.start(trial)
        trials.append(time.perf_counter() - began)
        cal.burst()
    began, paused = time.perf_counter(), cal.paused
    workload.fill()
    filled = time.perf_counter() - began - (cal.paused - paused)
    cal.burst()
    setup_raw = (ctx.imported - ctx.started) + statistics.median(trials) + filled
    setup_samples = len(cal.samples)
    counters_before = workload.service_counters()
    rounds = max(
        workload.min_rounds, math.ceil(ctx.seconds / workload.round_seconds)
    )
    setup_done = time.perf_counter()
    checking = 0.0
    for round_no in range(rounds):
        workload.before_round(round_no)
        workload.timed_round(round_no)
        began = time.perf_counter()
        workload.after_round(round_no)
        checking += time.perf_counter() - began
    counters_after = workload.service_counters()
    rss_by_role = {
        role: max((peak_rss_mb(pid) for pid in pids), default=0.0)
        for role, pids in workload.program_pids().items()
    }
    rss = list(rss_by_role.values())
    jobs = rounds * workload.jobs_per_round
    workload.outcome.attempted = jobs
    return {
        "setup_s": setup_raw * cal.factor(0, setup_samples),
        "setup_raw_s": setup_raw,
        "jobs": jobs,
        "peak_rss_mb": max(rss) if rss else peak_rss_mb(),
        "counters": {
            key: counters_after[key] - counters_before.get(key, 0)
            for key in counters_after
        },
        "detail": {
            "rounds": rounds,
            "setup_trials_s": [round(t, 4) for t in trials],
            "fill_s": round(filled, 4),
            "import_s": round(ctx.imported - ctx.started, 4),
            "calibration_ms": round(cal.median_ms(), 4),
            "calibration_slices": len(cal.samples),
            "rounds_s_scale": workload.round_log,
            "peak_rss_mb": {role: round(mb, 1) for role, mb in rss_by_role.items()},
            "phase_s": {
                "setup": round(setup_done - phase_start, 3),
                "rounds": round(time.perf_counter() - setup_done - checking, 3),
                "checks": round(checking, 3),
            },
            "cpu_s": {role: round(s, 4) for role, s in workload.cpu_time.items()},
            "samples": len(workload.latencies),
            "pids": sorted(workload.stopped_pids.union(
                *(child.seen for child in workload.children)
            )),
        },
    }


def _layers(workload: Workload, timed: Dict[str, object]) -> Dict[str, float]:
    """The per-layer metrics of the layers this workload reaches."""
    tracer = workload.tracer
    jobs = timed["jobs"]
    out: Dict[str, float] = {}
    if workload.round0:
        out.update(workload.structure_layers())
    counters = timed["counters"]
    # Passes: in this process (batch), reported by the daemon (serve),
    # or recorded by the benchmark's sweep worker (sweep).
    if isinstance(workload, ServeMixed):
        compiled = max(1, workload.compiled)
        for name, ms in workload.pass_ms.items():
            out[f"pass.{name}_ms"] = ms / compiled
        out["svc.hit_rtt_ms"] = 1e3 * _median(workload.rtt["hit"])
        out["svc.miss_rtt_ms"] = 1e3 * _median(workload.rtt["miss"])
        out["svc.miss_overhead_ms"] = 1e3 * _median(workload.rtt["overhead"])
        out["svc.response_bytes"] = statistics.fmean(workload.rtt["bytes"])
        out["svc.journal_appends"] = counters.get("journal_appends", 0)
        out["svc.memory_hits"] = counters.get("memory_hits", 0)
        schedule_s = workload.pass_ms.get("schedule", 0.0) / 1e3
    elif isinstance(workload, SweepDist):
        worker = _load_spans(workload.worker_trace)
        out.update(_sweep_layers(worker, tracer, timed))
        schedule_s = sum(worker.seconds("pass.schedule"))
        for name in PASSES:
            out[f"pass.{name}_ms"] = _per(worker.seconds(f"pass.{name}"), jobs)
    else:
        compiled = tracer.seconds("toolchain.compile")
        for name in PASSES:
            out[f"pass.{name}_ms"] = _per(tracer.seconds(f"pass.{name}"), len(compiled))
        schedule_s = sum(tracer.seconds("pass.schedule"))
        gets = [s for s in tracer.spans if s["name"] == "cache.get"]
        puts = [s for s in tracer.spans if s["name"] == "cache.put"]
        out["cache.hash_ms"] = _ms(tracer.seconds("cache.hash"))
        out["cache.get_ms"] = _ms(tracer.seconds("cache.get"))
        out["cache.put_ms"] = _ms(tracer.seconds("cache.put"))
        sizes = [s["attrs"]["bytes"] for s in gets + puts if s["attrs"]["bytes"]]
        out["cache.entry_bytes"] = statistics.fmean(sizes) if sizes else 0.0
        out["cache.hits"] = sum(1 for s in gets if s["attrs"]["hit"])
        out["cache.misses"] = sum(1 for s in gets if not s["attrs"]["hit"])
        job_s = sum(tracer.seconds("job"))
        inside = sum(
            sum(tracer.seconds(name))
            for name in ["cache.hash", "cache.get", "cache.put"]
            + [f"pass.{p}" for p in PASSES]
        )
        out["trace.coverage_pct"] = 100.0 * inside / job_s if job_s else 0.0
    attempts = out.get("sched.attempts", 0) * timed["detail"]["rounds"]
    if attempts and schedule_s:
        out["sched.ms_per_attempt"] = 1e3 * schedule_s / attempts
    for role, seconds in workload.cpu_time.items():
        out[f"proc.{role}_cpu_ms"] = 1e3 * seconds / jobs
    return out


PASSES = ("unroll", "single_use", "schedule", "allocate", "codegen")


def _per(values: List[float], count: int) -> float:
    return 1e3 * sum(values) / count if count else 0.0


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _load_spans(path: Path) -> Tracer:
    tracer = Tracer()
    if path.exists():
        tracer.spans = json.loads(path.read_text())["spans"]
    return tracer


def _sweep_layers(worker: Tracer, client: Tracer, timed) -> Dict[str, float]:
    """Per-chunk coordination cost, from the worker's and client's spans."""
    chunks = []  # (wall, compute, jobs)
    current = None
    for span in worker.spans:
        name = span["name"]
        if name == "client.sweep_claim" and span["attrs"].get("jobs"):
            current = {"start": span["start"], "compute": 0.0,
                       "jobs": span["attrs"]["jobs"]}
        elif name == "toolchain.compile" and current is not None:
            current["compute"] += span["end"] - span["start"]
        elif name == "client.sweep_complete" and current is not None:
            chunks.append((span["end"] - current["start"], current["compute"],
                           current["jobs"]))
            current = None
    claims = [s for s in worker.spans if s["name"] == "client.sweep_claim"]
    counters = timed["counters"]
    return {
        "sweep.chunks": len(chunks),
        "sweep.jobs_per_chunk": (
            statistics.fmean(c[2] for c in chunks) if chunks else 0.0
        ),
        "sweep.claim_ms": _ms([s["end"] - s["start"] for s in claims]),
        "sweep.complete_ms": _ms(worker.seconds("client.sweep_complete")),
        "sweep.encode_ms": _ms(worker.seconds("sweep.encode")),
        "sweep.compute_ms": _ms([c[1] for c in chunks]),
        "sweep.chunk_overhead_ms": _ms([c[0] - c[1] for c in chunks]),
        "sweep.results_ms": _per(
            client.seconds("client.sweep_results"), timed["detail"]["rounds"]
        ),
        "sweep.lease_expiries": counters.get("lease_expiries", 0),
        "sweep.duplicates": counters.get("duplicates", 0),
    }
