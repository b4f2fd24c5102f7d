"""Each output check must fail on a deliberately corrupted result."""

from __future__ import annotations

import base64
import copy
import dataclasses
import pickle
from pathlib import Path

import pytest

from perfbench import checks, workloads
from repro.api import CompilationRequest, Toolchain
from repro.machine import clustered_vliw, unclustered_vliw
from repro.service.sweep import encode_report
from repro.workloads import make_kernel


def _compile(kernel: str, machine):
    k = machine.n_clusters
    return Toolchain.full().compile(
        CompilationRequest(loop=make_kernel(kernel), machine=machine, equivalent_k=k)
    )


@pytest.fixture(scope="module")
def report():
    return _compile("fir_filter", clustered_vliw(4))


def test_real_result_passes_every_check(report):
    assert checks.oracle_problems(report.compiled) == []
    bound = checks.resource_bound(report.result)
    assert checks.ii_problem(report.result.ii, bound, "fir") is None
    want = checks.fingerprint(report)
    assert checks.fingerprint_problem(want, want, "fir") is None
    assert checks.program_problem(report, checks.program_digest(report), "fir") is None


def test_report_through_the_sweep_codec_passes(report):
    # The digest must not depend on object identity: a report decoded
    # from its wire form is the same program.
    decoded = pickle.loads(base64.b64decode(encode_report(report)))
    assert checks.Expected.of(decoded) == checks.Expected.of(report)


def test_placement_shifted_by_one_cycle_fails(report):
    shifted = copy.deepcopy(report)
    placements = shifted.compiled.result.placements
    first = min(placements)
    placements[first] = dataclasses.replace(
        placements[first], time=placements[first].time + 1
    )
    assert checks.oracle_problems(shifted.compiled)
    assert checks.fingerprint_problem(
        checks.fingerprint(shifted), checks.fingerprint(report), "fir"
    )


def test_ii_below_resource_bound_fails(report):
    bound = checks.resource_bound(report.result)
    assert report.result.ii >= bound
    assert checks.ii_problem(bound - 1, bound, "fir")


def test_report_of_another_request_fails(report):
    other = _compile("fir_filter", clustered_vliw(5))
    assert checks.fingerprint_problem(
        checks.fingerprint(other), checks.fingerprint(report), "fir"
    )


def test_resource_bound_is_res_mii_without_copies():
    # On the unclustered machine the scheduler inserts no copies or
    # moves, so the bound over the final graph is the loop's ResMII.
    result = _compile("daxpy", unclustered_vliw(2)).result
    assert checks.resource_bound(result) == result.res_mii


def _corrupt_allocation(report):
    corrupted = copy.deepcopy(report)
    assignments = corrupted.compiled.allocation.assignments
    assignments[0] = dataclasses.replace(
        assignments[0], queue_index=assignments[0].queue_index + 1
    )
    return corrupted


def test_returned_report_with_corrupted_allocation_fails(report):
    want = checks.program_digest(report)
    assert checks.program_problem(_corrupt_allocation(report), want, "fir")
    dropped = dataclasses.replace(
        report, compiled=dataclasses.replace(report.compiled, allocation=None)
    )
    assert checks.program_problem(dropped, want, "fir")
    # The schedule is untouched, so the fingerprint alone would pass it.
    assert checks.fingerprint(dropped) == checks.fingerprint(report)


def _workload(tmp_path: Path) -> workloads.Workload:
    ctx = workloads.Context(root=tmp_path, tmp=tmp_path, seed=1, seconds=1.0,
                            trace=False, started=0.0, imported=0.0)
    return workloads.Workload(ctx)


def test_failed_check_counts_the_job(report, tmp_path: Path):
    workload = _workload(tmp_path)
    want = checks.Expected.of(report)
    workload.check_report((0, 1), want, report)
    assert not workload.outcome.failed_jobs
    assert workload.verified == {want.fingerprint}
    workload.check_report((0, 2), want, _corrupt_allocation(report))
    assert workload.outcome.failed_jobs == {(0, 2)}
    assert len(workload.outcome.problems) == 1


def test_oracle_runs_on_the_first_returned_report(report, tmp_path: Path):
    # A returned program that executes wrongly fails at first sight, even
    # with the reference's fingerprint and digest (a codec that corrupts
    # what neither covers).
    workload = _workload(tmp_path)
    broken = copy.deepcopy(report)
    broken.compiled.result.placements.clear()
    workload.verify_once((0, 3), checks.Expected.of(report), broken.compiled)
    assert workload.outcome.failed_jobs == {(0, 3)}
