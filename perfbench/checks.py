"""Output checks, run outside the timed phase of every run.

* :func:`oracle_problems`: the emitted program executes, through the
  differential oracle, to the same stores as a sequential interpretation
  of the source loop.
* :func:`ii_problem`: the II is at least a resource bound computed here
  from the scheduled graph's op counts and the machine's FU counts.
* :func:`fingerprint_problem`: a result carries the schedule fingerprint
  of an in-process ``Toolchain`` compile of the same request.
* :func:`program_problem`: a returned report carries the same loop,
  unroll factor, cycles, queue allocation and assembly as that compile,
  the parts of a report the schedule fingerprint leaves out.

Each returns a problem string (or a list of them); empty means the
output passed.  No check compares against a stored copy of an earlier
output.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.ir.opcodes import FUKind
from repro.scheduling.fingerprint import schedule_fingerprint
from repro.validate.oracle import verify_compiled


def fu_counts(machine) -> Dict[FUKind, int]:
    """Units of each FU kind summed over the machine's clusters."""
    return {
        FUKind.MEM: sum(c.mem for c in machine.clusters),
        FUKind.ALU: sum(c.alu for c in machine.clusters),
        FUKind.MUL: sum(c.mul for c in machine.clusters),
        FUKind.COPY: sum(c.copy for c in machine.clusters),
    }


def resource_bound(result) -> int:
    """max over FU kinds of ceil(ops of that kind / units of that kind)."""
    ops: Dict[FUKind, int] = {}
    for op in result.ddg.operations():
        ops[op.fu_kind] = ops.get(op.fu_kind, 0) + 1
    units = fu_counts(result.machine)
    bound = 1
    for kind, count in ops.items():
        if units[kind] == 0:
            return 10 ** 9  # no unit can run these ops: nothing is valid
        bound = max(bound, -(-count // units[kind]))
    return bound


def ii_problem(ii: int, bound: int, label: str) -> Optional[str]:
    """A problem when *ii* is below the resource *bound*."""
    if ii < bound:
        return f"{label}: II {ii} is below the resource bound {bound}"
    return None


def fingerprint(report) -> str:
    """The schedule fingerprint (hex digest) of a compilation report.

    The same digest the daemon puts in each response's ``fingerprint``.
    """
    return schedule_fingerprint(report.result)


def fingerprint_problem(got: str, want: str, label: str) -> Optional[str]:
    """A problem when fingerprint *got* is not the reference's *want*."""
    if got != want:
        return (
            f"{label}: schedule differs from an in-process compile of the "
            f"same request"
        )
    return None


def program_digest(report) -> str:
    """A digest of what a report emitted beyond its schedule.

    Covers the compiled loop (name, trip count, op count), the unroll
    factor, the modelled cycles, the queue allocation and the assembly
    artifact when the pipeline emitted one: what a report codec or a
    sweep merge could drop or corrupt without moving the fingerprint.
    """
    compiled = report.compiled
    loop = compiled.loop
    parts = (
        loop.name, loop.trip_count, len(loop.ddg), compiled.unroll_factor,
        compiled.cycles, repr(compiled.allocation),
        report.artifacts.get("assembly"),
    )
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


def program_problem(report, want: str, label: str) -> Optional[str]:
    """A problem when *report*'s program digest is not the reference's."""
    if program_digest(report) != want:
        return (
            f"{label}: loop, cycles, allocation or assembly differ from an "
            f"in-process compile of the same request"
        )
    return None


@dataclass(frozen=True)
class Expected:
    """What a reference compile says every result of its request must be.

    Kept per job instead of the reference report, so the load generator
    does not hold a second set of report graphs next to the results.
    """

    label: str
    fingerprint: str
    bound: int  # resource bound on the II
    cycles: int
    program: str  # program_digest

    @classmethod
    def of(cls, report) -> "Expected":
        return cls(
            label=report.result.loop_name,
            fingerprint=fingerprint(report),
            bound=resource_bound(report.result),
            cycles=report.compiled.cycles,
            program=program_digest(report),
        )


def oracle_problems(compiled) -> List[str]:
    """The differential oracle's verdict on one compiled loop."""
    report = verify_compiled(compiled)
    if report.ok:
        return []
    return [
        f"{compiled.result.loop_name}: oracle: {problem}"
        for problem in report.all_problems[:3]
    ]
