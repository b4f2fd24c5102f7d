"""One benchmark run: ``python3 perfbench/run.py --workload NAME --seed N``.

Also ``--seconds S`` (timed round time) and ``--trace 0|1``.  Run from
anywhere; the program is imported from ``src/`` next to this directory.

With ``--trace 0`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` whose metrics are the
end-to-end ones; with ``--trace 1`` the layers' public calls are wrapped
in spans (see ``layers.py``) and the metrics are the per-layer ones;
the spans and both metric sets also go to
``.perfbench/trace-<workload>-<seed>.json``.  The line before the
result, starting with ``#``, carries run details: rounds, set-up
trials, the calibration slice, CPU per process role and child pids.

Exit status: 0 when every output check passed, 1 when one failed
(the result line says ``"correct": false``); without a result line,
2 when there is no program to run and 1 when the run broke off (a
traceback says why).
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("batch_cold", "batch_warm", "serve_mixed", "sweep_dist")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="one perfbench run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    signal.signal(signal.SIGTERM, _terminate)
    import repro  # noqa: F401  (timed as part of set-up)

    imported = time.perf_counter()
    from perfbench import workloads

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=scratch) as tmp:
        tempfile.tempdir = tmp
        ctx = workloads.Context(
            root=ROOT, tmp=Path(tmp), seed=args.seed, seconds=args.seconds,
            trace=bool(args.trace), started=STARTED, imported=imported,
        )
        outcome = workloads.run(args.workload, ctx)
        if args.trace:
            trace_out = scratch / f"trace-{args.workload}-{args.seed}.json"
            outcome.tracer.dump(str(trace_out), {
                "workload": args.workload, "seed": args.seed,
                "end_to_end": outcome.end_to_end, "layers": outcome.layers,
                "detail": outcome.detail,
            })
        tempfile.tempdir = None
    for problem in outcome.problems[:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    measured = outcome.layers if args.trace else outcome.end_to_end
    unknown = set(measured) - {m["name"] for m in declared}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": min(outcome.attempted, len(outcome.failed_jobs)),
        # A layer the workload does not reach reads 0.
        "metrics": {
            m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]}
            for m in declared
        },
    }
    print("# " + json.dumps(dict(outcome.detail, workload=args.workload,
                                 seed=args.seed, end_to_end=outcome.end_to_end),
                            sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
