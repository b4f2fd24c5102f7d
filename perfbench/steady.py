"""Steadiness check: run every workload repeatedly and summarise the spread.

``python3 perfbench/steady.py --repeats 10 [--seconds 8] [--seed 1]
[--out FILE]``

Repeat *i* runs every workload once with seed ``seed + i``,
rotating which workload goes first so that no workload always meets
the host in the same phase.  For every workload and end-to-end metric
it prints the median, the quartiles (``statistics.quantiles(n=4)``),
min and max, and the spread: the interquartile distance as a share of
the median.  It prints the same for the run's pure-Python calibration
slice, whose drift shows a slow host phase, and the share of failed
jobs.  ``--out`` also writes every run's raw result as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
WORKLOADS = ("batch_cold", "batch_warm", "serve_mixed", "sweep_dist")


def one_run(workload: str, seed: int, seconds: float) -> Dict[str, object]:
    """Run ``run.py`` once; returns its result and detail lines."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-3000:]}")
    detail = json.loads(lines[-2][2:]) if len(lines) > 1 else {}
    return {"result": json.loads(lines[-1]), "detail": detail,
            "exit": proc.returncode, "run_s": time.perf_counter() - started}


def summary(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "min": min(values), "max": max(values),
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="perfbench steadiness check")
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    runs: Dict[str, List[Dict[str, object]]] = {w: [] for w in WORKLOADS}
    for repeat in range(args.repeats):
        shift = repeat % len(WORKLOADS)
        for workload in WORKLOADS[shift:] + WORKLOADS[:shift]:
            run = one_run(workload, args.seed + repeat, args.seconds)
            runs[workload].append(run)
            result = run["result"]
            print(f"# {repeat} {workload} exit={run['exit']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"calibration_ms={run['detail'].get('calibration_ms')} "
                  f"run_s={run['run_s']:.1f}",
                  file=sys.stderr, flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1, sort_keys=True))
    ok = True
    for workload, results in runs.items():
        print(f"{workload} ({len(results)} runs)")
        names = results[0]["result"]["metrics"]
        series = {
            name: [r["result"]["metrics"][name]["value"] for r in results]
            for name in names
        }
        series["calibration_ms"] = [r["detail"]["calibration_ms"] for r in results]
        for name, values in series.items():
            if len(values) < 2:
                continue
            s = summary(values)
            print(f"  {name:<16} median {s['median']:12.4f}  q1 {s['q1']:12.4f}"
                  f"  q3 {s['q3']:12.4f}  min {s['min']:12.4f}"
                  f"  max {s['max']:12.4f}  spread {100 * s['spread']:6.2f}%")
        shares = {
            r["result"]["failed"] / r["result"]["attempted"] for r in results
        }
        print(f"  failed share(s): {sorted(shares)}")
        ok = ok and all(r["result"]["correct"] for r in results)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
