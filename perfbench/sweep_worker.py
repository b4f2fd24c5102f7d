"""The benchmark's sweep worker process: ``SweepWorker.run`` behind spans.

Run as ``python3 perfbench/sweep_worker.py --coordinator HOST:PORT
--ready FILE [--trace-out FILE]``.  It builds the same
:class:`~repro.service.worker.SweepWorker` as ``repro worker`` with its
default chunk settings, writes *FILE* once it is about to poll, and runs
until SIGTERM.  With ``--trace-out`` the layers' public calls are wrapped
(see :mod:`perfbench.layers`) and the spans are written there on exit.

The idle poll interval is 0.05 s instead of the CLI's 0.5 s, so the
start of each sweep does not wait out up to half a second of sleep.
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Seconds between polls while no sweep is open.
POLL_SECONDS = 0.05


def _stop(signum, frame):
    raise KeyboardInterrupt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--coordinator", required=True)
    parser.add_argument("--ready", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.layers import Tracer, instrument
    from repro.service.worker import SweepWorker

    signal.signal(signal.SIGTERM, _stop)
    tracer = Tracer()
    scope = instrument(tracer) if args.trace_out else contextlib.nullcontext()
    worker = SweepWorker(
        args.coordinator, name="perfbench-worker", poll_interval=POLL_SECONDS
    )
    try:
        with scope:
            Path(args.ready).write_text("ready\n")
            worker.run()
    except KeyboardInterrupt:
        pass
    finally:
        if args.trace_out:
            tracer.dump(args.trace_out, {"stats": worker.stats})
    return 0


if __name__ == "__main__":
    sys.exit(main())
