"""Run one diraclab CLI command in this interpreter and write a run record.

Usage: python3 perfbench/launch.py RECORD.json MODE -- <diraclab arguments>

``MODE`` is ``plain`` (spans only at the solver and suite entry points,
whose timestamps give set-up and solve time) or ``traced`` (spans at every
function in ``tracer.TRACED``).  The record holds the exit code, the
timestamps (``time.perf_counter``, which on Linux reads the system-wide
monotonic clock, so the parent can compare them with its own), the
process's own ``ru_maxrss``, the spans and the core-speed samples of
``pace.Sampler``, which runs from before diraclab is imported to the end.
"""

import json
import resource
import sys
import time
from pathlib import Path

import pace
import tracer


def main() -> int:
    record_path, mode = sys.argv[1], sys.argv[2]
    if mode not in ("plain", "traced") or sys.argv[3] != "--":
        raise SystemExit("usage: launch.py RECORD plain|traced -- ARGS...")
    argv = sys.argv[4:]
    sampler = pace.Sampler()
    sampler.start()

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from diraclab import cli

    t_imported = time.perf_counter()
    spans = tracer.Tracer()
    spans.install("diraclab", tracer.TRACED if mode == "traced" else tracer.BOUNDARY)
    spans.install_suites(cli.SUITES)
    code = None
    try:
        code = cli.main(argv)
    finally:
        t_end = time.perf_counter()
        sampler.stop()
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        with open(record_path, "w") as fh:
            json.dump({"exit": code, "t_imported": t_imported, "t_end": t_end,
                       "maxrss_kb": maxrss_kb, "spans": spans.spans,
                       "missing": spans.missing,
                       "samples": sampler.samples}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
