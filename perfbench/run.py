"""diraclab benchmark: seeded CLI workloads, checked outputs, medians of fresh processes.

Usage (from the repository root):

    python3 perfbench/run.py --workload coupled_n16 --seed 1 --seconds 34 --trace 0

Every process is a fresh interpreter running one ``diraclab`` command
(``launch.py``), and only one runs at a time.  A run makes repetitions
while at least half of the next one fits in ``--seconds`` (at least two
always run), and checks the outputs of each (``check.py``).  ``--trace 0``
reports the end-to-end metrics as medians over repetitions; ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
metrics of the traced ones, with the tracing overhead as traced minus
untraced wall time; counts that differ between traced repetitions are one
failure.  Every time is read on the reference clock of ``pace.py``, which
takes the speed of the shared core out of it; the summary lines give the
plain wall time and the core's slowdown as well.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import layers
import pace
import workloads

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
WORK = REPO / ".perfbench_work"
# a run must end within 180 s even if the program hangs or slows down 10x
RUN_LIMIT_S = 165.0
# repetitions per run at least (a traced run needs one untraced and one traced)
MIN_REPS = 2

END_TO_END = {"wall_s": "s", "setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}


def run_record(workload: str, seed: int) -> dict:
    """What the numbers depend on besides the code: versions, cores, load."""
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"workload": workload, "seed": seed, "commit": commit,
            "python": f"{platform.python_implementation()} {platform.python_version()}",
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "loadavg_before": os.getloadavg()}


def run_once(argv: list, mode: str, repdir: Path, deadline: float) -> dict:
    """Run one ``launch.py`` process (mode plain or traced); returns its
    record and timings.  The process is killed at ``deadline``.

    ``wall_s`` is in plain seconds; ``ref_wall_s``, ``t_spawn`` and every
    timestamp of ``record`` are read on the process's reference clock."""
    repdir.mkdir(parents=True)
    record_path = repdir / "record.json"
    cmd = [sys.executable, str(HERE / "launch.py"), str(record_path), mode,
           "--", "--output-root", str(repdir), *argv]
    with open(repdir / "log.txt", "w") as log:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=repdir, stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=max(1.0, deadline - t_spawn))
        except subprocess.TimeoutExpired:
            code = "timeout"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        t_exit = time.perf_counter()
    try:
        record = json.loads(record_path.read_text())
    except (OSError, ValueError):
        record = None
    clock = pace.ReferenceClock(record["samples"] if record else [])
    return {"code": code, "wall_s": t_exit - t_spawn, "t_spawn": clock(t_spawn),
            "ref_wall_s": clock(t_exit) - clock(t_spawn), "slowdown": clock.slowdown(),
            "record": pace.rescale(record, clock) if record else None}


def main(argv=None) -> int:
    deadline = time.perf_counter() + RUN_LIMIT_S
    # on SIGTERM, unwind so that the running child is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "diraclab" / "cli.py").is_file():
        print(f"diraclab sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return measure(args, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path, deadline: float) -> int:
    record = run_record(args.workload, args.seed)
    inputs = workloads.make_inputs(args.workload, args.seed, work / "inputs")
    # byte-compile once, so no repetition pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "diraclab"), str(HERE)],
                   check=True, stdout=subprocess.DEVNULL)

    failures = []
    start = time.perf_counter()
    reps = []
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        repdir = work / f"rep{len(reps)}"
        rep = run_once(inputs["argv"], "traced" if traced else "plain", repdir, deadline)
        rep["traced"] = traced
        reasons = check.check_run(args.workload, rep["code"], repdir / "run", inputs)
        if rep["record"] is None and not reasons:
            reasons = ["no run record written"]
        rep["ok"] = not reasons
        if reasons:
            failures.append(reasons)
            print(f"rep {len(reps)}: FAILED: {'; '.join(reasons)}")
        reps.append(rep)
        shutil.rmtree(repdir / "run", ignore_errors=True)
        # start another repetition only if at least half of it fits
        now = time.perf_counter()
        estimate = statistics.median(r["wall_s"] for r in reps)
        if now + estimate > deadline or (len(reps) >= MIN_REPS
                                         and now - start + estimate / 2 > args.seconds):
            break
    record["loadavg_after"] = os.getloadavg()
    record["repetitions"] = len(reps)

    ok = [r for r in reps if r["ok"]]
    plain = [r for r in ok if not r["traced"]]
    samples = {name: [] for name in END_TO_END}
    for r in plain:
        setup_s, solve_s = layers.boundary_times(r["record"], r["t_spawn"])
        samples["wall_s"].append(r["ref_wall_s"])
        samples["setup_s"].append(setup_s)
        samples["solve_s"].append(solve_s)
        samples["peak_rss_mb"].append(r["record"]["maxrss_kb"] / 1024.0)

    def med(values):
        return statistics.median(values) if values else 0.0

    print(f"run record: {json.dumps(record)}")
    print(f"{args.workload} seed {args.seed}: {len(reps)} runs")
    for name, unit in END_TO_END.items():
        v = samples[name]
        if v:
            print(f"  {name:12s} median {med(v):10.4f} {unit:3s} min {min(v):10.4f} "
                  f"max {max(v):10.4f}  n={len(v)}")
    if plain:
        raw = [r["wall_s"] for r in plain]
        print(f"  plain seconds: wall median {med(raw):.4f} s, min {min(raw):.4f}, "
              f"max {max(raw):.4f}; slowdown {[round(r['slowdown'], 3) for r in plain]}")

    if args.trace:
        traced = [r for r in ok if r["traced"]]
        per_run = [layers.layer_metrics(r["record"], r["t_spawn"]) for r in traced]
        differing = [f"{name} {values}"
                     for name, values in layers.differing_counts(per_run).items()]
        if differing:
            failures.append([f"counts differ between traced runs: {'; '.join(differing)}"])
            print(f"  FAILED: {failures[-1][0]}")
        metrics = {}
        for name, unit in layers.units().items():
            if name == "trace.wall_s":
                value = med([r["ref_wall_s"] for r in traced])
            elif name == "trace.overhead_s":
                value = med([r["ref_wall_s"] for r in traced]) - med(samples["wall_s"])
            elif unit in ("count", "B"):
                # deterministic per seed: checked above to be the same in every traced run
                value = per_run[0][name] if per_run else 0
            else:
                value = med([m[name] for m in per_run])
            metrics[name] = {"value": value, "unit": unit}
        missing = sorted({m for r in traced for m in r["record"]["missing"]})
        if missing:
            print(f"  spans missing (function not found): {', '.join(missing)}")
        for name, m in metrics.items():
            print(f"  {name:52s} {m['value']:14.6g} {m['unit']}")
    else:
        metrics = {name: {"value": med(samples[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}

    attempted = len(reps)
    print(f"error_rate {len(failures) / attempted:.3f} (failed {len(failures)} of {attempted})")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
