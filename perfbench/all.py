"""Run every benchmark workload in turn and print one table.

Usage (from the repository root):

    python3 perfbench/all.py --seed 1 --seconds 34 [--trace 1]

Each workload runs as its own ``run.py`` process, one after another.  The
table lists each end-to-end metric (or, with ``--trace 1``, each per-layer
metric) by name and unit per workload, and the error rate: the share of
attempted processes that exited non-zero, timed out or failed the output
check.  Exits non-zero if any workload reported an incorrect run.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=34)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    results = {}
    for w in WORKLOADS:
        out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", w,
                              "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", str(args.trace)],
                             capture_output=True, text=True, check=True)
        results[w] = json.loads(out.stdout.strip().splitlines()[-1])
    names = list(results[WORKLOADS[0]]["metrics"])
    width = max(len(n) for n in names) + 2
    print(f"{'metric':{width}s}{'unit':8s}" + "".join(f"{w:>16s}" for w in WORKLOADS))
    for name in names:
        unit = results[WORKLOADS[0]]["metrics"][name]["unit"]
        print(f"{name:{width}s}{unit:8s}"
              + "".join(f"{results[w]['metrics'][name]['value']:16.6g}" for w in WORKLOADS))
    print(f"{'error_rate':{width}s}{'1':8s}"
          + "".join(f"{results[w]['failed'] / results[w]['attempted']:16.3f}" for w in WORKLOADS))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
