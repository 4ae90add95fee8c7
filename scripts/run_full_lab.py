#!/usr/bin/env python3
"""Drive the whole laboratory once: validation suites, the groundstate
classification table, the slice, regularization and box-size ladders, and the
demo simulations.

Thin wrapper over the ``diraclab`` CLI; outputs land under --output-root.
"""

import argparse
import pathlib
import sys

from diraclab.cli import main as cli_main

HERE = pathlib.Path(__file__).parent


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--output-root", default="lab_output")
    ap.add_argument("--n", type=int, default=32)
    args = ap.parse_args()
    root = ["--output-root", args.output_root]
    small_run = str(HERE / "configs" / "small_run.yaml")
    steps = [
        root + ["validate", "--suite", "all", "--n", str(args.n)],
        root + ["groundstate", "--nu", "0.2", "0.5", "0.8",
                "--sigma", "1.0", "1.2", "1.4"],
        root + ["convergence", "--config", small_run, "--ladder", "64", "128", "256"],
        root + ["convergence", "--config", small_run, "--axis", "epsilon_reg",
                "--ladder", "1.5", "1.0", "0.75", "--out", "convergence_epsilon_reg"],
        root + ["convergence", "--config", small_run, "--axis", "box_length",
                "--ladder", "9", "12", "18", "24", "--out", "convergence_box_length"],
        root + ["simulate", "--config", small_run],
        root + ["simulate", "--config", str(HERE / "configs" / "two_nuclei.yaml")],
    ]
    worst = 0
    for argv in steps:
        print(f"\n=== diraclab {' '.join(argv[2:])}")
        rc = cli_main(argv)
        worst = max(worst, rc)
    sys.exit(worst)


if __name__ == "__main__":
    main()
