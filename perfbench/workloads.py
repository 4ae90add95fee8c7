"""Seeded inputs for the three benchmark workloads.

Every input is made from the workload seed before timing starts; diraclab
receives only the generated files and flags.  Each generator returns the
``diraclab`` argument list (after ``--output-root``) and the values the
output checker needs.

* ``coupled_n16``: ``configs/small_run.yaml`` (n = 16,
  one nucleus, 32 steps, ``method: both``), with the packet centre and the
  nuclear velocity jittered by the seed.  The outer fixed point dominates.
* ``direct_n64``: the ``two_nuclei`` geometry at n = 64 with
  ``method: direct`` and 12 steps, started from a seeded DNS1 checkpoint
  (Gaussian plus ``random_smooth_field``).  The outer fixed point is
  bypassed; every step moves 16.8 MB fields.
* ``validate_n32``: ``diraclab validate --suite all --n 32 --seed <seed>``.
  Fields are evaluated (draws, transforms, norms), not stepped forward.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import yaml

REPO = Path(__file__).resolve().parent.parent
# copies of scripts/configs/*.yaml as shipped, so that editing the demo
# configs does not change the benchmark's inputs
SMALL_RUN = Path(__file__).resolve().parent / "configs" / "small_run.yaml"
TWO_NUCLEI = Path(__file__).resolve().parent / "configs" / "two_nuclei.yaml"

WORKLOADS = ("coupled_n16", "direct_n64", "validate_n32")

# jitter half-widths for coupled_n16; small enough that the outer iteration
# count and Picard sweep counts stay those of the shipped config
CENTER_JITTER = 0.05
VELOCITY_JITTER = 0.005

DIRECT_N = 64
DIRECT_STEPS = 12
# L2 size of the seeded random_smooth_field part relative to the Gaussian
DIRECT_NOISE_SHARE = 0.15


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def _write_yaml(path: Path, raw: dict) -> None:
    path.write_text(yaml.safe_dump(raw, sort_keys=False))


def coupled_n16(seed: int, workdir: Path) -> dict:
    rng = _rng(seed, "coupled_n16")
    raw = yaml.safe_load(SMALL_RUN.read_text())
    gauss = raw["init"]["field"]["gaussian"]
    gauss["center"] = [float(c + rng.uniform(-CENTER_JITTER, CENTER_JITTER))
                       for c in gauss["center"]]
    raw["init"]["velocities"] = [[float(c + rng.uniform(-VELOCITY_JITTER, VELOCITY_JITTER))
                                  for c in v] for v in raw["init"]["velocities"]]
    raw["seed"] = int(seed)
    raw["output"]["path"] = "run"
    cfg_path = workdir / "coupled_n16.yaml"
    _write_yaml(cfg_path, raw)
    return {"argv": ["simulate", "--config", str(cfg_path)], "config": str(cfg_path)}


def direct_n64(seed: int, workdir: Path) -> dict:
    if str(REPO / "src") not in sys.path:
        sys.path.insert(0, str(REPO / "src"))
    from diraclab.lattice import (SpinorField, gaussian_spinor, l2_norm, make_grid,
                                  random_smooth_field, write_checkpoint)

    raw = yaml.safe_load(TWO_NUCLEI.read_text())
    grid = make_grid(DIRECT_N, float(raw["grid"]["box_length"]))
    gauss = raw["init"]["field"]["gaussian"]
    base = gaussian_spinor(grid, gauss["center"], gauss["width"], gauss["spinor_weights"])
    noise = random_smooth_field(grid, _rng(seed, "direct_n64"), kmax=4, decay=0.8)
    scale = DIRECT_NOISE_SHARE * l2_norm(base) / l2_norm(noise)
    u0 = SpinorField(grid, base.data + scale * noise.data, "position")
    ck_path = workdir / "direct_n64_start.dns"
    write_checkpoint(ck_path, u0, 0.0)

    dt = float(raw["time"]["dt"])
    raw["grid"]["n"] = DIRECT_N
    raw["init"]["field"] = {"checkpoint": str(ck_path)}
    raw["time"]["T"] = DIRECT_STEPS * dt
    raw["solver"]["method"] = "direct"
    raw["output"] = {"every": 1, "path": "run"}
    raw["seed"] = int(seed)
    cfg_path = workdir / "direct_n64.yaml"
    _write_yaml(cfg_path, raw)
    return {"argv": ["simulate", "--config", str(cfg_path)], "config": str(cfg_path),
            "checkpoint": str(ck_path)}


def validate_n32(seed: int, workdir: Path) -> dict:
    return {"argv": ["validate", "--suite", "all", "--n", "32", "--seed", str(int(seed)),
                     "--out", "run"]}


GENERATORS = {"coupled_n16": coupled_n16, "direct_n64": direct_n64,
              "validate_n32": validate_n32}


def make_inputs(workload: str, seed: int, workdir: Path) -> dict:
    """Write the inputs of ``workload`` for ``seed`` into ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](seed, workdir)
