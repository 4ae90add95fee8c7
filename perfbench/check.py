"""Output checks: physics tolerances, not bytes.

A rounding-only change to the program (another FFT library, another sum
order) passes; a loosened solver stop or a broken integrator fails.  Each
check returns a list of failure reasons; an empty list means the run is
correct.  The DNS1 reader here is independent of ``diraclab.lattice``.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np

from layers import suite_names

# coupled_n16 (at the seed commit: residual 2.2e-7, drift 2.2e-6, diff 9.7e-9)
NEWTON_RESIDUAL_MAX = 1e-6
FIXED_POINT_CHARGE_DRIFT_MAX = 1e-5
Q_FINAL_DIFF_MAX = 1e-7
# the direct integrator is unitary per step; its energy drift is small
DIRECT_CHARGE_DRIFT_MAX = 1e-10
DIRECT_ENERGY_DRIFT_MAX = 1e-4
# direct_n64 (at the seed commit: energy drift 2.7e-8, momentum drift 5.2e-7)
N64_ENERGY_DRIFT_MAX = 1e-5
N64_MOMENTUM_DRIFT_MAX = 1e-5


def read_dns1(path: Path) -> dict:
    """Parse a DNS1 checkpoint; raises ValueError on a malformed file."""
    blob = Path(path).read_bytes()
    if blob[:4] != b"DNS1":
        raise ValueError(f"bad magic {blob[:4]!r}")
    version, n = struct.unpack_from("<II", blob, 4)
    box, t, n_nuc = struct.unpack_from("<ddI", blob, 12)
    head = 32 + 64 * n_nuc
    expect = head + 16 * 4 * n**3
    if version != 1 or len(blob) != expect:
        raise ValueError(f"version {version}, {len(blob)} bytes, expected {expect}")
    recs = np.frombuffer(blob, dtype="<f8", count=8 * n_nuc, offset=32).reshape(n_nuc, 8)
    field = np.frombuffer(blob, dtype="<c16", offset=head).reshape(n, n, n, 4)
    return {"n": n, "box": box, "t": t, "nuclei": recs, "field": field}


def dns1_charge(ck: dict) -> float:
    h = ck["box"] / ck["n"]
    return float(np.sum(np.abs(ck["field"]) ** 2) * h**3)


def _check_csv(path: Path, rows: int) -> list:
    if not path.is_file():
        return [f"{path.name} missing"]
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    fails = []
    if len(table) - 1 != rows:
        fails.append(f"{path.name}: {len(table) - 1} rows, expected {rows}")
    if any(not math.isfinite(float(x)) for row in table[1:] for x in row):
        fails.append(f"{path.name}: non-finite entry")
    return fails


def _check_dns1(path: Path, n: int, t: float, n_nuc: int) -> tuple:
    try:
        ck = read_dns1(path)
    except (OSError, ValueError, struct.error) as exc:
        return [f"{path.name} unreadable: {exc}"], None
    fails = []
    if ck["n"] != n or len(ck["nuclei"]) != n_nuc or abs(ck["t"] - t) > 1e-12:
        fails.append(f"{path.name}: header n={ck['n']} t={ck['t']} nuclei={len(ck['nuclei'])}")
    if not (np.all(np.isfinite(ck["field"])) and np.all(np.isfinite(ck["nuclei"]))):
        fails.append(f"{path.name}: non-finite data")
    return fails, ck


def _limit(fails: list, label: str, value, limit: float) -> None:
    if not (isinstance(value, (int, float)) and value <= limit):
        fails.append(f"{label} = {value} exceeds {limit}")


def _manifest(outdir: Path) -> dict:
    return json.loads((outdir / "manifest.json").read_text())


def check_coupled_n16(outdir: Path, inputs: dict) -> list:
    m = _manifest(outdir)
    cfg = m["config"]
    fp, dr = m["solvers"]["fixed_point"], m["solvers"]["direct"]
    fails = []
    steps = fp["step_history"]
    if not (fp["outer_iterations"] < cfg["solver"]["fixedpoint"]["max_outer"]
            and steps and steps[-1] < cfg["solver"]["fixedpoint"]["tol"]):
        fails.append(f"fixed point not converged: {fp['outer_iterations']} iterations")
    _limit(fails, "fixed-point newton_residual", fp["newton_residual"], NEWTON_RESIDUAL_MAX)
    _limit(fails, "fixed-point charge_drift", fp["charge_drift"], FIXED_POINT_CHARGE_DRIFT_MAX)
    _limit(fails, "q_final_max_diff", m["cross_check"]["q_final_max_diff"], Q_FINAL_DIFF_MAX)
    _limit(fails, "direct charge_drift", dr["charge_drift"], DIRECT_CHARGE_DRIFT_MAX)
    _limit(fails, "direct energy_drift", dr["energy_drift"], DIRECT_ENERGY_DRIFT_MAX)
    n_times = int(round(cfg["time"]["T"] / cfg["time"]["dt"])) + 1
    rows = len(range(0, n_times, cfg["output"]["every"]))
    for name in ("fixed_point", "direct"):
        fails += _check_csv(outdir / f"timeseries_{name}.csv", rows)
    fails += _check_dns1(outdir / "final.dns", cfg["grid"]["n"], cfg["time"]["T"], 1)[0]
    return fails


def check_direct_n64(outdir: Path, inputs: dict) -> list:
    m = _manifest(outdir)
    cfg = m["config"]
    dr = m["solvers"]["direct"]
    fails = []
    _limit(fails, "charge_drift", dr["charge_drift"], DIRECT_CHARGE_DRIFT_MAX)
    _limit(fails, "energy_drift", dr["energy_drift"], N64_ENERGY_DRIFT_MAX)
    _limit(fails, "momentum_drift", dr["momentum_drift"], N64_MOMENTUM_DRIFT_MAX)
    n_steps = int(round(cfg["time"]["T"] / cfg["time"]["dt"]))
    fails += _check_csv(outdir / "timeseries_direct.csv", n_steps + 1)
    dns_fails, final = _check_dns1(outdir / "final.dns", cfg["grid"]["n"], cfg["time"]["T"],
                                   len(cfg["physics"]["charges"]))
    fails += dns_fails
    if final is not None and not dns_fails:
        q0 = dns1_charge(read_dns1(inputs["checkpoint"]))
        drift = abs(dns1_charge(final) - q0) / q0
        _limit(fails, "final.dns charge drift", drift, DIRECT_CHARGE_DRIFT_MAX)
    return fails


def check_validate_n32(outdir: Path, inputs: dict) -> list:
    summary = json.loads((outdir / "validate_summary.json").read_text())
    fails = list(summary["failures"])
    missing = set(suite_names()) - set(summary["suites"])
    if missing:
        fails.append(f"suites not run: {sorted(missing)}")
    return fails


CHECKS = {"coupled_n16": check_coupled_n16, "direct_n64": check_direct_n64,
          "validate_n32": check_validate_n32}


def check_run(workload: str, exit_code, outdir: Path, inputs: dict) -> list:
    """Failure reasons for one run of ``workload`` (empty when the run is correct)."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        return CHECKS[workload](Path(outdir), inputs)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
