"""Run configuration: parsing, hypothesis guards, initial-state construction.

Configs are YAML/JSON key trees mirroring the solver preconditions; every
rejection names the violated hypothesis explicitly so a failing run can be
traced to the assumption it broke.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np
import yaml

from .lattice import gaussian_spinor, make_grid, read_checkpoint
from .potentials import CHARGE_LIMIT, NucleusState

DEFAULT_VELOCITY_CAP = 0.25


class ConfigError(ValueError):
    """Configuration rejected at parse time; the message names the hypothesis."""


@dataclass
class GridConfig:
    n: int
    box_length: float


@dataclass
class PhysicsConfig:
    charges: list
    masses: list
    epsilon_reg: float = None   # unset: potentials.regularization_eps
    epsilon0: float = 0.25


@dataclass
class GaussianInit:
    center: list
    width: float
    spinor_weights: list


@dataclass
class InitConfig:
    positions: list
    velocities: list
    gaussian: GaussianInit = None
    checkpoint: str = None


@dataclass
class TimeConfig:
    T: float
    dt: float
    n_slices: int


@dataclass
class FixedPointConfig:
    tol: float = 1e-7
    max_outer: int = 40
    damping: float = 0.5


@dataclass
class PicardConfig:
    tol: float = 1e-9
    max_iter: int = 30


@dataclass
class SolverConfig:
    mode: str = "lab"
    method: str = "both"        # fixed_point | direct | both
    fixedpoint: FixedPointConfig = field(default_factory=FixedPointConfig)
    picard: PicardConfig = field(default_factory=PicardConfig)
    contraction_const: float = 1.0
    velocity_cap: float = DEFAULT_VELOCITY_CAP
    sigma: float = 1.25


@dataclass
class OutputConfig:
    every: int = 1
    path: str = "run"


@dataclass
class SimConfig:
    grid: GridConfig
    physics: PhysicsConfig
    init: InitConfig
    time: TimeConfig
    solver: SolverConfig
    output: OutputConfig
    seed: int = 0
    warnings: list = field(default_factory=list)

    def config_hash(self) -> str:
        payload = asdict(self)
        payload.pop("warnings", None)
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()


def _complexify(entry) -> complex:
    if isinstance(entry, (list, tuple)):
        if len(entry) != 2:
            raise ConfigError(f"spinor weight entries must be numbers or [re, im] pairs, got {entry}")
        return complex(float(entry[0]), float(entry[1]))
    return complex(float(entry), 0.0)


def _number(sec: dict, key: str, default, where: str, integer: bool = False):
    """``sec[key]`` (or ``default``) as a finite float, or an int with ``integer``."""
    raw = sec.get(key, default)
    try:
        if isinstance(raw, bool):
            raise TypeError
        value = float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}.{key} must be a number, got {raw!r}") from None
    if integer:
        if not value.is_integer():
            raise ConfigError(f"{where}.{key} must be an integer, got {raw!r}")
        return int(value)
    if not math.isfinite(value):
        raise ConfigError(f"{where}.{key} must be finite, got {raw!r}")
    return value


def _solver_subsection(ssec: dict, name: str, cls) -> dict:
    """The ``solver.<name>`` mapping, rejecting keys that ``cls`` does not have."""
    sec = ssec.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"solver.{name} must be a mapping, got {sec!r}")
    known = [f.name for f in fields(cls)]
    for key in sec:
        if key not in known:
            raise ConfigError(f"unknown key solver.{name}.{key} (known: {', '.join(known)})")
    return sec


def parse_config(raw: dict) -> SimConfig:
    """Validate a raw key tree against the model hypotheses; raises ConfigError."""
    try:
        gsec = raw["grid"]
        psec = raw["physics"]
        isec = raw["init"]
        tsec = raw["time"]
    except KeyError as exc:
        raise ConfigError(f"missing config section: {exc}") from exc
    ssec = raw.get("solver", {})
    osec = raw.get("output", {})

    try:
        make_grid(int(gsec["n"]), float(gsec["box_length"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    grid = GridConfig(int(gsec["n"]), float(gsec["box_length"]))

    charges = [float(z) for z in psec["charges"]]
    masses = [float(m) for m in psec["masses"]]
    if not charges:
        raise ConfigError("nucleus hypothesis violated: require at least one nucleus, got none")
    eps0 = float(psec.get("epsilon0", 0.25))
    eps_reg = psec.get("epsilon_reg")
    eps_reg = float(eps_reg) if eps_reg is not None else None
    if eps0 <= 0:
        raise ConfigError(f"separation scale epsilon0 must be positive, got {eps0}")
    if eps_reg is not None and eps_reg <= 0:
        raise ConfigError(f"regularization epsilon must be positive, got {eps_reg}")
    for k, Z in enumerate(charges):
        if not 0.0 < abs(Z) < CHARGE_LIMIT:
            raise ConfigError(
                f"charge hypothesis violated for nucleus {k}: require 0 < |Z_k| < sqrt(3)/2, "
                f"got Z_{k} = {Z}")
    for k, m in enumerate(masses):
        if not m > 0:
            raise ConfigError(f"mass hypothesis violated for nucleus {k}: require m_k > 0, got {m}")
    if len(charges) != len(masses):
        raise ConfigError("charges and masses must have equal length")

    positions = [list(map(float, p)) for p in isec["positions"]]
    velocities = [list(map(float, v)) for v in isec["velocities"]]
    if len(positions) != len(charges) or len(velocities) != len(charges):
        raise ConfigError("positions/velocities must match the number of charges")
    fp_sec = _solver_subsection(ssec, "fixedpoint", FixedPointConfig)
    pi_sec = _solver_subsection(ssec, "picard", PicardConfig)
    solver = SolverConfig(
        mode=str(ssec.get("mode", "lab")),
        method=str(ssec.get("method", "both")),
        fixedpoint=FixedPointConfig(
            tol=_number(fp_sec, "tol", FixedPointConfig.tol, "solver.fixedpoint"),
            max_outer=_number(fp_sec, "max_outer", FixedPointConfig.max_outer,
                              "solver.fixedpoint", integer=True),
            damping=_number(fp_sec, "damping", FixedPointConfig.damping, "solver.fixedpoint")),
        picard=PicardConfig(
            tol=_number(pi_sec, "tol", PicardConfig.tol, "solver.picard"),
            max_iter=_number(pi_sec, "max_iter", PicardConfig.max_iter, "solver.picard",
                             integer=True)),
        contraction_const=_number(ssec, "contraction_const", 1.0, "solver"),
        velocity_cap=_number(ssec, "velocity_cap", DEFAULT_VELOCITY_CAP, "solver"),
        sigma=_number(ssec, "sigma", 1.25, "solver"),
    )
    for key, value, ok, need in (
        ("solver.fixedpoint.tol", solver.fixedpoint.tol, solver.fixedpoint.tol > 0, "> 0"),
        ("solver.fixedpoint.max_outer", solver.fixedpoint.max_outer,
         solver.fixedpoint.max_outer >= 1, ">= 1"),
        ("solver.fixedpoint.damping", solver.fixedpoint.damping,
         0 < solver.fixedpoint.damping <= 1, "in (0, 1]"),
        ("solver.picard.tol", solver.picard.tol, solver.picard.tol > 0, "> 0"),
        ("solver.picard.max_iter", solver.picard.max_iter, solver.picard.max_iter >= 1, ">= 1"),
        ("solver.contraction_const", solver.contraction_const, solver.contraction_const > 0,
         "> 0"),
        ("solver.sigma", solver.sigma, 0 <= solver.sigma <= 2, "in [0, 2]"),
    ):
        if not ok:
            raise ConfigError(f"{key} must be {need}, got {value}")
    if solver.mode not in ("lab", "comoving"):
        raise ConfigError(f"solver mode must be lab or comoving, got {solver.mode!r}")
    if solver.method not in ("fixed_point", "direct", "both"):
        raise ConfigError(f"solver method must be fixed_point, direct or both, got {solver.method!r}")

    for k in range(len(charges)):
        for l in range(k + 1, len(charges)):
            sep = float(np.linalg.norm(np.array(positions[k]) - np.array(positions[l])))
            if sep < 8.0 * eps0 - 1e-12:
                raise ConfigError(
                    "separation hypothesis violated: require "
                    f"min |q_k(0) - q_l(0)| >= 8*epsilon0 = {8 * eps0:.6g}, "
                    f"got |q_{k}(0) - q_{l}(0)| = {sep:.6g}")
    for k, v in enumerate(velocities):
        speed = float(np.linalg.norm(v))
        if speed > solver.velocity_cap + 1e-15:
            raise ConfigError(
                "initial velocity hypothesis violated: require |b_k| <= velocity cap "
                f"= {solver.velocity_cap:.6g}, got |b_{k}| = {speed:.6g}")

    fsec = isec.get("field", {})
    gaussian = None
    checkpoint = fsec.get("checkpoint")
    if "gaussian" in fsec:
        gg = fsec["gaussian"]
        gaussian = GaussianInit(center=list(map(float, gg["center"])),
                                width=float(gg["width"]),
                                spinor_weights=list(gg["spinor_weights"]))
        if gaussian.width <= 0:
            raise ConfigError("gaussian field width must be positive")
        if len(gaussian.spinor_weights) != 4:
            raise ConfigError("gaussian spinor_weights must have 4 entries")
    if gaussian is None and checkpoint is None:
        raise ConfigError("init.field must provide a gaussian spec or a checkpoint path")
    init = InitConfig(positions=positions, velocities=velocities,
                      gaussian=gaussian, checkpoint=checkpoint)

    time = TimeConfig(T=float(tsec["T"]), dt=float(tsec["dt"]), n_slices=int(tsec["n_slices"]))
    if time.T <= 0 or time.dt <= 0 or time.n_slices < 1:
        raise ConfigError("time section requires T > 0, dt > 0, n_slices >= 1")

    output = OutputConfig(every=_number(osec, "every", 1, "output", integer=True),
                          path=str(osec.get("path", "run")))
    if output.every < 1:
        raise ConfigError(f"output.every must be >= 1, got {output.every}")
    cfg = SimConfig(grid=grid, physics=PhysicsConfig(charges, masses, eps_reg, eps0),
                    init=init, time=time, solver=solver, output=output,
                    seed=int(raw.get("seed", 0)))

    max_q = max(float(np.linalg.norm(p)) for p in positions)
    if max_q > 0 and grid.box_length < 4.0 * max_q:
        cfg.warnings.append(
            f"box_length {grid.box_length} below 4*max|q| = {4 * max_q:.6g}; "
            "minimum-image artifacts may exceed reported tolerances")
    return cfg


def load_config(path) -> SimConfig:
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a mapping, got {type(raw).__name__}")
    return parse_config(raw)


def build_initial_state(cfg: SimConfig):
    """Materialize (grid, field, nuclei) from a parsed config."""
    grid = make_grid(cfg.grid.n, cfg.grid.box_length)
    if cfg.init.gaussian is not None:
        weights = [_complexify(w) for w in cfg.init.gaussian.spinor_weights]
        u0 = gaussian_spinor(grid, cfg.init.gaussian.center, cfg.init.gaussian.width, weights)
    else:
        try:
            u0, _, _, _, _, _ = read_checkpoint(cfg.init.checkpoint)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"init.field.checkpoint {cfg.init.checkpoint!r} "
                              f"cannot be read: {exc}") from exc
        if u0.grid.n != grid.n or abs(u0.grid.box_length - grid.box_length) > 1e-12:
            raise ConfigError(
                f"checkpoint grid ({u0.grid.n}, {u0.grid.box_length}) does not match "
                f"config grid ({grid.n}, {grid.box_length})")
    nuclei = [NucleusState(Z, m, q, v) for Z, m, q, v in
              zip(cfg.physics.charges, cfg.physics.masses, cfg.init.positions,
                  cfg.init.velocities)]
    return grid, u0, nuclei
