"""Run configuration: parsing, hypothesis guards, initial-state construction.

Configs are YAML/JSON key trees mirroring the dataclasses below, all read by
one walker, :func:`_read`; :func:`parse_config` then checks the hypotheses
that tie keys together.  Every rejection names the key it concerns.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import partial

import numpy as np
import yaml

from .lattice import gaussian_spinor, make_grid, read_checkpoint
from .potentials import CHARGE_LIMIT, check_initial_separation, nucleus_states

# list shapes: a number per nucleus, a 3-vector, a 3-vector per nucleus, and
# four spinor weights (numbers or [re, im] pairs); _SHAPES reads each
Numbers = Vector = Vectors = Weights = list


class ConfigError(ValueError):
    """Configuration rejected at parse time; the message names the key."""


@dataclass
class GridConfig:
    n: int
    box_length: float


@dataclass
class PhysicsConfig:
    charges: Numbers
    masses: Numbers
    epsilon_reg: float = None   # unset: potentials.regularization_eps
    epsilon0: float = 0.25


@dataclass
class GaussianInit:
    center: Vector
    width: float
    spinor_weights: Weights


@dataclass
class InitConfig:
    positions: Vectors
    velocities: Vectors
    gaussian: GaussianInit = field(default=None, metadata={"under": "field"})
    checkpoint: str = field(default=None, metadata={"under": "field"})


@dataclass
class TimeConfig:
    T: float
    dt: float
    n_slices: int


@dataclass
class FixedPointConfig:
    tol: float = 1e-7
    max_outer: int = 40
    damping: float = 0.5    # retired: read, range-checked and hashed, with no effect


@dataclass
class PicardConfig:
    tol: float = 1e-9
    max_iter: int = 30


@dataclass
class SolverConfig:
    mode: str = "lab"           # lab | comoving
    method: str = "both"        # fixed_point | direct | both
    fixedpoint: FixedPointConfig = field(default_factory=FixedPointConfig)
    picard: PicardConfig = field(default_factory=PicardConfig)
    contraction_const: float = 1.0
    velocity_cap: float = 0.25
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
    solver: SolverConfig = field(default_factory=SolverConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    seed: int = 0
    warnings: list = field(default_factory=list, init=False)

    def config_hash(self) -> str:
        payload = asdict(self)
        payload.pop("warnings", None)
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()


_POSITIVE = ("> 0", lambda v: v > 0)
_COUNT = (">= 1", lambda v: v >= 1)

# the usable range of each numeric key and the choices of each string key
_RANGES = {
    "grid.n": ("a power of two >= 8", lambda n: n >= 8 and n & (n - 1) == 0),
    "grid.box_length": ("positive", lambda v: v > 0),
    "physics.epsilon_reg": _POSITIVE,
    "physics.epsilon0": _POSITIVE,
    "init.field.gaussian.width": _POSITIVE,
    "time.T": _POSITIVE,
    "time.dt": _POSITIVE,
    "time.n_slices": _COUNT,
    "solver.mode": ("in {lab, comoving}", lambda v: v in ("lab", "comoving")),
    "solver.method": ("in {fixed_point, direct, both}",
                      lambda v: v in ("fixed_point", "direct", "both")),
    "solver.fixedpoint.tol": _POSITIVE,
    "solver.fixedpoint.max_outer": _COUNT,
    "solver.fixedpoint.damping": ("in (0, 1]", lambda v: 0 < v <= 1),
    "solver.picard.tol": _POSITIVE,
    "solver.picard.max_iter": _COUNT,
    "solver.contraction_const": _POSITIVE,
    "solver.velocity_cap": _POSITIVE,
    "solver.sigma": ("in [0, 2]", lambda v: 0 <= v <= 2),
    "output.every": _COUNT,
}


def _number(raw, where: str, integer: bool = False):
    """``raw`` as a finite float, or an int with ``integer``; bools are not numbers."""
    if integer and type(raw) is int:
        return raw
    try:
        value = float(None if isinstance(raw, bool) else raw)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where} must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where} must be finite, got {raw!r}")
    if integer and not value.is_integer():
        raise ConfigError(f"{where} must be an integer, got {raw!r}")
    return int(value) if integer else value


def _string(raw, where: str) -> str:
    if not isinstance(raw, str):
        raise ConfigError(f"{where} must be a string, got {raw!r}")
    return raw


def _each(read, raw, where: str, length: int = None) -> list:
    """``read`` applied to each entry of the list ``raw`` (of ``length`` entries, if set)."""
    if not isinstance(raw, (list, tuple)) or length is not None and len(raw) != length:
        size = "" if length is None else f" of {length} entries"
        raise ConfigError(f"{where} must be a list{size}, got {raw!r}")
    return [read(x, f"{where}[{i}]") for i, x in enumerate(raw)]


def _weight(raw, where: str):
    """A spinor weight, a number or an [re, im] pair, kept as written."""
    if isinstance(raw, (list, tuple)):
        _each(_number, raw, where, 2)
    else:
        _number(raw, where)
    return raw


_SHAPES = {
    "int": partial(_number, integer=True),
    "float": _number,
    "str": _string,
    "Numbers": partial(_each, _number),
    "Vector": partial(_each, _number, length=3),
    "Vectors": partial(_each, partial(_each, _number, length=3)),
    "Weights": partial(_each, _weight, length=4),
}


def _join(where: str, key) -> str:
    return f"{where}.{key}" if where else str(key)


def _mapping(raw, where: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where or 'config root'} must be a mapping, got {raw!r}")
    return raw


def _read(cls, raw, where: str):
    """A ``cls`` from the mapping ``raw`` at the dotted path ``where``.

    Each key must be a field of ``cls`` (those with ``metadata["under"]`` sit in
    that sub-mapping), each value is read by the field's declared type (from
    ``_SHAPES``, or a nested section) and checked against ``_RANGES``, and an
    absent key takes the field's default, or ``null`` where that is ``None``.
    """
    specs = [f for f in fields(cls) if f.init]
    groups = sorted({f.metadata["under"] for f in specs if "under" in f.metadata})
    nodes = {None: (_mapping(raw, where), where)}
    nodes.update({g: (_mapping(raw.get(g, {}), f"{where}.{g}"), f"{where}.{g}") for g in groups})
    for group, (node, at) in nodes.items():
        known = [f.name for f in specs if f.metadata.get("under") == group]
        known += groups if group is None else []
        for key in node:
            if key not in known:
                raise ConfigError(f"unknown key {_join(at, key)} (known: {', '.join(known)})")
    values = {}
    for f in specs:
        node, at = nodes[f.metadata.get("under")]
        path = _join(at, f.name)
        if f.name not in node:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"missing key {path}")
            continue
        value = node[f.name]
        if value is not None or f.default is not None:
            value = (_SHAPES[f.type](value, path) if f.type in _SHAPES
                     else _read(globals()[f.type], value, path))  # a nested section
            need, ok = _RANGES.get(path, (None, None))
            if ok is not None and not ok(value):
                raise ConfigError(f"invalid {path}: require {f.name} {need}, got {value!r}")
        values[f.name] = value
    return cls(**values)


def parse_config(raw: dict) -> SimConfig:
    """Read a raw key tree and check the model hypotheses; raises ConfigError."""
    cfg = _read(SimConfig, raw, "")
    phys, init, solver = cfg.physics, cfg.init, cfg.solver
    n_nuclei = len(phys.charges)
    if not n_nuclei:
        raise ConfigError("physics.charges: nucleus hypothesis violated: "
                          "require at least one nucleus, got none")
    for k, Z in enumerate(phys.charges):
        if not 0.0 < abs(Z) < CHARGE_LIMIT:
            raise ConfigError(
                f"physics.charges: charge hypothesis violated for nucleus {k}: "
                f"require 0 < |Z_k| < sqrt(3)/2, got Z_{k} = {Z}")
    for k, m in enumerate(phys.masses):
        if not m > 0:
            raise ConfigError(f"physics.masses: mass hypothesis violated for nucleus {k}: "
                              f"require m_k > 0, got {m}")
    for key, values in (("physics.masses", phys.masses), ("init.positions", init.positions),
                        ("init.velocities", init.velocities)):
        if len(values) != n_nuclei:
            raise ConfigError(f"{key}: must match the number of charges, got {len(values)} "
                              f"for {n_nuclei}")
    if solver.mode == "comoving" and n_nuclei > 1:
        raise ConfigError("solver.mode: the comoving frame is implemented for a single "
                          f"nucleus only, got {n_nuclei} nuclei")

    try:
        check_initial_separation(init.positions, phys.epsilon0)
    except ValueError as exc:
        raise ConfigError(f"init.positions: {exc}") from None
    for k, v in enumerate(init.velocities):
        speed = float(np.linalg.norm(v))
        if speed > solver.velocity_cap + 1e-15:
            raise ConfigError(
                "init.velocities: initial velocity hypothesis violated: require |b_k| <= "
                f"velocity cap = {solver.velocity_cap:.6g}, got |b_{k}| = {speed:.6g}")
    if init.gaussian is None and init.checkpoint is None:
        raise ConfigError("init.field must provide a gaussian spec or a checkpoint path "
                          "(init.field.gaussian or init.field.checkpoint)")

    if "damping" in raw.get("solver", {}).get("fixedpoint", {}):
        cfg.warnings.append("solver.fixedpoint.damping is retired and has no effect: "
                            "the fixed point iterates q <- P(q) undamped")

    max_q = max(float(np.linalg.norm(p)) for p in init.positions)
    if max_q > 0 and cfg.grid.box_length < 4.0 * max_q:
        cfg.warnings.append(
            f"box_length {cfg.grid.box_length} below 4*max|q| = {4 * max_q:.6g}; "
            "minimum-image artifacts may exceed reported tolerances")
    return cfg


def read_config(path):
    """The raw key tree of the YAML (or JSON) file at ``path``, unchecked."""
    try:
        with open(path) as fh:
            return yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path} cannot be read: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from None


def load_config(path) -> SimConfig:
    return parse_config(read_config(path))


def build_initial_state(cfg: SimConfig):
    """Materialize (grid, field, nuclei) from a parsed config."""
    grid = make_grid(cfg.grid.n, cfg.grid.box_length)
    if cfg.init.gaussian is not None:
        weights = [complex(*map(float, w)) if isinstance(w, (list, tuple)) else complex(float(w))
                   for w in cfg.init.gaussian.spinor_weights]
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
    nuclei = nucleus_states(cfg.physics.charges, cfg.physics.masses, cfg.init.positions,
                            cfg.init.velocities)
    return grid, u0, nuclei
