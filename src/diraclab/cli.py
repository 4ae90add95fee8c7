"""Batch front end: simulate / validate / groundstate / convergence commands.

Exit codes: 0 ok, 2 config or usage rejection, 3 solver failure,
4 invariant failure.  The output root is taken from --output-root or the
DIRACLAB_OUTPUT_ROOT environment variable (default: current directory).
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from . import analysis, groundstate as gs
from .config import ConfigError, build_initial_state, load_config, parse_config, read_config
from .dirac import apply_free_dirac, dirac_matrices
from .hartree import bilinear_estimate_report
from .lattice import (
    charge,
    l2_distance,
    l2_norm,
    make_grid,
    random_smooth_field,
    sobolev_norm,
    write_checkpoint,
)
from .newton import (
    CollisionError,
    FixedPointDivergence,
    coupled_direct,
    coupled_fixed_point,
)
from .potentials import Trajectory, regularization_eps
from .propagator import (
    AdmissibilityError,
    ContractionWindowError,
    ConvergenceFailure,
    PropagatorPlan,
    check_contraction_window,
    product_formula_evolve,
    step_count,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INVARIANT = 4

SOLVER_ERRORS = (ConvergenceFailure, FixedPointDivergence, AdmissibilityError, CollisionError,
                 FloatingPointError)


def _fmt(x) -> str:
    return repr(float(x))


class OutputDirError(Exception):
    """A command's output directory cannot be created (exit 2)."""


def _output_dir(args, name: str) -> Path:
    """``<output root>/<name>``, created; an OSError becomes :class:`OutputDirError`."""
    root = args.output_root or os.environ.get("DIRACLAB_OUTPUT_ROOT") or "."
    outdir = Path(root) / name
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputDirError(f"cannot create output directory {outdir}: "
                             f"{exc.strerror or exc}") from exc
    return outdir


def _write_timeseries(path: Path, fsol, traj, rep, every: int) -> None:
    """One CSV row per ``every``-th snapshot: H^sigma norm, energy, momentum and
    force from the solver's report, charge from ``fsol`` and q and v from
    ``traj`` at the snapshot time; nothing is computed here but formatting."""
    cols = ["t", "charge", "hsigma",
            "E_field_kinetic", "E_interaction", "E_hartree", "E_nuclear_kinetic",
            "E_internuclear", "E_total", "p_x", "p_y", "p_z"]
    for k in range(traj.n_nuclei):
        for name in ("q", "v", "F_field", "F_internuclear", "F_total"):
            cols += [f"{name}{k}_{ax}" for ax in "xyz"]
    lines = [",".join(cols)]
    for j in range(0, len(fsol.times), every):
        t = fsol.times[j]
        eb, p, fb = rep.energies[j], rep.momenta[j], rep.forces[j]
        row = [_fmt(t), _fmt(fsol.charges[j]), _fmt(rep.hsigma[j]),
               _fmt(eb.field_kinetic), _fmt(eb.interaction), _fmt(eb.hartree),
               _fmt(eb.nuclear_kinetic), _fmt(eb.internuclear), _fmt(eb.total),
               _fmt(p[0]), _fmt(p[1]), _fmt(p[2])]
        nuclei = traj.nuclei_at(t)
        for k in range(traj.n_nuclei):
            for vec in (nuclei[k].q, nuclei[k].qdot, fb.field[k],
                        fb.internuclear[k], fb.total[k]):
                row += [_fmt(vec[0]), _fmt(vec[1]), _fmt(vec[2])]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def _initial_state(cfg):
    """(grid, u0, nuclei) of a parsed config whose field passes the contraction window."""
    grid, u0, nuclei = build_initial_state(cfg)
    if charge(u0) > 0:
        check_contraction_window(cfg.time.T, u0, cfg.solver.sigma,
                                 cfg.solver.contraction_const)
    return grid, u0, nuclei


def _run_solvers(cfg, grid, u0, nuclei):
    """The config's solver or solvers from (u0, nuclei): ``{name: (fsol, traj, report)}``
    and ``{name: manifest entry}``.  Solver errors (``SOLVER_ERRORS``) propagate."""
    eps = regularization_eps(cfg.physics.epsilon_reg, grid)
    plan = PropagatorPlan(
        frame="comoving_single" if cfg.solver.mode == "comoving" else "lab",
        n_slices=cfg.time.n_slices, eps_reg=eps, velocity_cap=cfg.solver.velocity_cap)
    n_steps = step_count(cfg.time.T, cfg.time.dt)
    results, entries = {}, {}
    if cfg.solver.method in ("fixed_point", "both"):
        t0 = time.time()
        fsol, traj, rep = coupled_fixed_point(
            u0, nuclei, cfg.time.T, tol=cfg.solver.fixedpoint.tol,
            max_outer=cfg.solver.fixedpoint.max_outer, theta=cfg.solver.fixedpoint.damping,
            plan=plan, n_steps=n_steps, eps0=cfg.physics.epsilon0,
            picard_tol=cfg.solver.picard.tol, picard_max_iter=cfg.solver.picard.max_iter,
            sigma=cfg.solver.sigma, contraction_const=cfg.solver.contraction_const)
        results["fixed_point"] = (fsol, traj, rep)
        entries["fixed_point"] = {
            "outer_iterations": rep.outer_iterations, "step_history": rep.step_history,
            "newton_residual": rep.newton_residual,
            "admissibility_failures": rep.admissibility_failures,
            "charge_drift": fsol.charge_drift(), "wall_time": time.time() - t0,
        }
    if cfg.solver.method in ("direct", "both"):
        t0 = time.time()
        fsol, traj, rep = coupled_direct(u0, nuclei, cfg.time.T, cfg.time.dt, eps_reg=eps,
                                        sigma=cfg.solver.sigma)
        results["direct"] = (fsol, traj, rep)
        entries["direct"] = {
            "energy_drift": rep.energy_drift, "momentum_drift": rep.momentum_drift,
            "charge_drift": rep.charge_drift, "wall_time": time.time() - t0,
        }
    return results, entries


def _solver_failure(outdir: Path, exc) -> int:
    """Write ``failure.json`` for a solver error and report it."""
    record = {"status": "failure", "error": type(exc).__name__, "message": str(exc),
              "history": getattr(exc, "history", None)}
    (outdir / "failure.json").write_text(json.dumps(record, indent=2, default=str))
    print(f"solver failure: {exc}", file=sys.stderr)
    return EXIT_SOLVER


def cmd_simulate(args) -> int:
    try:
        cfg = load_config(args.config)
        for w in cfg.warnings:
            print(f"warning: {w}", file=sys.stderr)
        grid, u0, nuclei = _initial_state(cfg)
    except (ConfigError, ContractionWindowError) as exc:
        print(f"config rejected: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # created once the run is accepted, before the solve, so that failure.json has a home
    outdir = _output_dir(args, cfg.output.path)
    manifest = {
        "version": __version__, "config_hash": cfg.config_hash(), "seed": cfg.seed,
        "config": json.loads(json.dumps(asdict(cfg), default=str)),
        "epsilon_reg": regularization_eps(cfg.physics.epsilon_reg, grid), "outputs": [],
    }
    try:
        results, manifest["solvers"] = _run_solvers(cfg, grid, u0, nuclei)
    except SOLVER_ERRORS as exc:
        return _solver_failure(outdir, exc)

    if len(results) == 2:
        (fa, ta, _), (fb, tb, _) = results["fixed_point"], results["direct"]
        manifest["cross_check"] = {
            "q_final_max_diff": float(np.max(np.abs(ta.positions[:, -1] - tb.positions[:, -1]))),
            "field_final_l2_diff": l2_distance(fa.final, fb.final),
        }
    for name, (fsol, traj, rep) in results.items():
        ts_path = outdir / f"timeseries_{name}.csv"
        _write_timeseries(ts_path, fsol, traj, rep, cfg.output.every)
        manifest["outputs"].append(ts_path.name)
    fsol, traj, _ = results.get("fixed_point", results.get("direct"))
    ck_path = outdir / "final.dns"
    write_checkpoint(ck_path, fsol.final, float(fsol.times[-1]), traj.charges,
                     traj.masses, traj.positions[:, -1], traj.velocities[:, -1])
    manifest["outputs"].append(ck_path.name)
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, default=str))
    print(f"ok: outputs in {outdir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate suites


def _suite_dirac(n: int, seed: int, outdir: Path):
    failures = []
    mats = dirac_matrices()
    all_m = (*mats.alphas, mats.beta)
    for i, A in enumerate(all_m):
        for j, B in enumerate(all_m):
            anti = A @ B + B @ A
            target = 2.0 * np.eye(4) if i == j else np.zeros((4, 4))
            if not np.array_equal(anti, target):
                failures.append(f"anticommutation identity failed for pair ({i},{j})")
        if not np.array_equal(A, A.conj().T):
            failures.append(f"matrix {i} not hermitian")
    grid = make_grid(min(n, 32), 12.0)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        u = random_smooth_field(grid, rng, kmax=4, decay=0.8)
        lhs = l2_norm(apply_free_dirac(u))
        rhs = sobolev_norm(u, 1.0)
        worst = max(worst, abs(lhs - rhs) / rhs)
    if worst > 1e-10:
        failures.append(f"free-operator/H1 norm identity off by {worst:.3e} > 1e-10")
    (outdir / "dirac_summary.json").write_text(json.dumps(
        {"norm_identity_worst": worst, "failures": failures}, indent=2))
    return failures


def _suite_propagator(n: int, seed: int, outdir: Path):
    failures = []
    grid = make_grid(min(n, 32), 12.0)
    rng = np.random.default_rng(seed)
    u0 = random_smooth_field(grid, rng, kmax=3, decay=1.0)
    traj = Trajectory.constant_velocity([0.5], [10.0], [[0, 0, 0]], [[0.08, 0, 0]], 0.0, 0.5, 16)
    plan = PropagatorPlan(n_slices=16, eps_reg=3 * grid.spacing)
    u1 = product_formula_evolve(u0, 0.0, 0.5, traj, plan)
    drift = abs(charge(u1) - charge(u0)) / charge(u0)
    back = product_formula_evolve(u1, 0.5, 0.0, traj, plan)
    rev = l2_distance(back, u0) / l2_norm(u0)
    mid = product_formula_evolve(u0, 0.0, 0.25, traj, plan)
    comp = l2_distance(product_formula_evolve(mid, 0.25, 0.5, traj, plan), u1) / l2_norm(u0)
    if drift > 1e-10:
        failures.append(f"charge drift {drift:.3e} > 1e-10")
    if rev > 1e-9:
        failures.append(f"reversibility residual {rev:.3e} > 1e-9")
    if comp > 1e-12:
        failures.append(f"slice-aligned composition residual {comp:.3e} > 1e-12")
    (outdir / "propagator_summary.json").write_text(json.dumps(
        {"charge_drift": drift, "reversibility": rev, "composition": comp,
         "failures": failures}, indent=2))
    return failures


def _suite_hardy(n: int, seed: int, outdir: Path):
    grid = make_grid(n, 12.0)
    rep = analysis.hardy_report(grid, n_samples=30, seed=seed)
    rep.write(outdir / "hardy.jsonl")
    return [] if np.isfinite(rep.sup_ratio) else ["hardy sup ratio not finite"]


def _suite_multiplier(n: int, seed: int, outdir: Path):
    grid = make_grid(n, 12.0)
    rep = analysis.coulomb_multiplier_report(grid, n_samples=30, seed=seed)
    rep.write(outdir / "coulomb_multiplier.jsonl")
    return [] if np.isfinite(rep.sup_ratio) else ["coulomb-multiplier sup ratio not finite"]


def _suite_rellich(n: int, seed: int, outdir: Path):
    grid = make_grid(n, 12.0)
    rep = analysis.rellich_report(grid, seed=seed)
    rep.write(outdir / "rellich.jsonl")
    return [] if np.isfinite(rep.sup_ratio) else ["rellich sup ratio not finite"]


def _suite_radial(n: int, seed: int, outdir: Path):
    rep = analysis.radial_decomposition_report()
    rep.write(outdir / "radial_decomposition.jsonl")
    failures = []
    for s in rep.samples:
        if s["residual"] >= 1e-4:
            failures.append(f"radial decomposition residual {s['residual']:.3e} >= 1e-4 "
                            f"at degree k={s['k']}")
    return failures


def _suite_regularization(n: int, seed: int, outdir: Path):
    grid = make_grid(max(n, 64), 16.0)
    rep = analysis.regularization_report(grid, sigma=1.4)
    rep.write(outdir / "regularization_rate.jsonl")
    slope = rep.metadata["slope"]
    expect = rep.metadata["expected_exponent"]
    if slope < expect - 0.1:
        return [f"regularization slope {slope:.3f} below {expect - 0.1:.3f}"]
    return []


def _suite_bilinear(n: int, seed: int, outdir: Path):
    grid = make_grid(n, 12.0)
    rng = np.random.default_rng(seed)
    rep = analysis.InequalityReport("bilinear-convolution", "random-smooth", grid.n,
                                    grid.box_length, grid.spacing / 2, seed)
    for i in range(60):
        u = random_smooth_field(grid, rng, kmax=4, decay=0.8)
        v = random_smooth_field(grid, rng, kmax=4, decay=0.8)
        w = random_smooth_field(grid, rng, kmax=4, decay=0.8)
        ratios = bilinear_estimate_report(u, v, w)
        rep.samples.append({"index": i, "ratio": ratios.l2, "l2": ratios.l2,
                            "h1": ratios.h1, "hs1": ratios.hs1, "s": ratios.s})
    rep.write(outdir / "bilinear.jsonl")
    return [] if np.isfinite(rep.sup_ratio) else ["bilinear sup ratio not finite"]


SUITES = {
    "dirac": _suite_dirac,
    "propagator": _suite_propagator,
    "hardy": _suite_hardy,
    "multiplier": _suite_multiplier,
    "rellich": _suite_rellich,
    "radial": _suite_radial,
    "regularization": _suite_regularization,
    "bilinear": _suite_bilinear,
}


def cmd_validate(args) -> int:
    if args.suite != "all" and args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; choose from {sorted(SUITES)} or 'all'",
              file=sys.stderr)
        return EXIT_CONFIG
    outdir = _output_dir(args, args.out)
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    failures = []
    t0 = time.time()
    for name in names:
        t1 = time.time()
        fails = SUITES[name](args.n, args.seed, outdir)
        failures.extend(f"[{name}] {f}" for f in fails)
        print(f"suite {name}: {'FAIL' if fails else 'ok'} ({time.time() - t1:.1f}s)")
    summary = {"suites": names, "n": args.n, "seed": args.seed,
               "failures": failures, "wall_time": time.time() - t0}
    (outdir / "validate_summary.json").write_text(json.dumps(summary, indent=2))
    if failures:
        for f in failures:
            print(f"invariant failure: {f}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_groundstate(args) -> int:
    outdir = _output_dir(args, args.out)
    rows = ["nu,a,b,sigma,sigma_max,classification,measured_exponent,expected_exponent,"
            "tail_exponent,tail_expected,consistent"]
    records = []
    consistent_all = True
    for nu in args.nu:
        model = gs.GroundStateModel(nu)
        tail = gs.fourier_tail_exponent(model)
        for sigma in args.sigma:
            rep = gs.verify_regularity(model, sigma)
            expect_cls = (gs.CONVERGENT if sigma < rep.sigma_max - rep.margin
                          else gs.DIVERGENT if sigma > rep.sigma_max + rep.margin
                          else gs.INDETERMINATE)
            consistent = rep.classification == expect_cls
            consistent_all &= consistent
            rows.append(",".join([
                _fmt(nu), _fmt(model.a), _fmt(model.b), _fmt(sigma), _fmt(rep.sigma_max),
                rep.classification, _fmt(rep.measured_increment_exponent),
                _fmt(rep.expected_increment_exponent), _fmt(tail), _fmt(-(model.b + 2.0)),
                str(consistent)]))
            records.append({**asdict(rep), "tail_exponent": tail, "consistent": consistent})
    (outdir / "groundstate_classification.csv").write_text("\n".join(rows) + "\n")
    with open(outdir / "groundstate_classification.jsonl", "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    print(f"ok: wrote {outdir / 'groundstate_classification.csv'}")
    return EXIT_OK if consistent_all else EXIT_INVARIANT


# the config key each ladder axis replaces; rungs run from coarse to fine, so
# the axes refined by lowering the value (the step and the regularization) run
# in decreasing order
AXES = {"n_slices": "time.n_slices", "dt": "time.dt", "n": "grid.n",
        "epsilon_reg": "physics.epsilon_reg", "box_length": "grid.box_length"}
DECREASING = ("dt", "epsilon_reg")
DRIFTS = ("energy_drift", "momentum_drift", "charge_drift")


def _cell(x) -> str:
    return "" if x is None else _fmt(x)


def _order(prev_diff, diff):
    """Empirical order ``log2(prev_diff / diff)`` of two successive differences, or None."""
    return np.log2(prev_diff / diff) if prev_diff and diff else None


def _slice_rows(cfg, rungs) -> list:
    """The linear propagator along the config's constant-velocity path at each
    rung's n_slices: the L2 change of u(T) from the previous rung and its order."""
    grid, u0 = rungs[0][1], rungs[0][2]
    eps = regularization_eps(cfg.physics.epsilon_reg, grid)
    traj = Trajectory.constant_velocity(
        cfg.physics.charges, cfg.physics.masses, cfg.init.positions, cfg.init.velocities,
        0.0, cfg.time.T, max(16, cfg.time.n_slices))
    rows = ["n_slices,l2_diff_to_previous,empirical_order"]
    prev = prev_diff = None
    for rung, *_ in rungs:
        plan = PropagatorPlan(n_slices=rung.time.n_slices, eps_reg=eps,
                              velocity_cap=cfg.solver.velocity_cap)
        u = product_formula_evolve(u0, 0.0, cfg.time.T, traj, plan)
        diff = l2_distance(u, prev) if prev is not None else None
        rows.append(",".join([str(rung.time.n_slices), _cell(diff),
                              _cell(_order(prev_diff, diff))]))
        prev, prev_diff = u, diff
    return rows


def _solver_rows(axis: str, rungs) -> list:
    """Per rung and solver of the config: q(T) of each nucleus, E_total(T), the
    drifts the solver's manifest entry records, and the changes of q(T) (sup
    norm) and E_total(T) from the previous rung with their orders."""
    section, key = AXES[axis].split(".")
    cols = [axis, "solver"] + [f"q{k}_{ax}" for k in range(len(rungs[0][3])) for ax in "xyz"]
    cols += ["E_total", *DRIFTS, "q_diff_to_previous", "q_order",
             "E_total_diff_to_previous", "E_total_order"]
    rows = [",".join(cols)]
    prev = {}
    for cfg, grid, u0, nuclei in rungs:
        results, entries = _run_solvers(cfg, grid, u0, nuclei)
        for name, (_, traj, rep) in results.items():
            q, E = traj.positions[:, -1], rep.energies[-1].total
            q_prev, E_prev, dq_prev, dE_prev = prev.get(name, (None,) * 4)
            dq = float(np.max(np.abs(q - q_prev))) if q_prev is not None else None
            dE = abs(E - E_prev) if E_prev is not None else None
            rows.append(",".join([repr(getattr(getattr(cfg, section), key)), name,
                                  *map(_fmt, q.ravel()), _fmt(E),
                                  *(_cell(entries[name].get(d)) for d in DRIFTS),
                                  _cell(dq), _cell(_order(dq_prev, dq)),
                                  _cell(dE), _cell(_order(dE_prev, dE))]))
            prev[name] = (q, E, dq, dE)
    return rows


def cmd_convergence(args) -> int:
    section, key = AXES[args.axis].split(".")
    try:
        raw = read_config(args.config)
        cfg = parse_config(raw)
        rungs = []
        for value in sorted(args.ladder, reverse=args.axis in DECREASING):
            tree = copy.deepcopy(raw)
            tree[section][key] = value
            rung = parse_config(tree)
            rungs.append((rung, *_initial_state(rung)))
    except (ConfigError, ContractionWindowError) as exc:
        print(f"config rejected: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for w in dict.fromkeys(w for rung, *_ in rungs for w in rung.warnings):
        print(f"warning: {w}", file=sys.stderr)
    outdir = _output_dir(args, args.out)
    if args.axis == "n_slices":
        rows = _slice_rows(cfg, rungs)
    else:
        try:
            rows = _solver_rows(args.axis, rungs)
        except SOLVER_ERRORS as exc:
            return _solver_failure(outdir, exc)
    (outdir / "convergence.csv").write_text("\n".join(rows) + "\n")
    print(f"ok: wrote {outdir / 'convergence.csv'}")
    return EXIT_OK


def _checked(cast, need: str, ok):
    """An argparse ``type=`` that casts with ``cast`` and rejects values failing ``ok``."""
    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"require {need}, got {text}")
        return value
    parse.__name__ = cast.__name__  # argparse names it in "invalid int value"
    return parse


class _Ladder(argparse.Action):
    """Stores ``--ladder`` after checking the values as a whole: two or more, none repeated."""

    def __call__(self, parser, namespace, values, option_string=None):
        if len(values) < 2 or len(set(values)) != len(values):
            raise argparse.ArgumentError(
                self, f"require at least two distinct values, "
                      f"got {' '.join(f'{v:g}' for v in values)}")
        setattr(namespace, self.dest, values)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="diraclab",
                                description="Dirac-Hartree field + point nuclei lab")
    p.add_argument("--output-root", default=None,
                   help="root for outputs (default: $DIRACLAB_OUTPUT_ROOT or .)")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="run the coupled solvers from a config file")
    ps.add_argument("--config", required=True)
    ps.set_defaults(func=cmd_simulate)

    pv = sub.add_parser("validate", help="run inequality/property suites")
    pv.add_argument("--suite", required=True,
                    help=f"one of {sorted(SUITES)} or 'all'")
    pv.add_argument("--n", default=32, type=_checked(
        int, "a power of two >= 16", lambda n: n >= 16 and n & (n - 1) == 0))
    pv.add_argument("--seed", default=2024, type=_checked(int, ">= 0", lambda s: s >= 0))
    pv.add_argument("--out", default="validate")
    pv.set_defaults(func=cmd_validate)

    pg = sub.add_parser("groundstate", help="regularity classification tables")
    pg.add_argument("--nu", nargs="+", required=True, type=_checked(
        float, "0 < nu < sqrt(3)/2 (coupling hypothesis)", lambda nu: 0 < nu < gs.NU_LIMIT))
    pg.add_argument("--sigma", nargs="+", required=True,
                    type=_checked(float, "0 <= sigma <= 2", lambda s: 0 <= s <= 2))
    pg.add_argument("--out", default="groundstate")
    pg.set_defaults(func=cmd_groundstate)

    pc = sub.add_parser("convergence", help="resolution ladder over one config key")
    pc.add_argument("--config", required=True)
    pc.add_argument("--axis", default="n_slices", choices=list(AXES),
                    help="the axis laddered; each rung replaces its config key")
    pc.add_argument("--ladder", nargs="+", required=True, action=_Ladder,
                    type=_checked(float, "values > 0", lambda v: v > 0),
                    help="the axis values; each is read and checked as its config key")
    pc.add_argument("--out", default="convergence")
    pc.set_defaults(func=cmd_convergence)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except OutputDirError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
