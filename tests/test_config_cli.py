import copy
import csv
import itertools
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from diraclab import analysis as an
from diraclab import cli
from diraclab import config as cf
from diraclab import hartree as ht
from diraclab import lattice as lat
from diraclab import newton as nt
from diraclab import propagator as pr
from diraclab.potentials import coulomb_field
from oracles import snapshot_oracle


BASE = {
    "grid": {"n": 8, "box_length": 8.0},
    "physics": {"charges": [0.5], "masses": [10.0], "epsilon_reg": 0.8, "epsilon0": 0.3},
    "init": {
        "positions": [[0.0, 0.0, 0.0]],
        "velocities": [[0.05, 0.0, 0.0]],
        "field": {"gaussian": {"center": [0.5, 0, 0], "width": 1.2,
                               "spinor_weights": [0.4, [0.0, 0.1], 0, 0]}},
    },
    "time": {"T": 0.1, "dt": 0.025, "n_slices": 4},
    "solver": {"method": "direct", "contraction_const": 0.2},
    "output": {"every": 1, "path": "run"},
    "seed": 11,
}


def _cfg(**updates):
    raw = copy.deepcopy(BASE)
    for path, value in updates.items():
        node = raw
        keys = path.split(".")
        for k in keys[:-1]:
            node = node[k]
        node[keys[-1]] = value
    return raw


def _key_paths(node, prefix=()):
    """Every key path of a config tree: sections, leaves and list entries alike."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield (*prefix, key)
        if isinstance(value, (dict, list)):
            yield from _key_paths(value, (*prefix, key))


def _node(tree, path):
    for k in path:
        tree = tree[k]
    return tree


def _dotted(path):
    return ".".join(k for k in path if isinstance(k, str))


KEY_PATHS = list(_key_paths(BASE))
SECTIONS = [()] + [p for p in KEY_PATHS if isinstance(_node(BASE, p), dict)]
JUNK = ["x", None, float("nan"), float("inf"), float("-inf"), True, {"k": 1}, [1.0, 2.0]]
DELETE = object()


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(KEY_PATHS), junk=st.sampled_from([*JUNK, DELETE]))
def test_parse_junk_value_is_config_error_naming_key(path, junk):
    raw = copy.deepcopy(BASE)
    node = _node(raw, path[:-1])
    if junk is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = junk
    # parsing may succeed; the only exception allowed is a ConfigError naming the key
    try:
        cf.parse_config(raw)
    except cf.ConfigError as exc:
        assert _dotted(path) in str(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(section=st.sampled_from(SECTIONS),
       key=st.from_regex(r"[a-z_]*[A-Z][A-Za-z_]*", fullmatch=True).filter(lambda k: k != "T"))
def test_parse_unknown_key_is_config_error_naming_key(section, key):
    # every known key but time.T is lower case, so these keys are all unknown
    raw = copy.deepcopy(BASE)
    _node(raw, section)[key] = 1.0
    with pytest.raises(cf.ConfigError, match="unknown key") as exc:
        cf.parse_config(raw)
    assert _dotted((*section, key)) in str(exc.value)


@pytest.mark.parametrize("name,digest", [
    ("small_run", "be2bda8d091baaffa8867816d0e8701146be7b5086b02d16042430c223faf2cc"),
    ("two_nuclei", "34b17871b05d870470c270ee29b605d6e907804b54580886ddcdb9571753f9f5"),
])
def test_shipped_config_hash_pinned(name, digest):
    # the hash is a run's identity in its manifest; the reader must not move it
    path = Path(__file__).resolve().parents[1] / "scripts" / "configs" / f"{name}.yaml"
    assert cf.load_config(path).config_hash() == digest


def test_parse_valid():
    cfg = cf.parse_config(_cfg())
    assert cfg.grid.n == 8
    assert cfg.physics.epsilon0 == 0.3
    assert cfg.solver.method == "direct"
    assert not cfg.warnings


def test_parse_complex_weights():
    cfg = cf.parse_config(_cfg())
    grid, u0, nuclei = cf.build_initial_state(cfg)
    assert u0.grid.n == 8
    assert lat.charge(u0) > 0
    assert nuclei[0].Z == 0.5


@pytest.mark.parametrize("path,value,fragment", [
    ("physics.charges", [0.9], "charge hypothesis"),
    ("physics.charges", [0.0], "charge hypothesis"),
    ("physics.masses", [-1.0], "mass hypothesis"),
    ("init.velocities", [[0.3, 0, 0]], "velocity hypothesis"),
    ("grid.n", 12, "power of two"),
    ("grid.box_length", -4.0, "positive"),
    ("time.T", -0.5, "T > 0"),
    ("physics.epsilon0", 0.0, "epsilon0"),
    ("solver.method", "magic", "method"),
])
def test_parse_rejections_name_hypothesis(path, value, fragment):
    with pytest.raises(cf.ConfigError, match=fragment):
        cf.parse_config(_cfg(**{path: value}))


def test_parse_separation_rejection():
    raw = _cfg(**{
        "physics.charges": [0.5, 0.5],
        "physics.masses": [10.0, 10.0],
        "init.positions": [[-1.0, 0, 0], [1.0, 0, 0]],
        "init.velocities": [[0, 0, 0], [0, 0, 0]],
    })
    with pytest.raises(cf.ConfigError, match=r"8\*epsilon0"):
        cf.parse_config(raw)
    # three nuclei: the rejection names the pair that is too close, (1, 2)
    raw = _cfg(**{
        "physics.charges": [0.5, 0.5, 0.5],
        "physics.masses": [10.0, 10.0, 10.0],
        "init.positions": [[-3.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]],
        "init.velocities": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    })
    with pytest.raises(cf.ConfigError, match=r"\|q_1\(0\) - q_2\(0\)\| = 1\b"):
        cf.parse_config(raw)


def test_parse_missing_field_spec():
    raw = _cfg()
    raw["init"]["field"] = {}
    with pytest.raises(cf.ConfigError, match="gaussian spec or a checkpoint"):
        cf.parse_config(raw)


def test_parse_small_box_warning():
    raw = _cfg(**{"init.positions": [[3.0, 0, 0]], "grid.box_length": 8.0})
    cfg = cf.parse_config(raw)
    assert cfg.warnings and "4*max|q|" in cfg.warnings[0]


@pytest.mark.parametrize("fixedpoint,warned", [({"tol": 1e-7, "damping": 0.5}, True),
                                               ({"tol": 1e-7}, False)])
def test_retired_damping_key_parses_with_one_warning(fixedpoint, warned):
    # solver.fixedpoint.damping has no effect: a config that sets it parses
    # with one warning naming it, and at its default the hash does not move
    raw = _cfg()
    raw["solver"]["fixedpoint"] = fixedpoint
    cfg = cf.parse_config(raw)
    assert len(cfg.warnings) == warned
    assert all("solver.fixedpoint.damping" in w and "no effect" in w for w in cfg.warnings)
    assert cfg.config_hash() == cf.parse_config(_cfg(**{"solver.fixedpoint": {}})).config_hash()


def _config_keys(cls=cf.SimConfig, where=""):
    """Every dotted leaf key the config reader accepts, walked from the dataclasses."""
    for f in fields(cls):
        if f.init:
            path = ".".join(filter(None, (where, f.metadata.get("under"), f.name)))
            if f.type in cf._SHAPES:
                yield path
            else:
                yield from _config_keys(vars(cf)[f.type], path)


def test_readme_config_table_lists_every_key_the_reader_accepts():
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| key | type | range | default |")
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2:])
    assert {row.split("`")[1] for row in rows} == set(_config_keys())


def test_config_hash_stable_and_sensitive():
    a = cf.parse_config(_cfg())
    b = cf.parse_config(_cfg())
    c = cf.parse_config(_cfg(seed=12))
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


def test_build_initial_state_from_checkpoint(tmp_path):
    g = lat.make_grid(8, 8.0)
    u = lat.gaussian_spinor(g, (0, 0, 0), 1.0, (1, 0, 0, 0))
    ck = tmp_path / "init.dns"
    lat.write_checkpoint(ck, u, 0.0, [0.5], [10.0], [[0, 0, 0]], [[0, 0, 0]])
    raw = _cfg()
    raw["init"]["field"] = {"checkpoint": str(ck)}
    grid, u0, nuclei = cf.build_initial_state(cf.parse_config(raw))
    assert np.array_equal(u0.data, u.data)


def test_build_initial_state_checkpoint_grid_mismatch(tmp_path):
    g = lat.make_grid(16, 8.0)
    u = lat.zero_spinor(g)
    ck = tmp_path / "init.dns"
    lat.write_checkpoint(ck, u, 0.0)
    raw = _cfg()
    raw["init"]["field"] = {"checkpoint": str(ck)}
    with pytest.raises(cf.ConfigError, match="does not match"):
        cf.build_initial_state(cf.parse_config(raw))


# ---------------------------------------------------------------------------
# command line


def _write_cfg(tmp_path, raw, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(raw))
    return p


def test_simulate_end_to_end(tmp_path):
    p = _write_cfg(tmp_path, _cfg())
    rc = cli.main(["--output-root", str(tmp_path), "simulate", "--config", str(p)])
    assert rc == 0
    outdir = tmp_path / "run"
    assert (outdir / "timeseries_direct.csv").exists()
    assert (outdir / "final.dns").exists()
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["solvers"]["direct"]["charge_drift"] < 1e-8
    assert manifest["config_hash"]
    u, t, Z, m, q, v = lat.read_checkpoint(outdir / "final.dns")
    assert t == pytest.approx(0.1)
    assert Z[0] == 0.5


def test_simulate_manifest_records_picard_tolerance_and_sweeps(tmp_path):
    # one count of the march's local iterations per P evaluation, at least
    # one per step; every evaluation is solved at solver.picard.tol, so no
    # tolerance is recorded per evaluation
    raw = _cfg(**{"solver.method": "fixed_point"})
    raw["solver"]["picard"] = {"tol": 1e-9, "max_iter": 30}
    rc = cli.main(["--output-root", str(tmp_path), "simulate",
                   "--config", str(_write_cfg(tmp_path, raw))])
    assert rc == 0
    fp = json.loads((tmp_path / "run" / "manifest.json").read_text())["solvers"]["fixed_point"]
    n, M = fp["outer_iterations"], 4
    assert len(fp["step_history"]) == len(fp["local_iterations"]) == n
    assert all(k >= M for k in fp["local_iterations"])
    assert "picard_tols" not in fp and "picard_sweeps" not in fp


def test_simulate_deterministic_output(tmp_path):
    cases = {"direct": ["timeseries_direct.csv"],
             "both": ["timeseries_fixed_point.csv", "timeseries_direct.csv", "final.dns"]}
    for method, files in cases.items():
        p = _write_cfg(tmp_path, _cfg(**{"solver.method": method}), name=f"{method}.yaml")
        for sub in ("a", "b"):
            rc = cli.main(["--output-root", str(tmp_path / method / sub), "simulate",
                           "--config", str(p)])
            assert rc == 0
        for name in files:
            out_a = (tmp_path / method / "a" / "run" / name).read_bytes()
            out_b = (tmp_path / method / "b" / "run" / name).read_bytes()
            assert out_a == out_b, (method, name)


def test_simulate_output_does_not_read_the_slice_count(tmp_path):
    # time.n_slices ladders the linear propagator of convergence alone: the
    # solvers step on time.dt, so 1 and 4 slices a step write the same bytes
    files = ["timeseries_fixed_point.csv", "timeseries_direct.csv", "final.dns"]
    for n_slices in (4, 16):
        raw = _cfg(**{"solver.method": "both", "time.n_slices": n_slices})
        rc = cli.main(["--output-root", str(tmp_path / str(n_slices)), "simulate",
                       "--config", str(_write_cfg(tmp_path, raw, name=f"{n_slices}.yaml"))])
        assert rc == 0
    for name in files:
        assert ((tmp_path / "4" / "run" / name).read_bytes()
                == (tmp_path / "16" / "run" / name).read_bytes()), name


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [{k: float(v) for k, v in row.items()} for row in rows]


def _count_calls(monkeypatch, functions):
    """Count calls to each named function through every diraclab module that binds it."""
    calls = dict.fromkeys(functions, 0)
    for name, fn in functions.items():
        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("diraclab") and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counted)
    return calls


def test_simulate_diagnostics_computed_once_per_snapshot(tmp_path, monkeypatch):
    # energy, momentum and H^sigma are the solvers' own per-snapshot pass; the
    # CSV writer formats them and recomputes nothing
    calls = _count_calls(monkeypatch, {"snapshot_diagnostics": nt.snapshot_diagnostics})
    p = _write_cfg(tmp_path, _cfg(**{"solver.method": "both", "output.every": 1}))
    rc = cli.main(["--output-root", str(tmp_path / "every1"), "simulate", "--config", str(p)])
    assert rc == 0
    snapshots = sum(len(_read_csv(tmp_path / "every1" / "run" / f"timeseries_{s}.csv"))
                    for s in ("fixed_point", "direct"))
    assert snapshots == 10
    assert calls == {"snapshot_diagnostics": snapshots}
    monkeypatch.undo()

    # a direct run of M steps: one forward transform per snapshot (plus the
    # contraction-window check), no inverse, the step's own potential, and one
    # density and one Hartree potential per snapshot, built by the step's second
    # half-kick (by the run for u0), the density shared by its forces and
    # diagnostics and the potential by its diagnostics and the next step's first
    # half-kick; each snapshot's charge comes from its diagnostic pass, and the
    # only lattice.charge is the contraction-window check's
    calls = _count_calls(monkeypatch, {
        "to_momentum": lat.to_momentum, "to_position": lat.to_position,
        "coulomb_field": coulomb_field, "density": lat.density,
        "convolve_inverse_distance": ht.convolve_inverse_distance, "charge": lat.charge})
    p = _write_cfg(tmp_path, _cfg(**{"solver.method": "direct", "output.every": 1}))
    rc = cli.main(["--output-root", str(tmp_path / "direct"), "simulate", "--config", str(p)])
    assert rc == 0
    M = len(_read_csv(tmp_path / "direct" / "run" / "timeseries_direct.csv")) - 1
    assert M == 4
    charges = calls.pop("charge")
    assert calls == {"to_momentum": M + 2, "to_position": 0, "coulomb_field": M + 1,
                     "density": M + 1, "convolve_inverse_distance": M + 1}
    assert charges <= 1
    monkeypatch.undo()

    # at every: 2 each row must still match an independent evaluation of its
    # snapshot: the fixed point returns its snapshots, and a direct run's
    # snapshots are u0 and the output of each of its steps, whose density is the
    # one the step hands back (its pre-kick field's, the snapshot's to roundoff)
    returned, snapshots, densities, running = {}, {}, {}, set()
    for solver in ("coupled_fixed_point", "coupled_direct"):
        def recorded(*args, _fn=getattr(nt, solver), _name=solver, **kwargs):
            snapshots.setdefault(_name, [args[0]])
            densities.setdefault(_name, [lat.density(args[0])])
            running.add(_name)
            returned[_name] = _fn(*args, **kwargs)
            running.discard(_name)
            return returned[_name]

        monkeypatch.setattr(cli, solver, recorded)
    step = nt.strang_step

    def recorded_step(*args, **kwargs):
        out = step(*args, **kwargs)
        if "coupled_direct" in running:  # the fixed point's start takes direct steps too
            snapshots["coupled_direct"].append(out[0])  # (field, density, Hartree potential)
            densities["coupled_direct"].append(out[1])
        return out

    monkeypatch.setattr(nt, "strang_step", recorded_step)
    p = _write_cfg(tmp_path, _cfg(**{"solver.method": "both", "output.every": 2}))
    rc = cli.main(["--output-root", str(tmp_path / "every2"), "simulate", "--config", str(p)])
    assert rc == 0
    snapshots["coupled_fixed_point"] = returned["coupled_fixed_point"][0].snapshots
    densities["coupled_fixed_point"] = [lat.density(u) for u in snapshots["coupled_fixed_point"]]
    eps = BASE["physics"]["epsilon_reg"]
    sigma = cf.load_config(p).solver.sigma
    energy_cols = ["E_field_kinetic", "E_interaction", "E_hartree", "E_nuclear_kinetic",
                   "E_internuclear", "E_total"]
    for solver, name in (("coupled_fixed_point", "fixed_point"), ("coupled_direct", "direct")):
        fsol, traj, _ = returned[solver]
        assert len(snapshots[solver]) == len(traj.times)
        assert fsol.final is snapshots[solver][-1] and fsol.times[-1] == traj.times[-1]
        rows = _read_csv(tmp_path / "every2" / "run" / f"timeseries_{name}.csv")
        assert len(rows) == (len(traj.times) + 1) // 2
        for i, row in enumerate(rows):
            j = 2 * i
            assert row["t"] == traj.times[j]
            h3 = snapshots[solver][j].grid.spacing**3
            assert row["charge"] == float(h3 * np.sum(densities[solver][j]))
            assert row["charge"] == pytest.approx(lat.charge(snapshots[solver][j]), rel=1e-14)
            nuclei = traj.nuclei_at(traj.times[j])
            want = snapshot_oracle(snapshots[solver][j], nuclei, eps, sigma)
            fb = nt.force_breakdown(snapshots[solver][j], nuclei, eps)
            for cols in (energy_cols, ["p_x", "p_y", "p_z"], ["hsigma"]):
                expect = [want[c] for c in cols]
                np.testing.assert_allclose([row[c] for c in cols], expect, rtol=1e-12,
                                           atol=1e-12 * max(map(abs, expect)))
            for label, vec in (("F_field", fb.field), ("F_internuclear", fb.internuclear),
                               ("F_total", fb.total)):
                got = [[row[f"{label}{k}_{ax}"] for ax in "xyz"] for k in range(len(nuclei))]
                np.testing.assert_allclose(got, vec, rtol=1e-12,
                                           atol=1e-12 * np.max(np.abs(vec)))


def test_simulate_rejects_bad_charge(tmp_path, capsys):
    p = _write_cfg(tmp_path, _cfg(**{"physics.charges": [0.9]}))
    rc = cli.main(["--output-root", str(tmp_path), "simulate", "--config", str(p)])
    assert rc == cli.EXIT_CONFIG
    assert "charge hypothesis" in capsys.readouterr().err


def _physical_memory(monkeypatch, limit):
    """Make ``os.sysconf`` report ``limit`` bytes of physical memory in 4 KiB pages."""
    sysconf = os.sysconf
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": limit // 4096}
    monkeypatch.setattr(os, "sysconf", lambda name: pages.get(name) or sysconf(name))


@pytest.mark.parametrize("method", ["direct", "fixed_point", "both"])
def test_simulate_refuses_a_run_above_physical_memory(tmp_path, capsys, monkeypatch, method):
    # the estimate is read before the initial state is built: exit 2 naming the
    # estimate and the limit, no traceback and no output directory
    raw = _cfg(**{"solver.method": method})
    need = cli._peak_estimate(cf.parse_config(raw))
    p = _write_cfg(tmp_path, raw)
    _physical_memory(monkeypatch, need - 4096)
    rc = cli.main(["--output-root", str(tmp_path / "out"), "simulate", "--config", str(p)])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    limit = (need - 4096) // 4096 * 4096
    assert err.startswith("config rejected:") and "estimated peak memory" in err
    assert "grid.n, time.T, time.dt, solver.method:" in err
    assert f"({need} bytes)" in err and f"({limit} bytes)" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    _physical_memory(monkeypatch, need + 4096)
    rc = cli.main(["--output-root", str(tmp_path / "out"), "simulate", "--config", str(p)])
    assert rc == cli.EXIT_OK


def test_memory_estimate_counts_fields_of_the_solvers():
    # 64 n^3 bytes per field: the direct run a fixed number, the fixed point
    # also one evaluation's M+1 snapshots, whatever the slice count
    field = 64 * 8**3
    for method, n_slices, fields in (("direct", 4, 10), ("fixed_point", 4, 10 + 5),
                                     ("both", 4, 10 + 5), ("both", 16, 10 + 5)):
        cfg = cf.parse_config(_cfg(**{"solver.method": method, "time.n_slices": n_slices}))
        assert cli._peak_estimate(cfg) == int(fields * field)


def test_memory_estimate_admits_n128_m32_on_an_8_gb_machine():
    cfg = cf.parse_config(_cfg(**{"solver.method": "both", "grid.n": 128, "grid.box_length": 16.0,
                                  "time.T": 0.32, "time.dt": 0.01, "time.n_slices": 32}))
    assert cli._peak_estimate(cfg) == int((10 + 33) * 64 * 128**3)
    assert cli._peak_estimate(cfg) < 8 * 10**9


def test_convergence_refuses_a_rung_above_physical_memory(tmp_path, capsys):
    # a solver ladder's rung at n = 4096 would need about 690 GB; refused unbuilt
    p = _write_cfg(tmp_path, _cfg())
    rc = cli.main(["--output-root", str(tmp_path / "out"), "convergence",
                   "--config", str(p), "--axis", "n", "--ladder", "8", "4096"])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config rejected:") and "estimated peak memory" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,value", [
    ("solver.fixedpoint.tol", -1.0),
    ("solver.fixedpoint.tol", "abc"),
    ("solver.fixedpoint.max_outer", 0),
    ("solver.fixedpoint.damping", 0.0),
    ("solver.fixedpoint.damping", 1.7),
    ("solver.picard.tol", 0),
    ("solver.picard.max_iter", 0),
    ("solver.picard.maxiter", 5),
    ("solver.contraction_const", 0),
    ("solver.sigma", 2.5),
    ("output.every", 0),
    ("time.T", float("nan")),
    ("time.dt", float("inf")),
    ("physics.epsilon_reg", float("nan")),
    ("init.field.gaussian.width", float("nan")),
    ("physics.epsilon_Reg", 0.5),
    ("output.path", None),
    ("seed", "x"),
    ("time.n_slices", 2.5),
    # a dict value holds several edits: comoving mode needs a single nucleus
    pytest.param("solver.mode", {
        "solver.mode": "comoving", "physics.charges": [0.5, 0.4],
        "physics.masses": [10.0, 10.0], "init.positions": [[-1.5, 0, 0], [1.5, 0, 0]],
        "init.velocities": [[0, 0, 0], [0, 0, 0]]}, id="solver.mode-comoving-two-nuclei"),
    # a .yaml key names the config file itself, and the value is its text
    pytest.param("cfg.yaml", "grid: {n: 8, box_length: 8.0\n", id="invalid-yaml"),
])
def test_simulate_rejects_unusable_solver_values(tmp_path, capsys, key, value):
    if key.endswith(".yaml"):
        p = tmp_path / key
        p.write_text(value)
    else:
        raw = _cfg()
        for path, v in (value if isinstance(value, dict) else {key: value}).items():
            node = raw
            *parents, leaf = path.split(".")
            for k in parents:
                node = node.setdefault(k, {})
            node[leaf] = v
        p = _write_cfg(tmp_path, raw)
    # an escaping exception fails the call itself
    rc = cli.main(["--output-root", str(tmp_path), "simulate", "--config", str(p)])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_simulate_rejects_window_violation(tmp_path, capsys):
    raw = _cfg(**{"time.T": 5.0, "time.dt": 0.5, "solver.contraction_const": 1.0})
    raw["init"]["field"]["gaussian"]["spinor_weights"] = [3.0, 0, 0, 0]
    p = _write_cfg(tmp_path, raw)
    rc = cli.main(["--output-root", str(tmp_path), "simulate", "--config", str(p)])
    assert rc == cli.EXIT_CONFIG
    assert "time hypothesis" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_simulate_rejects_no_nuclei(tmp_path, capsys):
    raw = _cfg(**{"physics.charges": [], "physics.masses": [],
                  "init.positions": [], "init.velocities": []})
    with pytest.raises(cf.ConfigError, match="at least one nucleus"):
        cf.parse_config(raw)
    p = _write_cfg(tmp_path, raw)
    rc = cli.main(["--output-root", str(tmp_path), "simulate", "--config", str(p)])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "at least one nucleus" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()
    u0 = lat.gaussian_spinor(lat.make_grid(8, 8.0), (0, 0, 0), 1.0, (0.3, 0, 0, 0))
    with pytest.raises(ValueError, match="at least one nucleus"):
        nt.coupled_direct(u0, [], 0.1, 0.025)
    with pytest.raises(ValueError, match="at least one nucleus"):
        nt.coupled_fixed_point(u0, [], 0.1, n_steps=8, contraction_const=0.2)


def test_simulate_solver_failure_writes_record(tmp_path, capsys, monkeypatch):
    map_P = nt.trajectory_map_P
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return map_P(*args, **kwargs)

    monkeypatch.setattr(nt, "trajectory_map_P", counted)
    raw = _cfg(**{"solver.method": "fixed_point"})
    raw["solver"]["fixedpoint"] = {"tol": 1e-30, "max_outer": 1}
    p = _write_cfg(tmp_path, raw)
    rc = cli.main(["--output-root", str(tmp_path), "simulate", "--config", str(p)])
    assert rc == cli.EXIT_SOLVER
    record = json.loads((tmp_path / "run" / "failure.json").read_text())
    assert record["status"] == "failure"
    assert record["error"] == "FixedPointDivergence"
    assert len(record["history"]) == 1
    # max_outer: 1 allows one P evaluation
    assert len(calls) == 1


def test_direct_non_finite_step_writes_failure_and_no_csv(tmp_path, capsys, monkeypatch):
    # a NaN force at step 2 ends the direct run there: exit 3, a failure.json
    # naming the step, and no timeseries or checkpoint
    forces = nt.force_breakdown
    calls = []

    def broken(*args, **kwargs):
        calls.append(1)
        fb = forces(*args, **kwargs)
        if len(calls) == 3:
            fb.field[:] = np.nan
        return fb

    monkeypatch.setattr(nt, "force_breakdown", broken)
    p = _write_cfg(tmp_path, _cfg(**{"solver.method": "direct"}))
    rc = cli.main(["--output-root", str(tmp_path), "simulate", "--config", str(p)])
    assert rc == cli.EXIT_SOLVER
    assert "Traceback" not in capsys.readouterr().err
    record = json.loads((tmp_path / "run" / "failure.json").read_text())
    assert record["error"] == "FloatingPointError"
    assert record["message"].endswith("at step 2")
    assert sorted(f.name for f in (tmp_path / "run").iterdir()) == ["failure.json"]
    assert len(calls) == 3


def test_picard_non_finite_sweep_writes_failure_and_no_csv(tmp_path, capsys, monkeypatch):
    # a NaN potential in the march's first local iteration ends the fixed-point
    # run there: exit 3 and a failure.json naming the step, with no timeseries or
    # checkpoint
    convolve = pr.convolve_inverse_distance

    def broken(grid, source):
        out = convolve(grid, source)
        out[:] = np.nan
        return out

    monkeypatch.setattr(pr, "convolve_inverse_distance", broken)
    p = _write_cfg(tmp_path, _cfg(**{"solver.method": "fixed_point"}))
    rc = cli.main(["--output-root", str(tmp_path), "simulate", "--config", str(p)])
    assert rc == cli.EXIT_SOLVER
    assert "Traceback" not in capsys.readouterr().err
    record = json.loads((tmp_path / "run" / "failure.json").read_text())
    assert record["error"] == "ConvergenceFailure"
    assert "non-finite local distance at step 1" in record["message"]
    assert len(record["history"]) == 1
    assert sorted(f.name for f in (tmp_path / "run").iterdir()) == ["failure.json"]


def test_simulate_manifest_records_the_local_contraction(tmp_path):
    # one local ratio per P evaluation, beside its local iterations: the
    # largest ratio of successive local distances over the march's steps
    raw = _cfg(**{"solver.method": "fixed_point"})
    rc = cli.main(["--output-root", str(tmp_path), "simulate",
                   "--config", str(_write_cfg(tmp_path, raw))])
    assert rc == 0
    fp = json.loads((tmp_path / "run" / "manifest.json").read_text())["solvers"]["fixed_point"]
    assert len(fp["local_contraction"]) == len(fp["local_iterations"]) == fp["outer_iterations"]
    assert all(0.0 < r < 1e-3 for r in fp["local_contraction"])


def test_picard_max_iter_per_step_writes_failure_and_no_csv(tmp_path, capsys):
    # solver.picard.max_iter bounds each step of the march: a step that does
    # not reach solver.picard.tol in it ends the run with exit 3 and a
    # failure.json naming the step and holding its local distances
    raw = _cfg(**{"solver.method": "fixed_point"})
    raw["solver"]["picard"] = {"tol": 1e-15, "max_iter": 2}
    rc = cli.main(["--output-root", str(tmp_path), "simulate",
                   "--config", str(_write_cfg(tmp_path, raw))])
    assert rc == cli.EXIT_SOLVER
    assert "Traceback" not in capsys.readouterr().err
    record = json.loads((tmp_path / "run" / "failure.json").read_text())
    assert record["error"] == "ConvergenceFailure"
    assert "step 1 did not reach tol=1e-15 in 2 local iterations" in record["message"]
    assert len(record["history"]) == 2 and all(d > 0 for d in record["history"])
    assert sorted(f.name for f in (tmp_path / "run").iterdir()) == ["failure.json"]


def _nan_on_second_call(monkeypatch, series):
    map_P = nt.trajectory_map_P
    calls = []

    def broken(*args, **kwargs):
        calls.append(1)
        out, *rest = map_P(*args, **kwargs)
        if len(calls) == 2:
            getattr(out, series)[:] = np.nan
        return (out, *rest)

    monkeypatch.setattr(nt, "trajectory_map_P", broken)
    return calls


@pytest.mark.parametrize("series", ["velocities", "positions"])
def test_fixed_point_non_finite_residual_fails_at_once(tmp_path, capsys, monkeypatch, series):
    # a NaN from P ends the outer iteration at that evaluation, as a solver
    # failure with its residual history, not after max_outer evaluations
    cfg = cf.parse_config(_cfg(**{"solver.method": "fixed_point"}))
    _, u0, nuclei = cf.build_initial_state(cfg)
    calls = _nan_on_second_call(monkeypatch, series)
    with pytest.raises(nt.FixedPointDivergence, match="non-finite") as info:
        nt.coupled_fixed_point(u0, nuclei, cfg.time.T, tol=1e-12, max_outer=40, n_steps=16,
                               contraction_const=0.2)
    assert len(calls) == 2
    assert len(info.value.history) == 2 and np.isnan(info.value.history[-1])

    calls.clear()
    raw = _cfg(**{"solver.method": "fixed_point"})
    raw["solver"]["fixedpoint"] = {"tol": 1e-12, "max_outer": 40}
    p = _write_cfg(tmp_path, raw)
    rc = cli.main(["--output-root", str(tmp_path), "simulate", "--config", str(p)])
    assert rc == cli.EXIT_SOLVER
    assert "Traceback" not in capsys.readouterr().err
    record = json.loads((tmp_path / "run" / "failure.json").read_text())
    assert record["error"] == "FixedPointDivergence"
    assert len(record["history"]) == 2
    assert len(calls) == 2


def test_cli_import_loads_no_scipy():
    # simulate and validate never call SciPy, so importing the CLI must not pay for it
    code = ("import sys, diraclab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("keep", [None, -100, 20], ids=["missing", "truncated", "short-header"])
def test_simulate_rejects_unreadable_checkpoint(tmp_path, capsys, keep):
    ck = tmp_path / "init.dns"
    if keep is not None:
        u = lat.gaussian_spinor(lat.make_grid(8, 8.0), (0, 0, 0), 1.0, (1, 0, 0, 0))
        lat.write_checkpoint(ck, u, 0.0, [0.5], [10.0], [[0, 0, 0]], [[0, 0, 0]])
        ck.write_bytes(ck.read_bytes()[:keep])
    raw = _cfg()
    raw["init"]["field"] = {"checkpoint": str(ck)}
    p = _write_cfg(tmp_path, raw)
    # an escaping exception (a traceback from the console script) fails the call itself
    rc = cli.main(["--output-root", str(tmp_path), "simulate", "--config", str(p)])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config rejected:") and str(ck) in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv,flag", [
    (["validate", "--suite", "dirac", "--n", "12"], "--n"),
    (["validate", "--suite", "dirac", "--n", "4"], "--n"),
    (["validate", "--suite", "dirac", "--n", "8"], "--n"),
    (["validate", "--suite", "hardy", "--seed", "-1"], "--seed"),
    (["convergence", "--config", "cfg.yaml", "--ladder", "0", "4"], "--ladder"),
    (["convergence", "--config", "cfg.yaml", "--ladder", "8", "8", "16"], "--ladder"),
    (["convergence", "--config", "cfg.yaml", "--axis", "warp", "--ladder", "4", "8"], "--axis"),
    (["groundstate", "--nu", "0.5", "--sigma", "3.0"], "--sigma"),
    (["groundstate", "--nu", "0.0", "--sigma", "1.0"], "--nu"),
], ids=["validate-n-12", "validate-n-4", "validate-n-8", "validate-seed--1", "convergence-ladder-0",
        "convergence-ladder-repeat", "convergence-axis-warp", "groundstate-sigma-3",
        "groundstate-nu-0"])
def test_cli_rejects_bad_flag_values(tmp_path, capsys, argv, flag):
    p = _write_cfg(tmp_path, _cfg())
    argv = [str(p) if a == "cfg.yaml" else a for a in argv]
    rc = cli.main(["--output-root", str(tmp_path / "out"), *argv])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "cfg.yaml"],
    ["validate", "--suite", "radial"],
    ["groundstate", "--nu", "0.5", "--sigma", "1.0"],
    ["convergence", "--config", "cfg.yaml", "--ladder", "4", "8"],
], ids=["simulate", "validate", "groundstate", "convergence"])
def test_cli_rejects_output_root_that_is_a_file(tmp_path, capsys, argv):
    p = _write_cfg(tmp_path, _cfg())
    argv = [str(p) if a == "cfg.yaml" else a for a in argv]
    root = tmp_path / "not_a_dir"
    root.write_text("")
    rc = cli.main(["--output-root", str(root), *argv])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(root) in err and "Traceback" not in err


def test_validate_unknown_suite(tmp_path, capsys):
    rc = cli.main(["--output-root", str(tmp_path), "validate", "--suite", "nonsense"])
    assert rc == cli.EXIT_CONFIG
    assert "unknown suite" in capsys.readouterr().err


def test_validate_radial_suite(tmp_path):
    rc = cli.main(["--output-root", str(tmp_path), "validate", "--suite", "radial"])
    assert rc == 0
    lines = (tmp_path / "validate" / "radial_decomposition.jsonl").read_text().splitlines()
    assert json.loads(lines[0])["inequality"] == "radial-laplacian-decomposition"
    summary = json.loads((tmp_path / "validate" / "validate_summary.json").read_text())
    assert summary["failures"] == []


def test_validate_dirac_suite(tmp_path):
    rc = cli.main(["--output-root", str(tmp_path), "validate", "--suite", "dirac", "--n", "16"])
    assert rc == 0


def test_validate_lab_transforms_each_field_once(grid16, monkeypatch):
    # every field is normed at all its sigmas from one spectrum, and a drawn
    # field from the band it was synthesised from, with no transform: a
    # bilinear triple transforms only the left-hand field, a Hardy sample
    # nothing, a multiplier sample only u/max(|x|, h/2)
    calls = _count_calls(monkeypatch, {"to_momentum": lat.to_momentum})
    rng = np.random.default_rng(5)
    u, v, w = (lat.random_smooth_field(grid16, rng, kmax=3, decay=0.8) for _ in range(3))
    ht.bilinear_estimate_report(u, v, w)
    assert calls == {"to_momentum": 1}
    calls["to_momentum"] = 0
    an.hardy_report(grid16, sigmas=(1.0, 1.2, 1.4), n_samples=3, seed=9)
    assert calls == {"to_momentum": 0}
    calls["to_momentum"] = 0
    an.coulomb_multiplier_report(grid16, sigmas=(1.0, 1.2, 1.4), n_samples=3, seed=9)
    assert calls == {"to_momentum": 3}


def test_validate_is_reproducible(tmp_path):
    for run in ("a", "b"):
        rc = cli.main(["--output-root", str(tmp_path / run), "validate", "--suite", "all",
                       "--n", "16", "--seed", "3"])
        assert rc == 0
    files = sorted(p.name for p in (tmp_path / "a" / "validate").glob("*.jsonl"))
    assert len(files) == 6
    for name in files:
        assert ((tmp_path / "a" / "validate" / name).read_bytes()
                == (tmp_path / "b" / "validate" / name).read_bytes()), name


def test_groundstate_cli_table(tmp_path):
    rc = cli.main(["--output-root", str(tmp_path), "groundstate",
                   "--nu", "0.8", "--sigma", "1.0", "1.2"])
    assert rc == 0
    rows = (tmp_path / "groundstate" / "groundstate_classification.csv").read_text().splitlines()
    assert len(rows) == 3
    assert rows[1].split(",")[5] == "CONVERGENT"
    assert rows[2].split(",")[5] == "DIVERGENT"


def test_groundstate_cli_usage_error(tmp_path, capsys):
    rc = cli.main(["--output-root", str(tmp_path), "groundstate", "--nu"])
    assert rc == cli.EXIT_CONFIG


def test_groundstate_cli_rejects_bad_nu(tmp_path, capsys):
    rc = cli.main(["--output-root", str(tmp_path), "groundstate",
                   "--nu", "0.95", "--sigma", "1.0"])
    assert rc == cli.EXIT_CONFIG
    assert "coupling hypothesis" in capsys.readouterr().err


def test_convergence_cli(tmp_path):
    p = _write_cfg(tmp_path, _cfg())
    rc = cli.main(["--output-root", str(tmp_path), "convergence",
                   "--config", str(p), "--ladder", "4", "8", "16"])
    assert rc == 0
    rows = (tmp_path / "convergence" / "convergence.csv").read_text().splitlines()
    assert rows[0].startswith("n_slices")
    assert len(rows) == 4
    order = float(rows[3].split(",")[2])
    assert order >= 1.0


def test_convergence_cli_short_ladder(tmp_path, capsys):
    p = _write_cfg(tmp_path, _cfg())
    rc = cli.main(["--output-root", str(tmp_path), "convergence",
                   "--config", str(p), "--ladder", "4"])
    assert rc == cli.EXIT_CONFIG


def test_convergence_rejects_rung_by_config_key(tmp_path, capsys):
    # each rung is read as its config key: n = 12 is no power of two
    p = _write_cfg(tmp_path, _cfg())
    rc = cli.main(["--output-root", str(tmp_path / "out"), "convergence",
                   "--config", str(p), "--axis", "n", "--ladder", "12", "16"])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config rejected:") and "grid.n" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("axis,ladder", [("epsilon_reg", ["0.8", "0.4"]),
                                         ("box_length", ["12", "8"])])
def test_convergence_solver_ladder_is_reproducible(tmp_path, axis, ladder):
    p = _write_cfg(tmp_path, _cfg(**{"grid.n": 16}))
    for run in ("a", "b"):
        rc = cli.main(["--output-root", str(tmp_path / run), "convergence",
                       "--config", str(p), "--axis", axis, "--ladder", *ladder])
        assert rc == 0
    text = (tmp_path / "a" / "convergence" / "convergence.csv").read_text()
    assert text == (tmp_path / "b" / "convergence" / "convergence.csv").read_text()
    rows = [row.split(",") for row in text.splitlines()]
    assert rows[0] == [axis, "solver", "q0_x", "q0_y", "q0_z", "E_total", "energy_drift",
                       "momentum_drift", "charge_drift", "q_diff_to_previous", "q_order",
                       "E_total_diff_to_previous", "E_total_order"]
    # one direct row per rung, coarse to fine: eps falls, the box grows
    assert [(float(r[0]), r[1]) for r in rows[1:]] == [(0.8, "direct"), (0.4, "direct")] \
        if axis == "epsilon_reg" else [(8.0, "direct"), (12.0, "direct")]
    assert rows[1][9:] == ["", "", "", ""]
    assert float(rows[2][9]) > 0 and float(rows[2][11]) > 0


def test_output_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("DIRACLAB_OUTPUT_ROOT", str(tmp_path / "envroot"))
    p = _write_cfg(tmp_path, _cfg())
    rc = cli.main(["simulate", "--config", str(p)])
    assert rc == 0
    assert (tmp_path / "envroot" / "run" / "manifest.json").exists()


def test_validate_invariant_failure_exit_code(tmp_path, monkeypatch):
    monkeypatch.setitem(cli.SUITES, "alwaysfail", lambda n, seed, outdir: ["injected failure"])
    rc = cli.main(["--output-root", str(tmp_path), "validate", "--suite", "alwaysfail"])
    assert rc == cli.EXIT_INVARIANT
    summary = json.loads((tmp_path / "validate" / "validate_summary.json").read_text())
    assert summary["failures"] == ["[alwaysfail] injected failure"]


def test_simulate_comoving_mode(tmp_path):
    raw = _cfg(**{"solver.mode": "comoving", "solver.method": "fixed_point"})
    raw["solver"]["fixedpoint"] = {"tol": 1e-5, "max_outer": 30}
    p = _write_cfg(tmp_path, raw)
    rc = cli.main(["--output-root", str(tmp_path), "simulate", "--config", str(p)])
    assert rc == 0
    assert (tmp_path / "run" / "timeseries_fixed_point.csv").exists()
