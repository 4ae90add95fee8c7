"""Tests of the benchmark's own code: inputs, output checks, spans.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import copy
import json
import sys
import types
from pathlib import Path

import pytest

import check
import layers
import pace
import tracer
import workloads
from diraclab import lattice as lat
from diraclab.config import build_initial_state, load_config
from diraclab.propagator import check_contraction_window

REPO = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------------
# seeded inputs


@pytest.mark.parametrize("workload", ["coupled_n16", "direct_n64"])
@pytest.mark.parametrize("seed", [0, 1, 17])
def test_generated_configs_satisfy_the_parser_hypotheses(tmp_path, workload, seed):
    inputs = workloads.make_inputs(workload, seed, tmp_path)
    cfg = load_config(inputs["config"])
    grid, u0, nuclei = build_initial_state(cfg)
    assert cfg.seed == seed
    assert u0.is_finite()
    check_contraction_window(cfg.time.T, u0, cfg.solver.sigma, cfg.solver.contraction_const)


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    for workload in ("coupled_n16", "direct_n64"):
        a = workloads.make_inputs(workload, 5, tmp_path / "a")
        b = workloads.make_inputs(workload, 5, tmp_path / "b")
        c = workloads.make_inputs(workload, 6, tmp_path / "c")
        key = "checkpoint" if workload == "direct_n64" else "config"
        read = lambda inp: Path(inp[key]).read_bytes()
        assert read(a) == read(b)
        assert read(a) != read(c)


def test_direct_n64_shape(tmp_path):
    cfg = load_config(workloads.make_inputs("direct_n64", 3, tmp_path)["config"])
    assert cfg.grid.n == 64
    assert cfg.solver.method == "direct"
    assert round(cfg.time.T / cfg.time.dt) == workloads.DIRECT_STEPS
    assert len(cfg.physics.charges) == 2


def test_validate_gets_the_seed(tmp_path):
    argv = workloads.make_inputs("validate_n32", 42, tmp_path)["argv"]
    assert argv[:2] == ["validate", "--suite"]
    assert argv[argv.index("--seed") + 1] == "42"


# ---------------------------------------------------------------------------
# output checks


def _coupled_output(outdir: Path) -> dict:
    """A synthetic coupled_n16 output directory that passes the checks."""
    outdir.mkdir()
    cfg = {"grid": {"n": 8}, "time": {"T": 0.04, "dt": 0.01}, "output": {"every": 1},
           "solver": {"fixedpoint": {"tol": 1e-7, "max_outer": 40}}}
    manifest = {
        "config": cfg,
        "solvers": {
            "fixed_point": {"outer_iterations": 16, "step_history": [1e-3, 6e-8],
                            "newton_residual": 2e-7, "charge_drift": 2e-6},
            "direct": {"energy_drift": 2e-6, "momentum_drift": 4e-4, "charge_drift": 4e-15},
        },
        "cross_check": {"q_final_max_diff": 1e-8},
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest))
    rows = "t,charge\n" + "".join(f"{0.01 * j},1.0\n" for j in range(5))
    for name in ("fixed_point", "direct"):
        (outdir / f"timeseries_{name}.csv").write_text(rows)
    u = lat.gaussian_spinor(lat.make_grid(8, 8.0), (0, 0, 0), 1.0, (1, 0, 0, 0))
    lat.write_checkpoint(outdir / "final.dns", u, 0.04, [0.5], [10.0], [[0, 0, 0]], [[0, 0, 0]])
    return manifest


def _rewrite(outdir: Path, manifest: dict, path: tuple, value) -> None:
    m = copy.deepcopy(manifest)
    node = m
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    (outdir / "manifest.json").write_text(json.dumps(m))


def test_checker_accepts_a_correct_run(tmp_path):
    _coupled_output(tmp_path / "run")
    assert check.check_run("coupled_n16", 0, tmp_path / "run", {}) == []


@pytest.mark.parametrize("path, value", [
    (("solvers", "fixed_point", "outer_iterations"), 40),
    (("solvers", "fixed_point", "step_history"), [1e-3, 5e-7]),
    (("solvers", "fixed_point", "newton_residual"), 3e-5),
    (("solvers", "fixed_point", "charge_drift"), 1e-3),
    (("cross_check", "q_final_max_diff"), 2e-6),
    (("solvers", "direct", "charge_drift"), 1e-6),
])
def test_checker_rejects_a_doctored_manifest(tmp_path, path, value):
    manifest = _coupled_output(tmp_path / "run")
    _rewrite(tmp_path / "run", manifest, path, value)
    assert check.check_run("coupled_n16", 0, tmp_path / "run", {})


def test_checker_rejects_nonzero_exit_and_broken_files(tmp_path):
    outdir = tmp_path / "run"
    _coupled_output(outdir)
    assert check.check_run("coupled_n16", 3, outdir, {}) == ["exit code 3"]
    assert check.check_run("coupled_n16", "timeout", outdir, {})
    blob = (outdir / "final.dns").read_bytes()
    (outdir / "final.dns").write_bytes(blob + b"\0")
    assert any("final.dns" in r for r in check.check_run("coupled_n16", 0, outdir, {}))
    (outdir / "final.dns").write_bytes(blob)
    (outdir / "timeseries_direct.csv").write_text("t,charge\n0.0,nan\n")
    assert check.check_run("coupled_n16", 0, outdir, {})
    (outdir / "manifest.json").unlink()
    assert check.check_run("coupled_n16", 0, outdir, {})


def test_direct_checker_compares_final_charge_with_the_start(tmp_path):
    grid = lat.make_grid(8, 16.0)
    u = lat.gaussian_spinor(grid, (0, 0, 0), 1.3, (0.35, 0.05, 0, 0))
    start = tmp_path / "start.dns"
    lat.write_checkpoint(start, u, 0.0)
    outdir = tmp_path / "run"
    outdir.mkdir()
    cfg = {"grid": {"n": 8}, "time": {"T": 0.02, "dt": 0.01}, "physics": {"charges": [0.5, 0.4]}}
    manifest = {"config": cfg, "solvers": {"direct": {
        "charge_drift": 1e-15, "energy_drift": 1e-8, "momentum_drift": 1e-7}}}
    (outdir / "manifest.json").write_text(json.dumps(manifest))
    (outdir / "timeseries_direct.csv").write_text("t\n0\n0.01\n0.02\n")
    nuc = ([0.5, 0.4], [12.0, 10.0], [[-1.3, 0, 0], [1.3, 0, 0]], [[0, 0, 0], [0, 0, 0]])
    lat.write_checkpoint(outdir / "final.dns", u, 0.02, *nuc)
    inputs = {"checkpoint": str(start)}
    assert check.check_run("direct_n64", 0, outdir, inputs) == []
    scaled = lat.SpinorField(grid, 1.001 * u.data, "position")
    lat.write_checkpoint(outdir / "final.dns", scaled, 0.02, *nuc)
    assert check.check_run("direct_n64", 0, outdir, inputs)
    lat.write_checkpoint(outdir / "final.dns", u, 0.02, *nuc)
    _rewrite(outdir, manifest, ("solvers", "direct", "energy_drift"), 1e-3)
    assert check.check_run("direct_n64", 0, outdir, inputs)


def test_validate_checker_needs_every_suite_and_no_failure(tmp_path):
    outdir = tmp_path / "run"
    outdir.mkdir()
    summary = {"suites": list(layers.suite_names()), "failures": []}
    (outdir / "validate_summary.json").write_text(json.dumps(summary))
    assert check.check_run("validate_n32", 0, outdir, {}) == []
    summary["failures"] = ["[hardy] hardy sup ratio not finite"]
    (outdir / "validate_summary.json").write_text(json.dumps(summary))
    assert check.check_run("validate_n32", 0, outdir, {})
    summary = {"suites": ["dirac"], "failures": []}
    (outdir / "validate_summary.json").write_text(json.dumps(summary))
    assert check.check_run("validate_n32", 0, outdir, {})


# ---------------------------------------------------------------------------
# reference clock


def test_reference_clock_at_reference_speed_counts_plain_seconds():
    clock = pace.ReferenceClock([(t, pace.REF_SAMPLE_S) for t in (1.0, 2.0, 3.0)])
    assert clock(3.0) - clock(1.0) == pytest.approx(2.0)
    assert clock(5.0) - clock(0.0) == pytest.approx(5.0)
    assert clock.slowdown() == pytest.approx(1.0)


def test_reference_clock_discounts_slow_intervals_and_single_outliers():
    # the core runs at half speed between t = 3 and t = 6, and one sample is
    # hit by an interrupt; each sample gives the speed since the previous one
    loop = {t: pace.REF_SAMPLE_S * (2.0 if 3.0 < t <= 6.0 else 1.0) for t in range(13)}
    loop[10] = pace.REF_SAMPLE_S * 50
    clock = pace.ReferenceClock([(float(t), s) for t, s in loop.items()])
    assert clock(3.0) - clock(0.0) == pytest.approx(3.0)
    assert clock(6.0) - clock(3.0) == pytest.approx(1.5)
    assert clock(12.0) - clock(6.0) == pytest.approx(6.0)
    assert clock(4.5) - clock(3.0) == pytest.approx(0.75)


def test_reference_clock_without_samples_is_plain_time():
    clock = pace.ReferenceClock([])
    assert clock(12.5) == 12.5
    assert clock.slowdown() == 1.0
    record = {"t_imported": 1.0, "t_end": 4.0, "spans": [["a", 2.0, 3.0, -1, None]]}
    assert pace.rescale(record, lambda t: 2 * t) == {
        "t_imported": 2.0, "t_end": 8.0, "spans": [["a", 4.0, 6.0, -1, None]]}


def test_sampler_samples_while_python_runs():
    import time

    sampler = pace.Sampler()
    sampler.start()
    try:
        end = time.perf_counter() + 6 * pace.INTERVAL_S
        while time.perf_counter() < end:
            pass
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 3
    assert all(s > 0 for _, s in sampler.samples)


# ---------------------------------------------------------------------------
# spans


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["a.x", 1.5, 2.0, 1, None],
        ["a.y", 2.0, 3.5, 1, None],
        ["b", 5.0, 6.0, 0, None],
        ["leaf", 7.0, 7.25, -1, None],
    ]
    assert tracer.self_times(spans) == pytest.approx([6.0, 1.0, 0.5, 1.5, 1.0, 0.25])


def _fake_package(name: str):
    pkg = types.ModuleType(name)
    core = types.ModuleType(f"{name}.core")
    user = types.ModuleType(f"{name}.user")

    def inner(x):
        return x + 1

    def outer(x):
        return core.inner(x) * 2

    core.inner, core.outer = inner, outer
    user.inner = inner          # bound by name, as ``from .core import inner``
    user.call = lambda x: user.inner(x)
    mods = {name: pkg, f"{name}.core": core, f"{name}.user": user}
    return mods, core, user


def test_tracer_wraps_every_binding_and_reports_missing_functions(monkeypatch):
    mods, core, user = _fake_package("fakepkg")
    for key, mod in mods.items():
        monkeypatch.setitem(sys.modules, key, mod)
    spans = tracer.Tracer()
    spans.install("fakepkg", [("core", "inner"), ("core", "outer"), ("core", "gone"),
                              ("nomodule", "f")])
    assert spans.missing == ["core.gone", "nomodule.f"]
    assert core.outer(1) == 4
    assert user.call(1) == 2
    names = [s[0] for s in spans.spans]
    assert names == ["core.outer", "core.inner", "core.inner"]
    assert [s[3] for s in spans.spans] == [-1, 0, -1]


def test_missing_spans_are_reported_as_zero_not_raised():
    record = {"spans": [], "missing": ["newton.coupled_fixed_point"], "t_imported": 1.0,
              "t_end": 2.0}
    out = layers.layer_metrics(record, 0.0)
    assert out["trace.missing_spans"] == 1
    assert out["newton.coupled_fixed_point.s"] == 0.0
    assert out["newton.map_P_useful_ratio"] == 0.0
    assert set(out) == set(layers.units()) - {"trace.wall_s", "trace.overhead_s"}


def test_layer_metrics_from_spans():
    spans = [
        ["newton.coupled_fixed_point", 1.0, 9.0, -1, {"iterations": 2}],
        ["newton.trajectory_map_P", 1.0, 4.0, 0, None],
        ["propagator.duhamel_picard", 1.0, 3.0, 1, {"iterations": 10}],
        ["newton.trajectory_map_P", 4.0, 7.0, 0, None],
        ["propagator.duhamel_picard", 4.0, 6.0, 3, {"iterations": 8}],
        ["newton.trajectory_map_P", 7.0, 9.0, 0, None],
        ["propagator.duhamel_picard", 7.0, 8.0, 5, {"iterations": 7}],
    ]
    out = layers.layer_metrics({"spans": spans, "missing": [], "t_imported": 0.5,
                                "t_end": 9.5}, 0.0)
    assert out["newton.outer_iterations"] == 2
    assert out["newton.trajectory_map_P.calls"] == 3
    assert out["newton.map_P_useful_ratio"] == pytest.approx(2 / 3)
    assert out["propagator.picard_iterations"] == 25
    assert out["propagator.picard_iterations_per_solve"] == pytest.approx(25 / 3)
    assert out["newton.coupled_fixed_point.s"] == pytest.approx(8.0)
    assert out["cli.write_outputs_s"] == pytest.approx(0.5)
    assert out["cli.import_s"] == pytest.approx(0.5)
    assert layers.boundary_times({"spans": spans, "t_end": 9.5}, 0.0) == (1.0, 8.0)


def test_suite_spans_are_boundaries_and_follow_the_cli():
    from diraclab.cli import SUITES

    assert layers.suite_names() == tuple(SUITES)
    spans = [["config.load_config", 0.5, 0.8, -1, None],
             [tracer.SUITE_SPAN + "hardy", 2.0, 3.0, -1, None],
             ["lattice.sobolev_norm", 2.1, 2.2, 1, None],
             [tracer.SUITE_SPAN + "rellich", 3.0, 5.0, -1, None]]
    assert layers.boundary_times({"spans": spans, "t_end": 6.0}, 0.0) == (2.0, 3.0)
    out = layers.layer_metrics({"spans": spans, "missing": [], "t_imported": 0.4,
                                "t_end": 6.0}, 0.0)
    assert out[tracer.SUITE_SPAN + "rellich.s"] == pytest.approx(2.0)
    assert out["cli.write_outputs_s"] == pytest.approx(1.0)


def test_counts_that_differ_between_traced_runs_are_found():
    first = {name: 1 for name in layers.units()}
    second = dict(first, **{"newton.outer_iterations": 2, "cli.import_s": 7})
    assert layers.differing_counts([first, first]) == {}
    assert layers.differing_counts([first, second]) == {"newton.outer_iterations": [1, 2]}


def test_benchmark_json_lists_every_metric():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == layers.units()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    import run

    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
