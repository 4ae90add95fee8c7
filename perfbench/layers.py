"""Per-layer metrics of the traced run, derived from the recorded spans.

Names follow ``<module>.<function>.<stat>``: ``calls`` (a count, which
repeats exactly between runs of one seed), ``s`` (inclusive time) and
``self_s`` (inclusive time minus the time covered by child spans).  Byte
figures are computed from array sizes, not measured.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import SUITE_SPAN, is_boundary, self_times

REPORTS = ("hardy", "coulomb_multiplier", "rellich", "regularization", "radial_decomposition")

_CALLS_AND_TIME = (
    "newton.energy_breakdown", "newton.force_breakdown", "newton.total_momentum",
    "propagator.duhamel_picard", "dirac.apply_symbol", "potentials.coulomb_field",
    "hartree.hartree_potential", "hartree.bilinear_estimate_report",
    "lattice.to_momentum", "lattice.to_position", "lattice.sobolev_norm",
    "lattice.random_smooth_field",
)
_TIME = (
    "newton.coupled_fixed_point", "newton.coupled_direct", "lattice.read_checkpoint",
    "config.load_config", "config.build_initial_state",
    *(f"analysis.{r}_report" for r in REPORTS),
)
_KERNEL_BYTES = ("dirac.step_momentum_data", "hartree.hartree_potential",
                 "potentials.coulomb_field")

# name -> unit, in report order, besides the time of each validate suite (see units())
UNITS = {
    "newton.outer_iterations": "count",
    "newton.trajectory_map_P.calls": "count",
    "newton.map_P_useful_ratio": "ratio",
    **{f"{f}.calls": "count" for f in _CALLS_AND_TIME},
    **{f"{f}.s": "s" for f in _CALLS_AND_TIME + _TIME},
    "propagator.picard_iterations": "count",
    "propagator.picard_iterations_per_solve": "count",
    "propagator.product_formula_evolve.calls": "count",
    "propagator.product_formula_evolve.s": "s",
    "propagator.product_formula_evolve.self_s": "s",
    "dirac.step_momentum_data.calls": "count",
    "dirac.step_momentum_data.s": "s",
    "dirac.step_momentum_data.ms_per_call": "ms",
    "hartree.apply_nonlinearity.calls": "count",
    "lattice.write_checkpoint.s": "s",
    "lattice.write_checkpoint.bytes": "B",
    "cli.import_s": "s",
    "cli.write_timeseries.calls": "count",
    "cli.write_timeseries.s": "s",
    "cli.write_outputs_s": "s",
    **{f"{f}.computed_bytes_per_call": "B" for f in _KERNEL_BYTES},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.missing_spans": "count",
}


def suite_names() -> tuple:
    """The validate suites, as the CLI defines them (``diraclab`` must be importable)."""
    from diraclab.cli import SUITES
    return tuple(SUITES)


def units() -> dict:
    """Every per-layer metric name -> unit: UNITS and the time of each suite."""
    return {**UNITS, **{f"{SUITE_SPAN}{s}.s": "s" for s in suite_names()}}


def layer_metrics(record: dict, t_spawn: float) -> dict:
    """Per-layer values of one traced run, from its record (see ``launch.py``)."""
    spans = record["spans"]
    selfs = self_times(spans)
    calls = defaultdict(int)
    incl = defaultdict(float)
    excl = defaultdict(float)
    extra = defaultdict(list)
    for span, self_s in zip(spans, selfs):
        name = span[0]
        calls[name] += 1
        incl[name] += span[2] - span[1]
        excl[name] += self_s
        if span[4]:
            extra[name].append(span[4])

    def total(name: str, key: str):
        return sum(e.get(key, 0) for e in extra[name])

    out = {}
    for f in _CALLS_AND_TIME:
        out[f"{f}.calls"] = calls[f]
    for f in _CALLS_AND_TIME + _TIME:
        out[f"{f}.s"] = incl[f]
    for s in suite_names():
        out[f"{SUITE_SPAN}{s}.s"] = incl[SUITE_SPAN + s]
    outer = total("newton.coupled_fixed_point", "iterations")
    n_p = calls["newton.trajectory_map_P"]
    out["newton.outer_iterations"] = outer
    out["newton.trajectory_map_P.calls"] = n_p
    out["newton.map_P_useful_ratio"] = outer / n_p if n_p else 0.0
    picard = total("propagator.duhamel_picard", "iterations")
    n_solves = calls["propagator.duhamel_picard"]
    out["propagator.picard_iterations"] = picard
    out["propagator.picard_iterations_per_solve"] = picard / n_solves if n_solves else 0.0
    pfe = "propagator.product_formula_evolve"
    out[f"{pfe}.calls"], out[f"{pfe}.s"], out[f"{pfe}.self_s"] = calls[pfe], incl[pfe], excl[pfe]
    sm = "dirac.step_momentum_data"
    out[f"{sm}.calls"], out[f"{sm}.s"] = calls[sm], incl[sm]
    out[f"{sm}.ms_per_call"] = 1e3 * incl[sm] / calls[sm] if calls[sm] else 0.0
    out["hartree.apply_nonlinearity.calls"] = calls["hartree.apply_nonlinearity"]
    out["lattice.write_checkpoint.s"] = incl["lattice.write_checkpoint"]
    out["lattice.write_checkpoint.bytes"] = total("lattice.write_checkpoint", "bytes")
    out["cli.import_s"] = record["t_imported"] - t_spawn
    out["cli.write_timeseries.calls"] = calls["cli._write_timeseries"]
    out["cli.write_timeseries.s"] = incl["cli._write_timeseries"]
    bounds = [s for s in spans if s[3] < 0 and is_boundary(s[0])]
    last = max((s[2] for s in bounds), default=record["t_end"])
    out["cli.write_outputs_s"] = record["t_end"] - last
    for f in _KERNEL_BYTES:
        out[f"{f}.computed_bytes_per_call"] = total(f, "bytes") / calls[f] if calls[f] else 0
    out["trace.missing_spans"] = len(record["missing"])
    return out


def differing_counts(per_run: list) -> dict:
    """Count and byte metrics that are not the same in every traced run, with
    their values; a count must repeat exactly between runs of one seed."""
    out = {}
    for name, unit in units().items():
        values = sorted({m[name] for m in per_run if name in m})
        if unit in ("count", "B") and len(values) > 1:
            out[name] = values
    return out


def boundary_times(record: dict, t_spawn: float) -> tuple:
    """(setup_s, solve_s): spawn to the first solver or suite call, and the
    time inside the outermost such calls."""
    bounds = [s for s in record["spans"] if s[3] < 0 and is_boundary(s[0])]
    if not bounds:
        return record["t_end"] - t_spawn, 0.0
    first = min(s[1] for s in bounds)
    return first - t_spawn, sum(s[2] - s[1] for s in bounds)
