"""Spans around calls into diraclab, recorded from outside the package.

A :class:`Tracer` replaces each listed function with a wrapper on its
defining module and on every loaded ``diraclab`` module that bound the same
function object by name (``from .x import f``), so calls through any of
those names are recorded.  Spans ``(name, start, end, parent)`` are kept in
memory; ``launch.py`` writes them once, when the run ends.

This module imports only the standard library, so loading it adds nothing
measurable to the set-up time of the process it runs in.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# (module, function) pairs wrapped in the traced run
TRACED = (
    ("newton", "trajectory_map_P"),
    ("newton", "coupled_fixed_point"),
    ("newton", "coupled_direct"),
    ("newton", "energy_breakdown"),
    ("newton", "force_breakdown"),
    ("newton", "total_momentum"),
    ("propagator", "duhamel_picard"),
    ("propagator", "product_formula_evolve"),
    ("dirac", "step_momentum_data"),
    ("dirac", "apply_symbol"),
    ("potentials", "coulomb_field"),
    ("hartree", "hartree_potential"),
    ("hartree", "apply_nonlinearity"),
    ("hartree", "bilinear_estimate_report"),
    ("lattice", "to_momentum"),
    ("lattice", "to_position"),
    ("lattice", "sobolev_norm"),
    ("lattice", "random_smooth_field"),
    ("lattice", "read_checkpoint"),
    ("lattice", "write_checkpoint"),
    ("analysis", "hardy_report"),
    ("analysis", "coulomb_multiplier_report"),
    ("analysis", "rellich_report"),
    ("analysis", "regularization_report"),
    ("analysis", "radial_decomposition_report"),
    ("config", "load_config"),
    ("config", "build_initial_state"),
    ("cli", "_write_timeseries"),
)

# the solver entry points; with the validate suites (span names starting
# with SUITE_SPAN) they are the boundary calls, the only spans the untraced
# run records, whose timestamps give set-up and solve time
BOUNDARY = (("newton", "coupled_fixed_point"), ("newton", "coupled_direct"))
SUITE_SPAN = "cli.suite."


def is_boundary(name: str) -> bool:
    """Whether a span name is a solver or validate-suite entry point."""
    return name.startswith(SUITE_SPAN) or any(name == f"{m}.{f}" for m, f in BOUNDARY)


def _nbytes(x) -> int:
    data = getattr(x, "data", x)
    return int(getattr(data, "nbytes", 0))


def _picard_iterations(args, kwargs, result) -> dict:
    return {"iterations": int(result[1].iterations)}


def _outer_iterations(args, kwargs, result) -> dict:
    return {"iterations": int(result[2].outer_iterations)}


def _checkpoint_bytes(args, kwargs, result) -> dict:
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _io_bytes(array_arg: int):
    """Bytes read and written, computed from the array sizes of one call."""
    def hook(args, kwargs, result) -> dict:
        return {"bytes": _nbytes(args[array_arg]) + _nbytes(result)}
    return hook


def _output_bytes(args, kwargs, result) -> dict:
    return {"bytes": _nbytes(result)}


# per-call values taken from arguments and results of a few functions
HOOKS = {
    "propagator.duhamel_picard": _picard_iterations,
    "newton.coupled_fixed_point": _outer_iterations,
    "lattice.write_checkpoint": _checkpoint_bytes,
    "dirac.step_momentum_data": _io_bytes(1),
    "hartree.hartree_potential": _io_bytes(0),
    "potentials.coulomb_field": _output_bytes,
}


class Tracer:
    """Records one span per call of every installed function."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1, extra or None]
        self.missing = []
        self._stack = []

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                try:
                    span[4] = hook(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError) as exc:
                    span[4] = {"hook_error": repr(exc)}
            return result

        return wrapper

    def install(self, package: str, targets) -> None:
        """Wrap ``package.<module>.<function>`` for each target, wherever it is bound.

        A target that no longer exists is recorded in :attr:`missing`; it
        never raises.
        """
        loaded = [m for key, m in list(sys.modules.items())
                  if m is not None and (key == package or key.startswith(package + "."))]
        for module_name, func_name in targets:
            module = sys.modules.get(f"{package}.{module_name}")
            fn = getattr(module, func_name, None) if module is not None else None
            if not callable(fn):
                self.missing.append(f"{module_name}.{func_name}")
                continue
            wrapper = self._wrap(f"{module_name}.{func_name}", fn)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)

    def install_suites(self, suites: dict) -> None:
        """Wrap each validate suite in place, as span ``cli.suite.<name>``."""
        for name, fn in list(suites.items()):
            suites[name] = self._wrap(SUITE_SPAN + name, fn)


def self_times(spans) -> list:
    """Per span: its duration minus the part of it covered by its child spans."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        cursor = start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], cursor), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out
