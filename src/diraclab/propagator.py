"""Two-parameter linear propagator via the product formula, and nonlinear solvers.

The linear flow is approximated by slicing the trajectory window into
``n_slices`` intervals and applying, on each, the exponential of the
Hamiltonian frozen at the slice's left lattice endpoint.  Inside a slice the
exponential is evaluated by Strang splitting between the pointwise potential
factor and the exact per-mode kinetic (plus optional comoving drift) factor,
so every factor is unitary and charge is preserved to roundoff.  Backward
evolution applies the adjoint product (reversed factors, negated durations).
:func:`_frozen_slices` is the one slice builder and :func:`_apply_slices` the
one applier; the Picard solve builds its slices once per solve.  One Strang
kick-drift-kick is :func:`strang_step`; the split-step integrator below and
the direct coupled integrator in ``newton`` step with it too.

The nonlinear field solver comes in two independent flavours used to check
each other: a Picard iteration on the Duhamel integral form (trapezoid
quadrature on the snapshot grid) and a direct split-step integrator with the
Hartree potential refreshed every half-step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import dirac
from .lattice import (
    GridSpec,
    SpinorField,
    charge,
    l2_distance,
    l2_norm,
    sobolev_norm,
    translate,
)
from .hartree import apply_nonlinearity, hartree_potential
from .potentials import (
    NucleusState,
    Trajectory,
    admissibility_check,
    coulomb_field,
    regularization_eps,
)

LAB = "lab"
COMOVING_SINGLE = "comoving_single"


class AdmissibilityError(RuntimeError):
    """Raised when a trajectory fails its hypotheses; carries the report."""

    def __init__(self, report):
        super().__init__("; ".join(report.failures))
        self.report = report


class ConvergenceFailure(RuntimeError):
    """Raised when the refinement loop does not reach the requested tolerance."""

    def __init__(self, message, history):
        super().__init__(message)
        self.history = history


class ContractionWindowError(ValueError):
    """Raised when T exceeds the configured contraction window."""


@dataclass
class PropagatorPlan:
    """Discretization plan for the sliced propagator.

    ``n_slices`` counts slices over the full trajectory window; ``substeps``
    Strang substeps are taken inside each slice.  ``eps_reg`` is the Coulomb
    regularization scale (unset: :func:`potentials.regularization_eps`).
    ``max_levels`` bounds the slice doublings of :func:`evolve_linear`, whose
    tolerance is its own argument.
    """

    frame: str = LAB
    n_slices: int = 16
    substeps: int = 1
    eps_reg: float = None
    max_levels: int = 6
    velocity_cap: float = 0.25

    def __post_init__(self):
        if self.n_slices < 1 or self.substeps < 1:
            raise ValueError("n_slices and substeps must be >= 1")
        if self.frame not in (LAB, COMOVING_SINGLE):
            raise ValueError(f"unknown frame {self.frame!r}")
        if self.eps_reg is not None and not self.eps_reg > 0:
            raise ValueError("eps_reg must be positive")


@dataclass
class FieldSolution:
    """Snapshots of a field evolution at ``times``; the per-snapshot charges
    are computed on first use."""

    times: np.ndarray
    snapshots: list

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self._charges = None

    @property
    def charges(self) -> np.ndarray:
        if self._charges is None:
            self._charges = np.array([charge(u) for u in self.snapshots])
        return self._charges

    @property
    def final(self) -> SpinorField:
        return self.snapshots[-1]

    def charge_drift(self) -> float:
        c0 = self.charges[0]
        return float(np.max(np.abs(self.charges - c0)) / c0) if c0 > 0 else 0.0


def step_count(T: float, dt: float) -> int:
    """Number of equal steps covering [0, T] with steps of about ``dt`` (at least one)."""
    return max(1, int(round(T / dt)))


def snapshot_count(plan: PropagatorPlan, n_steps: int = None) -> int:
    """Snapshot intervals of a Picard solve: ``n_steps``, or ``max(8, plan.n_slices)``."""
    return n_steps if n_steps is not None else max(8, plan.n_slices)


def _half_kick(delta: float, V):
    """The factor ``exp(-i delta/2 V)``, broadcast over the spinor components."""
    return np.exp(-0.5j * delta * V)[..., None]


def strang_step(u: SpinorField, delta: float, V, V_out=None, hartree: bool = False,
                drift=None, V_H=None) -> SpinorField:
    """One Strang kick-drift-kick: ``exp(-i delta/2 V_out) exp(-i delta K) exp(-i delta/2 V) u``.

    ``V`` and ``V_out`` are the potentials of the first and second half-kick
    (``V_out`` defaults to ``V``; with ``hartree`` either may be the scalar
    0.0, for no nuclei).  With ``hartree`` each half-kick adds the Hartree
    potential of the field it acts on, the first ``V_H`` if given (the direct
    integrator's snapshot potential).  ``drift`` is the kinetic factor's comoving velocity.
    """
    grid = u.grid
    kick = _half_kick(delta, V + (hartree_potential(u) if V_H is None else V_H) if hartree else V)
    data = np.fft.fftn(u.data * kick, axes=(0, 1, 2))
    data = dirac.step_momentum_data(grid, data, delta, drift)
    data = np.fft.ifftn(data, axes=(0, 1, 2))
    if hartree:
        w = SpinorField(grid, data)
        kick = _half_kick(delta, (V if V_out is None else V_out) + hartree_potential(w))
    elif V_out is not None:
        kick = _half_kick(delta, V_out)
    return SpinorField(grid, data * kick)


def _segments(traj: Trajectory, s: float, t: float, n_slices: int):
    """Slice [s, t] along the lattice tau_j = t0 + j*(T/n_slices).

    Yields (a, b, tau_freeze): evolve from a to b with the Hamiltonian frozen
    at the lattice point tau_freeze (the left lattice neighbour of the
    segment, matching the product-formula convention).
    """
    t0, T = traj.t0, traj.duration
    delta = T / n_slices
    tiny = 1e-9 * delta
    J = int(np.floor((s - t0) / delta + 1e-9)) + 1
    K = int(np.floor((t - t0) / delta + 1e-9))
    tau = lambda j: t0 + j * delta
    segs = []
    if K < J:
        segs.append((s, t, tau(J - 1)))
    else:
        if tau(J) - s > tiny:
            segs.append((s, tau(J), tau(J - 1)))
        for j in range(J, K):
            segs.append((tau(j), tau(j + 1), tau(j)))
        if t - tau(K) > tiny:
            segs.append((tau(K), t, tau(K)))
    return segs


def _frozen_slices(traj: Trajectory, s: float, t: float, plan: PropagatorPlan, grid: GridSpec):
    """Yield ``(duration, potential, drift)`` per slice of [s, t] in application
    order (adjoint order when ``t < s``).  Lab frame: the nuclei's potential at
    the slice's lattice point, built as the slice is reached, no drift.  Comoving
    frame: one potential of the nucleus at the origin per call, its velocity as drift.
    """
    eps = regularization_eps(plan.eps_reg, grid)
    segs = _segments(traj, min(s, t), max(s, t), plan.n_slices)
    if t < s:
        segs = [(y, x, f) for (x, y, f) in reversed(segs)]
    if plan.frame == COMOVING_SINGLE:
        if traj.n_nuclei != 1:
            raise ValueError("comoving frame is implemented for a single nucleus only")
        center = traj.nuclei_at(traj.t0)[0]
        static = coulomb_field([NucleusState(center.Z, center.m, np.zeros(3), np.zeros(3))],
                               eps, grid)
        for (x, y, tf) in segs:
            yield y - x, static, traj.velocity(tf)[0]
    else:
        for (x, y, tf) in segs:
            yield y - x, coulomb_field(traj.nuclei_at(tf), eps, grid), None


def _apply_slices(u: SpinorField, slices, substeps: int) -> SpinorField:
    """Apply ``exp(-i dt (K + V))`` for each ``(dt, V, drift)`` slice in turn,
    each by ``substeps`` Strang steps."""
    for (dt, V, drift) in slices:
        for _ in range(substeps):
            u = strang_step(u, dt / substeps, V, drift=drift)
    return u


def product_formula_evolve(u0: SpinorField, s: float, t: float, traj: Trajectory,
                           plan: PropagatorPlan, check_admissibility: bool = True) -> SpinorField:
    """Evolve u0 from time s to time t under the sliced frozen-Hamiltonian product.

    Positions (lab frame) or drift velocities (comoving frame) are sampled at
    slice left endpoints.  ``t < s`` applies the adjoint product, so forward
    then backward evolution returns the input to roundoff.
    """
    if check_admissibility:
        # eps0 = 0 disables the separation margin here: the plan carries no
        # collision scale, so only the velocity hypothesis is enforced;
        # callers with an eps0 run their own admissibility_check
        report = admissibility_check(traj, eps0=0.0, velocity_cap=plan.velocity_cap)
        if report.failures:
            raise AdmissibilityError(report)
    if t == s:
        return u0.copy()
    return _apply_slices(u0, _frozen_slices(traj, s, t, plan, u0.grid), plan.substeps)


@dataclass
class RefinementReport:
    levels: list          # (n_slices, substeps, eps, diff-to-previous or None)
    converged: bool
    achieved_n_slices: int
    tol: float


def evolve_linear(u0: SpinorField, s: float, t: float, traj: Trajectory, tol: float,
                  plan: PropagatorPlan = None):
    """Refine the sliced propagator until successive answers differ by < tol in L2.

    Doubles ``n_slices`` per level (the slice-freezing error dominates; Strang
    substeps and the regularization eps are held at their plan values and
    recorded per level).  Returns (FieldSolution at ``[s, t]`` holding a copy
    of ``u0`` and the converged level's field, RefinementReport); raises
    :class:`ConvergenceFailure` with the level history when the budget is
    exhausted.
    """
    plan = plan or PropagatorPlan()
    eps = regularization_eps(plan.eps_reg, u0.grid)
    history = []
    prev = None
    for level in range(plan.max_levels + 1):
        n_slices = plan.n_slices * 2**level
        u = product_formula_evolve(u0, s, t, traj, replace(plan, n_slices=n_slices),
                                   check_admissibility=(level == 0))
        diff = None if prev is None else l2_distance(u, prev)
        history.append((n_slices, plan.substeps, eps, diff))
        if diff is not None and diff < tol:
            sol = FieldSolution([s, t], [u0.copy(), u])
            return sol, RefinementReport(history, True, n_slices, tol)
        prev = u
    raise ConvergenceFailure(
        f"linear evolution did not reach tol={tol} within {plan.max_levels} refinements",
        history)


def measured_l2_operator_norm(traj: Trajectory, plan: PropagatorPlan, grid: GridSpec,
                              s: float, t: float, n_probes: int = 5, seed: int = 0) -> float:
    """Max of ||U u|| / ||u|| over random probes (echo of the contraction bound <= 1)."""
    from .lattice import random_smooth_field

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_probes):
        u = random_smooth_field(grid, rng, kmax=min(5, grid.n // 2 - 1), decay=0.5)
        v = product_formula_evolve(u, s, t, traj, plan, check_admissibility=False)
        worst = max(worst, l2_norm(v) / l2_norm(u))
    return worst


def frame_equivalence_residual(u0: SpinorField, t: float, traj: Trajectory,
                               plan: PropagatorPlan) -> float:
    """Single-nucleus lab-vs-comoving residual through the exact spectral translation.

    Evolves u0 in the lab frame, and the translated datum in the comoving
    frame (fixed singularity + drift term), then compares after translating
    back by -q(t).  The result is normalized by ||u0||.
    """
    if traj.n_nuclei != 1:
        raise ValueError("frame equivalence is defined for a single nucleus")
    lab = product_formula_evolve(u0, traj.t0, t, traj, replace(plan, frame=LAB),
                                 check_admissibility=False)
    q0 = traj.position(traj.t0)[0]
    v0 = translate(u0, q0)
    v_t = product_formula_evolve(v0, traj.t0, t, traj, replace(plan, frame=COMOVING_SINGLE),
                                 check_admissibility=False)
    back = translate(v_t, -traj.position(t)[0])
    return l2_distance(lab, back) / l2_norm(u0)


def trajectory_sensitivity(u0: SpinorField, t: float, traj1: Trajectory, traj2: Trajectory,
                           plan: PropagatorPlan, sigma: float = 1.25) -> float:
    """``||U_{q1} u0 - U_{q2} u0||_{H^(sigma-1)}`` at matched discretization."""
    if not np.allclose(traj1.position(traj1.t0), traj2.position(traj2.t0)):
        raise ValueError("trajectories must share their initial positions")
    u1 = product_formula_evolve(u0, traj1.t0, t, traj1, plan, check_admissibility=False)
    u2 = product_formula_evolve(u0, traj2.t0, t, traj2, plan, check_admissibility=False)
    diff = SpinorField(u0.grid, u1.data - u2.data)
    return sobolev_norm(diff, sigma - 1.0)


# ---------------------------------------------------------------------------
# nonlinear solvers


@dataclass
class PicardReport:
    iterations: int
    distances: list
    converged: bool
    monotone_after_two: bool


def check_contraction_window(T: float, u0: SpinorField, sigma: float,
                             contraction_const: float) -> None:
    R = sobolev_norm(u0, sigma)
    window = 1.0 / (contraction_const * (1.0 + R**2))
    if T > window + 1e-12:
        raise ContractionWindowError(
            f"time hypothesis violated: require T <= 1/(C (1 + ||u0||_Hs^2)) = {window:.6g}, "
            f"got T = {T:.6g} (C = {contraction_const}, ||u0||_Hs = {R:.6g})")


def duhamel_picard(u0: SpinorField, traj: Trajectory, T: float, tol: float = 1e-8,
                   max_iter: int = 30, plan: PropagatorPlan = None, n_steps: int = None,
                   sigma: float = 1.25, contraction_const: float = 1.0,
                   enforce_window: bool = True, start: list = None):
    """Fixed point of the Duhamel map by Picard iteration on a snapshot grid.

    The Duhamel integral is evaluated by composite trapezoid on the snapshot
    grid, propagated stepwise so each iteration costs one linear sweep.
    Iterate 0 is the linear evolution, or the M+1 snapshots of ``start`` (a
    warm start); each sweep overwrites that list in place, and the returned
    FieldSolution holds it, so a warm start keeps no second set of fields.
    Returns (FieldSolution, PicardReport); raises :class:`ConvergenceFailure`
    with the iterate-distance history when ``max_iter`` is exhausted.
    """
    plan = plan or PropagatorPlan()
    if enforce_window:
        check_contraction_window(T, u0, sigma, contraction_const)
    grid = u0.grid
    M = snapshot_count(plan, n_steps)
    times = traj.t0 + np.linspace(0.0, T, M + 1)
    delta = T / M
    slices_per_step = max(1, int(round(plan.n_slices / M)))
    step_plan = replace(plan, n_slices=M * slices_per_step)

    # the trajectory is fixed for the whole solve: build each step's slices once
    steps = [list(_frozen_slices(traj, times[j], times[j + 1], step_plan, grid))
             for j in range(M)]

    def linear_step(u: SpinorField, j: int) -> SpinorField:
        return _apply_slices(u, steps[j], plan.substeps)

    if start is None:
        iterates = [u0.copy()]
        for j in range(M):
            iterates.append(linear_step(iterates[-1], j))
    elif len(start) != M + 1:
        raise ValueError(f"warm start needs {M + 1} snapshots, got {len(start)}")
    else:
        iterates = start

    distances = []
    converged = False
    for it in range(max_iter):
        nonl = [apply_nonlinearity(u) for u in iterates]
        new = [u0.copy()]
        for j in range(M):
            mid = SpinorField(grid, new[j].data - 0.5j * delta * nonl[j].data)
            propagated = linear_step(mid, j)
            new.append(SpinorField(grid, propagated.data - 0.5j * delta * nonl[j + 1].data))
        dist = max(l2_distance(a, b) for a, b in zip(new[1:], iterates[1:]))
        distances.append(dist)
        iterates[:] = new
        if dist < tol:
            converged = True
            break
    monotone = all(d2 < d1 for d1, d2 in zip(distances[1:], distances[2:])) \
        if len(distances) > 2 else True
    report = PicardReport(len(distances), distances, converged, monotone)
    if not converged:
        raise ConvergenceFailure(
            f"Picard iteration did not reach tol={tol} in {max_iter} iterations "
            f"(distances: {distances})", distances)
    return FieldSolution(times, iterates), report


def split_step_nonlinear(u0: SpinorField, traj: Trajectory, T: float, dt: float,
                         eps_reg: float = None, include_hartree: bool = True) -> FieldSolution:
    """Strang split-step cross-check integrator with refreshed Hartree potential.

    The nuclear potential is frozen at each step's left endpoint (matching
    the product-formula convention, so disabling the Hartree term reproduces
    that path exactly); the Hartree potential uses the current field in the
    first half-kick and the post-kinetic field in the second.
    """
    u, grid = u0, u0.grid
    eps = regularization_eps(eps_reg, grid)
    M = step_count(T, dt)
    delta = T / M
    times = traj.t0 + np.linspace(0.0, T, M + 1)
    snaps = [u.copy()]
    for j in range(M):
        V = coulomb_field(traj.nuclei_at(times[j]), eps, grid)
        u = strang_step(u, delta, V, hartree=include_hartree)
        snaps.append(u)
    return FieldSolution(times, snaps)
