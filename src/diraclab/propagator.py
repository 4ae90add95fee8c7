"""Two-parameter linear propagator via the product formula, and nonlinear solvers.

The linear flow is approximated by slicing the trajectory window into
``n_slices`` intervals and applying, on each, the exponential of the
Hamiltonian frozen at the slice's left lattice endpoint.  Inside a slice the
exponential is evaluated by Strang splitting between the pointwise potential
factor and the exact per-mode kinetic (plus optional comoving drift) factor,
so every factor is unitary and charge is preserved to roundoff.  Backward
evolution applies the adjoint product (reversed factors, negated durations).
``n_slices`` and ``substeps`` belong to this product formula
(:func:`product_formula_evolve`, :func:`evolve_linear`) alone.  The Duhamel
solvers march on their own time grid, one Strang step per time step with the
Hamiltonian frozen at the step's start node; they share one step schedule,
:func:`_duhamel_steps`, and one explicit term, :func:`_explicit_term`.  The
Picard solve builds every step's potential once, the march each step's when it
reaches the step.  :func:`_freezer` freezes the Hamiltonian at a time for both.
One Strang kick-drift-kick is :func:`strang_step`; the split-step integrator
below and the direct coupled integrator in ``newton`` step with it too.

The nonlinear field solver comes in two independent flavours used to check
each other: the Duhamel integral form (trapezoid quadrature on the snapshot
grid), solved by Picard iteration over the whole window
(:func:`duhamel_picard`, the contraction of the existence proof) or one step
at a time on the step's Hartree potential (:func:`duhamel_march`, which the
coupled fixed point uses), and a direct split-step integrator with the
Hartree potential refreshed every half-step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import dirac
from .lattice import (
    GridSpec,
    SpinorField,
    _unit_phase,
    density,
    l2_distance,
    l2_norm,
    sobolev_norm,
    spinor_fft,
    translate,
)
from .hartree import apply_nonlinearity, convolve_inverse_distance, hartree_potential
from .potentials import (
    Trajectory,
    admissibility_check,
    coulomb_field,
    nucleus_states,
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
    Strang substeps are taken inside each slice.  Both are read by the product
    formula (:func:`product_formula_evolve`, :func:`evolve_linear`) alone: the
    Duhamel solvers take one Strang step per time step.  ``eps_reg`` is the Coulomb
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
    """Snapshots of a field evolution at ``times``."""

    times: np.ndarray
    snapshots: list

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)

    @property
    def final(self) -> SpinorField:
        return self.snapshots[-1]


def step_count(T: float, dt: float) -> int:
    """Number of equal steps covering [0, T] with steps of about ``dt`` (at least one)."""
    return max(1, int(round(T / dt)))


def _half_kick(delta: float, V, V_H=None):
    """The factor ``exp(-i delta/2 (V + V_H))`` from the cos/sin of its angle, which
    broadcasts over the spinor components; ``V`` may be the scalar 0.0.  With a Hartree
    potential ``V_H`` the angle is scaled in the sum's own buffer; neither
    potential is written, as callers share them."""
    if V_H is None:
        theta = (-delta / 2) * V
    else:
        theta = V + V_H
        theta *= -delta / 2
    return _unit_phase(theta)


def strang_step(u: SpinorField, delta: float, V, hartree: bool = False, drift=None,
                kick=None):
    """One Strang kick-drift-kick: ``exp(-i delta/2 V) exp(-i delta K) exp(-i delta/2 V) u``.

    ``V`` is the potential of every half-kick the step builds itself: always
    the second, and the first unless ``kick`` hands that half-kick's phase in
    (the direct integrator hands on the previous step's second one).  With
    ``hartree`` each half-kick the step builds adds the Hartree potential of the
    field it acts on, and ``V`` may be the scalar 0.0, for no nuclei.  ``drift``
    is the kinetic factor's comoving velocity.
    Returns the new field; with ``hartree``, ``(field, rho, V_H, kick)``, where
    ``rho`` and ``V_H = rho * 1/|x|`` are the density and Hartree potential that
    the second half-kick built from the pre-kick field w, and ``kick`` is that
    half-kick's phase ``exp(-i delta/2 (V + V_H))``.  The kick is a phase, so rho
    and V_H are the field's own up to roundoff.
    """
    grid = u.grid
    handed = kick is not None
    if not handed:
        kick = (_half_kick(delta, V, hartree_potential(u)) if hartree
                else _half_kick(delta, V))
    data = u.data * kick  # a new array: the transforms below work in place
    if hartree or handed:
        del kick  # the second half-kick has a phase of its own: drop this one now
    spinor_fft(data, data)
    dirac.step_momentum_data(grid, data, delta, drift)  # in place
    spinor_fft(data, data, inverse=True)
    if hartree:
        rho = density(SpinorField(grid, data))
        V_H = convolve_inverse_distance(grid, rho)
        kick = _half_kick(delta, V, V_H)
        data *= kick
        return SpinorField(grid, data), rho, V_H, kick
    data *= _half_kick(delta, V) if handed else kick
    return SpinorField(grid, data)


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


def _freezer(traj: Trajectory, plan: PropagatorPlan, grid: GridSpec):
    """``t -> (potential, drift)``: the Hamiltonian frozen at time t.  Lab frame:
    the nuclei's potential at t, built per call, no drift.  Comoving frame: one
    potential of the nucleus at the origin, built here, and the velocity at t as drift.
    """
    eps = regularization_eps(plan.eps_reg, grid)
    if plan.frame == COMOVING_SINGLE:
        if traj.n_nuclei != 1:
            raise ValueError("comoving frame is implemented for a single nucleus only")
        static = coulomb_field(nucleus_states(traj.charges, traj.masses, np.zeros((1, 3)),
                                              np.zeros((1, 3))), eps, grid)
        return lambda t: (static, traj.velocity(t)[0])
    return lambda t: (coulomb_field(traj.nuclei_at(t), eps, grid), None)


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
    frozen = _freezer(traj, plan, u0.grid)
    segs = _segments(traj, min(s, t), max(s, t), plan.n_slices)
    if t < s:
        segs = [(b, a, tf) for (a, b, tf) in reversed(segs)]
    u = u0
    for (a, b, tf) in segs:
        V, drift = frozen(tf)
        for _ in range(plan.substeps):
            u = strang_step(u, (b - a) / plan.substeps, V, drift=drift)
    return u


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


def _duhamel_steps(traj: Trajectory, T: float, plan: PropagatorPlan, grid: GridSpec,
                   n_steps: int):
    """``(times, i delta/2, steps)`` of ``n_steps`` equal trapezoid-Duhamel steps over
    [t0, t0 + T]; ``steps`` yields each step's ``(duration, potential, drift)`` in
    turn, the Hamiltonian frozen at the step's start node (:func:`_freezer`)."""
    times = traj.t0 + np.linspace(0.0, T, n_steps + 1)
    frozen = _freezer(traj, plan, grid)
    steps = ((b - a, *frozen(a)) for a, b in zip(times[:-1], times[1:]))
    return times, 0.5j * (T / n_steps), steps


def _explicit_term(u: SpinorField, half: complex) -> np.ndarray:
    """The trapezoid's explicit term ``(i delta/2) N(u)`` as a new array, ``half = i delta/2``."""
    term = apply_nonlinearity(u).data
    term *= half
    return term


def duhamel_picard(u0: SpinorField, traj: Trajectory, T: float, tol: float = 1e-8,
                   max_iter: int = 30, plan: PropagatorPlan = None, *, n_steps: int):
    """Fixed point of the Duhamel map by Picard iteration on a snapshot grid.

    The Duhamel integral is evaluated by composite trapezoid on ``n_steps`` (M)
    equal steps, propagated stepwise so each iteration costs one linear sweep
    over the whole window.  Iterate 0 is the linear evolution; each sweep
    overwrites snapshots 1..M in place (snapshot 0 is u0), and the returned
    FieldSolution holds them, so a solve holds the M+1 snapshots, every step's
    potential and a few further fields.  It takes the inputs of
    :func:`duhamel_march`, the solver it is the whole-window reference for; the
    contraction window is checked where a run starts
    (:func:`check_contraction_window`), not here.
    Returns (FieldSolution, PicardReport); raises :class:`ConvergenceFailure`
    with the iterate-distance history when ``max_iter`` is exhausted, or at
    once on a non-finite distance.
    """
    plan = plan or PropagatorPlan()
    grid = u0.grid
    times, half, steps = _duhamel_steps(traj, T, plan, grid, n_steps)
    # the trajectory is fixed for the whole solve: build each step's potential once
    steps = list(steps)
    iterates = [u0.copy()]
    for (dt, V, drift) in steps:
        iterates.append(strang_step(iterates[-1], dt, V, drift=drift))
    first = _explicit_term(u0, half)  # snapshot 0 is u0 on every sweep

    distances = []
    converged = False
    for it in range(max_iter):
        # step j reads the old iterate j+1 only through its nonlinear term, which
        # it carries to step j+1, so the sweep overwrites each iterate in place
        term = first
        step_dists = []
        for j, (dt, V, drift) in enumerate(steps):
            new = strang_step(SpinorField(grid, iterates[j].data - term), dt, V, drift=drift)
            term = _explicit_term(iterates[j + 1], half)
            new.data -= term
            step_dists.append(l2_distance(new, iterates[j + 1]))
            iterates[j + 1] = new
        dist = float(np.max(step_dists))
        distances.append(dist)  # np.max keeps a NaN that Python's max would drop
        if not np.isfinite(dist):
            raise ConvergenceFailure(f"Picard iteration: non-finite iterate distance at sweep "
                                     f"{it + 1} (distances: {distances})", distances)
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


@dataclass
class MarchReport:
    """The local iterations of each step of :func:`duhamel_march`, and each step's
    largest ratio of successive local distances (0 for a step of one iteration)."""

    step_iterations: list
    step_contraction: list

    @property
    def iterations(self) -> int:
        return sum(self.step_iterations)

    @property
    def contraction(self) -> float:
        """The largest local ratio of any step."""
        return max(self.step_contraction, default=0.0)


def duhamel_march(u0: SpinorField, traj: Trajectory, T: float, tol: float = 1e-8,
                  max_iter: int = 30, plan: PropagatorPlan = None, *, n_steps: int):
    """The trapezoid-Duhamel system of :func:`duhamel_picard`, solved one step at a time.

    The system is causal: with ``h = (i delta/2) N``, ``N(u) = V_H(u) u``,
    ``V_H(u) = |u|^2 * 1/|x|`` and U_j step j's Strang step, ``x_{j+1} = L_j - h(x_{j+1})``
    where ``L_j = U_j (x_j - h(x_j))`` depends on x_j alone.  The implicit factor is
    pointwise: with ``a = delta/2`` and ``V = V_H(x_{j+1})``,
    ``x_{j+1} = L_j / (1 + i a V)``, so ``|x_{j+1}|^2 = rho_L / (1 + (a V)^2)`` with
    rho_L the density of L_j.  Step j builds its potential and forms L_j and rho_L once,
    then iterates on the real potential, ``V <- (rho_L / (1 + (a V)^2)) * 1/|x|``,
    from the previous step's V (``V_H(u0)`` on the first step), until two iterates
    ``L_j / (1 + i a V)`` differ by less than ``tol`` in L2, a distance read from
    the potentials alone.  It then scales L_j by ``1 / (1 + i a V)`` with the last V
    (the potential of the penultimate iterate), and step j+1's explicit part is
    ``x_{j+1} (1 - i a V)`` with that V.  A local iteration costs one scalar
    convolution, not a nonlinear spinor term, and the potential moves the density
    only through ``(a V)^2``, so it contracts with a ratio O(delta^2) whatever T
    is.  Holds the M+1 snapshots, one step's potential and a few fields.
    Returns (FieldSolution, MarchReport); raises :class:`ConvergenceFailure`
    naming the step, with its local distances as the history, when a step
    exhausts ``max_iter`` or meets a non-finite distance.
    """
    plan = plan or PropagatorPlan()
    grid = u0.grid
    times, half, steps = _duhamel_steps(traj, T, plan, grid, n_steps)
    a, h3 = half.imag, grid.spacing**3
    snapshots = [u0.copy()]
    V = convolve_inverse_distance(grid, density(u0))
    w = 1.0 + (a * V) ** 2  # |1 + i a V|^2
    counts, ratios = [], []
    for j, (dt, V_nuc, drift) in enumerate(steps):
        # the explicit part x_j - (i delta/2) V x_j, with the V that made x_j (V_H(u0) for u0)
        L = strang_step(SpinorField(grid, snapshots[j].data * (1.0 - half * V)),
                        dt, V_nuc, drift=drift).data
        del V_nuc  # a lab step's potential: free it before the local iterations
        rho = density(SpinorField(grid, L))
        distances = []
        while True:
            source = rho / w  # |x|^2 of the iterate x = L_j / (1 + i a V)
            V_new = convolve_inverse_distance(grid, source)
            w_new = 1.0 + (a * V_new) ** 2
            # |x_new - x|^2 = rho a^2 (V_new - V)^2 / (w_new w) = source a^2 (V_new - V)^2 / w_new
            dV = V_new - V
            distances.append(a * float(np.sqrt(h3 * np.sum(source * dV * dV / w_new))))
            V, w = V_new, w_new
            if not np.isfinite(distances[-1]):
                raise ConvergenceFailure(f"Duhamel march: non-finite local distance at step "
                                         f"{j + 1} (distances: {distances})", distances)
            if distances[-1] < tol:
                break
            if len(distances) == max_iter:
                raise ConvergenceFailure(
                    f"Duhamel march: step {j + 1} did not reach tol={tol} in {max_iter} "
                    f"local iterations (distances: {distances})", distances)
        counts.append(len(distances))
        ratios.append(max((d1 / d0 for d0, d1 in zip(distances, distances[1:])), default=0.0))
        L *= 1.0 / (1.0 + half * V)
        snapshots.append(SpinorField(grid, L))
        del L  # free before the next step builds its own
    return FieldSolution(times, snapshots), MarchReport(counts, ratios)


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
        out = strang_step(u, delta, V, hartree=include_hartree)
        u = out[0] if include_hartree else out  # drop the step's density, potential and phase
        snaps.append(u)
    return FieldSolution(times, snaps)
