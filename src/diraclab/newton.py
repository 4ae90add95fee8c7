"""Forces on nuclei, the trajectory map, and the coupled field-nuclei solvers.

Force convention: the force on nucleus k is minus the gradient, with respect
to q_k, of the discrete regularized interaction energy plus the internuclear
Coulomb energy,

    F_k = + Z_k h^3 sum_x rho(x) (x - q_k) / (|x - q_k|^2 + eps^2)^(3/2)
          + sum_{l != k} Z_k Z_l (q_k - q_l) / |q_k - q_l|^3,

which is the choice that conserves total energy and momentum of the coupled
system (the field force and the potential share one regularization eps, so
the discrete energy is exactly differentiable in q and the Hellmann-Feynman
identity holds to quadrature roundoff).

Each solver reports per snapshot (``RunDiagnostics``) the forces and one
:func:`snapshot_diagnostics` pass: five energies, total momentum, the H^sigma
norm and the charge from one forward transform and one density.  The direct
integrator builds one density and one Hartree potential per step: its Strang
step's second half-kick builds them, and the step's forces, its snapshot pass
and the next step's first half-kick share them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hartree import convolve_inverse_distance
from .lattice import SpinorField, charge, density, sobolev_weight, to_momentum, translate
from .potentials import (
    Trajectory,
    admissibility_check,
    check_initial_separation,
    coulomb_field,
    nucleus_pairs,
    nucleus_states,
    regularization_eps,
)
from .propagator import (
    COMOVING_SINGLE,
    FieldSolution,
    PropagatorPlan,
    _half_kick,
    check_contraction_window,
    duhamel_march,
    step_count,
    strang_step,
)


class FixedPointDivergence(RuntimeError):
    def __init__(self, message, history):
        super().__init__(message)
        self.history = history


class CollisionError(RuntimeError):
    pass


@dataclass
class ForceBreakdown:
    field: np.ndarray         # (n_nuclei, 3)
    internuclear: np.ndarray  # (n_nuclei, 3)

    @property
    def total(self) -> np.ndarray:
        return self.field + self.internuclear


@dataclass
class EnergyBreakdown:
    field_kinetic: float
    interaction: float
    hartree: float
    nuclear_kinetic: float
    internuclear: float

    @property
    def total(self) -> float:
        return (self.field_kinetic + self.interaction + self.hartree
                + self.nuclear_kinetic + self.internuclear)

    def component_scale(self) -> float:
        return max(abs(self.field_kinetic), abs(self.interaction), abs(self.hartree),
                   abs(self.nuclear_kinetic), abs(self.internuclear), 1e-30)


def _coulomb_pairs(nuclei: list):
    """``(k, l, Z_k Z_l, q_k - q_l, |q_k - q_l|)`` per pair; CollisionError if they coincide."""
    for k, l, d, r in nucleus_pairs([nuc.q for nuc in nuclei]):
        if r == 0.0:
            raise CollisionError(f"nuclei {k} and {l} coincide")
        yield k, l, nuclei[k].Z * nuclei[l].Z, d, r


def internuclear_force(nuclei) -> np.ndarray:
    """Pairwise Coulomb forces ``Z_k Z_l (q_k - q_l)/|q_k - q_l|^3``; exact action-reaction."""
    nuclei = list(nuclei)
    F = np.zeros((len(nuclei), 3))
    for k, l, zz, d, r in _coulomb_pairs(nuclei):
        f = zz * d / r**3
        F[k] += f
        F[l] -= f
    return F


def force_breakdown(u: SpinorField, nuclei, eps: float, rho: np.ndarray = None) -> ForceBreakdown:
    """Field and internuclear forces from one density of ``u`` (``rho``, when the
    caller has it) for all nuclei."""
    rho = density(u) if rho is None else rho
    h3 = u.grid.spacing**3
    fld = np.zeros((len(nuclei), 3))
    if rho.any():  # a zero field exerts exactly zero force
        for k, nuc in enumerate(nuclei):
            dx, dy, dz = u.grid.displacement_mesh(nuc.q)
            s = dx * dx + dy * dy + dz * dz + eps**2
            s *= np.sqrt(s)  # (r^2 + eps^2)^(3/2): a root and a product, not a power
            w = np.divide(rho, s, out=s)
            # each displacement varies along one axis: weight it against w's marginal sum
            fld[k] = nuc.Z * h3 * np.array([dx.ravel() @ w.sum(axis=(1, 2)),
                                            dy.ravel() @ w.sum(axis=(0, 2)),
                                            dz.ravel() @ w.sum(axis=(0, 1))])
    return ForceBreakdown(field=fld, internuclear=internuclear_force(nuclei))


def internuclear_energy(nuclei) -> float:
    """Pairwise Coulomb energy ``sum_{k<l} Z_k Z_l / |q_k - q_l|``."""
    total = 0.0
    for _, _, zz, _, r in _coulomb_pairs(list(nuclei)):
        total += zz / r
    return total


def _conj_sums(a: np.ndarray, b: np.ndarray, *axes) -> list:
    """The sums of the pointwise product ``conj(a) b`` over each of ``axes``,
    from one temporary, which is freed on return."""
    prod = np.conj(a)
    prod *= b
    return [prod.sum(axis=ax) for ax in axes]


def snapshot_diagnostics(u: SpinorField, nuclei, eps: float, sigma: float,
                         rho: np.ndarray = None, V: np.ndarray = None, V_H: np.ndarray = None):
    """(EnergyBreakdown, total momentum, H^sigma norm, charge) of one snapshot,
    from one forward transform and one density.

    The field terms read the spectrum ``uhat`` (Parseval, ``L^-3 sum_xi``): the
    kinetic energy ``<uhat, H_xi uhat> = |a|^2 - |b|^2 + 2 Re <a, (sigma.xi) b>``
    over the upper and lower 2-spinors a, b, the momentum ``sum xi |uhat|^2`` and
    the H^sigma norm from the same ``|uhat|^2``.  The frequency ``xi_j`` depends
    on axis j alone, so each ``sum xi_j f`` is the 1-D frequency vector dotted
    with the marginal sum of ``f`` over the other two axes.  The interaction
    energy is ``h^3 sum rho V`` with the propagator's regularized potential
    ``V``, the Hartree energy ``(1/2) h^3 sum rho V_H`` and the charge
    ``h^3 sum rho``; ``rho``, ``V`` and ``V_H = rho * 1/|x|`` are built here
    unless the caller has them.  The nuclear terms come from ``nuclei``.
    """
    nuclei = list(nuclei)
    uhat = to_momentum(u)
    grid = u.grid
    h3, vol, xi = grid.spacing**3, grid.volume, grid.freq1d
    rho = density(u) if rho is None else rho
    V = coulomb_field(nuclei, eps, grid) if V is None else V
    V_H = convolve_inverse_distance(grid, rho) if V_H is None else V_H
    a0, a1, b0, b1 = uhat
    upper = np.abs(a0) ** 2
    upper += np.abs(a1) ** 2
    lower = np.abs(b0) ** 2
    lower += np.abs(b1) ** 2
    mass = np.sum(upper) - np.sum(lower)
    w = upper
    w += lower  # |uhat|^2, in the upper spinor's buffer
    del lower
    # Re <a, (sigma.xi) b> = sum kx Re(a0* b1 + a1* b0) - ky Im(a1* b0 - a0* b1)
    #                        + kz Re(a0* b0 - a1* b1), one complex product at a time
    x01, y01 = _conj_sums(a0, b1, (1, 2), (0, 2))
    x10, y10 = _conj_sums(a1, b0, (1, 2), (0, 2))
    ab = (xi @ (x01 + x10).real + xi @ (y01 - y10).imag
          + xi @ (_conj_sums(a0, b0, (0, 1))[0] - _conj_sums(a1, b1, (0, 1))[0]).real)
    energy = EnergyBreakdown(
        field_kinetic=float((mass + 2 * ab) / vol),
        interaction=float(h3 * np.sum(rho * V)),
        hartree=float(0.5 * h3 * np.sum(rho * V_H)),
        nuclear_kinetic=float(sum(0.5 * nuc.m * nuc.qdot @ nuc.qdot for nuc in nuclei)),
        internuclear=internuclear_energy(nuclei),
    )
    p = np.array([xi @ w.sum(axis=(1, 2)), xi @ w.sum(axis=(0, 2)), xi @ w.sum(axis=(0, 1))]) / vol
    for nuc in nuclei:
        p = p + nuc.m * nuc.qdot
    hsigma = float(np.sqrt(np.sum(sobolev_weight(grid, sigma, False) * w) / vol))
    return energy, p, hsigma, float(h3 * np.sum(rho))


# ---------------------------------------------------------------------------
# trajectory map P


def _initial_arrays(nuclei0: list):
    """(charges, masses, positions, velocities) arrays; the solvers need a nucleus."""
    if not nuclei0:
        raise ValueError("the coupled solvers require at least one nucleus, got none")
    return tuple(np.array([getattr(nuc, f) for nuc in nuclei0]) for f in ("Z", "m", "q", "qdot"))


def _integrate_force_series(charges, masses, q0, v0, times: np.ndarray,
                            F: np.ndarray) -> Trajectory:
    """Second-order double integration of a known force series ``F`` (one
    (n_nuclei, 3) row per time) from the positions ``q0`` and velocities ``v0``.

    This is velocity-Verlet specialized to a force that is an explicit
    function of time: drift with half-kick, then trapezoid velocity update.
    """
    M = len(times) - 1
    delta = float(times[1] - times[0])
    n = F.shape[1]
    q = np.zeros((n, M + 1, 3))
    v = np.zeros((n, M + 1, 3))
    q[:, 0] = q0
    v[:, 0] = v0
    acc = F / masses[None, :, None]
    for j in range(M):
        q[:, j + 1] = q[:, j] + delta * v[:, j] + 0.5 * delta**2 * acc[j]
        v[:, j + 1] = v[:, j] + 0.5 * delta * (acc[j] + acc[j + 1])
    return Trajectory(charges, masses, times, q, v)


def trajectory_map_P(traj_in: Trajectory, u0: SpinorField, T: float,
                     plan: PropagatorPlan = None, picard_tol: float = 1e-8,
                     picard_max_iter: int = 30, *, n_steps: int,
                     eps0: float = None):
    """One application of the trajectory map: solve the field along ``traj_in``,
    then integrate ``m_k qddot = F_k(t)`` from the input's initial data.

    The force series is evaluated along the *input* trajectory (field force
    from the solved field, internuclear force from the input positions), so
    P is an explicit double integration; its fixed points solve the coupled
    system.  The field is solved by :func:`propagator.duhamel_march`, each
    step to ``picard_tol`` within ``picard_max_iter`` local iterations; the
    contraction window is not checked here (:func:`coupled_fixed_point`
    checks it once, for ``u0``).
    Returns (trajectory, field solution, admissibility report, forces, march
    report), where ``forces`` holds one ForceBreakdown per snapshot along
    ``traj_in`` and the march report is None for a zero field (no solve).
    """
    plan = plan or PropagatorPlan()
    eps = regularization_eps(plan.eps_reg, u0.grid)
    if charge(u0) == 0.0:
        fsol = FieldSolution(traj_in.t0 + np.linspace(0.0, T, n_steps + 1),
                             [u0] * (n_steps + 1))
        march = None
    else:
        # the comoving solve propagates v(t, x) = u(t, x + q(t)); the Hartree
        # term is exactly translation-covariant, so translating in at t0 and
        # back per snapshot recovers the lab-frame field
        comoving = plan.frame == COMOVING_SINGLE
        u_start = translate(u0, traj_in.position(traj_in.t0)[0]) if comoving else u0
        fsol, march = duhamel_march(u_start, traj_in, T, tol=picard_tol,
                                    max_iter=picard_max_iter, plan=plan, n_steps=n_steps)
        if comoving:
            for j, t in enumerate(fsol.times):
                fsol.snapshots[j] = translate(fsol.snapshots[j], -traj_in.position(t)[0])
    forces = [force_breakdown(u, traj_in.nuclei_at(t), eps)
              for u, t in zip(fsol.snapshots, fsol.times)]
    out = _integrate_force_series(traj_in.charges, traj_in.masses, traj_in.positions[:, 0],
                                  traj_in.velocities[:, 0], fsol.times,
                                  np.array([fb.total for fb in forces]))
    return out, fsol, admissibility_check(out, eps0=eps0 if eps0 is not None else 0.0,
                                          velocity_cap=plan.velocity_cap), forces, march


@dataclass
class RunDiagnostics:
    """Computed by the solver, one entry per snapshot of the run: EnergyBreakdown,
    total momentum (a row of the (n_times, 3) array), H^sigma norm,
    ForceBreakdown and charge.  Energy, momentum, H^sigma and charge come from
    one :func:`snapshot_diagnostics` pass per snapshot."""

    energies: list
    momenta: np.ndarray
    hsigma: np.ndarray
    charges: np.ndarray
    forces: list

    @property
    def charge_drift(self) -> float:
        """``max_j |Q_j - Q_0| / Q_0`` over the snapshots (0 for a zero first charge)."""
        c0 = self.charges[0]
        return float(np.max(np.abs(self.charges - c0)) / c0) if c0 > 0 else 0.0


def _stacked(passes: list):
    """(energies, (n_times, 3) momenta, H^sigma norms, charges) from per-snapshot passes."""
    energies, momenta, hsigma, charges = zip(*passes)
    return list(energies), np.array(momenta), np.array(hsigma), np.array(charges)


@dataclass
class FixedPointReport(RunDiagnostics):
    """Outer iteration record; diagnostics with the nuclei at ``traj.nuclei_at(t)``."""

    outer_iterations: int     # P evaluations
    step_history: list        # the residual of each P evaluation
    local_iterations: list    # the march's local iterations in each P evaluation
    local_contraction: list   # each P evaluation's largest ratio of successive local distances
    newton_residual: float
    admissibility_failures: list


def _newton_residual(traj: Trajectory, forces: list) -> float:
    """Max over interior nodes of |qddot (central difference) - F/m|, F per node."""
    delta = traj.dt
    F = np.array([fb.total for fb in forces])
    acc_fd = (traj.positions[:, 2:] - 2 * traj.positions[:, 1:-1] + traj.positions[:, :-2]) / delta**2
    acc_force = np.transpose(F[1:-1] / traj.masses[None, :, None], (1, 0, 2))
    return float(np.max(np.linalg.norm(acc_fd - acc_force, axis=2)))


def _direct_start(u0: SpinorField, charges, masses, q0, v0, T: float, n_steps: int,
                  eps: float):
    """The fixed point's first trajectory on ``n_steps`` steps of [0, T]: the
    quadratic in t through the forces F(0), F(delta) and F(2 delta) of two
    :func:`_direct_step` steps from the initial data, integrated twice by
    :func:`_integrate_force_series` from the same data.

    The steps are the direct integrator's own, with no snapshot pass and no
    collision floor.
    """
    delta = T / n_steps
    *_, force, kick = _direct_first_node(u0, nucleus_states(charges, masses, q0, v0), eps,
                                         delta)
    forces, u, q, v = [force], u0, q0, v0
    for _ in range(2):
        u, q, v, force, *_, kick = _direct_step(u, q, v, forces[-1], kick, charges, masses,
                                                delta, eps)
        forces.append(force)
    F0, F1, F2 = (fb.total for fb in forces)
    j = np.arange(n_steps + 1)[:, None, None]
    F = F0 + j * (F1 - F0) + 0.5 * j * (j - 1) * (F2 - 2 * F1 + F0)
    return _integrate_force_series(charges, masses, q0, v0, np.linspace(0.0, T, n_steps + 1), F)


def coupled_fixed_point(u0: SpinorField, nuclei0, T: float, tol: float = 1e-6,
                        max_outer: int = 40, plan: PropagatorPlan = None, *, n_steps: int,
                        eps0: float = 0.25, picard_tol: float = 1e-9,
                        picard_max_iter: int = 30, sigma: float = 1.25,
                        contraction_const: float = 1.0):
    """Plain iteration q <- P(q) of the trajectory map P to self-consistency.

    Preconditions: initial separations >= 8*eps0 when several nuclei are
    present, and T inside the contraction window (configurable constant,
    checked in H^sigma for nonzero u0), where P contracts.  The first q is
    :func:`_direct_start`'s: the quadratic through the forces of the direct
    integrator's first two steps of delta = T/n_steps, integrated twice from
    the initial data.  Each outer iteration is one P
    evaluation, whose march solves every step to ``picard_tol`` from scratch;
    the previous evaluation's field is dropped first, so one evaluation's
    snapshots are held at a time.  Its residual,
    ``max(|P_v(q) - v|, |P_q(q) - q| / delta)`` in sup norm (delta the
    snapshot spacing), is recorded in ``step_history``, and the iteration
    stops at the first q whose residual is below ``tol``.  The next q is
    P(q), the trajectory the evaluation returned.
    Returns the accepted q with the field, forces and admissibility failures
    of its own P evaluation, the pair's Newton residual, and per-snapshot
    energy and momentum.  Raises :class:`FixedPointDivergence` with the
    residual history after ``max_outer`` evaluations without convergence, or
    at once on a non-finite residual, and ValueError without nuclei.
    """
    nuclei0 = list(nuclei0)
    charges, masses, a, b = _initial_arrays(nuclei0)
    plan = plan or PropagatorPlan()
    check_initial_separation(a, eps0)
    if charge(u0) > 0:
        check_contraction_window(T, u0, sigma, contraction_const)
    delta = T / n_steps
    eps = regularization_eps(plan.eps_reg, u0.grid)
    traj = _direct_start(u0, charges, masses, a, b, T, n_steps, eps)
    history, iterations, contraction = [], [], []
    while True:
        traj_P, fsol, report_adm, forces, march = trajectory_map_P(
            traj, u0, T, plan=plan, picard_tol=picard_tol,
            picard_max_iter=picard_max_iter, n_steps=n_steps, eps0=eps0)
        iterations.append(march.iterations if march else 0)
        contraction.append(march.contraction if march else 0.0)
        dq = traj_P.positions - traj.positions
        dv = traj_P.velocities - traj.velocities
        residual = float(np.maximum(np.max(np.abs(dv)), np.max(np.abs(dq)) / delta))  # NaN-safe
        history.append(residual)
        if not np.isfinite(residual):
            raise FixedPointDivergence(
                f"outer fixed point: non-finite residual at evaluation {len(history)} "
                f"(residuals: {history})", history)
        if residual < tol:
            break
        if len(history) >= max_outer:
            raise FixedPointDivergence(
                f"outer fixed point did not reach tol={tol} in {max_outer} iterations "
                f"(residuals: {history})", history)
        del fsol  # the next evaluation must not hold this one's snapshots beside its own
        traj = traj_P
    report = FixedPointReport(
        *_stacked([snapshot_diagnostics(u, traj.nuclei_at(t), eps, sigma)
                   for u, t in zip(fsol.snapshots, fsol.times)]),
        forces, outer_iterations=len(history), step_history=history,
        local_iterations=iterations, local_contraction=contraction,
        newton_residual=_newton_residual(traj, forces),
        admissibility_failures=report_adm.failures)
    return fsol, traj, report


# ---------------------------------------------------------------------------
# direct interleaved integrator


@dataclass
class DirectRunReport(RunDiagnostics):
    """Drifts; diagnostics at the step's nodes, forces as used by the Verlet kicks."""

    energy_drift: float
    momentum_drift: float


def _direct_first_node(u: SpinorField, nuclei: list, eps: float, delta: float):
    """The direct integrator's state at its first node: ``(V, rho, V_H, force,
    kick)``, the nuclei's potential, the density and Hartree potential of ``u``,
    the forces, which read that density, and the first step's first half-kick
    phase ``exp(-i delta/2 (V + V_H))``."""
    rho = density(u)
    V, V_H = coulomb_field(nuclei, eps, u.grid), convolve_inverse_distance(u.grid, rho)
    return V, rho, V_H, force_breakdown(u, nuclei, eps, rho=rho), _half_kick(delta, V, V_H)


def _direct_step(u: SpinorField, q: np.ndarray, v: np.ndarray, force: ForceBreakdown,
                 kick: np.ndarray, charges, masses, delta: float, eps: float):
    """One step of the direct integrator from ``(u, q, v)``, whose forces are
    ``force``, and ``kick`` the first half-kick phase ``exp(-i delta/2 (V + V_H))``
    of the nuclei's potential V at ``q`` and the Hartree potential V_H of ``u``.

    A velocity-Verlet half-kick and drift of the nuclei, then one
    :func:`propagator.strang_step` of the field with the Hartree term, whose
    second half-kick takes the potential at the step's end positions; the
    step-end forces read the density that its second half-kick built, and the
    second half-kick of the nuclei reads them.  Returns ``(u, q, v, force, V,
    rho, V_H, kick)`` at the step's end: the field, positions, velocities and
    forces, the end potential, the density and Hartree potential of the field
    (the pre-kick field's; the kick is a phase, so they are the field's own
    up to roundoff) and the second half-kick's phase, which is bit for bit
    the next step's first, as the next step has the same delta, V and V_H.
    """
    vhalf = v + 0.5 * delta * force.total / masses[:, None]
    q = q + delta * vhalf
    # the forces and the step-end potential read positions only
    nuclei = nucleus_states(charges, masses, q, vhalf)
    V_end = coulomb_field(nuclei, eps, u.grid)
    u, rho, V_H, kick = strang_step(u, delta, None, V_out=V_end, hartree=True, kick=kick)
    force = force_breakdown(u, nuclei, eps, rho=rho)
    return (u, q, vhalf + 0.5 * delta * force.total / masses[:, None], force, V_end, rho, V_H,
            kick)


def coupled_direct(u0: SpinorField, nuclei0, T: float, dt: float, eps_reg: float = None,
                   sigma: float = 1.25):
    """Interleaved velocity-Verlet + split-step integrator for the coupled system.

    The field advances by one :func:`propagator.strang_step` per nuclear
    step, with the Hartree term refreshed in each half-kick and the nuclear
    potential evaluated at the step-start and step-end positions in the two
    half-kicks.  Each step builds one density, one Hartree potential and one
    half-kick phase: the step's second half-kick builds them from its pre-kick
    field w, whose density is the step's output u's up to roundoff (the kick
    is a phase), and hands them back.  The step's forces use that density;
    after its velocity update one :func:`snapshot_diagnostics` pass (H^sigma
    norm with ``sigma``) reads the step's end potential, that density and that
    Hartree potential, and the run drops them; the next step's first half-kick
    takes the handed phase, bit for bit the one it would build from that
    potential and the end potential.  So M steps build M + 1 densities, M + 1
    Hartree potentials and M + 1 half-kick phases.  Raises
    :class:`CollisionError` when two nuclei start or come closer than two grid
    spacings (checked at t = 0 and at the end of every step),
    FloatingPointError naming a step with a non-finite force or total energy,
    and ValueError without nuclei.  Returns (FieldSolution, Trajectory,
    DirectRunReport); the run holds one field at a time, so the FieldSolution
    holds only the final field, at T, and the report every snapshot's charge.
    """
    charges, masses, q0, v0 = _initial_arrays(list(nuclei0))
    u, grid = u0, u0.grid
    eps = regularization_eps(eps_reg, grid)
    floor = 2.0 * grid.spacing
    M = step_count(T, dt)
    delta = T / M
    times = np.linspace(0.0, T, M + 1)
    q = np.zeros((len(charges), M + 1, 3))
    v = np.zeros((len(charges), M + 1, 3))
    q[:, 0], v[:, 0] = q0, v0

    def check_separation(j):
        for k, l, _, r in nucleus_pairs(q[:, j]):
            if r < floor:
                raise CollisionError(f"nuclei {k} and {l} closer than the resolvable scale "
                                     f"{floor:.4g} at t={times[j]:.6g}")

    check_separation(0)

    # each snapshot's density serves its forces and its diagnostics, and its
    # potentials its diagnostics and the phase of the next step's first
    # half-kick, which is the phase of this step's second
    nuclei = nucleus_states(charges, masses, q0, v0)
    V, rho, V_H, force, kick = _direct_first_node(u, nuclei, eps, delta)
    forces = [force]
    passes = [snapshot_diagnostics(u, nuclei, eps, sigma, rho=rho, V=V, V_H=V_H)]
    for j in range(M):
        del V, rho, V_H  # the step reads the handed phase alone
        u, q[:, j + 1], v[:, j + 1], force, V, rho, V_H, kick = _direct_step(
            u, q[:, j], v[:, j], forces[-1], kick, charges, masses, delta, eps)
        check_separation(j + 1)
        forces.append(force)
        nuclei = nucleus_states(charges, masses, q[:, j + 1], v[:, j + 1])
        passes.append(snapshot_diagnostics(u, nuclei, eps, sigma, rho=rho, V=V, V_H=V_H))
        if not (np.isfinite(force.total).all() and np.isfinite(passes[-1][0].total)):
            raise FloatingPointError(f"non-finite force or total energy at step {j + 1}")

    fsol = FieldSolution(times[-1:], [u])
    traj = Trajectory(charges, masses, times, q, v)
    energies, momenta, hsigma, field_charges = _stacked(passes)
    e_tot = np.array([e.total for e in energies])
    e_scale = max(max(e.component_scale() for e in energies), 1e-30)
    p_scale = max(float(np.max(np.linalg.norm(momenta, axis=1))),
                  max(float(np.sum(masses * np.linalg.norm(v[:, j], axis=-1)))
                      for j in range(M + 1)), 1e-30)
    report = DirectRunReport(
        energies, momenta, hsigma, field_charges, forces,
        energy_drift=float(np.max(np.abs(e_tot - e_tot[0])) / e_scale),
        momentum_drift=float(np.max(np.linalg.norm(momenta - momenta[0], axis=1)) / p_scale))
    return fsol, traj, report
