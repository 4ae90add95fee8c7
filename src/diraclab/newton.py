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
:func:`snapshot_diagnostics` pass: five energies, total momentum and the
H^sigma norm from one forward transform and one density.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dirac import apply_symbol
from .hartree import convolve_inverse_distance
from .lattice import SpinorField, charge, density, to_momentum, translate
from .potentials import (
    NucleusState,
    Trajectory,
    admissibility_check,
    coulomb_field,
    regularization_eps,
)
from .propagator import (
    COMOVING_SINGLE,
    FieldSolution,
    PropagatorPlan,
    check_contraction_window,
    duhamel_picard,
    snapshot_count,
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


def internuclear_force(nuclei) -> np.ndarray:
    """Pairwise Coulomb forces ``Z_k Z_l (q_k - q_l)/|q_k - q_l|^3``; exact action-reaction."""
    nuclei = list(nuclei)
    n = len(nuclei)
    F = np.zeros((n, 3))
    for k in range(n):
        for l in range(k + 1, n):
            d = nuclei[k].q - nuclei[l].q
            r = np.linalg.norm(d)
            if r == 0.0:
                raise CollisionError(f"nuclei {k} and {l} coincide")
            f = nuclei[k].Z * nuclei[l].Z * d / r**3
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
            w = rho / (dx * dx + dy * dy + dz * dz + eps**2) ** 1.5
            fld[k] = nuc.Z * h3 * np.array([np.sum(w * dx), np.sum(w * dy), np.sum(w * dz)])
    return ForceBreakdown(field=fld, internuclear=internuclear_force(nuclei))


def internuclear_energy(nuclei) -> float:
    nuclei = list(nuclei)
    total = 0.0
    for k in range(len(nuclei)):
        for l in range(k + 1, len(nuclei)):
            r = np.linalg.norm(nuclei[k].q - nuclei[l].q)
            if r == 0.0:
                raise CollisionError(f"nuclei {k} and {l} coincide")
            total += nuclei[k].Z * nuclei[l].Z / r
    return total


def snapshot_diagnostics(u: SpinorField, nuclei, eps: float, sigma: float,
                         rho: np.ndarray = None, V: np.ndarray = None, V_H: np.ndarray = None):
    """(EnergyBreakdown, total momentum, H^sigma norm) of one snapshot, from one
    forward transform and one density.

    The field terms read the spectrum ``uhat`` (Parseval, ``L^-3 sum_xi``): the
    kinetic energy ``<uhat, H_xi uhat>``, the momentum ``sum xi |uhat|^2`` and
    the H^sigma norm from the same ``|uhat|^2``.  The interaction energy is
    ``h^3 sum rho V`` with the propagator's regularized potential ``V`` and the
    Hartree energy ``(1/2) h^3 sum rho V_H``; ``rho``, ``V`` and ``V_H = rho * 1/|x|``
    are built here unless the caller has them.  The nuclear terms come from ``nuclei``.
    """
    nuclei = list(nuclei)
    uhat = to_momentum(u)
    grid = u.grid
    h3, vol = grid.spacing**3, grid.volume
    rho = density(u) if rho is None else rho
    V = coulomb_field(nuclei, eps, grid) if V is None else V
    V_H = convolve_inverse_distance(grid, rho) if V_H is None else V_H
    w = np.sum(np.abs(uhat) ** 2, axis=-1)
    energy = EnergyBreakdown(
        field_kinetic=float(np.vdot(uhat, apply_symbol(grid, uhat)).real / vol),
        interaction=float(h3 * np.sum(rho * V)),
        hartree=float(0.5 * h3 * np.sum(rho * V_H)),
        nuclear_kinetic=float(sum(0.5 * nuc.m * nuc.qdot @ nuc.qdot for nuc in nuclei)),
        internuclear=internuclear_energy(nuclei),
    )
    kx, ky, kz = grid.freq_mesh
    p = np.array([np.sum(kx * w), np.sum(ky * w), np.sum(kz * w)]) / vol
    for nuc in nuclei:
        p = p + nuc.m * nuc.qdot
    hsigma = float(np.sqrt(np.sum((1.0 + grid.freq_sq) ** sigma * w) / vol))
    return energy, p, hsigma


# ---------------------------------------------------------------------------
# trajectory map P


def _initial_arrays(nuclei0: list):
    """(charges, masses, positions, velocities) arrays; the solvers need a nucleus."""
    if not nuclei0:
        raise ValueError("the coupled solvers require at least one nucleus, got none")
    return tuple(np.array([getattr(nuc, f) for nuc in nuclei0]) for f in ("Z", "m", "q", "qdot"))


def _integrate_force_series(traj_in: Trajectory, times: np.ndarray, F: np.ndarray) -> Trajectory:
    """Second-order double integration of a known force series from the
    initial data of ``traj_in``.

    This is velocity-Verlet specialized to a force that is an explicit
    function of time: drift with half-kick, then trapezoid velocity update.
    """
    M = len(times) - 1
    delta = float(times[1] - times[0])
    n = F.shape[1]
    q = np.zeros((n, M + 1, 3))
    v = np.zeros((n, M + 1, 3))
    q[:, 0] = traj_in.positions[:, 0]
    v[:, 0] = traj_in.velocities[:, 0]
    acc = F / traj_in.masses[None, :, None]
    for j in range(M):
        q[:, j + 1] = q[:, j] + delta * v[:, j] + 0.5 * delta**2 * acc[j]
        v[:, j + 1] = v[:, j] + 0.5 * delta * (acc[j] + acc[j + 1])
    return Trajectory(traj_in.charges, traj_in.masses, times, q, v)


def trajectory_map_P(traj_in: Trajectory, u0: SpinorField, T: float,
                     plan: PropagatorPlan = None, picard_tol: float = 1e-8,
                     picard_max_iter: int = 30, n_steps: int = None,
                     eps0: float = None, start: list = None):
    """One application of the trajectory map: solve the field along ``traj_in``,
    then integrate ``m_k qddot = F_k(t)`` from the input's initial data.

    The force series is evaluated along the *input* trajectory (field force
    from the solved field, internuclear force from the input positions), so
    P is an explicit double integration; its fixed points solve the coupled
    system.  The inner Picard solve does not check the contraction window
    (:func:`coupled_fixed_point` checks it once, for ``u0``).  ``start``, the
    lab-frame snapshots of an earlier evaluation, warm-starts the Picard
    solve and is overwritten in place by this evaluation's snapshots.
    Returns (trajectory, field solution, admissibility report, forces), where
    ``forces`` holds one ForceBreakdown per snapshot along ``traj_in``.
    """
    plan = plan or PropagatorPlan()
    M = snapshot_count(plan, n_steps)
    eps = regularization_eps(plan.eps_reg, u0.grid)
    if charge(u0) == 0.0:
        fsol = FieldSolution(traj_in.t0 + np.linspace(0.0, T, M + 1),
                             [u0] * (M + 1))
    else:
        # the comoving solve propagates v(t, x) = u(t, x + q(t)); the Hartree
        # term is exactly translation-covariant, so translating in at t0 and
        # back per snapshot recovers the lab-frame field
        comoving = plan.frame == COMOVING_SINGLE
        u_start = translate(u0, traj_in.position(traj_in.t0)[0]) if comoving else u0
        if comoving and start is not None:
            for j, t in enumerate(traj_in.t0 + np.linspace(0.0, T, M + 1)):
                start[j] = translate(start[j], traj_in.position(t)[0])
        fsol, _ = duhamel_picard(u_start, traj_in, T, tol=picard_tol,
                                 max_iter=picard_max_iter, plan=plan, n_steps=M,
                                 enforce_window=False, start=start)
        if comoving:
            for j, t in enumerate(fsol.times):
                fsol.snapshots[j] = translate(fsol.snapshots[j], -traj_in.position(t)[0])
    forces = [force_breakdown(u, traj_in.nuclei_at(t), eps)
              for u, t in zip(fsol.snapshots, fsol.times)]
    out = _integrate_force_series(traj_in, fsol.times, np.array([fb.total for fb in forces]))
    return out, fsol, admissibility_check(out, eps0=eps0 if eps0 is not None else 0.0,
                                          velocity_cap=plan.velocity_cap), forces


@dataclass
class RunDiagnostics:
    """Computed by the solver, one entry per snapshot of the returned field:
    EnergyBreakdown, total momentum (a row of the (n_times, 3) array), H^sigma
    norm and ForceBreakdown.  Energy, momentum and H^sigma come from one
    :func:`snapshot_diagnostics` pass per snapshot."""

    energies: list
    momenta: np.ndarray
    hsigma: np.ndarray
    forces: list


def _stacked(passes: list):
    """(energies, (n_times, 3) momenta, H^sigma norms) from per-snapshot passes."""
    energies, momenta, hsigma = zip(*passes)
    return list(energies), np.array(momenta), np.array(hsigma)


@dataclass
class FixedPointReport(RunDiagnostics):
    """Outer iteration record; diagnostics with the nuclei at ``traj.nuclei_at(t)``."""

    outer_iterations: int     # P evaluations
    step_history: list        # the undamped residual of each P evaluation
    converged: bool
    newton_residual: float
    admissibility_failures: list


def _newton_residual(traj: Trajectory, forces: list) -> float:
    """Max over interior nodes of |qddot (central difference) - F/m|, F per node."""
    delta = traj.dt
    F = np.array([fb.total for fb in forces])
    acc_fd = (traj.positions[:, 2:] - 2 * traj.positions[:, 1:-1] + traj.positions[:, :-2]) / delta**2
    acc_force = np.transpose(F[1:-1] / traj.masses[None, :, None], (1, 0, 2))
    return float(np.max(np.linalg.norm(acc_fd - acc_force, axis=2)))


ANDERSON_DEPTH = 3


def _anderson_step(xs: list, gs: list, beta: float) -> np.ndarray:
    """Anderson-mixed next iterate (Walker & Ni's form, mixing ``beta``) from the
    iterates ``xs`` and their residuals ``gs = P(x) - x``, oldest first.

    With one pair, or when the least-squares problem over the residual
    differences is rank-deficient or has a non-finite solution, this is the
    damped step ``x + beta g``.  Non-finite data raise ``LinAlgError``.
    """
    x, g = xs[-1], gs[-1]
    if len(xs) > 1:
        dX, dG = np.diff(xs, axis=0).T, np.diff(gs, axis=0).T
        if not (np.isfinite(dX).all() and np.isfinite(dG).all()):
            raise np.linalg.LinAlgError("non-finite Anderson least-squares data")
        gamma, _, rank, _ = np.linalg.lstsq(dG, g, rcond=None)
        if rank == dG.shape[1] and np.isfinite(gamma).all():
            return x + beta * g - (dX + beta * dG) @ gamma
    return x + beta * g


def coupled_fixed_point(u0: SpinorField, nuclei0, T: float, tol: float = 1e-6,
                        max_outer: int = 40, theta: float = 0.5,
                        plan: PropagatorPlan = None, n_steps: int = None,
                        eps0: float = 0.25, picard_tol: float = 1e-9,
                        picard_max_iter: int = 30, sigma: float = 1.25,
                        contraction_const: float = 1.0):
    """Anderson-accelerated outer iteration on the trajectory map P to self-consistency.

    Preconditions: initial separations >= 8*eps0 when several nuclei are
    present, and T inside the contraction window (configurable constant,
    checked in H^sigma for nonzero u0).  Each outer iteration is one P
    evaluation, warm-started from the previous evaluation's field.  Its
    residual, the undamped ``max(|P_v(q) - v|, |P_q(q) - q| / delta)`` in sup
    norm (delta the snapshot spacing), is recorded in ``step_history``, and
    the iteration stops at the first q whose residual is below ``tol``.  The
    next q is Anderson(3) on the stacked (positions, velocities) vector with
    mixing ``theta`` (a damped step ``q + theta (P(q) - q)`` on the first
    iteration and when the least-squares problem is rank-deficient).
    Returns the accepted q with the field, forces and admissibility failures
    of its own P evaluation, the pair's Newton residual, and per-snapshot
    energy and momentum.  Raises :class:`FixedPointDivergence` with the
    residual history after ``max_outer`` evaluations without convergence, or
    at once on a non-finite residual, and ValueError without nuclei.
    """
    nuclei0 = list(nuclei0)
    charges, masses, a, b = _initial_arrays(nuclei0)
    plan = plan or PropagatorPlan()
    for k in range(len(nuclei0)):
        for l in range(k + 1, len(nuclei0)):
            sep = np.linalg.norm(nuclei0[k].q - nuclei0[l].q)
            if sep < 8.0 * eps0 - 1e-12:
                raise ValueError(
                    "separation hypothesis violated: require min |q_k(0) - q_l(0)| "
                    f">= 8*eps0 = {8 * eps0:.6g}, got |q_{k}(0) - q_{l}(0)| = {sep:.6g}")
    if charge(u0) > 0:
        check_contraction_window(T, u0, sigma, contraction_const)
    M = snapshot_count(plan, n_steps)
    delta = T / M
    traj = Trajectory.constant_velocity(charges, masses, a, b, 0.0, T, M)
    history, xs, gs = [], [], []
    snapshots = None
    while True:
        traj_P, fsol, report_adm, forces = trajectory_map_P(
            traj, u0, T, plan=plan, picard_tol=picard_tol,
            picard_max_iter=picard_max_iter, n_steps=M, eps0=eps0, start=snapshots)
        snapshots = fsol.snapshots
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
        xs.append(np.concatenate([traj.positions.ravel(), traj.velocities.ravel()]))
        gs.append(np.concatenate([dq.ravel(), dv.ravel()]))
        del xs[:-ANDERSON_DEPTH - 1], gs[:-ANDERSON_DEPTH - 1]
        try:
            x = _anderson_step(xs, gs, theta)
        except np.linalg.LinAlgError as exc:
            raise FixedPointDivergence(
                f"outer fixed point: Anderson step failed at evaluation {len(history)}: "
                f"{exc} (residuals: {history})", history) from exc
        pos, vel = x.reshape(2, *traj.positions.shape)
        traj = Trajectory(charges, masses, traj.times, pos, vel)
    eps = regularization_eps(plan.eps_reg, u0.grid)
    report = FixedPointReport(
        *_stacked([snapshot_diagnostics(u, traj.nuclei_at(t), eps, sigma)
                   for u, t in zip(fsol.snapshots, fsol.times)]),
        forces, outer_iterations=len(history), step_history=history,
        converged=True, newton_residual=_newton_residual(traj, forces),
        admissibility_failures=report_adm.failures)
    return fsol, traj, report


# ---------------------------------------------------------------------------
# direct interleaved integrator


@dataclass
class DirectRunReport(RunDiagnostics):
    """Drifts; diagnostics at the step's nodes, forces as used by the Verlet kicks."""

    energy_drift: float
    momentum_drift: float
    charge_drift: float


def coupled_direct(u0: SpinorField, nuclei0, T: float, dt: float, eps_reg: float = None,
                   sigma: float = 1.25):
    """Interleaved velocity-Verlet + split-step integrator for the coupled system.

    The field advances by one :func:`propagator.strang_step` per nuclear
    step, with the Hartree term refreshed in each half-kick and the nuclear
    potential evaluated at the step-start and step-end positions in the two
    half-kicks.  After each step's velocity update one
    :func:`snapshot_diagnostics` pass (H^sigma norm with ``sigma``) reads the
    step's end potential, the density its forces were computed from and its
    Hartree potential, which the next step's first half-kick reuses.  Raises
    :class:`CollisionError` when two nuclei come closer than two grid spacings,
    FloatingPointError naming a step with a non-finite force or total energy,
    and ValueError without nuclei.  Returns (FieldSolution, Trajectory, DirectRunReport).
    """
    charges, masses, q0, v0 = _initial_arrays(list(nuclei0))
    u, grid = u0, u0.grid
    eps = regularization_eps(eps_reg, grid)
    floor = 2.0 * grid.spacing
    M = step_count(T, dt)
    delta = T / M
    times = np.linspace(0.0, T, M + 1)
    n = len(charges)
    q = np.zeros((n, M + 1, 3))
    v = np.zeros((n, M + 1, 3))
    q[:, 0], v[:, 0] = q0, v0

    def nuclei_at(j):
        return [NucleusState(charges[k], masses[k], q[k, j], v[k, j]) for k in range(n)]

    def check_collision(j):
        for k in range(n):
            for l in range(k + 1, n):
                if np.linalg.norm(q[k, j] - q[l, j]) < floor:
                    raise CollisionError(
                        f"nuclei {k} and {l} closer than the resolvable scale {floor:.4g} "
                        f"at t={times[j]:.6g}")

    # the step-end potential of one step is the step-start potential of the next;
    # each snapshot's density serves its forces and its diagnostics
    V = coulomb_field(nuclei_at(0), eps, grid)
    rho = density(u)
    V_H = convolve_inverse_distance(grid, rho)
    snaps = [u.copy()]
    forces = [force_breakdown(u, nuclei_at(0), eps, rho=rho)]
    passes = [snapshot_diagnostics(u, nuclei_at(0), eps, sigma, rho=rho, V=V, V_H=V_H)]
    for j in range(M):
        vhalf = v[:, j] + 0.5 * delta * forces[-1].total / masses[:, None]
        q[:, j + 1] = q[:, j] + delta * vhalf
        check_collision(j + 1)
        nucs_end = [NucleusState(charges[k], masses[k], q[k, j + 1], v[k, j]) for k in range(n)]
        V_end = coulomb_field(nucs_end, eps, grid)
        u = strang_step(u, delta, V, V_out=V_end, hartree=True, V_H=V_H)
        V = V_end
        rho = density(u)
        V_H = convolve_inverse_distance(grid, rho)
        forces.append(force_breakdown(u, nucs_end, eps, rho=rho))
        v[:, j + 1] = vhalf + 0.5 * delta * forces[-1].total / masses[:, None]
        passes.append(snapshot_diagnostics(u, nuclei_at(j + 1), eps, sigma, rho=rho, V=V, V_H=V_H))
        if not (np.isfinite(forces[-1].total).all() and np.isfinite(passes[-1][0].total)):
            raise FloatingPointError(f"non-finite force or total energy at step {j + 1}")
        snaps.append(u)

    fsol = FieldSolution(times, snaps)
    traj = Trajectory(charges, masses, times, q, v)
    energies, momenta, hsigma = _stacked(passes)
    e_tot = np.array([e.total for e in energies])
    e_scale = max(max(e.component_scale() for e in energies), 1e-30)
    p_scale = max(float(np.max(np.linalg.norm(momenta, axis=1))),
                  max(float(np.sum(masses * np.linalg.norm(v[:, j], axis=-1)))
                      for j in range(M + 1)), 1e-30)
    report = DirectRunReport(
        energies, momenta, hsigma, forces,
        energy_drift=float(np.max(np.abs(e_tot - e_tot[0])) / e_scale),
        momentum_drift=float(np.max(np.linalg.norm(momenta - momenta[0], axis=1)) / p_scale),
        charge_drift=fsol.charge_drift())
    return fsol, traj, report
