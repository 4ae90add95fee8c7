from pathlib import Path

import numpy as np
import pytest

from diraclab import config as cf
from diraclab import hartree as ht
from diraclab import lattice as lat
from diraclab import newton as nt
from diraclab.potentials import NucleusState, Trajectory, coulomb_field
from diraclab.propagator import PropagatorPlan, step_count
from oracles import nbody_coulomb_oracle, snapshot_oracle


def test_field_force_zero_field(grid16):
    u = lat.zero_spinor(grid16)
    nuc = NucleusState(0.5, 1.0, (0.3, 0, 0), (0, 0, 0))
    assert np.array_equal(nt.force_breakdown(u, [nuc], 0.8).field[0], np.zeros(3))


def test_field_force_symmetric_density_vanishes(grid16):
    center = np.array([0.75, -0.75, 0.0])  # lattice point: density exactly symmetric
    u = lat.gaussian_spinor(grid16, center, 1.0, (1, 0, 0, 0))
    nuc = NucleusState(0.5, 1.0, center, (0, 0, 0))
    F = nt.force_breakdown(u, [nuc], 0.8).field[0]
    assert np.max(np.abs(F)) < 1e-10


def test_field_force_is_minus_gradient_of_interaction_energy():
    # central differences at h/4 with one Richardson step (the plain h/4
    # quotient carries an O(delta^2) ~ 1e-3 truncation at this resolution)
    g = lat.make_grid(32, 12.0)
    rng = np.random.default_rng(7)
    raw = lat.random_smooth_field(g, rng, kmax=4, decay=1.0)
    env = np.exp(-g.radius_sq_from((0, 0, 0)) / (2 * (g.box_length / 7) ** 2))
    u = lat.SpinorField(g, env[..., None] * raw.data)
    eps = 0.8
    q0 = np.array([0.7, -0.3, 0.2])
    F = nt.force_breakdown(u, [NucleusState(0.5, 1.0, q0, (0, 0, 0))], eps).field[0]

    def fd(delta):
        out = np.zeros(3)
        for j in range(3):
            dq = np.zeros(3)
            dq[j] = delta
            Ep, Em = (nt.snapshot_diagnostics(u, [NucleusState(0.5, 1.0, q, (0, 0, 0))], eps,
                                              1.0)[0].interaction for q in (q0 + dq, q0 - dq))
            out[j] = -(Ep - Em) / (2 * delta)
        return out

    d = g.spacing / 4
    richardson = (4.0 * fd(d / 2) - fd(d)) / 3.0
    assert np.max(np.abs(F - richardson)) / np.max(np.abs(F)) < 1e-6


def test_internuclear_force_law_and_action_reaction():
    n1 = NucleusState(0.7, 1.0, (0, 0, 0), (0, 0, 0))
    n2 = NucleusState(0.7, 1.0, (2.0, 0, 0), (0, 0, 0))
    F = nt.internuclear_force([n1, n2])
    assert F[0][0] == pytest.approx(-0.7 * 0.7 / 4.0, rel=1e-15)  # repelled toward -x
    assert np.max(np.abs(F[0] + F[1])) < 1e-15


def test_internuclear_three_collinear_middle_balanced():
    nuclei = [NucleusState(0.5, 1.0, (x, 0, 0), (0, 0, 0)) for x in (-2.0, 0.0, 2.0)]
    F = nt.internuclear_force(nuclei)
    assert np.max(np.abs(F[1])) < 1e-15
    assert np.max(np.abs(F.sum(axis=0))) < 1e-15


def test_internuclear_coincident_raises():
    nuclei = [NucleusState(0.5, 1.0, (0, 0, 0), (0, 0, 0)),
              NucleusState(0.5, 1.0, (0, 0, 0), (0, 0, 0))]
    with pytest.raises(nt.CollisionError):
        nt.internuclear_force(nuclei)


def test_force_breakdown_total_identity(grid16, rng):
    u = lat.random_smooth_field(grid16, rng, kmax=3, decay=0.8)
    nuclei = [NucleusState(0.5, 1.0, (-1.5, 0, 0), (0, 0, 0)),
              NucleusState(0.4, 1.0, (1.5, 0, 0), (0, 0, 0))]
    fb = nt.force_breakdown(u, nuclei, 0.8)
    assert np.array_equal(fb.total, fb.field + fb.internuclear)
    assert np.max(np.abs(fb.internuclear.sum(axis=0))) < 1e-12


def test_energy_breakdown_consistent_regularization(grid16):
    u = lat.gaussian_spinor(grid16, (0, 0, 0), 1.2, (0.5, 0, 0, 0))
    nuclei = [NucleusState(0.5, 10.0, (0.9, 0, 0), (0.1, 0, 0))]
    eb, _, _ = nt.snapshot_diagnostics(u, nuclei, 0.8, 1.0)
    # the propagator's potential at the same eps
    V = coulomb_field(nuclei, 0.8, grid16)
    assert eb.interaction == pytest.approx(grid16.spacing**3 * np.sum(lat.density(u) * V))
    assert eb.nuclear_kinetic == pytest.approx(0.5 * 10.0 * 0.01)
    assert eb.total == pytest.approx(eb.field_kinetic + eb.interaction + eb.hartree
                                     + eb.nuclear_kinetic + eb.internuclear)


TWO_NUCLEI = [NucleusState(0.5, 10.0, (0.9, 0, 0), (0.1, 0, 0)),
              NucleusState(0.4, 8.0, (-1.5, 0.6, 0.2), (0.0, -0.05, 0.02))]


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("n_nuclei", [1, 2])
def test_snapshot_diagnostics_match_independent_oracles(n, n_nuclei):
    grid = lat.make_grid(n, 12.0)
    u = lat.random_smooth_field(grid, np.random.default_rng(100 * n + n_nuclei),
                                kmax=4, decay=0.8)
    nuclei, eps, sigma = TWO_NUCLEI[:n_nuclei], 0.8, 1.25
    eb, p, hsigma = nt.snapshot_diagnostics(u, nuclei, eps, sigma)
    want = snapshot_oracle(u, nuclei, eps, sigma)
    got = {"E_field_kinetic": eb.field_kinetic, "E_interaction": eb.interaction,
           "E_hartree": eb.hartree, "E_nuclear_kinetic": eb.nuclear_kinetic,
           "E_internuclear": eb.internuclear, "E_total": eb.total, "hsigma": hsigma,
           "p_x": p[0], "p_y": p[1], "p_z": p[2]}
    for key, value in got.items():
        assert value == pytest.approx(want[key], rel=1e-12), key
    # the caller's potential and density are the ones the pass would build
    V = coulomb_field(nuclei, eps, grid)
    eb_given, p_given, hsigma_given = nt.snapshot_diagnostics(
        u, nuclei, eps, sigma, rho=lat.density(u), V=V)
    assert eb_given == eb and np.array_equal(p_given, p) and hsigma_given == hsigma


# ---------------------------------------------------------------------------
# trajectory map P


def test_map_P_symmetric_resting_nucleus_stays(grid16):
    u0 = lat.gaussian_spinor(grid16, (0, 0, 0), 1.3, (0.4, 0, 0, 0))
    traj = Trajectory.static([0.5], [10.0], [[0, 0, 0]], 0.0, 0.3, 24)
    plan = PropagatorPlan(n_slices=24, eps_reg=0.8)
    out, fsol, rep, _ = nt.trajectory_map_P(traj, u0, 0.3, plan=plan, n_steps=24)
    assert np.max(np.abs(out.positions)) < 1e-8
    # velocities carry the raw force integral; the Nyquist-row parity artifact
    # of the discrete Dirac symbol leaves a ~1e-8 floor at this resolution
    assert np.max(np.abs(out.velocities)) < 1e-7


def test_map_P_kepler_fixed_point(grid16):
    # with u0 = 0 and the exact two-body orbit as input, P returns the same
    # orbit up to its quadrature error
    charges = [0.6, 0.6]
    masses = [20.0, 20.0]
    q0 = [[-1.5, 0, 0], [1.5, 0, 0]]
    v0 = [[0, 0.05, 0], [0, -0.05, 0]]
    T = 1.0
    sol = nbody_coulomb_oracle(charges, masses, q0, v0, T)
    M = 800
    times = np.linspace(0.0, T, M + 1)
    ys = sol.sol(times)
    pos = ys[:6].reshape(2, 3, M + 1).transpose(0, 2, 1)
    vel = ys[6:].reshape(2, 3, M + 1).transpose(0, 2, 1)
    traj_in = Trajectory(charges, masses, times, pos, vel)
    u0 = lat.zero_spinor(grid16)
    out, _, _, _ = nt.trajectory_map_P(traj_in, u0, T, plan=PropagatorPlan(eps_reg=0.8),
                                       n_steps=M)
    assert np.max(np.abs(out.positions - pos)) < 1e-6
    assert np.max(np.abs(out.velocities - vel)) < 1e-6


def test_map_P_mirror_symmetry(grid16):
    u0 = lat.gaussian_spinor(grid16, (0, 0, 0), 1.4, (0.3, 0, 0, 0))
    charges = [0.5, 0.5]
    masses = [15.0, 15.0]
    eps0 = 0.3
    traj = Trajectory.constant_velocity(charges, masses,
                                        [[-1.25, 0, 0], [1.25, 0, 0]],
                                        [[0.04, 0, 0], [-0.04, 0, 0]], 0.0, 0.3, 24)
    out, _, _, _ = nt.trajectory_map_P(traj, u0, 0.3,
                                       plan=PropagatorPlan(n_slices=24, eps_reg=0.8),
                                       n_steps=24, eps0=eps0)
    # point reflection through the origin swaps the two nuclei
    assert np.max(np.abs(out.positions[0] + out.positions[1])) < 1e-8
    assert np.max(np.abs(out.velocities[0] + out.velocities[1])) < 5e-8


# ---------------------------------------------------------------------------
# coupled solvers


def test_fixed_point_symmetric_rest(grid16):
    u0 = lat.gaussian_spinor(grid16, (0, 0, 0), 1.3, (0.4, 0, 0, 0))
    nuclei = [NucleusState(0.5, 10.0, (0, 0, 0), (0, 0, 0))]
    fsol, traj, rep = nt.coupled_fixed_point(
        u0, nuclei, 0.3, tol=1e-9, plan=PropagatorPlan(n_slices=16, eps_reg=0.8),
        n_steps=16, contraction_const=0.2)
    assert rep.converged
    assert np.max(np.abs(traj.positions[:, -1])) < 1e-8


def test_fixed_point_returns_last_map_evaluation(grid16, monkeypatch):
    # each outer iteration is one P evaluation and the solver stops at the
    # q that passed the test: the returned field, forces and admissibility
    # failures are those of the last recorded evaluation, bit for bit, and
    # the warm-started field agrees with a cold solve along q to the Picard
    # tolerance
    u0 = lat.gaussian_spinor(grid16, (0.5, 0, 0), 1.3, (0.4, 0.1j, 0, 0))
    nuclei = [NucleusState(0.5, 10.0, (-0.6, 0, 0), (0.05, 0.02, 0))]
    T = 0.2
    picard_tol = 1e-9
    plan = PropagatorPlan(n_slices=8, eps_reg=0.75)
    map_P = nt.trajectory_map_P
    calls = []

    def recorded(*args, **kwargs):
        result = map_P(*args, **kwargs)
        calls.append(result)
        return result

    monkeypatch.setattr(nt, "trajectory_map_P", recorded)
    fsol, traj, rep = nt.coupled_fixed_point(u0, nuclei, T, tol=1e-6, plan=plan, n_steps=8,
                                             picard_tol=picard_tol, contraction_const=0.2)
    assert rep.outer_iterations >= 2
    assert len(calls) == rep.outer_iterations
    _, last, adm, forces = calls[-1]
    assert np.array_equal(fsol.times, last.times)
    for a, b in zip(fsol.snapshots, last.snapshots, strict=True):
        assert np.array_equal(a.data, b.data)
    for a, b in zip(rep.forces, forces, strict=True):
        assert np.array_equal(a.field, b.field)
        assert np.array_equal(a.internuclear, b.internuclear)
    assert rep.admissibility_failures == adm.failures
    _, cold, _, _ = map_P(traj, u0, T, plan=plan, picard_tol=picard_tol, n_steps=8, eps0=0.25)
    assert np.array_equal(fsol.times, cold.times)
    for a, b in zip(fsol.snapshots, cold.snapshots, strict=True):
        assert lat.l2_distance(a, b) < 10 * picard_tol


def _count_picard_sweeps(monkeypatch):
    picard = nt.duhamel_picard
    sweeps = []

    def counted(*args, **kwargs):
        sol, rep = picard(*args, **kwargs)
        sweeps.append(rep.iterations)
        return sol, rep

    monkeypatch.setattr(nt, "duhamel_picard", counted)
    return sweeps


def test_fixed_point_small_run_converges_in_few_evaluations(monkeypatch):
    # Anderson mixing on a P that contracts strongly: the demo config
    # converges in a handful of evaluations, to a Newton residual far below tol
    cfg = cf.load_config(Path(__file__).parents[1] / "scripts" / "configs" / "small_run.yaml")
    _, u0, nuclei = cf.build_initial_state(cfg)
    sweeps = _count_picard_sweeps(monkeypatch)
    fp = cfg.solver.fixedpoint
    _, _, rep = nt.coupled_fixed_point(
        u0, nuclei, cfg.time.T, tol=fp.tol, max_outer=fp.max_outer, theta=fp.damping,
        plan=PropagatorPlan(n_slices=cfg.time.n_slices, eps_reg=cfg.physics.epsilon_reg),
        n_steps=step_count(cfg.time.T, cfg.time.dt), eps0=cfg.physics.epsilon0,
        picard_tol=cfg.solver.picard.tol, contraction_const=cfg.solver.contraction_const)
    assert rep.outer_iterations == len(sweeps) <= 6
    assert rep.step_history[-1] < fp.tol
    assert rep.newton_residual < 1e-8


def test_fixed_point_comoving_warm_start_cuts_sweeps(grid16, monkeypatch):
    # a cold Picard solve takes about 10 sweeps here; warm-started from the
    # previous evaluation's field (translated into the new comoving frame)
    # the later solves take far fewer
    u0 = lat.gaussian_spinor(grid16, (0.5, 0, 0), 1.3, (0.4, 0.1, 0, 0))
    nuc = [NucleusState(0.5, 10.0, (-0.6, 0, 0), (0.05, 0.02, 0))]
    sweeps = _count_picard_sweeps(monkeypatch)
    plan = PropagatorPlan(frame="comoving_single", n_slices=16, eps_reg=0.75)
    _, _, rep = nt.coupled_fixed_point(u0, nuc, 0.25, tol=1e-8, plan=plan, n_steps=16,
                                       eps0=0.3, contraction_const=0.2)
    assert len(sweeps) == rep.outer_iterations >= 3
    assert sum(sweeps) < 10 * len(sweeps)


def test_fixed_point_divergence_after_max_outer_evaluations(grid16, monkeypatch):
    u0 = lat.gaussian_spinor(grid16, (0.5, 0, 0), 1.3, (0.4, 0.1j, 0, 0))
    nuclei = [NucleusState(0.5, 10.0, (-0.6, 0, 0), (0.05, 0.02, 0))]
    sweeps = _count_picard_sweeps(monkeypatch)
    with pytest.raises(nt.FixedPointDivergence) as info:
        nt.coupled_fixed_point(u0, nuclei, 0.2, tol=1e-30, max_outer=3,
                               plan=PropagatorPlan(n_slices=8, eps_reg=0.75), n_steps=8,
                               contraction_const=0.2)
    assert len(sweeps) == 3
    assert len(info.value.history) == 3
    assert all(np.isfinite(info.value.history))


def test_anderson_step_solves_affine_map_and_falls_back_to_damped_step():
    # on an affine contraction of R^3, Anderson(3) is exact once it holds
    # three residual differences; a damped step with beta = 0.5 would still
    # be off by ~2^-5 of the initial error
    rng = np.random.default_rng(3)
    A = 0.5 * rng.standard_normal((3, 3)) / 3
    c = rng.standard_normal(3)
    fixed = np.linalg.solve(np.eye(3) - A, c)
    x, xs, gs = np.zeros(3), [], []
    for _ in range(5):
        xs.append(x)
        gs.append(A @ x + c - x)
        x = nt._anderson_step(xs[-nt.ANDERSON_DEPTH - 1:], gs[-nt.ANDERSON_DEPTH - 1:], 0.5)
    assert np.max(np.abs(x - fixed)) < 1e-12
    x, g = np.array([1.0, 2.0]), np.array([0.5, -0.5])
    assert np.array_equal(nt._anderson_step([x], [g], 0.5), x + 0.5 * g)
    # equal residuals: the difference column is zero, so the problem is rank-deficient
    assert np.array_equal(nt._anderson_step([x - 1.0, x], [g, g], 0.5), x + 0.5 * g)
    with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
        nt._anderson_step([x, x + np.inf], [g, g], 0.5)


def test_fixed_point_separation_guard(grid16):
    u0 = lat.zero_spinor(grid16)
    nuclei = [NucleusState(0.5, 10.0, (-1.0, 0, 0), (0, 0, 0)),
              NucleusState(0.5, 10.0, (1.0, 0, 0), (0, 0, 0))]
    with pytest.raises(ValueError, match="separation hypothesis"):
        nt.coupled_fixed_point(u0, nuclei, 0.2, eps0=0.3)


def test_fixed_point_kepler_decoupling(grid16):
    charges = [0.6, 0.6]
    masses = [20.0, 20.0]
    q0 = [[-1.5, 0, 0], [1.5, 0, 0]]
    v0 = [[0, 0.05, 0], [0, -0.05, 0]]
    T = 1.0
    u0 = lat.zero_spinor(grid16)
    nuclei = [NucleusState(z, m, q, v) for z, m, q, v in zip(charges, masses, q0, v0)]
    fsol, traj, rep = nt.coupled_fixed_point(
        u0, nuclei, T, tol=1e-10, max_outer=60, plan=PropagatorPlan(eps_reg=0.8),
        n_steps=500, eps0=0.3)
    oracle = nbody_coulomb_oracle(charges, masses, q0, v0, T)
    q_exact = oracle.y[:6, -1].reshape(2, 3)
    assert np.max(np.abs(traj.positions[:, -1] - q_exact)) < 1e-6


def test_direct_pure_nbody_matches_oracle(grid16):
    charges = [0.6, 0.6]
    masses = [20.0, 20.0]
    q0 = [[-1.5, 0, 0], [1.5, 0, 0]]
    v0 = [[0, 0.05, 0], [0, -0.05, 0]]
    T = 1.0
    u0 = lat.zero_spinor(grid16)
    nuclei = [NucleusState(z, m, q, v) for z, m, q, v in zip(charges, masses, q0, v0)]
    fsol, traj, rep = nt.coupled_direct(u0, nuclei, T, T / 500, eps_reg=0.8)
    oracle = nbody_coulomb_oracle(charges, masses, q0, v0, T)
    q_exact = oracle.y[:6, -1].reshape(2, 3)
    assert np.max(np.abs(traj.positions[:, -1] - q_exact)) < 1e-6


def test_direct_symmetric_momentum_stays_zero():
    # needs the finer grid: the momentum artifact scales like the potential's
    # Nyquist content exp(-pi eps / h)
    g = lat.make_grid(32, 12.0)
    u0 = lat.gaussian_spinor(g, (0, 0, 0), 1.3, (0.4, 0, 0, 0))
    nuclei = [NucleusState(0.5, 10.0, (0, 0, 0), (0, 0, 0))]
    fsol, traj, rep = nt.coupled_direct(u0, nuclei, 0.3, 0.3 / 32, eps_reg=1.0)
    assert np.max(np.linalg.norm(rep.momenta, axis=1)) < 1e-8
    assert np.max(np.abs(traj.positions)) < 1e-8


def test_direct_second_order_self_convergence(grid16):
    u0 = lat.gaussian_spinor(grid16, (0.4, 0, 0), 1.3, (0.4, 0.1, 0, 0))
    nuclei = [NucleusState(0.5, 10.0, (-0.5, 0, 0), (0.05, 0.02, 0))]
    finals = []
    for M in (25, 50, 100):
        _, traj, _ = nt.coupled_direct(u0, nuclei, 0.3, 0.3 / M, eps_reg=0.8)
        finals.append(traj.positions[:, -1].copy())
    d1 = np.max(np.abs(finals[0] - finals[1]))
    d2 = np.max(np.abs(finals[1] - finals[2]))
    assert np.log2(d1 / d2) >= 1.8


def test_direct_collision_abort(grid16):
    u0 = lat.zero_spinor(grid16)
    nuclei = [NucleusState(0.5, 1.0, (-1.0, 0, 0), (0.3, 0, 0)),
              NucleusState(-0.5, 1.0, (1.0, 0, 0), (-0.3, 0, 0))]
    with pytest.raises(nt.CollisionError):
        nt.coupled_direct(u0, nuclei, 4.0, 0.02, eps_reg=0.8)


def test_direct_hands_snapshot_hartree_potential_to_next_step(grid16, monkeypatch):
    # the potential built for each snapshot's Hartree energy is the first
    # half-kick's potential of the step that starts there, bitwise
    step = nt.strang_step
    handed = []

    def recorded(u, *args, **kwargs):
        handed.append((u, kwargs["V_H"]))
        return step(u, *args, **kwargs)

    monkeypatch.setattr(nt, "strang_step", recorded)
    u0 = lat.gaussian_spinor(grid16, (0.5, 0, 0), 1.3, (0.4, 0.1j, 0, 0))
    nuclei = [NucleusState(0.5, 10.0, (-0.6, 0, 0), (0.05, 0.02, 0))]
    fsol, _, _ = nt.coupled_direct(u0, nuclei, 0.04, 0.01, eps_reg=0.75)
    assert len(handed) == 4
    for j, (u, V_H) in enumerate(handed):
        assert np.array_equal(u.data, fsol.snapshots[j].data)
        assert np.array_equal(V_H, ht.hartree_potential(u))


def test_direct_energy_momentum_drift_small(grid16):
    u0 = lat.gaussian_spinor(grid16, (0.5, 0, 0), 1.3, (0.4, 0.1j, 0, 0))
    nuclei = [NucleusState(0.5, 10.0, (-0.6, 0, 0), (0.05, 0.02, 0))]
    _, _, rep = nt.coupled_direct(u0, nuclei, 0.3, 0.3 / 32, eps_reg=0.75)
    assert rep.energy_drift < 1e-3
    assert rep.momentum_drift < 1e-3
    assert rep.charge_drift < 1e-8


def test_translation_equivariance_lattice_shift(grid16):
    h = grid16.spacing
    shift_cells = 3
    s = np.array([shift_cells * h, 0.0, 0.0])
    u0 = lat.gaussian_spinor(grid16, (0.0, 0, 0), 1.3, (0.4, 0.1, 0, 0))
    u0s = lat.SpinorField(grid16, np.roll(u0.data, shift_cells, axis=0))
    nuc = [NucleusState(0.5, 10.0, (-0.75, 0, 0), (0.05, 0, 0))]
    nuc_s = [NucleusState(0.5, 10.0, (-0.75 + s[0], 0, 0), (0.05, 0, 0))]
    fa, ta, _ = nt.coupled_direct(u0, nuc, 0.3, 0.3 / 24, eps_reg=0.75)
    fb, tb, _ = nt.coupled_direct(u0s, nuc_s, 0.3, 0.3 / 24, eps_reg=0.75)
    assert np.max(np.abs(tb.positions - (ta.positions + s))) < 1e-8
    rolled = np.roll(fa.final.data, shift_cells, axis=0)
    assert np.max(np.abs(fb.final.data - rolled)) < 1e-8


def test_cross_integrator_agreement(grid16):
    u0 = lat.gaussian_spinor(grid16, (0.5, 0, 0), 1.3, (0.4, [0.1][0] * 1j, 0, 0))
    nuclei = [NucleusState(0.5, 10.0, (-0.6, 0, 0), (0.05, 0.02, 0))]
    T = 0.3
    fa, ta, _ = nt.coupled_fixed_point(
        u0, nuclei, T, tol=1e-8, plan=PropagatorPlan(n_slices=32, eps_reg=0.75),
        n_steps=32, contraction_const=0.2)
    fb, tb, _ = nt.coupled_direct(u0, nuclei, T, T / 64, eps_reg=0.75)
    assert np.max(np.abs(ta.positions[:, -1] - tb.positions[:, -1])) < 5e-3
    rel = lat.l2_distance(fa.final, fb.final) / lat.l2_norm(fa.final)
    assert rel < 1e-2


def test_fixed_point_window_guard(grid16):
    u0 = lat.gaussian_spinor(grid16, (0, 0, 0), 1.2, (3.0, 0, 0, 0))
    nuclei = [NucleusState(0.5, 10.0, (0, 0, 0), (0, 0, 0))]
    from diraclab.propagator import ContractionWindowError

    with pytest.raises(ContractionWindowError, match="time hypothesis"):
        nt.coupled_fixed_point(u0, nuclei, 1.0, contraction_const=1.0)


def test_fixed_point_comoving_frame_matches_lab(grid16):
    # the comoving solve propagates the translated field with a drift term
    # and a static potential; after translating back, the self-consistent
    # trajectory must match the lab-frame solve within discretization error
    u0 = lat.gaussian_spinor(grid16, (0.5, 0, 0), 1.3, (0.4, 0.1, 0, 0))
    nuc = [NucleusState(0.5, 10.0, (-0.6, 0, 0), (0.05, 0.02, 0))]
    T = 0.25
    results = {}
    for frame in ("lab", "comoving_single"):
        plan = PropagatorPlan(frame=frame, n_slices=24, eps_reg=0.75)
        fsol, traj, _ = nt.coupled_fixed_point(
            u0, nuc, T, tol=1e-7, max_outer=40, theta=0.6, plan=plan, n_steps=24,
            eps0=0.3, picard_tol=1e-9, contraction_const=0.2)
        results[frame] = (fsol, traj)
    qd = np.max(np.abs(results["lab"][1].positions[0, -1]
                       - results["comoving_single"][1].positions[0, -1]))
    ud = lat.l2_distance(results["lab"][0].final, results["comoving_single"][0].final) \
        / lat.l2_norm(results["lab"][0].final)
    assert qd < 1e-6
    assert ud < 5e-3
