from pathlib import Path

import numpy as np
import pytest

from diraclab import config as cf
from diraclab import hartree as ht
from diraclab import lattice as lat
from diraclab import newton as nt
from diraclab import propagator as pr
from diraclab.dirac import apply_symbol
from diraclab.potentials import NucleusState, Trajectory, coulomb_field
from diraclab.propagator import PropagatorPlan, step_count
from oracles import (
    internuclear_oracle,
    nbody_coulomb_oracle,
    snapshot_oracle,
    spectral_snapshot_oracle,
)


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
    u = lat.SpinorField(g, env * raw.data)
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


def test_internuclear_terms_match_double_sum_oracle():
    charges = [0.5, -0.3, 0.7]
    positions = [(-2.0, 0.3, 0.0), (1.0, 0.0, 0.2), (1.6, 0.5, -0.1)]  # closest pair (1, 2)
    nuclei = [NucleusState(z, 1.0, q, (0, 0, 0)) for z, q in zip(charges, positions)]
    F_ref, E_ref = internuclear_oracle(charges, positions)
    F = nt.internuclear_force(nuclei)
    assert np.allclose(F, F_ref, rtol=1e-14, atol=1e-14 * np.max(np.abs(F_ref)))
    assert nt.internuclear_energy(nuclei) == pytest.approx(E_ref, rel=1e-14)
    assert np.max(np.abs(F.sum(axis=0))) < 1e-15 * np.max(np.abs(F))


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


@pytest.mark.parametrize("n", [16, 64])
def test_field_force_marginal_sums_match_whole_grid_sums(n):
    # force_breakdown weights each displacement, which varies along one axis,
    # against the marginal sum of w = rho / (r^2 + eps^2)^(3/2); the whole-grid
    # sums of w dx, w dy and w dz give the same force to roundoff
    grid = lat.make_grid(n, 16.0)
    u = lat.random_smooth_field(grid, np.random.default_rng(n), kmax=3, decay=0.8)
    nuclei = [NucleusState(0.5, 12.0, (-1.3, 0.2, 0.1), (0, 0, 0)),
              NucleusState(0.4, 10.0, (1.3, -0.3, 0.05), (0, 0, 0))]
    eps = 1.0
    rho, h3 = lat.density(u), grid.spacing**3
    fb = nt.force_breakdown(u, nuclei, eps)
    for k, nuc in enumerate(nuclei):
        dx, dy, dz = grid.displacement_mesh(nuc.q)
        w = rho / (dx * dx + dy * dy + dz * dz + eps**2) ** 1.5
        whole = nuc.Z * h3 * np.array([np.sum(w * dx), np.sum(w * dy), np.sum(w * dz)])
        assert np.max(np.abs(fb.field[k] - whole)) <= 1e-13 * np.max(np.abs(whole))


def test_energy_breakdown_consistent_regularization(grid16):
    u = lat.gaussian_spinor(grid16, (0, 0, 0), 1.2, (0.5, 0, 0, 0))
    nuclei = [NucleusState(0.5, 10.0, (0.9, 0, 0), (0.1, 0, 0))]
    eb, _, _, _ = nt.snapshot_diagnostics(u, nuclei, 0.8, 1.0)
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
    eb, p, hsigma, q = nt.snapshot_diagnostics(u, nuclei, eps, sigma)
    want = snapshot_oracle(u, nuclei, eps, sigma)
    got = {"E_field_kinetic": eb.field_kinetic, "E_interaction": eb.interaction,
           "E_hartree": eb.hartree, "E_nuclear_kinetic": eb.nuclear_kinetic,
           "E_internuclear": eb.internuclear, "E_total": eb.total, "hsigma": hsigma,
           "p_x": p[0], "p_y": p[1], "p_z": p[2]}
    for key, value in got.items():
        assert value == pytest.approx(want[key], rel=1e-12), key
    # the caller's potential and density are the ones the pass would build
    V = coulomb_field(nuclei, eps, grid)
    eb_given, p_given, hsigma_given, q_given = nt.snapshot_diagnostics(
        u, nuclei, eps, sigma, rho=lat.density(u), V=V)
    assert eb_given == eb and np.array_equal(p_given, p) and hsigma_given == hsigma
    assert q_given == q


@pytest.mark.parametrize("n", [16, 32])
def test_snapshot_kinetic_energy_matches_symbol_form(n):
    # the 2-spinor block sum gives <uhat, H_xi uhat> without building H_xi uhat
    grid = lat.make_grid(n, 12.0)
    u = lat.random_smooth_field(grid, np.random.default_rng(n), kmax=4, decay=0.8)
    uhat = lat.to_momentum(u)
    want = np.vdot(uhat, apply_symbol(grid, uhat)).real / grid.volume
    got = nt.snapshot_diagnostics(u, TWO_NUCLEI, 0.8, 1.25)[0].field_kinetic
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("n", [16, 32])
def test_snapshot_pass_matches_dense_spectral_oracle(n):
    # marginal sums dotted with 1-D frequencies against full-grid products;
    # each term relative to the scale that bounds it (sum |H_xi| |uhat|^2 for
    # the kinetic energy, sum |xi| |uhat|^2 for the momentum)
    grid = lat.make_grid(n, 12.0)
    for seed in range(3):
        u = lat.random_smooth_field(grid, np.random.default_rng(seed), kmax=4, decay=0.5)
        eb, p, hsigma, q = nt.snapshot_diagnostics(u, [], 0.8, 1.25)
        want = spectral_snapshot_oracle(u, 1.25)
        w = np.sum(np.abs(lat.to_momentum(u)) ** 2, axis=0)
        kinetic_scale = np.sum(grid.mode_energy * w) / grid.volume
        momentum_scale = np.sum(np.sqrt(grid.freq_sq) * w) / grid.volume
        assert abs(eb.field_kinetic - want["field_kinetic"]) <= 1e-14 * kinetic_scale
        assert np.max(np.abs(p - want["momentum"])) <= 1e-14 * momentum_scale
        assert hsigma == pytest.approx(want["hsigma"], rel=1e-14, abs=0.0)
        assert q == pytest.approx(want["charge"], rel=1e-14, abs=0.0)


# ---------------------------------------------------------------------------
# trajectory map P


def test_map_P_symmetric_resting_nucleus_stays(grid16):
    u0 = lat.gaussian_spinor(grid16, (0, 0, 0), 1.3, (0.4, 0, 0, 0))
    traj = Trajectory.static([0.5], [10.0], [[0, 0, 0]], 0.0, 0.3, 24)
    plan = PropagatorPlan(eps_reg=0.8)
    out, fsol, rep, *_ = nt.trajectory_map_P(traj, u0, 0.3, plan=plan, n_steps=24)
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
    out, *_ = nt.trajectory_map_P(traj_in, u0, T, plan=PropagatorPlan(eps_reg=0.8),
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
    out, *_ = nt.trajectory_map_P(traj, u0, 0.3,
                                  plan=PropagatorPlan(eps_reg=0.8),
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
        u0, nuclei, 0.3, tol=1e-9, plan=PropagatorPlan(eps_reg=0.8),
        n_steps=16, contraction_const=0.2)
    assert np.max(np.abs(traj.positions[:, -1])) < 1e-8


def test_fixed_point_returns_last_map_evaluation(grid16, monkeypatch):
    # each outer iteration is one P evaluation and the solver stops at the
    # q that passed the test: the returned field, forces and admissibility
    # failures are those of the last recorded evaluation, bit for bit; no
    # evaluation starts from an earlier one, so a fresh evaluation along the
    # accepted q gives the returned field bit for bit too
    u0 = lat.gaussian_spinor(grid16, (0.5, 0, 0), 1.3, (0.4, 0.1j, 0, 0))
    nuclei = [NucleusState(0.5, 10.0, (-0.6, 0, 0), (0.05, 0.02, 0))]
    T = 0.2
    picard_tol = 1e-9
    plan = PropagatorPlan(eps_reg=0.75)
    # at tol 1e-6 the direct start would pass at its first evaluation (6.8e-7)
    map_P = nt.trajectory_map_P
    calls = []

    def recorded(*args, **kwargs):
        result = map_P(*args, **kwargs)
        calls.append(result)
        return result

    monkeypatch.setattr(nt, "trajectory_map_P", recorded)
    fsol, traj, rep = nt.coupled_fixed_point(u0, nuclei, T, tol=1e-7, plan=plan, n_steps=8,
                                             picard_tol=picard_tol, contraction_const=0.2)
    assert rep.outer_iterations >= 2
    assert len(calls) == rep.outer_iterations
    _, last, adm, forces, *_ = calls[-1]
    assert np.array_equal(fsol.times, last.times)
    for a, b in zip(fsol.snapshots, last.snapshots, strict=True):
        assert np.array_equal(a.data, b.data)
    for a, b in zip(rep.forces, forces, strict=True):
        assert np.array_equal(a.field, b.field)
        assert np.array_equal(a.internuclear, b.internuclear)
    assert rep.admissibility_failures == adm.failures
    _, cold, *_ = map_P(traj, u0, T, plan=plan, picard_tol=picard_tol, n_steps=8, eps0=0.25)
    assert np.array_equal(fsol.times, cold.times)
    for a, b in zip(fsol.snapshots, cold.snapshots, strict=True):
        assert np.array_equal(a.data, b.data)


def test_fixed_point_feeds_each_evaluation_the_previous_output(grid16, monkeypatch):
    # plain iteration q <- P(q): the first evaluation runs along the direct
    # start, and each later one along the trajectory the one before returned,
    # bit for bit; the accepted q is the last evaluation's input.  At tol 1e-12
    # the iteration takes 3 evaluations (residuals 6.8e-7, 2.8e-12, 1.7e-17)
    u0 = lat.gaussian_spinor(grid16, (0.5, 0, 0), 1.3, (0.4, 0.1j, 0, 0))
    nuclei = [NucleusState(0.5, 10.0, (-0.6, 0, 0), (0.05, 0.02, 0))]
    T, M, eps = 0.2, 8, 0.75
    map_P = nt.trajectory_map_P
    calls = []

    def recorded(traj_in, *args, **kwargs):
        result = map_P(traj_in, *args, **kwargs)
        calls.append((traj_in, result[0]))
        return result

    monkeypatch.setattr(nt, "trajectory_map_P", recorded)
    _, traj, rep = nt.coupled_fixed_point(u0, nuclei, T, tol=1e-12,
                                          plan=PropagatorPlan(eps_reg=eps),
                                          n_steps=M, contraction_const=0.2)
    assert len(calls) == rep.outer_iterations >= 3
    start = nt._direct_start(u0, *nt._initial_arrays(nuclei), T, M, eps)
    inputs = [start] + [out for _, out in calls[:-1]]
    for (traj_in, _), want in zip(calls, inputs, strict=True):
        assert np.array_equal(traj_in.times, want.times)
        assert np.array_equal(traj_in.positions, want.positions)
        assert np.array_equal(traj_in.velocities, want.velocities)
    assert traj is calls[-1][0]


def _count_march_iterations(monkeypatch):
    """The local iterations of each march the fixed point calls, in call order."""
    march = nt.duhamel_march
    iterations = []

    def counted(*args, **kwargs):
        sol, rep = march(*args, **kwargs)
        iterations.append(rep.iterations)
        return sol, rep

    monkeypatch.setattr(nt, "duhamel_march", counted)
    return iterations


@pytest.mark.parametrize("name", ["small_run", "two_nuclei"])
def test_fixed_point_demo_configs_converge_in_few_evaluations(monkeypatch, name):
    # plain iteration on a P that contracts strongly, started from the force
    # curve of two direct steps: the first residual is already below 1e-4
    # (7.0e-2 and 3.1e-2 from the constant-velocity path), and each demo config
    # converges in 2 evaluations, to a Newton residual far below tol
    cfg = cf.load_config(Path(__file__).parents[1] / "scripts" / "configs" / f"{name}.yaml")
    _, u0, nuclei = cf.build_initial_state(cfg)
    marches = _count_march_iterations(monkeypatch)
    fp = cfg.solver.fixedpoint
    _, _, rep = nt.coupled_fixed_point(
        u0, nuclei, cfg.time.T, tol=fp.tol, max_outer=fp.max_outer,
        plan=PropagatorPlan(eps_reg=cfg.physics.epsilon_reg),
        n_steps=step_count(cfg.time.T, cfg.time.dt), eps0=cfg.physics.epsilon0,
        picard_tol=cfg.solver.picard.tol, contraction_const=cfg.solver.contraction_const)
    assert rep.step_history[0] < 1e-4
    assert rep.outer_iterations == len(marches) == 2
    assert rep.local_iterations == marches
    assert rep.step_history[-1] < fp.tol
    assert rep.newton_residual < {"small_run": 1e-8, "two_nuclei": 1e-9}[name]


def test_fixed_point_starts_from_the_direct_integrators_first_two_steps(grid16, monkeypatch):
    # the start takes two direct steps of delta = T/M, whose forces F(0), F(delta)
    # and F(2 delta) are coupled_direct's over [0, 2 delta], bit for bit, and its
    # trajectory is their quadratic integrated from the initial data: at the
    # nodes its acceleration is that quadratic's to roundoff
    u0 = lat.gaussian_spinor(grid16, (0.5, 0, 0), 1.3, (0.4, 0.1j, 0, 0))
    nuclei = [NucleusState(0.5, 10.0, (-0.6, 0, 0), (0.05, 0.02, 0)),
              NucleusState(0.4, 12.0, (2.4, 0.3, 0), (-0.03, 0, 0.01))]
    T, M, eps = 0.2, 8, 0.75
    delta = T / M
    _, direct, rep = nt.coupled_direct(u0, nuclei, 2 * delta, delta, eps_reg=eps)
    step = nt._direct_step
    forces = []

    def recorded(u, q, v, force, *args):
        out = step(u, q, v, force, *args)
        forces.extend([force, out[3]] if not forces else [out[3]])
        return out

    monkeypatch.setattr(nt, "_direct_step", recorded)
    charges, masses, q0, v0 = nt._initial_arrays(nuclei)
    traj = nt._direct_start(u0, charges, masses, q0, v0, T, M, eps)
    assert len(forces) == len(rep.forces) == 3
    for a, b in zip(forces, rep.forces, strict=True):
        assert np.array_equal(a.field, b.field)
        assert np.array_equal(a.internuclear, b.internuclear)
    assert np.array_equal(traj.times, np.linspace(0.0, T, M + 1))
    assert np.array_equal(traj.positions[:, 0], q0) and np.array_equal(traj.velocities[:, 0], v0)
    F0, F1, F2 = (fb.total for fb in forces)
    t = traj.times[1:-1, None, None] / delta
    quadratic = F0 + t * (F1 - F0) + 0.5 * t * (t - 1) * (F2 - 2 * F1 + F0)
    acc = (traj.positions[:, 2:] - 2 * traj.positions[:, 1:-1] + traj.positions[:, :-2]) / delta**2
    want = np.transpose(quadratic / masses[None, :, None], (1, 0, 2))
    assert np.max(np.abs(acc - want)) < 1e-9 * np.max(np.abs(want))
    # the quadratic takes the three forces at their nodes, so the start's
    # velocity-Verlet integration is on the direct trajectory there to roundoff
    assert np.max(np.abs(traj.positions[:, :3] - direct.positions)) < 1e-14
    assert np.max(np.abs(traj.velocities[:, :3] - direct.velocities)) < 1e-14


def test_fixed_point_comoving_march_takes_a_few_local_iterations_per_step(grid16,
                                                                         monkeypatch):
    # the comoving solve marches the translated field like the lab solve:
    # every evaluation starts afresh and takes a few local iterations per step;
    # the direct start's residual (5.8e-6) is above tol, so a second
    # evaluation marches too
    u0 = lat.gaussian_spinor(grid16, (0.5, 0, 0), 1.3, (0.4, 0.1, 0, 0))
    nuc = [NucleusState(0.5, 10.0, (-0.6, 0, 0), (0.05, 0.02, 0))]
    marches = _count_march_iterations(monkeypatch)
    M = 16
    plan = PropagatorPlan(frame="comoving_single", eps_reg=0.75)
    _, _, rep = nt.coupled_fixed_point(u0, nuc, 0.25, tol=1e-8, plan=plan, n_steps=M,
                                       eps0=0.3, contraction_const=0.2)
    assert len(marches) == rep.outer_iterations >= 2
    assert rep.local_iterations == marches
    assert all(M <= k <= 6 * M for k in marches)


def test_fixed_point_divergence_after_max_outer_evaluations(grid16, monkeypatch):
    u0 = lat.gaussian_spinor(grid16, (0.5, 0, 0), 1.3, (0.4, 0.1j, 0, 0))
    nuclei = [NucleusState(0.5, 10.0, (-0.6, 0, 0), (0.05, 0.02, 0))]
    marches = _count_march_iterations(monkeypatch)
    with pytest.raises(nt.FixedPointDivergence) as info:
        nt.coupled_fixed_point(u0, nuclei, 0.2, tol=1e-30, max_outer=3,
                               plan=PropagatorPlan(eps_reg=0.75), n_steps=8,
                               contraction_const=0.2)
    assert len(marches) == 3
    assert len(info.value.history) == 3
    assert all(np.isfinite(info.value.history))


def test_fixed_point_separation_guard(grid16):
    u0 = lat.zero_spinor(grid16)
    nuclei = [NucleusState(0.5, 10.0, (-1.0, 0, 0), (0, 0, 0)),
              NucleusState(0.5, 10.0, (1.0, 0, 0), (0, 0, 0))]
    with pytest.raises(ValueError, match="separation hypothesis"):
        nt.coupled_fixed_point(u0, nuclei, 0.2, n_steps=8, eps0=0.3)


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


def test_direct_collision_names_the_pair(grid16):
    # nuclei 1 and 2 (closest pair) close in on each other; the floor is 2h = 1.5
    u0 = lat.zero_spinor(grid16)
    nuclei = [NucleusState(0.5, 1.0, (-4.0, 0, 0), (0, 0, 0)),
              NucleusState(0.3, 1.0, (0.0, 0, 0), (1.0, 0, 0)),
              NucleusState(-0.3, 1.0, (1.8, 0, 0), (-1.0, 0, 0))]
    with pytest.raises(nt.CollisionError, match="nuclei 1 and 2 closer than the resolvable scale"):
        nt.coupled_direct(u0, nuclei, 0.4, 0.02, eps_reg=0.8)


def test_direct_rejects_nuclei_that_start_closer_than_the_floor():
    # 0.4 apart at t = 0 against a floor 2h = 3.0 (n = 8, L = 12); flying apart
    # at +-20 they end the run above the floor, so only a t = 0 check sees them
    grid = lat.make_grid(8, 12.0)
    nuclei = [NucleusState(0.5, 1.0, (-0.2, 0, 0), (-20.0, 0, 0)),
              NucleusState(0.5, 1.0, (0.2, 0, 0), (20.0, 0, 0))]
    with pytest.raises(nt.CollisionError,
                       match="nuclei 0 and 1 closer than the resolvable scale 3 at t=0$"):
        nt.coupled_direct(lat.zero_spinor(grid), nuclei, 0.2, 0.1, eps_reg=0.8)


def test_direct_hands_snapshot_hartree_potential_to_next_step(grid16, monkeypatch):
    # each step's first half-kick takes, bitwise, the phase that the previous
    # step's second half-kick built from the step-end potential and the Hartree
    # potential of its pre-kick field w (the first step, the phase of u0's
    # potentials), and that Hartree potential is the snapshot's own up to
    # roundoff; snapshot 0 is u0 and snapshot j + 1 the output of step j (the
    # run keeps no list)
    step = nt.strang_step
    handed = []

    def recorded(u, *args, **kwargs):
        out = step(u, *args, **kwargs)
        handed.append((u, kwargs["kick"], kwargs["V_out"], out))
        return out

    monkeypatch.setattr(nt, "strang_step", recorded)
    u0 = lat.gaussian_spinor(grid16, (0.5, 0, 0), 1.3, (0.4, 0.1j, 0, 0))
    nuclei = [NucleusState(0.5, 10.0, (-0.6, 0, 0), (0.05, 0.02, 0))]
    fsol, _, _ = nt.coupled_direct(u0, nuclei, 0.04, 0.01, eps_reg=0.75)
    assert len(handed) == 4
    snapshots = [u0] + [out[0] for *_, out in handed]
    built = [ht.hartree_potential(u0)] + [out[2] for *_, out in handed]
    potentials = [coulomb_field(nuclei, 0.75, grid16)] + [V_out for _, _, V_out, _ in handed]
    for j, (u, kick, _, _) in enumerate(handed):
        assert np.array_equal(u.data, snapshots[j].data)
        assert np.array_equal(kick, pr._half_kick(0.04 / 4, potentials[j], built[j]))
        assert j == 0 or kick is handed[j - 1][3][3]
        want = ht.hartree_potential(u)
        assert np.max(np.abs(built[j] - want)) <= 1e-14 * np.max(np.abs(want))
    assert fsol.final is snapshots[-1]


@pytest.mark.parametrize("M", [4, 8])
def test_direct_run_builds_one_half_kick_phase_per_node(grid16, monkeypatch, M):
    # a step's second half-kick phase is the next step's first and is handed
    # on, so M steps build M + 1 phases (2 M when every step builds both of its
    # own), and the fixed point's start, a first node and two steps, builds 3
    unit_phase, built = pr._unit_phase, []

    def counted(theta):
        built.append(theta.shape)
        return unit_phase(theta)

    monkeypatch.setattr(pr, "_unit_phase", counted)
    u0 = lat.gaussian_spinor(grid16, (0.5, 0, 0), 1.3, (0.4, 0.1j, 0, 0))
    nuclei = [NucleusState(0.5, 10.0, (-0.6, 0, 0), (0.05, 0.02, 0))]
    nt.coupled_direct(u0, nuclei, 0.01 * M, 0.01, eps_reg=0.75)
    assert built == [(16, 16, 16)] * (M + 1)
    built.clear()
    nt._direct_start(u0, *nt._initial_arrays(nuclei), 0.01 * M, M, 0.75)
    assert len(built) == 3


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
    u0s = lat.SpinorField(grid16, np.roll(u0.data, shift_cells, axis=1))  # along x
    nuc = [NucleusState(0.5, 10.0, (-0.75, 0, 0), (0.05, 0, 0))]
    nuc_s = [NucleusState(0.5, 10.0, (-0.75 + s[0], 0, 0), (0.05, 0, 0))]
    fa, ta, _ = nt.coupled_direct(u0, nuc, 0.3, 0.3 / 24, eps_reg=0.75)
    fb, tb, _ = nt.coupled_direct(u0s, nuc_s, 0.3, 0.3 / 24, eps_reg=0.75)
    assert np.max(np.abs(tb.positions - (ta.positions + s))) < 1e-8
    rolled = np.roll(fa.final.data, shift_cells, axis=1)
    assert np.max(np.abs(fb.final.data - rolled)) < 1e-8


def test_cross_integrator_agreement(grid16):
    u0 = lat.gaussian_spinor(grid16, (0.5, 0, 0), 1.3, (0.4, [0.1][0] * 1j, 0, 0))
    nuclei = [NucleusState(0.5, 10.0, (-0.6, 0, 0), (0.05, 0.02, 0))]
    T = 0.3
    fa, ta, _ = nt.coupled_fixed_point(
        u0, nuclei, T, tol=1e-8, plan=PropagatorPlan(eps_reg=0.75),
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
        nt.coupled_fixed_point(u0, nuclei, 1.0, n_steps=8, contraction_const=1.0)


def test_fixed_point_comoving_frame_matches_lab(grid16):
    # the comoving solve propagates the translated field with a drift term
    # and a static potential; after translating back, the self-consistent
    # trajectory must match the lab-frame solve within discretization error
    u0 = lat.gaussian_spinor(grid16, (0.5, 0, 0), 1.3, (0.4, 0.1, 0, 0))
    nuc = [NucleusState(0.5, 10.0, (-0.6, 0, 0), (0.05, 0.02, 0))]
    T = 0.25
    results = {}
    for frame in ("lab", "comoving_single"):
        plan = PropagatorPlan(frame=frame, eps_reg=0.75)
        fsol, traj, _ = nt.coupled_fixed_point(
            u0, nuc, T, tol=1e-7, max_outer=40, plan=plan, n_steps=24,
            eps0=0.3, picard_tol=1e-9, contraction_const=0.2)
        results[frame] = (fsol, traj)
    qd = np.max(np.abs(results["lab"][1].positions[0, -1]
                       - results["comoving_single"][1].positions[0, -1]))
    ud = lat.l2_distance(results["lab"][0].final, results["comoving_single"][0].final) \
        / lat.l2_norm(results["lab"][0].final)
    assert qd < 1e-6
    assert ud < 5e-3
