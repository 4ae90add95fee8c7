import numpy as np
import pytest

from diraclab import lattice as lat
from diraclab import potentials as pot


# ---------------------------------------------------------------------------
# nuclei and trajectories


def test_nucleus_state_guards():
    pot.NucleusState(0.5, 1.0, (0, 0, 0), (0, 0, 0))
    pot.NucleusState(0.0, 1.0, (0, 0, 0), (0, 0, 0))  # neutral tracer allowed
    with pytest.raises(ValueError, match="sqrt"):
        pot.NucleusState(0.9, 1.0, (0, 0, 0), (0, 0, 0))
    with pytest.raises(ValueError, match="mass"):
        pot.NucleusState(0.5, 0.0, (0, 0, 0), (0, 0, 0))


def test_trajectory_interpolation_exact_for_cubic():
    # hermite interpolation reproduces cubic paths exactly
    times = np.linspace(0.0, 1.0, 11)
    qf = lambda t: np.array([[t**3 - 0.5 * t, 2 * t, 0.0]])
    vf = lambda t: np.array([[3 * t**2 - 0.5, 2.0, 0.0]])
    traj = pot.Trajectory.from_functions([0.5], [1.0], times, qf, vf)
    for t in (0.137, 0.5, 0.731):
        assert np.allclose(traj.position(t), qf(t), atol=1e-12)
        assert np.allclose(traj.velocity(t), vf(t), atol=1e-12)


def test_trajectory_returns_node_data_exactly():
    # on the 48-step grid of scripts/configs/two_nuclei.yaml, (t - t0)/dt at
    # some node times falls a few ulps short of the node index; the
    # interpolant must still return the node data bit for bit
    rng = np.random.default_rng(0)
    times = np.linspace(0.0, 0.25, 49)
    q = rng.normal(size=(2, 49, 3))
    v = rng.normal(size=(2, 49, 3))
    traj = pot.Trajectory([0.5, 0.4], [12.0, 10.0], times, q, v)
    for j, t in enumerate(times):
        assert np.array_equal(traj.position(t), q[:, j]), j
        assert np.array_equal(traj.velocity(t), v[:, j]), j


def test_trajectory_consistency_residual_small_for_smooth_paths():
    times = np.linspace(0.0, 1.0, 65)
    qf = lambda t: np.array([[np.sin(t), np.cos(t), 0.0]])
    vf = lambda t: np.array([[np.cos(t), -np.sin(t), 0.0]])
    traj = pot.Trajectory.from_functions([0.5], [1.0], times, qf, vf)
    # trapezoid defect is O(dt^3) per step
    assert traj.consistency_residual() < (times[1] - times[0]) ** 3


def test_trajectory_accel_l1_accumulator():
    times = np.linspace(0.0, 1.0, 101)
    vf = lambda t: np.array([[t, 0.0, 0.0]])  # unit acceleration along x
    qf = lambda t: np.array([[t**2 / 2, 0.0, 0.0]])
    traj = pot.Trajectory.from_functions([0.5], [1.0], times, qf, vf)
    assert traj.accel_l1[0] == pytest.approx(1.0, rel=1e-12)


def test_trajectory_rejects_nonuniform_times():
    with pytest.raises(ValueError, match="uniform"):
        pot.Trajectory([0.5], [1.0], [0.0, 0.1, 0.3],
                       np.zeros((1, 3, 3)), np.zeros((1, 3, 3)))


# ---------------------------------------------------------------------------
# Coulomb potentials


def test_coulomb_bare_law_at_distance():
    v = pot.coulomb_value([1.0], [[0, 0, 0]], [[3.0, 0.0, 0.0]], eps=0.0)
    assert v == pytest.approx(-1.0 / 3.0, rel=1e-15)


def test_coulomb_field_value_at_center(grid16):
    nuc = pot.NucleusState(0.6, 1.0, (0, 0, 0), (0, 0, 0))
    eps = 0.5
    V = pot.coulomb_field([nuc], eps, grid16)
    assert V[0, 0, 0] == pytest.approx(-0.6 / eps, rel=1e-14)
    assert np.max(np.abs(V)) <= 0.6 / eps + 1e-14


def test_coulomb_field_even_under_reflection(grid16):
    d = 1.5
    nuclei = [pot.NucleusState(0.4, 1.0, (d, 0, 0), (0, 0, 0)),
              pot.NucleusState(0.4, 1.0, (-d, 0, 0), (0, 0, 0))]
    V = pot.coulomb_field(nuclei, 0.7, grid16)
    # x -> -x on the grid: index i -> (-i) mod n
    reflected = np.roll(V[::-1, :, :], 1, axis=0)
    assert np.max(np.abs(V - reflected)) < 1e-12


def test_coulomb_field_rejects_bad_eps(grid16):
    nuc = pot.NucleusState(0.5, 1.0, (0, 0, 0), (0, 0, 0))
    for eps in (0.0, -1.0):
        with pytest.raises(ValueError):
            pot.coulomb_field([nuc], eps, grid16)


# ---------------------------------------------------------------------------
# cutoff profile


def test_cutoff_plateau_and_support():
    assert pot.cutoff_zeta(0.5) == 1.0
    assert pot.cutoff_zeta(3.0) == 0.0
    r = np.linspace(0.0, 3.0, 3001)
    z = pot.cutoff_zeta(r)
    assert np.all(z >= 0.0) and np.all(z <= 1.0)
    assert np.all(z[r <= 1.0] == 1.0)
    assert np.all(z[r >= 2.0] == 0.0)


def test_cutoff_derivative_bound():
    prof = pot.default_profile()
    assert prof.max_abs_derivative(8001) <= 1.5 + 1e-9


def test_cutoff_derivative_consistency():
    # zeta' matches a central difference of zeta away from machine noise
    prof = pot.default_profile()
    r = np.linspace(1.01, 1.99, 197)
    h = 1e-5
    fd = (prof.value(r + h) - prof.value(r - h)) / (2 * h)
    assert np.max(np.abs(fd - prof.derivative(r))) < 1e-7


def test_cutoff_total_drop_is_one():
    prof = pot.default_profile()
    r = np.linspace(1.0, 2.0, 20001)
    total = np.trapezoid(prof.derivative(r), r)
    assert total == pytest.approx(-1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# freezing map


def _single_map(eps0=1.0, disp=(0.5, 0.0, 0.0), T=1.0, steps=8, Z=0.5):
    d = np.asarray(disp, dtype=float)
    traj = pot.Trajectory.from_functions(
        [Z], [10.0], np.linspace(0.0, T, steps + 1),
        lambda t: np.array([d * (t / T)]), lambda t: np.array([d / T]))
    return pot.FreezingMap(np.zeros((1, 3)), eps0, traj)


def test_freezing_map_identity_at_start():
    fmap = _single_map()
    x = np.array([[0.3, 0.2, -0.4], [1.5, 0.0, 0.0], [5.0, 5.0, 5.0]])
    assert np.allclose(fmap.apply(0.0, x), x)


def test_freezing_map_outside_supports():
    fmap = _single_map(eps0=1.0)
    x = np.array([[2.5, 0.0, 0.0], [0.0, 3.0, 0.0]])  # |x| > 2 eps0
    assert np.allclose(fmap.apply(1.0, x), x)


def test_freezing_map_plateau_shift():
    fmap = _single_map(eps0=1.0, disp=(0.5, 0.1, 0.0))
    x = np.array([[0.2, 0.0, 0.0], [0.0, -0.5, 0.3]])  # |x| < eps0
    out = fmap.apply(1.0, x)
    assert np.allclose(out, x + np.array([0.5, 0.1, 0.0]))


def test_freezing_map_rejects_overlapping_supports():
    traj = pot.Trajectory.static([0.5, 0.5], [1.0, 1.0],
                                 [[0, 0, 0], [3.0, 0, 0]], 0.0, 1.0, 4)
    with pytest.raises(ValueError, match="overlap"):
        pot.FreezingMap([[0, 0, 0], [3.0, 0, 0]], 1.0, traj)


def test_jacobian_bound_zero_at_start():
    fmap = _single_map()
    assert fmap.jacobian_deviation(0.0) == 0.0


def test_jacobian_bound_vs_displacement():
    eps0 = 1.0
    for delta in (0.1, 0.3, 0.6):
        fmap = _single_map(eps0=eps0, disp=(delta * eps0, 0, 0))
        bound = fmap.jacobian_deviation(1.0)
        assert bound <= 1.5 * delta + 1e-6
        assert bound <= fmap.closed_form_jacobian_bound(1.0) + 1e-6
        assert bound >= 1.4 * delta  # sup |zeta'| = 3/2 is attained on the plateau


def test_jacobian_bound_matches_direct_sampling():
    fmap = _single_map(eps0=1.0, disp=(0.4, 0.2, -0.1))
    t = 1.0
    rng = np.random.default_rng(0)
    pts = rng.uniform(-2.2, 2.2, size=(4000, 3))
    jac = fmap.jacobian_matrix(t, pts)
    cols = np.linalg.norm(jac - np.eye(3), axis=1)  # column norms
    sampled = float(np.max(cols))
    bound = fmap.jacobian_deviation(t)
    assert sampled <= bound + 1e-9
    assert sampled >= 0.75 * bound  # random sampling approaches the radial sup


def test_non_bijective_flagged():
    fmap = _single_map(eps0=0.5, disp=(0.45, 0, 0))  # 1.5*0.45/0.5 = 1.35 >= 1
    assert fmap.jacobian_deviation(1.0) >= 1.0
    assert not fmap.is_bijective(1.0)
    u = lat.zero_spinor(lat.make_grid(16, 8.0))
    with pytest.raises(ValueError, match="bijectivity"):
        pot.pullback(fmap, 1.0, u)


# ---------------------------------------------------------------------------
# pullback


def test_pullback_identity_map(grid32, rng):
    fmap = _single_map(eps0=1.5)
    u = lat.random_smooth_field(grid32, rng, kmax=4, decay=0.8)
    out = pot.pullback(fmap, 0.0, u)
    assert lat.l2_distance(out, u) / lat.l2_norm(u) < 1e-12


def test_pullback_plateau_matches_spectral_translation():
    g = lat.make_grid(64, 20.0)
    d = np.array([0.37, 0.21, -0.13])
    traj = pot.Trajectory.from_functions(
        [0.5], [10.0], np.linspace(0, 1, 9),
        lambda t: np.array([d * t]), lambda t: np.array([d]))
    fmap = pot.FreezingMap(np.zeros((1, 3)), 5.0, traj)
    u = lat.gaussian_spinor(g, (0, 0, 0), 1.1, (1, 0.3, 0, 0))
    pb = pot.pullback(fmap, 1.0, u)
    exact = lat.translate(u, d)  # phi(x) = x + d where the field lives
    assert lat.l2_distance(pb, exact) / lat.l2_norm(u) < 1e-4


def test_pullback_l2_ratio_within_jacobian_bounds():
    g = lat.make_grid(32, 16.0)
    fmap = _single_map(eps0=2.5, disp=(1.0, 0.4, 0.0))
    u = lat.gaussian_spinor(g, (0.5, 0, 0), 1.6, (1, 0, 0.2, 0))
    out = pot.pullback(fmap, 1.0, u)  # raises if the ratio leaves the window
    b = fmap.jacobian_deviation(1.0)
    C = (1 + b) ** 1.5
    ratio = lat.l2_norm(out) / lat.l2_norm(u)
    assert (1 - 0.05) / C <= ratio <= C * (1 + 0.05)


def test_pullback_error_estimate_small():
    g = lat.make_grid(32, 16.0)
    fmap = _single_map(eps0=2.5, disp=(0.8, 0.0, 0.3))
    u = lat.gaussian_spinor(g, (0, 0, 0), 1.6, (1, 0, 0, 0))
    est = pot.pullback_error_estimate(fmap, 1.0, u)
    assert est < 5e-3


# ---------------------------------------------------------------------------
# residual potential


def test_residual_potential_support_and_bound():
    g = lat.make_grid(32, 24.0)
    eps0 = 1.5
    anchors = np.array([[-4.0, 0, 0], [4.0, 0, 0]])
    d = np.array([[0.4, 0.1, 0.0], [-0.2, 0.3, 0.0]])
    traj = pot.Trajectory.from_functions(
        [0.5, 0.4], [10.0, 10.0], np.linspace(0, 1, 9),
        lambda t: anchors + d * t, lambda t: d)
    fmap = pot.FreezingMap(anchors, eps0, traj)
    rep = pot.residual_potential(fmap, 1.0, g)
    assert rep.interior_max < 1e-6            # terms vanish inside their plateau
    assert rep.sup_abs <= rep.bound + 1e-6    # 3 sum|Z| / eps0
    assert rep.bound_satisfied


def test_residual_potential_zero_at_start():
    g = lat.make_grid(16, 16.0)
    fmap = _single_map(eps0=2.0)
    rep = pot.residual_potential(fmap, 0.0, g)
    assert rep.sup_abs < 1e-12


# ---------------------------------------------------------------------------
# admissibility


def test_admissibility_stationary_pass():
    traj = pot.Trajectory.static([0.5, 0.5], [1.0, 1.0],
                                 [[0, 0, 0], [2.4, 0, 0]], 0.0, 1.0, 8)
    rep = pot.admissibility_check(traj, eps0=0.3, velocity_cap=0.25)
    assert rep.passed
    assert rep.min_separation == pytest.approx(2.4)


def test_admissibility_separation_failure_names_pair_and_time():
    times = np.linspace(0.0, 1.0, 11)
    qf = lambda t: np.array([[-1.3 + 1.2 * t, 0, 0], [1.3 - 1.2 * t, 0, 0]])
    vf = lambda t: np.array([[1.2, 0, 0], [-1.2, 0, 0]])
    traj = pot.Trajectory.from_functions([0.5, 0.5], [1.0, 1.0], times, qf, vf)
    rep = pot.admissibility_check(traj, eps0=0.3, velocity_cap=10.0)
    assert not rep.passed
    assert "separation hypothesis" in rep.failures[0]
    assert "q_0" in rep.failures[0] and "q_1" in rep.failures[0]
    assert "t = 1" in rep.failures[0]


def test_admissibility_velocity_cap_failure():
    traj = pot.Trajectory.constant_velocity([0.5], [1.0], [[0, 0, 0]],
                                            [[0.4, 0, 0]], 0.0, 1.0, 8)
    rep = pot.admissibility_check(traj, eps0=0.3, velocity_cap=0.25)
    assert not rep.passed
    assert "velocity hypothesis" in rep.failures[0]
    assert "0.4" in rep.failures[0]


def test_gradient_decomposition_bound():
    # grad(Phi u) = (grad u) o phi + P_t u with ||P_t u|| controlled by the
    # Jacobian deviation; checked spectrally with interpolation slack
    g = lat.make_grid(32, 16.0)
    fmap = _single_map(eps0=2.5, disp=(0.7, 0.3, 0.0))
    u = lat.gaussian_spinor(g, (0.3, 0, 0), 1.6, (1, 0, 0.2, 0))
    t = 1.0
    bound = fmap.jacobian_deviation(t)
    uhat = lat.to_momentum(u)
    kx, ky, kz = g.freq_mesh
    grads = [lat.to_position(g, 1j * K[..., None] * uhat) for K in (kx, ky, kz)]
    pulled_grads = [pot.pullback(fmap, t, gu, check_l2=False) for gu in grads]
    pb = pot.pullback(fmap, t, u, check_l2=False)
    pbhat = lat.to_momentum(pb)
    residual_sq = 0.0
    for K, pg in zip((kx, ky, kz), pulled_grads):
        dPhi = lat.to_position(g, 1j * K[..., None] * pbhat)
        residual_sq += lat.l2_distance(dPhi, pg) ** 2
    residual = np.sqrt(residual_sq)
    h1 = lat.sobolev_norm(u, 1.0)
    assert residual <= bound * (1 + bound) ** 1.5 * h1 * 1.10
    assert residual > 0.05 * bound * h1  # the decomposition term is genuinely present
