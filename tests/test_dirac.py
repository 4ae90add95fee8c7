import numpy as np
import pytest

from diraclab import dirac as dr
from diraclab import lattice as lat
from oracles import dense_mode_exponential, fd4_derivative


def test_matrix_entries():
    m = dr.dirac_matrices()
    assert m.alpha1[0, 3] == 1.0  # off-diagonal sigma_1 block
    assert m.beta[0, 0] == 1.0 and m.beta[2, 2] == -1.0


def test_all_sixteen_anticommutation_identities():
    m = dr.dirac_matrices()
    mats = (*m.alphas, m.beta)
    for i, A in enumerate(mats):
        for j, B in enumerate(mats):
            target = 2.0 * np.eye(4) if i == j else np.zeros((4, 4))
            assert np.array_equal(A @ B + B @ A, target), (i, j)


def test_hermiticity_exact():
    m = dr.dirac_matrices()
    for A in (*m.alphas, m.beta):
        assert np.array_equal(A, A.conj().T)


def test_alpha2_squares_to_identity():
    m = dr.dirac_matrices()
    assert np.array_equal(m.alpha2 @ m.alpha2, np.eye(4))


def test_alpha3_beta_anticommute():
    m = dr.dirac_matrices()
    assert np.array_equal(m.alpha3 @ m.beta + m.beta @ m.alpha3, np.zeros((4, 4)))


def test_zero_momentum_gives_beta(grid16):
    w = np.array([0.3, -0.1, 0.7j, 0.2])
    u = lat.constant_spinor(grid16, w)
    out = dr.apply_free_dirac(u)
    expected = dr.dirac_matrices().beta @ w
    assert np.max(np.abs(out.data - expected)) < 1e-12


def test_plane_wave_eigenvector(grid16):
    mode = (2, 1, -1)
    xi = 2 * np.pi / grid16.box_length * np.array(mode)
    m = dr.dirac_matrices()
    H = sum(x * a for x, a in zip(xi, m.alphas)) + m.beta
    lam, vecs = np.linalg.eigh(H)
    w = vecs[:, -1]
    u = lat.plane_wave(grid16, mode, w)
    out = dr.apply_free_dirac(u)
    expected_lambda = np.sqrt(1 + xi @ xi)
    assert lam[-1] == pytest.approx(expected_lambda, rel=1e-12)
    assert np.max(np.abs(out.data - expected_lambda * u.data)) < 1e-10


def test_apply_free_dirac_vs_fd4_oracle():
    g = lat.make_grid(64, 16.0)
    rng = np.random.default_rng(11)
    # quartic spectral envelope keeps content at low |xi| where the 4th-order
    # stencil is accurate to the stated tolerance
    n = g.n
    uh = rng.normal(size=(n, n, n, 4)) + 1j * rng.normal(size=(n, n, n, 4))
    k2 = g.freq_sq
    uh *= np.exp(-((k2 * 3.5**2 / 2.0) ** 2))[..., None]
    u = lat.to_position(g, uh)
    spec = dr.apply_free_dirac(u)
    m = dr.dirac_matrices()
    fd = np.einsum("ab,xyzb->xyza", m.beta, u.data)
    for j, A in enumerate(m.alphas):
        dj = fd4_derivative(u.data, j, g.spacing)
        fd += -1j * np.einsum("ab,xyzb->xyza", A, dj)
    rel = np.sqrt(np.sum(np.abs(spec.data - fd) ** 2) / np.sum(np.abs(spec.data) ** 2))
    assert rel < 1e-6


def test_kinetic_expectation_real(grid16, rng):
    u = lat.random_smooth_field(grid16, rng, kmax=5, decay=0.5)
    val = lat.inner(u, dr.apply_free_dirac(u))
    assert abs(val.imag) < 1e-10 * abs(val.real)


def test_free_operator_norm_equals_h1(grid16, rng):
    for _ in range(10):
        u = lat.random_smooth_field(grid16, rng, kmax=5, decay=0.5)
        lhs = lat.l2_norm(dr.apply_free_dirac(u))
        rhs = lat.sobolev_norm(u, 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_step_zero_dt_is_identity(grid16, rng):
    u = lat.random_smooth_field(grid16, rng, kmax=4, decay=0.5)
    v = dr.free_propagator_step(u, 0.0)
    assert lat.l2_distance(u, v) / lat.l2_norm(u) < 1e-13


def test_step_matches_dense_expm(grid16):
    dt = 0.173
    drift = np.array([0.2, -0.1, 0.05])
    rng = np.random.default_rng(5)
    for mode in [(1, 2, 3), (0, 0, 0), (7, 5, 2), (-3, 1, -1)]:
        w = rng.normal(size=4) + 1j * rng.normal(size=4)
        u = lat.plane_wave(grid16, mode, w)
        out = dr.free_propagator_step(u, dt, drift)
        xi = 2 * np.pi / grid16.box_length * np.array(mode)
        U = dense_mode_exponential(xi, dt, drift)
        expected = lat.plane_wave(grid16, mode, U @ w)
        assert np.max(np.abs(out.data - expected.data)) < 1e-12 * max(1.0, np.abs(w).max())


@pytest.mark.parametrize("drift", [None, (0.2, -0.1, 0.05)])
def test_fused_step_matches_closed_form_and_is_unitary_per_mode(grid16, rng, drift):
    # exp(i dt v.xi) [cos(dt lam) - i sin(dt lam)/lam H_xi] uhat with H_xi as
    # one dense 4x4 matrix per mode
    dt = 0.37
    uhat = lat.to_momentum(lat.random_smooth_field(grid16, rng, kmax=6, decay=0.3))
    got = dr.step_momentum_data(grid16, uhat, dt, drift)
    m = dr.dirac_matrices()
    kx, ky, kz = np.meshgrid(*[grid16.freq1d] * 3, indexing="ij")
    H = (kx[..., None, None] * m.alpha1 + ky[..., None, None] * m.alpha2
         + kz[..., None, None] * m.alpha3 + m.beta)
    lam = np.sqrt(1.0 + kx**2 + ky**2 + kz**2)[..., None]
    want = np.cos(dt * lam) * uhat - 1j * np.sin(dt * lam) / lam * np.einsum(
        "...ij,...j->...i", H, uhat)
    if drift is not None:
        want *= np.exp(1j * dt * (drift[0] * kx + drift[1] * ky + drift[2] * kz))[..., None]
    scale = np.max(np.abs(uhat))
    assert np.max(np.abs(got - want)) <= 1e-14 * scale
    norms = np.linalg.norm(uhat, axis=-1)
    assert np.max(np.abs(np.linalg.norm(got, axis=-1) - norms)) <= 1e-14 * np.max(norms)


def test_step_semigroup_half_steps(grid16, rng):
    u = lat.random_smooth_field(grid16, rng, kmax=4, decay=0.5)
    dt = 0.4
    one = dr.free_propagator_step(u, dt, (0.1, 0, 0))
    half = dr.free_propagator_step(dr.free_propagator_step(u, dt / 2, (0.1, 0, 0)),
                                   dt / 2, (0.1, 0, 0))
    assert lat.l2_distance(one, half) / lat.l2_norm(u) < 1e-12


def test_step_charge_preserving_and_reversible(grid16, rng):
    u = lat.random_smooth_field(grid16, rng, kmax=4, decay=0.5)
    dt = 0.31
    v = dr.free_propagator_step(u, dt, (0.0, 0.2, -0.1))
    assert lat.charge(v) == pytest.approx(lat.charge(u), rel=1e-12)
    back = dr.free_propagator_step(v, -dt, (0.0, 0.2, -0.1))
    assert lat.l2_distance(back, u) / lat.l2_norm(u) < 1e-12


def test_step_rejects_nonfinite_dt(grid16):
    u = lat.zero_spinor(grid16)
    with pytest.raises(ValueError):
        dr.free_propagator_step(u, np.inf)
