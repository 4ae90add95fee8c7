import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

from diraclab import cli
from diraclab import dirac as dr
from diraclab import lattice as lat
from diraclab import newton as nt
from diraclab.potentials import NucleusState
from oracles import dense_mode_exponential, fd4_derivative, step_momentum_whole


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
    assert np.max(np.abs(out.data - expected[:, None, None, None])) < 1e-12


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
    uh = np.moveaxis(rng.normal(size=(n, n, n, 4)) + 1j * rng.normal(size=(n, n, n, 4)), -1, 0)
    k2 = g.freq_sq
    uh *= np.exp(-((k2 * 3.5**2 / 2.0) ** 2))
    u = lat.to_position(g, uh)
    spec = dr.apply_free_dirac(u)
    m = dr.dirac_matrices()
    fd = np.einsum("ab,bxyz->axyz", m.beta, u.data)
    for j, A in enumerate(m.alphas):
        dj = fd4_derivative(u.data, j + 1, g.spacing)  # axis 0 is the component
        fd += -1j * np.einsum("ab,bxyz->axyz", A, dj)
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


@pytest.mark.parametrize("n", [16, 32])
def test_free_dirac_of_a_drawn_field_acts_on_its_band(n, monkeypatch, tmp_path):
    # the symbol maps each mode to itself, so a drawn field's band is enough:
    # no transform, the same field as from the full spectrum, and the result
    # keeps the band; the validate lab's dirac suite then transforms nothing
    grid = lat.make_grid(n, 12.0)
    u = lat.random_smooth_field(grid, 4, kmax=4, decay=0.8)
    plain = dr.apply_free_dirac(u.copy())
    assert plain.band is None
    calls = []
    spinor_fft = lat.spinor_fft

    def counted(*args, **kwargs):
        calls.append(1)
        return spinor_fft(*args, **kwargs)

    monkeypatch.setattr(lat, "spinor_fft", counted)
    out = dr.apply_free_dirac(u)
    cli._suite_dirac(n, 3, tmp_path)
    assert calls == []
    assert lat.l2_distance(out, plain) <= 1e-12 * lat.l2_norm(plain)
    cube, idx = out.band
    spectrum = lat.to_momentum(plain)
    band = spectrum[(slice(None),) + np.ix_(idx, idx, idx)]
    assert np.max(np.abs(cube - band)) <= 1e-12 * np.max(np.abs(cube))
    assert not out.data.flags.writeable


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
    got = dr.step_momentum_data(grid16, uhat.copy(), dt, drift)  # the step consumes its input
    m = dr.dirac_matrices()
    kx, ky, kz = np.meshgrid(*[grid16.freq1d] * 3, indexing="ij")
    H = (kx[..., None, None] * m.alpha1 + ky[..., None, None] * m.alpha2
         + kz[..., None, None] * m.alpha3 + m.beta)
    lam = np.sqrt(1.0 + kx**2 + ky**2 + kz**2)
    want = np.cos(dt * lam) * uhat - 1j * np.sin(dt * lam) / lam * np.einsum(
        "...ij,j...->i...", H, uhat)
    if drift is not None:
        want *= np.exp(1j * dt * (drift[0] * kx + drift[1] * ky + drift[2] * kz))
    scale = np.max(np.abs(uhat))
    assert np.max(np.abs(got - want)) <= 1e-14 * scale
    norms = np.linalg.norm(uhat, axis=0)
    assert np.max(np.abs(np.linalg.norm(got, axis=0) - norms)) <= 1e-14 * np.max(norms)


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


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("drift", [None, (0.2, -0.1, 0.05)])
def test_blocked_kinetic_step_matches_whole_array_oracle(n, drift):
    # the step works over blocks of x-planes in place (one block at n = 16,
    # several at 32 and 64) and gives the whole-array step's bits in the input
    # buffer, on every call of +dt, -dt, +dt: each sign change rebuilds the
    # cached factors, and a repeated dt reads them
    grid = lat.make_grid(n, 12.0)
    uhat = lat.to_momentum(lat.random_smooth_field(grid, 7, kmax=6, decay=0.3))
    for dt in (0.37, -0.37, 0.37):
        want = step_momentum_whole(grid, uhat.copy(), dt, drift)
        got = dr.step_momentum_data(grid, uhat, dt, drift)
        assert got is uhat
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_direct_run_builds_the_kinetic_factors_once(grid16):
    # coupled_direct steps with one delta = T/M, so its M kinetic steps build
    # the factors once and read them M - 1 times
    dr._kinetic_factors.cache_clear()
    u0 = lat.gaussian_spinor(grid16, (0.5, 0, 0), 1.3, (0.4, 0.1j, 0, 0))
    nuclei = [NucleusState(0.5, 10.0, (-0.6, 0, 0), (0.05, 0.02, 0))]
    fsol, traj, _ = nt.coupled_direct(u0, nuclei, 0.08, 0.01, eps_reg=0.75)
    assert len(traj.times) == 9
    info = dr._kinetic_factors.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 7, 1)


def test_kinetic_factors_hold_the_last_grid_and_step_alone(grid16, grid32):
    # a new dt or a new grid rebuilds the factors, and one (grid, dt) entry is
    # held; the arrays are read-only and the cos / sin-over-lam of the step
    dr._kinetic_factors.cache_clear()
    for grid, dt in ((grid16, 0.1), (grid16, 0.1), (grid16, 0.2), (grid32, 0.2), (grid32, 0.2)):
        cos, sinc = dr._kinetic_factors(grid, dt)
    info = dr._kinetic_factors.cache_info()
    assert (info.misses, info.hits, info.currsize) == (3, 2, 1)
    lam = grid32.mode_energy
    assert np.array_equal(cos, np.cos(0.2 * lam)) and np.array_equal(sinc, np.sin(0.2 * lam) / lam)
    assert not cos.flags.writeable and not sinc.flags.writeable


def _attribute_lines(name: str, source: str) -> list:
    """Line of each read of the attribute ``name`` in ``source``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == name)


def test_kinetic_factors_are_the_only_mode_energy_reader():
    # cos(dt lam) and sin(dt lam)/lam have one builder, the cached
    # dirac._kinetic_factors: no second per-call kinetic path reads the dispersion
    assert _attribute_lines("mode_energy", "lam = grid.mode_energy\nmode_energy = 1\n"
                            "f(g.mode_energy, mode_energy)\n") == [1, 3]
    package = Path(dr.__file__).parent
    found = {path.name: _attribute_lines("mode_energy", path.read_text())
             for path in sorted(package.glob("*.py"))}
    (line,) = found.pop("dirac.py")
    body, first = inspect.getsourcelines(dr._kinetic_factors)
    assert first <= line < first + len(body)
    assert {name: lines for name, lines in found.items() if lines} == {}
