import numpy as np
import pytest
from scipy.special import erf

from diraclab import hartree as ht
from diraclab import lattice as lat
from diraclab import newton as nt
from oracles import complex_fft_convolution, ewald_point_green, radial_coulomb_convolution


def test_kernel_multiplier_properties(grid16):
    mult = ht.hartree_multiplier(grid16)
    assert mult[0, 0, 0] == 0.0
    assert np.all(mult >= 0.0)
    assert np.all(np.isfinite(mult))
    k2 = grid16.freq_sq
    mask = k2 > 0
    assert np.allclose(mult[mask], 4 * np.pi / k2[mask])
    assert not mult.flags.writeable  # cached and shared by every caller


def test_potential_of_zero_field(grid16):
    u = lat.zero_spinor(grid16)
    assert np.max(np.abs(ht.hartree_potential(u))) == 0.0


def test_potential_is_contiguous_and_owns_its_data(grid16, rng):
    # a strided view of the complex convolution would keep that buffer alive
    V = ht.hartree_potential(lat.random_smooth_field(grid16, rng, kmax=3, decay=0.7))
    assert V.dtype == np.float64
    assert V.flags["C_CONTIGUOUS"] and V.flags["OWNDATA"] and V.base is None


@pytest.mark.parametrize("n", [16, 32])
def test_convolution_matches_complex_transform_oracle(n):
    # a real density takes the real transform pair and gives a real array; the
    # complex pair density of the bilinear lab takes the complex one
    grid = lat.make_grid(n, 12.0)
    rng = np.random.default_rng(n)
    u, v = (lat.random_smooth_field(grid, rng, kmax=4, decay=0.6) for _ in range(2))
    for source in (lat.density(u), np.sum(np.conj(u.data) * v.data, axis=-1)):
        got = ht.convolve_inverse_distance(grid, source)
        want = complex_fft_convolution(grid, source)
        assert np.iscomplexobj(got) == np.iscomplexobj(source)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_gaussian_potential_matches_erf_formula():
    # rho = exp(-|x|^2): potential pi^(3/2) erf(r)/r, compared on the central
    # region after aligning the free additive constant (the torus kernel is
    # zero-mean); error measured against the local exact value
    g = lat.make_grid(64, 20.0)
    u = lat.gaussian_spinor(g, (0, 0, 0), 1.0, (1, 0, 0, 0))  # density |u|^2 = e^{-r^2}
    phi = ht.hartree_potential(u)
    r = g.radius_from((0, 0, 0))
    exact = np.where(r > 1e-12, np.pi**1.5 * erf(r) / np.maximum(r, 1e-12), 2 * np.pi)
    mask = r <= 2.0
    offset = np.mean((phi - exact)[mask])
    rel = np.abs(phi - offset - exact)[mask] / exact[mask]
    assert np.max(rel) < 1e-3


def test_erf_closed_form_agrees_with_radial_quadrature_oracle():
    rho = lambda s: np.exp(-s**2)
    rs = np.array([0.5, 1.0, 2.0, 4.0])
    orc = radial_coulomb_convolution(rho, rs, r_max=30.0)
    exact = np.pi**1.5 * erf(rs) / rs
    assert np.max(np.abs(orc - exact) / exact) < 1e-6


def test_narrow_bump_far_field_matches_periodic_monopole():
    # far field of a unit-charge bump ~ the point-charge periodic Green's
    # function (Ewald oracle) at |x| = L/4; the bare 1/|x| law differs at the
    # percent level through the zero-mean gauge and lattice corrections
    g = lat.make_grid(64, 20.0)
    L = g.box_length
    w = 0.45
    r2 = g.radius_sq_from((0, 0, 0))
    rho = np.exp(-r2 / (2 * w**2))
    rho /= g.spacing**3 * np.sum(rho)
    phi = np.real(ht.convolve_inverse_distance(g, rho))
    dirs = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, 1, 1]], dtype=float)
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    pts_idx = np.round(dirs * (L / 4) / g.spacing).astype(int)
    pts = pts_idx * g.spacing
    vals = phi[pts_idx[:, 0] % g.n, pts_idx[:, 1] % g.n, pts_idx[:, 2] % g.n]
    oracle = ewald_point_green(pts, L)
    assert np.max(np.abs(vals - oracle) / np.abs(oracle)) < 0.01


def test_nonlinearity_zero_field(grid16):
    u = lat.zero_spinor(grid16)
    out = ht.apply_nonlinearity(u)
    assert np.max(np.abs(out.data)) == 0.0


def test_phase_invariance(grid16, rng):
    u = lat.random_smooth_field(grid16, rng, kmax=4, decay=0.7)
    theta = 0.814
    u_rot = lat.SpinorField(grid16, np.exp(1j * theta) * u.data)
    phi1 = ht.hartree_potential(u)
    phi2 = ht.hartree_potential(u_rot)
    assert np.max(np.abs(phi1 - phi2)) <= 1e-10 * max(1.0, np.max(np.abs(phi1)))
    n1 = ht.apply_nonlinearity(u).data
    n2 = ht.apply_nonlinearity(u_rot).data
    assert np.max(np.abs(n2 - np.exp(1j * theta) * n1)) <= 1e-10 * np.max(np.abs(n1))


def test_cubic_homogeneity(grid16, rng):
    u = lat.random_smooth_field(grid16, rng, kmax=4, decay=0.7)
    lam = 1.7
    scaled = lat.SpinorField(grid16, lam * u.data)
    n1 = ht.apply_nonlinearity(u).data
    n2 = ht.apply_nonlinearity(scaled).data
    assert np.max(np.abs(n2 - lam**3 * n1)) <= 1e-12 * np.max(np.abs(n2))


def test_self_interaction_nonnegative(grid16, rng):
    for _ in range(5):
        u = lat.random_smooth_field(grid16, rng, kmax=4, decay=0.7)
        assert nt.snapshot_diagnostics(u, [], 0.8, 1.0)[0].hartree >= 0.0
    val = lat.inner(
        lat.random_smooth_field(grid16, np.random.default_rng(3), kmax=3, decay=0.6),
        ht.apply_nonlinearity(
            lat.random_smooth_field(grid16, np.random.default_rng(3), kmax=3, decay=0.6)))
    assert val.real >= 0.0
    assert abs(val.imag) < 1e-10 * max(val.real, 1.0)


def test_bilinear_ratios_finite_and_recorded(grid16, rng):
    u = lat.gaussian_spinor(grid16, (0, 0, 0), 1.2, (1, 0, 0, 0))
    ratios = ht.bilinear_estimate_report(u, u, u)
    for val in (ratios.l2, ratios.h1, ratios.hs1):
        assert np.isfinite(val) and val > 0


def test_bilinear_zero_w_gives_zero(grid16, rng):
    u = lat.random_smooth_field(grid16, rng, kmax=3, decay=0.7)
    v = lat.random_smooth_field(grid16, rng, kmax=3, decay=0.7)
    w = lat.zero_spinor(grid16)
    ratios = ht.bilinear_estimate_report(u, v, w)
    assert ratios.l2 == 0.0 and ratios.h1 == 0.0 and ratios.hs1 == 0.0


def test_bilinear_ratio_translation_invariant(grid16, rng):
    # kmax = 2 keeps the triple product alias-free (3*kmax below Nyquist), so
    # the continuum translation invariance is exact on the grid
    u = lat.random_smooth_field(grid16, rng, kmax=2, decay=0.7)
    v = lat.random_smooth_field(grid16, rng, kmax=2, decay=0.7)
    w = lat.random_smooth_field(grid16, rng, kmax=2, decay=0.7)
    shift = np.array([0.71, -0.32, 0.18])
    ratios0 = ht.bilinear_estimate_report(u, v, w)
    ratios1 = ht.bilinear_estimate_report(lat.translate(u, shift),
                                          lat.translate(v, shift),
                                          lat.translate(w, shift))
    assert ratios1.l2 == pytest.approx(ratios0.l2, rel=1e-10)
    assert ratios1.h1 == pytest.approx(ratios0.h1, rel=1e-10)
    assert ratios1.hs1 == pytest.approx(ratios0.hs1, rel=1e-10)


def test_bilinear_rejects_bad_s(grid16):
    u = lat.zero_spinor(grid16)
    for s in (0.0, 0.5, 0.7):
        with pytest.raises(ValueError):
            ht.bilinear_estimate_report(u, u, u, s=s)


def test_bilinear_sup_stable_under_refinement_two_hundred_triples():
    # 200 randomized triples drawn from a pool of band-limited fields
    # (3*kmax below the coarse Nyquist, so every triple product is exactly
    # representable on both grids): the empirical sup of the L2 estimate must
    # agree across n = 32 -> 64 far inside the +-10% stability band
    pool_size = 60
    sups = {}
    for n in (32, 64):
        g = lat.make_grid(n, 12.0)
        rng = np.random.default_rng(4242)
        pool = [lat.random_smooth_field(g, rng, kmax=5, decay=0.7) for _ in range(pool_size)]
        l2 = [lat.l2_norm(u) for u in pool]
        h1 = [lat.sobolev_norm(u, 1.0) for u in pool]
        picks = rng.integers(0, pool_size, size=(200, 3))
        worst = 0.0
        for iu, iv, iw in picks:
            pair = np.sum(np.conj(pool[iu].data) * pool[iv].data, axis=-1)
            conv = ht.convolve_inverse_distance(g, pair)
            lhs_field = lat.SpinorField(g, conv[..., None] * pool[iw].data)
            rhs = l2[iu] * h1[iv] * l2[iw]
            worst = max(worst, lat.l2_norm(lhs_field) / rhs)
        sups[n] = worst
    assert np.isfinite(sups[32]) and sups[32] > 0
    assert abs(sups[64] - sups[32]) / sups[32] < 0.10
