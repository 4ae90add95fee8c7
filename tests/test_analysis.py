import json

import numpy as np
import pytest

from diraclab import analysis as an
from diraclab import lattice as lat


# ---------------------------------------------------------------------------
# hardy


def test_hardy_zero_field(grid32):
    assert an.hardy_ratio(lat.zero_spinor(grid32), 1.0) == 0.0


def test_hardy_rejects_sigma_out_of_range(grid32):
    u = lat.zero_spinor(grid32)
    for s in (-0.1, 1.5, 1.7):
        with pytest.raises(ValueError):
            an.hardy_ratio(u, s)


def test_hardy_annulus_supported_ratio_small(grid32):
    u = an._annular_bump(grid32, 1.2)  # supported in 1.2 <= |x| <= 2.4
    ratio = an.hardy_ratio(u, 1.0)
    # weight <= 1/1.2^2 on the support, so LHS <= 0.7 ||u||^2 and the
    # homogeneous H^1 norm dominates the L^2 norm at this scale
    assert 0 < ratio < 1.0


def test_hardy_gaussian_below_classical_constant(grid32):
    u = lat.gaussian_spinor(grid32, (0, 0, 0), 1.0, (1, 0, 0, 0))
    assert an.hardy_ratio(u, 1.0) < 4.0


def test_hardy_sigma_sweep_increases(grid32):
    u = lat.gaussian_spinor(grid32, (0, 0, 0), 0.8, (1, 0, 0, 0))
    vals = [an.hardy_ratio(u, s) for s in (1.0, 1.15, 1.3, 1.45)]
    assert all(np.isfinite(vals))
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_hardy_scale_covariance_within_ten_percent():
    g = lat.make_grid(64, 16.0)
    vals = [an.hardy_ratio(lat.gaussian_spinor(g, (0, 0, 0), 1.0 / lam, (1, 0, 0, 0)), 1.0)
            for lam in (0.5, 0.7, 1.0, 1.4, 2.0)]
    vals = np.array(vals)
    assert (vals.max() - vals.min()) / (2 * vals.mean()) < 0.10


# ---------------------------------------------------------------------------
# rellich


def test_rellich_zero_field(grid32):
    res = an.rellich_ratio(lat.zero_spinor(grid32))
    assert res.ratio == 0.0


def test_rellich_annulus_finite_and_flagged_ok(grid32):
    u = an._annular_bump(grid32, 1.2)
    res = an.rellich_ratio(u)
    assert np.isfinite(res.ratio) and res.ratio > 0
    assert res.vanishes_near_origin


def test_rellich_flags_nonvanishing_origin(grid32):
    u = lat.gaussian_spinor(grid32, (0, 0, 0), 1.0, (1, 0, 0, 0))
    res = an.rellich_ratio(u)
    assert not res.vanishes_near_origin


def test_rellich_scaling_family_bounded_and_reported(grid32):
    rep = an.rellich_report(grid32, seed=1)
    sup = rep.sup_ratio
    assert np.isfinite(sup) and sup > 0
    assert rep.metadata["sup_vs_9_16"] == pytest.approx(sup / (9 / 16))
    assert rep.metadata["sup_vs_16_9"] == pytest.approx(sup / (16 / 9))


# ---------------------------------------------------------------------------
# radial decomposition


def test_radial_decomposition_k0_weight_term_absent():
    res = an.radial_decomposition_check(an.bump_profile(1.0, 3.0), 0)
    assert res.third_coefficient == 0.0
    # residual floor ~1e-8 from the e^{-9} profile tails truncated at the
    # support boundary, far below the 1e-4 requirement
    assert res.residual < 1e-6
    assert res.residual == res.residual_alt  # c = 0 kills both variants


@pytest.mark.parametrize("k", [1, 2])
def test_radial_decomposition_higher_degrees(k):
    res = an.radial_decomposition_check(an.bump_profile(1.0, 3.0), k)
    assert res.residual < 1e-4
    # the commonly quoted variant c(c-1) is distinguishably wrong for k >= 1
    assert res.residual_alt > 100 * max(res.residual, 1e-12)


def test_radial_decomposition_degree_two_coefficients():
    res = an.radial_decomposition_check(an.bump_profile(1.0, 3.0), 2)
    assert res.c_k == 6.0
    assert res.third_coefficient == 24.0  # c(c-2)
    assert res.third_coefficient_alt == 30.0


def test_radial_decomposition_rejects_high_degree():
    with pytest.raises(ValueError):
        an.radial_decomposition_check(an.bump_profile(), 3)


# ---------------------------------------------------------------------------
# coulomb multiplier


def test_multiplier_sigma_one_is_weighted_l2(grid32):
    u = lat.gaussian_spinor(grid32, (0, 0, 0), 1.0, (1, 0, 0, 0))
    ratio = an.coulomb_multiplier_ratio(u, 1.0)
    w = 1.0 / np.maximum(grid32.radius_from((0, 0, 0)), grid32.spacing / 2)
    weighted = lat.SpinorField(grid32, w * u.data)
    direct = lat.l2_norm(weighted) / lat.sobolev_norm(u, 1.0)
    assert ratio == pytest.approx(direct, rel=1e-12)


def test_multiplier_small_for_field_away_from_origin(grid32):
    u = an._annular_bump(grid32, 1.5)
    near = an.coulomb_multiplier_ratio(
        lat.gaussian_spinor(grid32, (0, 0, 0), 0.8, (1, 0, 0, 0)), 1.4)
    far = an.coulomb_multiplier_ratio(u, 1.4)
    assert far < near


def test_multiplier_range_guard(grid32):
    u = lat.zero_spinor(grid32)
    for s in (0.9, 1.5):
        with pytest.raises(ValueError):
            an.coulomb_multiplier_ratio(u, s)


def test_multiplier_refinement_stability():
    sups = {}
    for n, L in ((32, 12.0), (64, 12.0)):
        g = lat.make_grid(n, L)
        rep = an.coulomb_multiplier_report(g, sigmas=(1.4,), n_samples=15, seed=5)
        sups[n] = rep.sup_ratio
    assert abs(sups[64] - sups[32]) / sups[32] < 0.15


# ---------------------------------------------------------------------------
# regularization rate


def test_regularization_rate_gaussian_slope():
    g = lat.make_grid(64, 16.0)
    u = lat.gaussian_spinor(g, (0, 0, 0), 1.0, (1, 0, 0, 0))
    h = g.spacing
    fit = an.regularization_rate(u, 1.4, [8 * h, 4 * h, 2 * h])
    assert fit.slope >= 1.4 - 1.0 - 0.1


def test_regularization_rate_faster_for_field_off_origin():
    g = lat.make_grid(64, 16.0)
    u = an._annular_bump(g, 2.0)
    h = g.spacing
    fit = an.regularization_rate(u, 1.2, [8 * h, 4 * h, 2 * h])
    assert fit.slope > 1.0  # superlinear: the difference lives off the support


def test_regularization_rate_guards():
    g = lat.make_grid(32, 16.0)
    u = lat.gaussian_spinor(g, (0, 0, 0), 1.0, (1, 0, 0, 0))
    h = g.spacing
    with pytest.raises(ValueError):
        an.regularization_rate(u, 1.0, [4 * h, 2 * h])      # sigma at the boundary
    with pytest.raises(ValueError):
        an.regularization_rate(u, 1.2, [2 * h, 0.5 * h])    # below resolution floor
    fit = an.regularization_rate(u, 1.2, [0.0, 4 * h, 2 * h])
    assert fit.baseline_eps0 == 0.0                          # eps = 0 excluded from fit
    assert len(fit.eps_values) == 2


# ---------------------------------------------------------------------------
# reports


def test_inequality_report_roundtrip(tmp_path, grid32):
    rep = an.hardy_report(grid32, sigmas=(1.0,), n_samples=3, seed=9)
    path = tmp_path / "hardy.jsonl"
    rep.write(path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0]["record"] == "header"
    assert lines[0]["inequality"] == "hardy"
    assert lines[0]["clip_radius"] == grid32.spacing / 2
    assert len(lines) == 1 + len(rep.samples)
    assert lines[0]["sup_ratio"] == pytest.approx(rep.sup_ratio)
