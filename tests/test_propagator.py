from dataclasses import replace

import numpy as np
import pytest

from diraclab import dirac as dr
from diraclab import lattice as lat
from diraclab import propagator as pr
from diraclab.potentials import NucleusState, Trajectory, coulomb_field, regularization_eps


def _static_traj(Z=0.5, T=0.5, steps=16, q=(0, 0, 0)):
    return Trajectory.static([Z], [10.0], [list(q)], 0.0, T, steps)


def _moving_traj(Z=0.5, v=(0.1, 0, 0), T=0.5, steps=32):
    return Trajectory.constant_velocity([Z], [10.0], [[0, 0, 0]], [list(v)], 0.0, T, steps)


def test_plan_validation():
    with pytest.raises(ValueError):
        pr.PropagatorPlan(n_slices=0)
    with pytest.raises(ValueError):
        pr.PropagatorPlan(frame="warp")
    with pytest.raises(ValueError):
        pr.PropagatorPlan(eps_reg=-1.0)


def test_frozen_step_zero_potential_is_free_step(grid16, rng):
    u = lat.random_smooth_field(grid16, rng, kmax=4, decay=0.6)
    plan = pr.PropagatorPlan(n_slices=1, substeps=1)
    out = pr.product_formula_evolve(u, 0.0, 0.3, _static_traj(Z=0.0, T=0.3), plan)
    free = dr.free_propagator_step(u, 0.3)
    assert lat.l2_distance(out, free) / lat.l2_norm(u) < 1e-12


def test_frozen_step_zero_dt_identity(grid16, rng):
    u = lat.random_smooth_field(grid16, rng, kmax=4, decay=0.6)
    nuc = [NucleusState(0.5, 1.0, (0, 0, 0), (0, 0, 0))]
    V = coulomb_field(nuc, regularization_eps(None, grid16), grid16)
    out = pr.strang_step(u, 0.0, V)
    assert lat.l2_distance(out, u) / lat.l2_norm(u) < 1e-13


def test_frozen_step_constant_potential_is_global_phase(grid16, rng):
    u = lat.random_smooth_field(grid16, rng, kmax=4, decay=0.6)
    c = -0.37
    V = np.full((grid16.n,) * 3, c)
    dt = 0.4
    out = pr.strang_step(pr.strang_step(u, dt / 2, V), dt / 2, V)
    free = dr.free_propagator_step(u, dt)
    expected = lat.SpinorField(grid16, np.exp(-1j * dt * c) * free.data)
    assert lat.l2_distance(out, expected) / lat.l2_norm(u) < 1e-12


def test_product_formula_charge_preserved(grid16, rng):
    u0 = lat.random_smooth_field(grid16, rng, kmax=4, decay=0.7)
    traj = _moving_traj()
    plan = pr.PropagatorPlan(n_slices=16, substeps=2, eps_reg=0.8)
    u1 = pr.product_formula_evolve(u0, 0.0, 0.5, traj, plan)
    assert abs(lat.charge(u1) - lat.charge(u0)) / lat.charge(u0) < 1e-12


def test_product_formula_zero_charge_matches_free(grid16, rng):
    u0 = lat.random_smooth_field(grid16, rng, kmax=4, decay=0.7)
    traj = _moving_traj(Z=0.0)
    plan = pr.PropagatorPlan(n_slices=8, substeps=1, eps_reg=0.8)
    u1 = pr.product_formula_evolve(u0, 0.0, 0.5, traj, plan)
    free = dr.free_propagator_step(u0, 0.5)
    assert lat.l2_distance(u1, free) / lat.l2_norm(u0) < 1e-10


def test_product_formula_static_second_order_to_reference(grid16):
    # static nucleus: freezing is exact, only the Strang error remains
    u0 = lat.gaussian_spinor(grid16, (0, 0, 0), 1.2, (1, 0.2, 0, 0))
    traj = _static_traj()
    ref = pr.product_formula_evolve(
        u0, 0.0, 0.5, traj, pr.PropagatorPlan(n_slices=128, substeps=1, eps_reg=0.8))
    errs = []
    for ns in (8, 16, 32):
        u = pr.product_formula_evolve(
            u0, 0.0, 0.5, traj, pr.PropagatorPlan(n_slices=ns, substeps=1, eps_reg=0.8))
        errs.append(lat.l2_distance(u, ref))
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_product_formula_moving_self_convergence_order(grid16):
    u0 = lat.gaussian_spinor(grid16, (0, 0, 0), 1.2, (1, 0, 0.3, 0))
    traj = _moving_traj(v=(0.12, 0.05, 0))
    diffs = []
    prev = None
    for ns in (4, 8, 16, 32):
        u = pr.product_formula_evolve(
            u0, 0.0, 0.5, traj, pr.PropagatorPlan(n_slices=ns, substeps=1, eps_reg=1.0))
        if prev is not None:
            diffs.append(lat.l2_distance(u, prev))
        prev = u
    orders = [np.log2(a / b) for a, b in zip(diffs[:-1], diffs[1:])]
    assert all(o >= 1.0 for o in orders)


def test_product_formula_reversibility(grid16, rng):
    u0 = lat.random_smooth_field(grid16, rng, kmax=4, decay=0.7)
    traj = _moving_traj()
    plan = pr.PropagatorPlan(n_slices=16, substeps=2, eps_reg=0.8)
    u1 = pr.product_formula_evolve(u0, 0.0, 0.5, traj, plan)
    back = pr.product_formula_evolve(u1, 0.5, 0.0, traj, plan)
    assert lat.l2_distance(back, u0) / lat.l2_norm(u0) < 1e-12


def test_product_formula_slice_aligned_composition(grid16, rng):
    u0 = lat.random_smooth_field(grid16, rng, kmax=4, decay=0.7)
    traj = _moving_traj()
    plan = pr.PropagatorPlan(n_slices=16, substeps=2, eps_reg=0.8)
    direct = pr.product_formula_evolve(u0, 0.0, 0.5, traj, plan)
    mid = pr.product_formula_evolve(u0, 0.0, 0.25, traj, plan)
    comp = pr.product_formula_evolve(mid, 0.25, 0.5, traj, plan)
    assert lat.l2_distance(direct, comp) / lat.l2_norm(u0) < 1e-13


def test_admissibility_abort(grid16, rng):
    u0 = lat.random_smooth_field(grid16, rng, kmax=3, decay=0.7)
    fast = _moving_traj(v=(0.4, 0, 0))
    plan = pr.PropagatorPlan(n_slices=8, eps_reg=0.8, velocity_cap=0.25)
    with pytest.raises(pr.AdmissibilityError):
        pr.product_formula_evolve(u0, 0.0, 0.5, fast, plan)


def test_evolve_linear_identity_and_reports(grid16):
    u0 = lat.gaussian_spinor(grid16, (0, 0, 0), 1.2, (1, 0, 0, 0))
    traj = _static_traj()
    sol, rep = pr.evolve_linear(u0, 0.0, 0.0, traj, tol=1e-8,
                                plan=pr.PropagatorPlan(n_slices=4, eps_reg=0.8))
    assert lat.l2_distance(sol.final, u0) < 1e-12
    assert rep.converged


def test_evolve_linear_composition_within_tolerance(grid16):
    u0 = lat.gaussian_spinor(grid16, (0, 0, 0), 1.2, (1, 0.1, 0, 0))
    traj = _moving_traj(T=0.5)
    tol = 1e-4
    plan = pr.PropagatorPlan(n_slices=8, substeps=1, eps_reg=1.0, max_levels=8)
    whole, _ = pr.evolve_linear(u0, 0.0, 0.5, traj, tol, plan)
    first, _ = pr.evolve_linear(u0, 0.0, 0.25, traj, tol, plan)
    second, _ = pr.evolve_linear(first.final, 0.25, 0.5, traj, tol, plan)
    resid = lat.l2_distance(whole.final, second.final)
    assert resid < 2 * tol


def test_evolve_linear_returns_converged_level(grid16, monkeypatch):
    # one product-formula solve per refinement level, and the returned field
    # is that of the converged level, bit for bit
    u0 = lat.gaussian_spinor(grid16, (0, 0, 0), 1.2, (1, 0.1, 0, 0))
    traj = _moving_traj(T=0.5)
    plan = pr.PropagatorPlan(n_slices=8, substeps=1, eps_reg=1.0, max_levels=8)
    evolve = pr.product_formula_evolve
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return evolve(*args, **kwargs)

    monkeypatch.setattr(pr, "product_formula_evolve", counted)
    sol, rep = pr.evolve_linear(u0, 0.0, 0.5, traj, 1e-4, plan)
    assert len(calls) == len(rep.levels) >= 2
    fresh = evolve(u0, 0.0, 0.5, traj, replace(plan, n_slices=rep.achieved_n_slices))
    assert np.array_equal(sol.final.data, fresh.data)
    assert list(sol.times) == [0.0, 0.5]
    assert sol.snapshots[0] is not u0 and np.array_equal(sol.snapshots[0].data, u0.data)


def test_evolve_linear_nonconvergence_reports_history(grid16):
    u0 = lat.gaussian_spinor(grid16, (0, 0, 0), 1.2, (1, 0, 0, 0))
    traj = _moving_traj()
    plan = pr.PropagatorPlan(n_slices=2, substeps=1, eps_reg=0.8, max_levels=2)
    with pytest.raises(pr.ConvergenceFailure) as err:
        pr.evolve_linear(u0, 0.0, 0.5, traj, tol=1e-14, plan=plan)
    assert len(err.value.history) == 3


def test_measured_operator_norm_contractive(grid16):
    traj = _moving_traj()
    plan = pr.PropagatorPlan(n_slices=12, substeps=2, eps_reg=0.8)
    worst = pr.measured_l2_operator_norm(traj, plan, grid16, 0.0, 0.5, n_probes=4, seed=3)
    assert worst <= 1.0 + 1e-9


def test_frame_equivalence_static_and_z_zero(grid16):
    u0 = lat.gaussian_spinor(grid16, (0, 0, 0), 1.2, (1, 0, 0, 0))
    still = _static_traj()
    plan = pr.PropagatorPlan(n_slices=8, substeps=1, eps_reg=0.8)
    assert pr.frame_equivalence_residual(u0, 0.5, still, plan) < 1e-10
    free = _moving_traj(Z=0.0, v=(0.1, 0, 0))
    assert pr.frame_equivalence_residual(u0, 0.5, free, plan) < 1e-10


def test_frame_equivalence_refinement_order():
    g = lat.make_grid(32, 10.0)
    u0 = lat.gaussian_spinor(g, (0, 0, 0), 1.2, (1, 0.2, 0, 0))
    traj = _moving_traj(v=(0.1, 0, 0), T=0.5)
    res = []
    for ns in (4, 8, 16, 32):
        plan = pr.PropagatorPlan(n_slices=ns, substeps=1, eps_reg=1.25)
        res.append(pr.frame_equivalence_residual(u0, 0.5, traj, plan))
    orders = [np.log2(a / b) for a, b in zip(res[:-1], res[1:])]
    assert all(o >= 0.95 for o in orders)
    assert res[-1] < res[0] / 6


def test_trajectory_sensitivity_zero_for_equal(grid16):
    u0 = lat.gaussian_spinor(grid16, (0, 0, 0), 1.2, (1, 0, 0, 0))
    t1 = _moving_traj(v=(0.05, 0, 0))
    t2 = _moving_traj(v=(0.05, 0, 0))
    plan = pr.PropagatorPlan(n_slices=8, eps_reg=0.8)
    assert pr.trajectory_sensitivity(u0, 0.5, t1, t2, plan) < 1e-12


def test_trajectory_sensitivity_roughly_linear_in_delta(grid16):
    u0 = lat.gaussian_spinor(grid16, (0, 0, 0), 1.2, (1, 0, 0, 0))
    plan = pr.PropagatorPlan(n_slices=16, eps_reg=0.8)
    base = _moving_traj(v=(0.02, 0, 0))
    vals = []
    for delta in (0.04, 0.02, 0.01):
        other = _moving_traj(v=(0.02 + delta, 0, 0))
        vals.append(pr.trajectory_sensitivity(u0, 0.5, base, other, plan))
    assert vals[0] / vals[1] == pytest.approx(2.0, rel=0.2)
    assert vals[1] / vals[2] == pytest.approx(2.0, rel=0.2)


# ---------------------------------------------------------------------------
# nonlinear solvers


def test_picard_zero_datum_converges_immediately(grid16):
    u0 = lat.zero_spinor(grid16)
    traj = _static_traj()
    sol, rep = pr.duhamel_picard(u0, traj, 0.4, tol=1e-12, plan=pr.PropagatorPlan(
        n_slices=8, eps_reg=0.8), n_steps=8)
    assert rep.iterations == 1
    assert max(lat.l2_norm(s) for s in sol.snapshots) == 0.0


def test_picard_contraction_monotone_and_matches_split_step(grid16):
    u0 = lat.gaussian_spinor(grid16, (0, 0, 0), 1.2, (0.3, 0.06, 0, 0))
    traj = _static_traj(Z=0.4, T=0.4)
    plan = pr.PropagatorPlan(n_slices=32, eps_reg=0.8)
    sol, rep = pr.duhamel_picard(u0, traj, 0.4, tol=1e-10, max_iter=25, plan=plan,
                                 n_steps=32, enforce_window=False)
    assert rep.converged
    assert rep.monotone_after_two
    oracle = pr.split_step_nonlinear(u0, traj, 0.4, 0.4 / 32, eps_reg=0.8)
    assert lat.l2_distance(sol.final, oracle.final) < 1e-4


@pytest.mark.parametrize("frame", [pr.LAB, pr.COMOVING_SINGLE])
def test_picard_builds_potentials_once_per_solve(grid16, monkeypatch, frame):
    # the trajectory is fixed for the solve, so each slice's potential is
    # built once however many Picard sweeps reuse it
    u0 = lat.gaussian_spinor(grid16, (0, 0, 0), 1.2, (0.3, 0.06, 0, 0))
    traj = _moving_traj(T=0.4)
    M, slices_per_step = 8, 2
    build = pr.coulomb_field
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(pr, "coulomb_field", counted)
    plan = pr.PropagatorPlan(frame=frame, n_slices=M * slices_per_step, eps_reg=0.8)
    _, rep = pr.duhamel_picard(u0, traj, 0.4, tol=1e-10, max_iter=25, plan=plan,
                               n_steps=M, enforce_window=False)
    assert rep.converged and rep.iterations >= 3
    if frame == pr.LAB:
        assert len(calls) == M * slices_per_step
    else:
        assert 1 <= len(calls) <= M


def test_picard_warm_start_from_own_output(grid16):
    # started from its own converged snapshots the solve is done after one
    # sweep, and it overwrites the list it was given instead of allocating one
    u0 = lat.gaussian_spinor(grid16, (0, 0, 0), 1.2, (0.3, 0.06, 0, 0))
    traj = _moving_traj(T=0.4)
    plan = pr.PropagatorPlan(n_slices=16, eps_reg=0.8)
    tol = 1e-10
    kw = dict(tol=tol, max_iter=25, plan=plan, n_steps=8, enforce_window=False)
    cold, rep_cold = pr.duhamel_picard(u0, traj, 0.4, **kw)
    start = [s.copy() for s in cold.snapshots]
    warm, rep = pr.duhamel_picard(u0, traj, 0.4, start=start, **kw)
    assert rep_cold.iterations >= 3 and rep.iterations == 1
    assert warm.snapshots is start
    for a, b in zip(warm.snapshots, cold.snapshots, strict=True):
        assert lat.l2_distance(a, b) < tol
    with pytest.raises(ValueError, match="warm start needs 9 snapshots"):
        pr.duhamel_picard(u0, traj, 0.4, start=start[:-1], **kw)


def test_picard_window_guard(grid16):
    u0 = lat.gaussian_spinor(grid16, (0, 0, 0), 1.2, (3.0, 0, 0, 0))  # large datum
    traj = _static_traj()
    with pytest.raises(pr.ContractionWindowError, match="time hypothesis"):
        pr.duhamel_picard(u0, traj, 0.5, plan=pr.PropagatorPlan(n_slices=8, eps_reg=0.8))


def test_split_step_reduces_to_product_formula_without_hartree(grid16, rng):
    u0 = lat.random_smooth_field(grid16, rng, kmax=3, decay=0.7)
    traj = _moving_traj(T=0.4)
    M = 16
    sol = pr.split_step_nonlinear(u0, traj, 0.4, 0.4 / M, eps_reg=0.8,
                                  include_hartree=False)
    ref = pr.product_formula_evolve(u0, 0.0, 0.4, traj,
                                    pr.PropagatorPlan(n_slices=M, substeps=1, eps_reg=0.8))
    assert lat.l2_distance(sol.final, ref) / lat.l2_norm(u0) < 1e-13


def test_split_step_self_convergence_first_order_or_better(grid16):
    u0 = lat.gaussian_spinor(grid16, (0, 0, 0), 1.2, (0.6, 0.1, 0, 0))
    traj = _moving_traj(T=0.4)
    finals = []
    for M in (8, 16, 32):
        sol = pr.split_step_nonlinear(u0, traj, 0.4, 0.4 / M, eps_reg=0.8)
        finals.append(sol.final)
    d1 = lat.l2_distance(finals[0], finals[1])
    d2 = lat.l2_distance(finals[1], finals[2])
    assert np.log2(d1 / d2) >= 1.0


def test_split_step_gauge_covariance(grid16):
    u0 = lat.gaussian_spinor(grid16, (0, 0, 0), 1.2, (0.6, 0.1, 0, 0))
    theta = 1.234
    u0_rot = lat.SpinorField(grid16, np.exp(1j * theta) * u0.data)
    traj = _static_traj(T=0.4)
    a = pr.split_step_nonlinear(u0, traj, 0.4, 0.05, eps_reg=0.8)
    b = pr.split_step_nonlinear(u0_rot, traj, 0.4, 0.05, eps_reg=0.8)
    expected = np.exp(1j * theta) * a.final.data
    diff = np.max(np.abs(b.final.data - expected)) / np.max(np.abs(a.final.data))
    assert diff < 1e-10


def test_split_step_charge_preservation(grid16):
    u0 = lat.gaussian_spinor(grid16, (0, 0, 0), 1.2, (0.8, 0.2, 0, 0))
    traj = _moving_traj(T=0.4)
    sol = pr.split_step_nonlinear(u0, traj, 0.4, 0.4 / 64, eps_reg=0.8)
    assert sol.charge_drift() < 1e-8


def test_hsigma_growth_envelope_reported(grid16, capsys):
    # uniform-boundedness echo: the H^sigma amplification is recorded per
    # sigma and must stay finite and stable under slice refinement; the
    # constant itself is existential, so nothing is asserted against it
    u0 = lat.gaussian_spinor(grid16, (0, 0, 0), 1.2, (1, 0.2, 0, 0))
    traj = _moving_traj(v=(0.1, 0, 0), T=0.5)
    rows = []
    for sigma in (1.0, 1.25, 1.4):
        envelopes = []
        for ns in (16, 32):
            plan = pr.PropagatorPlan(n_slices=ns, substeps=1, eps_reg=1.0)
            snaps = [pr.product_formula_evolve(u0, 0.0, t, traj, plan, check_admissibility=False)
                     for t in np.linspace(0, 0.5, 9)]
            hsigma = [lat.sobolev_norm(u, sigma) for u in snaps]
            envelopes.append(float(np.max(hsigma) / hsigma[0]))
        rows.append((sigma, envelopes))
        assert all(np.isfinite(e) for e in envelopes)
        assert abs(envelopes[1] - envelopes[0]) / envelopes[0] < 0.05
    print("\nH^sigma growth envelopes (sigma, [coarse, fine]):", rows)


def test_picard_max_iter_failure_carries_history(grid16):
    u0 = lat.gaussian_spinor(grid16, (0, 0, 0), 1.2, (0.8, 0.1, 0, 0))
    traj = _static_traj(Z=0.4, T=0.4)
    with pytest.raises(pr.ConvergenceFailure) as err:
        pr.duhamel_picard(u0, traj, 0.4, tol=1e-14, max_iter=2,
                          plan=pr.PropagatorPlan(n_slices=8, eps_reg=0.8),
                          n_steps=8, enforce_window=False)
    assert len(err.value.history) == 2
    assert all(d > 0 for d in err.value.history)
