import ast
import inspect
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from diraclab import config as cf
from diraclab import dirac as dr
from diraclab import lattice as lat
from diraclab import newton as nt
from diraclab import propagator as pr
from diraclab.hartree import hartree_potential
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


@pytest.mark.parametrize("V, options", [
    ("coulomb", {"hartree": True}),
    (0.0, {}),
    ("coulomb", {"drift": (0.1, -0.2, 0.05)}),
])
def test_strang_step_leaves_its_input_unchanged(grid16, rng, V, options):
    # the step transforms its own kicked copy in place; coupled_direct keeps u as a snapshot
    u = lat.random_smooth_field(grid16, rng, kmax=4, decay=0.6)
    before = u.data.copy()
    if V == "coulomb":
        V = coulomb_field([NucleusState(0.5, 1.0, (0, 0, 0), (0, 0, 0))],
                          regularization_eps(None, grid16), grid16)
    out = pr.strang_step(u, 0.1, V, **options)
    if options.get("hartree"):
        out = out[0]  # (field, density, Hartree potential)
    assert np.array_equal(u.data, before)
    assert not np.shares_memory(out.data, u.data)


@pytest.mark.parametrize("given", [False, True])
def test_strang_step_hands_back_its_second_kick_density_and_potential(grid16, rng, given):
    # with hartree the step returns the density, Hartree potential and phase that
    # its second half-kick built from the pre-kick field w, bitwise; w is the same
    # first kick and kinetic step followed by a zero second kick.  A first-kick
    # phase given in place of the potentials gives the same bits, so the next
    # step, given the phase handed back, is the step spelled from the potentials
    u = lat.random_smooth_field(grid16, rng, kmax=4, decay=0.6)
    eps = regularization_eps(None, grid16)
    V = coulomb_field([NucleusState(0.5, 1.0, (0, 0, 0), (0, 0, 0))], eps, grid16)
    V_out = coulomb_field([NucleusState(0.5, 1.0, (0.1, 0, 0), (0, 0, 0))], eps, grid16)
    V_H0 = hartree_potential(u)
    out, rho, V_H, kick = pr.strang_step(u, 0.1, V, V_out=V_out, hartree=True,
                                         kick=pr._half_kick(0.1, V, V_H0) if given else None)
    w = pr.strang_step(u, 0.1, V + V_H0, V_out=0.0)
    assert np.array_equal(rho, lat.density(w))
    assert np.array_equal(V_H, hartree_potential(w))
    assert np.array_equal(kick, pr._half_kick(0.1, V_out, V_H))
    assert np.array_equal(out.data, w.data * np.exp(-0.05j * (V_out + V_H)))
    nxt = pr.strang_step(out, 0.1, None, V_out=V, hartree=True, kick=kick)[0]
    w = pr.strang_step(out, 0.1, V_out + V_H, V_out=0.0)
    assert np.array_equal(nxt.data, w.data * np.exp(-0.05j * (V + hartree_potential(w))))


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
        eps_reg=0.8), n_steps=8)
    assert rep.iterations == 1
    assert max(lat.l2_norm(s) for s in sol.snapshots) == 0.0


def test_picard_contraction_monotone_and_matches_split_step(grid16):
    u0 = lat.gaussian_spinor(grid16, (0, 0, 0), 1.2, (0.3, 0.06, 0, 0))
    traj = _static_traj(Z=0.4, T=0.4)
    plan = pr.PropagatorPlan(eps_reg=0.8)
    sol, rep = pr.duhamel_picard(u0, traj, 0.4, tol=1e-10, max_iter=25, plan=plan,
                                 n_steps=32, enforce_window=False)
    assert rep.converged
    assert rep.monotone_after_two
    oracle = pr.split_step_nonlinear(u0, traj, 0.4, 0.4 / 32, eps_reg=0.8)
    assert lat.l2_distance(sol.final, oracle.final) < 1e-4


@pytest.mark.parametrize("frame", [pr.LAB, pr.COMOVING_SINGLE])
def test_picard_builds_potentials_once_per_solve(grid16, monkeypatch, frame):
    # the trajectory is fixed for the solve, so each step's potential is
    # built once however many Picard sweeps reuse it
    u0 = lat.gaussian_spinor(grid16, (0, 0, 0), 1.2, (0.3, 0.06, 0, 0))
    traj = _moving_traj(T=0.4)
    M = 8
    build = pr.coulomb_field
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(pr, "coulomb_field", counted)
    plan = pr.PropagatorPlan(frame=frame, eps_reg=0.8)
    _, rep = pr.duhamel_picard(u0, traj, 0.4, tol=1e-10, max_iter=25, plan=plan,
                               n_steps=M, enforce_window=False)
    assert rep.converged and rep.iterations >= 3
    assert len(calls) == (M if frame == pr.LAB else 1)


def test_picard_window_guard(grid16):
    u0 = lat.gaussian_spinor(grid16, (0, 0, 0), 1.2, (3.0, 0, 0, 0))  # large datum
    traj = _static_traj()
    with pytest.raises(pr.ContractionWindowError, match="time hypothesis"):
        pr.duhamel_picard(u0, traj, 0.5, plan=pr.PropagatorPlan(eps_reg=0.8),
                          n_steps=8)


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
    charges = np.array([lat.charge(u) for u in sol.snapshots])
    assert np.max(np.abs(charges - charges[0])) / charges[0] < 1e-8


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
                          plan=pr.PropagatorPlan(eps_reg=0.8),
                          n_steps=8, enforce_window=False)
    assert len(err.value.history) == 2
    assert all(d > 0 for d in err.value.history)


def test_picard_non_finite_sweep_fails_at_once(grid16, monkeypatch):
    # a NaN nonlinear term at the 5th snapshot of the first sweep ends the
    # solve at that sweep; a max that dropped the NaN distances of the later
    # snapshots would let the solve "converge" on a non-finite field
    nonlinearity = pr.apply_nonlinearity
    calls = []

    def broken(u):
        calls.append(1)
        out = nonlinearity(u)
        if len(calls) == 5:
            out.data[:] = np.nan
        return out

    monkeypatch.setattr(pr, "apply_nonlinearity", broken)
    u0 = lat.gaussian_spinor(grid16, (0, 0, 0), 1.2, (0.3, 0.06, 0, 0))
    M = 8
    with pytest.raises(pr.ConvergenceFailure, match="non-finite iterate distance at sweep 1") as err:
        pr.duhamel_picard(u0, _static_traj(Z=0.4, T=0.4), 0.4, tol=1e-10, max_iter=25,
                          plan=pr.PropagatorPlan(eps_reg=0.8), n_steps=M,
                          enforce_window=False)
    assert len(err.value.history) == 1 and np.isnan(err.value.history[0])
    assert len(calls) == M + 1


@pytest.mark.parametrize("frame", [pr.LAB, pr.COMOVING_SINGLE])
def test_march_solves_the_whole_window_system(grid16, frame):
    # the march and the whole-window sweep solve the same trapezoid system on
    # one step schedule, so their snapshots agree to the tolerance (1.0e-12
    # measured at tol 1e-10 in every frame)
    u0 = lat.gaussian_spinor(grid16, (0.5, 0, 0), 1.2, (0.3, 0.06j, 0, 0))
    traj = _moving_traj(T=0.4)
    tol, M = 1e-10, 16
    plan = pr.PropagatorPlan(frame=frame, eps_reg=0.8)
    kw = dict(tol=tol, plan=plan, n_steps=M)
    march, rep = pr.duhamel_march(u0, traj, 0.4, **kw)
    sweep, _ = pr.duhamel_picard(u0, traj, 0.4, enforce_window=False, **kw)
    assert np.array_equal(march.times, sweep.times)
    assert len(rep.step_iterations) == M and rep.iterations == sum(rep.step_iterations)
    assert all(k >= 1 for k in rep.step_iterations)
    assert max(lat.l2_distance(a, b) for a, b in zip(march.snapshots, sweep.snapshots,
                                                    strict=True)) < 10 * tol


@pytest.mark.parametrize("frame", [pr.LAB, pr.COMOVING_SINGLE])
@pytest.mark.parametrize("solve", [pr.duhamel_march, pr.duhamel_picard])
def test_duhamel_solvers_ignore_the_slice_count(grid16, frame, solve):
    # the Duhamel solvers take one Strang step per time step: the plan's
    # n_slices belongs to the product formula and moves no snapshot bit
    u0 = lat.gaussian_spinor(grid16, (0.5, 0, 0), 1.2, (0.3, 0.06j, 0, 0))
    traj = _moving_traj(T=0.4)
    M = 8
    kw = dict(tol=1e-10, n_steps=M)
    if solve is pr.duhamel_picard:
        kw["enforce_window"] = False
    one, _ = solve(u0, traj, 0.4, plan=pr.PropagatorPlan(frame=frame, n_slices=M, eps_reg=0.8),
                   **kw)
    four, _ = solve(u0, traj, 0.4,
                    plan=pr.PropagatorPlan(frame=frame, n_slices=4 * M, eps_reg=0.8), **kw)
    assert np.array_equal(one.times, four.times)
    assert all(np.array_equal(a.data, b.data)
               for a, b in zip(one.snapshots, four.snapshots, strict=True))


def _call_lines(name: str, source: str) -> list:
    """Line of each call of ``name`` (bare or as an attribute) in ``source``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def test_explicit_term_is_the_only_nonlinearity_call():
    # the Picard solve forms the trapezoid's (i delta/2) N(u) through
    # propagator._explicit_term, so the explicit term has one body (the march
    # forms its explicit part from the potential it holds)
    assert _call_lines("apply_nonlinearity",
                       "a = apply_nonlinearity(u).data\nb = hartree.apply_nonlinearity(u)\n"
                       "c = apply_nonlinearity\n") == [1, 2]
    (line,) = _call_lines("apply_nonlinearity", Path(pr.__file__).read_text())
    body, first = inspect.getsourcelines(pr._explicit_term)
    assert first <= line < first + len(body)


def test_segments_is_called_by_the_product_formula_alone():
    # the slice lattice belongs to product_formula_evolve: the Duhamel solvers
    # step on their own time grid and cannot grow a slice lattice again
    (line,) = _call_lines("_segments", Path(pr.__file__).read_text())
    body, first = inspect.getsourcelines(pr.product_formula_evolve)
    assert first <= line < first + len(body)


def test_direct_step_is_newtons_only_strang_step_call():
    # the coupled solvers advance the field by a direct step only through
    # newton._direct_step: coupled_direct takes M of them and the fixed point's
    # start two, so the start's steps are the direct integrator's own
    (line,) = _call_lines("strang_step", Path(nt.__file__).read_text())
    body, first = inspect.getsourcelines(nt._direct_step)
    assert first <= line < first + len(body)


@pytest.mark.parametrize("amplitude", [1.0, 2.0])
def test_march_local_iterations_do_not_grow_with_the_window(grid16, amplitude):
    # each step contracts with a ratio O(delta ||N'||): at a fixed step, a
    # window four times as long takes at most one more local iteration per step
    u0 = lat.gaussian_spinor(grid16, (0.5, 0, 0), 1.2, (0.3 * amplitude, 0.06j, 0, 0))
    worst = []
    for T, M in ((0.15, 8), (0.6, 32)):
        _, rep = pr.duhamel_march(u0, _moving_traj(T=T, steps=M), T, tol=1e-10,
                                  plan=pr.PropagatorPlan(eps_reg=0.8), n_steps=M)
        worst.append(max(rep.step_iterations))
    assert worst[1] <= worst[0] + 1


def test_march_small_run_takes_two_local_iterations_per_step():
    # the march iterates on the step's potential, whose map moves the density
    # only through (delta V / 2)^2: along small_run's constant-velocity path each
    # step stops after two local iterations, the second about 4e-5 of the first
    # (iterating on the spinor took 4, at ratios about 1e-2)
    cfg = cf.load_config(Path(__file__).parents[1] / "scripts" / "configs" / "small_run.yaml")
    _, u0, nuclei = cf.build_initial_state(cfg)
    M = pr.step_count(cfg.time.T, cfg.time.dt)
    traj = Trajectory.constant_velocity([n.Z for n in nuclei], [n.m for n in nuclei],
                                        [n.q for n in nuclei], [n.qdot for n in nuclei],
                                        0.0, cfg.time.T, M)
    plan = pr.PropagatorPlan(eps_reg=cfg.physics.epsilon_reg)
    _, rep = pr.duhamel_march(u0, traj, cfg.time.T, tol=cfg.solver.picard.tol,
                              max_iter=cfg.solver.picard.max_iter, plan=plan, n_steps=M)
    assert len(rep.step_iterations) == len(rep.step_contraction) == M
    assert max(rep.step_iterations) <= 2
    assert rep.contraction == max(rep.step_contraction) <= 1e-3


def test_march_zero_datum_takes_one_iteration_per_step(grid16):
    sol, rep = pr.duhamel_march(lat.zero_spinor(grid16), _static_traj(), 0.4, tol=1e-12,
                                plan=pr.PropagatorPlan(eps_reg=0.8), n_steps=8)
    assert rep.step_iterations == [1] * 8
    assert max(lat.l2_norm(s) for s in sol.snapshots) == 0.0


@pytest.mark.parametrize("frame", [pr.LAB, pr.COMOVING_SINGLE])
def test_march_builds_each_step_potential_once(grid16, monkeypatch, frame):
    # a step's potential is built when the march reaches it and applied once;
    # the comoving frame builds its one static potential once per solve
    u0 = lat.gaussian_spinor(grid16, (0, 0, 0), 1.2, (0.3, 0.06, 0, 0))
    M = 8
    build = pr.coulomb_field
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(pr, "coulomb_field", counted)
    plan = pr.PropagatorPlan(frame=frame, eps_reg=0.8)
    _, rep = pr.duhamel_march(u0, _moving_traj(T=0.4), 0.4, tol=1e-10, plan=plan, n_steps=M)
    assert rep.iterations >= 2 * M
    assert len(calls) == (M if frame == pr.LAB else 1)


def test_march_max_iter_failure_names_the_step(grid16):
    u0 = lat.gaussian_spinor(grid16, (0, 0, 0), 1.2, (0.8, 0.1, 0, 0))
    with pytest.raises(pr.ConvergenceFailure, match="step 1 did not reach tol=1e-14 in 2 "
                                                    "local iterations") as err:
        pr.duhamel_march(u0, _static_traj(Z=0.4, T=0.4), 0.4, tol=1e-14, max_iter=2,
                         plan=pr.PropagatorPlan(eps_reg=0.8), n_steps=8)
    assert len(err.value.history) == 2
    assert all(d > 0 for d in err.value.history)


def test_march_non_finite_distance_fails_at_once(grid16, monkeypatch):
    # a NaN potential in step 2's first local iteration ends the march
    # there, naming the step; the NaN is not taken for convergence
    convolve = pr.convolve_inverse_distance
    calls = []

    def broken(grid, source):
        calls.append(1)
        out = convolve(grid, source)
        if len(calls) == first_of_step_2:
            out[:] = np.nan
        return out

    u0 = lat.gaussian_spinor(grid16, (0, 0, 0), 1.2, (0.3, 0.06, 0, 0))
    kw = dict(tol=1e-10, plan=pr.PropagatorPlan(eps_reg=0.8), n_steps=8)
    _, rep = pr.duhamel_march(u0, _static_traj(Z=0.4, T=0.4), 0.4, **kw)
    first_of_step_2 = 1 + rep.step_iterations[0] + 1  # V_H(u0), step 1's, then step 2's first
    monkeypatch.setattr(pr, "convolve_inverse_distance", broken)
    with pytest.raises(pr.ConvergenceFailure, match="non-finite local distance at step 2") as err:
        pr.duhamel_march(u0, _static_traj(Z=0.4, T=0.4), 0.4, **kw)
    assert len(err.value.history) == 1 and np.isnan(err.value.history[0])
    assert len(calls) == first_of_step_2
