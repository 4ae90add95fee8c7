"""Memory guards, counted in fields (64 n^3 bytes, one (4, n, n, n) complex128 array).

Peaks are read with ``tracemalloc``, which numpy reports its array buffers to,
above what was allocated before the call; nothing here allocates to find a limit.
"""

import tracemalloc

import numpy as np
import pytest

from diraclab import cli
from diraclab import config as cf
from diraclab import dirac as dr
from diraclab import hartree as ht
from diraclab import lattice as lat
from diraclab import newton as nt
from diraclab import propagator as pr
from diraclab.potentials import NucleusState, Trajectory, coulomb_field


def peak_fields(fn, grid):
    """(result of ``fn()``, its traced peak allocation in fields of ``grid``)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak / (64 * grid.n**3)


def _packet(grid):
    return lat.gaussian_spinor(grid, (0.5, 0, 0), 1.3, (0.4, 0.1j, 0, 0))


NUCLEI = [NucleusState(0.5, 10.0, (-0.6, 0, 0), (0.05, 0.02, 0))]


@pytest.mark.parametrize("M", [8, 16])
def test_picard_solve_holds_its_snapshots_and_a_few_fields(grid16, M):
    # the sweep overwrites its M+1 iterates in place: beside them it holds
    # one potential (1/8 field) per slice and a fixed number of working fields
    # (about 6 measured); three lists of M+1 fields would break the bound
    traj = Trajectory.static([0.4], [10.0], [[-0.6, 0, 0]], 0.0, 0.4, 8)
    plan = pr.PropagatorPlan(eps_reg=0.8)
    (sol, rep), peak = peak_fields(lambda: pr.duhamel_picard(
        _packet(grid16), traj, 0.4, tol=1e-9, plan=plan, n_steps=M), grid16)
    assert rep.converged and rep.iterations > 2 and len(sol.snapshots) == M + 1
    assert peak <= M + 1 + M / 8 + 8


@pytest.mark.parametrize("M", [8, 16])
def test_fixed_point_holds_one_evaluation_of_snapshots(grid16, M):
    # each P evaluation marches afresh, and the previous evaluation's field is
    # dropped before the next is solved: beside one evaluation's M+1 snapshots
    # the fixed point holds a few working fields (3.87 and 3.91 measured);
    # holding the first evaluation's snapshots through the second solve breaks
    # the bound.  The grid's cached Hartree multiplier and H^sigma weight, and
    # the kinetic factors of the direct start's step T/M, are built outside the
    # traced call, so the peak does not depend on which test used the grid
    # first (the march's step durations differ in their last bits, so it
    # rebuilds the factors, a quarter field, inside); tol 1e-9, as at 1e-8 the
    # direct start passes at once for M = 8 (7.1e-9)
    dr._kinetic_factors(grid16, 0.01 * M / M)
    ht.hartree_multiplier(grid16)
    lat.sobolev_weight(grid16, 1.25, False)
    u0 = _packet(grid16)
    plan = pr.PropagatorPlan(eps_reg=0.75)
    (fsol, _, rep), peak = peak_fields(lambda: nt.coupled_fixed_point(
        u0, NUCLEI, 0.01 * M, tol=1e-9, plan=plan, n_steps=M, eps0=0.3,
        contraction_const=0.2), grid16)
    assert rep.outer_iterations >= 2 and len(fsol.snapshots) == M + 1
    assert peak < M + 1 + 6


def test_direct_run_peak_does_not_grow_with_the_step_count(grid16):
    peaks = []
    for steps in (4, 16):
        (fsol, traj, rep), peak = peak_fields(lambda: nt.coupled_direct(
            _packet(grid16), NUCLEI, 0.01 * steps, 0.01, eps_reg=0.75), grid16)
        assert len(traj.times) == len(rep.charges) == steps + 1 and len(fsol.snapshots) == 1
        peaks.append(peak)
    assert abs(peaks[1] - peaks[0]) <= 1.0
    assert peaks[1] < 8


@pytest.mark.parametrize("method,T", [("direct", 0.08), ("fixed_point", 0.08),
                                      ("fixed_point", 0.16), ("both", 0.16)])
def test_memory_estimate_bounds_the_traced_peak(method, T):
    # the solvers' traced peak plus u0, which the caller holds, stays within
    # the pre-solve estimate, and the estimate within 5 fields of it; the
    # window length sets the snapshot count, so each case traces its own solve
    raw = {"grid": {"n": 16, "box_length": 12.0},
           "physics": {"charges": [0.5], "masses": [10.0], "epsilon_reg": 0.75,
                       "epsilon0": 0.3},
           "init": {"positions": [[-0.6, 0, 0]], "velocities": [[0.05, 0.02, 0]],
                    "field": {"gaussian": {"center": [0.5, 0, 0], "width": 1.3,
                                           "spinor_weights": [0.4, [0, 0.1], 0, 0]}}},
           "time": {"T": T, "dt": 0.01, "n_slices": 16},
           "solver": {"method": method, "contraction_const": 0.2},
           "output": {"every": 1, "path": "run"}}
    cfg = cf.parse_config(raw)
    grid, u0, nuclei = cli._initial_state(cfg)
    _, peak = peak_fields(lambda: cli._run_solvers(cfg, grid, u0, nuclei), grid)
    estimate = cli._peak_estimate(cfg) / (64 * grid.n**3)
    assert peak + 1 <= estimate <= peak + 1 + 5


def test_snapshot_diagnostics_hold_the_spectrum_and_one_complex_product():
    # each conj(a) b product is summed over its axes and freed before the next
    # is formed, and |uhat|^2 is summed in the upper spinor's buffer: beside
    # the spectrum the pass holds one complex grid (1/4 field) and |uhat|^2
    # (1.376 measured at n = 64); with the products held together it reads 2.13.
    # The run's density and potentials are passed in, as the direct run does,
    # and a first pass builds the grid's H^sigma weight outside the traced one
    grid = lat.make_grid(64, 12.0)
    u = _packet(grid)
    rho = lat.density(u)
    V, V_H = coulomb_field(NUCLEI, 0.75, grid), ht.convolve_inverse_distance(grid, rho)
    want = nt.snapshot_diagnostics(u, NUCLEI, 0.75, 1.25, rho=rho, V=V, V_H=V_H)
    got, peak = peak_fields(lambda: nt.snapshot_diagnostics(u, NUCLEI, 0.75, 1.25, rho=rho,
                                                            V=V, V_H=V_H), grid)
    assert got[0] == want[0] and np.array_equal(got[1], want[1]) and got[2:] == want[2:]
    assert peak < 1.4


def test_read_checkpoint_holds_one_field(tmp_path, grid16, rng):
    u = lat.random_smooth_field(grid16, rng, kmax=4, decay=0.8)
    path = tmp_path / "u.dns"
    lat.write_checkpoint(path, u, 0.25, [0.5], [10.0], [[0.1, 0, 0]], [[0, 0.2, 0]])
    (v, *_), peak = peak_fields(lambda: lat.read_checkpoint(path), grid16)
    assert np.array_equal(v.data, u.data) and v.data.flags.writeable
    assert peak < 1.25


def test_sobolev_norms_hold_one_power_array_beside_the_spectrum(grid32, rng):
    # the power sum_c |uhat_c|^2 is one grid- (or band-) sized array and each
    # sigma one dot product with the cached weight: a position field holds its
    # spectrum and a quarter field (1.25 measured; (4, n, n, n) arrays of
    # |uhat|^2 and of each weighted product read 2), a drawn field a few band
    # cubes.  A first call builds the grid's weights outside the traced ones
    u = lat.random_smooth_field(grid32, rng, kmax=4, decay=0.8)
    sigmas = (0.0, 1.0, 1.25)
    field = u.copy()  # no band: normed from its forward transform
    want = lat.sobolev_norms(field, sigmas)
    norms, peak = peak_fields(lambda: lat.sobolev_norms(field, sigmas), grid32)
    assert norms == want
    assert peak <= 1.35
    _, peak = peak_fields(lambda: lat.sobolev_norms(u, sigmas), grid32)
    assert peak < 0.05


def test_complex_convolution_holds_at_most_two_grids(grid32, rng):
    # the pair density's spectrum is transformed, multiplied and inverted in
    # one array (1.25 grids measured); fftn's per-axis copies and h^3-scaled
    # products beside the spectrum read 3
    u, v = (lat.random_smooth_field(grid32, rng, kmax=4, decay=0.8) for _ in range(2))
    pair = np.sum(np.conj(u.data) * v.data, axis=0)
    ht.hartree_multiplier(grid32)
    _, peak = peak_fields(lambda: ht.convolve_inverse_distance(grid32, pair), grid32)
    assert peak * 64 / 16 <= 2  # in complex grids of 16 n^3 bytes


def test_write_checkpoint_copies_no_field(tmp_path, rng):
    # the field's buffer is written as it is, with no bytes copy of it
    grid = lat.make_grid(32, 12.0)
    u = lat.random_smooth_field(grid, rng, kmax=4, decay=0.8)
    path = tmp_path / "u.dns"
    _, peak = peak_fields(lambda: lat.write_checkpoint(path, u, 0.25, [0.5], [10.0],
                                                       [[0.1, 0, 0]], [[0, 0.2, 0]]), grid)
    assert path.stat().st_size == 32 + 64 + 64 * grid.n**3
    assert peak < 0.1


def test_translate_holds_one_field(rng):
    # the phase, the inverse transform and the scaling act in the spectrum's
    # buffer; a second spectrum-sized product would reach about 3 fields
    grid = lat.make_grid(32, 12.0)
    u = lat.random_smooth_field(grid, rng, kmax=4, decay=0.8)
    shift = (0.3, -0.2, 0.1)
    v, peak = peak_fields(lambda: lat.translate(u, shift), grid)
    kx, ky, kz = grid.freq_mesh
    phase = np.exp(1j * (kx * shift[0] + ky * shift[1] + kz * shift[2]))
    assert np.array_equal(v.data, lat.to_position(grid, phase * lat.to_momentum(u)).data)
    assert peak < 2


def test_random_smooth_field_holds_about_one_field():
    # the band's lines are inverted axis by axis from the (2 kmax + 1)^3 cube,
    # so only the last pass holds a whole field (1.15 measured at n = 64); a
    # zero full spectrum plus its inverse transform would read 2
    grid = lat.make_grid(64, 12.0)
    u, peak = peak_fields(lambda: lat.random_smooth_field(grid, 3, kmax=4, decay=0.8), grid)
    assert u.data.shape == (4, 64, 64, 64)
    assert peak < 1.3


def test_kinetic_step_works_in_place_over_x_plane_blocks():
    # the mode step overwrites the spectrum one block of whole x-planes
    # (2^14 modes) at a time, so beside its input it holds about one block's
    # symbol; a whole-array symbol would be one more field (1.5-1.8 measured).
    # The step's cached factors are built for its dt outside the traced call
    grid = lat.make_grid(64, 12.0)
    dr._kinetic_factors(grid, 0.01)
    uhat = lat.to_momentum(_packet(grid))
    out, peak = peak_fields(lambda: dr.step_momentum_data(grid, uhat, 0.01), grid)
    assert out is uhat
    assert peak < 0.25


def test_hartree_strang_step_holds_at_most_two_fields():
    # the kicked copy, the kinetic step's block, and for the second half-kick
    # the density, Hartree potential, angle and phase (1.75 measured); the
    # first kick is freed before the second is built.  A first step builds the
    # grid's cached mode energies and Hartree multiplier; the second is traced
    grid = lat.make_grid(64, 12.0)
    u = _packet(grid)
    V = coulomb_field(NUCLEI, 0.75, grid)
    pr.strang_step(u, 0.01, V, hartree=True)
    _, peak = peak_fields(lambda: pr.strang_step(u, 0.01, V, hartree=True), grid)
    assert peak <= 2


def test_hartree_half_kick_scales_its_angle_in_place():
    # each Hartree half-kick scales the angle V + V_H in the sum's own buffer,
    # so the second kick holds density, potential, angle and phase beside the
    # kicked copy (1.625 measured); a scaled second copy of the angle reads 1.75
    grid = lat.make_grid(64, 12.0)
    u = _packet(grid)
    V = coulomb_field(NUCLEI, 0.75, grid)
    V_copy = V.copy()
    pr.strang_step(u, 0.01, V, hartree=True)
    _, peak = peak_fields(lambda: pr.strang_step(u, 0.01, V, hartree=True), grid)
    assert peak < 1.7
    assert np.array_equal(V, V_copy)  # the shared potential is not written
