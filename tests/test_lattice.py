import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diraclab import lattice as lat
from diraclab import propagator as pr
from diraclab.potentials import NucleusState, Trajectory, coulomb_field
from diraclab.propagator import _half_kick
from oracles import (gaussian_h1_sq, half_kick_exp, random_smooth_field_loop,
                     translation_phase_exp)


def test_make_grid_basic():
    g = lat.make_grid(8, 2 * np.pi)
    assert g.spacing == pytest.approx(2 * np.pi / 8)
    ints = np.sort(np.round(g.freq1d / (2 * np.pi / g.box_length)).astype(int))
    assert list(ints) == list(range(-4, 4))


def test_make_grid_spacing_exact():
    g = lat.make_grid(32, 20.0)
    assert g.spacing == 0.625


@pytest.mark.parametrize("n,L", [(12, 10.0), (0, 1.0), (4, 1.0), (16, -3.0), (16, 0.0)])
def test_make_grid_rejects(n, L):
    with pytest.raises(ValueError):
        lat.make_grid(n, L)


def test_frequency_grid_symmetry(grid16):
    f = grid16.freq1d
    # symmetric about 0 except the Nyquist row
    pos = np.sort(f[f > 0])
    neg = np.sort(-f[f < 0])
    assert np.allclose(pos, neg[:-1])  # the extra negative entry is Nyquist


def test_sparse_freq_mesh_matches_dense_mesh(grid16):
    # the mesh broadcasts; squared frequencies and mode energies are bitwise
    # those of a dense meshgrid
    n = grid16.n
    assert [k.shape for k in grid16.freq_mesh] == [(n, 1, 1), (1, n, 1), (1, 1, n)]
    kx, ky, kz = np.meshgrid(grid16.freq1d, grid16.freq1d, grid16.freq1d, indexing="ij")
    k2 = kx * kx + ky * ky + kz * kz
    assert np.array_equal(grid16.freq_sq, k2)
    assert np.array_equal(grid16.mode_energy, np.sqrt(1.0 + k2))


def test_constant_field_dc_mode(grid16):
    c = np.array([1.0, 0.5j, -0.25, 0.0])
    u = lat.constant_spinor(grid16, c)
    uh = lat.to_momentum(u)
    assert np.allclose(uh[:, 0, 0, 0], c * grid16.volume)
    mask = np.ones(uh.shape[1:], dtype=bool)
    mask[0, 0, 0] = False
    assert np.max(np.abs(uh[:, mask])) < 1e-10 * grid16.volume


def test_plane_wave_single_mode(grid16):
    w = np.array([0.0, 1.0, 0.0, 0.5])
    u = lat.plane_wave(grid16, (2, -1, 3), w)
    uh = lat.to_momentum(u)
    n = grid16.n
    idx = (slice(None), 2 % n, (-1) % n, 3 % n)
    assert np.allclose(uh[idx], w * grid16.volume)
    total = np.sum(np.abs(uh) ** 2)
    assert np.sum(np.abs(uh[idx]) ** 2) == pytest.approx(total, rel=1e-12)


def test_round_trip_and_parseval(grid16, rng):
    u = lat.random_smooth_field(grid16, rng, kmax=5, decay=0.5)
    uhat = lat.to_momentum(u)
    back = lat.to_position(grid16, uhat)
    assert lat.l2_distance(back, u) / lat.l2_norm(u) < 1e-12
    assert np.sum(np.abs(uhat) ** 2) / grid16.volume == pytest.approx(lat.charge(u), rel=1e-12)


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("strided", [False, True])
def test_spinor_fft_matches_fftn_bitwise(n, inverse, strided):
    # per component, into a fresh array or in place, from a C-contiguous
    # array or a strided view (every second entry of an interleaved array):
    # bitwise the transform of the whole spinor over its three grid axes
    rng = np.random.default_rng(n)
    raw = rng.normal(size=(n, n, n, 8)) + 1j * rng.normal(size=(n, n, n, 8))
    data = (np.moveaxis(raw[..., ::2], -1, 0) if strided
            else np.ascontiguousarray(np.moveaxis(raw[..., :4], -1, 0)))
    expected = (np.fft.ifftn if inverse else np.fft.fftn)(data, axes=(1, 2, 3))
    out = np.empty_like(expected)
    assert lat.spinor_fft(data, out, inverse) is out
    assert np.array_equal(out, expected)
    assert lat.spinor_fft(data, data, inverse) is data
    assert np.array_equal(data, expected)


def _spinor_transform_lines(source: str) -> list:
    """Line of each ``fftn``/``ifftn`` call over the grid axes (1, 2, 3) in ``source``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        callee = getattr(node.func, "attr", getattr(node.func, "id", None))
        axes = [kw.value for kw in node.keywords if kw.arg == "axes"] + node.args[2:3]
        if callee in ("fftn", "ifftn") and any(
                [getattr(e, "value", None) for e in getattr(a, "elts", ())] == [1, 2, 3] for a in axes):
            lines.append(node.lineno)
    return sorted(lines)


def test_spinor_fft_is_the_only_spinor_transform():
    # a whole-spinor fftn/ifftn over the grid axes (1, 2, 3) is the slow path
    # that lattice.spinor_fft replaces; the scalar Hartree transforms take no such axes
    assert _spinor_transform_lines(
        "def step(u):\n    return np.fft.ifftn(fftn(u, None, [1, 2, 3]), axes=(1, 2, 3))\n") == [2, 2]
    package = Path(lat.__file__).parent
    found = {path.name: _spinor_transform_lines(path.read_text()) for path in sorted(package.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_every_field_is_component_major_and_contiguous(tmp_path):
    # a field is a C-contiguous (4, n, n, n) array wherever it is made: a
    # strided one would still compute, only slower, and an interleaved
    # (n, n, n, 4) array is refused by name
    g = lat.make_grid(8, 6.0)
    u = lat.random_smooth_field(g, 3, kmax=2, decay=0.6)
    V = coulomb_field([NucleusState(0.5, 10.0, (0.2, 0, 0), (0, 0, 0))], 0.8, g)
    traj = Trajectory.static([0.5], [10.0], [[0.2, 0, 0]], 0.0, 0.1, 4)
    path = tmp_path / "u.dns"
    lat.write_checkpoint(path, u, 0.0)
    fields = [lat.zero_spinor(g), lat.constant_spinor(g, (1, 0, 0, 0)),
              lat.plane_wave(g, (1, 0, 2), (1, 0.5j, 0, 0)),
              lat.gaussian_spinor(g, (0.3, 0, 0), 1.0, (0, 1, 0, 0)), u,
              lat.spectral_upsample(u), lat.to_position(g, lat.to_momentum(u)),
              lat.translate(u, (0.1, -0.2, 0.3)), pr.strang_step(u, 0.01, V),
              pr.strang_step(u, 0.01, V, hartree=True)[0], lat.read_checkpoint(path)[0],
              *pr.duhamel_march(u, traj, 0.1, n_steps=4)[0].snapshots]
    for f in fields:
        assert f.data.shape == (lat.N_COMPONENTS,) + (f.grid.n,) * 3
        assert f.data.flags.c_contiguous
    with pytest.raises(ValueError, match=r"\(4, n, n, n\)"):
        lat.SpinorField(g, np.zeros((8, 8, 8, 4), dtype=np.complex128))


def test_spinor_field_holds_position_data_only(grid16):
    data = lat.zero_spinor(grid16).data
    assert np.array_equal(lat.SpinorField(grid16, data, "position").data, data)
    with pytest.raises(ValueError, match="to_position"):
        lat.SpinorField(grid16, data, "momentum")


def test_sobolev_zero_order_is_charge(grid16, rng):
    u = lat.random_smooth_field(grid16, rng, kmax=4, decay=0.7)
    assert lat.sobolev_norm(u, 0.0) == pytest.approx(np.sqrt(lat.charge(u)), rel=1e-12)


def test_sobolev_rejects_out_of_range(grid16):
    u = lat.zero_spinor(grid16)
    for s in (-0.1, 2.1):
        with pytest.raises(ValueError):
            lat.sobolev_norm(u, s)


def test_sobolev_gaussian_h1_vs_radial_quadrature():
    # wide box so periodization error is negligible
    g = lat.make_grid(64, 20.0)
    u = lat.gaussian_spinor(g, (0, 0, 0), 1.0, (1, 0, 0, 0))
    expected = gaussian_h1_sq(1.0)
    assert lat.sobolev_norm(u, 1.0) ** 2 == pytest.approx(expected, rel=1e-4)


def test_sobolev_plane_wave_multiplier(grid16):
    w = (1.0, 0.0, 0.0, 0.0)
    u = lat.plane_wave(grid16, (3, 0, 0), w)
    xi = 2 * np.pi / grid16.box_length * 3
    expected = (1 + xi**2) ** 0.5 * lat.l2_norm(u)
    assert lat.sobolev_norm(u, 1.0) == pytest.approx(expected, rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(s1=st.floats(0.0, 2.0), s2=st.floats(0.0, 2.0), seed=st.integers(0, 2**31))
def test_sobolev_monotone_in_sigma(s1, s2, seed):
    g = lat.make_grid(8, 6.0)
    u = lat.random_smooth_field(g, np.random.default_rng(seed), kmax=2, decay=0.4)
    lo, hi = min(s1, s2), max(s1, s2)
    assert lat.sobolev_norm(u, lo) <= lat.sobolev_norm(u, hi) * (1 + 1e-13)


@settings(max_examples=20, deadline=None)
@given(alpha_re=st.floats(-3, 3), alpha_im=st.floats(-3, 3), seed=st.integers(0, 2**31))
def test_norm_linearity(alpha_re, alpha_im, seed):
    g = lat.make_grid(8, 6.0)
    u = lat.random_smooth_field(g, np.random.default_rng(seed), kmax=2, decay=0.4)
    a = complex(alpha_re, alpha_im)
    au = lat.SpinorField(g, a * u.data)
    for s in (0.0, 1.0, 1.4):
        expect = abs(a) * lat.sobolev_norm(u, s)
        assert lat.sobolev_norm(au, s) == pytest.approx(expect, rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("kmax", [2, 3, 4, 5])
def test_random_smooth_field_matches_loop_oracle(n, kmax):
    # the vectorized draw takes the same normals in the same order, so the
    # field and the generator state after it are those of the per-mode loop
    g = lat.make_grid(n, 12.0)
    rng_new, rng_old = np.random.default_rng(n + kmax), np.random.default_rng(n + kmax)
    u = lat.random_smooth_field(g, rng_new, kmax=kmax, decay=0.7, amplitude=1.3)
    ref = random_smooth_field_loop(g, rng_old, kmax=kmax, decay=0.7, amplitude=1.3)
    assert np.array_equal(u.data.view(np.float64), ref.data.view(np.float64))
    assert rng_new.normal() == rng_old.normal()


@pytest.mark.parametrize("n,kmax", [(16, 7), (64, 4)])
def test_random_smooth_field_matches_full_spectrum_at_band_edge_and_fine_grid(n, kmax):
    # kmax = n/2 - 1 fills 15 of 16 lines; n = 64 leaves 55 of 64 empty: the
    # pruned synthesis is bitwise the full-spectrum one, signed zeros included
    g = lat.make_grid(n, 12.0)
    rng_new, rng_old = np.random.default_rng(7 * n + kmax), np.random.default_rng(7 * n + kmax)
    u = lat.random_smooth_field(g, rng_new, kmax=kmax, decay=0.6)
    ref = random_smooth_field_loop(g, rng_old, kmax=kmax, decay=0.6)
    assert np.array_equal(u.data.view(np.uint64), ref.data.view(np.uint64))
    assert rng_new.normal() == rng_old.normal()


@pytest.mark.parametrize("n,modes", [(8, [0, 1, 7]), (16, [3, 0, 12, 5])])
def test_band_to_position_equals_to_position_of_the_scattered_spectrum(n, modes, rng):
    # any mode lines, in any order: the spectrum is cube on idx^3, zero elsewhere
    g = lat.make_grid(n, 9.0)
    idx = np.array(modes)
    K = len(idx)
    cube = rng.normal(size=(4, K, K, K)) + 1j * rng.normal(size=(4, K, K, K))
    uhat = np.zeros((4, n, n, n), dtype=np.complex128)
    uhat[(slice(None),) + np.ix_(idx, idx, idx)] = cube
    u = lat._band_to_position(g, cube, idx)
    assert np.array_equal(u.data.view(np.uint64), lat.to_position(g, uhat).data.view(np.uint64))


@pytest.mark.parametrize("homogeneous", [False, True])
def test_sobolev_norms_equal_one_sigma_norms_exactly(grid16, rng, homogeneous):
    u = lat.random_smooth_field(grid16, rng, kmax=5, decay=0.5)
    sigmas = (0.0, 0.5, 1.0, 1.25, 1.4, 2.0)
    one = lat.homogeneous_sobolev_norm if homogeneous else lat.sobolev_norm
    assert lat.sobolev_norms(u, sigmas, homogeneous) == [one(u, s) for s in sigmas]


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("homogeneous", [False, True])
def test_drawn_field_norms_from_its_band_equal_the_transform_path(n, homogeneous):
    # a drawn field is normed from the band it was synthesised from; its copy
    # carries no band and is normed from its forward transform.  The band is
    # the exact spectrum, so the two agree to roundoff, from a single mode
    # (kmax = 0, whose homogeneous norm is 0) up to the band edge n/2 - 1
    g = lat.make_grid(n, 12.0)
    sigmas = (0.0, 1.0, 1.25, 2.0)
    for kmax in sorted({0, 1, n // 4, n // 2 - 1}):
        u = lat.random_smooth_field(g, np.random.default_rng(n + kmax), kmax=kmax, decay=0.3)
        fields = [u, lat.spectral_upsample(u, 2)] if n < 64 else [u]
        for f in fields:
            assert f.band is not None
            got = lat.sobolev_norms(f, sigmas, homogeneous)
            want = lat.sobolev_norms(f.copy(), sigmas, homogeneous)
            assert got == pytest.approx(want, rel=1e-14)


def test_drawn_field_is_read_only_and_its_derived_fields_are_not(grid16, rng):
    u = lat.random_smooth_field(grid16, rng, kmax=3, decay=0.6)
    with pytest.raises(ValueError):
        u.data *= 2.0
    with pytest.raises(ValueError):
        u.data[0, 0, 0, 0] = 1.0
    for v in (u.copy(), lat.SpinorField(grid16, u.data * 2)):
        assert v.band is None and v.data.flags.writeable
        v.data *= 2.0


def test_drawn_field_norms_take_no_transform(grid16, rng, monkeypatch):
    calls = []
    spinor_fft = lat.spinor_fft

    def counted(*args, **kwargs):
        calls.append(1)
        return spinor_fft(*args, **kwargs)

    u = lat.random_smooth_field(grid16, rng, kmax=4, decay=0.6)
    fine = lat.spectral_upsample(u, 2)  # one forward transform of u, before counting
    monkeypatch.setattr(lat, "spinor_fft", counted)
    lat.sobolev_norms(u, (0.0, 1.0, 2.0))
    lat.homogeneous_sobolev_norm(u, 1.4)
    lat.sobolev_norm(fine, 1.0)
    assert calls == []
    lat.sobolev_norm(u.copy(), 1.0)
    assert len(calls) == 1


@pytest.mark.parametrize("kmax", [-1, -3])
def test_random_smooth_field_rejects_negative_kmax(grid16, kmax):
    with pytest.raises(ValueError, match="kmax"):
        lat.random_smooth_field(grid16, 1, kmax=kmax)


def test_sobolev_norms_check_every_sigma(grid16):
    u = lat.constant_spinor(grid16, (1, 0, 0, 0))
    with pytest.raises(ValueError, match="sigma"):
        lat.sobolev_norms(u, (1.0, 2.5))
    with pytest.raises(ValueError, match="sigma"):
        lat.sobolev_norms(u, (1.0, -0.5), homogeneous=True)


def test_homogeneous_norm_drops_zero_mode(grid16):
    u = lat.constant_spinor(grid16, (1, 0, 0, 0))
    assert lat.homogeneous_sobolev_norm(u, 1.0) == 0.0


def test_translate_exact_on_plane_wave(grid16):
    u = lat.plane_wave(grid16, (1, 2, 0), (1, 0, 0, 0))
    shift = np.array([0.3, -0.7, 1.1])
    v = lat.translate(u, shift)
    xi = 2 * np.pi / grid16.box_length * np.array([1, 2, 0])
    expected = u.data * np.exp(1j * xi @ shift)
    assert np.max(np.abs(v.data - expected)) < 1e-12


def _bits(z):
    return np.atleast_1d(np.asarray(z, dtype=np.complex128)).view(np.uint64)


@pytest.mark.parametrize("delta", [0.1, -0.1, 0.0])
def test_unit_phase_is_bitwise_the_complex_exponential(grid16, rng, delta):
    # every exp(i real) factor is cos/sin in one buffer; it must give the bits
    # of np.exp(...) for a potential with exact zeros, for the scalar 0.0 (no
    # nuclei) and for a translation phase whose zero mode has a -0 angle
    V = rng.normal(size=(grid16.n,) * 3)
    V[0, 0, :2] = 0.0, -0.0
    for pot in (V, 0.0):
        got, want = _half_kick(delta, pot), half_kick_exp(delta, pot)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert np.array_equal(_bits(got), _bits(want))
    kx, ky, kz = grid16.freq_mesh
    for shift in ((0.3, -0.7, 1.1), (-0.3, -0.2, -0.1)):
        got = lat._unit_phase(kx * shift[0] + ky * shift[1] + kz * shift[2])
        want = translation_phase_exp(grid16, shift)
        assert np.array_equal(got, want) and np.array_equal(_bits(got), _bits(want))


def test_spectral_upsample_preserves_values(grid16, rng):
    u = lat.random_smooth_field(grid16, rng, kmax=4, decay=0.7)
    fine = lat.spectral_upsample(u, 2)
    assert np.max(np.abs(fine.data[:, ::2, ::2, ::2] - u.data)) < 1e-10
    assert lat.charge(fine) == pytest.approx(lat.charge(u), rel=1e-12)


@pytest.mark.parametrize("n,factor", [(8, 2), (8, 4), (16, 2), (32, 2)])
def test_spectral_upsample_equals_full_spectrum_zero_pad(n, factor):
    # the fine spectrum built whole, coarse modes scattered with np.ix_, then
    # inverted by to_position: the pruned synthesis matches it bitwise
    g = lat.make_grid(n, 12.0)
    u = lat.random_smooth_field(g, np.random.default_rng(n + factor), kmax=n // 2 - 1, decay=0.4)
    n2 = factor * n
    ix = np.fft.fftfreq(n, 1.0 / n).astype(int) % n2
    out = np.zeros((4, n2, n2, n2), dtype=np.complex128)
    out[(slice(None),) + np.ix_(ix, ix, ix)] = lat.to_momentum(u)
    ref = lat.to_position(lat.make_grid(n2, 12.0), out)
    fine = lat.spectral_upsample(u, factor)
    assert fine.grid == ref.grid
    assert np.array_equal(fine.data.view(np.uint64), ref.data.view(np.uint64))


@pytest.mark.parametrize("n", [8, 16, 32])
def test_inverse_scalings_equal_the_division_by_h3(n):
    # to_position, translate and the band synthesis scale by 1/h^3; numpy
    # divides a complex array by a real through that same reciprocal, so each
    # field equals ifftn(...) / h^3; L = 12 gives h^3 = 1728/n^3, not a power of two
    g = lat.make_grid(n, 12.0)
    h3 = g.spacing**3
    u = lat.random_smooth_field(g, np.random.default_rng(n), kmax=n // 2 - 1, decay=0.4)
    cube, idx = u.band
    uhat = np.zeros((4, n, n, n), dtype=np.complex128)
    uhat[(slice(None),) + np.ix_(idx, idx, idx)] = cube
    want = np.fft.ifftn(uhat, axes=(1, 2, 3)) / h3
    assert np.array_equal(u.data, want) and np.array_equal(lat.to_position(g, uhat).data, want)
    shift = (0.3, -0.7, 1.1)
    shifted = translation_phase_exp(g, shift) * lat.to_momentum(u)
    assert np.array_equal(lat.translate(u, shift).data,
                          np.fft.ifftn(shifted, axes=(1, 2, 3)) / h3)


def test_checkpoint_round_trip(tmp_path, grid16, rng):
    u = lat.random_smooth_field(grid16, rng, kmax=3, decay=0.6)
    path = tmp_path / "state.dns"
    lat.write_checkpoint(path, u, 0.375, [0.5, -0.3], [10.0, 20.0],
                         [[0, 0, 0], [1, 2, 3]], [[0.1, 0, 0], [0, -0.1, 0]])
    v, t, Z, m, q, qd = lat.read_checkpoint(path)
    assert t == 0.375
    assert np.array_equal(Z, [0.5, -0.3])
    assert np.array_equal(m, [10.0, 20.0])
    assert np.array_equal(q, [[0, 0, 0], [1, 2, 3]])
    assert np.array_equal(qd, [[0.1, 0, 0], [0, -0.1, 0]])
    assert np.array_equal(v.data, u.data)


def test_checkpoint_layout_bytes(tmp_path, grid16):
    # magic, version, n, then little-endian doubles; data x-major component-minor
    u = lat.zero_spinor(grid16)
    u.data[1, 0, 0, 0] = 2.0 + 3.0j  # component 1 of the point (0, 0, 0)
    path = tmp_path / "layout.dns"
    lat.write_checkpoint(path, u, 1.5)
    blob = path.read_bytes()
    assert blob[:4] == b"DNS1"
    import struct

    version, n = struct.unpack_from("<II", blob, 4)
    L, t, n_nuc = struct.unpack_from("<ddI", blob, 12)
    assert (version, n, n_nuc) == (1, 16, 0)
    assert (L, t) == (12.0, 1.5)
    header = 4 + 8 + 20
    first_entries = np.frombuffer(blob[header:header + 64], dtype="<f8")
    # component-minor: entry 1 of point (0,0,0) sits at doubles 2,3
    assert first_entries[2] == 2.0 and first_entries[3] == 3.0


# sha256 of the DNS1 file of the field below, computed while fields were still
# stored interleaved, (n, n, n, 4): it pins the file's byte order and the order
# in which random_smooth_field draws its normals
PINNED_CHECKPOINT_SHA256 = "d4c940569263ffca7cd97e41f294ea02a75b23863fd928373fa424b3282aaff5"


def test_checkpoint_of_a_pinned_field_keeps_its_digest(tmp_path):
    g = lat.make_grid(8, 6.0)
    base = lat.gaussian_spinor(g, (0.3, -0.2, 0.1), 1.1, (0.6, 0.2j, 0.1, -0.3j))
    noise = lat.random_smooth_field(g, np.random.default_rng(2024), kmax=3, decay=0.7)
    u = lat.SpinorField(g, base.data + 0.25 * noise.data)
    path = tmp_path / "pinned.dns"
    lat.write_checkpoint(path, u, 0.5, [0.5, 0.4], [10.0, 12.0], [[-0.6, 0, 0], [1.2, 0.3, 0]],
                         [[0.05, 0.02, 0], [0, -0.01, 0.03]])
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_CHECKPOINT_SHA256
    v = lat.read_checkpoint(path)[0]
    assert np.array_equal(v.data.view(np.uint64), u.data.view(np.uint64))


def test_checkpoint_bytes_are_the_field_buffer(tmp_path, rng):
    # the written file is the header followed by the field's little-endian
    # complex128 bytes in the (n, n, n, 4) order, exactly as a tobytes() copy
    # of the component-minor view would lay them out
    import struct

    g = lat.make_grid(16, 7.5)
    u = lat.random_smooth_field(g, rng, kmax=5, decay=0.4)
    path = tmp_path / "field.dns"
    lat.write_checkpoint(path, u, 0.25, [0.5], [10.0], [[0.1, -0.2, 0.3]], [[0, 0.2, 0]])
    want = (b"DNS1" + struct.pack("<II", 1, 16) + struct.pack("<ddI", 7.5, 0.25, 1)
            + struct.pack("<8d", 0.5, 10.0, 0.1, -0.2, 0.3, 0.0, 0.2, 0.0)
            + np.ascontiguousarray(np.moveaxis(u.data, 0, -1), dtype="<c16").tobytes())
    assert path.read_bytes() == want


@pytest.mark.parametrize("n", [8, 16])
def test_density_is_bitwise_the_component_axis_sum(n):
    g = lat.make_grid(n, 9.0)
    for seed in range(3):
        u = lat.random_smooth_field(g, np.random.default_rng(seed), kmax=n // 2 - 1, decay=0.3)
        assert np.array_equal(lat.density(u), np.sum(np.abs(u.data) ** 2, axis=0))


@pytest.mark.parametrize("entry", [0, 3 * 8**3 + 17, 4 * 8**3 - 1])
def test_checkpoint_rejects_non_finite_field_data(tmp_path, entry):
    # one NaN anywhere in the field (first, interior or last complex entry) is refused
    g = lat.make_grid(8, 6.0)
    path = tmp_path / "nan.dns"
    lat.write_checkpoint(path, lat.gaussian_spinor(g, (0, 0, 0), 1.0, (1, 0, 0, 0)), 0.0)
    blob = bytearray(path.read_bytes())
    blob[32 + 16 * entry + 8:32 + 16 * entry + 16] = np.array([np.nan]).tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="non-finite"):
        lat.read_checkpoint(path)


def test_checkpoint_rejects_bad_magic(tmp_path):
    p = tmp_path / "junk.dns"
    p.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(ValueError):
        lat.read_checkpoint(p)


@settings(max_examples=16, deadline=None)
@given(n=st.sampled_from([8, 16]), n_nuc=st.integers(0, 3), seed=st.integers(0, 2**31),
       t=st.floats(-1e3, 1e3))
def test_checkpoint_round_trip_property(tmp_path_factory, n, n_nuc, seed, t):
    g = lat.make_grid(n, 7.0)
    rng = np.random.default_rng(seed)
    shape = (lat.N_COMPONENTS, n, n, n)
    u = lat.SpinorField(g, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    recs = rng.normal(size=(n_nuc, 8))
    path = tmp_path_factory.mktemp("ck") / "state.dns"
    lat.write_checkpoint(path, u, t, recs[:, 0], recs[:, 1], recs[:, 2:5], recs[:, 5:8])
    assert path.stat().st_size == 32 + 64 * n_nuc + 64 * n**3
    v, t2, Z, m, q, qd = lat.read_checkpoint(path)
    assert t2 == t
    assert v.grid == g
    assert np.array_equal(v.data, u.data)
    assert np.array_equal(np.column_stack([Z, m, q, qd]).reshape(n_nuc, 8), recs)


# an n = 8 checkpoint with two nuclei: 32 header + 2*64 record + 512*4*16 field bytes
CK_SIZE = 32 + 2 * 64 + 64 * 8**3
CK_FIELD = 32 + 2 * 64


@pytest.mark.parametrize("cut, message", [
    (lambda b: b + b"\x00" * 7, f"{CK_SIZE + 7} bytes, expected {CK_SIZE}"),
    (lambda b: b[:20], "20 bytes, shorter than the 32-byte header"),
    (lambda b: b[:32 + 64 + 10], f"{32 + 64 + 10} bytes, expected {CK_SIZE}"),
    (lambda b: b[:CK_FIELD + 16 * 5 + 8], f"{CK_FIELD + 16 * 5 + 8} bytes, expected {CK_SIZE}"),
    (lambda b: b[:CK_FIELD + 16 * 100], f"{CK_FIELD + 16 * 100} bytes, expected {CK_SIZE}"),
], ids=["trailing-bytes", "in-header", "in-nucleus-records", "in-complex-entry",
        "at-entry-boundary"])
def test_checkpoint_rejects_wrong_length(tmp_path, cut, message):
    g = lat.make_grid(8, 6.0)
    path = tmp_path / "state.dns"
    lat.write_checkpoint(path, lat.gaussian_spinor(g, (0, 0, 0), 1.0, (1, 0, 0, 0)), 0.5,
                         [0.5, 0.4], [10.0, 12.0], [[0, 0, 0], [2, 0, 0]], [[0, 0, 0]] * 2)
    assert path.stat().st_size == CK_SIZE
    path.write_bytes(cut(path.read_bytes()))
    with pytest.raises(ValueError, match=message):
        lat.read_checkpoint(path)
