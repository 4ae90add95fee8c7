import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diraclab import lattice as lat
from oracles import gaussian_h1_sq, random_smooth_field_loop


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
    assert np.allclose(uh[0, 0, 0], c * grid16.volume)
    mask = np.ones(uh.shape[:3], dtype=bool)
    mask[0, 0, 0] = False
    assert np.max(np.abs(uh[mask])) < 1e-10 * grid16.volume


def test_plane_wave_single_mode(grid16):
    w = np.array([0.0, 1.0, 0.0, 0.5])
    u = lat.plane_wave(grid16, (2, -1, 3), w)
    uh = lat.to_momentum(u)
    n = grid16.n
    idx = (2 % n, (-1) % n, 3 % n)
    assert np.allclose(uh[idx], w * grid16.volume)
    total = np.sum(np.abs(uh) ** 2)
    assert np.sum(np.abs(uh[idx]) ** 2) == pytest.approx(total, rel=1e-12)


def test_round_trip_and_parseval(grid16, rng):
    u = lat.random_smooth_field(grid16, rng, kmax=5, decay=0.5)
    uhat = lat.to_momentum(u)
    back = lat.to_position(grid16, uhat)
    assert lat.l2_distance(back, u) / lat.l2_norm(u) < 1e-12
    assert np.sum(np.abs(uhat) ** 2) / grid16.volume == pytest.approx(lat.charge(u), rel=1e-12)


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


@pytest.mark.parametrize("homogeneous", [False, True])
def test_sobolev_norms_equal_one_sigma_norms_exactly(grid16, rng, homogeneous):
    u = lat.random_smooth_field(grid16, rng, kmax=5, decay=0.5)
    sigmas = (0.0, 0.5, 1.0, 1.25, 1.4, 2.0)
    one = lat.homogeneous_sobolev_norm if homogeneous else lat.sobolev_norm
    assert lat.sobolev_norms(u, sigmas, homogeneous) == [one(u, s) for s in sigmas]


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


def test_spectral_upsample_preserves_values(grid16, rng):
    u = lat.random_smooth_field(grid16, rng, kmax=4, decay=0.7)
    fine = lat.spectral_upsample(u, 2)
    assert np.max(np.abs(fine.data[::2, ::2, ::2] - u.data)) < 1e-10
    assert lat.charge(fine) == pytest.approx(lat.charge(u), rel=1e-12)


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
    u.data[0, 0, 0, 1] = 2.0 + 3.0j
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
    shape = (n, n, n, lat.N_COMPONENTS)
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
