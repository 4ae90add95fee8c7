"""Periodic cubic lattice, 4-spinor fields, transforms, Sobolev norms.

Conventions (natural units, hbar = c = electron mass = 1):

* position grid ``x_j = j*h`` with ``h = L/n``, indices in C order (x-major);
* frequency set ``xi = (2*pi/L) * m`` with integer ``m in {-n/2, ..., n/2-1}``
  per axis, laid out in FFT order;
* a :class:`SpinorField` holds position-grid data, component-major: a
  C-contiguous ``(4, n, n, n)`` complex array, so ``data[c]`` is one
  contiguous component and a potential of shape ``(n, n, n)`` broadcasts onto
  it as it is; its spectrum is a plain array of the same shape in FFT order;
* a field synthesised from a band of modes (:func:`random_smooth_field`,
  :func:`spectral_upsample`) keeps that band as its exact spectrum and its
  data read-only, so :func:`sobolev_norms` reads its norms from the band with
  no forward transform, and the band cannot go stale;
* forward transform ``uhat(xi) = h^3 * sum_x u(x) exp(-i xi.x)`` and inverse
  ``u(x) = L^-3 * sum_xi uhat(xi) exp(+i xi.x)``, so that ``d_j -> i xi_j``
  and Parseval is exact on the discrete torus:
  ``h^3 sum |u|^2 = L^-3 sum |uhat|^2``;
* the DNS1 checkpoint stores the field x-major, component-minor (the
  ``(n, n, n, 4)`` order); :func:`write_checkpoint` and :func:`read_checkpoint`
  convert one x-plane at a time.
"""

from __future__ import annotations

import os
import struct
from dataclasses import InitVar, dataclass, field
from functools import cached_property, lru_cache

import numpy as np

N_COMPONENTS = 4

CHECKPOINT_MAGIC = b"DNS1"
CHECKPOINT_VERSION = 1
CHECKPOINT_HEADER_BYTES = 32  # magic, version, n, L, t, nucleus count


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic cube: ``n`` points per axis, side length ``box_length``."""

    n: int
    box_length: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or not _is_power_of_two(int(self.n)) or self.n < 8:
            raise ValueError(f"grid size must be a power of two >= 8, got n={self.n}")
        if not np.isfinite(self.box_length) or self.box_length <= 0:
            raise ValueError(f"box length must be positive, got L={self.box_length}")

    @property
    def spacing(self) -> float:
        return self.box_length / self.n

    @property
    def volume(self) -> float:
        return self.box_length**3

    @cached_property
    def coords1d(self) -> np.ndarray:
        """Raw grid coordinates ``j*h`` along one axis."""
        return np.arange(self.n) * self.spacing

    @cached_property
    def freq1d(self) -> np.ndarray:
        """Angular frequencies ``(2*pi/L)*m`` in FFT layout."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing)

    @cached_property
    def freq_mesh(self) -> tuple:
        return tuple(np.meshgrid(self.freq1d, self.freq1d, self.freq1d, indexing="ij", sparse=True))

    @cached_property
    def freq_sq(self) -> np.ndarray:
        kx, ky, kz = self.freq_mesh
        return kx * kx + ky * ky + kz * kz

    @cached_property
    def mode_energy(self) -> np.ndarray:
        """Relativistic dispersion ``sqrt(1 + |xi|^2)`` per mode."""
        return np.sqrt(1.0 + self.freq_sq)

    def wrap(self, values) -> np.ndarray:
        """Map displacements into the minimum-image window [-L/2, L/2)."""
        L = self.box_length
        return (np.asarray(values, dtype=float) + 0.5 * L) % L - 0.5 * L

    def displacement_mesh(self, point) -> tuple:
        """Minimum-image displacement (x - point) per axis, broadcastable to (n,n,n)."""
        p = np.asarray(point, dtype=float)
        dx = self.wrap(self.coords1d - p[0])[:, None, None]
        dy = self.wrap(self.coords1d - p[1])[None, :, None]
        dz = self.wrap(self.coords1d - p[2])[None, None, :]
        return dx, dy, dz

    def radius_sq_from(self, point) -> np.ndarray:
        dx, dy, dz = self.displacement_mesh(point)
        return dx * dx + dy * dy + dz * dz

    def radius_from(self, point) -> np.ndarray:
        return np.sqrt(self.radius_sq_from(point))


def make_grid(n: int, box_length: float) -> GridSpec:
    """Build a grid, rejecting non-power-of-two ``n`` and nonpositive ``box_length``."""
    return GridSpec(int(n), float(box_length))


@dataclass
class SpinorField:
    """4-component complex field on the position grid of a :class:`GridSpec`,
    held component-major: ``data`` is ``(4, n, n, n)``.

    A spectrum is a plain array: see :func:`to_momentum` and :func:`to_position`.
    The optional third argument is accepted for callers that still pass the
    old space tag; any value other than ``"position"`` is rejected.

    ``band`` is ``(cube, idx)`` when the field's spectrum is ``cube`` on the
    modes ``idx`` of every axis and zero elsewhere; only :func:`_band_to_position`
    sets it.  A field with a band has read-only ``data``, so an in-place write
    raises instead of leaving the band stale (rebinding ``data`` would leave it
    stale too: build a new field instead); :meth:`copy` and fields built by
    arithmetic carry no band and are writable.
    """

    grid: GridSpec
    data: np.ndarray
    _space: InitVar[str] = "position"
    band: tuple = field(default=None, kw_only=True, repr=False)

    def __post_init__(self, _space):
        expected = (N_COMPONENTS, self.grid.n, self.grid.n, self.grid.n)
        if self.data.shape != expected:
            raise ValueError(f"spinor data shape {self.data.shape} != {expected}: a field is "
                             "component-major, (4, n, n, n)")
        if self.data.dtype != np.complex128:
            self.data = self.data.astype(np.complex128)
        if _space != "position":
            raise ValueError(f"a SpinorField holds position-grid data, got space {_space!r}; "
                             "build a field from a spectrum with to_position")
        if self.band is not None:
            self.data.setflags(write=False)

    def copy(self) -> "SpinorField":
        return SpinorField(self.grid, self.data.copy())

    def is_finite(self) -> bool:
        """Whether every entry is finite, checked one component at a time (no
        field-sized temporary)."""
        return all(np.isfinite(comp).all() for comp in self.data)


# ---------------------------------------------------------------------------
# constructors


def zero_spinor(grid: GridSpec) -> SpinorField:
    return SpinorField(grid, np.zeros((N_COMPONENTS, grid.n, grid.n, grid.n), dtype=np.complex128))


def constant_spinor(grid: GridSpec, weights) -> SpinorField:
    w = np.asarray(weights, dtype=np.complex128)
    data = np.broadcast_to(w[:, None, None, None], (N_COMPONENTS, grid.n, grid.n, grid.n)).copy()
    return SpinorField(grid, data)


def plane_wave(grid: GridSpec, mode, weights) -> SpinorField:
    """``exp(i xi.x) w`` for an integer mode triple (xi = (2*pi/L)*mode)."""
    m = np.asarray(mode, dtype=int)
    xi = 2.0 * np.pi / grid.box_length * m
    c = grid.coords1d
    phase = (
        np.exp(1j * xi[0] * c)[:, None, None]
        * np.exp(1j * xi[1] * c)[None, :, None]
        * np.exp(1j * xi[2] * c)[None, None, :]
    )
    w = np.asarray(weights, dtype=np.complex128)
    return SpinorField(grid, phase * w[:, None, None, None])


def gaussian_spinor(grid: GridSpec, center, width: float, weights) -> SpinorField:
    """``exp(-|x-center|^2 / (2 width^2)) w`` with minimum-image distances."""
    r2 = grid.radius_sq_from(center)
    env = np.exp(-r2 / (2.0 * width**2))
    w = np.asarray(weights, dtype=np.complex128)
    return SpinorField(grid, env * w[:, None, None, None])


def random_smooth_field(grid: GridSpec, rng, kmax: int = 5, decay: float = 1.0,
                        amplitude: float = 1.0) -> SpinorField:
    """Seeded band-limited random field, resolution independent.

    Modes with ``max|m_i| <= kmax`` receive Gaussian coefficients drawn in a
    fixed (grid-independent) order, damped by ``exp(-|xi|^2 decay^2 / 2)``.
    The same seed therefore produces the same continuum field on any grid
    with ``n/2 > kmax``, which makes refinement studies meaningful.

    The synthesis is pruned (:func:`_band_to_position`): it inverts only the
    lines the (2 kmax + 1)^3 mode cube occupies, so it holds about one field.
    The field keeps the cube as its band, so its norms take no transform.
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    n = grid.n
    if not 0 <= kmax < n // 2:
        raise ValueError(f"kmax must lie in [0, n/2) = [0, {n // 2}), got kmax={kmax}")
    K = 2 * kmax + 1
    mx, my, mz = np.mgrid[-kmax:kmax + 1, -kmax:kmax + 1, -kmax:kmax + 1].reshape(3, -1)
    z = rng.normal(size=(mx.size, 2, N_COMPONENTS))  # per mode, mx-major: 4 real, 4 imaginary
    xi2 = (2.0 * np.pi / grid.box_length) ** 2 * (mx * mx + my * my + mz * mz)
    damp = np.exp(-0.5 * xi2 * decay**2)
    coeffs = (z[:, 0] + 1j * z[:, 1]) * damp[:, None]  # drawn mode-major, stored component-major
    cube = np.ascontiguousarray(coeffs.T).reshape(N_COMPONENTS, K, K, K)
    cube *= amplitude * grid.volume / K**1.5
    return _band_to_position(grid, cube, np.arange(-kmax, kmax + 1) % n)


# ---------------------------------------------------------------------------
# transforms and norms


def spinor_fft(data: np.ndarray, out: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Unscaled 3-D ``fftn`` (``ifftn`` if ``inverse``) of each spinor component
    ``data[c]`` into ``out[c]``; ``out`` may be ``data``.

    Bitwise ``fftn(data, axes=(1, 2, 3))``; each component is one contiguous
    cube, and one at a time needs no second field in place."""
    transform = np.fft.ifftn if inverse else np.fft.fftn
    for c in range(N_COMPONENTS):
        transform(data[c], out=out[c])
    return out


def to_momentum(u: SpinorField) -> np.ndarray:
    """The spectrum ``uhat = h^3 fftn(u)`` of a field, as a plain array."""
    uhat = spinor_fft(u.data, np.empty_like(u.data))
    uhat *= u.grid.spacing**3
    return uhat


def to_position(grid: GridSpec, uhat: np.ndarray) -> SpinorField:
    """The field ``ifftn(uhat) / h^3`` on ``grid`` of a spectrum ``uhat``.

    Scaled by ``1.0 / h^3``, as the band synthesis and :func:`translate` are:
    bitwise the division, as numpy divides a complex array by a real through
    that reciprocal, at about a quarter of its cost."""
    x = spinor_fft(uhat, np.empty(uhat.shape, dtype=np.complex128), inverse=True)
    x *= 1.0 / grid.spacing**3
    return SpinorField(grid, x)


def _band_to_position(grid: GridSpec, cube: np.ndarray, idx: np.ndarray) -> SpinorField:
    """``to_position`` of the spectrum that equals ``cube`` (4, K, K, K) on the
    modes ``idx`` of every axis and is zero elsewhere, bitwise.

    FFT pruning: ``ifftn``'s 1-D passes over a component in its axis order
    (z, y, x), each on the array zero-padded to n along that axis only, so
    all-zero lines are never transformed:
    (4, K, K, K) -> (4, K, K, n) -> (4, K, n, n) -> (4, n, n, n).
    The field keeps ``(cube, idx)``, both made read-only, as its band."""
    x = cube
    for axis in (3, 2, 1):
        padded = np.zeros(x.shape[:axis] + (grid.n,) + x.shape[axis + 1:], dtype=np.complex128)
        padded[(slice(None),) * axis + (idx,)] = x
        x = np.fft.ifft(padded, axis=axis, out=padded)
    x *= 1.0 / grid.spacing**3
    cube.setflags(write=False)
    idx.setflags(write=False)
    return SpinorField(grid, x, band=(cube, idx))


def _component_power(data: np.ndarray) -> np.ndarray:
    """``sum_c |data[c]|^2`` of a component-major spinor array (a field, a
    spectrum or a band cube), one component at a time in ``np.sum``'s order
    ``((a0 + a1) + a2) + a3``: bitwise ``np.sum(|data|^2, axis=0)`` without an
    array of the input's size."""
    power = np.abs(data[0]) ** 2
    for c in range(1, N_COMPONENTS):
        power += np.abs(data[c]) ** 2
    return power


def density(u: SpinorField) -> np.ndarray:
    """Pointwise C^4 density <u,u> on the position grid (:func:`_component_power`)."""
    return _component_power(u.data)


def charge(u: SpinorField) -> float:
    """Total charge ``h^3 sum <u,u>``."""
    return float(u.grid.spacing**3 * np.sum(np.abs(u.data) ** 2))


def inner(u: SpinorField, v: SpinorField) -> complex:
    """L^2 inner product, conjugate-linear in the first argument."""
    return complex(np.vdot(u.data, v.data) * u.grid.spacing**3)


def l2_norm(u: SpinorField) -> float:
    return np.sqrt(charge(u))


def l2_distance(u: SpinorField, v: SpinorField) -> float:
    diff = u.data - v.data
    return float(np.sqrt(u.grid.spacing**3 * np.sum(np.abs(diff) ** 2)))


@lru_cache(maxsize=8)
def sobolev_weight(grid: GridSpec, sigma: float, homogeneous: bool) -> np.ndarray:
    """The squared multiplier ``(1+|xi|^2)^sigma``, or with ``homogeneous``
    ``|xi|^(2 sigma)`` with the xi=0 mode dropped; read-only because the cache
    hands the same array to every caller."""
    k2 = grid.freq_sq
    w = (np.where(k2 > 0.0, np.where(k2 > 0.0, k2, 1.0) ** sigma, 0.0) if homogeneous
         else (1.0 + k2) ** sigma)
    w.setflags(write=False)
    return w


def sobolev_norms(u: SpinorField, sigmas, homogeneous: bool = False) -> list:
    """The norm of ``u`` at each sigma in ``sigmas``, all from one spectrum.

    Multiplier ``(1+|xi|^2)^(sigma/2)`` for sigma in [0, 2], or with
    ``homogeneous`` ``|xi|^sigma`` with the xi=0 mode dropped, for sigma >= 0.
    A field with a band is normed from the band's modes alone, with no
    transform; any other field from its forward transform.  The power
    ``sum_c |uhat_c|^2`` is summed over the components into one grid- (or
    band-) sized array, and each sigma is one dot product of it with the
    weight, so beside the spectrum the call holds a quarter of a field.
    """
    for sigma in sigmas:
        if homogeneous and sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if not homogeneous and not 0.0 <= sigma <= 2.0:
            raise ValueError(f"sigma must lie in [0, 2], got {sigma}")
    if u.band is None:
        spectrum, modes = to_momentum(u), ...  # every mode of the weight
    else:
        spectrum, idx = u.band
        modes = np.ix_(idx, idx, idx)
    # the weights before the power array: built after it, the cached n = 64 weight
    # lands where a direct run's peak RSS reads about 1 MB higher
    weights = [sobolev_weight(u.grid, sigma, homogeneous)[modes] for sigma in sigmas]
    power = _component_power(spectrum)
    return [float(np.sqrt(np.vdot(w, power) / u.grid.volume)) for w in weights]


def sobolev_norm(u: SpinorField, sigma: float) -> float:
    """Inhomogeneous Sobolev norm with multiplier ``(1+|xi|^2)^(sigma/2)``.

    ``sigma`` must lie in [0, 2]; ``sobolev_norm(u, 0)`` equals ``sqrt(charge(u))``.
    """
    return sobolev_norms(u, (sigma,))[0]


def homogeneous_sobolev_norm(u: SpinorField, sigma: float) -> float:
    """Homogeneous norm with multiplier ``|xi|^sigma``; the xi=0 mode is dropped."""
    return sobolev_norms(u, (sigma,), homogeneous=True)[0]


def _unit_phase(theta) -> np.ndarray:
    """``exp(i theta)`` for a real array or scalar ``theta``: ``cos(theta)`` and
    ``sin(theta)`` written into the two halves of one complex buffer.

    Bitwise ``np.exp(1j * theta)``: that argument's real part is zero, so
    ``cexp`` returns the same (cos, sin) pair, and its imaginary part is
    ``+0 + theta``, which the sine takes too (a -0 angle becomes +0)."""
    theta = np.asarray(theta, dtype=float)
    out = np.empty(theta.shape, dtype=np.complex128)
    np.cos(theta, out=out.real)
    np.add(theta, 0.0, out=out.imag)
    np.sin(out.imag, out=out.imag)
    return out


def translate(u: SpinorField, shift) -> SpinorField:
    """Exact spectral translation ``v(x) = u(x + shift)``, built in the spectrum's buffer."""
    uhat = to_momentum(u)
    kx, ky, kz = u.grid.freq_mesh
    s = np.asarray(shift, dtype=float)
    phase = _unit_phase(kx * s[0] + ky * s[1] + kz * s[2])
    np.multiply(phase, uhat, out=uhat)  # phase first: `uhat *= phase` rounds differently
    spinor_fft(uhat, uhat, inverse=True)
    uhat *= 1.0 / u.grid.spacing**3
    return SpinorField(u.grid, uhat)


def spectral_upsample(u: SpinorField, factor: int = 2) -> SpinorField:
    """Zero-padded Fourier interpolation onto a ``factor*n`` grid (exact)."""
    uhat = to_momentum(u)
    n = u.grid.n
    n2 = n * factor
    fine = GridSpec(n2, u.grid.box_length)
    idx = np.fft.fftfreq(n, 1.0 / n).astype(int)  # integer modes in FFT order
    return _band_to_position(fine, uhat, idx % n2)


# ---------------------------------------------------------------------------
# binary checkpoint ("DNS1")
#
# layout: magic "DNS1" | u32 version | u32 n | f64 L | f64 t | u32 n_nuclei |
#         per nucleus (Z, m, qx, qy, qz, vx, vy, vz) as f64 |
#         n^3 x 4 complex entries as little-endian (re, im) f64 pairs,
#         x-major, component-minor order: the (n, n, n, 4) order, which the
#         writer and the reader convert one x-plane at a time.


def write_checkpoint(path, u: SpinorField, t: float, charges=(), masses=(),
                     positions=(), velocities=()) -> None:
    if not u.is_finite():
        raise ValueError("refusing to checkpoint non-finite field data")
    charges = np.atleast_1d(np.asarray(charges, dtype=float))
    masses = np.atleast_1d(np.asarray(masses, dtype=float))
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    velocities = np.asarray(velocities, dtype=float).reshape(-1, 3)
    n_nuc = len(charges)
    if not (len(masses) == n_nuc and len(positions) == n_nuc and len(velocities) == n_nuc):
        raise ValueError("inconsistent nucleus record lengths")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, u.grid.n))
        fh.write(struct.pack("<ddI", u.grid.box_length, float(t), n_nuc))
        for k in range(n_nuc):
            fh.write(struct.pack("<8d", charges[k], masses[k], *positions[k], *velocities[k]))
        plane = np.empty((u.grid.n, u.grid.n, N_COMPONENTS), dtype="<c16")
        for x_plane in np.moveaxis(u.data, 0, -1):  # one x-plane copy, no field copy
            plane[...] = x_plane
            fh.write(memoryview(plane).cast("B"))


def read_checkpoint(path):
    """Read a "DNS1" checkpoint; returns (field, t, charges, masses, positions, velocities).

    The file must be exactly as long as its header says; trailing or missing
    bytes raise ValueError naming the expected and actual byte counts.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(CHECKPOINT_HEADER_BYTES)
        if len(header) < CHECKPOINT_HEADER_BYTES:
            raise ValueError(f"checkpoint {path} is {size} bytes, shorter than the "
                             f"{CHECKPOINT_HEADER_BYTES}-byte header")
        magic = header[:4]
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"bad checkpoint magic {magic!r}")
        version, n, box_length, t, n_nuc = struct.unpack("<IIddI", header[4:])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        expected = CHECKPOINT_HEADER_BYTES + 64 * n_nuc + 16 * N_COMPONENTS * n**3
        if size != expected:
            raise ValueError(f"checkpoint {path} is {size} bytes, expected {expected} "
                             f"for n={n} with {n_nuc} nuclei")
        recs = np.frombuffer(fh.read(8 * 8 * n_nuc), dtype="<f8").reshape(n_nuc, 8)
        data = np.empty((N_COMPONENTS, n, n, n), dtype=np.complex128)
        plane = np.empty((n, n, N_COMPONENTS), dtype="<c16")
        for x_plane in np.moveaxis(data, 0, -1):  # one x-plane buffer, no field copy
            fh.readinto(memoryview(plane).cast("B"))
            if not np.isfinite(plane.view("<f8")).all():  # checked while the plane is in cache
                raise ValueError("checkpoint contains non-finite field data")
            x_plane[...] = plane
    field = SpinorField(GridSpec(int(n), float(box_length)), data)
    charges = recs[:, 0].copy()
    masses = recs[:, 1].copy()
    positions = recs[:, 2:5].copy()
    velocities = recs[:, 5:8].copy()
    return field, float(t), charges, masses, positions, velocities
