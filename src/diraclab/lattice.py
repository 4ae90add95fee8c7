"""Periodic cubic lattice, 4-spinor fields, transforms, Sobolev norms.

Conventions (natural units, hbar = c = electron mass = 1):

* position grid ``x_j = j*h`` with ``h = L/n``, indices in C order (x-major);
* frequency set ``xi = (2*pi/L) * m`` with integer ``m in {-n/2, ..., n/2-1}``
  per axis, laid out in FFT order;
* a :class:`SpinorField` holds position-grid data; its spectrum is a plain
  ``(n, n, n, 4)`` complex array in FFT order;
* forward transform ``uhat(xi) = h^3 * sum_x u(x) exp(-i xi.x)`` and inverse
  ``u(x) = L^-3 * sum_xi uhat(xi) exp(+i xi.x)``, so that ``d_j -> i xi_j``
  and Parseval is exact on the discrete torus:
  ``h^3 sum |u|^2 = L^-3 sum |uhat|^2``.
"""

from __future__ import annotations

import os
import struct
from dataclasses import InitVar, dataclass
from functools import cached_property

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
    """4-component complex field on the position grid of a :class:`GridSpec`.

    A spectrum is a plain array: see :func:`to_momentum` and :func:`to_position`.
    The optional third argument is accepted for callers that still pass the
    old space tag; any value other than ``"position"`` is rejected.
    """

    grid: GridSpec
    data: np.ndarray
    _space: InitVar[str] = "position"

    def __post_init__(self, _space):
        expected = (self.grid.n, self.grid.n, self.grid.n, N_COMPONENTS)
        if self.data.shape != expected:
            raise ValueError(f"spinor data shape {self.data.shape} != {expected}")
        if self.data.dtype != np.complex128:
            self.data = self.data.astype(np.complex128)
        if _space != "position":
            raise ValueError(f"a SpinorField holds position-grid data, got space {_space!r}; "
                             "build a field from a spectrum with to_position")

    def copy(self) -> "SpinorField":
        return SpinorField(self.grid, self.data.copy())

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.data.view(np.float64))))


# ---------------------------------------------------------------------------
# constructors


def zero_spinor(grid: GridSpec) -> SpinorField:
    return SpinorField(grid, np.zeros((grid.n, grid.n, grid.n, N_COMPONENTS), dtype=np.complex128))


def constant_spinor(grid: GridSpec, weights) -> SpinorField:
    w = np.asarray(weights, dtype=np.complex128)
    data = np.broadcast_to(w, (grid.n, grid.n, grid.n, N_COMPONENTS)).copy()
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
    return SpinorField(grid, phase[..., None] * w)


def gaussian_spinor(grid: GridSpec, center, width: float, weights) -> SpinorField:
    """``exp(-|x-center|^2 / (2 width^2)) w`` with minimum-image distances."""
    r2 = grid.radius_sq_from(center)
    env = np.exp(-r2 / (2.0 * width**2))
    w = np.asarray(weights, dtype=np.complex128)
    return SpinorField(grid, env[..., None] * w)


def random_smooth_field(grid: GridSpec, rng, kmax: int = 5, decay: float = 1.0,
                        amplitude: float = 1.0) -> SpinorField:
    """Seeded band-limited random field, resolution independent.

    Modes with ``max|m_i| <= kmax`` receive Gaussian coefficients drawn in a
    fixed (grid-independent) order, damped by ``exp(-|xi|^2 decay^2 / 2)``.
    The same seed therefore produces the same continuum field on any grid
    with ``n/2 > kmax``, which makes refinement studies meaningful.
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    n = grid.n
    if kmax >= n // 2:
        raise ValueError("kmax must be below the Nyquist index n/2")
    mx, my, mz = np.mgrid[-kmax:kmax + 1, -kmax:kmax + 1, -kmax:kmax + 1].reshape(3, -1)
    z = rng.normal(size=(mx.size, 2, N_COMPONENTS))  # per mode, mx-major: 4 real, 4 imaginary
    xi2 = (2.0 * np.pi / grid.box_length) ** 2 * (mx * mx + my * my + mz * mz)
    damp = np.exp(-0.5 * xi2 * decay**2)
    uhat = np.zeros((n, n, n, N_COMPONENTS), dtype=np.complex128)
    uhat[mx % n, my % n, mz % n] = (z[:, 0] + 1j * z[:, 1]) * damp[:, None]
    uhat *= amplitude * grid.volume / (2 * kmax + 1) ** 1.5
    return to_position(grid, uhat)


# ---------------------------------------------------------------------------
# transforms and norms


def to_momentum(u: SpinorField) -> np.ndarray:
    """The spectrum ``uhat = h^3 fftn(u)`` of a field, as a plain array."""
    uhat = np.fft.fftn(u.data, axes=(0, 1, 2))
    uhat *= u.grid.spacing**3
    return uhat


def to_position(grid: GridSpec, uhat: np.ndarray) -> SpinorField:
    """The field ``ifftn(uhat) / h^3`` on ``grid`` of a spectrum ``uhat``."""
    x = np.fft.ifftn(uhat, axes=(0, 1, 2))
    x /= grid.spacing**3
    return SpinorField(grid, x)


def density(u: SpinorField) -> np.ndarray:
    """Pointwise C^4 density <u,u> on the position grid."""
    return np.sum(np.abs(u.data) ** 2, axis=-1)


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


def sobolev_norms(u: SpinorField, sigmas, homogeneous: bool = False) -> list:
    """The norm of ``u`` at each sigma in ``sigmas``, all from one transform.

    Multiplier ``(1+|xi|^2)^(sigma/2)`` for sigma in [0, 2], or with
    ``homogeneous`` ``|xi|^sigma`` with the xi=0 mode dropped, for sigma >= 0.
    """
    for sigma in sigmas:
        if homogeneous and sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if not homogeneous and not 0.0 <= sigma <= 2.0:
            raise ValueError(f"sigma must lie in [0, 2], got {sigma}")
    uhat = to_momentum(u)
    k2 = u.grid.freq_sq
    weights = [np.where(k2 > 0.0, np.where(k2 > 0.0, k2, 1.0) ** sigma, 0.0)
               if homogeneous else (1.0 + k2) ** sigma for sigma in sigmas]
    power = np.abs(uhat) ** 2
    return [float(np.sqrt(np.sum(w[..., None] * power) / u.grid.volume)) for w in weights]


def sobolev_norm(u: SpinorField, sigma: float) -> float:
    """Inhomogeneous Sobolev norm with multiplier ``(1+|xi|^2)^(sigma/2)``.

    ``sigma`` must lie in [0, 2]; ``sobolev_norm(u, 0)`` equals ``sqrt(charge(u))``.
    """
    return sobolev_norms(u, (sigma,))[0]


def homogeneous_sobolev_norm(u: SpinorField, sigma: float) -> float:
    """Homogeneous norm with multiplier ``|xi|^sigma``; the xi=0 mode is dropped."""
    return sobolev_norms(u, (sigma,), homogeneous=True)[0]


def translate(u: SpinorField, shift) -> SpinorField:
    """Exact spectral translation: returns v with ``v(x) = u(x + shift)``."""
    uhat = to_momentum(u)
    kx, ky, kz = u.grid.freq_mesh
    s = np.asarray(shift, dtype=float)
    phase = np.exp(1j * (kx * s[0] + ky * s[1] + kz * s[2]))
    return to_position(u.grid, phase[..., None] * uhat)


def spectral_upsample(u: SpinorField, factor: int = 2) -> SpinorField:
    """Zero-padded Fourier interpolation onto a ``factor*n`` grid (exact)."""
    uhat = to_momentum(u)
    n = u.grid.n
    n2 = n * factor
    fine = GridSpec(n2, u.grid.box_length)
    out = np.zeros((n2, n2, n2, N_COMPONENTS), dtype=np.complex128)
    idx = np.fft.fftfreq(n, 1.0 / n).astype(int)  # integer modes in FFT order
    ix = idx % n2
    out[np.ix_(ix, ix, ix)] = uhat
    return to_position(fine, out)


# ---------------------------------------------------------------------------
# binary checkpoint ("DNS1")
#
# layout: magic "DNS1" | u32 version | u32 n | f64 L | f64 t | u32 n_nuclei |
#         per nucleus (Z, m, qx, qy, qz, vx, vy, vz) as f64 |
#         n^3 x 4 complex entries as little-endian (re, im) f64 pairs,
#         x-major, component-minor order.


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
        fh.write(np.ascontiguousarray(u.data, dtype="<c16").tobytes())


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
        raw = np.frombuffer(fh.read(16 * n**3 * N_COMPONENTS), dtype="<c16")
    grid = GridSpec(int(n), float(box_length))
    data = raw.reshape(n, n, n, N_COMPONENTS).astype(np.complex128)
    field = SpinorField(grid, data)
    if not field.is_finite():
        raise ValueError("checkpoint contains non-finite field data")
    charges = recs[:, 0].copy()
    masses = recs[:, 1].copy()
    positions = recs[:, 2:5].copy()
    velocities = recs[:, 5:8].copy()
    return field, float(t), charges, masses, positions, velocities
