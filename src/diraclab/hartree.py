"""Nonlocal Hartree term (|u|^2 * 1/|x|) u via Fourier-space convolution.

On the torus the kernel 1/|x| is represented by the nonnegative multiplier
``4*pi/|xi|^2`` with the mean (xi = 0) mode zeroed.  Omitting the mean
shifts the potential by a constant, i.e. changes u only by a global
time-dependent phase; forces and densities are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import (
    GridSpec,
    SpinorField,
    as_position,
    density,
    l2_norm,
    sobolev_norm,
)


@dataclass(frozen=True)
class HartreeKernel:
    grid: GridSpec
    multiplier: np.ndarray


@lru_cache(maxsize=8)
def hartree_kernel(grid: GridSpec) -> HartreeKernel:
    k2 = grid.freq_sq
    mult = np.where(k2 > 0.0, 4.0 * np.pi / np.where(k2 > 0.0, k2, 1.0), 0.0)
    return HartreeKernel(grid, mult)


def convolve_inverse_distance(grid: GridSpec, source: np.ndarray) -> np.ndarray:
    """Convolution ``source * 1/|x|`` with the zero-mean torus kernel."""
    mult = hartree_kernel(grid).multiplier
    shat = np.fft.fftn(source) * grid.spacing**3
    return np.fft.ifftn(shat * mult) / grid.spacing**3


def hartree_potential(u: SpinorField) -> np.ndarray:
    """The mean-field potential ``(<u,u> * 1/|x|)`` of the field's own density."""
    up = as_position(u)
    rho = density(up)
    phi = convolve_inverse_distance(up.grid, rho)
    return np.real(phi)


def apply_nonlinearity(u: SpinorField) -> SpinorField:
    """Return ``(|u|^2 * 1/|x|) u`` in position space."""
    up = as_position(u)
    phi = hartree_potential(up)
    return SpinorField(up.grid, phi[..., None] * up.data, up.space)


@dataclass
class BilinearRatios:
    """LHS/RHS ratios for the convolution estimates on a field triple.

    l2:    ||(uv * 1/|x|) w||_L2  /  (||u||_L2 ||v||_H1 ||w||_L2)
    h1:    ||(uv * 1/|x|) w||_H1  /  (||u||_H1 ||v||_H1 ||w||_H1)
    hs1:   ||(uv * 1/|x|) w||_H(s+1) / (product of H(s+1) norms), s in (0, 1/2)
    """

    l2: float
    h1: float
    hs1: float
    s: float


def bilinear_estimate_report(u: SpinorField, v: SpinorField, w: SpinorField,
                             s: float = 0.25) -> BilinearRatios:
    """Measure the bilinear convolution estimates on one (u, v, w) triple.

    The pair density is the pointwise sesquilinear form ``<u, v>_{C^4}``
    (which reduces to |u|^2 when v = u).  All-zero right-hand sides give
    ratio 0 by convention.
    """
    if not 0.0 < s < 0.5:
        raise ValueError(f"s must lie in (0, 1/2), got {s}")
    up, vp, wp = as_position(u), as_position(v), as_position(w)
    grid = up.grid
    pair = np.sum(np.conj(up.data) * vp.data, axis=-1)
    conv = convolve_inverse_distance(grid, pair)
    lhs_field = SpinorField(grid, conv[..., None] * wp.data, up.space)

    def ratio(lhs: float, rhs: float) -> float:
        return lhs / rhs if rhs > 0.0 else 0.0

    l2 = ratio(l2_norm(lhs_field), l2_norm(up) * sobolev_norm(vp, 1.0) * l2_norm(wp))
    h1 = ratio(sobolev_norm(lhs_field, 1.0),
               sobolev_norm(up, 1.0) * sobolev_norm(vp, 1.0) * sobolev_norm(wp, 1.0))
    hs1 = ratio(sobolev_norm(lhs_field, s + 1.0),
                sobolev_norm(up, s + 1.0) * sobolev_norm(vp, s + 1.0) * sobolev_norm(wp, s + 1.0))
    return BilinearRatios(l2=l2, h1=h1, hs1=hs1, s=s)
