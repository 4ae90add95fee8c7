"""Nonlocal Hartree term (|u|^2 * 1/|x|) u via Fourier-space convolution.

On the torus 1/|x| is the nonnegative multiplier ``4*pi/|xi|^2`` with the
mean (xi = 0) mode zeroed, which shifts the potential by a constant: a global
phase of u, with forces and densities unaffected.  A real density goes through
a real transform pair; the direct integrator builds its potential once per snapshot.
The complex pair density of the bilinear report goes through one complex
spectrum array, transformed, multiplied and inverted in place, and the report
takes every norm of a field, L2 included, from that field's one spectrum or band.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import (
    GridSpec,
    SpinorField,
    density,
    sobolev_norms,
)


@lru_cache(maxsize=8)
def hartree_multiplier(grid: GridSpec) -> np.ndarray:
    """The torus kernel's multiplier ``4*pi/|xi|^2`` (0 at xi = 0), read-only
    because the cache hands the same array to every caller."""
    k2 = grid.freq_sq
    mult = np.where(k2 > 0.0, 4.0 * np.pi / np.where(k2 > 0.0, k2, 1.0), 0.0)
    mult.setflags(write=False)
    return mult


def convolve_inverse_distance(grid: GridSpec, source: np.ndarray) -> np.ndarray:
    """Convolution ``source * 1/|x|`` with the zero-mean torus kernel, in one spectrum
    array: ``fftn``, ``mult`` and ``ifftn`` in place, and a real source ``rfftn``,
    ``irfftn`` and the half-spectrum multiplier (``h^3`` and ``h^-3`` cancel)."""
    mult = hartree_multiplier(grid)
    if np.iscomplexobj(source):
        shat = np.fft.fftn(source, out=np.empty(source.shape, dtype=np.complex128))
        shat *= mult
        return np.fft.ifftn(shat, out=shat)
    shat = np.fft.rfftn(source)
    shat *= mult[..., : grid.n // 2 + 1]
    return np.fft.irfftn(shat, s=source.shape, axes=(0, 1, 2))


def hartree_potential(u: SpinorField) -> np.ndarray:
    """The mean-field potential ``(<u,u> * 1/|x|)`` of the field's own density (real)."""
    return convolve_inverse_distance(u.grid, density(u))


def apply_nonlinearity(u: SpinorField) -> SpinorField:
    """Return ``(|u|^2 * 1/|x|) u``."""
    return SpinorField(u.grid, hartree_potential(u) * u.data)


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
    grid = u.grid
    pair = np.sum(np.conj(u.data) * v.data, axis=0)
    conv = convolve_inverse_distance(grid, pair)
    lhs_field = SpinorField(grid, conv * w.data)

    def ratio(lhs: float, rhs: float) -> float:
        return lhs / rhs if rhs > 0.0 else 0.0

    sig = (0.0, 1.0, s + 1.0)
    (lhs0, lhs1, lhs_s1), (u0, u1, u_s1), (_, v1, v_s1), (w0, w1, w_s1) = (
        sobolev_norms(f, sig) for f in (lhs_field, u, v, w))
    l2 = ratio(lhs0, u0 * v1 * w0)
    h1 = ratio(lhs1, u1 * v1 * w1)
    hs1 = ratio(lhs_s1, u_s1 * v_s1 * w_s1)
    return BilinearRatios(l2=l2, h1=h1, hs1=hs1, s=s)
