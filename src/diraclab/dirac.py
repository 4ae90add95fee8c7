"""Dirac 4x4 algebra, the free operator D + beta, and its exact mode propagator.

The momentum-space symbol is ``H_xi = sum_j alpha_j xi_j + beta`` with
``H_xi^2 = (1 + |xi|^2) I`` by the anticommutation relations, so the
one-step exponential has the closed form

    exp(-i dt (H_xi - (v.xi) I))
        = exp(i dt v.xi) [cos(dt lam) I - i sin(dt lam)/lam H_xi],

with ``lam = sqrt(1 + |xi|^2)`` and ``v`` an optional comoving drift
velocity (the ``i v.grad`` term acting as the scalar symbol ``-v.xi``).
Each mode factor is exactly unitary, so charge is preserved to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import SpinorField, _band_to_position, _unit_phase, to_momentum, to_position

_S1 = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_S2 = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_S3 = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_Z2 = np.zeros((2, 2), dtype=np.complex128)
_I2 = np.eye(2, dtype=np.complex128)


@dataclass(frozen=True)
class DiracMatrices:
    alpha1: np.ndarray
    alpha2: np.ndarray
    alpha3: np.ndarray
    beta: np.ndarray

    @property
    def alphas(self) -> tuple:
        return (self.alpha1, self.alpha2, self.alpha3)


def dirac_matrices() -> DiracMatrices:
    """The Dirac representation: alpha_k off-diagonal Pauli blocks, beta = diag(I2, -I2)."""
    alphas = tuple(np.block([[_Z2, s], [s, _Z2]]) for s in (_S1, _S2, _S3))
    beta = np.block([[_I2, _Z2], [_Z2, -_I2]])
    return DiracMatrices(*alphas, beta)


# points per block of the kinetic step: whole x-planes, at least one
_BLOCK_POINTS = 2**14


def _symbol_into(out: np.ndarray, kx, ky, kz, uhat: np.ndarray) -> np.ndarray:
    """Write ``H_xi uhat`` into ``out``, for the mesh ``(kx, ky, kz)`` of ``uhat``'s modes.

    Written out per component (row r of H_xi acting on (u0,u1,u2,u3)), each a
    contiguous plane of the component-major arrays: the alpha blocks swap the
    upper and lower 2-spinors through the Pauli matrices, beta flips the sign
    of the lower 2-spinor.  Each row is summed in ``out``'s own plane with
    ``out=`` ufuncs and one product buffer, and ``kx -+ i ky`` is formed once:
    the operations and their order are those of the row's expression
    ``u0 + kz u2 + (kx - i ky) u3`` (``-u2 + kz u0`` as ``kz u0 - u2``, the
    same bits), so the result is bitwise that of the expressions.
    """
    u0, u1, u2, u3 = uhat
    minus, plus = kx - 1j * ky, kx + 1j * ky
    prod = np.empty_like(u0)
    o0, o1, o2, o3 = out
    np.add(u0, np.multiply(kz, u2, out=o0), out=o0)
    o0 += np.multiply(minus, u3, out=prod)
    np.add(u1, np.multiply(plus, u2, out=o1), out=o1)
    o1 -= np.multiply(kz, u3, out=prod)
    np.subtract(np.multiply(kz, u0, out=o2), u2, out=o2)
    o2 += np.multiply(minus, u1, out=prod)
    np.subtract(np.multiply(plus, u0, out=o3), u3, out=o3)
    o3 -= np.multiply(kz, u1, out=prod)
    return out


def apply_symbol(grid, uhat: np.ndarray) -> np.ndarray:
    """Apply ``H_xi = sum_j alpha_j xi_j + beta`` to momentum-space data (a new array)."""
    return _symbol_into(np.empty_like(uhat), *grid.freq_mesh, uhat)


def apply_free_dirac(u: SpinorField) -> SpinorField:
    """Return ``(D + beta) u`` via the momentum-space symbol.

    A field with a band (see :class:`lattice.SpinorField`) takes the symbol on
    the band's modes alone, with no forward transform, and the result keeps
    the band: the symbol maps every mode to itself, so the spectrum stays on it.
    """
    if u.band is None:
        return to_position(u.grid, apply_symbol(u.grid, to_momentum(u)))
    cube, idx = u.band
    k = u.grid.freq1d[idx]
    return _band_to_position(u.grid, _symbol_into(np.empty_like(cube), k[:, None, None],
                                                  k[None, :, None], k[None, None, :], cube), idx)


def step_momentum_data(grid, uhat: np.ndarray, dt: float, drift=None) -> np.ndarray:
    """One exact kinetic/drift step on momentum-space data (see module docstring).

    Works in place, one block of whole x-planes (at most ``_BLOCK_POINTS``
    modes) at a time: ``uhat_b = cos(dt lam) uhat_b + (-i sin(dt lam)/lam) H uhat_b``,
    then the drift phase.  Returns ``uhat`` itself, so pass an array the
    caller owns and reads no more."""
    kx, ky, kz = grid.freq_mesh
    lam = grid.mode_energy
    v = np.zeros(3) if drift is None else np.asarray(drift, dtype=float)
    drifting = np.any(v != 0.0)
    planes = max(1, _BLOCK_POINTS // grid.n**2)
    for a in range(0, grid.n, planes):
        b = slice(a, a + planes)
        lam_b, kx_b, u_b = lam[b], kx[b], uhat[:, b]
        out_b = _symbol_into(np.empty_like(u_b), kx_b, ky, kz, u_b)
        angle = dt * lam_b  # one angle for the cosine and the sine
        u_b *= np.cos(angle)
        np.sin(angle, out=angle)
        angle /= lam_b  # sin(dt lam) / lam, in the angle's buffer
        angle = -1j * angle  # dropping the real factor before the product
        out_b *= angle
        u_b += out_b
        if drifting:
            u_b *= _unit_phase(dt * (v[0] * kx_b + v[1] * ky + v[2] * kz))
    return uhat


def free_propagator_step(u: SpinorField, dt: float, drift=None) -> SpinorField:
    """Evolve by ``exp(-i dt ((D+beta) + i drift.grad))``, exactly unitary per mode.

    ``drift = None`` (or zeros) is the lab-frame kinetic step; a nonzero
    drift gives the comoving kinetic step with the ``i qdot.grad`` term.
    """
    if not np.isfinite(dt):
        raise ValueError("dt must be finite")
    return to_position(u.grid, step_momentum_data(u.grid, to_momentum(u), dt, drift))
