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

from .lattice import SpinorField, to_momentum, to_position

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


def apply_symbol(grid, uhat: np.ndarray) -> np.ndarray:
    """Apply ``H_xi = sum_j alpha_j xi_j + beta`` to momentum-space data.

    Written out per component (row r of H_xi acting on (u0,u1,u2,u3)):
    the alpha blocks swap the upper and lower 2-spinors through the Pauli
    matrices, beta flips the sign of the lower 2-spinor.
    """
    kx, ky, kz = grid.freq_mesh
    u0, u1, u2, u3 = (uhat[..., c] for c in range(4))
    out = np.empty_like(uhat)
    out[..., 0] = u0 + kz * u2 + (kx - 1j * ky) * u3
    out[..., 1] = u1 + (kx + 1j * ky) * u2 - kz * u3
    out[..., 2] = -u2 + kz * u0 + (kx - 1j * ky) * u1
    out[..., 3] = -u3 + (kx + 1j * ky) * u0 - kz * u1
    return out


def apply_free_dirac(u: SpinorField) -> SpinorField:
    """Return ``(D + beta) u`` via the momentum-space symbol."""
    return to_position(u.grid, apply_symbol(u.grid, to_momentum(u)))


def step_momentum_data(grid, uhat: np.ndarray, dt: float, drift=None) -> np.ndarray:
    """One exact kinetic/drift step on momentum-space data (see module docstring).

    Consumes ``uhat``: it is scaled by ``cos(dt lam)`` in place, so pass an
    array the caller owns and reads no more."""
    lam = grid.mode_energy
    out = apply_symbol(grid, uhat)  # cos(dt lam) uhat - i sin(dt lam)/lam H uhat, in place
    out *= (-1j * (np.sin(dt * lam) / lam))[..., None]
    uhat *= np.cos(dt * lam)[..., None]
    out += uhat
    if drift is not None:
        v = np.asarray(drift, dtype=float)
        if np.any(v != 0.0):
            kx, ky, kz = grid.freq_mesh
            phase = np.exp(1j * dt * (v[0] * kx + v[1] * ky + v[2] * kz))
            out *= phase[..., None]
    return out


def free_propagator_step(u: SpinorField, dt: float, drift=None) -> SpinorField:
    """Evolve by ``exp(-i dt ((D+beta) + i drift.grad))``, exactly unitary per mode.

    ``drift = None`` (or zeros) is the lab-frame kinetic step; a nonzero
    drift gives the comoving kinetic step with the ``i qdot.grad`` term.
    """
    if not np.isfinite(dt):
        raise ValueError("dt must be finite")
    return to_position(u.grid, step_momentum_data(u.grid, to_momentum(u), dt, drift))
