"""Regularized Coulomb potentials, nuclear trajectories, and the nuclei-freezing map.

The freezing map sends each moving singularity back to its anchor through a
smooth radial cutoff ``zeta``:

    phi(t, x) = x + sum_k zeta(|x - a_k| / eps0) (q_k(t) - a_k),

with ``zeta = 1`` on [0, 1], ``zeta = 0`` on [2, inf), ``|zeta'| <= 3/2``.
Anchor separations of at least ``4*eps0`` keep the cutoff supports disjoint,
so at most one nucleus contributes at any point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .lattice import (
    GridSpec,
    SpinorField,
    l2_distance,
    l2_norm,
    spectral_upsample,
)

# SciPy is imported inside the functions that use it; simulate and validate never load it

CHARGE_LIMIT = np.sqrt(3.0) / 2.0  # the charge hypothesis |Z_k| < sqrt(3)/2


@dataclass
class NucleusState:
    """Point nucleus: charge Z, mass m, position q, velocity qdot.

    The charge window ``|Z| < sqrt(3)/2`` is enforced here; Z = 0 is allowed
    for control and diagnostic runs (a massive tracer with no coupling).
    """

    Z: float
    m: float
    q: np.ndarray
    qdot: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float).reshape(3)
        self.qdot = np.asarray(self.qdot, dtype=float).reshape(3)
        if not abs(self.Z) < CHARGE_LIMIT:
            raise ValueError(f"charge hypothesis violated: require |Z| < sqrt(3)/2, got Z={self.Z}")
        if not self.m > 0:
            raise ValueError(f"nucleus mass must be positive, got m={self.m}")


def nucleus_states(charges, masses, positions, velocities) -> list:
    """One :class:`NucleusState` per row of the per-nucleus sequences."""
    return [NucleusState(Z, m, q, v) for Z, m, q, v in zip(charges, masses, positions, velocities)]


def nucleus_pairs(positions):
    """Yield ``(k, l, q_k - q_l, |q_k - q_l|)`` for each pair k < l of an ``(n, ..., 3)``
    position array; the distance is ``np.linalg.norm(d)`` for one configuration
    and an array over the middle axes otherwise."""
    q = np.asarray(positions, dtype=float)
    for k in range(len(q)):
        for l in range(k + 1, len(q)):
            d = q[k] - q[l]
            yield k, l, d, np.linalg.norm(d) if d.ndim == 1 else np.linalg.norm(d, axis=-1)


def check_initial_separation(positions, eps0: float) -> None:
    """The separation hypothesis ``|q_k(0) - q_l(0)| >= 8*epsilon0`` for every
    pair of initial positions; ValueError naming the first pair that breaks it."""
    for k, l, _, sep in nucleus_pairs(positions):
        if sep < 8.0 * eps0 - 1e-12:
            raise ValueError(
                "separation hypothesis violated: require min |q_k(0) - q_l(0)| >= "
                f"8*epsilon0 = {8 * eps0:.6g}, got |q_{k}(0) - q_{l}(0)| = {sep:.6g}")


# ---------------------------------------------------------------------------
# trajectories


@dataclass
class Trajectory:
    """Time-sampled nuclear paths on a uniform grid, with discrete derivative data.

    positions/velocities have shape (n_nuclei, n_times, 3).  ``accel_l1`` is
    the per-nucleus total variation of the sampled velocity, the discrete
    L^1 norm of the acceleration.
    """

    charges: np.ndarray
    masses: np.ndarray
    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    accel_l1: np.ndarray = field(init=False)

    def __post_init__(self):
        self.charges = np.atleast_1d(np.asarray(self.charges, dtype=float))
        self.masses = np.atleast_1d(np.asarray(self.masses, dtype=float))
        self.times = np.asarray(self.times, dtype=float)
        self.positions = np.asarray(self.positions, dtype=float)
        self.velocities = np.asarray(self.velocities, dtype=float)
        n_nuc, n_t = len(self.charges), len(self.times)
        if n_t < 2:
            raise ValueError("trajectory needs at least two time samples")
        dt = np.diff(self.times)
        if not np.allclose(dt, dt[0], rtol=1e-12, atol=1e-12):
            raise ValueError("trajectory time grid must be uniform")
        if self.positions.shape != (n_nuc, n_t, 3) or self.velocities.shape != (n_nuc, n_t, 3):
            raise ValueError("positions/velocities must have shape (n_nuclei, n_times, 3)")
        if np.any(np.abs(self.charges) >= CHARGE_LIMIT):
            raise ValueError("charge hypothesis violated: require |Z_k| < sqrt(3)/2 for all k")
        if np.any(self.masses <= 0):
            raise ValueError("nucleus masses must be positive")
        dv = np.diff(self.velocities, axis=1)
        self.accel_l1 = np.sum(np.linalg.norm(dv, axis=2), axis=1)

    @property
    def n_nuclei(self) -> int:
        return len(self.charges)

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t_final(self) -> float:
        return float(self.times[-1])

    @property
    def duration(self) -> float:
        return self.t_final - self.t0

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def _locate(self, t: float):
        tt = float(t)
        if tt < self.times[0] - 1e-12 or tt > self.times[-1] + 1e-12:
            raise ValueError(f"time {tt} outside trajectory window [{self.t0}, {self.t_final}]")
        x = (tt - self.t0) / self.dt
        i = int(np.clip(np.floor(x), 0, len(self.times) - 2))
        if abs(x - round(x)) < 1e-9:
            # a node time up to roundoff: tau of exactly 0 or 1 makes the
            # interpolant return that node's data bit for bit
            tau = float(round(x) - i)
        else:
            tau = (tt - self.times[i]) / self.dt
        return i, min(max(tau, 0.0), 1.0)

    def position(self, t: float) -> np.ndarray:
        """Cubic-Hermite interpolated positions, shape (n_nuclei, 3)."""
        i, s = self._locate(t)
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        dt = self.dt
        return (h00 * self.positions[:, i] + h10 * dt * self.velocities[:, i]
                + h01 * self.positions[:, i + 1] + h11 * dt * self.velocities[:, i + 1])

    def velocity(self, t: float) -> np.ndarray:
        """Derivative of the Hermite interpolant, shape (n_nuclei, 3)."""
        i, s = self._locate(t)
        d00 = 6 * s * (s - 1)
        d10 = (1 - s) * (1 - 3 * s)
        d01 = -d00
        d11 = s * (3 * s - 2)
        dt = self.dt
        return (d00 / dt * self.positions[:, i] + d10 * self.velocities[:, i]
                + d01 / dt * self.positions[:, i + 1] + d11 * self.velocities[:, i + 1])

    def nuclei_at(self, t: float) -> list:
        return nucleus_states(self.charges, self.masses, self.position(t), self.velocity(t))

    def max_speed(self) -> float:
        return float(np.max(np.linalg.norm(self.velocities, axis=2)))

    def min_separation(self):
        """Minimum pairwise distance over the sampled grid; (value, (k,l), time),
        ``(inf, None, None)`` for fewer than two nuclei."""
        best = (np.inf, None, None)
        for k, l, _, d in nucleus_pairs(self.positions):
            i = int(np.argmin(d))
            if d[i] < best[0]:
                best = (float(d[i]), (k, l), float(self.times[i]))
        return best

    def consistency_residual(self) -> float:
        """Trapezoid defect max |q_{i+1} - q_i - (v_i + v_{i+1}) dt / 2|."""
        dq = np.diff(self.positions, axis=1)
        trap = 0.5 * self.dt * (self.velocities[:, 1:] + self.velocities[:, :-1])
        return float(np.max(np.linalg.norm(dq - trap, axis=2)))

    # -- factories ----------------------------------------------------------

    @staticmethod
    def from_functions(charges, masses, times, position_fn, velocity_fn) -> "Trajectory":
        """Sample callables t -> (n_nuclei, 3) on the given uniform grid."""
        times = np.asarray(times, dtype=float)
        pos = np.stack([np.asarray(position_fn(t), dtype=float) for t in times], axis=1)
        vel = np.stack([np.asarray(velocity_fn(t), dtype=float) for t in times], axis=1)
        return Trajectory(charges, masses, times, pos, vel)

    @staticmethod
    def constant_velocity(charges, masses, anchors, velocities, t0: float, T: float,
                          steps: int) -> "Trajectory":
        a = np.asarray(anchors, dtype=float).reshape(-1, 3)
        b = np.asarray(velocities, dtype=float).reshape(-1, 3)
        times = t0 + np.linspace(0.0, T, steps + 1)
        pos = a[:, None, :] + b[:, None, :] * (times - t0)[None, :, None]
        vel = np.broadcast_to(b[:, None, :], pos.shape).copy()
        return Trajectory(charges, masses, times, pos, vel)

    @staticmethod
    def static(charges, masses, anchors, t0: float, T: float, steps: int) -> "Trajectory":
        a = np.asarray(anchors, dtype=float).reshape(-1, 3)
        return Trajectory.constant_velocity(charges, masses, a, np.zeros_like(a), t0, T, steps)


# ---------------------------------------------------------------------------
# the cutoff profile zeta


def _bump(t: np.ndarray) -> np.ndarray:
    s = 6.0 * np.asarray(t, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
    return out


_GL_X, _GL_W = np.polynomial.legendre.leggauss(96)


def _gl_panel(f, a: float, b: float) -> float:
    if b <= a:
        return 0.0
    nodes = a + (b - a) * (_GL_X + 1.0) / 2.0
    return float(np.sum(_GL_W * (b - a) / 2.0 * f(nodes)))


class CutoffProfile:
    """C-infinity radial cutoff with zeta=1 on [0,1], zeta=0 on [2,inf), |zeta'| <= 3/2.

    Construction: zeta' = -g where g is (3/2) times the indicator of
    [7/6, 11/6] mollified by a bump of radius 1/6.  The mollification keeps
    sup g = 3/2 (attained on the inner plateau) and support(g) = [1, 2], and
    the total mass of g is exactly 1 so the profile descends from 1 to 0.
    Values are tabulated once by panel-split Gauss quadrature and evaluated
    through a cubic spline (table error ~1e-13).
    """

    def __init__(self):
        from scipy.interpolate import CubicSpline

        self._bump_mass = _gl_panel(_bump, -1.0 / 6.0, 1.0 / 6.0)

        r_tab = np.linspace(1.0, 2.0, 4097)
        vals = np.array([self._zeta_exact(r) for r in r_tab])
        self._spline = CubicSpline(r_tab, vals, bc_type=((1, 0.0), (1, 0.0)))

        # CDF of the unit-mass bump, for g(r) = 1.5*(B(r-7/6) - B(r-11/6))
        y_tab = np.linspace(-1.0 / 6.0, 1.0 / 6.0, 2049)
        cdf = np.array([_gl_panel(_bump, -1.0 / 6.0, y) for y in y_tab]) / self._bump_mass
        self._cdf_spline = CubicSpline(y_tab, cdf, bc_type=((1, 0.0), (1, 0.0)))

    def _zeta_exact(self, r: float) -> float:
        # zeta(r) = 1 - 1.5 * int phi(t) clamp(r - t - 7/6, 0, 2/3) dt with the
        # unit-mass bump phi, integrated per smooth panel (clamp kinks at
        # t = r - 11/6 and t = r - 7/6)
        lo, hi = -1.0 / 6.0, 1.0 / 6.0
        cuts = sorted({lo, hi, min(max(r - 11.0 / 6.0, lo), hi), min(max(r - 7.0 / 6.0, lo), hi)})
        total = 0.0
        for a, b in zip(cuts[:-1], cuts[1:]):
            total += _gl_panel(
                lambda t: _bump(t) * np.clip(r - t - 7.0 / 6.0, 0.0, 2.0 / 3.0), a, b)
        return 1.0 - 1.5 * total / self._bump_mass

    def value(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        out = np.empty_like(r)
        out[r <= 1.0] = 1.0
        out[r >= 2.0] = 0.0
        mid = (r > 1.0) & (r < 2.0)
        if np.any(mid):
            out[mid] = np.clip(self._spline(r[mid]), 0.0, 1.0)
        return out if out.ndim else float(out)

    def derivative(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        mid = (r > 1.0) & (r < 2.0)
        if np.any(mid):
            rm = r[mid]
            g = 1.5 * (self._cdf_spline(np.clip(rm - 7.0 / 6.0, -1 / 6, 1 / 6))
                       - self._cdf_spline(np.clip(rm - 11.0 / 6.0, -1 / 6, 1 / 6)))
            out[mid] = -g
        return out if out.ndim else float(out)

    def max_abs_derivative(self, samples: int = 4001) -> float:
        r = np.linspace(1.0, 2.0, samples)
        return float(np.max(np.abs(self.derivative(r))))


@lru_cache(maxsize=1)
def default_profile() -> CutoffProfile:
    return CutoffProfile()


def cutoff_zeta(r):
    """The cutoff profile zeta(r); 1 on [0,1], 0 on [2,inf), values in [0,1]."""
    return default_profile().value(r)


def cutoff_zeta_prime(r):
    """Derivative of the cutoff profile; supported in (1,2) with |zeta'| <= 3/2."""
    return default_profile().derivative(r)


# ---------------------------------------------------------------------------
# Coulomb potentials


def regularization_eps(eps_reg, grid: GridSpec) -> float:
    """The Coulomb regularization scale: ``eps_reg``, or two grid spacings when unset."""
    return eps_reg if eps_reg is not None else 2.0 * grid.spacing


def coulomb_field(nuclei, eps: float, grid: GridSpec) -> np.ndarray:
    """Regularized multi-center potential ``-sum_k Z_k/sqrt(d_min^2 + eps^2)`` on the grid."""
    if not eps > 0:
        raise ValueError(f"regularization eps must be positive, got {eps}")
    V = np.zeros((grid.n, grid.n, grid.n))
    for nuc in nuclei:
        r2 = grid.radius_sq_from(nuc.q)
        V -= nuc.Z / np.sqrt(r2 + eps**2)
    return V


# ---------------------------------------------------------------------------
# the freezing map


@dataclass
class FreezingMap:
    """Multi-center change of variables with cutoff-localized displacements."""

    anchors: np.ndarray
    eps0: float
    trajectory: Trajectory

    def __post_init__(self):
        self.anchors = np.asarray(self.anchors, dtype=float).reshape(-1, 3)
        if not self.eps0 > 0:
            raise ValueError("eps0 must be positive")
        for k, l, _, sep in nucleus_pairs(self.anchors):
            if sep < 4.0 * self.eps0:
                raise ValueError(
                    "cutoff supports overlap: anchor separation "
                    f"|a_{k}-a_{l}|={sep:.6g} < 4*eps0={4 * self.eps0:.6g}")

    def displacements(self, t: float) -> np.ndarray:
        return self.trajectory.position(t) - self.anchors

    def apply(self, t: float, points, box_length=None) -> np.ndarray:
        """phi(t, x) = x + sum_k zeta(|x-a_k|/eps0) (q_k(t) - a_k)."""
        x = np.asarray(points, dtype=float)
        out = x.astype(float).copy()
        disp = self.displacements(t)
        for k, a in enumerate(self.anchors):
            d = x - a
            if box_length is not None:
                d = (d + box_length / 2) % box_length - box_length / 2
            r = np.sqrt(np.sum(d * d, axis=-1))
            z = cutoff_zeta(r / self.eps0)
            out += z[..., None] * disp[k]
        return out

    def jacobian_matrix(self, t: float, points, box_length=None) -> np.ndarray:
        """Analytic Jacobian of phi(t, .) at the given points, shape (..., 3, 3)."""
        x = np.asarray(points, dtype=float)
        jac = np.broadcast_to(np.eye(3), x.shape[:-1] + (3, 3)).copy()
        disp = self.displacements(t)
        for k, a in enumerate(self.anchors):
            d = x - a
            if box_length is not None:
                d = (d + box_length / 2) % box_length - box_length / 2
            r = np.sqrt(np.sum(d * d, axis=-1))
            safe = np.where(r > 0, r, 1.0)
            zp = cutoff_zeta_prime(r / self.eps0) / (self.eps0 * safe)
            jac += zp[..., None, None] * disp[k][..., :, None] * d[..., None, :]
        return jac

    def jacobian_deviation(self, t: float) -> float:
        """Sampled sup over x of max_j |column_j(Jac phi - I)|.

        The column norm at x equals |zeta'(r/eps0)| |x_j - a_j| / (eps0 r)
        times the active displacement, which is maximized along the axis
        directions, so a dense radial sweep of |zeta'| realizes the 3D sup.
        """
        disp = np.linalg.norm(self.displacements(t), axis=1)
        if np.all(disp == 0.0):
            return 0.0
        zmax = np.max(np.abs(cutoff_zeta_prime(np.linspace(1.0, 2.0, 2001))))
        return float(zmax * np.max(disp) / self.eps0)

    def closed_form_jacobian_bound(self, t: float) -> float:
        """The closed-form bound (3/2) max_k |q_k(t) - a_k| / eps0."""
        disp = np.linalg.norm(self.displacements(t), axis=1)
        return float(1.5 * np.max(disp) / self.eps0) if len(disp) else 0.0

    def is_bijective(self, t: float) -> bool:
        return self.jacobian_deviation(t) < 1.0


def pullback(fmap: FreezingMap, t: float, u: SpinorField, check_l2: bool = True) -> SpinorField:
    """Composition ``(Phi(t) u)(x) = u(phi(t, x))`` by periodic cubic-spline interpolation.

    The cubic spline keeps interpolation error well below the norm-equivalence
    tolerances at n >= 64.  When ``check_l2`` is set, the L2 ratio is verified
    against the bijectivity bound ``C = (1 + deviation)^(3/2)`` with a
    multiplicative slack of 5%.
    """
    from scipy.ndimage import map_coordinates

    bound = fmap.jacobian_deviation(t)
    if bound >= 1.0:
        raise ValueError(f"freezing map outside bijectivity regime: deviation {bound:.3g} >= 1")
    grid = u.grid
    if not u.is_finite():
        raise ValueError("pullback input contains non-finite data")
    c = grid.coords1d
    X = np.stack(np.meshgrid(c, c, c, indexing="ij"), axis=-1)
    phi = fmap.apply(t, X, box_length=grid.box_length)
    coords = (phi / grid.spacing).transpose(3, 0, 1, 2)  # fractional indices
    out = np.empty_like(u.data)
    for out_c, u_c in zip(out, u.data):  # one component at a time
        re = map_coordinates(u_c.real, coords, order=3, mode="grid-wrap")
        im = map_coordinates(u_c.imag, coords, order=3, mode="grid-wrap")
        out_c[...] = re + 1j * im
    result = SpinorField(grid, out)
    if check_l2:
        nu, nv = l2_norm(u), l2_norm(result)
        if nu > 0:
            C = (1.0 + bound) ** 1.5
            ratio = nv / nu
            if ratio > C * 1.05 or ratio < 0.95 / C:
                raise ValueError(
                    f"pullback L2 ratio {ratio:.4g} outside [{1 / C:.4g}, {C:.4g}] (slack 0.05)")
    return result


def pullback_error_estimate(fmap: FreezingMap, t: float, u: SpinorField) -> float:
    """Relative L2 interpolation error of :func:`pullback` against a 2x-refined oracle."""
    coarse = pullback(fmap, t, u, check_l2=False)
    fine = pullback(fmap, t, spectral_upsample(u, 2), check_l2=False)
    sub = SpinorField(u.grid, fine.data[:, ::2, ::2, ::2].copy())
    denom = l2_norm(coarse)
    return l2_distance(coarse, sub) / denom if denom > 0 else 0.0


@dataclass
class ResidualPotentialReport:
    sup_abs: float
    interior_max: float
    bound: float
    bound_satisfied: bool


def residual_potential(fmap: FreezingMap, t: float, grid: GridSpec,
                       tol: float = 1e-6) -> ResidualPotentialReport:
    """Frozen-frame potential remainder R(t,x) = sum_k Z_k (1/|x-a_k| - 1/|phi-q_k|).

    Each term vanishes identically inside the plateau ball |x-a_k| <= eps0
    (there phi is an exact translation), and when displacements stay below
    eps0/2 the sup obeys ``3 * sum|Z_k| / eps0``; both facts are checked on
    the grid with singular weights clipped at half a spacing.
    """
    qs = fmap.trajectory.position(t)
    Zs = fmap.trajectory.charges
    clip = grid.spacing / 2.0
    R = np.zeros((grid.n, grid.n, grid.n))
    interior_max = 0.0
    c = grid.coords1d
    X = np.stack(np.meshgrid(c, c, c, indexing="ij"), axis=-1)
    phi = fmap.apply(t, X, box_length=grid.box_length)
    for k, a in enumerate(fmap.anchors):
        r1 = grid.radius_from(a)
        d2 = grid.wrap(phi - qs[k])
        r2 = np.sqrt(np.sum(d2 * d2, axis=-1))
        term = Zs[k] * (1.0 / np.maximum(r1, clip) - 1.0 / np.maximum(r2, clip))
        R += term
        inside = r1 <= fmap.eps0
        if np.any(inside):
            interior_max = max(interior_max, float(np.max(np.abs(term[inside]))))
    disp = np.linalg.norm(fmap.displacements(t), axis=1)
    bound = 3.0 * float(np.sum(np.abs(Zs))) / fmap.eps0
    sup_abs = float(np.max(np.abs(R)))
    ok = bool(np.all(disp <= fmap.eps0 / 2 + 1e-15)) and sup_abs <= bound + tol
    return ResidualPotentialReport(sup_abs, interior_max, bound, ok)


# ---------------------------------------------------------------------------
# admissibility


@dataclass
class AdmissibilityReport:
    n_nuclei: int
    horizon: float
    sup_speed: float
    weighted_speed: float
    accel_l1_max: float
    min_separation: float
    min_separation_pair: tuple
    min_separation_time: float
    velocity_cap: float
    eps0: float
    failures: list

    @property
    def passed(self) -> bool:
        return not self.failures


def admissibility_check(traj: Trajectory, eps0: float,
                        velocity_cap: float) -> AdmissibilityReport:
    """Diagnostic pass/fail report against the trajectory hypotheses.

    Checks the weighted velocity bound ``(1 + T*[N>=2]) sup_k |qdot_k| <= cap``
    and, for several nuclei, the no-collision margin ``|q_k - q_l| > 4*eps0``.
    """
    T = traj.duration
    sup_speed = traj.max_speed()
    several = traj.n_nuclei >= 2
    weighted = (1.0 + T * (1.0 if several else 0.0)) * sup_speed
    min_sep, pair, t_at = traj.min_separation()
    failures = []
    if weighted > velocity_cap:
        failures.append(
            f"velocity hypothesis violated: (1 + T*[N>=2]) sup_k |qdot_k| = {weighted:.6g} "
            f"> cap {velocity_cap:.6g}")
    if several and min_sep <= 4.0 * eps0:
        failures.append(
            f"separation hypothesis violated: |q_{pair[0]} - q_{pair[1]}| = {min_sep:.6g} "
            f"<= 4*eps0 = {4 * eps0:.6g} at t = {t_at:.6g}")
    return AdmissibilityReport(
        n_nuclei=traj.n_nuclei, horizon=T, sup_speed=sup_speed, weighted_speed=weighted,
        accel_l1_max=float(np.max(traj.accel_l1)), min_separation=min_sep,
        min_separation_pair=pair, min_separation_time=t_at,
        velocity_cap=velocity_cap, eps0=eps0, failures=failures)
