"""Closed-form hydrogenic ground-state component and its Sobolev regularity.

The radial profile is ``f(r) = N exp(-a r) r^(b-1)`` with ``b = sqrt(1-nu^2)``
for an effective coupling ``nu in (0, sqrt(3)/2)``; N normalizes
``int f^2 r^2 dr = 1``.  Its 3D Fourier transform (radial convention
``fhat(k) = (4 pi / k) int r f(r) sin(kr) dr``) has the closed form

    fhat(k) = 4 pi N Gamma(b+1) (a^2+k^2)^(-(b+1)/2) sin((b+1) arctan(k/a)) / k,

finite at k -> 0 and decaying like ``k^-(b+2)``.  Membership in H^sigma is
decided by the tail: f is in H^sigma iff sigma < b + 1/2.

The decay rate ``a`` and the coupling ``nu`` are kept independent (default
``a = nu``) since they enter the profile through different unit conventions;
all results here are ratios, exponents, and integrability classifications,
which do not depend on that choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .potentials import CHARGE_LIMIT

# SciPy is imported inside the functions that use it; simulate and validate never load it

CONVERGENT = "CONVERGENT"
DIVERGENT = "DIVERGENT"
INDETERMINATE = "INDETERMINATE"


@dataclass(frozen=True)
class GroundStateModel:
    """Parameters (nu, a) with derived decay b = sqrt(1 - nu^2) and L2 normalization."""

    nu: float
    a: float = None

    def __post_init__(self):
        if not 0.0 < self.nu < CHARGE_LIMIT:
            raise ValueError(f"coupling hypothesis violated: require 0 < nu < sqrt(3)/2, got {self.nu}")
        if self.a is None:
            object.__setattr__(self, "a", float(self.nu))
        if not self.a > 0:
            raise ValueError(f"decay rate a must be positive, got {self.a}")

    @property
    def b(self) -> float:
        return float(np.sqrt(1.0 - self.nu**2))

    @property
    def norm_const(self) -> float:
        from scipy.special import gamma

        # int_0^inf exp(-2 a r) r^(2b) dr = Gamma(2b+1) / (2a)^(2b+1)
        return float(1.0 / np.sqrt(gamma(2 * self.b + 1) / (2 * self.a) ** (2 * self.b + 1)))


def groundstate_radial(model: GroundStateModel, r):
    """``f(r) = N exp(-a r) r^(b-1)``; positive, singular like r^(b-1) at 0."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("radial argument must be positive")
    out = model.norm_const * np.exp(-model.a * r) * r ** (model.b - 1.0)
    return out if out.ndim else float(out)


def groundstate_fourier(model: GroundStateModel, k):
    """Closed-form transform (see module docstring); rejects k <= 0."""
    from scipy.special import gamma

    k = np.asarray(k, dtype=float)
    if np.any(k <= 0.0):
        raise ValueError("wavenumber must be positive")
    a, b = model.a, model.b
    amp = 4.0 * np.pi * model.norm_const * gamma(b + 1.0)
    out = amp * (a**2 + k**2) ** (-(b + 1.0) / 2.0) * np.sin((b + 1.0) * np.arctan(k / a)) / k
    return out if out.ndim else float(out)


def sobolev_threshold(nu: float) -> float:
    """Largest-regularity threshold ``sigma_max(nu) = sqrt(1 - nu^2) + 1/2``."""
    if not 0.0 < nu < CHARGE_LIMIT:
        raise ValueError(f"coupling hypothesis violated: require 0 < nu < sqrt(3)/2, got {nu}")
    return float(np.sqrt(1.0 - nu**2) + 0.5)


def fourier_tail_exponent(model: GroundStateModel, k_lo: float = 3e2, k_hi: float = 3e4,
                          n_points: int = 24) -> float:
    """Fitted log-slope of |fhat| over [k_lo, k_hi]; the expected value is -(b+2).

    Pre-asymptotic bias scales like cot((b+1) pi/2) (b+1) a / k, so ranges
    starting well above ``a / tan(...)`` are required for couplings close
    to zero (b close to 1), where the leading tail constant is small.
    """
    ks = np.geomspace(k_lo, k_hi, n_points)
    vals = np.abs(groundstate_fourier(model, ks))
    return float(np.polyfit(np.log(ks), np.log(vals), 1)[0])


@dataclass
class RegularityReport:
    nu: float
    a: float
    sigma: float
    sigma_max: float
    classification: str
    measured_increment_exponent: float
    expected_increment_exponent: float
    k_ladder: list
    increments: list
    margin: float


def verify_regularity(model: GroundStateModel, sigma: float, k_max_list=None,
                      margin: float = 0.05, fit_from: float = 1e3) -> RegularityReport:
    """Classify truncated-norm growth: CONVERGENT / DIVERGENT / INDETERMINATE.

    Computes ``int_0^kmax (1+k^2)^sigma |fhat|^2 k^2 dk`` on a geometric
    ladder; increments behave like ``kmax^(2 sigma - 2b - 1)``, so the fitted
    increment exponent measures ``2 (sigma - sigma_max)``.  Classification
    uses the measured exponent alone with the +-margin dead band (stated on
    the sigma scale, i.e. 2*margin on the exponent scale); near-threshold
    cases come out INDETERMINATE.
    """
    from scipy.integrate import quad

    if not 0.0 <= sigma <= 2.0:
        raise ValueError(f"sigma must lie in [0, 2], got {sigma}")
    if k_max_list is None:
        k_max_list = np.geomspace(10.0, 1e5, 13)
    k_max_list = np.asarray(k_max_list, dtype=float)
    if np.any(np.diff(k_max_list) <= 0):
        raise ValueError("k_max_list must be strictly increasing")

    def integrand(k):
        return (1.0 + k**2) ** sigma * groundstate_fourier(model, k) ** 2 * k**2

    increments = []
    lo = 1e-6
    for hi in k_max_list:
        val, _ = quad(integrand, lo, hi, limit=400)
        increments.append(val)
        lo = hi
    increments = np.array(increments)
    mids = k_max_list
    mask = mids >= fit_from
    if np.count_nonzero(mask) < 3:
        mask = np.ones_like(mids, dtype=bool)
    slope = float(np.polyfit(np.log(mids[mask]), np.log(increments[mask]), 1)[0])
    smax = sobolev_threshold(model.nu)
    expected = 2.0 * (sigma - smax)
    band = 2.0 * margin
    if slope < -band:
        cls = CONVERGENT
    elif slope > band:
        cls = DIVERGENT
    else:
        cls = INDETERMINATE
    return RegularityReport(
        nu=model.nu, a=model.a, sigma=sigma, sigma_max=smax, classification=cls,
        measured_increment_exponent=slope, expected_increment_exponent=expected,
        k_ladder=list(map(float, k_max_list)), increments=list(map(float, increments)),
        margin=margin)
