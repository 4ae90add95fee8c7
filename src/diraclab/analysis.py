"""Numerical verification lab for the functional inequalities and identities.

Singular weights ``1/|x|^p`` are clipped at half a grid spacing (the origin
node value is otherwise meaningless); every report records the clip radius
so each sample is reproducible.  Radial identities are checked with a
dedicated 1D composite-Simpson quadrature at >= 4096 nodes rather than on
the 3D grid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .lattice import (
    GridSpec,
    SpinorField,
    density,
    homogeneous_sobolev_norm,
    random_smooth_field,
    sobolev_norm,
)


# ---------------------------------------------------------------------------
# pointwise-weight ratios


def _clipped_radius(grid: GridSpec) -> np.ndarray:
    return np.maximum(grid.radius_from((0.0, 0.0, 0.0)), grid.spacing / 2.0)


def hardy_ratio(u: SpinorField, sigma: float) -> float:
    """``(h^3 sum |u|^2 / max(|x|, h/2)^(2 sigma)) / ||u||_{Hdot^sigma}^2``.

    sigma must lie in [0, 3/2); returns 0 for the zero field.
    """
    if not 0.0 <= sigma < 1.5:
        raise ValueError(f"sigma must lie in [0, 3/2), got {sigma}")
    rhs = homogeneous_sobolev_norm(u, sigma) ** 2
    if rhs == 0.0:
        return 0.0
    w = _clipped_radius(u.grid) ** (-2.0 * sigma)
    lhs = u.grid.spacing**3 * np.sum(density(u) * w)
    return float(lhs / rhs)


@dataclass
class RellichResult:
    ratio: float
    vanishes_near_origin: bool


def vanishes_near_origin(u: SpinorField, radius_factor: float = 3.0,
                         rel_tol: float = 1e-6) -> bool:
    r = u.grid.radius_from((0.0, 0.0, 0.0))
    rho = np.sqrt(density(u))
    peak = float(np.max(rho))
    if peak == 0.0:
        return True
    near = rho[r <= radius_factor * u.grid.spacing]
    return bool(near.size == 0 or np.max(near) <= rel_tol * peak)


def rellich_ratio(u: SpinorField) -> RellichResult:
    """``(h^3 sum |u|^2/max(|x|,h/2)^4) / ||Delta u||_L2^2`` with a hypothesis flag.

    The flag records whether u vanishes near the origin (the class the
    inequality is stated for); callers decide how to treat flagged samples.
    """
    rhs = homogeneous_sobolev_norm(u, 2.0) ** 2
    flag = vanishes_near_origin(u)
    if rhs == 0.0:
        return RellichResult(0.0, flag)
    w = _clipped_radius(u.grid) ** (-4.0)
    lhs = u.grid.spacing**3 * np.sum(density(u) * w)
    return RellichResult(float(lhs / rhs), flag)


def coulomb_multiplier_ratio(u: SpinorField, sigma: float) -> float:
    """``||u / max(|x|, h/2)||_{H^(sigma-1)} / ||u||_{H^sigma}`` for sigma in [1, 3/2)."""
    if not 1.0 <= sigma < 1.5:
        raise ValueError(f"sigma must lie in [1, 3/2), got {sigma}")
    rhs = sobolev_norm(u, sigma)
    if rhs == 0.0:
        return 0.0
    w = 1.0 / _clipped_radius(u.grid)
    weighted = SpinorField(u.grid, w[..., None] * u.data)
    return float(sobolev_norm(weighted, sigma - 1.0) / rhs)


# ---------------------------------------------------------------------------
# regularization convergence rate


@dataclass
class RateFit:
    slope: float
    eps_values: list
    norms: list
    baseline_eps0: float = None  # exact-difference value when eps=0 was supplied


def regularization_rate(u: SpinorField, sigma: float, eps_list) -> RateFit:
    """Fit ``log || (1/sqrt(|x|^2+eps^2) - 1/|x|) u ||_L2`` against ``log eps``.

    sigma in (1, 3/2) selects the expected exponent sigma - 1; entries below
    two grid spacings are rejected, an eps = 0 entry is evaluated (bare
    clipped difference, identically zero) and excluded from the fit.
    """
    if not 1.0 < sigma < 1.5:
        raise ValueError(f"sigma must lie in (1, 3/2), got {sigma}")
    grid = u.grid
    h = grid.spacing
    r = _clipped_radius(grid)
    rho = density(u)
    eps_fit, norms, baseline = [], [], None
    for eps in eps_list:
        if eps == 0.0:
            baseline = 0.0
            continue
        if eps < 2.0 * h - 1e-12:
            raise ValueError(f"eps={eps} below grid resolution floor 2h={2 * h}")
        diff = 1.0 / np.sqrt(r**2 + eps**2) - 1.0 / r
        val = float(np.sqrt(h**3 * np.sum(rho * diff**2)))
        eps_fit.append(float(eps))
        norms.append(val)
    if len(eps_fit) < 2:
        raise ValueError("need at least two nonzero eps values to fit a slope")
    slope = float(np.polyfit(np.log(eps_fit), np.log(norms), 1)[0])
    return RateFit(slope, eps_fit, norms, baseline)


# ---------------------------------------------------------------------------
# radial decomposition of the Laplacian energy


@dataclass
class RadialProfile:
    """Radial test profile u_k(r) with analytic derivatives, supported in [r_lo, r_hi]."""

    f: callable
    df: callable
    d2f: callable
    r_lo: float
    r_hi: float


def _simpson(values: np.ndarray, h: float) -> float:
    n = len(values) - 1
    if n % 2 != 0:
        raise ValueError("simpson needs an even panel count")
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(h / 3.0 * np.sum(w * values))


@dataclass
class RadialDecompositionResult:
    k: int
    c_k: float
    lhs: float
    term_second: float        # int |u''|^2 r^2 dr
    term_first: float         # int |u'|^2 dr
    term_weight: float        # int u^2 / r^2 dr
    residual: float           # against third coefficient c(c-2)
    residual_alt: float       # against third coefficient c(c-1)
    third_coefficient: float
    third_coefficient_alt: float


def radial_decomposition_check(profile: RadialProfile, k: int,
                               n_nodes: int = 8192) -> RadialDecompositionResult:
    """Check the spherical-harmonics split of ``int |Delta u|^2`` for u = u_k(r) Y_k.

    With c = k(k+1) the verified identity is

        int |Delta u|^2 = int |u''|^2 r^2 dr + 2(c+1) int |u'|^2 dr
                          + c(c-2) int u^2/r^2 dr.

    Both candidate third coefficients c(c-2) and c(c-1) are reported; the
    second is the commonly quoted (misprinted) variant, distinguishable for
    k >= 1.  Degrees above 2 are rejected.
    """
    if k not in (0, 1, 2):
        raise ValueError(f"unsupported spherical-harmonic degree k={k}")
    c = float(k * (k + 1))
    r = np.linspace(profile.r_lo, profile.r_hi, n_nodes + 1)
    if r[0] <= 0:
        raise ValueError("radial profile support must avoid the origin")
    h = r[1] - r[0]
    f, d1, d2 = profile.f(r), profile.df(r), profile.d2f(r)
    lap = d2 + 2.0 * d1 / r - c * f / r**2
    lhs = _simpson(lap**2 * r**2, h)
    t2 = _simpson(d2**2 * r**2, h)
    t1 = _simpson(d1**2, h)
    tw = _simpson(f**2 / r**2, h)
    rhs = t2 + 2.0 * (c + 1.0) * t1 + c * (c - 2.0) * tw
    rhs_alt = t2 + 2.0 * (c + 1.0) * t1 + c * (c - 1.0) * tw
    return RadialDecompositionResult(
        k=k, c_k=c, lhs=lhs, term_second=t2, term_first=t1, term_weight=tw,
        residual=abs(lhs - rhs) / lhs if lhs > 0 else 0.0,
        residual_alt=abs(lhs - rhs_alt) / lhs if lhs > 0 else 0.0,
        third_coefficient=c * (c - 2.0), third_coefficient_alt=c * (c - 1.0))


def bump_profile(r_lo: float = 1.0, r_hi: float = 3.0) -> RadialProfile:
    """Gaussian bump centred in [r_lo, r_hi] with analytic derivatives."""
    mid = 0.5 * (r_lo + r_hi)
    w = (r_hi - r_lo) / 6.0

    def f(r):
        return np.exp(-((r - mid) / w) ** 2)

    def df(r):
        return -2.0 * (r - mid) / w**2 * f(r)

    def d2f(r):
        return (-2.0 / w**2 + 4.0 * (r - mid) ** 2 / w**4) * f(r)

    return RadialProfile(f, df, d2f, r_lo, r_hi)


# ---------------------------------------------------------------------------
# reports


@dataclass
class InequalityReport:
    """Samples and empirical sup for one inequality family; JSONL-serializable."""

    inequality: str
    family: str
    grid_n: int
    box_length: float
    clip_radius: float
    seed: int
    samples: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @property
    def sup_ratio(self) -> float:
        ratios = [s["ratio"] for s in self.samples if np.isfinite(s.get("ratio", np.nan))]
        return float(np.max(ratios)) if ratios else 0.0

    def json_lines(self):
        head = {
            "record": "header", "inequality": self.inequality, "family": self.family,
            "grid_n": self.grid_n, "box_length": self.box_length,
            "clip_radius": self.clip_radius, "seed": self.seed,
            "sup_ratio": self.sup_ratio, "metadata": self.metadata,
        }
        yield json.dumps(head)
        for s in self.samples:
            yield json.dumps({"record": "sample", **s})

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for line in self.json_lines():
                fh.write(line + "\n")


# kmax = 3 with a unit-scale spectral envelope keeps the family fully
# resolved at n = 32, which matters for refinement-stability comparisons of
# the clipped singular weights (their quadrature converges like h^(3-2 sigma))
def _family(grid: GridSpec, seed: int, n_samples: int, kmax: int = 3, decay: float = 1.0):
    rng = np.random.default_rng(seed)
    for i in range(n_samples):
        yield i, random_smooth_field(grid, rng, kmax=kmax, decay=decay)


def hardy_report(grid: GridSpec, sigmas=(1.0, 1.2, 1.4), n_samples: int = 40,
                 seed: int = 2024) -> InequalityReport:
    rep = InequalityReport("hardy", "random-smooth", grid.n, grid.box_length,
                           grid.spacing / 2, seed,
                           metadata={"sigmas": list(sigmas), "n_samples": n_samples})
    for i, u in _family(grid, seed, n_samples):
        for s in sigmas:
            rep.samples.append({"index": i, "sigma": s, "ratio": hardy_ratio(u, s)})
    return rep


def coulomb_multiplier_report(grid: GridSpec, sigmas=(1.0, 1.2, 1.4), n_samples: int = 40,
                              seed: int = 2024) -> InequalityReport:
    rep = InequalityReport("coulomb-multiplier", "random-smooth", grid.n, grid.box_length,
                           grid.spacing / 2, seed,
                           metadata={"sigmas": list(sigmas), "n_samples": n_samples})
    for i, u in _family(grid, seed, n_samples):
        for s in sigmas:
            rep.samples.append({"index": i, "sigma": s,
                                "ratio": coulomb_multiplier_ratio(u, s)})
    return rep


def rellich_report(grid: GridSpec, scales=None, seed: int = 2024) -> InequalityReport:
    """Radial-bump scaling sweep toward the origin, against both candidate constants."""
    if scales is None:
        scales = np.geomspace(0.12 * grid.box_length, 0.015 * grid.box_length, 8)
    rep = InequalityReport("rellich", "annular-bumps", grid.n, grid.box_length,
                           grid.spacing / 2, seed,
                           metadata={"candidate_constants": {"nine_sixteenths": 9 / 16,
                                                             "sixteen_ninths": 16 / 9}})
    for i, lam in enumerate(scales):
        u = _annular_bump(grid, lam)
        res = rellich_ratio(u)
        rep.samples.append({"index": i, "scale": float(lam), "ratio": res.ratio,
                            "vanishes_near_origin": res.vanishes_near_origin})
    sup = rep.sup_ratio
    rep.metadata["sup_vs_9_16"] = sup / (9 / 16)
    rep.metadata["sup_vs_16_9"] = sup / (16 / 9)
    return rep


def _annular_bump(grid: GridSpec, lam: float) -> SpinorField:
    """Radial bump supported in the annulus lam <= |x| <= 2 lam (vanishes near 0)."""
    r = grid.radius_from((0.0, 0.0, 0.0))
    s = (r - 1.5 * lam) / (0.25 * lam)
    env = np.exp(-s * s)
    env[r < lam] = 0.0
    env[r > 2.0 * lam] = 0.0
    data = np.zeros((grid.n, grid.n, grid.n, 4), dtype=np.complex128)
    data[..., 0] = env
    return SpinorField(grid, data)


def regularization_report(grid: GridSpec, sigma: float = 1.4, eps_factors=(8, 4, 2),
                          width: float = 1.0) -> InequalityReport:
    from .lattice import gaussian_spinor

    u = gaussian_spinor(grid, (0, 0, 0), width, (1, 0, 0, 0))
    eps_list = [f * grid.spacing for f in eps_factors]
    fit = regularization_rate(u, sigma, eps_list)
    rep = InequalityReport("regularization-rate", "gaussian", grid.n, grid.box_length,
                           grid.spacing / 2, 0,
                           metadata={"sigma": sigma, "expected_exponent": sigma - 1.0,
                                     "slope": fit.slope})
    for eps, val in zip(fit.eps_values, fit.norms):
        rep.samples.append({"eps": eps, "norm": val, "ratio": fit.slope})
    return rep


def radial_decomposition_report(degrees=(0, 1, 2)) -> InequalityReport:
    rep = InequalityReport("radial-laplacian-decomposition", "gaussian-bumps",
                           0, 0.0, 0.0, 0, metadata={})
    for k in degrees:
        res = radial_decomposition_check(bump_profile(1.0, 3.0), k)
        rep.samples.append({
            "k": k, "ratio": res.residual, "residual": res.residual,
            "residual_alt_coefficient": res.residual_alt,
            "third_coefficient": res.third_coefficient,
            "third_coefficient_alt": res.third_coefficient_alt,
        })
    return rep
