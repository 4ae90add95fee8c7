"""Independent reference computations used to freeze expected test values.

Each oracle deliberately avoids the code path it checks: radial quadrature
for 3D grid sums, dense matrix exponentials for closed-form mode steps,
complex transforms for the real-transform Hartree convolution,
finite-difference stencils for spectral derivatives, Ewald summation for
the spectral Poisson solve, adaptive ODE integration for the nuclear
dynamics, double sums over ordered pairs for the internuclear terms, and
whole-array complex exponentials for the blocked kinetic step and the
cos/sin unit phases.
"""

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.linalg import expm
from scipy.special import erfc

from diraclab import dirac, hartree, lattice as lat
from diraclab.potentials import coulomb_field


def radial_l2_quadrature(f, r_max, n=16384):
    """sqrt( int_0^rmax |f(r)|^2 4 pi r^2 dr ) by composite Simpson."""
    r = np.linspace(0.0, r_max, n + 1)
    vals = np.abs(f(r)) ** 2 * 4.0 * np.pi * r**2
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    h = r[1] - r[0]
    return np.sqrt(h / 3.0 * np.sum(w * vals))


def gaussian_h1_sq(width=1.0):
    """Exact ||u||_H1^2 for u = exp(-|x|^2/(2 w^2)) in R^3.

    ||u||_L2^2 = (pi w^2)^(3/2); ||grad u||_L2^2 = (3/(2 w^2)) ||u||_L2^2.
    """
    l2sq = (np.pi * width**2) ** 1.5
    return l2sq * (1.0 + 1.5 / width**2)


def radial_coulomb_convolution(rho, r, r_max=60.0, n=20000):
    """Potential (rho * 1/|x|)(r) for radial rho by shell decomposition:

        V(r) = (4 pi / r) int_0^r s^2 rho(s) ds + 4 pi int_r^rmax s rho(s) ds.
    """
    s = np.linspace(0.0, r_max, n + 1)
    h = s[1] - s[0]
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= h / 3.0
    rho_s = rho(s)
    inner_cum = np.cumsum(w * s**2 * rho_s)   # approximate running integral
    total_outer = np.sum(w * s * rho_s)
    outer_cum = total_outer - np.cumsum(w * s * rho_s)
    out = np.empty_like(np.atleast_1d(r), dtype=float)
    rr = np.atleast_1d(r)
    for i, rv in enumerate(rr):
        j = min(int(rv / h), n)
        inner = inner_cum[j]
        outer = outer_cum[j]
        out[i] = 4.0 * np.pi * (inner / max(rv, 1e-12) + outer)
    return out if out.size > 1 else float(out[0])


def ewald_point_green(points, L, alpha=None, n_real=2, n_recip=8):
    """Zero-mean periodic Coulomb Green's function of a unit point charge."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if alpha is None:
        alpha = 5.0 / L
    G = np.zeros(len(pts))
    rng = range(-n_real, n_real + 1)
    for ix in rng:
        for iy in rng:
            for iz in rng:
                d = pts - np.array([ix, iy, iz]) * L
                r = np.linalg.norm(d, axis=1)
                G += erfc(alpha * r) / r
    m = 2.0 * np.pi / L
    for ix in range(-n_recip, n_recip + 1):
        for iy in range(-n_recip, n_recip + 1):
            for iz in range(-n_recip, n_recip + 1):
                if ix == iy == iz == 0:
                    continue
                kv = m * np.array([ix, iy, iz])
                k2 = kv @ kv
                G += 4.0 * np.pi / (L**3 * k2) * np.exp(-k2 / (4 * alpha**2)) * np.cos(pts @ kv)
    G -= np.pi / (alpha**2 * L**3)
    return G if len(G) > 1 else float(G[0])


def complex_fft_convolution(grid, source):
    """``source * 1/|x|`` on the torus through full complex transforms, with the
    zero-mean multiplier ``4 pi/|xi|^2`` built here from the 1D frequencies."""
    k = grid.freq1d
    k2 = k[:, None, None] ** 2 + k[None, :, None] ** 2 + k[None, None, :] ** 2
    mult = np.zeros_like(k2)
    mult[k2 > 0] = 4.0 * np.pi / k2[k2 > 0]
    return np.fft.ifftn(np.fft.fftn(source) * mult)


def dense_mode_exponential(xi, dt, drift=(0.0, 0.0, 0.0)):
    """exp(-i dt (H_xi - drift.xi)) by scaling-and-squaring on the 4x4 symbol."""
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]])
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    z = np.zeros((2, 2), dtype=complex)
    i2 = np.eye(2, dtype=complex)
    alphas = [np.block([[z, s], [s, z]]) for s in (s1, s2, s3)]
    beta = np.block([[i2, z], [z, -i2]])
    H = sum(x * a for x, a in zip(xi, alphas)) + beta - np.dot(drift, xi) * np.eye(4)
    return expm(-1j * dt * H)


def step_momentum_whole(grid, uhat, dt, drift=None):
    """The kinetic/drift mode step over the whole array at once, into a second
    field: ``H_xi uhat`` from ``apply_symbol`` scaled by ``-i sin(dt lam)/lam``,
    plus ``cos(dt lam) uhat``, times the drift phase ``np.exp(1j dt v.xi)``.
    Consumes ``uhat`` (scaled by the cosine in place)."""
    lam = grid.mode_energy
    out = dirac.apply_symbol(grid, uhat)
    out *= -1j * (np.sin(dt * lam) / lam)
    uhat *= np.cos(dt * lam)
    out += uhat
    if drift is not None:
        v = np.asarray(drift, dtype=float)
        if np.any(v != 0.0):
            kx, ky, kz = grid.freq_mesh
            out *= np.exp(1j * dt * (v[0] * kx + v[1] * ky + v[2] * kz))
    return out


def half_kick_exp(delta, V):
    """The half-kick factor ``exp(-i delta/2 V)`` as one complex exponential."""
    return np.exp(-0.5j * delta * V)


def translation_phase_exp(grid, shift):
    """The spectral translation phase ``exp(i xi.shift)`` as one complex exponential."""
    kx, ky, kz = grid.freq_mesh
    return np.exp(1j * (kx * shift[0] + ky * shift[1] + kz * shift[2]))


def fd4_derivative(data, axis, h):
    """4th-order central difference with periodic wrap."""
    return (-np.roll(data, -2, axis) + 8 * np.roll(data, -1, axis)
            - 8 * np.roll(data, 1, axis) + np.roll(data, 2, axis)) / (12.0 * h)


def nbody_coulomb_oracle(charges, masses, q0, v0, T, rtol=1e-12, atol=1e-14):
    """Adaptive high-accuracy integration of m_k qddot = sum Z_k Z_l (q_k-q_l)/r^3."""
    charges = np.asarray(charges, dtype=float)
    masses = np.asarray(masses, dtype=float)
    q0 = np.asarray(q0, dtype=float).reshape(-1, 3)
    v0 = np.asarray(v0, dtype=float).reshape(-1, 3)
    n = len(charges)

    def rhs(t, y):
        q = y[: 3 * n].reshape(n, 3)
        v = y[3 * n:].reshape(n, 3)
        acc = np.zeros_like(q)
        for k in range(n):
            for l in range(n):
                if l == k:
                    continue
                d = q[k] - q[l]
                r = np.linalg.norm(d)
                acc[k] += charges[k] * charges[l] * d / r**3 / masses[k]
        return np.concatenate([v.ravel(), acc.ravel()])

    sol = solve_ivp(rhs, (0.0, T), np.concatenate([q0.ravel(), v0.ravel()]),
                    rtol=rtol, atol=atol, dense_output=True)
    return sol


def internuclear_oracle(charges, positions):
    """(forces, energy) of point charges by the double sum over ordered pairs:
    ``F_k = sum_{l != k} Z_k Z_l (q_k - q_l) / |q_k - q_l|^3`` and
    ``E = (1/2) sum_{l != k} Z_k Z_l / |q_k - q_l|``, distances as ``sqrt(d.d)``."""
    q = np.asarray(positions, dtype=float)
    F, E = np.zeros_like(q), 0.0
    for k, (zk, qk) in enumerate(zip(charges, q)):
        for l, (zl, ql) in enumerate(zip(charges, q)):
            if l != k:
                d = qk - ql
                r = np.sqrt(d @ d)
                F[k] += zk * zl * d / r**3
                E += 0.5 * zk * zl / r
    return F, E


def sine_transform_quadrature(f, k, r_max, tol=1e-12):
    """int_0^rmax f(r) sin(k r) dr by quadrature with oscillatory weight."""
    val, _ = quad(f, 0.0, r_max, weight="sin", wvar=k, limit=400,
                  epsabs=tol, epsrel=tol)
    return val


def snapshot_oracle(u, nuclei, eps, sigma):
    """One snapshot's CSV diagnostics, keyed by column, each by its own route:
    ``<u, (D + beta) u>`` and ``<u, -i d_j u>`` as position-space inner products
    (through an inverse transform), ``h^3 sum rho V`` with ``coulomb_field``,
    ``(1/2) h^3 sum rho V_H`` with ``hartree_potential``, the internuclear sum
    written out, and ``lattice.sobolev_norm``."""
    nuclei = list(nuclei)
    grid = u.grid
    h3 = grid.spacing**3
    rho = lat.density(u)
    uhat = lat.to_momentum(u)
    out = {
        "E_field_kinetic": lat.inner(u, dirac.apply_free_dirac(u)).real,
        "E_interaction": h3 * np.sum(rho * coulomb_field(nuclei, eps, grid)),
        "E_hartree": 0.5 * h3 * np.sum(rho * hartree.hartree_potential(u)),
        "E_nuclear_kinetic": sum(0.5 * nuc.m * np.dot(nuc.qdot, nuc.qdot) for nuc in nuclei),
        "E_internuclear": sum(a.Z * b.Z / np.linalg.norm(a.q - b.q)
                              for i, a in enumerate(nuclei) for b in nuclei[i + 1:]),
        "hsigma": lat.sobolev_norm(u, sigma),
    }
    out["E_total"] = sum(out[k] for k in ("E_field_kinetic", "E_interaction", "E_hartree",
                                          "E_nuclear_kinetic", "E_internuclear"))
    for i, k in enumerate(grid.freq_mesh):
        grad = lat.to_position(grid, k * uhat)
        out["p_" + "xyz"[i]] = (lat.inner(u, grad).real
                                + sum(nuc.m * nuc.qdot[i] for nuc in nuclei))
    return out


def spectral_snapshot_oracle(u, sigma):
    """The field terms of one snapshot pass over the full frequency grid:
    ``<uhat, H_xi uhat> / L^3`` with the whole symbol (``apply_symbol`` and
    ``vdot``), the momentum ``sum xi_j w / L^3`` as full-grid products ``kx * w``
    of ``w = sum_c |uhat_c|^2``, ``lattice.sobolev_norm`` and ``lattice.charge``."""
    grid = u.grid
    uhat = lat.to_momentum(u)
    w = np.sum(np.abs(uhat) ** 2, axis=0)
    kx, ky, kz = grid.freq_mesh
    return {"field_kinetic": np.vdot(uhat, dirac.apply_symbol(grid, uhat)).real / grid.volume,
            "momentum": np.array([np.sum(kx * w), np.sum(ky * w), np.sum(kz * w)]) / grid.volume,
            "hsigma": lat.sobolev_norm(u, sigma),
            "charge": lat.charge(u)}


def random_smooth_field_loop(grid, rng, kmax=5, decay=1.0, amplitude=1.0):
    """``lattice.random_smooth_field`` written as one draw per mode: eight normals
    (four real parts, then four imaginary parts) for each (mx, my, mz) in
    mx-major order, damped and stored one mode at a time."""
    n = grid.n
    uhat = np.zeros((lat.N_COMPONENTS, n, n, n), dtype=np.complex128)
    scale = 2.0 * np.pi / grid.box_length
    for mx in range(-kmax, kmax + 1):
        for my in range(-kmax, kmax + 1):
            for mz in range(-kmax, kmax + 1):
                coeff = (rng.normal(size=lat.N_COMPONENTS)
                         + 1j * rng.normal(size=lat.N_COMPONENTS))
                xi2 = scale**2 * (mx * mx + my * my + mz * mz)
                damp = np.exp(-0.5 * xi2 * decay**2)
                uhat[:, mx % n, my % n, mz % n] = coeff * damp
    uhat *= amplitude * grid.volume / (2 * kmax + 1) ** 1.5
    return lat.to_position(grid, uhat)
