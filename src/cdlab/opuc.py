"""Orthogonal polynomials on the unit circle.

Szego recursion for orthonormal polynomials (phi_0 = 1):

    phi_{k+1}(zeta)  = (zeta phi_k - conj(alpha_k) phi*_k) / sqrt(1-|alpha_k|^2)
    phi*_{k+1}(zeta) = (phi*_k - alpha_k zeta phi_k) / sqrt(1-|alpha_k|^2)

Second-kind polynomials psi_k use the same recursion with alpha_k -> -alpha_k.
The measure is a probability measure; rotation to a point e^{i xi} is handled
by rotating kernel arguments, never by re-deriving coefficients.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .limit_kernels import DIAGONAL_SWITCH, KernelSample
from .oprl import ZeroDiagonalError, _discretize

__all__ = [
    "VerblunskyCoeffs",
    "SzegoValues",
    "verblunsky_from_measure",
    "szego_eval",
    "cd_kernel_circle",
    "kernel_diag_circle",
    "rescaled_cd_circle",
    "opuc_canonical_kernel",
    "opuc_interp_kernel",
]


@dataclass(frozen=True)
class VerblunskyCoeffs:
    alpha: np.ndarray
    source: str = ""

    def __post_init__(self):
        al = np.asarray(self.alpha, dtype=complex)
        object.__setattr__(self, "alpha", al)
        if al.size and np.max(np.abs(al)) >= 1.0:
            raise ValueError("Verblunsky coefficients must satisfy |alpha_n| < 1")

    def __len__(self):
        return self.alpha.size

    @classmethod
    def free(cls, n):
        """alpha_k = 0 (normalized Lebesgue measure on the circle)."""
        return cls(np.zeros(n, dtype=complex), source="free")


@dataclass(frozen=True)
class SzegoValues:
    zeta: complex
    phi: np.ndarray
    phi_star: np.ndarray
    psi: np.ndarray


def verblunsky_from_measure(mu_circle, n_max):
    """Verblunsky coefficients of an angle measure on the circle.

    The measure (parameterized by angle) is discretized exactly as in
    stieltjes_coeffs (_discretize), monic polynomials are advanced by the
    Szego recursion with alpha_n read off from inner products, and each new
    polynomial is re-projected onto the orthogonal complement of its
    predecessors (monic leading coefficient untouched).
    """
    theta, w = _discretize(mu_circle, n_max)
    w = w / w.sum()
    zeta = np.exp(1j * theta)

    def inner(f, g):
        return np.sum(w * f * np.conj(g))

    big_phi = np.ones_like(zeta)  # monic Phi_n on the nodes
    basis = [big_phi / math.sqrt(float(np.real(inner(big_phi, big_phi))))]
    alphas = np.empty(n_max, dtype=complex)
    power = np.ones_like(zeta)  # zeta^n
    for n in range(n_max):
        big_star = power * np.conj(big_phi)  # zeta^n conj(Phi_n) = Phi*_n on |zeta|=1
        nrm_sq = float(np.real(inner(big_phi, big_phi)))
        alpha = np.conj(inner(zeta * big_phi, big_star) / nrm_sq)
        if abs(alpha) >= 1.0:
            raise ValueError(f"|alpha_{n}| >= 1 from discretization (ill-conditioned)")
        alphas[n] = alpha
        big_phi = zeta * big_phi - np.conj(alpha) * big_star
        for q in basis:  # full reorthogonalization; degree <= n components only
            big_phi = big_phi - inner(big_phi, q) * q
        basis.append(big_phi / math.sqrt(float(np.real(inner(big_phi, big_phi)))))
        power = power * zeta
    return VerblunskyCoeffs(alphas, source=mu_circle.name or "circle measure")


def szego_eval(v, n, zeta):
    """phi_0..phi_n, phi*_0..phi*_n, psi_0..psi_n at zeta."""
    if n > len(v):
        raise ValueError(f"n = {n} exceeds declared length {len(v)}")
    zeta = complex(zeta)
    phi = np.empty(n + 1, dtype=complex)
    phs = np.empty(n + 1, dtype=complex)
    psi = np.empty(n + 1, dtype=complex)
    pss = np.empty(n + 1, dtype=complex)
    phi[0] = phs[0] = psi[0] = pss[0] = 1.0
    for k in range(n):
        al = v.alpha[k]
        r = 1.0 / math.sqrt(1.0 - abs(al) ** 2)
        phi[k + 1] = r * (zeta * phi[k] - np.conj(al) * phs[k])
        phs[k + 1] = r * (phs[k] - al * zeta * phi[k])
        psi[k + 1] = r * (zeta * psi[k] + np.conj(al) * pss[k])
        pss[k + 1] = r * (pss[k] + al * zeta * psi[k])
    return SzegoValues(zeta=zeta, phi=phi, phi_star=phs, psi=psi)


def _szego_last_batch(v, n, zetas, derivative=False):
    """(phi_n, phi*_n [, phi'_n, phi*'_n]) at many points."""
    zetas = np.asarray(zetas, dtype=complex)
    phi = np.ones_like(zetas)
    phs = np.ones_like(zetas)
    dphi = np.zeros_like(zetas)
    dphs = np.zeros_like(zetas)
    for k in range(n):
        al = v.alpha[k]
        r = 1.0 / math.sqrt(1.0 - abs(al) ** 2)
        new_phi = r * (zetas * phi - np.conj(al) * phs)
        new_phs = r * (phs - al * zetas * phi)
        if derivative:
            new_dphi = r * (phi + zetas * dphi - np.conj(al) * dphs)
            new_dphs = r * (dphs - al * phi - al * zetas * dphi)
            dphi, dphs = new_dphi, new_dphs
        phi, phs = new_phi, new_phs
    return (phi, phs, dphi, dphs) if derivative else (phi, phs)


def cd_kernel_circle(v, n, zeta, omega, method="cd_formula"):
    """k_n(zeta, omega) = sum_{j<n} phi_j(zeta) conj(phi_j(omega))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    zeta, omega = complex(zeta), complex(omega)
    if method == "sum":
        sz = szego_eval(v, n - 1, zeta)
        sw = szego_eval(v, n - 1, omega)
        return complex(np.sum(sz.phi * np.conj(sw.phi)))
    if method != "cd_formula":
        raise ValueError(f"unknown method {method!r}")
    denom = 1.0 - zeta * np.conj(omega)
    if abs(denom) >= DIAGONAL_SWITCH:
        phi, phs = _szego_last_batch(v, n, [zeta, omega])
        num = phs[0] * np.conj(phs[1]) - phi[0] * np.conj(phi[1])
        return complex(num / denom)
    # derivative branch at zeta conj(omega) = 1:
    # k = (phi_n(zeta) conj(phi'_n(w0)) - phi*_n(zeta) conj(phi*'_n(w0))) / zeta
    # with w0 = 1/conj(zeta) the reflected point
    w0 = 1.0 / np.conj(zeta)
    phi, phs, dphi, dphs = _szego_last_batch(v, n, [zeta, w0], derivative=True)
    num = phi[0] * np.conj(dphi[1]) - phs[0] * np.conj(dphs[1])
    return complex(num / zeta)


def kernel_diag_circle(v, n, xi):
    """k_n(e^{i xi}, e^{i xi}) via the sum."""
    sz = szego_eval(v, n - 1, cmath.exp(1j * xi))
    return float(np.sum(np.abs(sz.phi) ** 2))


def rescaled_cd_circle(v, xi, h, n, grid):
    """e^{-in(z - conj w)/(2 tau)} k_n(e^{i(xi+z/tau)}, e^{i(xi+w/tau)}) / k_n,
    where k_n = k_n(e^{i xi}, e^{i xi}) and tau = h(k_n)."""
    kd = kernel_diag_circle(v, n, xi)
    if not kd > 0:
        raise ZeroDiagonalError(f"k_{n} at xi = {xi} is {kd}")
    tau = float(h(kd))
    pairs = [(complex(z), complex(w)) for z, w in grid]
    pts = sorted({p for zw in pairs for p in zw}, key=lambda c: (c.real, c.imag))
    idx = {p: i for i, p in enumerate(pts)}
    zetas = np.exp(1j * (xi + np.array(pts, dtype=complex) / tau))
    phi, phs, dphi, dphs = _szego_last_batch(v, n, zetas, derivative=True)
    out = []
    for z, w in pairs:
        iz, iw = idx[z], idx[w]
        zz, ww = zetas[iz], zetas[iw]
        if abs(1.0 - zz * np.conj(ww)) < DIAGONAL_SWITCH:
            # derivative branch as in cd_kernel_circle; on the exact diagonal
            # the reflected point coincides with the node itself
            val = (phi[iz] * np.conj(dphi[iw]) - phs[iz] * np.conj(dphs[iw])) / zz
        else:
            val = (phs[iz] * np.conj(phs[iw]) - phi[iz] * np.conj(phi[iw])) / (
                1.0 - zz * np.conj(ww)
            )
        u = z - np.conj(w)
        pref = np.exp(-1j * n * u / (2.0 * tau))
        out.append(KernelSample(z=z, w=w, value=complex(pref * val / kd)))
    return out


def opuc_canonical_kernel(v, t, z, w):
    """Reproducing kernel K(n+s, z, w) of the circle chain, t = n + s.

    K(n+s,z,w) = e^{-in u/2} / (2i u) * [ e^{is u/2} phi_n(e^{iz}) conj(phi_n(e^{iw}))
                 - e^{-is u/2} phi*_n(e^{iz}) conj(phi*_n(e^{iw})) ],  u = z - conj w,

    oriented so the diagonal is positive.  Derivative branch on |u| < 1e-8.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    n = int(math.floor(t))
    s = t - n
    z, w = complex(z), complex(w)
    u = z - w.conjugate()
    if abs(u) >= DIAGONAL_SWITCH:
        phi, phs = _szego_last_batch(v, n, [cmath.exp(1j * z), cmath.exp(1j * w)])
        br = (
            cmath.exp(1j * s * u / 2.0) * phi[0] * np.conj(phi[1])
            - cmath.exp(-1j * s * u / 2.0) * phs[0] * np.conj(phs[1])
        )
        return complex(cmath.exp(-1j * n * u / 2.0) * br / (2j * u))
    # confluent: K = (i/2) d/dv H(z,v) at v = (z + conj w)/2, where
    # H(z,v) = e^{-in(z-v)/2}[e^{is(z-v)/2} P(z)T(v) - e^{-is(z-v)/2} S(z)U(v)],
    # P(t) = phi_n(e^{it}), S(t) = phi*_n(e^{it}), T(v) = conj(P(conj v)),
    # U(v) = conj(S(conj v)); T'(v) = -i conj(e^{i conj v} phi'_n(e^{i conj v})).
    zeta0 = (z + w.conjugate()) / 2.0
    ez = cmath.exp(1j * zeta0)
    ezc = cmath.exp(1j * zeta0.conjugate())
    phi_d, phs_d = _szego_last_batch(v, n, [ez])
    phi_c, phs_c, dphi_c, dphs_c = _szego_last_batch(v, n, [ezc], derivative=True)
    big_p, big_s = phi_d[0], phs_d[0]
    t_val, u_val = np.conj(phi_c[0]), np.conj(phs_c[0])
    t_prime = -1j * np.conj(ezc * dphi_c[0])
    u_prime = -1j * np.conj(ezc * dphs_c[0])
    h_v = (
        (1j * n / 2.0) * (big_p * t_val - big_s * u_val)  # = 0 by the CD identity
        + (-1j * s / 2.0) * (big_p * t_val + big_s * u_val)
        + big_p * t_prime
        - big_s * u_prime
    )
    return complex((1j / 2.0) * h_v)


def opuc_interp_kernel(v, t, z, w):
    """K(n+s,.,.) as the sin-ratio combination of the integer-level kernels:

    K(n+s) = sin((1-s)u/2)/sin(u/2) K(n) + sin(s u/2)/sin(u/2) K(n+1).
    """
    n = int(math.floor(t))
    s = t - n
    if s == 0.0:
        return opuc_canonical_kernel(v, float(n), z, w)
    u = complex(z) - complex(w).conjugate()
    k0 = opuc_canonical_kernel(v, float(n), z, w)
    k1 = opuc_canonical_kernel(v, float(n + 1), z, w)
    if abs(u) < 1e-6:
        c0, c1 = 1.0 - s, s  # limits of the sin ratios
    else:
        den = cmath.sin(u / 2.0)
        c0 = cmath.sin((1.0 - s) * u / 2.0) / den
        c1 = cmath.sin(s * u / 2.0) / den
    return complex(c0 * k0 + c1 * k1)
