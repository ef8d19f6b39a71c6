"""Orthogonal polynomials on the unit circle.

Szego recursion for orthonormal polynomials (phi_0 = 1):

    phi_{k+1}(zeta)  = (zeta phi_k - conj(alpha_k) phi*_k) / sqrt(1-|alpha_k|^2)
    phi*_{k+1}(zeta) = (phi*_k - alpha_k zeta phi_k) / sqrt(1-|alpha_k|^2)

Second-kind polynomials psi_k are not a separate sequence: they are the phi_k
of the coefficients -alpha_k, so szego_eval of VerblunskyCoeffs(-alpha) gives
them (Simon 2005, OPUC Part 1, Sec. 3.2).
The measure is a probability measure; rotation to a point e^{i xi} is handled
by rotating kernel arguments, never by re-deriving coefficients.  Integer
levels n follow oprl._level, and real levels t oprl._real_level.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .limit_kernels import DIAGONAL_SWITCH, _rescaled_samples, _tabulated, pair_kernel
from .oprl import KernelOverflowError, _chain, _level, _real_level

__all__ = [
    "VerblunskyCoeffs",
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

    def __post_init__(self):
        al = np.asarray(self.alpha, dtype=complex)
        object.__setattr__(self, "alpha", al)
        if not np.all(np.abs(al) < 1.0):  # a NaN fails too
            raise ValueError("Verblunsky coefficients must be finite with |alpha_n| < 1")

    def __len__(self):
        return self.alpha.size

    @classmethod
    def free(cls, n):
        """alpha_k = 0 (normalized Lebesgue measure on the circle)."""
        return cls(np.zeros(n, dtype=complex))


def szego_eval(v, n, zeta):
    """(phi, phi_star): phi_0..phi_n and phi*_0..phi*_n at zeta, 0 <= n <= len(v)."""
    n, zeta = _level(n, 0, len(v)), complex(zeta)
    phi, phs = [1.0 + 0j], [1.0 + 0j]
    for al in v.alpha[:n].tolist():  # Python complex: no numpy call per step
        r = 1.0 / math.sqrt(1.0 - abs(al) ** 2)
        phi.append(r * (zeta * phi[-1] - al.conjugate() * phs[-1]))
        phs.append(r * (phs[-1] - al * zeta * phi[-2]))
    return np.array(phi), np.array(phs)


def _szego_last_batch(v, n, zetas, derivative=False):
    """(phi_n, phi*_n [, phi'_n, phi*'_n]) at many points: the Szego steps
    (phi, phi*) -> r (zeta phi - conj(alpha) phi*, phi* - alpha zeta phi),
    r = (1 - |alpha|^2)^(-1/2), from (1, 1) by _chain; 0 <= n <= len(v)."""
    n = _level(n, 0, len(v))
    alpha = v.alpha[:n]
    r = 1.0 / np.sqrt(1.0 - np.abs(alpha) ** 2)
    c, d = np.zeros((2, n, 2, 2), dtype=complex)
    c[:, 0, 1], c[:, 1, 1] = -r * np.conj(alpha), r
    d[:, 0, 0], d[:, 1, 0] = r, -r * alpha
    s, ds = _chain(c, d, zetas, (1.0, 1.0), derivative)
    return (*s, *ds) if derivative else (*s,)


def _circle_kernel(components, zeta, omega):
    """k_n(zeta, omega) = (phi*_n(zeta) conj(phi*_n(omega)) - phi_n(zeta)
    conj(phi_n(omega))) / (1 - zeta conj(omega)), where components(x,
    derivative) is (phi_n(x), phi*_n(x) [, phi'_n(x), phi*'_n(x)]), as
    _tabulated reads them off _szego_last_batch.  Within
    DIAGONAL_SWITCH of zeta conj(omega) = 1 it is the limit
    (phi_n(zeta) conj(phi'_n(r)) - phi*_n(zeta) conj(phi*'_n(r))) / zeta at the
    reflected point r = 1 / conj(zeta).
    """
    denom = 1.0 - zeta * omega.conjugate()
    phi, phs = components(zeta, False)
    if abs(denom) < DIAGONAL_SWITCH:
        _, _, dphi, dphs = components(1.0 / zeta.conjugate(), True)
        return (phi * dphi.conjugate() - phs * dphs.conjugate()) / zeta
    phi_w, phs_w = components(omega, False)
    return (phs * phs_w.conjugate() - phi * phi_w.conjugate()) / denom


def cd_kernel_circle(v, n, zeta, omega, method="cd_formula"):
    """k_n(zeta, omega) = sum_{j<n} phi_j(zeta) conj(phi_j(omega)), 1 <= n <=
    len(v) + 1 by the sum and len(v) by the CD formula; raises
    KernelOverflowError when the value is outside the double range."""
    if method not in ("sum", "cd_formula"):
        raise ValueError(f"unknown method {method!r}")
    n = _level(n, 1, len(v) + (method == "sum"))
    zeta, omega = complex(zeta), complex(omega)
    # an overflow surfaces as inf or nan in the value and is raised below
    with np.errstate(over="ignore", invalid="ignore"):
        if method == "sum":
            phi_z, _ = szego_eval(v, n - 1, zeta)
            phi_w, _ = szego_eval(v, n - 1, omega)
            out = complex(np.sum(phi_z * np.conj(phi_w)))
        else:
            pair = _tabulated(functools.partial(_szego_last_batch, v, n, derivative=True),
                              [zeta, omega])
            out = _circle_kernel(pair, zeta, omega)
    if not cmath.isfinite(out):
        raise KernelOverflowError(n, zeta, omega)
    return out


def kernel_diag_circle(v, n, xi):
    """k_n(e^{i xi}, e^{i xi}) via the sum, 0 <= n <= len(v) + 1; xi is finite."""
    n = _level(n, 0, len(v) + 1)
    if not math.isfinite(xi):
        raise ValueError(f"xi must be finite, got {xi}")
    phi, _ = szego_eval(v, max(n - 1, 0), cmath.exp(1j * xi))
    return float(np.sum(np.abs(phi[:n]) ** 2))


def rescaled_cd_circle(v, xi, h, n, grid):
    """e^{-in(z - conj w)/(2 tau)} k_n(e^{i(xi+z/tau)}, e^{i(xi+w/tau)}) / k_n,
    where k_n = k_n(e^{i xi}, e^{i xi}) and tau = h(k_n), at an integer level
    0 <= n <= len(v); real levels go through opuc_canonical_kernel."""
    n = _level(n, 0, len(v))

    def kernel(xs, pairs):
        zetas = np.exp(1j * xs).tolist()
        # the diagonal reads derivatives at the reflected points: one pass for all
        pair = _tabulated(functools.partial(_szego_last_batch, v, n, derivative=True),
                          zetas + [1.0 / x.conjugate() for x in zetas])
        return [cmath.exp(-1j * n * (xs[i] - xs[j].conjugate()) / 2.0)
                * _circle_kernel(pair, zetas[i], zetas[j]) for i, j in pairs]

    return _rescaled_samples(kernel_diag_circle(v, n, xi), xi, h, grid, kernel)


def opuc_canonical_kernel(v, t, z, w):
    """Reproducing kernel K(n+s, z, w) of the circle chain, t = n + s:

    K(n+s,z,w) = e^{-in u/2} / (2i u) * [ e^{is u/2} phi_n(e^{iz}) conj(phi_n(e^{iw}))
                 - e^{-is u/2} phi*_n(e^{iz}) conj(phi*_n(e^{iw})) ],  u = z - conj w,

    oriented so the diagonal is positive.  It is pair_kernel of
    A = (F + G)/2, B = i(G - F)/2, with F(x) = e^{-i(n-s)x/2} phi_n(e^{ix})
    and G(x) = e^{-i(n+s)x/2} phi*_n(e^{ix}) = conj(F(conj x)).  Raises
    KernelOverflowError when the value is outside the double range.
    """
    return _chain_kernel(v, *_real_level(t), z, w)


def _chain_kernel(v, n, s, z, w):
    """K(n+s, z, w) of opuc_canonical_kernel from the level n and the offset s,
    which may be 1: level n at s = 1 is level n + 1 at s = 0."""
    def components(x, derivative):
        e = cmath.exp(1j * x)
        phi, phs, *d = (c[0] for c in _szego_last_batch(v, n, [e], derivative))
        e_f, e_g = cmath.exp(-0.5j * (n - s) * x), cmath.exp(-0.5j * (n + s) * x)
        f, g = e_f * phi, e_g * phs
        pair = ((f + g) / 2.0, 0.5j * (g - f))
        if not derivative:
            return pair
        df = e_f * (-0.5j * (n - s) * phi + 1j * e * d[0])
        dg = e_g * (-0.5j * (n + s) * phs + 1j * e * d[1])
        return pair + ((df + dg) / 2.0, 0.5j * (dg - df))

    # an overflow surfaces as inf or nan, or as OverflowError from cmath.exp
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            out = complex(pair_kernel(components, complex(z), complex(w)))
    except OverflowError:
        out = cmath.inf
    if not cmath.isfinite(out):
        raise KernelOverflowError(n + s, z, w)
    return out


def opuc_interp_kernel(v, t, z, w):
    """K(n+s,.,.) as the sin-ratio combination of the integer-level kernels:

    K(n+s) = sin((1-s)u/2)/sin(u/2) K(n) + sin(s u/2)/sin(u/2) K(n+1).
    """
    n, s = _real_level(t)
    k0 = opuc_canonical_kernel(v, float(n), z, w)
    if s == 0.0:
        return k0
    u = complex(z) - complex(w).conjugate()
    k1 = opuc_canonical_kernel(v, float(n + 1), z, w)
    if abs(u) < 1e-6:
        c0, c1 = 1.0 - s, s  # limits of the sin ratios
    else:
        den = cmath.sin(u / 2.0)
        c0 = cmath.sin((1.0 - s) * u / 2.0) / den
        c1 = cmath.sin(s * u / 2.0) / den
    return complex(c0 * k0 + c1 * k1)
