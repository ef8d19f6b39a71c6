"""Measures on the line, their local mass asymptotics, power scaling
functions, Cauchy transforms, and the gallery of example measures used by
the experiments.

Interval convention is half-open [a, b) throughout: an atom at a counts, an
atom at b does not.  AC pieces carry endpoint singularity exponents > -1; all
quadrature goes through a power substitution that removes (or tames) the
endpoint singularity before Gauss-Legendre panels are applied.  The
Gauss-Legendre rules come from Newton's method on the Legendre recurrence
(_leggauss), in O(n) memory, with no companion-matrix eigensolve.
"""

from __future__ import annotations

import inspect
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "AcPiece",
    "Measure",
    "RegVarFn",
    "LocalScalingEstimate",
    "LocalScalingError",
    "AtomAtPointError",
    "QuadratureError",
    "mass",
    "local_scaling",
    "asymptotic_inverse",
    "cauchy_transform",
    "gallery",
    "gallery_names",
]


class QuadratureError(RuntimeError):
    """Panel doubling failed to stabilize the integral, or Newton failed to
    converge on a Gauss-Legendre rule."""


class AtomAtPointError(ValueError):
    """local_scaling requires mu({xi}) = 0."""


class LocalScalingError(RuntimeError):
    """No regularly varying fit found (says nothing about tangent measures)."""


@dataclass(frozen=True)
class AcPiece:
    """Absolutely continuous piece w(x) dx on [a, b].

    singular_exponents = (ga, gb) declares w(x) ~ C (x-a)^ga near a and
    ~ C (b-x)^gb near b, both > -1 (integrable).
    """

    a: float
    b: float
    weight: Callable[[np.ndarray], np.ndarray]
    singular_exponents: tuple = (0.0, 0.0)

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"piece endpoints must be finite, got [{self.a}, {self.b}]")
        if not self.a < self.b:
            raise ValueError("piece needs a < b")
        if min(self.singular_exponents) <= -1:
            raise ValueError("singularity exponents must be > -1")


@dataclass(frozen=True)
class Measure:
    atom_positions: np.ndarray = field(default_factory=lambda: np.empty(0))
    atom_masses: np.ndarray = field(default_factory=lambda: np.empty(0))
    pieces: tuple = ()

    def __post_init__(self):
        pos = np.asarray(self.atom_positions, dtype=float)
        mas = np.asarray(self.atom_masses, dtype=float)
        object.__setattr__(self, "atom_positions", pos)
        object.__setattr__(self, "atom_masses", mas)
        if pos.shape != mas.shape:
            raise ValueError("atom positions/masses shape mismatch")
        if not np.all(np.isfinite(pos)):
            raise ValueError("atom positions must be finite")
        if not np.all(np.isfinite(mas)):
            raise ValueError("atom masses must be finite")
        if not np.all(pos[1:] > pos[:-1]):
            raise ValueError("atom positions must be strictly increasing")
        if np.any(mas <= 0):
            raise ValueError("atom masses must be > 0")

    @property
    def total_mass(self):
        out = float(self.atom_masses.sum())
        for p in self.pieces:
            out += float(np.real(_integrate_piece(p, p.a, p.b)))
        return out


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@lru_cache(maxsize=128)
def _leggauss(n):
    """n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on P_n for the ceil(n/2) nodes in [0, 1) at once, from
    Tricomi's asymptotic nodes (the start of Hale & Townsend 2013, SIAM J.
    Sci. Comput. 35), with P_n and P_{n-1} from the three-term recurrence and
    P_n' = n (x P_n - P_{n-1}) / (x^2 - 1): O(n^2) time, O(n) memory.  It
    stops once max |dx| <= 4e-16 (QuadratureError after 10 passes); the
    weights are 2 / ((1 - x^2) P_n'^2), with P_n' from that last pass.  The
    other half is the mirror image, so x == -x[::-1] and w == w[::-1] hold
    bit for bit, and the middle node of odd n is 0.0.
    """
    n = operator.index(n)  # a Python int: n**4 of a numpy int wraps beyond n = 55,108
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    phi = np.pi * (4.0 * np.arange(1, (n + 1) // 2 + 1) - 1.0) / (4.0 * n + 2.0)
    x = (1.0 - (n - 1) / (8.0 * n**3) - (39.0 - 28.0 / np.sin(phi) ** 2) / (384.0 * n**4)) * np.cos(phi)
    if n % 2:
        x[-1] = 0.0  # a root of every odd P_n, where the recurrence gives P_n = 0 exactly
    for _ in range(10):
        p0, p1 = np.ones_like(x), x
        for k in range(1, n):
            p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        dx = p1 / dp
        x = x - dx
        if np.max(np.abs(dx)) <= 4e-16:
            break
    else:
        raise QuadratureError(f"Newton for the {n}-point Gauss-Legendre nodes did not converge")
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    # x runs from the node nearest 1 down to the middle; mirror it about 0
    return np.concatenate((-x[: n // 2], x[::-1])), np.concatenate((w[: n // 2], w[::-1]))


def _subst_exponent(gamma):
    """Power k for the substitution x = edge + u^k removing (x-edge)^gamma.

    Transformed integrand gains the factor k u^{k(1+gamma)-1}; k is the
    smallest integer <= 8 making that exponent an integer (polynomial case),
    otherwise the smallest making it >= 2 (enough smoothness for GL panels).
    """
    if gamma == 0.0:
        return 1
    for k in range(1, 9):
        e = k * (1.0 + gamma) - 1.0
        if abs(e - round(e)) < 1e-9 and e > -1e-9:
            return k
    return max(1, math.ceil(3.0 / (1.0 + gamma)))


def _half_nodes(piece, lo, hi, edge, gamma, n):
    """Nodes/weights for int_lo^hi w(x) dx on a half adjacent to `edge`."""
    k = _subst_exponent(gamma)
    sgn = 1.0 if edge <= lo else -1.0  # edge is the left end if sgn > 0
    near, far = (lo, hi) if sgn > 0 else (hi, lo)
    u_lo, u_hi = abs(near - edge) ** (1.0 / k), abs(far - edge) ** (1.0 / k)
    t, wq = _leggauss(n)
    u = 0.5 * (u_hi - u_lo) * t + 0.5 * (u_hi + u_lo)
    du = 0.5 * (u_hi - u_lo) * wq
    x = edge + sgn * u ** k
    jac = k * u ** (k - 1)
    vals = piece.weight(x)
    return x, vals * jac * du


def _piece_nodes(piece, lo, hi, n_half):
    """Discretization (nodes, weights >= 0) of w dx restricted to [lo, hi]."""
    lo = max(lo, piece.a)
    hi = min(hi, piece.b)
    if not lo < hi:
        return np.empty(0), np.empty(0)
    mid = 0.5 * (piece.a + piece.b)
    ga, gb = piece.singular_exponents
    halves = []
    if lo < min(mid, hi):
        halves.append(_half_nodes(piece, lo, min(mid, hi), piece.a, ga, n_half))
    if max(mid, lo) < hi:
        halves.append(_half_nodes(piece, max(mid, lo), hi, piece.b, gb, n_half))
    x, w = zip(*halves)
    return np.concatenate(x), np.concatenate(w)


def _integrate_piece(piece, lo, hi, f=None):
    """Adaptive integral of f(x) w(x) dx over [lo,hi]: from 32 nodes, panels
    doubled (at most 12 passes) until two refinements agree to relative
    tolerance 1e-10."""
    lo = max(lo, piece.a)
    hi = min(hi, piece.b)
    if not lo < hi:
        return 0.0
    n = 32
    prev = None
    for _ in range(12):
        x, w = _piece_nodes(piece, lo, hi, n)
        cur = np.sum(w * (1.0 if f is None else f(x)))
        if prev is not None and abs(cur - prev) <= 1e-10 * (1.0 + abs(cur)):
            return cur
        prev = cur
        n *= 2
    raise QuadratureError(f"integral over [{lo}, {hi}] did not stabilize")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def mass(mu, a, b):
    """mu([a, b)): atoms at positions in [a,b) plus the AC mass."""
    if not a < b:
        raise ValueError("need a < b")
    pos, mas = mu.atom_positions, mu.atom_masses
    out = 0.0
    if pos.size:
        out += float(mas[(pos >= a) & (pos < b)].sum())
    for p in mu.pieces:
        out += float(np.real(_integrate_piece(p, a, b)))
    return out


def _mass_open_open(mu, a, b):
    """mu((a, b)) = mu([a,b)) minus an atom exactly at a."""
    out = mass(mu, a, b)
    pos, mas = mu.atom_positions, mu.atom_masses
    hit = pos == a
    if hit.any():
        out -= float(mas[hit].sum())
    return out


@dataclass(frozen=True)
class LocalScalingEstimate:
    beta_hat: float
    sigma_minus_hat: float
    sigma_plus_hat: float
    fit_residual: float


def local_scaling(mu, xi, r_grid):
    """Regular-variation fit of the one-sided masses of mu around xi.

    beta_hat is the least-squares slope of log(1/[mu((xi-1/r,xi)) + mu([xi,xi+1/r))])
    against log r; sigma_hat_pm are means of r^beta_hat * one-sided mass over
    the top decade of r (normalization g(r) = r^beta).
    """
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.size < 4 or not np.all(np.diff(r_grid) > 0):
        raise ValueError("r_grid must be increasing with >= 4 points")
    if r_grid[-1] / r_grid[0] < 1e3:
        raise ValueError("r_grid must span at least 3 decades")
    if (mu.atom_positions == xi).any():
        raise AtomAtPointError(f"atom at xi = {xi}")

    m_minus = np.array([_mass_open_open(mu, xi - 1.0 / r, xi) for r in r_grid])
    m_plus = np.array([mass(mu, xi, xi + 1.0 / r) for r in r_grid])
    total = m_minus + m_plus
    ok = total > 0
    if not ok.any():
        raise LocalScalingError("zero mass on all scales; no regularly varying fit found")
    x = np.log(r_grid[ok])
    y = np.log(1.0 / total[ok])
    beta_hat, intercept = np.polyfit(x, y, 1)
    residual = float(np.max(np.abs(np.polyval([beta_hat, intercept], x) - y)))
    if beta_hat <= 0:
        raise LocalScalingError("fitted index is not positive; no regularly varying fit found")
    top = r_grid >= r_grid[-1] / 10.0
    g = r_grid[top] ** beta_hat
    return LocalScalingEstimate(
        beta_hat=float(beta_hat),
        sigma_minus_hat=float(np.mean(g * m_minus[top])),
        sigma_plus_hat=float(np.mean(g * m_plus[top])),
        fit_residual=residual,
    )


@dataclass(frozen=True)
class RegVarFn:
    """g(r) = scale * r^index."""

    scale: float = 1.0
    index: float = 1.0

    def __post_init__(self):
        _finite("scale", self.scale)
        _finite("index", self.index)
        if self.scale <= 0:
            raise ValueError("scale must be > 0")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = self.scale * r ** self.index
        return float(out) if out.ndim == 0 else out


def asymptotic_inverse(g):
    """The power inverse h of g, itself a RegVarFn: h(g(r)) = r up to rounding."""
    if g.index <= 0:
        raise ValueError("asymptotic inverse needs index > 0")
    return RegVarFn(scale=g.scale ** (-1.0 / g.index), index=1.0 / g.index)


def cauchy_transform(mu, z):
    """m(z) = int dmu(t) / (t - z), z finite with Im z != 0."""
    z = complex(z)
    if not np.isfinite(z):
        raise ValueError(f"cauchy_transform needs a finite z, got {z}")
    if z.imag == 0.0:
        raise ValueError("cauchy_transform needs Im z != 0")
    out = 0.0 + 0.0j
    if mu.atom_positions.size:
        out += np.sum(mu.atom_masses / (mu.atom_positions - z))
    for p in mu.pieces:
        out += _integrate_piece(p, p.a, p.b, f=lambda t: 1.0 / (t - z))
    return complex(out)


# ---------------------------------------------------------------------------
# gallery
# ---------------------------------------------------------------------------

def _finite(name, value):
    """value as a float; a ValueError naming the parameter if it is not finite."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _pure_point_bulk(cutoff=100000):
    """Atoms of mass 1/(j(j+1)) at +-1/j, j <= cutoff; truncation mass 1/cutoff
    per side is dropped.  Both halves are written into the two arrays in place,
    with no concatenated copies: j (exact integers from a fill and a cumsum)
    and j (j + 1) are built in the two halves of the masses."""
    if not (float(cutoff).is_integer() and cutoff >= 1):
        raise ValueError(f"cutoff must be an integer >= 1, got {cutoff}")
    cutoff = int(cutoff)
    pos, masses = np.empty(2 * cutoff), np.ones(2 * cutoff)
    j, m = masses[:cutoff], masses[cutoff:]
    np.cumsum(j, out=j)
    np.divide(-1.0, j, out=pos[:cutoff])
    np.divide(1.0, j[::-1], out=pos[cutoff:])
    np.add(j, 1.0, out=m)
    m *= j
    np.divide(1.0, m, out=j)  # 1/(j (j + 1)), j ascending
    m[:] = j[::-1]
    return Measure(pos, masses)


def _power_hard_edge(beta=1.5):
    beta = _finite("beta", beta)
    if beta <= 0:
        raise ValueError("beta must be > 0")
    piece = AcPiece(0.0, 1.0, lambda x: beta * x ** (beta - 1.0),
                    singular_exponents=(beta - 1.0, 0.0))
    return Measure(pieces=(piece,))


def _even_fh(beta=1.5):
    """Even weight (beta/2)|x|^(beta-1) on [-1,1]; nu([0,t)) = t^beta/2."""
    beta = _finite("beta", beta)
    if beta <= 0:
        raise ValueError("beta must be > 0")
    w = lambda x: (beta / 2.0) * np.abs(x) ** (beta - 1.0)
    left = AcPiece(-1.0, 0.0, w, singular_exponents=(0.0, beta - 1.0))
    right = AcPiece(0.0, 1.0, w, singular_exponents=(beta - 1.0, 0.0))
    return Measure(pieces=(left, right))


def _chebyshev():
    piece = AcPiece(-1.0, 1.0, lambda x: 1.0 / (math.pi * np.sqrt(1.0 - x * x)),
                    singular_exponents=(-0.5, -0.5))
    return Measure(pieces=(piece,))


def _legendre():
    piece = AcPiece(-1.0, 1.0, lambda x: np.full_like(x, 0.5))
    return Measure(pieces=(piece,))


def _jump(sigma_minus=0.5, sigma_plus=1.0):
    sm, sp = _finite("sigma_minus", sigma_minus), _finite("sigma_plus", sigma_plus)
    if sm < 0 or sp < 0 or sm + sp == 0:
        raise ValueError("need sigma+- >= 0, not both zero")
    pieces = []
    if sm > 0:
        pieces.append(AcPiece(-1.0, 0.0, lambda x, c=sm: np.full_like(x, c)))
    if sp > 0:
        pieces.append(AcPiece(0.0, 1.0, lambda x, c=sp: np.full_like(x, c)))
    return Measure(pieces=tuple(pieces))


_GALLERY = {
    "pure_point_bulk": _pure_point_bulk,
    "power_hard_edge": _power_hard_edge,
    "even_fh": _even_fh,
    "chebyshev": _chebyshev,
    "legendre": _legendre,
    "jump": _jump,
}


def gallery_names():
    return sorted(_GALLERY)


def gallery(name, **params):
    """Construct a named example measure.  Raises ValueError for an unknown
    name, a parameter the measure does not take, or a bad parameter value."""
    try:
        builder = _GALLERY[name]
    except KeyError:
        raise ValueError(f"unknown gallery measure {name!r}; known: {gallery_names()}") from None
    accepted = inspect.signature(builder).parameters
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ValueError(f"gallery measure {name!r} takes {list(accepted)}, not {unknown}")
    return builder(**params)
