"""The two-parameter-family limit kernels K_{sigma-,sigma+,beta} and friends.

The kernel is (B(z)A(conj w) - A(z)B(conj w)) / (z - conj w) built from
confluent hypergeometric components.  Two regimes:

  two-sided (sigma- > 0 and sigma+ > 0):
      alpha = (i/2pi) log(sigma-/sigma+) + (beta-1)/2
      kappa = (1/2) (2 Gamma(beta+1)^2 sqrt(sigma+ sigma-) / |Gamma(alpha+1)|^2)^(1/beta)
      A(z)  = e^{i kappa z} (M(alpha,beta,-2i kappa z) + M(alpha+1,beta,-2i kappa z)) / 2
      B(z)  = z e^{i kappa z} M(alpha+1,beta+1,-2i kappa z)

  one-sided (sigma- = 0 or sigma+ = 0):
      sigma = +-(sigma_pm Gamma(beta+1)^2 / pi)^(1/beta)
      A(z)  = 0F1(beta, -sigma z),   B(z) = z 0F1(beta+1, -sigma z)

The family is normalized so K(0,0) = 1.  The internal scale relating these
printed kernels to empirically computed rescaling limits is a separate,
deliberately unresolved constant: fit_internal_scale measures it instead of
hard-coding a guess (candidates reported by the experiments are
{1, pi^(1/beta), Gamma(beta+1)^(-1/beta)}).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .special import (
    GammaOverflowError,
    bessel_f,
    bessel_f_prime,
    gamma_cx,
    kummer_m,
    hyp0f1,
    sine_ratio,
)

__all__ = [
    "LimitKernelSpec",
    "KernelSample",
    "ZeroDiagonalError",
    "SineKernelOverflowError",
    "ScaleFit",
    "ScaleFitError",
    "build_limit_kernel",
    "eval_limit_kernel",
    "kernel_components",
    "pair_kernel",
    "sine_kernel",
    "fh_bessel_kernel",
    "fit_internal_scale",
]

# Cancellation in the raw difference quotient reaches ~1e-8 relative at double
# precision, so switch to the derivative branch below this separation.
DIAGONAL_SWITCH = 1e-8


@dataclass(frozen=True)
class KernelSample:
    z: complex
    w: complex
    value: complex


class ZeroDiagonalError(ValueError):
    """K(xi, xi) is not positive (zero, or NaN); cannot rescale."""


class SineKernelOverflowError(OverflowError):
    """sine_kernel(z, w) is outside the double range."""


def pair_kernel(components, z, w):
    """The de Branges kernel (B(z)A(conj w) - A(z)B(conj w)) / (z - conj w) of a
    real pair (A, B) (de Branges 1968), where components(x, derivative) returns
    (A(x), B(x)), or (A, B, A', B') with derivative=True.  Within
    DIAGONAL_SWITCH of the diagonal it is the confluent limit B'A - A'B at the
    midpoint (z + conj w) / 2.  Off it, A(conj w) is read as conj(A(w)), as A
    and B are real entire: K(w, z) = conj(K(z, w)) holds exactly.  Plain
    Python complex arithmetic: no numpy overhead on scalar calls.
    """
    v = w.conjugate()
    if abs(z - v) < DIAGONAL_SWITCH:
        A, B, dA, dB = components((z + v) / 2.0, True)
        return dB * A - dA * B
    Az, Bz = components(z, False)
    Aw, Bw = components(w, False)
    return (Bz * Aw.conjugate() - Az * Bw.conjugate()) / (z - v)


def _tabulated(evaluate, points):
    """components(x, derivative) that read (A, B, A', B') at x off one
    evaluate(xs) pass over points, evaluate returning the four as arrays over
    xs; any other x gets a pass of its own."""
    def rows(xs):
        return zip(*(c.tolist() for c in evaluate(xs)))

    points = list(dict.fromkeys(points))
    table = dict(zip(points, rows(points)))

    def components(x, derivative):
        row = table[x] if x in table else next(rows([x]))
        return row if derivative else row[:2]

    return components


def _rescaled_samples(kd, xi, h, grid, kernel):
    """Samples of K(xi + z/tau, xi + w/tau) / kd at the (z, w) of grid, where
    kd = K(xi, xi) and tau = h(kd): the exact left-hand side of the scaling
    limits.  kernel(xs, pairs) returns K at the index pairs into
    xs = xi + p/tau, p the distinct points of the grid.  Raises
    ZeroDiagonalError unless kd > 0.
    """
    if not kd > 0:
        raise ZeroDiagonalError(f"K({xi}, {xi}) = {kd}")
    tau = float(h(kd))
    pairs = [(complex(z), complex(w)) for z, w in grid]
    pts = sorted({p for zw in pairs for p in zw}, key=lambda c: (c.real, c.imag))
    index = {p: i for i, p in enumerate(pts)}
    xs = xi + np.array(pts, dtype=complex) / tau
    values = kernel(xs, [(index[z], index[w]) for z, w in pairs])
    return [KernelSample(z=z, w=w, value=complex(val) / kd) for (z, w), val in zip(pairs, values)]


@dataclass(frozen=True)
class LimitKernelSpec:
    sigma_minus: float
    sigma_plus: float
    beta: float
    case: str  # "two-sided" | "one-sided"
    alpha: complex | None = None
    kappa: float | None = None
    sigma: float | None = None

    def __call__(self, z, w):
        return eval_limit_kernel(self, z, w)


def build_limit_kernel(sigma_minus, sigma_plus, beta):
    """Derive (alpha, kappa) or sigma and return the kernel spec."""
    if beta <= 0:
        raise ValueError("beta must be > 0")
    if sigma_minus < 0 or sigma_plus < 0 or (sigma_minus == 0 and sigma_plus == 0):
        raise ValueError("need sigma+- >= 0 and not both zero")
    try:
        gamma_beta_sq = gamma_cx(beta + 1).real ** 2
    except OverflowError as exc:
        raise GammaOverflowError(f"Gamma(beta+1)^2 overflows at beta = {beta}") from exc
    if sigma_minus > 0 and sigma_plus > 0:
        alpha = 1j / (2 * math.pi) * math.log(sigma_minus / sigma_plus) + (beta - 1) / 2
        g = gamma_cx(alpha + 1)
        gamma_sq = (g * g.conjugate()).real  # |Gamma(alpha+1)|^2
        kappa = 0.5 * (
            2.0 * gamma_beta_sq * math.sqrt(sigma_plus * sigma_minus) / gamma_sq
        ) ** (1.0 / beta)
        spec = LimitKernelSpec(sigma_minus, sigma_plus, beta, "two-sided",
                               alpha=alpha, kappa=kappa)
    else:
        mag = sigma_plus if sigma_plus > 0 else sigma_minus
        sigma = (mag * gamma_beta_sq / math.pi) ** (1.0 / beta)
        if sigma_plus == 0:
            sigma = -sigma
        spec = LimitKernelSpec(sigma_minus, sigma_plus, beta, "one-sided", sigma=sigma)
    # Gamma(beta+1)^2 times sigma+- can overflow although its square is finite
    if not math.isfinite(spec.sigma if spec.kappa is None else spec.kappa):
        raise GammaOverflowError(f"the kernel scale overflows at beta = {beta}")
    return spec


def kernel_components(spec, z, derivative=False):
    """The entire functions (A(z), B(z)) of the spec; with derivative=True,
    (A(z), B(z), A'(z), B'(z)), each M and 0F1 summed once.

    The derivatives are term-wise differentiated series, from
    d/dz M(a,b,cz) = c (a/b) M(a+1,b+1,cz) and
    d/dz 0F1(b,cz) = (c/b) 0F1(b+1,cz).  A and B are real entire, so a z
    whose imaginary part has its sign bit set (x - 0j too) gets the
    conjugates of the components at conj z: the kernel is exactly Hermitian.

    The series values are memoized in one bounded LRU (_sums) keyed on the
    spec and z: a kernel on N^2 sample pairs needs A and B at only N points,
    and a point asked for with derivative=True after a plain call sums only
    the series A' and B' add.  A zero real part of either sign keys one entry
    (x - 0j, reflected, keys that of x + 0j); a hit returns the bits a fresh
    evaluation gives.  Failures are not cached; a NaN z is never looked up.
    """
    z = complex(z)
    if math.copysign(1.0, z.imag) < 0:
        return tuple(c.conjugate() for c in kernel_components(spec, z.conjugate(), derivative))
    sums = _sums(spec, z) if z == z else _sums.__wrapped__(spec, z)
    if spec.case == "two-sided":
        a, b, kap = spec.alpha, spec.beta, spec.kappa
        if derivative and len(sums) == 3:
            u = -2j * kap * z
            sums += [kummer_m(a + 2, b + 1, u), kummer_m(a + 2, b + 2, u)]
        e = cmath.exp(1j * kap * z)
        m_a, m_a1, m_b = sums[:3]
        A, B = e * (m_a + m_a1) / 2.0, z * e * m_b
        if not derivative:
            return A, B
        dA = 1j * kap * e * (m_a + m_a1) / 2.0 + e * (-2j * kap) * (
            (a / b) * m_b + ((a + 1) / b) * sums[3]
        ) / 2.0
        dB = e * m_b + z * (
            1j * kap * e * m_b
            + e * (-2j * kap) * ((a + 1) / (b + 1)) * sums[4]
        )
        return A, B, dA, dB
    s, b = spec.sigma, spec.beta
    if derivative and len(sums) == 2:
        sums.append(hyp0f1(b + 2, -s * z))
    f_b, f_b1 = sums[:2]
    A, B = f_b, z * f_b1
    if not derivative:
        return A, B
    return A, B, (-s / b) * f_b1, f_b1 + z * (-s / (b + 1)) * sums[2]


@functools.lru_cache(maxsize=256)
def _sums(spec, z):
    """The series A and B need at z: [M(a,b,u), M(a+1,b,u), M(a+1,b+1,u)]
    (two-sided) or [0F1(b,-sz), 0F1(b+1,-sz)] (one-sided).  kernel_components
    appends, in place, the one or two that A' and B' add."""
    if spec.case == "two-sided":
        a, b, u = spec.alpha, spec.beta, -2j * spec.kappa * z
        return [kummer_m(a, b, u), kummer_m(a + 1, b, u), kummer_m(a + 1, b + 1, u)]
    return [hyp0f1(spec.beta, -spec.sigma * z), hyp0f1(spec.beta + 1, -spec.sigma * z)]


def eval_limit_kernel(spec, z, w):
    """K(z,w) = (B(z)A(conj w) - A(z)B(conj w)) / (z - conj w)."""
    return pair_kernel(functools.partial(kernel_components, spec), complex(z), complex(w))


def sine_kernel(z, w):
    """sin(pi(z - conj w)) / (pi(z - conj w)); 1 on the diagonal.  Raises
    ValueError when z - conj w is not finite, and SineKernelOverflowError when
    the value leaves the double range (|Im(z - conj w)| beyond about 226)."""
    u = complex(z) - complex(w).conjugate()
    if not cmath.isfinite(u):
        raise ValueError(f"sine_kernel needs a finite z - conj w, got z = {z}, w = {w}")
    try:
        return sine_ratio(math.pi * u)
    except OverflowError as exc:
        raise SineKernelOverflowError(
            f"sine_kernel({z}, {w}) overflows double precision") from exc


def fh_bessel_kernel(beta, z, w):
    """K_{1,1,beta} written with factored Bessel functions.

    Uses A(z) = Gamma(beta/2) F_{beta/2-1}(kappa z),
         B(z) = z Gamma(beta/2+1) F_{beta/2}(kappa z),
    with kappa from the two-sided spec at sigma+- = 1, so the result is
    directly comparable to eval_limit_kernel.
    """
    nu = beta / 2.0
    # bessel_f needs nu - 1 > -1, which a tiny beta > 0 loses to rounding
    if not nu - 1.0 > -1.0:
        raise ValueError(f"fh_bessel_kernel needs beta > 0 with beta/2 - 1 > -1 in double "
                         f"precision, got beta = {beta}")
    kap = build_limit_kernel(1.0, 1.0, beta).kappa
    g_a, g_b = gamma_cx(nu).real, gamma_cx(nu + 1.0).real

    def components(x, derivative):
        f_a, f_b = bessel_f(nu - 1.0, kap * x), bessel_f(nu, kap * x)
        pair = (g_a * f_a, g_b * x * f_b)
        if not derivative:
            return pair
        return pair + (g_a * kap * bessel_f_prime(nu - 1.0, kap * x),
                       g_b * (f_b + x * kap * bessel_f_prime(nu, kap * x)))

    return pair_kernel(components, complex(z), complex(w))


@dataclass(frozen=True)
class ScaleFit:
    c: float
    residual: float


class ScaleFitError(ValueError):
    """No scale in the fit's scan gives a finite sup-error, or the best
    scanned scale is an end of the scan range."""


def fit_internal_scale(samples, target):
    """Fit c > 0 minimizing sup_samples |value - target(c z, c w)|.

    Coarse log-spaced scan of c in [1e-2, 1e2] followed by golden-section
    refinement.  Samples must be normalized (value 1 at (0,0)) and number at
    least 10.  Raises ScaleFitError when no scanned scale gives a finite
    sup-error (non-finite samples, or a target that fails everywhere), and
    when the scan's minimum is c = 1e-2 or c = 1e2: the best scale may then
    lie outside the range.

    The search only asks whether a new value beats a bound: the scan's best
    so far (the first minimum wins, as np.argmin picks it), or the other
    golden-section point (x1 must be below f2, x2 at most f1).  So the sup
    stops once it reaches the bound, trying first the sample that set the
    last sup: such a partial value loses as the full one would and is never
    kept, and every value that is kept is exact.  The residual is a full
    evaluation.
    """
    if len(samples) < 10:
        raise ValueError("need at least 10 samples")
    pairs = [(complex(s.z), complex(s.w), complex(s.value)) for s in samples]

    def objective(log_c, bound=math.inf):
        # scales that overflow the series (or fail to converge) are just
        # infinitely bad, not errors
        c = math.exp(log_c)
        worst, lead = 0.0, 0
        for k, (z, w, val) in enumerate(pairs):
            try:
                pred = target(c * z, c * w)
            except (OverflowError, RuntimeError):
                return math.inf
            d = abs(val - pred)
            if not math.isfinite(d):
                return math.inf
            if d > worst:
                worst, lead = d, k
                if worst >= bound:
                    break
        pairs.insert(0, pairs.pop(lead))
        return worst

    lo, hi = math.log(1e-2), math.log(1e2)
    grid = np.linspace(lo, hi, 81)
    vals_grid = []
    for x in grid:
        vals_grid.append(objective(x, min(vals_grid, default=math.inf)))
    i = int(np.argmin(vals_grid))
    if not math.isfinite(vals_grid[i]):
        raise ScaleFitError("no scale in [1e-2, 1e2] gives a finite sup-error")
    if i in (0, len(grid) - 1):
        edge = "1e-2" if i == 0 else "1e2"
        raise ScaleFitError(f"the scan's best scale is the boundary c = {edge} of [1e-2, 1e2]")
    a, b = grid[i - 1], grid[i + 1]

    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1 = objective(x1)
    f2 = objective(x2, math.nextafter(f1, math.inf))  # x2 wins a tie: stop above f1
    for _ in range(90):
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = objective(x1, f2)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = objective(x2, math.nextafter(f1, math.inf))
        if b - a < 1e-14:
            break
    log_c = (a + b) / 2.0
    return ScaleFit(c=math.exp(log_c), residual=objective(log_c))
