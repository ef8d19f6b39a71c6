"""Complex-capable special functions: Gamma, Kummer M, 0F1, factored Bessel F_nu.

Everything here is a plain power series with a relative-term stopping rule,
plus a Lanczos-type rational approximation for Gamma.  These are the only
transcendental building blocks the limit kernels need; no asymptotic
expansions, no arbitrary precision.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SeriesPolicy",
    "SeriesConvergenceError",
    "GammaPoleError",
    "BracketingError",
    "DEFAULT_POLICY",
    "gamma_cx",
    "kummer_m",
    "hyp0f1",
    "bessel_f",
    "bessel_f_prime",
    "bessel_zero",
    "real_zeros",
]


class SeriesConvergenceError(RuntimeError):
    """Series did not meet the stopping rule within max_terms."""

    def __init__(self, name, partial_sum_magnitude, max_terms):
        self.partial_sum_magnitude = float(partial_sum_magnitude)
        self.max_terms = int(max_terms)
        super().__init__(
            f"{name}: no convergence after {max_terms} terms "
            f"(|partial sum| = {partial_sum_magnitude:.3e})"
        )


class GammaPoleError(ValueError):
    """Gamma evaluated at a nonpositive integer."""


class BracketingError(RuntimeError):
    """Zero search exhausted its window without finding enough sign changes."""


@dataclass(frozen=True)
class SeriesPolicy:
    """Truncation policy for the power series in this module.

    A term is "small" when |term| <= rel_tol * |partial sum|; summation stops
    after three consecutive small terms (guards against a single term that
    happens to vanish).  kummer_threshold is the |z| above which the Kummer
    transform M(a,b,z) = e^z M(b-a,b,-z) is used when it reduces cancellation
    (Re z < 0); 40 keeps the cancellation below ~1e-12 in double precision.
    """

    rel_tol: float = 1e-14
    max_terms: int = 2000
    kummer_threshold: float = 40.0

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be > 0")
        if self.max_terms < 16:
            raise ValueError("max_terms must be >= 16")


DEFAULT_POLICY = SeriesPolicy()


# Lanczos approximation, g = 607/128, 15 coefficients (Godfrey's set);
# relative error stays below ~1e-13 on the strip needed here (|z| <= 30).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_COEFFS = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    3.3994649984811888699e-5,
    4.6523628927048575665e-5,
    -9.8374475304879564677e-5,
    1.5808870322491248884e-4,
    -2.1026444172410488319e-4,
    2.1743961811521264320e-4,
    -1.6431810653676389022e-4,
    8.4418223983852743293e-5,
    -2.6190838401581408670e-5,
    3.6899182659531622704e-6,
)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _is_nonpositive_integer(z):
    z = complex(z)
    return z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real)


def _gamma_lanczos_half_plane(z):
    # valid for Re z >= 0.5
    zm1 = z - 1.0
    acc = _LANCZOS_COEFFS[0]
    for i in range(1, len(_LANCZOS_COEFFS)):
        acc += _LANCZOS_COEFFS[i] / (zm1 + i)
    t = zm1 + _LANCZOS_G + 0.5
    return _SQRT_2PI * t ** (zm1 + 0.5) * cmath.exp(-t) * acc


def gamma_cx(z):
    """Gamma(z) for complex z, reflection formula for Re z < 1/2."""
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise GammaPoleError(f"Gamma pole at z = {z}")
    if z.real >= 0.5:
        out = _gamma_lanczos_half_plane(z)
    else:
        out = math.pi / (cmath.sin(math.pi * z) * _gamma_lanczos_half_plane(1.0 - z))
    if z.imag == 0.0:
        return complex(out.real, 0.0)
    return out


def _sum_series(name, first_term, step, policy):
    """Sum term_0 + term_1 + ... with term_{n+1} = step(n, term_n).

    Stops after three consecutive terms below rel_tol * |sum|.
    """
    total = first_term
    term = first_term
    small = 0
    for n in range(policy.max_terms):
        term = step(n, term)
        total += term
        if abs(term) <= policy.rel_tol * max(abs(total), 1e-300):
            small += 1
            if small >= 3:
                return total
        else:
            small = 0
    raise SeriesConvergenceError(name, abs(total), policy.max_terms)


def _kummer_series_extended(a, b, z, policy):
    # 80-bit accumulation: the oscillatory series loses ~|z| digits to
    # cancellation, which exceeds 1e-10 in doubles once |z| > ~10
    a = np.clongdouble(a)
    b = np.clongdouble(b)
    z = np.clongdouble(z)
    total = np.clongdouble(1.0)
    term = np.clongdouble(1.0)
    small = 0
    for n in range(policy.max_terms):
        term = term * (a + n) / (b + n) * z / (n + 1)
        total += term
        if abs(term) <= policy.rel_tol * 1e-3 * max(abs(total), 1e-300):
            small += 1
            if small >= 3:
                return complex(total)
        else:
            small = 0
    raise SeriesConvergenceError("kummer_m", abs(total), policy.max_terms)


def kummer_m(a, b, z, policy=DEFAULT_POLICY):
    """Confluent hypergeometric M(a,b,z) = sum (a)_n/(b)_n z^n/n!."""
    a, b, z = complex(a), complex(b), complex(z)
    if _is_nonpositive_integer(b):
        raise ValueError(f"kummer_m: b = {b} is a nonpositive integer")
    if abs(z) > policy.kummer_threshold and z.real < 0.0:
        # e^z decays, and the transformed series has Re(-z) > 0: no cancellation
        return cmath.exp(z) * kummer_m(b - a, b, -z, policy)
    if abs(z) > 10.0:
        return _kummer_series_extended(a, b, z, policy)

    def step(n, term):
        return term * (a + n) / (b + n) * z / (n + 1)

    return _sum_series("kummer_m", 1.0 + 0.0j, step, policy)


def hyp0f1(b, z, policy=DEFAULT_POLICY):
    """0F1(b, z) = sum 1/(b)_n z^n/n!."""
    b, z = complex(b), complex(z)
    if _is_nonpositive_integer(b):
        raise ValueError(f"hyp0f1: b = {b} is a nonpositive integer")

    def step(n, term):
        return term * z / ((b + n) * (n + 1))

    return _sum_series("hyp0f1", 1.0 + 0.0j, step, policy)


def bessel_f(nu, z, policy=DEFAULT_POLICY):
    """F_nu(z) = sum (-1)^n / (n! Gamma(n+nu+1)) (z/2)^{2n}.

    Entire and even; J_nu(z) = (z/2)^nu F_nu(z).  Real on the real axis.
    """
    if nu <= -1:
        raise ValueError(f"bessel_f requires nu > -1, got {nu}")
    z = complex(z)
    q = -(z * z) / 4.0
    first = 1.0 / gamma_cx(nu + 1.0)

    def step(n, term):
        return term * q / ((n + 1) * (n + 1 + nu))

    out = _sum_series("bessel_f", first, step, policy)
    if z.imag == 0.0:
        return complex(out.real, 0.0)
    return out


def bessel_f_prime(nu, z, policy=DEFAULT_POLICY):
    """d/dz F_nu(z) = -(z/2) F_{nu+1}(z)."""
    z = complex(z)
    return -(z / 2.0) * bessel_f(nu + 1.0, z, policy)


def real_zeros(f, lo, k, step, hi):
    """First k zeros of the real function f on (lo, hi], in increasing order.

    Scans x = lo + step, lo + 2 step, ... (accumulated as x += step) for sign
    changes, then bisects each bracket to an absolute width of 1e-12 (or to
    adjacent doubles).  Raises BracketingError when the scan passes hi with
    fewer than k zeros.
    """
    brackets = []  # (left, right, f(left)); an exact zero x is (x, x, 0.0)
    x_prev, f_prev = lo, f(lo)
    x = lo
    while len(brackets) < k:
        x += step
        if x > hi:
            raise BracketingError(
                f"window ({lo:.6g}, {hi:.6g}] holds {len(brackets)} of {k} zeros"
            )
        fx = f(x)
        if f_prev * fx < 0.0:
            brackets.append((x_prev, x, f_prev))
        elif fx == 0.0:
            brackets.append((x, x, fx))
        x_prev, f_prev = x, fx
    zeros = []
    for left, right, f_left in brackets:
        while right - left > 1e-12:
            mid = 0.5 * (left + right)
            if not left < mid < right:
                break
            f_mid = f(mid)
            if f_left * f_mid <= 0.0:
                right = mid
            else:
                left, f_left = mid, f_mid
        zeros.append(0.5 * (left + right))
    return zeros


def bessel_zero(nu, k, policy=DEFAULT_POLICY):
    """k-th positive zero of F_nu (equivalently of J_nu), k >= 1.

    real_zeros with step pi/4 (zero spacing tends to pi) on a window of 16
    times the expected position of the k-th zero.
    """
    if nu <= -1:
        raise ValueError(f"bessel_zero requires nu > -1, got {nu}")
    if k < 1:
        raise ValueError("k must be >= 1")
    window = max(20.0, (k + max(nu, 0.0) / 2.0) * math.pi + 10.0)
    return real_zeros(lambda x: bessel_f(nu, x, policy).real,
                      0.0, k, math.pi / 4.0, 16 * window)[-1]


def sine_ratio(u):
    """sin(u)/u, series branch near 0; accepts complex u."""
    u = complex(u)
    if abs(u) < 1e-6:
        u2 = u * u
        return 1.0 - u2 / 6.0 + u2 * u2 / 120.0
    return cmath.sin(u) / u
