"""Complex-capable special functions: Gamma, Kummer M, 0F1, factored Bessel
F_nu, and the zeros of J_nu.

The functions are plain power series with a relative-term stopping rule, plus
a Lanczos-type rational approximation for Gamma; the Bessel zeros are the
reciprocal eigenvalues of one symmetric tridiagonal matrix.  These are the only
transcendental building blocks the limit kernels and zero laws need; no
asymptotic expansions, no arbitrary precision.

The series rules are fixed module constants.  A series that does not
converge raises SeriesConvergenceError.  Every series also estimates its
cancellation error and raises the subclass SeriesPrecisionError beyond it: the
double series (hyp0f1, bessel_f, kummer_m for |z| <= 10) when the absolute
estimate eps * max|term| exceeds _MAX_ABS_ERROR, the 80-bit Kummer series on
overflow or a relative estimate beyond _MAX_REL_ERROR.  gamma_cx raises
GammaOverflowError outside the normal double range.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

__all__ = [
    "SeriesConvergenceError",
    "SeriesPrecisionError",
    "GammaPoleError",
    "GammaOverflowError",
    "gamma_cx",
    "kummer_m",
    "hyp0f1",
    "bessel_f",
    "bessel_f_prime",
    "bessel_zero",
    "bessel_zeros",
    "sine_ratio",
]

# Series truncation.  A term is "small" when |term| <= _REL_TOL * |partial
# sum|; summation stops after three consecutive small terms (guards against a
# single term that happens to vanish) and fails after _MAX_TERMS terms.
# _KUMMER_THRESHOLD is the |z| above which the Kummer transform
# M(a,b,z) = e^z M(b-a,b,-z) is used when it reduces cancellation (Re z < 0);
# 40 keeps the cancellation below ~1e-12 in double precision.
_REL_TOL = 1e-14
_MAX_TERMS = 2000
_KUMMER_THRESHOLD = 40.0
# Largest accepted error estimate u * max|term| / |sum| of the 80-bit Kummer
# series (u its unit roundoff; within a factor 4 of the true error from 1e-14
# to 1e-5).
_MAX_REL_ERROR = 1e-6
_LONGDOUBLE_ROUNDOFF = np.finfo(np.longdouble).eps / 2
# Largest accepted absolute error estimate eps * max|term| of the double
# series.  It is absolute, not relative: where the sum vanishes (at a zero of
# F_nu, say) the relative form is unbounded.
_MAX_ABS_ERROR = 1e-6
_DOUBLE_ROUNDOFF = sys.float_info.epsilon
# Rows of the Bessel-zero eigenproblem, and the most zeros it serves: against
# mpmath, for orders -0.75 <= nu <= 10, every zero with k <= 30 is within 4e-15
# relative at 128 rows; at 64 rows only those with k <= 12 are.
_BESSEL_ROWS = 128
_BESSEL_MAX_ROWS = 1024
_MAX_BESSEL_ZEROS = 30


class SeriesConvergenceError(RuntimeError):
    """Series did not meet the stopping rule within _MAX_TERMS terms."""

    def __init__(self, name, partial_sum_magnitude,
                 cause=f"no convergence after {_MAX_TERMS} terms"):
        self.partial_sum_magnitude = float(partial_sum_magnitude)
        super().__init__(f"{name}: {cause} (|partial sum| = {partial_sum_magnitude:.3e})")


class SeriesPrecisionError(SeriesConvergenceError):
    """Series converged, but its double value is not finite or its estimated
    error exceeds _MAX_ABS_ERROR (double series) or _MAX_REL_ERROR (80-bit
    Kummer series)."""


class GammaPoleError(ValueError):
    """Gamma evaluated at a nonpositive integer."""


class GammaOverflowError(OverflowError):
    """Gamma (or a power of it) is outside the double range."""


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
    try:
        out = _SQRT_2PI * t ** (zm1 + 0.5) * cmath.exp(-t) * acc
    except OverflowError:
        out = cmath.inf
    if cmath.isfinite(out):
        return out
    # t^(z-1/2) alone overflows from Re z ~ 142.6 on, while Gamma stays finite
    # up to ~171.6: apply it in two halves around e^-t (5x more accurate than
    # exp((z-1/2) log t - t))
    half = t ** ((zm1 + 0.5) / 2.0)
    return _SQRT_2PI * half * cmath.exp(-t) * half * acc


def gamma_cx(z):
    """Gamma(z) for complex z, reflection formula for Re z < 1/2.

    Raises GammaOverflowError when |Gamma(z)| is outside the normal double
    range, below ~2.2e-308 or above ~1.8e308.
    """
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise GammaPoleError(f"Gamma pole at z = {z}")
    try:
        if z.real >= 0.5:
            out = _gamma_lanczos_half_plane(z)
        elif abs(z.imag) < 226.0:
            out = math.pi / (cmath.sin(math.pi * z) * _gamma_lanczos_half_plane(1.0 - z))
        else:
            # sin(pi z) overflows from |Im z| ~ 226.1 on, Gamma(z) only from ~452:
            # pi / sin(pi s) = -2 pi i h^2 / (1 - h^4), h = e^(i pi s / 2), Im s > 0
            s = complex(z.real, abs(z.imag))
            h = cmath.exp(0.5j * math.pi * s)
            out = -2j * math.pi * h * (h / _gamma_lanczos_half_plane(1.0 - s)) / (1.0 - h ** 4)
            out = out if z.imag > 0.0 else out.conjugate()
    except (OverflowError, ZeroDivisionError):  # the latter: Gamma(1-s) underflows
        out = cmath.inf
    if not cmath.isfinite(out) or abs(out) < sys.float_info.min:
        raise GammaOverflowError(f"Gamma({z}) is outside the double range")
    return complex(out.real, 0.0) if z.imag == 0.0 else out


def _sum_series(name, first_term, step):
    """Sum term_0 + term_1 + ... with term_{n+1} = step(n, term_n).

    Stops after three consecutive terms below _REL_TOL * |sum|.  Raises
    SeriesPrecisionError when the absolute cancellation estimate
    eps * max|term| exceeds _MAX_ABS_ERROR.
    """
    total = first_term
    term = first_term
    biggest = abs(first_term)
    small = 0
    for n in range(_MAX_TERMS):
        term = step(n, term)
        total += term
        size = abs(term)
        if size > biggest:
            biggest = size
        mag = abs(total)  # max(mag, 1e-300), NaN kept, without a call per term
        if size <= _REL_TOL * (1e-300 if mag < 1e-300 else mag):
            small += 1
            if small >= 3:
                error = _DOUBLE_ROUNDOFF * biggest
                if not error <= _MAX_ABS_ERROR:
                    raise SeriesPrecisionError(name, abs(total), f"value {total} with "
                                               f"estimated absolute error {error:.1e}")
                return total
        else:
            small = 0
    raise SeriesConvergenceError(name, abs(total))


def _kummer_series_extended(a, b, z):
    # 80-bit accumulation: the oscillatory series loses ~|z| digits to
    # cancellation, which exceeds 1e-10 in doubles once |z| > ~10; beyond
    # the 80-bit digits it is rejected by the estimate u * max|term| / |sum|
    a = np.clongdouble(a)
    b = np.clongdouble(b)
    z = np.clongdouble(z)
    total = np.clongdouble(1.0)
    term = np.clongdouble(1.0)
    biggest = np.longdouble(1.0)
    small = 0
    for n in range(_MAX_TERMS):
        term = term * (a + n) / (b + n) * z / (n + 1)
        total += term
        size = abs(term)
        if size > biggest:
            biggest = size
        mag = abs(total)
        if size <= _REL_TOL * 1e-3 * (1e-300 if mag < 1e-300 else mag):
            small += 1
            if small >= 3:
                value = complex(total)
                rel_error = _LONGDOUBLE_ROUNDOFF * biggest / max(abs(total), 1e-300)
                if not cmath.isfinite(value) or rel_error > _MAX_REL_ERROR:
                    raise SeriesPrecisionError("kummer_m", abs(total), f"value {value} with "
                                               f"estimated relative error {rel_error:.1e}")
                return value
        else:
            small = 0
    raise SeriesConvergenceError("kummer_m", abs(total))


def kummer_m(a, b, z):
    """Confluent hypergeometric M(a,b,z) = sum (a)_n/(b)_n z^n/n!."""
    a, b, z = complex(a), complex(b), complex(z)
    if _is_nonpositive_integer(b):
        raise ValueError(f"kummer_m: b = {b} is a nonpositive integer")
    if abs(z) > _KUMMER_THRESHOLD and z.real < 0.0:
        # e^z decays, and the transformed series has Re(-z) > 0: no cancellation
        return cmath.exp(z) * kummer_m(b - a, b, -z)
    if abs(z) > 10.0:
        return _kummer_series_extended(a, b, z)

    def step(n, term):
        return term * (a + n) / (b + n) * z / (n + 1)

    return _sum_series("kummer_m", 1.0 + 0.0j, step)


def hyp0f1(b, z):
    """0F1(b, z) = sum 1/(b)_n z^n/n!."""
    b, z = complex(b), complex(z)
    if _is_nonpositive_integer(b):
        raise ValueError(f"hyp0f1: b = {b} is a nonpositive integer")

    def step(n, term):
        return term * z / ((b + n) * (n + 1))

    return _sum_series("hyp0f1", 1.0 + 0.0j, step)


def bessel_f(nu, z):
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

    out = _sum_series("bessel_f", first, step)
    return complex(out.real, 0.0) if z.imag == 0.0 else out


def bessel_f_prime(nu, z):
    """d/dz F_nu(z) = -(z/2) F_{nu+1}(z)."""
    z = complex(z)
    return -(z / 2.0) * bessel_f(nu + 1.0, z)


def bessel_zeros(nu, k):
    """First k positive zeros of F_nu (equivalently of J_nu), 1 <= k <= 30, in
    increasing order.

    They are 1/lambda for the k largest eigenvalues lambda of one symmetric
    tridiagonal matrix of n rows, with zero diagonal and off-diagonal
    1/(2 sqrt((nu + m)(nu + m + 1))), m = 1..n - 1: the recurrence
    J_{nu+m-1}(x) + J_{nu+m+1}(x) = (2 (nu + m) / x) J_{nu+m}(x), symmetrized
    and cut off (Ikebe, Kikuchi & Fujishiro 1991, J. Comput. Appl. Math. 38).
    n = _BESSEL_ROWS unless the k-th zero z (which only falls as n grows) is
    within 7 z^(1/3) of the cut-off order nu + n; then n grows to leave that
    margin, up to _BESSEL_MAX_ROWS, beyond which a ValueError names nu.  At
    n = _BESSEL_ROWS the matrix does not depend on k, so neither do the bits.
    """
    if not nu > -1:
        raise ValueError(f"bessel_zeros requires nu > -1, got {nu}")
    if not (1 <= k <= _MAX_BESSEL_ZEROS and float(k).is_integer()):
        raise ValueError(f"k must be in [1, {_MAX_BESSEL_ZEROS}] and an integer, got {k}")
    k, rows, last = int(k), _BESSEL_ROWS, 0
    while last < rows and nu <= (_BESSEL_MAX_ROWS / 7.0) ** 3:  # else 7 nu^(1/3) passes the rows
        m = np.arange(1.0, rows) + nu
        off = 0.5 / np.sqrt(m * (m + 1.0))
        zeros = 1.0 / np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))[::-1][:k]
        need = math.ceil(zeros[-1] - nu + 7.0 * np.cbrt(zeros[-1]))
        if need <= rows:
            return zeros.tolist()
        rows, last = min(need, _BESSEL_MAX_ROWS), rows
    raise ValueError(f"nu = {nu} needs over {_BESSEL_MAX_ROWS} rows for {k} Bessel zeros")


def bessel_zero(nu, k):
    """k-th positive zero of F_nu (equivalently of J_nu), 1 <= k <= 30: the
    last of bessel_zeros(nu, k)."""
    return bessel_zeros(nu, k)[-1]


def sine_ratio(u):
    """sin(u)/u, series branch near 0; accepts complex u, and keeps the
    arithmetic of its type (a numpy scalar divides as numpy does)."""
    if abs(u) < 1e-6:
        u2 = u * u
        return 1.0 - u2 / 6.0 + u2 * u2 / 120.0
    return cmath.sin(u) / u
