import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdlab.special import (
    GammaOverflowError,
    GammaPoleError,
    SeriesConvergenceError,
    SeriesPrecisionError,
    bessel_f,
    bessel_zero,
    bessel_zeros,
    gamma_cx,
    hyp0f1,
    kummer_m,
)

SQRT_PI = 1.7724538509055159


def test_gamma_known_values():
    assert abs(gamma_cx(1.0) - 1.0) <= 1e-14
    assert abs(gamma_cx(0.5) - SQRT_PI) <= 1e-12


def test_gamma_recurrence_oracle():
    # recurrence self-consistency at the spec's sample point
    z = 1.0 + 1j * math.log(2.0) / (2.0 * math.pi)
    lhs = gamma_cx(z + 1.0)
    rhs = z * gamma_cx(z)
    assert abs(lhs - rhs) / abs(lhs) <= 1e-13


def test_gamma_pole():
    for z in (0.0, -1.0, -7.0):
        with pytest.raises(GammaPoleError):
            gamma_cx(z)


def test_gamma_large_argument():
    # t^(z-1/2) overflows from Re z ~ 142.6 on, while Gamma stays finite up to
    # ~171.6; math.gamma is the real oracle, the recurrence the complex one
    for x in (142.6, 143.0, 150.0, 160.0, 171.0, 171.6):
        assert abs(gamma_cx(x).real - math.gamma(x)) <= 1e-13 * math.gamma(x)
    z = 150.0 + 3.0j
    assert abs(gamma_cx(z + 1.0) - z * gamma_cx(z)) <= 1e-13 * abs(gamma_cx(z + 1.0))
    for z in (171.7, 200.0, 0.3 + 1000j):
        with pytest.raises(GammaOverflowError):
            gamma_cx(z)


def test_gamma_large_imaginary_part():
    # sin(pi z) in the reflection overflows from |Im z| ~ 226.1 on, while
    # |Gamma(z)| ~ 1e-273 at |Im z| = 400 is a normal double; the recurrence
    # ties the reflection to the Lanczos half plane
    for z in (-0.3 + 400j, -0.3 - 400j, -2.6 + 300j, 0.2 + 226.1j):
        lhs = gamma_cx(z + 1.0)
        assert abs(lhs - z * gamma_cx(z)) <= 1e-12 * abs(lhs)


def test_gamma_reflection_region():
    # left half plane via reflection against recurrence-from-right oracle
    z = -2.3 + 0.7j
    lhs = gamma_cx(z)
    rhs = gamma_cx(z + 3.0) / (z * (z + 1.0) * (z + 2.0))
    assert abs(lhs - rhs) / abs(rhs) <= 1e-12


def test_kummer_exponential_identity():
    z = 0.7
    assert abs(kummer_m(1.0, 2.0, z) - (math.exp(z) - 1.0) / z) <= 1e-14


def test_kummer_zero_a():
    assert kummer_m(0.0, 1.5, 2.3 - 0.4j) == 1.0 + 0.0j


def test_kummer_refinement_oracle():
    # the double series (|z| <= 10) against arbitrary precision
    mpmath = pytest.importorskip("mpmath")
    a, b, z = 0.25 + 0.11j, 1.5, -2j
    exact = complex(mpmath.hyp1f1(a, b, z))
    assert abs(kummer_m(a, b, z) - exact) <= 1e-15 * abs(exact)


def test_kummer_transform_branch():
    # at moderate |z| the 80-bit series and the Kummer transform written out
    # agree; both routes (10 < |z| <= 40, and |z| > 40 with Re z < 0) match
    # arbitrary precision
    mpmath = pytest.importorskip("mpmath")
    a, b, z = 0.3, 1.7, -15.0
    direct = kummer_m(a, b, z)
    via_transform = cmath.exp(z) * kummer_m(b - a, b, -z)
    assert abs(direct - via_transform) <= 1e-8 * (1.0 + abs(direct))
    for z in (-15.0, -60.0):
        exact = complex(mpmath.hyp1f1(a, b, z))
        assert abs(kummer_m(a, b, z) - exact) <= 1e-15 * abs(exact)


def test_kummer_precision_loss_raises():
    # M(-0.11i, 1, 60i) = 1.048 + 0.589i, but the 80-bit series cancels past
    # its digits; M(1, 2, 720) = (e^720 - 1)/720 overflows doubles, and so
    # does the transformed series behind M(1, 2, -750)
    for a, b, z in ((-0.11j, 1.0, 60j), (1.0, 2.0, 720.0), (1.0, 2.0, -750.0)):
        with pytest.raises(SeriesPrecisionError):
            kummer_m(a, b, z)


def test_kummer_nonconvergence_reports_partial_sum():
    with pytest.raises(SeriesConvergenceError) as exc:
        kummer_m(1.0, 2.0, 5000.0)
    assert exc.value.partial_sum_magnitude > 0


def test_hyp0f1_trivial():
    assert hyp0f1(1.0, 0.0) == 1.0 + 0.0j


def test_hyp0f1_bessel_cross_checks():
    # 0F1(beta+1, -sigma z) identities routed through bessel_f
    for beta, x in ((2.0, 2.0), (1.0, math.pi)):
        lhs = hyp0f1(beta + 1.0, -x * x / 4.0)
        rhs = gamma_cx(beta + 1.0).real * bessel_f(beta, x)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


def test_bessel_f_values():
    assert abs(bessel_f(0.0, 0.0) - 1.0) <= 1e-15
    # F_{1/2}(pi) ~ sin(pi) = 0
    assert abs(bessel_f(0.5, math.pi)) <= 1e-12
    x = 2.3
    lhs = bessel_f(1.0, x)
    rhs = hyp0f1(2.0, -x * x / 4.0) / gamma_cx(2.0).real
    assert abs(lhs - rhs) <= 1e-14


def test_bessel_f_even_and_real():
    val = bessel_f(0.7, 1.9)
    assert val.imag == 0.0
    assert abs(bessel_f(0.7, -1.9) - val) <= 1e-15


@pytest.mark.parametrize("f, args", [(hyp0f1, (1.0, -1e4)), (bessel_f, (0.5, 80.0))])
def test_double_series_cancellation_raises(f, args):
    # terms up to ~1e84 and ~1e32 cancel to -0.0154 and -0.0140; the sums
    # came out as 3.2e68 and -2.5e15
    with pytest.raises(SeriesPrecisionError):
        f(*args)


def test_bessel_zero_half_order():
    for k in (1, 2, 3):
        assert abs(bessel_zero(0.5, k) - k * math.pi) <= 1e-10
    assert abs(bessel_zero(-0.5, 1) - math.pi / 2.0) <= 1e-10


def test_bessel_zero_half_order_within_error_contract():
    for k in range(1, 6):
        assert abs(bessel_zero(0.5, k) - k * math.pi) <= 1e-8


def test_bessel_zero_half_order_to_k_20():
    # j_{1/2,k} = k pi; the series scan raised SeriesPrecisionError from k = 6
    for k in range(1, 21):
        assert abs(bessel_zero(0.5, k) - k * math.pi) <= 1e-12


@pytest.mark.parametrize("k", [0, 31, 2.5, math.nan])
def test_bessel_zeros_outside_supported_range_raise(k):
    # a fractional k raised a bare TypeError from the slice
    with pytest.raises(ValueError, match="k must be in"):
        bessel_zeros(0.5, k)


def test_bessel_zeros_takes_an_integral_float_count():
    assert bessel_zeros(0.5, 2.0) == bessel_zeros(0.5, 2)


@pytest.mark.parametrize("nu", [-0.75, -0.25, 0.0, 0.5, 1.0, 1.5, 2.0, 10.0])
def test_bessel_zeros_mpmath_oracle(nu):
    mpmath = pytest.importorskip("mpmath")
    zeros = bessel_zeros(nu, 20)
    with mpmath.workdps(30):
        for k, zero in enumerate(zeros, start=1):
            if nu >= 0:
                exact = mpmath.besseljzero(nu, k)
            else:  # besseljzero takes nu >= 0 only; start from McMahon's estimate
                exact = mpmath.findroot(lambda x: mpmath.besselj(nu, x),
                                        (k + nu / 2.0 - 0.25) * math.pi)
            assert abs(zero - float(exact)) <= 4e-15 * zero, (nu, k)


@pytest.mark.parametrize("nu, k", [(20.0, 1), (20.0, 30), (100.0, 1), (100.0, 30)])
def test_bessel_zeros_large_order_mpmath_oracle(nu, k):
    # 128 rows cut off at an order too near (nu = 20) or below (nu = 100) the
    # 30th zero: 1.2e-12 and 2.4e-3 relative
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        exact = float(mpmath.besseljzero(nu, k))
    assert abs(bessel_zeros(nu, k)[-1] - exact) <= 4e-15 * exact


def test_bessel_zeros_olver_expansion_at_order_1e5():
    # j_{nu,1} ~ nu - a_1 (nu/2)^(1/3) + (3/10) a_1^2 (4 nu)^(-1/3) - 0.00397/nu
    # (Olver; DLMF 10.21.40), a_1 the first zero of Ai; 128 rows gave 100088.31
    a1, nu = -2.338107410459767, 1e5
    olver = nu - a1 * (nu / 2.0) ** (1 / 3) + 0.3 * a1 * a1 * (4.0 * nu) ** (-1 / 3) - 0.00397 / nu
    assert abs(bessel_zeros(nu, 1)[0] - olver) <= 1e-14 * olver


@pytest.mark.parametrize("nu, k", [(1e5, 30), (1e7, 1), (math.inf, 1), (1e300, 3)])
def test_bessel_zeros_beyond_the_largest_matrix_raise(nu, k):
    # 1e5 resolves its first zero in 413 rows but not its 30th in 1024
    with pytest.raises(ValueError, match=re.escape(f"nu = {nu} ")):
        bessel_zeros(nu, k)


def test_bessel_zero_j0():
    # j_{0,1}
    assert abs(bessel_zero(0.0, 1) - 2.404825557695773) <= 1e-10


def test_bessel_zero_increasing_and_sign_change():
    zeros = [bessel_zero(1.3, k) for k in range(1, 6)]
    assert all(b - a > 1.0 for a, b in zip(zeros, zeros[1:]))
    for z in zeros:
        lo = bessel_f(1.3, z - 1e-6).real
        hi = bessel_f(1.3, z + 1e-6).real
        assert lo * hi < 0


@pytest.mark.parametrize("nu", [-0.25, 0.5, 0.75, 1.5])
def test_bessel_zeros_are_the_per_k_zeros(nu):
    # one eigenproblem for all k gives each k-th zero's bits
    assert bessel_zeros(nu, 20) == [bessel_zero(nu, k) for k in range(1, 21)]


def test_bessel_zero_bad_order():
    # a NaN order passed the check and raised numpy's LinAlgError
    for nu in (-1.5, math.nan):
        with pytest.raises(ValueError, match="bessel_zeros requires nu > -1"):
            bessel_zero(nu, 1)


def test_kummer_bessel_identity_grid():
    # |e^{iz} M(nu+1/2,2nu+1,-2iz) - Gamma(nu+1) F_nu(z)| small on a grid
    for nu in (0.0, 0.25, 1.0, 2.5):
        g = gamma_cx(nu + 1.0).real
        for re in np.linspace(-9.5, 9.5, 9):
            for im in (-2.0, 0.0, 2.0):
                z = complex(re, im)
                lhs = cmath.exp(1j * z) * kummer_m(nu + 0.5, 2 * nu + 1.0, -2j * z)
                rhs = g * bessel_f(nu, z)
                assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


def test_averaging_identity_grid():
    for alpha in (0.5, 1.25):
        for re in np.linspace(-9.0, 9.0, 7):
            for im in (-3.0, 0.0, 3.0):
                z = complex(re, im)
                lhs = (kummer_m(alpha, 2 * alpha + 1.0, z)
                       + kummer_m(alpha + 1.0, 2 * alpha + 1.0, z)) / 2.0
                rhs = kummer_m(alpha, 2 * alpha, z)
                assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


@settings(max_examples=40, deadline=None)
@given(
    re=st.floats(-8, 8),
    im=st.floats(-8, 8),
    a=st.floats(0.1, 4.0),
    b=st.floats(0.3, 4.0),
)
def test_conjugation_symmetry(re, im, a, b):
    z = complex(re, im)
    for f in (lambda t: kummer_m(a, b, t),
              lambda t: hyp0f1(b, t),
              lambda t: bessel_f(a - 0.05, t)):
        assert abs(f(z.conjugate()) - f(z).conjugate()) <= 1e-9 * (1 + abs(f(z)))
