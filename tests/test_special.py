import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdlab.special import (
    BracketingError,
    GammaPoleError,
    SeriesConvergenceError,
    SeriesPolicy,
    bessel_f,
    bessel_zero,
    gamma_cx,
    hyp0f1,
    kummer_m,
    real_zeros,
)

SQRT_PI = 1.7724538509055159


def test_policy_validation():
    with pytest.raises(ValueError):
        SeriesPolicy(rel_tol=0.0)
    with pytest.raises(ValueError):
        SeriesPolicy(max_terms=8)


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
    # doubling max_terms and tightening rel_tol must not move the value
    a, b, z = 0.25 + 0.11j, 1.5, -2j
    loose = kummer_m(a, b, z, SeriesPolicy(rel_tol=1e-14, max_terms=2000))
    tight = kummer_m(a, b, z, SeriesPolicy(rel_tol=1e-16, max_terms=4000))
    assert abs(loose - tight) <= 1e-13


def test_kummer_transform_branch():
    # force the transform branch at moderate |z| (where the direct alternating
    # series is still trustworthy) and compare the two routes
    a, b, z = 0.3, 1.7, -15.0
    direct = kummer_m(a, b, z)  # default threshold 40: raw series
    via_transform = kummer_m(a, b, z, SeriesPolicy(kummer_threshold=10.0))
    assert abs(direct - via_transform) <= 1e-8 * (1.0 + abs(direct))
    # and for |z| > 40 the transform keeps the magnitude sane
    big = kummer_m(a, b, -60.0)
    assert abs(big) < 1.0


def test_kummer_nonconvergence_reports_partial_sum():
    with pytest.raises(SeriesConvergenceError) as exc:
        kummer_m(1.0, 2.0, 500.0, SeriesPolicy(max_terms=16, kummer_threshold=1e9))
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


def test_bessel_zero_half_order():
    for k in (1, 2, 3):
        assert abs(bessel_zero(0.5, k) - k * math.pi) <= 1e-10
    assert abs(bessel_zero(-0.5, 1) - math.pi / 2.0) <= 1e-10


def test_bessel_zero_j0():
    # frozen: bisection at tightened tolerance on the truncated series
    assert abs(bessel_zero(0.0, 1) - 2.404825557695773) <= 1e-10


def test_bessel_zero_increasing_and_sign_change():
    zeros = [bessel_zero(1.3, k) for k in range(1, 6)]
    assert all(b - a > 1.0 for a, b in zip(zeros, zeros[1:]))
    for z in zeros:
        lo = bessel_f(1.3, z - 1e-6).real
        hi = bessel_f(1.3, z + 1e-6).real
        assert lo * hi < 0


def test_bessel_zero_bad_order():
    with pytest.raises(ValueError):
        bessel_zero(-1.5, 1)


def test_real_zeros_exact_zero_adjacent_doubles_and_window():
    # an exact zero on a scan point is returned as is
    assert real_zeros(lambda x: x - 2.0, 0.0, 1, 0.5, 10.0) == [2.0]
    # near 1e4 the spacing of doubles exceeds 1e-12: bisection stops there
    (z,) = real_zeros(lambda x: x - 10000.3, 0.0, 1, 1.0, 2e4)
    assert abs(z - 10000.3) <= 1e-11
    with pytest.raises(BracketingError, match="1 of 2 zeros"):
        real_zeros(math.sin, 1.0, 2, 0.25, 5.0)


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
