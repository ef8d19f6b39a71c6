import cmath
import math
import re

import numpy as np
import pytest

from cdlab.measures import RegVarFn
from cdlab.oprl import KernelOverflowError
from cdlab.opuc import (
    VerblunskyCoeffs,
    _chain_kernel,
    cd_kernel_circle,
    kernel_diag_circle,
    opuc_canonical_kernel,
    opuc_interp_kernel,
    rescaled_cd_circle,
    szego_eval,
)


@pytest.fixture(scope="module")
def alphas():
    rng = np.random.default_rng(17)
    return VerblunskyCoeffs(rng.uniform(-0.5, 0.5, 41) + 1j * rng.uniform(-0.5, 0.5, 41))


@pytest.mark.parametrize("alpha", [[0.3, 1.0], [math.nan, 0.1], [0.1, complex(0.0, math.inf)]])
def test_modulus_bound(alpha):
    # a NaN passed the |alpha| >= 1 test
    with pytest.raises(ValueError, match="must be finite with"):
        VerblunskyCoeffs(np.array(alpha))


def test_free_coefficients_powers():
    v = VerblunskyCoeffs.free(6)
    z = 0.3 + 0.4j
    phi, phi_star = szego_eval(v, 6, z)
    psi, _ = szego_eval(VerblunskyCoeffs(-v.alpha), 6, z)  # second kind
    for n in range(7):
        assert abs(phi[n] - z ** n) <= 1e-14
        assert abs(phi_star[n] - 1.0) <= 1e-14
        assert abs(psi[n] - z ** n) <= 1e-14


def test_reflection_identity(alphas):
    z = 0.4 + 0.3j
    _, phi_star = szego_eval(alphas, 7, z)
    phi_ref, _ = szego_eval(alphas, 7, 1.0 / np.conj(z))
    lhs = phi_star[7]
    rhs = z ** 7 * np.conj(phi_ref[7])
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_modulus_identity_on_circle(alphas):
    zeta = cmath.exp(0.77j)
    phi, phi_star = szego_eval(alphas, 20, zeta)
    for n in range(21):
        assert abs(abs(phi_star[n]) - abs(phi[n])) <= 1e-12 * abs(phi[n])


def test_cd_circle_free():
    v = VerblunskyCoeffs.free(12)
    assert abs(cd_kernel_circle(v, 7, 1.0, 1.0) - 7.0) <= 1e-12
    zeta, omega = cmath.exp(0.1j), cmath.exp(-0.2j)
    q = zeta * np.conj(omega)
    geo = (1.0 - q ** 9) / (1.0 - q)
    assert abs(cd_kernel_circle(v, 9, zeta, omega) - geo) <= 1e-12


def test_cd_circle_methods_agree(alphas):
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(1, 41))
        zeta = cmath.exp(1j * rng.uniform(-3, 3)) * rng.uniform(0.7, 1.3)
        omega = cmath.exp(1j * rng.uniform(-3, 3)) * rng.uniform(0.7, 1.3)
        a = cd_kernel_circle(alphas, n, zeta, omega, method="sum")
        b = cd_kernel_circle(alphas, n, zeta, omega, method="cd_formula")
        assert abs(a - b) <= 1e-10 * max(abs(a), 1e-300)


def test_cd_circle_confluent_branch(alphas):
    zeta = cmath.exp(0.31j)
    direct = cd_kernel_circle(alphas, 15, zeta, zeta, method="sum").real
    formula = cd_kernel_circle(alphas, 15, zeta, zeta, method="cd_formula").real
    assert abs(direct - formula) <= 1e-10 * direct


def test_diag_monotone(alphas):
    vals = [kernel_diag_circle(alphas, n, 0.3) for n in range(1, 30)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("xi", [math.nan, math.inf, -math.inf])
def test_kernel_diag_circle_rejects_non_finite_xi(alphas, xi):
    # returned nan, where oprl.kernel_diag raises on a NaN xi
    with pytest.raises(ValueError, match="xi must be finite"):
        kernel_diag_circle(alphas, 5, xi)


@pytest.mark.parametrize("fn", [kernel_diag_circle, szego_eval])
def test_opuc_level_takes_an_integral_float(alphas, fn):
    # a float level raised numpy's bare TypeError
    got, want = fn(alphas, 3.0, 0.3), fn(alphas, 3, 0.3)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("fn", [kernel_diag_circle, szego_eval])
@pytest.mark.parametrize("n", [2.5, -1])
def test_opuc_level_names_a_fractional_or_negative_n(fn, n):
    with pytest.raises(ValueError, match=re.escape(f"n must be an integer >= 0, got {n}")):
        fn(VerblunskyCoeffs.free(10), n, 0.3)


def test_rescaled_cd_circle_normalization(alphas):
    h = RegVarFn(scale=1.0 / (2 * math.pi), index=1.0)
    s = rescaled_cd_circle(alphas, 0.2, h, 30, [(0.0, 0.0)])
    assert abs(s[0].value - 1.0) <= 1e-12


def test_rescaled_cd_circle_dirichlet():
    v = VerblunskyCoeffs.free(10000)
    h = RegVarFn(scale=1.0 / (2 * math.pi), index=1.0)
    s = rescaled_cd_circle(v, 0.0, h, 10000, [(0.5, 0.0)])
    target = math.sin(math.pi * 0.5) / (math.pi * 0.5)
    assert abs(s[0].value - target) <= 1e-3


def test_rescaled_cd_circle_hermitian(alphas):
    h = RegVarFn(scale=1.0 / (2 * math.pi), index=1.0)
    grid = [(0.4 + 0.2j, -0.1 + 0.3j), (-0.1 + 0.3j, 0.4 + 0.2j)]
    s = rescaled_cd_circle(alphas, 0.0, h, 25, grid)
    assert abs(s[0].value - s[1].value.conjugate()) <= 1e-12



def test_rescaled_cd_circle_takes_an_integral_float_level(alphas):
    h = RegVarFn(scale=1.0 / (2 * math.pi), index=1.0)
    grid = [(0.4 + 0.2j, -0.1 + 0.3j), (0.0, 0.0)]
    as_int = rescaled_cd_circle(alphas, 0.3, h, 25, grid)
    as_float = rescaled_cd_circle(alphas, 0.3, h, 25.0, grid)
    assert [s.value for s in as_float] == [s.value for s in as_int]


@pytest.mark.parametrize("n", [5.5, math.nan, math.inf])
def test_rescaled_cd_circle_names_a_fractional_level(n):
    # a float level raised numpy's bare TypeError
    with pytest.raises(ValueError, match="opuc_canonical_kernel"):
        rescaled_cd_circle(VerblunskyCoeffs.free(10), 0.0, RegVarFn(), n, [(0.0, 0.0)])

def test_canonical_kernel_s_consistency(alphas):
    # level n at s = 1 and level n + 1 at s = 0 run different Szego chains
    rng = np.random.default_rng(9)
    for _ in range(8):
        n = int(rng.integers(0, 20))
        z = complex(rng.uniform(-2, 2), rng.uniform(-0.5, 0.5))
        w = complex(rng.uniform(-2, 2), rng.uniform(-0.5, 0.5))
        a = _chain_kernel(alphas, n, 1.0, z, w)
        b = _chain_kernel(alphas, n + 1, 0.0, z, w)
        assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)


def test_canonical_kernel_interpolation(alphas):
    # sin-ratio interpolation identity at s = 0.37 and other interior values
    rng = np.random.default_rng(10)
    for s in (0.1, 0.37, 0.5, 0.73, 0.9):
        for _ in range(4):
            n = int(rng.integers(1, 20))
            z = complex(rng.uniform(-2, 2), rng.uniform(-0.5, 0.5))
            w = complex(rng.uniform(-2, 2), rng.uniform(-0.5, 0.5))
            a = opuc_canonical_kernel(alphas, n + s, z, w)
            b = opuc_interp_kernel(alphas, n + s, z, w)
            assert abs(a - b) <= 1e-10 * max(abs(a), 1.0)


def test_canonical_kernel_diag_positive():
    v = VerblunskyCoeffs.free(30)
    for t in (3.0, 7.5, 12.37):
        val = opuc_canonical_kernel(v, t, 0.4, 0.4)
        assert abs(val.imag) <= 1e-12 * abs(val)
        assert val.real > 0
        # free case closed form sin((n+s)u/2)/u -> (n+s)/2 on the diagonal
        assert abs(val.real - t / 2.0) <= 1e-10 * t


def test_circle_gram_positivity(alphas):
    rng = np.random.default_rng(23)
    pts = [cmath.exp(1j * t) * r for t, r in
           zip(rng.uniform(-3, 3, 6), rng.uniform(0.9, 1.1, 6))]
    gram = np.array([[cd_kernel_circle(alphas, 12, zi, zj) for zj in pts]
                     for zi in pts])
    evals = np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)
    assert evals[0] >= -1e-8 * np.trace(gram).real


def test_rescaled_free_rate_bound():
    # closed-form Dirichlet rate: sup error <= 10/n on |Re| <= 2 real grids
    h = RegVarFn(scale=1.0 / (2 * math.pi), index=1.0)
    ax = np.linspace(-2.0, 2.0, 9)
    grid = [(complex(x), complex(y)) for x in ax for y in ax]
    for n in (1000, 10000):
        v = VerblunskyCoeffs.free(n)
        samples = rescaled_cd_circle(v, 0.0, h, n, grid)
        sup = max(abs(s.value - math.sin(math.pi * (s.z - s.w).real)
                      / (math.pi * (s.z - s.w).real))
                  if s.z != s.w else abs(s.value - 1.0) for s in samples)
        assert sup <= 10.0 / n


@pytest.mark.parametrize("kernel", [
    lambda v: cd_kernel_circle(v, 6, 0.3, 0.5),
    lambda v: rescaled_cd_circle(v, 0.0, RegVarFn(), 6, [(0.0, 0.0)]),
    lambda v: opuc_canonical_kernel(v, 6.0, 0.3, 0.5),
])
def test_level_beyond_the_coefficients_is_a_value_error(kernel):
    # the szego_eval error, not a bare IndexError, at n = len(v) + 1
    with pytest.raises(ValueError, match="n = 6 exceeds the top level 5"):
        kernel(VerblunskyCoeffs.free(5))


@pytest.mark.parametrize("method", ["cd_formula", "sum"])
def test_cd_kernel_circle_overflow_is_typed(method):
    # phi_n(2) = 2^n: k_2000(2, 2) is ~1e1204, which came back as nan+nanj
    v = VerblunskyCoeffs.free(5000)
    assert cmath.isfinite(cd_kernel_circle(v, 200, 2.0, 2.0, method=method))
    with pytest.raises(KernelOverflowError) as exc:
        cd_kernel_circle(v, 2000, 2.0, 2.0, method=method)
    assert (exc.value.index, exc.value.xi, exc.value.w) == (2000, 2.0, 2.0)


def test_opuc_canonical_kernel_overflow_is_typed():
    # e^{-i n z / 2} at z = i is e^{1000}: this raised a bare OverflowError
    v = VerblunskyCoeffs.free(5000)
    assert cmath.isfinite(opuc_canonical_kernel(v, 200.0, 1j, 1j))
    with pytest.raises(KernelOverflowError) as exc:
        opuc_canonical_kernel(v, 2000.0, 1j, 1j)
    assert (exc.value.index, exc.value.xi, exc.value.w) == (2000.0, 1j, 1j)
