import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdlab import measures
from cdlab.measures import (
    AcPiece,
    AtomAtPointError,
    LocalScalingError,
    Measure,
    RegVarFn,
    asymptotic_inverse,
    cauchy_transform,
    gallery,
    gallery_names,
    local_scaling,
    mass,
)
from cdlab.oprl import stieltjes_coeffs


def test_measure_validation():
    with pytest.raises(ValueError):
        Measure(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        Measure(np.array([0.0]), np.array([-1.0]))
    with pytest.raises(ValueError):
        AcPiece(0.0, 1.0, lambda x: x, singular_exponents=(-1.5, 0.0))


@pytest.mark.parametrize("positions, masses, cause", [
    # a NaN mass passed the positivity check, and the coefficients came out finite
    ([0.0, 0.5, 1.0], [1.0, np.nan, 1.0], "masses must be finite"),
    ([0.0, 0.5, 1.0], [1.0, np.inf, 1.0], "masses must be finite"),
    ([0.0, 0.5, 1.0], [1.0, -np.inf, 1.0], "masses must be finite"),
    ([0.0, 0.5, np.inf], [1.0, 1.0, 1.0], "positions must be finite"),
    ([-np.inf, 0.5, 1.0], [1.0, 1.0, 1.0], "positions must be finite"),
    ([0.0, np.nan, 1.0], [1.0, 1.0, 1.0], "positions must be finite"),
])
def test_measure_rejects_non_finite_atoms(positions, masses, cause):
    with pytest.raises(ValueError, match=cause):
        Measure(np.array(positions), np.array(masses))


@pytest.mark.parametrize("a, b", [(0.0, np.inf), (-np.inf, 0.0), (0.0, np.nan)])
def test_ac_piece_rejects_non_finite_endpoints(a, b):
    # [0, inf) used to end in SupportTooSmallError, "support has 0 points"
    with pytest.raises(ValueError, match="endpoints must be finite"):
        AcPiece(a, b, lambda x: np.exp(-x))


@pytest.mark.parametrize("density", [lambda x: np.full_like(x, np.nan),
                                     lambda x: np.where(x > 0.5, np.inf, 1.0)],
                         ids=["nan", "inf"])
def test_discretize_rejects_non_finite_weights(density):
    mu = Measure(pieces=(AcPiece(0.0, 1.0, density),))
    with pytest.raises(ValueError, match="non-finite weights"):
        stieltjes_coeffs(mu, 2)


def test_gallery_names_and_unknown():
    assert "legendre" in gallery_names()
    with pytest.raises(ValueError):
        gallery("no_such_measure")


@pytest.mark.parametrize("name, params, message", [
    ("legendre", {"cutoff": 5}, r"'legendre' takes \[\], not \['cutoff'\]"),
    ("jump", {"sigma": 1.0}, r"takes \['sigma_minus', 'sigma_plus'\], not \['sigma'\]"),
    ("pure_point_bulk", {"cutoff": 0}, "cutoff must be an integer >= 1"),
    ("pure_point_bulk", {"cutoff": 2.5}, "cutoff must be an integer >= 1"),
    ("power_hard_edge", {"beta": math.inf}, "beta must be finite, got inf"),
    ("power_hard_edge", {"beta": math.nan}, "beta must be finite, got nan"),
    ("even_fh", {"beta": math.inf}, "beta must be finite, got inf"),
    ("jump", {"sigma_plus": math.inf}, "sigma_plus must be finite, got inf"),
    ("jump", {"sigma_minus": math.nan}, "sigma_minus must be finite, got nan"),
])
def test_gallery_parameter_errors_are_value_errors(name, params, message):
    # an unknown key raised the builder's bare TypeError; cutoff 0 built an empty
    # measure; an infinite beta or sigma crashed the quadrature, and a NaN sigma_minus
    # was read as 0
    with pytest.raises(ValueError, match=message):
        gallery(name, **params)


def test_mass_pure_point_staircase():
    # mu([0, eps)) = 1/(n+1) - truncation for 1/(n+1) < eps <= 1/n
    mu = gallery("pure_point_bulk", cutoff=1000)
    tail = 1.0 / 1001.0
    for n, eps in ((3, 0.3), (9, 0.105), (1, 1.0)):
        expected = 1.0 / (n + 1) - tail
        assert abs(mass(mu, 0.0, eps) - expected) <= 1e-14


def test_mass_lebesgue_and_power():
    assert abs(mass(gallery("legendre"), 0.0, 0.25) - 0.25 / 2.0) <= 1e-12
    # weight 1 on [-1,1] normalized to 1/2 -> [0, 0.25) has mass 0.125;
    # the spec's Lebesgue-weight example uses weight 1:
    mu = Measure(pieces=(AcPiece(-1.0, 1.0, lambda x: np.ones_like(x)),))
    assert abs(mass(mu, 0.0, 0.25) - 0.25) <= 1e-12
    mu2 = gallery("power_hard_edge", beta=2.0)
    assert abs(mass(mu2, 0.0, 0.3) - 0.09) <= 1e-12


def test_mass_half_open_convention():
    mu = Measure(np.array([0.0, 0.5]), np.array([1.0, 2.0]))
    assert mass(mu, 0.0, 0.5) == 1.0   # atom at a counted, at b not
    assert mass(mu, 0.0, 0.51) == 3.0
    assert mass(mu, -1.0, 0.0) == 0.0


@settings(max_examples=30, deadline=None)
@given(pts=st.lists(st.floats(-0.95, 0.95), min_size=3, max_size=3, unique=True))
def test_mass_additivity(pts):
    a, b, c = sorted(pts)
    mu = gallery("chebyshev")
    lhs = mass(mu, a, b) + mass(mu, b, c)
    assert abs(lhs - mass(mu, a, c)) <= 1e-12


def test_local_scaling_flat_weight():
    est = local_scaling(gallery("legendre"), 0.0, np.logspace(0.7, 4.0, 30))
    assert abs(est.beta_hat - 1.0) <= 0.01
    assert abs(est.sigma_minus_hat - 0.5) <= 0.01
    assert abs(est.sigma_plus_hat - 0.5) <= 0.01


def test_local_scaling_abs_weight():
    w = lambda x: 2.0 * np.abs(x)
    mu = Measure(pieces=(AcPiece(-1.0, 0.0, w, (0.0, 1.0)),
                         AcPiece(0.0, 1.0, w, (1.0, 0.0))))
    est = local_scaling(mu, 0.0, np.logspace(0.7, 4.0, 30))
    assert abs(est.beta_hat - 2.0) <= 0.02
    assert abs(est.sigma_minus_hat - 1.0) <= 0.01
    assert abs(est.sigma_plus_hat - 1.0) <= 0.01


def test_local_scaling_pure_point():
    # cutoff far above the top scale so truncation does not pollute the fit
    mu = gallery("pure_point_bulk", cutoff=1000000)
    est = local_scaling(mu, 0.0, np.logspace(1.0, 4.0, 30))
    assert abs(est.beta_hat - 1.0) <= 0.01
    assert abs(est.sigma_minus_hat - 1.0) <= 0.05
    assert abs(est.sigma_plus_hat - 1.0) <= 0.05


def test_local_scaling_recovers_power_family():
    r_grid = np.logspace(0.6, 4.0, 30)
    for beta in (0.5, 1.0, 2.0):
        for sig in (0.5, 1.0, 2.0):
            w = lambda x, s=sig, b=beta: s * b * np.abs(x) ** (b - 1.0)
            mu = Measure(pieces=(
                AcPiece(-1.0, 0.0, w, (0.0, beta - 1.0)),
                AcPiece(0.0, 1.0, w, (beta - 1.0, 0.0)),
            ))
            est = local_scaling(mu, 0.0, r_grid)
            assert abs(est.beta_hat / beta - 1.0) <= 0.01
            assert abs(est.sigma_plus_hat / sig - 1.0) <= 0.01
            assert abs(est.sigma_minus_hat / sig - 1.0) <= 0.01


def test_local_scaling_errors():
    mu = Measure(np.array([0.0]), np.array([1.0]))
    with pytest.raises(AtomAtPointError):
        local_scaling(mu, 0.0, np.logspace(1, 4, 10))
    lonely = Measure(np.array([5.0]), np.array([1.0]))
    with pytest.raises(LocalScalingError):
        local_scaling(lonely, 0.0, np.logspace(1, 4, 10))


def test_asymptotic_inverse_powers():
    g = RegVarFn(scale=1.0, index=2.0)
    h = asymptotic_inverse(g)
    assert abs(h(g(10.0)) / 10.0 - 1.0) <= 1e-9
    g2 = RegVarFn(scale=2.0, index=1.0)
    h2 = asymptotic_inverse(g2)
    assert abs(h2(7.0) - 3.5) <= 1e-12
    for t in (1e3, 1e6, 1e9):
        assert abs(g(h(t)) / t - 1.0) <= 1e-6


def test_asymptotic_inverse_requires_positive_index():
    with pytest.raises(ValueError):
        asymptotic_inverse(RegVarFn(scale=1.0, index=-1.0))


def test_cauchy_transform_atom():
    mu = Measure(np.array([0.0]), np.array([1.0]))
    assert abs(cauchy_transform(mu, 1j) - 1j) <= 1e-15


def test_cauchy_transform_total_mass_asymptotics():
    mu = gallery("legendre")
    y = 1e3
    val = cauchy_transform(mu, 1j * y) * 1j * y
    assert abs(val + 1.0) <= 1e-3


def test_cauchy_herglotz_symmetry():
    mu = gallery("chebyshev")
    z = 0.3 + 0.7j
    assert abs(cauchy_transform(mu, z.conjugate())
               - cauchy_transform(mu, z).conjugate()) <= 1e-12


def test_cauchy_maps_upper_half_plane():
    rng = np.random.default_rng(5)
    for name in ("legendre", "chebyshev", "power_hard_edge", "even_fh", "jump"):
        mu = gallery(name)
        for _ in range(20):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.02, 3.0))
            assert cauchy_transform(mu, z).imag >= -1e-12


def test_cauchy_requires_nonreal():
    with pytest.raises(ValueError):
        cauchy_transform(gallery("legendre"), 0.5)


def test_gallery_masses():
    assert abs(gallery("legendre").total_mass - 1.0) <= 1e-12
    assert abs(gallery("chebyshev").total_mass - 1.0) <= 1e-10
    assert abs(gallery("even_fh", beta=1.5).total_mass - 1.0) <= 1e-12
    mu = gallery("pure_point_bulk", cutoff=100)
    assert mu.total_mass <= 2.0
    assert abs(mu.total_mass - 2.0 * (1.0 - 1.0 / 101.0)) <= 1e-14
    assert abs(mass(gallery("power_hard_edge", beta=1.5), 0.0, 0.5) - 0.5 ** 1.5) <= 1e-12


def _legendre_oracle(mpmath, n, x):
    """The node of P_n nearest x and its weight, by Newton in mpmath."""
    def evaluate(t):
        p0, p1 = mpmath.mpf(1), t
        for k in range(1, n):
            p0, p1 = p1, ((2 * k + 1) * t * p1 - k * p0) / (k + 1)
        return p1, n * (t * p1 - p0) / (t * t - 1)

    t = mpmath.mpf(float(x))
    for _ in range(3):
        p, dp = evaluate(t)
        t -= p / dp
    _, dp = evaluate(t)
    return t, 2 / ((1 - t * t) * dp * dp)


@pytest.mark.parametrize("n", [64, 411, 814])
def test_leggauss_mpmath_oracle(n):
    # numpy's companion-matrix rule was off by 2.1e-9 relative in the end weight at n = 814
    mpmath = pytest.importorskip("mpmath")
    x, w = measures._leggauss.__wrapped__(n)
    mid = n // 2
    picks = [*range(5), *range(mid - 2, mid + 2), *range(n - 5, n)]
    with mpmath.workdps(40):
        for i in picks:
            node, weight = _legendre_oracle(mpmath, n, x[i])
            assert abs(mpmath.mpf(x[i]) - node) <= 1e-16, (n, i)
            assert abs(mpmath.mpf(w[i]) / weight - 1) <= 1e-11, (n, i)


@pytest.mark.parametrize("n", [1, 2, 3, 32, 411, 814])
def test_leggauss_mirror_exact(n):
    x, w = measures._leggauss(n)
    assert x.shape == w.shape == (n,)
    assert np.all(np.diff(x) > 0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    if n % 2:
        assert x[n // 2] == 0.0 and not np.signbit(x[n // 2])
    assert abs(w.sum() - 2.0) <= 1e-14


def test_leggauss_small_and_invalid_sizes():
    x, w = measures._leggauss(1)
    assert x.tolist() == [0.0] and w.tolist() == [2.0]
    for n in (0, -3):
        with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
            measures._leggauss.__wrapped__(n)


def test_leggauss_memory_is_linear():
    # the companion matrix of an eigensolve alone is 32 MB at n = 2000
    tracemalloc.start()
    try:
        measures._leggauss.__wrapped__(2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_legendre_discretization_folds():
    # the mirror-exact rule keeps the discretization of a symmetric measure
    # symmetric bit for bit, so stieltjes_coeffs folds it and b is exactly 0
    rec = stieltjes_coeffs(gallery("legendre"), 200)
    assert np.all(rec.b == 0.0)
    k = np.arange(1, 201)
    assert np.max(np.abs(rec.a - k / np.sqrt(4.0 * k * k - 1.0))) <= 1e-13


def test_total_mass_is_a_float():
    for name in ("legendre", "jump", "pure_point_bulk"):
        assert type(gallery(name).total_mass) is float
