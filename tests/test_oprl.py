import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdlab import canonical, oprl, opuc
from cdlab.measures import AcPiece, Measure, RegVarFn, gallery
from cdlab.oprl import (
    KernelOverflowError,
    PositivityLossError,
    RecurrenceCoeffs,
    SupportTooSmallError,
    ZeroDiagonalError,
    _batch_level,
    _count_step,
    _discretize,
    _enclosures,
    _estimates,
    _folded_a,
    _krylov,
    _lanczos,
    _sturm_counts,
    _window_bounds,
    cd_kernel,
    eval_polys,
    interp_kernel,
    kernel_diag,
    nevai_ratio,
    poly_zeros,
    rescaled_cd,
    stieltjes_coeffs,
    zeros_near,
)
from cdlab.opuc import VerblunskyCoeffs, _szego_last_batch, szego_eval


@pytest.fixture(scope="module")
def cheb():
    return stieltjes_coeffs(gallery("chebyshev"), 62)


@pytest.fixture(scope="module")
def leg():
    return stieltjes_coeffs(gallery("legendre"), 210)


def test_rec_validation():
    with pytest.raises(ValueError):
        RecurrenceCoeffs(a=np.array([1.0, -0.5]), b=np.zeros(2))
    with pytest.raises(ValueError):
        RecurrenceCoeffs(a=np.ones(3), b=np.zeros(2))


def test_chebyshev_coefficients(cheb):
    # classical closed form
    assert abs(cheb.a[0] - 1.0 / math.sqrt(2.0)) <= 1e-10
    assert np.max(np.abs(cheb.a[1:] - 0.5)) <= 1e-10
    assert np.max(np.abs(cheb.b)) <= 1e-10


def _chebyshev_a(k):
    return np.where(k == 1, 1.0 / math.sqrt(2.0), 0.5)


def _legendre_a(k):
    return k / np.sqrt(4.0 * k * k - 1.0)


@pytest.mark.parametrize("name, closed_form", [
    ("chebyshev", _chebyshev_a),
    ("legendre", _legendre_a),
])
def test_exact_discretization_matches_closed_form(name, closed_form):
    # the exact node rule reproduces the classical coefficients at config size
    rec = stieltjes_coeffs(gallery(name), 201)
    expected = closed_form(np.arange(1, 202))
    assert np.max(np.abs(rec.a - expected) / expected) <= 1e-11
    assert np.max(np.abs(rec.b)) <= 1e-11


def test_legendre_coefficients(leg):
    n = np.arange(1, len(leg) + 1)
    assert np.max(np.abs(leg.a - n / np.sqrt(4.0 * n * n - 1.0))) <= 1e-9
    assert np.max(np.abs(leg.b)) <= 1e-10


def test_single_atom_support_too_small():
    mu = Measure(np.array([0.5]), np.array([1.0]))
    with pytest.raises(SupportTooSmallError):
        stieltjes_coeffs(mu, 1)


@pytest.mark.parametrize("scale", [1.0, 1e-12, 1e-15])
def test_stieltjes_tiny_support_scales(scale):
    # the Lanczos breakdown test is relative to the scale of the nodes
    positions = np.array([-1.0, -0.3, 0.2, 1.0])
    rec = stieltjes_coeffs(Measure(scale * positions, np.ones(4)), 3)
    unit = stieltjes_coeffs(Measure(positions, np.ones(4)), 3)
    assert np.allclose(rec.a / scale, unit.a, rtol=1e-12, atol=0.0)
    assert np.allclose(rec.a / scale, [0.7293, 0.6413, 0.3423], rtol=0.0, atol=1e-4)


def test_eval_polys_basics(cheb):
    p, _ = eval_polys(cheb, 0, 0.37 + 0.1j)
    assert p[0] == 1.0
    # T_{2m}(0) pattern: p_{2m}(0) = sqrt(2) (-1)^m, odd ones vanish
    p, _ = eval_polys(cheb, 21, 0.0)
    for m in range(1, 11):
        assert abs(p[2 * m] - math.sqrt(2.0) * (-1) ** m) <= 1e-9
        assert p[2 * m - 1] == 0.0


def test_legendre_p1_normalization(leg):
    # p_1(z) = sqrt(3) z; oracle: quadrature normalization of the weight 1/2
    z = 0.83
    p, _ = eval_polys(leg, 1, z)
    assert abs(p[1] - math.sqrt(3.0) * z) <= 1e-9


def test_eval_polys_overflow_guard():
    rec = RecurrenceCoeffs(a=np.full(2500, 0.5), b=np.zeros(2500))
    p, log_scale = eval_polys(rec, 2500, 4.0)
    assert log_scale > 0.0
    assert np.all(np.isfinite(p[np.isfinite(p)].real))


def test_cd_kernel_trivial_and_chebyshev(cheb):
    assert abs(cd_kernel(cheb, 1, 0.3 + 1j, -2.0) - 1.0) <= 1e-14
    assert abs(cd_kernel(cheb, 5, 0.0, 0.0) - 5.0) <= 1e-10


def test_cd_methods_agree(cheb):
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(1, 61))
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        w = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        a = cd_kernel(cheb, n, z, w, method="sum")
        b = cd_kernel(cheb, n, z, w, method="cd_formula")
        assert abs(a - b) <= 1e-10 * max(abs(a), 1e-300)


def test_cd_kernel_gram_positivity(leg):
    rng = np.random.default_rng(8)
    pts = [complex(a, b) for a, b in rng.uniform(-2, 2, (6, 2))]
    gram = np.array([[cd_kernel(leg, 30, zi, zj) for zj in pts] for zi in pts])
    evals = np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)
    assert evals[0] >= -1e-8 * np.trace(gram).real


def test_interp_kernel(cheb):
    z, w = 0.3 + 0.2j, -0.1
    assert interp_kernel(cheb, 7.0, z, w) == cd_kernel(cheb, 7, z, w)
    assert abs(interp_kernel(cheb, 0.5, z, w) - 0.5) <= 1e-14
    assert abs(interp_kernel(cheb, 4.25, 0.0, 0.0) - 3.5) <= 1e-10
    assert interp_kernel(cheb, 0.0, z, w) == 0.0


def test_kernel_diag_matches_interp(cheb):
    assert abs(kernel_diag(cheb, 5, 0.2) - interp_kernel(cheb, 5, 0.2, 0.2).real) <= 1e-10


def test_cd_levels_are_integers(cheb):
    # CD kernels live at integer levels; real levels go through interp_kernel
    assert kernel_diag(cheb, 7.0, 0.2) == kernel_diag(cheb, 7, 0.2)
    with pytest.raises(ValueError, match="7.25"):
        kernel_diag(cheb, 7.25, 0.2)
    with pytest.raises(ValueError, match="7.25"):
        rescaled_cd(cheb, 0.0, RegVarFn(), 7.25, [(0.0, 0.0)])


def test_rescaled_cd_normalization(leg):
    h = RegVarFn(scale=0.5, index=1.0)
    samples = rescaled_cd(leg, 0.0, h, 200, [(0.0, 0.0)])
    assert abs(samples[0].value - 1.0) <= 1e-12


def test_rescaled_cd_bulk_point(leg):
    # Theorem-style check: the (1,0) sample approaches sine_kernel(1,0) = 0
    h = RegVarFn(scale=0.5, index=1.0)
    samples = rescaled_cd(leg, 0.0, h, 200, [(1.0, 0.0)])
    assert abs(samples[0].value) <= 0.05


def test_rescaled_cd_hermitian(leg):
    h = RegVarFn(scale=0.5, index=1.0)
    grid = [(0.4 + 0.2j, -0.3 + 0.1j), (-0.3 + 0.1j, 0.4 + 0.2j)]
    s = rescaled_cd(leg, 0.0, h, 100, grid)
    assert abs(s[0].value - s[1].value.conjugate()) <= 1e-12


def test_rescaled_cd_zero_diagonal():
    # K(0,.,.) = 0, so rescaling at index 0 has nothing to normalize by
    rec = RecurrenceCoeffs(a=np.ones(5), b=np.zeros(5))
    with pytest.raises(ZeroDiagonalError):
        rescaled_cd(rec, 0.0, RegVarFn(), 0, [(0.0, 0.0)])


def test_nevai_ratio(cheb):
    assert nevai_ratio(cheb, 0.0, 60) >= 1.0
    assert nevai_ratio(cheb, 0.0, 60) - 1.0 <= 0.05
    # dominant-atom measure: ratio stays bounded away from huge values,
    # and matches the direct-sum oracle
    mu = Measure(np.array([-0.7, 0.0, 0.4, 0.9]), np.array([0.1, 2.0, 0.1, 0.1]))
    rec = stieltjes_coeffs(mu, 3)
    r = nevai_ratio(rec, 0.0, 2)
    p, _ = eval_polys(rec, 2, 0.0)
    direct = float(np.sum(np.abs(p) ** 2) / np.sum(np.abs(p[:2]) ** 2))
    assert abs(r - direct) <= 1e-12


def test_poly_zeros_basics(cheb):
    assert np.allclose(poly_zeros(cheb, 1), [0.0], atol=1e-12)
    z3 = poly_zeros(cheb, 3)
    assert np.allclose(z3, [-math.sqrt(3) / 2, 0.0, math.sqrt(3) / 2], atol=1e-10)


def test_poly_zeros_against_eigvalsh(leg):
    n = 40
    d = leg.b[:n]
    e = leg.a[: n - 1]
    t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    assert np.max(np.abs(poly_zeros(leg, n) - np.linalg.eigvalsh(t))) <= 1e-12


@settings(max_examples=10, deadline=None)
@given(n=st.integers(2, 40))
def test_zeros_interlace(n):
    rec = stieltjes_coeffs(gallery("legendre"), 45)
    lo = poly_zeros(rec, n)
    hi = poly_zeros(rec, n + 1)
    assert np.all(hi[:-1] < lo)
    assert np.all(lo < hi[1:])


def _reference_poly_zeros(rec, n):
    """Plain Sturm bisection over all n eigenvalues at once, one halving per
    count pass, as poly_zeros computed it before multisection."""
    d = rec.b[:n].astype(float)
    if n == 1:
        return d.copy()
    e = rec.a[: n - 1].astype(float)
    e_sq = e * e
    pad = np.concatenate([[0.0], np.abs(e), [0.0]])
    radius = pad[:-1] + pad[1:]
    lo0 = float(np.min(d - radius)) - 1.0
    hi0 = float(np.max(d + radius)) + 1.0
    ks = np.arange(1, n + 1)
    lo = np.full(n, lo0)
    hi = np.full(n, hi0)
    for _ in range(200):
        if float(np.max(hi - lo)) <= 1e-13:
            break
        mid = 0.5 * (lo + hi)
        c = _sturm_counts(d, e_sq, mid)
        take_hi = c >= ks
        hi = np.where(take_hi, mid, hi)
        lo = np.where(take_hi, lo, mid)
    return 0.5 * (lo + hi)


# the gallery recurrences at the degrees the packaged zero configs use
_ZERO_CASES = {
    "power_hard_edge_1.5": (("power_hard_edge", {"beta": 1.5}), 300, (100, 200, 300)),
    "power_hard_edge_2.0": (("power_hard_edge", {"beta": 2.0}), 300, (100, 200, 300)),
    "even_fh_1.5": (("even_fh", {"beta": 1.5}), 401, (200, 201, 400, 401)),
    "even_fh_3.0": (("even_fh", {"beta": 3.0}), 401, (200, 201, 400, 401)),
    "legendre": (("legendre", {}), 201, (60, 121, 200)),
}


@functools.lru_cache(maxsize=None)
def _zero_case_rec(case):
    (name, params), n_max, _ = _ZERO_CASES[case]
    return stieltjes_coeffs(gallery(name, **params), n_max)


@functools.lru_cache(maxsize=None)
def _zero_case(case, n):
    """(rec, poly_zeros, reference zeros) of one gallery case at degree n."""
    rec = _zero_case_rec(case)
    return rec, poly_zeros(rec, n), _reference_poly_zeros(rec, n)


_ZERO_CASE_DEGREES = [(case, n) for case, (_, _, ns) in _ZERO_CASES.items() for n in ns]


@pytest.mark.parametrize("case, n", _ZERO_CASE_DEGREES)
def test_poly_zeros_matches_bisection_on_gallery(case, n):
    _, zeros, ref = _zero_case(case, n)
    assert np.array_equal(zeros, ref)
    assert np.all(np.diff(zeros) > 0)


def _random_jacobi(seed):
    """A seeded Jacobi matrix of size 2..60; every third one is mirror-symmetric
    (b = 0), so that bisection's first shift lands on 0 exactly."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 61))
    b = np.zeros(n) if seed % 3 == 0 else rng.normal(scale=0.5, size=n)
    return RecurrenceCoeffs(a=rng.uniform(0.05, 2.0, n), b=b), n


def test_poly_zeros_matches_bisection_on_random_jacobi():
    for seed in range(150):
        rec, n = _random_jacobi(seed)
        assert np.array_equal(poly_zeros(rec, n), _reference_poly_zeros(rec, n)), seed


def _assert_window_is_slice(rec, n, xi, k, zeros):
    first, window = zeros_near(rec, n, xi, k)
    assert np.array_equal(window, zeros[first:first + window.size])
    # k + 1 zeros on each side of xi, or all of a side's zeros
    i = first + int(np.searchsorted(window, xi, side="right"))
    j = int(np.searchsorted(zeros, xi, side="right"))
    assert i == j
    assert first <= max(j - k - 1, 0) and min(j + k + 1, n) <= first + window.size
    return first, window


@pytest.mark.parametrize("case, n", _ZERO_CASE_DEGREES)
@pytest.mark.parametrize("k", [1, 3])
def test_zeros_near_is_slice_of_poly_zeros(case, n, k):
    rec, zeros, _ = _zero_case(case, n)
    for xi in (0.0, 1e-300, 0.5, zeros[n // 3], -2.0, 2.0):
        _assert_window_is_slice(rec, n, xi, k, zeros)


@pytest.mark.parametrize("case", ["even_fh_1.5", "even_fh_3.0"])
def test_zeros_near_zero_at_xi(case):
    # odd degrees of an even measure vanish at 0 exactly; the windows around
    # 0 and around 0 + 1e-300 both hold its computed zero, whichever side of
    # xi that lands on
    for n in (201, 401):
        rec, zeros, _ = _zero_case(case, n)
        mid = zeros[n // 2]
        assert abs(mid) <= 1e-13
        for xi in (0.0, 1e-300):
            _, window = _assert_window_is_slice(rec, n, xi, 3, zeros)
            assert mid in window


def test_zeros_near_clipped_windows():
    rec, zeros, _ = _zero_case("power_hard_edge_1.5", 300)
    first, window = zeros_near(rec, 300, 0.0, 3)  # hard edge: every zero right of 0
    assert first == 0 and np.array_equal(window, zeros[:5])
    rec, zeros, _ = _zero_case("legendre", 200)
    first, window = zeros_near(rec, 200, 1.5, 3)  # past the last zero
    assert first == 195 and np.array_equal(window, zeros[195:])


def test_zeros_near_on_random_jacobi():
    for seed in range(60):
        rec, n = _random_jacobi(seed)
        zeros = _reference_poly_zeros(rec, n)
        for xi in (0.0, zeros[n // 2], zeros[-1], -10.0):
            for k in (0, 2):
                _assert_window_is_slice(rec, n, xi, k, zeros)


def _sturm_case(seed, n, kind, extra):
    """(d, e, sorted shifts) of a seeded matrix of size n: random, mirror-
    symmetric (b = 0) or integer, with shifts on and next to its eigenvalues,
    on its diagonal, on half-integers and at -+1e300."""
    rng = np.random.default_rng(seed)
    if kind == "integer":
        d = rng.integers(-2, 3, n).astype(float)
        e = rng.integers(1, 3, n - 1).astype(float)
    else:
        d = np.zeros(n) if kind == "mirror" else rng.normal(scale=0.5, size=n)
        e = rng.uniform(0.05, 2.0, n - 1)
    eig = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    shifts = np.sort(np.concatenate([
        extra, eig, np.nextafter(eig, -np.inf), np.nextafter(eig, np.inf), d,
        np.arange(-12, 13) / 2.0, [-1e300, 1e300]]))
    return d, e, shifts


_STURM_CASES = dict(
    seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 30),
    kind=st.sampled_from(["random", "mirror", "integer"]),
    extra=st.lists(st.floats(-6.0, 6.0), max_size=10))


@settings(max_examples=200, deadline=None)
@given(**_STURM_CASES)
@example(seed=0, n=3, kind="mirror", extra=[])  # eigenvalue 0: the first pivot at 0 is 0
@example(seed=0, n=2, kind="integer", extra=[])  # integer shifts give exact zero pivots
def test_sturm_counts_monotone_in_the_shift(seed, n, kind, extra):
    # the enclosures of _bisect decide steps by this monotonicity; mirror-
    # symmetric (b = 0) and integer matrices put shifts on exact zero pivots
    d, e, shifts = _sturm_case(seed, n, kind, extra)
    counts = _sturm_counts(d, e * e, shifts)
    assert np.all(np.diff(counts) >= 0)
    assert counts[0] == 0 and counts[-1] == n


@settings(max_examples=200, deadline=None)
@given(**_STURM_CASES)
@example(seed=0, n=3, kind="mirror", extra=[])
@example(seed=0, n=2, kind="integer", extra=[])
def test_scalar_pass_counts_as_sturm_counts(seed, n, kind, extra):
    # _count_step makes every count but poly_zeros' one certifying pass;
    # its count must be _sturm_counts' at every shift, exact zero pivots included
    d, e, shifts = _sturm_case(seed, n, kind, extra)
    rows, e_sq = d.tolist(), (e * e).tolist()
    scalar = [_count_step(rows, e_sq, x)[0] for x in shifts.tolist()]
    assert scalar == _sturm_counts(d, e * e, shifts).tolist()


def _failed_estimates(kind):
    def estimates(d, e):
        eig = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        return {"nan": np.full(d.size, np.nan), "inf": np.full(d.size, np.inf),
                "shifted": eig + 1e-6, "reversed": eig[::-1].copy(),
                "nan_norm": np.concatenate([eig[:-1], [np.nan]])}[kind]
    return estimates


@pytest.mark.parametrize("kind", ["nan", "inf", "shifted", "reversed", "nan_norm"])
def test_failed_certification_keeps_bisection_bits(monkeypatch, kind):
    # estimates that certify no enclosure leave every step to counting
    monkeypatch.setattr(oprl, "_estimates", _failed_estimates(kind))
    for seed in range(0, 150, 7):
        rec, n = _random_jacobi(seed)
        zeros = _reference_poly_zeros(rec, n)
        assert np.array_equal(poly_zeros(rec, n), zeros), seed
        for xi in (0.0, zeros[n // 2]):
            _assert_window_is_slice(rec, n, xi, 2, zeros)
    for case, n in [("even_fh_1.5", 201), ("power_hard_edge_2.0", 300)]:
        rec, _, zeros = _zero_case(case, n)
        assert np.array_equal(poly_zeros(rec, n), zeros)
        _assert_window_is_slice(rec, n, 0.0, 3, zeros)


def _loose_bounds(kind, monkeypatch):
    """Window bounds that tighten nothing: infinite ones, the brackets of a
    Newton whose every step is NaN and so never settles, or each rank's
    isolating bracket alone."""
    if kind == "inf":
        monkeypatch.setattr(oprl, "_window_bounds", lambda d, e_sq, ks, *rest: (
            np.full(ks.size, -np.inf), np.full(ks.size, np.inf)))
    elif kind == "nan":
        monkeypatch.setattr(oprl, "_count_step", lambda *args: (_count_step(*args)[0], math.nan))
    else:
        monkeypatch.setattr(oprl, "_polish", lambda d, e_sq, k, a, b, norm: (a, b))


@pytest.mark.parametrize("kind", ["inf", "nan", "isolating"])
def test_failed_window_certification_keeps_bisection_bits(monkeypatch, kind):
    # window bounds that tighten nothing leave more steps to counting, and
    # the same bits
    _loose_bounds(kind, monkeypatch)
    for seed in range(0, 150, 7):
        rec, n = _random_jacobi(seed)
        zeros = _reference_poly_zeros(rec, n)
        for xi in (0.0, zeros[n // 2]):
            _assert_window_is_slice(rec, n, xi, 2, zeros)
    for case, n in [("even_fh_1.5", 201), ("power_hard_edge_2.0", 300)]:
        rec, _, zeros = _zero_case(case, n)
        for xi in (0.0, 0.5):
            _assert_window_is_slice(rec, n, xi, 3, zeros)


@pytest.mark.parametrize("case, n", _ZERO_CASE_DEGREES)
def test_window_estimates_certify_every_rank(case, n, monkeypatch):
    # the fast path runs: every rank of the zero configs' windows gets the
    # tight bounds x* -+ 16 eps ||J|| from _polish, so bisection counts few steps
    tight = []

    def window_bounds(d, e_sq, ks, bracket, xi, c):
        lower, upper = _window_bounds(d, e_sq, ks, bracket, xi, c)
        delta = 16.0 * np.finfo(float).eps * max(-bracket[0], bracket[1])
        tight.append(bool(np.all((lower < upper) & (upper - lower <= 2.5 * delta))))
        return lower, upper

    rec, zeros, _ = _zero_case(case, n)
    monkeypatch.setattr(oprl, "_window_bounds", window_bounds)
    for xi in (0.0, 1e-300, 0.5, zeros[n // 3], -2.0, 2.0):
        zeros_near(rec, n, xi, 3)
    assert tight == [True] * 6


@pytest.mark.parametrize("case, n", _ZERO_CASE_DEGREES)
def test_zeros_near_counts_by_scalar_passes_only(case, n, monkeypatch):
    # every count of a window, from xi to the last bisection step, is one
    # _count_step pass; no _sturm_counts pass, and few scalar ones
    def no_numpy_pass(*args):
        raise AssertionError("zeros_near made a _sturm_counts pass")

    rec, zeros, _ = _zero_case(case, n)
    passes = []
    monkeypatch.setattr(oprl, "_sturm_counts", no_numpy_pass)
    monkeypatch.setattr(oprl, "_count_step", lambda *args: passes.append(1) or _count_step(*args))
    for xi in (0.0, 1e-300, 0.5, zeros[n // 3], -2.0, 2.0):
        passes.clear()
        _assert_window_is_slice(rec, n, xi, 3, zeros)
        assert 0 < len(passes) <= 100, (xi, len(passes))


def test_zeros_near_takes_no_dense_eigensolve(monkeypatch):
    def dense(*args):
        raise AssertionError("zeros_near called a dense eigensolve")

    monkeypatch.setattr(oprl, "_estimates", dense)
    monkeypatch.setattr(np.linalg, "eigvalsh", dense)
    rec, zeros, _ = _zero_case("even_fh_1.5", 401)
    _assert_window_is_slice(rec, 401, 0.0, 3, zeros)


@pytest.mark.parametrize("name", ["legendre", "chebyshev"])
def test_zeros_near_at_the_old_dense_crossover(name):
    # windows below, at and above the old n = 800 switch from a dense
    # estimate to counting every step, and at 1200, are slices of poly_zeros
    rec = stieltjes_coeffs(gallery(name), 1200)
    for n in (799, 800, 801, 1200):
        zeros = poly_zeros(rec, n)
        for xi in (0.0, 0.3, -0.97, zeros[n // 3]):
            _assert_window_is_slice(rec, n, xi, 3, zeros)


def test_zeros_near_at_extreme_xi():
    # an infinite xi counts every zero or none; the Newton step there is NaN
    rec, zeros, _ = _zero_case("legendre", 200)
    for xi, first in ((math.inf, 195), (1e308, 195), (-math.inf, 0), (-1e308, 0)):
        got, window = zeros_near(rec, 200, xi, 3)
        assert got == first and np.array_equal(window, zeros[first:first + 5])
    d, e = oprl._jacobi(rec, 200)
    for xi, count in ((math.inf, 200), (-math.inf, 0)):
        got, step = _count_step(d.tolist(), (e * e).tolist(), xi)
        assert got == count and math.isnan(step)


def test_zeros_near_memory_is_linear_in_n():
    # the dense estimate held three n x n arrays, 35 MB at n = 1200
    rec = stieltjes_coeffs(gallery("legendre"), 1200)
    zeros_near(rec, 1200, 0.3, 3)
    tracemalloc.start()
    try:
        zeros_near(rec, 1200, 0.3, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_zeros_near_lists_the_matrix_once():
    # the window's Python lists of d and e^2 (32 bytes a float) and its
    # bracket go to _bisect, which listed them again: 0.67 MB at n = 4000
    k = np.arange(1, 4001, dtype=float)
    rec = RecurrenceCoeffs(a=k / np.sqrt(4.0 * k * k - 1.0), b=np.zeros(4000))
    zeros_near(rec, 4000, 0.3, 3)
    tracemalloc.start()
    try:
        zeros_near(rec, 4000, 0.3, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6


@pytest.mark.parametrize("case, n", _ZERO_CASE_DEGREES)
def test_enclosures_certify_every_gallery_zero(case, n):
    # the zero configs' matrices get every enclosure, so few steps are counted
    d, e = oprl._jacobi(_zero_case_rec(case), n)
    lower, upper = _enclosures(d, e, _estimates(d, e))
    assert np.all(lower < upper) and np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))


def test_poly_zeros_encloses_every_zero_above_the_window_crossover(monkeypatch):
    # poly_zeros takes its dense estimates at every n: above n = 800, where a
    # window of zeros was once counted alone, it counted every step too (9
    # count passes on the n = 1,000 Legendre matrix); windows take no dense
    # estimate at any n
    rec = stieltjes_coeffs(gallery("legendre"), 1000)
    passes = []
    monkeypatch.setattr(oprl, "_sturm_counts", lambda *a: passes.append(1) or _sturm_counts(*a))
    zeros = poly_zeros(rec, 1000)
    assert len(passes) <= 3
    monkeypatch.undo()
    for xi in (0.0, 0.3, -0.97, zeros[333]):
        _assert_window_is_slice(rec, 1000, xi, 3, zeros)


def test_zeros_near_rejects_nan_xi_and_negative_k(leg):
    # a NaN xi counted no eigenvalue below it and returned the lowest window
    with pytest.raises(ValueError, match="NaN"):
        zeros_near(leg, 20, float("nan"), 2)
    # k = -1 shrank the window; k = -5 failed inside numpy
    for k in (-1, -5):
        with pytest.raises(ValueError, match=f"k must be an integer >= 0, got {k}"):
            zeros_near(leg, 20, 0.0, k)


@pytest.mark.parametrize("a", [1.35e154, 1e160])
def test_zeros_reject_overflowing_a_squared(a):
    # a_k^2 = inf once gave non-increasing zeros [-2, 2, 2, 2, 2] * a
    rec = RecurrenceCoeffs(a=np.full(6, a), b=np.zeros(6))
    with pytest.raises(ValueError, match=r"a_1 = .* squares to inf"):
        poly_zeros(rec, 5)
    with pytest.raises(ValueError, match=r"a_1 = .* squares to inf"):
        zeros_near(rec, 5, 0.0, 1)


@pytest.mark.parametrize("b", [[1e308] * 6, [-1.7e308, 1.7e308] * 3])
def test_zeros_reject_a_bracket_without_finite_midpoint_or_width(b):
    # bisection's first midpoint or width overflowed and gave infinite zeros
    rec = RecurrenceCoeffs(a=np.ones(6), b=np.array(b))
    with pytest.raises(ValueError, match="Gershgorin bracket"):
        poly_zeros(rec, 5)
    with pytest.raises(ValueError, match="Gershgorin bracket"):
        zeros_near(rec, 5, 0.0, 1)


def test_zeros_just_below_the_overflow_of_a_squared():
    # the free matrix with a = 1.3e154: its zeros are 2a cos(j pi / (n + 1))
    a, n = 1.3e154, 5
    rec = RecurrenceCoeffs(a=np.full(n + 1, a), b=np.zeros(n + 1))
    exact = 2.0 * a * np.cos(np.arange(n, 0, -1) * np.pi / (n + 1))
    zeros = poly_zeros(rec, n)
    assert np.all(np.diff(zeros) > 0)
    assert np.max(np.abs(zeros - exact)) <= 4 * np.finfo(float).eps * 2.0 * a
    _assert_window_is_slice(rec, n, 0.0, 1, zeros)


def test_diag_strictly_increasing(cheb):
    vals = [cd_kernel(cheb, n, 0.3, 0.3).real for n in range(1, 40)]
    assert all(b > a - 1e-12 * abs(b) for a, b in zip(vals, vals[1:]))


def test_interp_affine_in_t(cheb):
    z, w = 0.7 + 0.3j, 0.2 - 0.1j
    k0 = interp_kernel(cheb, 10.25, z, w)
    k1 = interp_kernel(cheb, 10.5, z, w)
    k2 = interp_kernel(cheb, 10.75, z, w)
    assert abs(k1 - (k0 + k2) / 2.0) <= 1e-12 * max(abs(k1), 1.0)


def test_stieltjes_positivity_loss():
    # atoms distinct as floats but numerically coincident starve the Krylov
    # space: a_2 collapses and the failing index is reported
    mu = Measure(np.array([0.0, 1e-308, 1.0]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(PositivityLossError) as exc:
        stieltjes_coeffs(mu, 2)
    assert exc.value.index >= 1


def _full_reorth_lanczos(x, w, m, passes=2):
    """Reference: m steps of Lanczos with classical Gram-Schmidt run twice
    (passes) against the whole stored basis at every step; passes=0 is plain
    Lanczos."""
    Q = np.empty((m + 1, x.size))
    q = np.sqrt(w)
    q /= np.linalg.norm(q)
    Q[0] = q
    a = np.empty(m)
    b = np.empty(m)
    for k in range(m):
        v = x * Q[k]
        b[k] = Q[k] @ v
        v -= b[k] * Q[k]
        if k > 0:
            v -= a[k - 1] * Q[k - 1]
        for _ in range(passes):
            c = Q[: k + 1] @ v
            v -= Q[: k + 1].T @ c
        nb = np.linalg.norm(v)
        assert nb > 1e-14
        a[k] = nb
        Q[k + 1] = v / nb
    return a, b


def _reference_coeffs(mu, n_max):
    x, w = _discretize(mu, n_max)
    return _full_reorth_lanczos(x, w / w.sum(), n_max)


@pytest.mark.parametrize("name, params", [
    ("pure_point_bulk", {"cutoff": 2000}),
    ("legendre", {}),
    ("chebyshev", {}),
    ("even_fh", {"beta": 1.5}),
    ("power_hard_edge", {"beta": 1.5}),
    ("jump", {"sigma_minus": 0.5, "sigma_plus": 1.0}),
])
def test_stieltjes_matches_full_reorthogonalization(name, params):
    mu = gallery(name, **params)
    rec = stieltjes_coeffs(mu, 201)
    a, b = _reference_coeffs(mu, 201)
    assert np.max(np.abs(rec.a - a) / a) <= 1e-12
    assert np.max(np.abs(rec.b - b)) <= 1e-12


@pytest.mark.parametrize("half", [False, True], ids=["folded", "unfolded"])
def test_stieltjes_merged_runs_match_full_reorthogonalization(half):
    # 20,000 atoms (of x^2 when folded) are more than 64 m, m = 101 folded and
    # 202 unfolded at n = 201, so _lanczos replaces each run of 32 m nodes by
    # its Jacobi block first
    mu = gallery("pure_point_bulk", cutoff=20000)
    if half:
        right = mu.atom_positions > 0
        mu = Measure(mu.atom_positions[right], mu.atom_masses[right])
    rec = stieltjes_coeffs(mu, 201)
    a, b = _reference_coeffs(mu, 201)
    assert np.max(np.abs(rec.a - a) / a) <= 1e-12
    assert np.max(np.abs(rec.b - b)) <= 1e-12


def test_lanczos_positivity_loss_index_survives_merging():
    # 100,000 atoms at 50 distinct positions: the equal nodes are summed to
    # 50 nodes before any merge, and the index is the measure's own
    x = np.repeat(np.linspace(0.02, 1.0, 50), 2000)
    with pytest.raises(PositivityLossError) as exc:
        _lanczos(x, np.ones(x.size), 60)
    assert exc.value.index == 50


def test_lanczos_equal_nodes_across_run_boundaries():
    # 10,000 copies of 2.0 would straddle the runs of 32 m nodes; summed into
    # one node first, the block matches the unmerged reference
    x = np.concatenate([np.linspace(0.0, 1.0, 20000), np.full(10000, 2.0)])
    w = np.ones(x.size)
    m = 202
    d, e = _lanczos(x, w, m)
    a, b = _full_reorth_lanczos(x, w / w.sum(), m)
    assert np.max(np.abs(d - b)) <= 1e-12
    assert np.max(np.abs(e - a[: m - 1]) / a[: m - 1]) <= 1e-12


def _folded_pure_point_run(lo, hi):
    """Nodes 1/j^2, lo < j <= hi, ascending, with masses 1/(j (j + 1)) of
    unit total: one run of the folded pure_point_bulk measure."""
    j = np.arange(hi, lo, -1, dtype=float)
    w = 1.0 / (j * (j + 1.0))
    return 1.0 / j ** 2, w / w.sum()


def _krylov_error(x, w, m, passes=None):
    """Largest relative change of _krylov's block (or of the reference with
    that many passes) against full reorthogonalization."""
    a, b = _full_reorth_lanczos(x, w, m)
    if passes is None:
        d, e = _krylov(x, w, m)
    else:
        e, d = _full_reorth_lanczos(x, w, m, passes)
    return max(np.max(np.abs(e[: m - 1] - a[: m - 1]) / a[: m - 1]),
               np.max(np.abs(d[:m] - b[:m]) / np.abs(b[:m])))


@pytest.mark.parametrize("lo, hi, fires", [
    (0, 3520, True),  # the wide last run: plain Lanczos loses orthogonality by step 7
    (93568, 100000, False),  # a narrow merge run, within 8.1e-8 of 0
])
def test_krylov_partial_reorthogonalization_on_pure_point_runs(lo, hi, fires):
    # the block of the omega-triggered loop matches full reorthogonalization;
    # plain Lanczos fails it exactly where the trigger has to fire
    x, w = _folded_pure_point_run(lo, hi)
    assert _krylov_error(x, w, 201) <= 1e-12
    assert (_krylov_error(x, w, 201, passes=0) > 1e-8) == fires


def test_krylov_isolated_atoms_next_to_a_continuum():
    # three outliers converge first as Ritz values, so orthogonality to them
    # is lost early while the continuum is still being resolved
    x = np.concatenate([np.linspace(0.0, 1.0, 5000), [1.5, 2.0, 3.0]])
    w = np.full(x.size, 1.0 / x.size)
    assert _krylov_error(x, w, 201) <= 1e-12
    assert _krylov_error(x, w, 201, passes=0) > 1e-8


def _merge_case(case):
    """(x, w, m) of a node set that exercises one path of the merge."""
    if case == "two_levels":
        # 157 runs of 320 nodes give 1,570 block entries, more than 640: the
        # tridiagonal level is merged again
        return np.linspace(0.0, 1.0, 50_000), np.full(50_000, 2e-5), 10
    if case == "fires_in_stack":
        # three runs of 6,432 nodes in one stack; plain Lanczos loses
        # orthogonality on the last (1/j^2, j <= 6,432) by step 7
        return (*_folded_pure_point_run(0, 19_296), 201)
    if case == "breaks_down_in_tail":
        # three runs of 1,600 nodes and a last run of 800, which holds 20
        # atoms of weight 1 and 780 of weight 1e-40: its Krylov space ends
        # after 20 steps
        w = np.full(5600, 1.0)
        w[4800:] = 1e-40
        w[4800::40] = 1.0
        return np.linspace(0.0, 1.0, 5600), w / w.sum(), 50
    # the middle one of three runs of 1,600 nodes holds 20 atoms of weight 1
    # and 1,580 of weight 1e-40: its Krylov space ends after 20 steps
    w = np.full(4800, 1.0)
    w[1600:3200] = 1e-40
    w[1600:3200:80] = 1.0
    return np.linspace(0.0, 1.0, 4800), w / w.sum(), 50


@pytest.mark.parametrize("case, stored", [
    # full runs go as rows of 320 in stacks of 102 and the shorter last run as a
    # stack of its own, first, on both levels; the final block stores no basis
    ("two_levels", [((1, 80), False, False), ((102, 320), False, False), ((54, 320), False, False),
                    ((1, 290), True, False), ((4, 320), True, False), ((50,), True, False)]),
    # the last run of the stack is redone with its basis stored, and so is the
    # final block, whose estimate fires too
    ("fires_in_stack", [((3, 6432), False, False), ((6432,), False, True),
                        ((603,), True, False), ((603,), True, True)]),
    # the middle run is redone, breaks down and keeps its 1,600 entries
    ("breaks_down_in_stack", [((3, 1600), False, False), ((1600,), False, True),
                              ((1700,), True, False)]),
    # the last run is redone right after its own stack, before any other
    # stack, so its basis is stored first; it breaks down and keeps its 800
    # entries
    ("breaks_down_in_tail", [((1, 800), False, False), ((800,), False, True),
                             ((3, 1600), False, False), ((950,), True, False)]),
])
def test_lanczos_merge_levels_match_full_reorthogonalization(monkeypatch, case, stored):
    # stored lists every _krylov call in order as (shape, off-diagonal given,
    # basis stored): a basis is stored only to redo a run or the final block
    # whose estimate fired or that broke down
    x, w, m = _merge_case(case)
    calls = []

    def spy(x, w, m, off=None, basis=True):
        calls.append((x.shape, off is not None, basis))
        return _krylov(x, w, m, off, basis)

    monkeypatch.setattr(oprl, "_krylov", spy)
    d, e = _lanczos(x, w, m)
    a, b = _full_reorth_lanczos(x, w, m)
    assert np.max(np.abs(d - b)) <= 1e-12
    assert np.max(np.abs(e - a[: m - 1]) / a[: m - 1]) <= 1e-12
    assert calls == stored


def _fold_case(case):
    """(x, w, m): the positive half of a mirror-symmetric node set, ascending,
    and the size of its fold's block."""
    if case in ("below", "above"):
        # 2,000 entries are fewer than 64 m at m = 101; 20,000 make six runs
        # of 3,232 and a last run of 608, whose estimate fires
        mu = gallery("pure_point_bulk", cutoff=2000 if case == "below" else 20000)
        right = mu.atom_positions > 0
        return mu.atom_positions[right], mu.atom_masses[right], 101
    if case == "equal_squares":
        # 9,000 nodes whose squares underflow to 0.0, more than a chunk of the
        # equal-node test, then 10,000 whose squares are subnormal, in runs of
        # about 23 equal squares that straddle the chunk boundaries
        x = np.concatenate([np.linspace(1e-200, 2e-200, 9000), np.linspace(1e-160, 1.1e-160, 10000),
                            np.linspace(1e-3, 1.0, 20000)])
        return x, np.linspace(1.0, 2.0, x.size), 101
    # 50 distinct squares, each 200 times, in runs that straddle the chunk
    # boundaries: merged into 50 nodes, the fold's Krylov space ends after 50 steps
    return np.repeat(np.linspace(0.1, 1.0, 50), 200), np.ones(10000), 60


@pytest.mark.parametrize("case", ["below", "above", "equal_squares", "breaks_down"])
def test_lanczos_fold_as_read_matches_folded_copies(case):
    # the fold squared and normalized slice by slice, its equal squares found
    # chunk by chunk, gives the bits of _lanczos on whole folded copies of the
    # half whose equal squares are merged up front
    x, w, m = _fold_case(case)
    x_full, w_full = np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])
    total = float(w_full.sum())
    squares, masses = x ** 2, w / total
    distinct = np.append(True, squares[1:] != squares[:-1])
    squares, masses = squares[distinct], np.add.reduceat(masses, np.flatnonzero(distinct))
    if case == "equal_squares":
        assert np.all(x[1:] > x[:-1]) and x.size - squares.size > 8192
    try:
        expected = _lanczos(squares, masses, m)
    except PositivityLossError as exc:
        assert case == "breaks_down"
        with pytest.raises(PositivityLossError) as got:
            _lanczos(x, w, m, total)
        assert got.value.index == exc.index == 50
        assert _folded_a(x_full, w_full, total, 2 * (m - 1)) is None
        return
    d, e = _lanczos(x, w, m, total)
    assert d.tobytes() == expected[0].tobytes() and e.tobytes() == expected[1].tobytes()
    assert (x.size > 64 * m) == (case != "below")


def test_pure_point_bulk_atoms_are_built_in_place():
    # the atoms are two arrays of 200,000 doubles (3.2 MB); j and j (j + 1) are
    # built in the masses, and only Measure's ordering test (0.2 MB) is more
    tracemalloc.start()
    try:
        mu = gallery("pure_point_bulk", cutoff=100000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * (mu.atom_positions.nbytes + mu.atom_masses.nbytes)


def test_stieltjes_pure_point_peak_memory():
    # the unmerged folded basis alone is 201 x 100,000 doubles (161 MB); above
    # the atoms the peak is one stored basis, the last run's (201 x 3,520), as
    # the fold is read slice by slice
    tracemalloc.start()
    try:
        mu = gallery("pure_point_bulk", cutoff=100000)
        atoms, gallery_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        stieltjes_coeffs(mu, 401)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(gallery_peak, peak) < 9.5e6
    assert peak - atoms <= 201 * 3520 * 8 + 0.5e6


def test_stieltjes_jump_stores_no_basis():
    # no Lanczos estimate fires on jump, so its 402 x 1,644 basis (5.3 MB) is
    # never stored
    mu = gallery("jump")
    tracemalloc.start()
    try:
        stieltjes_coeffs(mu, 401)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_discretize_atoms_are_not_copied():
    mu = gallery("pure_point_bulk", cutoff=2000)
    x, w = _discretize(mu, 201)
    assert x is mu.atom_positions and w is mu.atom_masses
    # a piece of zero density sends the atoms through the general path, which
    # drops its nodes again
    zero = AcPiece(-0.5, 0.5, lambda t: np.zeros_like(t))
    x_general, w_general = _discretize(Measure(mu.atom_positions, mu.atom_masses, (zero,)), 201)
    assert np.array_equal(x, x_general) and np.array_equal(w, w_general)
    # stieltjes_coeffs reads the measure's arrays and writes none of them
    before = x.copy(), w.copy()
    x.flags.writeable = w.flags.writeable = False
    stieltjes_coeffs(mu, 201)
    assert np.array_equal(x, before[0]) and np.array_equal(w, before[1])


_FOUR_ATOMS_A = [math.sqrt(0.625), 0.375 / math.sqrt(0.625), math.sqrt(0.4)]


@pytest.mark.parametrize("positions, a_expected", [
    ([-1.0, 1.0], [1.0]),
    ([-1.0, -0.5, 0.5, 1.0], _FOUR_ATOMS_A[:1]),
    ([-1.0, -0.5, 0.5, 1.0], _FOUR_ATOMS_A[:2]),
    ([-1.0, -0.5, 0.5, 1.0], _FOUR_ATOMS_A),
])
def test_stieltjes_small_symmetric_atoms(positions, a_expected):
    # the folded run needs ceil(n/2) diagonal and floor(n/2) off-diagonal
    # entries of the folded matrix; one more would find no Krylov vector left
    mu = Measure(np.array(positions), np.ones(len(positions)))
    n_max = len(a_expected)
    rec = stieltjes_coeffs(mu, n_max)
    assert np.allclose(rec.a, a_expected, rtol=1e-14, atol=0.0)
    assert np.allclose(rec.a, _reference_coeffs(mu, n_max)[0], rtol=1e-14, atol=0.0)
    assert np.all(rec.b == 0.0)


def _four_symmetric_atoms(inner):
    return Measure(np.array([-1.0, -inner, inner, 1.0]), np.ones(4))


def test_stieltjes_folding_falls_back_without_losing_digits():
    # a_3 ~ 1.4e-9 would come out of the folded read-off as the difference
    # of two numbers near 1/2, with no digit correct; it runs unfolded instead
    mu = _four_symmetric_atoms(1e-9)
    a_ref = _reference_coeffs(mu, 3)[0]
    assert np.allclose(stieltjes_coeffs(mu, 3).a, a_ref, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("inner, index", [(1e-300, 3), (float(np.nextafter(1.0, 0.0)), 2)])
def test_stieltjes_symmetric_positivity_loss(inner, index):
    # +-1e-300 act as one atom at 0, so a_3 collapses; atoms one ulp apart
    # act as one atom at +-1, so a_2 does.  The index is the measure's own.
    with pytest.raises(PositivityLossError) as exc:
        stieltjes_coeffs(_four_symmetric_atoms(inner), 3)
    assert exc.value.index == index


def test_stieltjes_b_zero_exactly_for_mirror_symmetric_measures():
    for name, params in [("even_fh", {"beta": 1.5}), ("pure_point_bulk", {"cutoff": 50}),
                         ("legendre", {}), ("chebyshev", {})]:
        assert np.all(stieltjes_coeffs(gallery(name, **params), 40).b == 0.0)
    for name, params in [("power_hard_edge", {"beta": 1.5}),
                         ("jump", {"sigma_minus": 0.5, "sigma_plus": 1.0})]:
        assert np.any(stieltjes_coeffs(gallery(name, **params), 40).b != 0.0)


@pytest.mark.parametrize("a, n", [(1.0, 2000), (0.5, 1000)])
def test_nevai_ratio_off_support_no_overflow(a, n):
    # free Jacobi matrix off its spectrum: p_n grows like r^n, so the ratio
    # tends to r^2 even after eval_polys rescales near 1e280
    x = 3.0
    r = (x + math.sqrt(x * x - 4.0 * a * a)) / (2.0 * a)
    rec = RecurrenceCoeffs(a=np.full(n + 1, a), b=np.zeros(n + 1))
    assert abs(nevai_ratio(rec, x, n) / (r * r) - 1.0) <= 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x", [1e300, math.inf, -math.inf, math.nan])
def test_nevai_ratio_overflow_is_typed(x):
    # the ratio was nan here, and both functions overflowed with
    # RuntimeWarnings before the typed error; a NaN xi is rejected as such
    rec = stieltjes_coeffs(gallery("legendre"), 60)
    for f, index in ((lambda: kernel_diag(rec, 50, x), 50), (lambda: nevai_ratio(rec, x, 50), 51)):
        if math.isnan(x):
            with pytest.raises(ValueError, match="xi must not be NaN"):
                f()
            continue
        with pytest.raises(KernelOverflowError) as exc:
            f()
        assert exc.value.index == index


def test_kernel_diag_overflow_is_typed():
    rec = RecurrenceCoeffs(a=np.ones(2001), b=np.zeros(2001))
    assert math.isfinite(kernel_diag(rec, 200, 2.5))
    with pytest.raises(KernelOverflowError) as exc:
        kernel_diag(rec, 2000, 2.5)
    assert (exc.value.index, exc.value.xi) == (2000, 2.5)
    assert "2000" in str(exc.value) and "2.5" in str(exc.value)


@pytest.mark.parametrize("n, method", [(1000, "sum"), (1000, "cd_formula"),
                                       (4000, "sum"), (4000, "cd_formula")])
def test_cd_kernel_overflow_is_typed(n, method):
    # free Jacobi matrix at 0.3 + 1i: |p_n| grows like 1.62^n, so K(1000) is
    # ~1e420 (nan from the raw products) and the rescaled sum at 4000 has a
    # scale factor beyond the double range
    rec = RecurrenceCoeffs(a=np.ones(n + 1), b=np.zeros(n + 1))
    z = 0.3 + 1j
    assert math.isfinite(abs(cd_kernel(rec, 300, z, z, method=method)))
    with pytest.raises(KernelOverflowError) as exc:
        cd_kernel(rec, n, z, z, method=method)
    assert (exc.value.index, exc.value.xi, exc.value.w) == (n, z, z)


def test_cd_kernel_overflow_names_both_points():
    rec = RecurrenceCoeffs(a=np.ones(1001), b=np.zeros(1001))
    with pytest.raises(KernelOverflowError, match=r"K\(1000, \(0\.3\+1j\), \(-0\.2\+1j\)\)"):
        cd_kernel(rec, 1000, 0.3 + 1j, -0.2 + 1j)


# ---------------------------------------------------------------------------
# the blocked transfer-matrix chain behind _batch_level and _szego_last_batch
# ---------------------------------------------------------------------------

# whole blocks (k^2), a padded last block (k^2 +- 1) and 13 = 3 blocks of 4 + 1
_CHAIN_LEVELS = st.one_of(
    st.sampled_from([0, 1, 2, 13]),
    st.builds(lambda k, e: k * k + e, st.integers(2, 12), st.sampled_from([-1, 0, 1])))
_CHAIN_POINTS = st.builds(complex, st.floats(-3.0, 3.0), st.floats(-1.0, 1.0))
_SEEDS = st.integers(0, 2 ** 32 - 1)


def _chain_coeffs(kind, n, seed):
    """Random Jacobi (a in [0.5, 1.5], b in [-1, 1]) or Verblunsky (|alpha| < 0.5)
    coefficients."""
    rng = np.random.default_rng(seed)
    if kind == "oprl":
        return RecurrenceCoeffs(a=rng.uniform(0.5, 1.5, n), b=rng.uniform(-1.0, 1.0, n))
    return VerblunskyCoeffs(rng.uniform(0.0, 0.5, n) * np.exp(2j * np.pi * rng.random(n)))


def _chain_point(kind, z):
    """z itself on the line, e^{iz} on the circle."""
    return z if kind == "oprl" else np.exp(1j * z)


def _chain_state(kind, coeffs, n, points):
    """(p_n, p_{n-1}) or (phi_n, phi*_n) at the points, and the z-derivatives."""
    if kind == "oprl":
        pm, p, dpm, dp = _batch_level(coeffs, n, points)
        return np.array([p, pm]), np.array([dp, dpm])
    phi, phs, dphi, dphs = _szego_last_batch(coeffs, n, points, derivative=True)
    return np.array([phi, phs]), np.array([dphi, dphs])


def _sum_form_state(kind, coeffs, n, point):
    """The state at level n from eval_polys or szego_eval, and the largest
    modulus of the sequence up to n."""
    if kind == "oprl":
        p, _ = eval_polys(coeffs, n, point)
        return np.array([p[n], p[n - 1] if n else 0.0]), np.max(np.abs(p))
    phi, phi_star = szego_eval(coeffs, n, point)
    return np.array([phi[n], phi_star[n]]), np.max(np.abs([phi, phi_star]))


@pytest.mark.parametrize("kind", ["oprl", "opuc"])
@settings(max_examples=60, deadline=None)
@given(n=_CHAIN_LEVELS, seed=_SEEDS, z=_CHAIN_POINTS)
def test_chain_matches_the_sum_form_oracles(kind, n, seed, z):
    # Measured against the largest |p_k|, as a point near a zero of p_n costs
    # both forms the same digits.  Where the steps are near parabolic (band
    # and gap edges) the chain's error can reach about sqrt(n) times the step
    # loop's: in 30,000 draws, with weakly random coefficients as well, the
    # chain came within 1.1e-11 of the oracle (n = 145, x = 0.999), where the
    # oracle was within 4e-14 of a long-double reference.
    coeffs, point = _chain_coeffs(kind, n, seed), _chain_point(kind, z)
    (state, _) = _chain_state(kind, coeffs, n, [point])
    oracle, largest = _sum_form_state(kind, coeffs, n, point)
    assert np.linalg.norm(state[:, 0] - oracle) <= 1e-10 * largest


@pytest.mark.parametrize("kind", ["oprl", "opuc"])
@settings(max_examples=60, deadline=None)
@given(n=_CHAIN_LEVELS, seed=_SEEDS, z=_CHAIN_POINTS)
def test_chain_derivative_matches_a_central_difference(kind, n, seed, z):
    coeffs, point = _chain_coeffs(kind, n, seed), _chain_point(kind, z)
    h = 1e-7 * max(1.0, abs(point))
    state, deriv = (x[:, 0] for x in _chain_state(kind, coeffs, n, [point]))
    (hi, lo), _ = _chain_state(kind, coeffs, n, [point + h, point - h])
    central = (np.array([hi[0], lo[0]]) - np.array([hi[1], lo[1]])) / (2.0 * h)
    assert np.linalg.norm(deriv - central) <= 1e-6 * (np.linalg.norm(deriv) + np.linalg.norm(state))


@pytest.mark.parametrize("kind", ["oprl", "opuc"])
@pytest.mark.parametrize("n", [1000, 1001])
def test_chain_at_1_and_81_points(kind, n):
    # every point is computed by the same elementwise operations, so 81 points
    # in one pass give the bits of 81 one-point passes
    coeffs = _chain_coeffs(kind, n, 5)
    zs = np.linspace(-0.9, 0.9, 81) + 0.01j if kind == "oprl" else np.exp(1j * np.linspace(-3, 3, 81))
    state, deriv = _chain_state(kind, coeffs, n, zs)
    for i, point in enumerate(zs):
        one, one_deriv = _chain_state(kind, coeffs, n, [point])
        assert np.array_equal(one[:, 0], state[:, i]) and np.array_equal(one_deriv[:, 0], deriv[:, i])
    for i in (0, 40, 80):
        oracle, _ = _sum_form_state(kind, coeffs, n, zs[i])
        assert np.linalg.norm(state[:, i] - oracle) <= 1e-12 * np.linalg.norm(oracle)


# blocks of ceil(sqrt(n)): 1 and 2 are one block, 16 is 4 blocks of 4, 20 is
# 4 blocks of 5, and 21 and 23 are those and a last block of 1 and 3 steps
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [1, 2, 16, 20, 21, 23])
def test_chain_matches_a_step_by_step_loop(n, dtype):
    rng = np.random.default_rng(n)
    steps = rng.uniform(-0.7, 0.7, (2, n, 2, 2))
    if dtype is complex:
        steps = steps + 0.3j * rng.uniform(-1.0, 1.0, steps.shape)
    c, d = steps
    zs = np.array([0.3 + 0.1j, -0.8 + 0.02j, 1.1])
    state, deriv = oprl._chain(c, d, zs, (1.0, 0.5), True)
    for i, z in enumerate(zs):
        s, ds = np.array([1.0, 0.5], dtype=complex), np.zeros(2, dtype=complex)
        for ck, dk in zip(c, d):
            s, ds = (ck + z * dk) @ s, dk @ s + (ck + z * dk) @ ds
        assert np.linalg.norm(state[:, i] - s) <= 1e-14 * np.linalg.norm(s)
        assert np.linalg.norm(deriv[:, i] - ds) <= 1e-14 * (np.linalg.norm(ds) + np.linalg.norm(s))


def test_chain_reads_its_steps_without_a_copy():
    # the blocks are views of c and d: the chain's own arrays are O(sqrt(n))
    n = 10_000
    c, d = np.random.default_rng(0).uniform(-0.5, 0.5, (2, n, 2, 2))
    tracemalloc.start()
    oprl._chain(c, d, np.array([0.3 + 0.1j]), (1.0, 0.0), True)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < c.nbytes / 2


def test_cd_kernel_overflow_on_the_diagonal_is_typed():
    # the diagonal reads the derivatives: p_n(2.5) grows like 2^n, p'_n too
    rec = RecurrenceCoeffs(a=np.ones(2001), b=np.zeros(2001))
    assert math.isfinite(abs(cd_kernel(rec, 300, 2.5, 2.5)))
    with pytest.raises(KernelOverflowError) as exc:
        cd_kernel(rec, 2000, 2.5, 2.5)
    assert (exc.value.index, exc.value.xi, exc.value.w) == (2000, 2.5, 2.5)


# ---------------------------------------------------------------------------
# integer levels: one rule (oprl._level) at every entry point
# ---------------------------------------------------------------------------

_REC6 = RecurrenceCoeffs(a=np.linspace(0.4, 0.6, 6), b=np.linspace(-0.1, 0.1, 6))
_V6 = VerblunskyCoeffs(np.linspace(0.1, 0.3, 6) * np.exp(0.7j * np.arange(6)))
_GRID = [(0.0, 0.0), (0.5 + 0.2j, -0.3)]

# (call of the level, argument name, least level, top level or None for no top)
_LEVEL_ENTRY_POINTS = {
    "stieltjes_coeffs": (lambda n: stieltjes_coeffs(gallery("chebyshev"), n), "n_max", 1, None),
    "eval_polys": (lambda n: eval_polys(_REC6, n, 0.3 + 0.1j), "n", 0, 6),
    "cd_kernel_sum": (lambda n: cd_kernel(_REC6, n, 0.3, 0.2j, "sum"), "n", 1, 7),
    "cd_kernel_formula": (lambda n: cd_kernel(_REC6, n, 0.3, 0.2j), "n", 1, 6),
    "kernel_diag": (lambda n: kernel_diag(_REC6, n, 0.3), "n", 0, 7),
    "rescaled_cd": (lambda n: rescaled_cd(_REC6, 0.1, RegVarFn(), n, _GRID), "n", 0, 6),
    "nevai_ratio": (lambda n: nevai_ratio(_REC6, 0.3, n), "n", 1, 6),
    "poly_zeros": (lambda n: poly_zeros(_REC6, n), "n", 1, 6),
    "zeros_near": (lambda n: zeros_near(_REC6, n, 0.1, 1), "n", 1, 6),
    "zeros_near_k": (lambda k: zeros_near(_REC6, 6, 0.1, k), "k", 0, None),
    "szego_eval": (lambda n: szego_eval(_V6, n, 0.3 + 0.1j), "n", 0, 6),
    "cd_kernel_circle_sum": (lambda n: opuc.cd_kernel_circle(_V6, n, 0.3, 0.2j, "sum"), "n", 1, 7),
    "cd_kernel_circle_formula": (lambda n: opuc.cd_kernel_circle(_V6, n, 0.3, 0.2j), "n", 1, 6),
    "kernel_diag_circle": (lambda n: opuc.kernel_diag_circle(_V6, n, 0.3), "n", 0, 7),
    "rescaled_cd_circle": (lambda n: opuc.rescaled_cd_circle(_V6, 0.1, RegVarFn(), n, _GRID),
                           "n", 0, 6),
    "jacobi_hamiltonian": (lambda n: canonical.jacobi_hamiltonian(_REC6, n), "n_max", 1, 6),
    "opuc_hamiltonian": (lambda n: canonical.opuc_hamiltonian(_V6, n), "n_max", 1, 6),
}


def _bits(x):
    """A nested result as one flat list of Python scalars, with types."""
    if hasattr(x, "__dataclass_fields__"):
        return [_bits(getattr(x, f)) for f in x.__dataclass_fields__]
    if isinstance(x, (tuple, list)):
        return [_bits(v) for v in x]
    if isinstance(x, np.ndarray):
        return [x.dtype.str, x.shape, x.tobytes()]
    return [type(x).__name__, repr(x)]


@pytest.mark.parametrize("name", list(_LEVEL_ENTRY_POINTS))
def test_integer_level_rule(name):
    # 2.0 raised numpy's bare TypeError (or IndexError) at nine of these, and
    # the others floored or took a fractional level in their own ways
    call, arg, least, top = _LEVEL_ENTRY_POINTS[name]
    assert _bits(call(2.0)) == _bits(call(2)) == _bits(call(np.int64(2)))
    for bad in (2.5, -1, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"{arg} must be an integer >= {least}, got {bad}"):
            call(bad)
    if top is not None:
        call(top)
        with pytest.raises(ValueError, match=f"{arg} = {top + 1} exceeds the top level {top}"):
            call(top + 1)


def test_a_level_beyond_the_sum_form_names_the_level_asked_for():
    # kernel_diag(rec, 22) on 20 coefficients named n = 21, the degree it evaluated
    rec = RecurrenceCoeffs(a=np.ones(20), b=np.zeros(20))
    assert kernel_diag(rec, 21, 0.0) > 0
    with pytest.raises(ValueError, match="n = 22 exceeds the top level 21"):
        kernel_diag(rec, 22, 0.0)


@pytest.mark.parametrize("a, b", [([math.nan, 1.0], [0.0, 0.0]), ([1.0, 1.0], [math.inf, 0.0]),
                                  ([1.0, math.inf], [0.0, 0.0])])
def test_recurrence_coeffs_reject_non_finite(a, b):
    # NaN passed the a_n <= 0 test, and no b was checked at all
    with pytest.raises(ValueError, match="must be finite"):
        RecurrenceCoeffs(a=a, b=b)
