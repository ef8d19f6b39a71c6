import cmath
import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdlab import limit_kernels
from cdlab.canonical import jacobi_hamiltonian, kernel_kh
from cdlab.limit_kernels import (
    DIAGONAL_SWITCH,
    KernelSample,
    ScaleFitError,
    SineKernelOverflowError,
    build_limit_kernel,
    eval_limit_kernel,
    fh_bessel_kernel,
    fit_internal_scale,
    kernel_components,
    pair_kernel,
    sine_kernel,
)
from cdlab.oprl import RecurrenceCoeffs, cd_kernel
from cdlab.opuc import VerblunskyCoeffs, opuc_canonical_kernel
from cdlab.special import (
    GammaOverflowError,
    SeriesConvergenceError,
    SeriesPrecisionError,
    gamma_cx,
    sine_ratio,
)


def sine_closed(z, w):
    u = complex(z) - complex(w).conjugate()
    if abs(u) < 1e-12:
        return 1.0 + 0j
    return cmath.sin(u) / u


def test_build_validation():
    with pytest.raises(ValueError):
        build_limit_kernel(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        build_limit_kernel(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        build_limit_kernel(-0.5, 1.0, 1.0)


def test_build_scale_overflow():
    # Gamma(beta+1)^2 is finite at beta = 98.05, but 2 Gamma(beta+1)^2 is not
    for args in ((1.0, 1.0, 98.05), (1e300, 1e300, 50.0), (0.0, 1e300, 60.0)):
        with pytest.raises(GammaOverflowError):
            build_limit_kernel(*args)
    assert math.isfinite(build_limit_kernel(0.0, 1.0, 98.05).sigma)


def test_symmetric_unit_case_reduces_to_trig():
    # M(0,1,u)=1, M(1,1,u)=e^u, M(1,2,u)=(e^u-1)/u collapse A, B to cos, sin
    spec = build_limit_kernel(1.0, 1.0, 1.0)
    assert spec.case == "two-sided"
    assert abs(spec.alpha) <= 1e-15
    assert abs(spec.kappa - 1.0) <= 1e-12
    for z in (0.3, -1.2 + 0.4j, 2.0 - 1.0j):
        a, b = kernel_components(spec, z)
        assert abs(a - cmath.cos(z)) <= 1e-12
        assert abs(b - cmath.sin(z)) <= 1e-12


def test_one_sided_sigma():
    spec = build_limit_kernel(0.0, 1.0, 1.0)
    assert spec.case == "one-sided"
    assert abs(spec.sigma - 1.0 / math.pi) <= 1e-14
    # sigma_+ = 0 flips the sign
    spec2 = build_limit_kernel(1.0, 0.0, 1.0)
    assert abs(spec2.sigma + 1.0 / math.pi) <= 1e-14


@pytest.mark.parametrize("sigmas_beta", [(0.5, 1.0, 1.5), (0.0, 1.0, 2.5)])
def test_kernel_components_derivative(sigmas_beta):
    # one two-sided and one one-sided spec: derivative=True returns the plain
    # (A, B) bit for bit, and (A', B') match a central difference
    spec = build_limit_kernel(*sigmas_beta)
    h = 1e-5
    for z in (0.7, -1.3 + 0.4j, 2.1 - 0.8j):
        a, b, da, db = kernel_components(spec, z, derivative=True)
        assert (a, b) == kernel_components(spec, z)
        ap, bp = kernel_components(spec, z + h)
        am, bm = kernel_components(spec, z - h)
        assert abs(da - (ap - am) / (2 * h)) <= 1e-8 * max(1.0, abs(da))
        assert abs(db - (bp - bm) / (2 * h)) <= 1e-8 * max(1.0, abs(db))


def _bits(values):
    return [struct.pack("<2d", v.real, v.imag) for v in values]


def _fresh(spec, z, derivative=False):
    # an evaluation that neither reads nor fills the memo; like
    # kernel_components, it reflects a z whose imaginary part has its sign bit set
    if math.copysign(1.0, z.imag) < 0:
        return [c.conjugate() for c in _fresh(spec, z.conjugate(), derivative)]
    with mock.patch.object(limit_kernels, "_sums", limit_kernels._sums.__wrapped__):
        return kernel_components(spec, z, derivative)


@pytest.mark.parametrize("sigmas_beta", [(0.5, 1.0, 1.5), (0.0, 1.0, 2.5)])
@pytest.mark.parametrize("derivative", [False, True])
def test_memo_returns_fresh_bits(sigmas_beta, derivative):
    limit_kernels._sums.cache_clear()
    spec = build_limit_kernel(*sigmas_beta)
    for z in (0.7 + 0j, -1.3 + 0.4j, 2.1 - 0.8j):
        first = kernel_components(spec, z, derivative)
        again = kernel_components(spec, z, derivative)
        assert _bits(first) == _bits(again) == _bits(_fresh(spec, z, derivative))
    assert limit_kernels._sums.cache_info().hits == 3


def test_memo_keeps_the_sign_of_zero():
    # x - 0j is read as the conjugate of x + 0j: on the one-sided spec at
    # x < 0 the two differ in the sign of a zero imaginary part
    limit_kernels._sums.cache_clear()
    spec = build_limit_kernel(0.0, 1.0, 2.5)
    plus, minus = complex(-0.7, 0.0), complex(-0.7, -0.0)
    assert _bits(_fresh(spec, plus)) != _bits(_fresh(spec, minus))
    for z in (plus, minus, plus, minus):
        assert _bits(kernel_components(spec, z)) == _bits(_fresh(spec, z))


def test_memo_separates_specs():
    limit_kernels._sums.cache_clear()
    z = 0.4 - 0.2j
    specs = (build_limit_kernel(1.0, 1.0, 1.5), build_limit_kernel(1.0, 2.0, 1.5),
             build_limit_kernel(0.0, 1.0, 1.5))
    for spec in specs + specs:
        assert _bits(kernel_components(spec, z)) == _bits(_fresh(spec, z))


def test_memo_does_not_cache_failures():
    limit_kernels._sums.cache_clear()
    spec = build_limit_kernel(1, 1, 1)
    for _ in range(2):
        with pytest.raises(SeriesPrecisionError):
            kernel_components(spec, 20)
    info = limit_kernels._sums.cache_info()
    assert (info.misses, info.currsize) == (2, 0)
    # a NaN point is not looked up at all
    for _ in range(2):
        with pytest.raises(SeriesConvergenceError):
            kernel_components(spec, complex(math.nan, 0.0))
    assert limit_kernels._sums.cache_info() == info


@pytest.mark.parametrize("sigmas_beta, series, sums", [((0.5, 1.0, 1.5), "kummer_m", 5),
                                                      ((0.0, 1.0, 2.5), "hyp0f1", 3)])
def test_memo_sums_each_series_once_per_point(monkeypatch, sigmas_beta, series, sums):
    # a fresh point asked for plain, then with derivative, then plain again sums
    # the series of A and B once and only adds those of A' and B': 3 + 2 Kummer
    # M (two-sided) or 2 + 1 0F1 (one-sided), not 3 + 5 or 2 + 3
    spec = build_limit_kernel(*sigmas_beta)
    z = 0.6 + 0.3j
    fresh = _fresh(spec, z, True)
    limit_kernels._sums.cache_clear()
    calls = []
    real = getattr(limit_kernels, series)
    monkeypatch.setattr(limit_kernels, series, lambda *args: calls.append(args) or real(*args))
    assert _bits(kernel_components(spec, z)) == _bits(fresh[:2])
    assert _bits(kernel_components(spec, z, True)) == _bits(fresh)
    assert _bits(kernel_components(spec, z)) == _bits(fresh[:2])
    assert len(calls) == sums


# pairs of points that share one memo entry: a zero real part of either sign,
# and x + 0j with x - 0j, which kernel_components reflects to x + 0j
_SHARED_KEYS = [(complex(0.0, 0.7), complex(-0.0, 0.7)), (complex(0.0, 0.0), complex(-0.0, 0.0)),
                (complex(0.0, -0.7), complex(-0.0, -0.7)), (complex(-1.3, 0.0), complex(-1.3, -0.0)),
                (complex(0.6, 0.0), complex(0.6, -0.0))]


@pytest.mark.parametrize("sigmas_beta", [(0.5, 1.0, 1.5), (1.0, 1.0, 1.0), (0.0, 1.0, 2.5),
                                         (1.0, 0.0, 1.5)])
@pytest.mark.parametrize("derivatives", [(False, False), (False, True), (True, False),
                                         (True, True)])
def test_memo_hit_across_a_shared_key_returns_fresh_bits(sigmas_beta, derivatives):
    # the memo is keyed on z itself: each point of a pair, in either order,
    # gets the bits of its own fresh evaluation from the entry the other filled
    spec = build_limit_kernel(*sigmas_beta)
    for pair in _SHARED_KEYS:
        for order in (pair, pair[::-1]):
            limit_kernels._sums.cache_clear()
            for z, derivative in zip(order, derivatives):
                got = kernel_components(spec, z, derivative)
                assert _bits(got) == _bits(_fresh(spec, z, derivative)), (order, z)
            assert limit_kernels._sums.cache_info().hits == 1


def test_kappa_legendre_duplication():
    # the Fisher-Hartwig zero study scales its zeros by this kappa
    for beta in (0.5, 1.0, 1.5, 2.0, 3.0):
        spec = build_limit_kernel(1.0, 1.0, beta)
        g = gamma_cx(beta / 2.0 + 1.0).real
        dup = 2.0 * (2.0 * g * g / math.pi) ** (1.0 / beta)
        assert abs(spec.kappa - dup) <= 1e-14 * dup
    assert abs(build_limit_kernel(1.0, 1.0, 1.0).kappa - 1.0) <= 1e-13


def test_eval_examples():
    spec = build_limit_kernel(1.0, 1.0, 1.0)
    assert abs(eval_limit_kernel(spec, 0.0, 0.0) - 1.0) <= 1e-12
    z, w = 0.3, 0.1 - 0.2j
    assert abs(eval_limit_kernel(spec, z, w) - sine_closed(z, w)) <= 1e-12
    spec2 = build_limit_kernel(0.0, 1.0, 2.0)
    assert abs(eval_limit_kernel(spec2, 0.0, 0.0) - 1.0) <= 1e-12


def test_k111_equals_sine_on_grid():
    spec = build_limit_kernel(1.0, 1.0, 1.0)
    ax = np.linspace(-3.0, 3.0, 5)
    pts = [complex(x, y) for x in ax for y in ax]
    worst = max(
        abs(eval_limit_kernel(spec, z, w) - sine_closed(z, w))
        for z in pts for w in pts[:7]
    )
    assert worst <= 1e-10


def test_sine_kernel_examples():
    assert abs(sine_kernel(0.0, 0.0) - 1.0) <= 1e-15
    assert abs(sine_kernel(1.0, 0.0)) <= 1e-15
    assert abs(sine_kernel(0.5, 0.0) - 2.0 / math.pi) <= 1e-15


def test_sine_kernel_overflow_is_typed():
    # cmath.sin raised a bare OverflowError ("math range error")
    with pytest.raises(SineKernelOverflowError, match=r"sine_kernel\(\(300\+300j\), 0\.3\)"):
        sine_kernel(300 + 300j, 0.3)
    assert issubclass(SineKernelOverflowError, OverflowError)


@pytest.mark.parametrize("z, w", [(math.inf, 0.3), (0.3, complex(0.0, -math.inf)), (math.nan, 0.0)])
def test_sine_kernel_rejects_non_finite(z, w):
    # sine_kernel(inf, 0.3) returned nan+nanj
    with pytest.raises(ValueError, match="sine_kernel needs a finite z - conj w"):
        sine_kernel(z, w)


def test_sine_kernel_in_range_bits():
    # the finiteness and overflow checks leave every in-range value as it was
    for z, w in [(0.0, 0.0), (0.5, 0.0), (1.3 - 0.2j, -0.4 + 0.7j), (3 + 200j, 1.0)]:
        got = sine_kernel(z, w)
        expect = sine_ratio(math.pi * (complex(z) - complex(w).conjugate()))
        assert struct.pack("dd", got.real, got.imag) == struct.pack("dd", expect.real, expect.imag)


def test_fh_bessel_kernel_names_a_tiny_beta():
    # beta/2 - 1 rounded to -1 and bessel_f said "requires nu > -1, got -1.0"
    for beta in (1e-300, 0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match=f"got beta = {beta}"):
            fh_bessel_kernel(beta, 0.5, 0.3)


def test_fh_bessel_kernel_diag_normalization():
    for beta in (1.0, 2.0):
        assert abs(fh_bessel_kernel(beta, 0.0, 0.0) - 1.0) <= 1e-12


def test_fh_bessel_matches_limit_kernel():
    pts = [0.0, 0.4 + 0.3j, -1.1 + 0.2j, 2.0 - 0.7j, 1.3]
    for beta in (1.0, 2.0, 3.0):
        spec = build_limit_kernel(1.0, 1.0, beta)
        for z in pts:
            for w in pts:
                a = eval_limit_kernel(spec, z, w)
                b = fh_bessel_kernel(beta, z, w)
                assert abs(a - b) <= 1e-10 * (1.0 + abs(a))


def _samples_from(kernel, pts):
    return [KernelSample(z=z, w=w, value=kernel(z, w)) for z in pts for w in pts]


def test_fit_internal_scale_sine_vs_printed():
    # |z| <= 0.75 keeps the evaluation of K(pi z, pi w) itself well below the
    # residual target (larger windows hit e^{pi |Im u|} series amplification)
    spec = build_limit_kernel(1.0, 1.0, 1.0)
    ax = np.linspace(-0.75, 0.75, 3)
    pts = [complex(x, y) for x in ax for y in ax]
    fit = fit_internal_scale(_samples_from(sine_kernel, pts), spec)
    assert abs(fit.c - math.pi) <= 1e-6
    assert fit.residual <= 1e-10


def test_fit_evaluates_each_point_once_per_scale(monkeypatch):
    # 9 points and their 9 conjugates per scale instead of 162 evaluations,
    # each point's M summed once, and a scale's sup cut off once it loses; a
    # deterministic stand-in for the fit's wall time (60,719 calls without
    # the memo, 5,420 with the memo alone, 2,180 measured)
    limit_kernels._sums.cache_clear()
    calls = []
    real_kummer_m = limit_kernels.kummer_m

    def counting_kummer_m(*args):
        calls.append(args)
        return real_kummer_m(*args)

    monkeypatch.setattr(limit_kernels, "kummer_m", counting_kummer_m)
    ax = np.linspace(-0.75, 0.75, 3)
    pts = [complex(x, y) for x in ax for y in ax]
    fit = fit_internal_scale(_samples_from(sine_kernel, pts), build_limit_kernel(1, 1, 1))
    assert len(calls) <= 2_500
    assert abs(fit.c - math.pi) <= 1e-6


@pytest.mark.parametrize("scale, edge", [(500.0, "1e2"), (1 / 500.0, "1e-2")])
def test_fit_rejects_a_scale_at_the_scan_boundary(scale, edge):
    # the true scale lies outside [1e-2, 1e2]: the scan's best point is an end
    pts = [-0.75, -0.31, 0.05, 0.42, 0.7]
    samples = _samples_from(lambda z, w: sine_kernel(scale * z, scale * w), pts)
    with pytest.raises(ScaleFitError, match=f"c = {edge} "):
        fit_internal_scale(samples, sine_kernel)


def test_fit_internal_scale_self():
    spec = build_limit_kernel(0.5, 1.5, 1.2)
    ax = np.linspace(-1.5, 1.5, 3)
    pts = [complex(x, y) for x in ax for y in ax]
    fit = fit_internal_scale(
        _samples_from(lambda z, w: eval_limit_kernel(spec, z, w), pts), spec
    )
    assert abs(fit.c - 1.0) <= 1e-6


def test_fit_internal_scale_scaled_family():
    spec = build_limit_kernel(1.0, 1.0, 1.0)
    a = 2.0
    ax = np.linspace(-1.0, 1.0, 3)
    pts = [complex(x, y) for x in ax for y in ax]
    samples = _samples_from(
        lambda z, w: eval_limit_kernel(spec, a * z, a * w), pts
    )
    fit = fit_internal_scale(samples, spec)
    assert abs(fit.c - a) <= 1e-6


def test_fit_needs_samples():
    with pytest.raises(ValueError):
        fit_internal_scale([KernelSample(0, 0, 1.0)] * 5, sine_kernel)


def test_fit_rejects_samples_without_finite_objective():
    samples = [KernelSample(0.1 * k, 0.0, complex(math.nan)) for k in range(12)]
    with pytest.raises(ScaleFitError):
        fit_internal_scale(samples, sine_kernel)


def _unbounded_fit(samples, target):
    # fit_internal_scale's search with an objective that always sums every
    # pair, over numpy arrays: the reference whose bits the bounded objective
    # must keep
    zs = np.array([s.z for s in samples], dtype=complex)
    ws = np.array([s.w for s in samples], dtype=complex)
    vals = np.array([s.value for s in samples], dtype=complex)

    def objective(log_c):
        c = math.exp(log_c)
        worst = 0.0
        for z, w, val in zip(zs, ws, vals):
            try:
                pred = target(c * z, c * w)
            except (OverflowError, RuntimeError):
                return math.inf
            d = abs(val - pred)
            if not math.isfinite(d):
                return math.inf
            worst = max(worst, d)
        return worst

    grid = np.linspace(math.log(1e-2), math.log(1e2), 81)
    vals_grid = [objective(x) for x in grid]
    i = int(np.argmin(vals_grid))
    if not math.isfinite(vals_grid[i]):
        raise ScaleFitError("no scale in [1e-2, 1e2] gives a finite sup-error")
    if i in (0, len(grid) - 1):
        edge = "1e-2" if i == 0 else "1e2"
        raise ScaleFitError(f"the scan's best scale is the boundary c = {edge} of [1e-2, 1e2]")
    a, b = grid[i - 1], grid[i + 1]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - phi * (b - a), a + phi * (b - a)
    f1, f2 = objective(x1), objective(x2)
    for _ in range(90):
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = objective(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = objective(x2)
        if b - a < 1e-14:
            break
    log_c = (a + b) / 2.0
    return math.exp(log_c), objective(log_c)


def _grid_points(half_width):
    ax = np.linspace(-half_width, half_width, 3)
    return [complex(x, y) for x in ax for y in ax]


def _scaled(kernel, c):
    return lambda z, w: kernel(c * z, c * w)


_JUMP = build_limit_kernel(0.5, 1.0, 1.0)
_ONE_SIDED = build_limit_kernel(0.0, 1.0, 2.5)
_PRINTED = build_limit_kernel(1.0, 1.0, 1.0)


def _noisy(samples, size, seed=3):
    # samples off the family, as a finite-n kernel's are: the pair that sets
    # the sup moves with c, which a wrong stopping rule does not survive
    noise = np.random.default_rng(seed).normal(size=(len(samples), 2)) @ [1.0, 1j]
    return [KernelSample(s.z, s.w, s.value + size * e) for s, e in zip(samples, noise)]


_JUMP_SAMPLES = _samples_from(_scaled(_JUMP, math.pi * (1 + 1e-3)), _grid_points(1.0))


@pytest.mark.parametrize("samples, target", [
    (_JUMP_SAMPLES, _JUMP),
    (_samples_from(_scaled(_ONE_SIDED, 1.7), _grid_points(1.0)), _ONE_SIDED),
    (_samples_from(sine_kernel, _grid_points(0.75)), _PRINTED),
    (_samples_from(_scaled(_PRINTED, 2.0), _grid_points(1.0)), _PRINTED),
    (_noisy(_JUMP_SAMPLES, 1e-2), _JUMP),
], ids=["jump", "one-sided", "sine-vs-printed", "scaled-family", "noisy-jump"])
def test_bounded_fit_returns_the_bits_of_the_unbounded_one(samples, target):
    fit = fit_internal_scale(samples, target)
    c, residual = _unbounded_fit(samples, target)
    assert type(fit.c) is float and type(fit.residual) is float
    assert struct.pack("<2d", fit.c, fit.residual) == struct.pack("<2d", c, residual)


@pytest.mark.parametrize("samples, target", [
    ([KernelSample(0.1 * k, 0.0, complex(math.nan)) for k in range(12)], sine_kernel),
    (_samples_from(_scaled(sine_kernel, 500.0), [-0.75, -0.31, 0.05, 0.42, 0.7]), sine_kernel),
    (_samples_from(_scaled(sine_kernel, 1 / 500.0), [-0.75, -0.31, 0.05, 0.42, 0.7]),
     sine_kernel),
    # every scan value ties, and the first, c = 1e-2, must still win
    (_samples_from(sine_kernel, _grid_points(1.0)), lambda z, w: 0.5),
], ids=["nan", "scale-500", "scale-1/500", "constant-target"])
def test_bounded_fit_raises_as_the_unbounded_one(samples, target):
    with pytest.raises(ScaleFitError) as unbounded:
        _unbounded_fit(samples, target)
    with pytest.raises(ScaleFitError) as bounded:
        fit_internal_scale(samples, target)
    assert str(bounded.value) == str(unbounded.value)


@settings(max_examples=25, deadline=None)
@given(
    zr=st.floats(-2, 2), zi=st.floats(-2, 2),
    wr=st.floats(-2, 2), wi=st.floats(-2, 2),
)
def test_hermitian_symmetry(zr, zi, wr, wi):
    z, w = complex(zr, zi), complex(wr, wi)
    for spec in (build_limit_kernel(1.0, 1.0, 1.5),
                 build_limit_kernel(0.0, 2.0, 0.8),
                 build_limit_kernel(0.5, 2.0, 1.0)):
        a = eval_limit_kernel(spec, z, w)
        b = eval_limit_kernel(spec, w, z)
        assert abs(a - b.conjugate()) <= 1e-12 * (1.0 + abs(a))


def test_gram_positivity():
    rng = np.random.default_rng(11)
    for sm in (0.0, 0.5, 1.0, 2.0):
        for sp in (0.0, 0.5, 1.0, 2.0):
            if sm == 0.0 and sp == 0.0:
                continue
            for beta in (0.5, 1.0, 1.5, 2.0):
                spec = build_limit_kernel(sm, sp, beta)
                pts = [complex(a, b) for a, b in rng.uniform(-2, 2, (6, 2))]
                gram = np.array([[eval_limit_kernel(spec, zi, zj) for zj in pts]
                                 for zi in pts])
                evals = np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)
                assert evals[0] >= -1e-8 * max(np.trace(gram).real, 1e-10)


def test_confluent_consistency():
    # difference-quotient branch and derivative branch agree as h -> 0
    spec = build_limit_kernel(1.0, 2.0, 1.3)
    z = 0.7 + 0.2j
    k_diag = eval_limit_kernel(spec, z, z.conjugate())  # derivative branch
    for h in (1e-6, 1e-7):
        k_off = eval_limit_kernel(spec, z + h, z.conjugate())
        assert abs(k_off - k_diag) <= 1e-6 * (1.0 + abs(k_diag))


def test_pair_kernel_of_cos_sin_is_the_sine_kernel():
    # (A, B) = (cos, sin): K = sin(z - conj w) / (z - conj w), K(x, x) = 1
    def components(x, derivative):
        pair = (cmath.cos(x), cmath.sin(x))
        return pair + (-cmath.sin(x), cmath.cos(x)) if derivative else pair

    for z, w in ((0.3, 0.3), (0.4 + 0.2j, -1.1 + 0.5j), (1.2 - 0.3j, 1.2 + 0.3j)):
        assert abs(pair_kernel(components, complex(z), complex(w)) - sine_closed(z, w)) <= 1e-15


def _pair_sources():
    """Every kernel built on pair_kernel, at level n = 20 where it has one."""
    n = np.arange(1, 21)
    rec = RecurrenceCoeffs(a=n / np.sqrt(4.0 * n * n - 1.0), b=np.zeros(20))  # Legendre
    ham = jacobi_hamiltonian(rec, 20)
    rng = np.random.default_rng(5)
    v = VerblunskyCoeffs(rng.uniform(-0.4, 0.4, 20) + 1j * rng.uniform(-0.4, 0.4, 20))
    two_sided, one_sided = build_limit_kernel(0.5, 2.0, 1.3), build_limit_kernel(0.0, 2.0, 0.8)
    return {
        "cd_kernel": lambda z, w: cd_kernel(rec, 20, z, w),
        "kernel_kh": lambda z, w: kernel_kh(ham, 19.5, z, w),
        "two-sided": lambda z, w: eval_limit_kernel(two_sided, z, w),
        "one-sided": lambda z, w: eval_limit_kernel(one_sided, z, w),
        "fh_bessel_kernel": lambda z, w: fh_bessel_kernel(1.5, z, w),
        "opuc_canonical_kernel": lambda z, w: opuc_canonical_kernel(v, 19.5, z, w),
    }


@pytest.mark.parametrize("source", sorted(_pair_sources()))
def test_kernels_agree_across_the_diagonal_switch(source):
    # |z - conj w| = 0.99 x DIAGONAL_SWITCH takes the confluent branch at the
    # midpoint, 1.01 x the difference quotient; both sides are Hermitian
    kernel = _pair_sources()[source]
    for z in (0.3 + 0j, -1.2 + 0.5j, 1.7 - 0.4j, 0.05 + 1.9j):
        for angle in (0.0, 1.0, math.pi / 2, 2.5):
            near, far = (complex(z - r * DIAGONAL_SWITCH * cmath.exp(1j * angle)).conjugate()
                         for r in (0.99, 1.01))
            k_near, k_far = kernel(z, near), kernel(z, far)
            assert abs(k_near - k_far) <= 1e-6 * (1.0 + abs(k_near))
            for w, k in ((near, k_near), (far, k_far)):
                assert abs(k - kernel(w, z).conjugate()) <= 1e-12 * (1.0 + abs(k))
