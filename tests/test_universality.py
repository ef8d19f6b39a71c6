import functools
import math
import pathlib

import numpy as np
import pytest

from cdlab import universality
from cdlab.cli import _sparse_size, load_config
from cdlab.canonical import jacobi_hamiltonian, kernel_kh, rescaled_schrodinger
from cdlab.limit_kernels import (ZeroDiagonalError, build_limit_kernel, fit_internal_scale,
                                 sine_kernel)
from cdlab.measures import RegVarFn, asymptotic_inverse, gallery
from cdlab.oprl import (KernelOverflowError, RecurrenceCoeffs, kernel_diag, poly_zeros, rescaled_cd,
                        stieltjes_coeffs)
from cdlab.opuc import VerblunskyCoeffs, rescaled_cd_circle
from cdlab.special import gamma_cx
from cdlab.universality import (
    complex_grid_pairs,
    convergence_study,
    real_grid_pairs,
    sparse_diagnostics,
    sparse_jacobi,
    zero_study,
)


@pytest.fixture(scope="module")
def leg():
    return stieltjes_coeffs(gallery("legendre"), 121)


def test_grid_contains_origin():
    for pp in (3, 4, 5):
        grid = real_grid_pairs(2.0, pp)
        assert any(z == 0 and w == 0 for z, w in grid)
        cgrid = complex_grid_pairs(1.0, pp)
        assert any(z == 0 and w == 0 for z, w in cgrid)


def test_convergence_study_bulk_small(leg):
    h = RegVarFn(scale=0.5, index=1.0)
    grid = real_grid_pairs(2.0, 5)
    rep = convergence_study(functools.partial(rescaled_cd, leg, 0.0, h), sine_kernel,
                            [30, 60, 120], grid, 0.05)
    assert rep.passed
    assert rep.sup_errors[0] > rep.sup_errors[-1]
    assert abs(rep.fitted_scale - 1.0) <= 1e-3
    # the report keeps the samples of each index on the grid
    assert list(rep.samples_by_index) == [30, 60, 120]
    for n, samples in rep.samples_by_index.items():
        assert samples == rescaled_cd(leg, 0.0, h, n, grid)


def test_convergence_study_samples_each_level_once(leg):
    # the top level was sampled twice, once on FIT_GRID for the fit and once
    # on grid; one call on both now serves the fit and the study, bit for bit
    h = RegVarFn(scale=0.5, index=1.0)
    grid = real_grid_pairs(2.0, 5)
    sampler = functools.partial(rescaled_cd, leg, 0.0, h)
    calls = []

    def counting(idx, pairs):
        calls.append((idx, list(pairs)))
        return sampler(idx, pairs)

    rep = convergence_study(counting, sine_kernel, [30, 120, 60, 120], grid, 0.05)
    assert [idx for idx, _ in calls] == [120, 30, 60]
    assert calls[0][1] == universality.FIT_GRID + grid
    assert all(pairs == grid for _, pairs in calls[1:])
    assert list(rep.samples_by_index) == [30, 120, 60]
    for n, samples in rep.samples_by_index.items():
        assert samples == sampler(n, grid)
    fit = fit_internal_scale(sampler(120, universality.FIT_GRID), sine_kernel)
    assert (rep.fitted_scale, rep.fitted_scale_residual) == (fit.c, fit.residual)
    assert rep.sup_errors[1] == rep.sup_errors[3]


def test_convergence_study_self_target(leg):
    # target = the source's own rescaled kernel at the same index -> error 0
    h = RegVarFn(scale=0.5, index=1.0)
    grid = real_grid_pairs(1.0, 4)

    def target(z, w):
        return rescaled_cd(leg, 0.0, h, 60, [(z, w)])[0].value

    rep = convergence_study(functools.partial(rescaled_cd, leg, 0.0, h), target, [60],
                            grid, 1e-9)
    assert rep.sup_errors[0] <= 1e-9
    assert abs(rep.fitted_scale - 1.0) <= 1e-9


def test_convergence_study_requires_origin(leg):
    h = RegVarFn(scale=0.5, index=1.0)
    with pytest.raises(ValueError):
        convergence_study(functools.partial(rescaled_cd, leg, 0.0, h), sine_kernel, [30],
                          [(1.0, 0.0)], 0.1)


def test_grid_density_robustness(leg):
    # doubling the grid density changes the sup error by < 10%
    h = RegVarFn(scale=0.5, index=1.0)
    errs = []
    # non-resonant spacings (2/3 and 1/3): integer-u grids are degenerate
    # because the sine kernel vanishes there
    for pp in (7, 13):
        rep = convergence_study(functools.partial(rescaled_cd, leg, 0.0, h), sine_kernel, [100],
                                real_grid_pairs(2.0, pp), 1.0)
        errs.append(rep.sup_errors[0])
    assert abs(errs[1] - errs[0]) <= 0.1 * max(errs)


def test_zero_study_clock(leg):
    h = RegVarFn(scale=0.5, index=1.0)
    zr = zero_study(leg, 0.0, h, "clock", [60, 120], 3)
    assert zr.max_rel_error_ratios <= 0.05
    assert all(abs(v - 1.0) <= 0.12 for v in zr.scaled_zeros.values())


def test_zero_study_hard_edge_ratio_law():
    beta = 1.5
    rec = stieltjes_coeffs(gallery("power_hard_edge", beta=beta), 150)
    h = RegVarFn(scale=1.0, index=1.0 / beta)
    zr = zero_study(rec, 0.0, h, "hard_edge", [75, 150], 3)
    assert zr.max_rel_error_ratios <= 0.02
    # measured exponent of h(K) is the proof's first power, not the square
    assert abs(zr.extras["exponent"] - 1.0) <= 0.05


@pytest.mark.parametrize("beta", [0.5, 1.5, 2.0, 3.0])
def test_hard_edge_takes_the_family_sigma(beta):
    # the hard-edge study's 1/(4 sigma) takes the one-sided sigma of
    # build_limit_kernel, bit for bit (Gamma(beta+1)^2/pi)^(1/beta)
    sigma = (gamma_cx(beta + 1.0).real ** 2 / math.pi) ** (1.0 / beta)
    assert build_limit_kernel(0.0, 1.0, beta).sigma == sigma
    rec = stieltjes_coeffs(gallery("power_hard_edge", beta=beta), 60)
    zr = zero_study(rec, 0.0, RegVarFn(scale=1.0, index=1.0 / beta), "hard_edge", [60], 3)
    assert zr.extras["candidate_constants"][
        "one-sided component prediction 1/(4 sigma)"] == 1.0 / (4.0 * sigma)


def test_zero_study_even_fh():
    beta = 2.0
    rec = stieltjes_coeffs(gallery("even_fh", beta=beta), 2 * 60 + 1)
    h = asymptotic_inverse(RegVarFn(scale=2.0, index=beta))
    zr = zero_study(rec, 0.0, h, "even_fh", [30, 60], 3)
    assert zr.max_rel_error_ratios <= 0.02
    # odd-degree polynomials of an even measure vanish at 0 exactly
    from cdlab.oprl import eval_polys

    p, _ = eval_polys(rec, 61, 0.0)
    assert p[61] == 0.0
    assert max(zr.extras["odd_zero_at_origin"].values()) <= 1e-12


def test_zero_study_scale_invariance(leg):
    # ratio outputs are invariant under h -> c h (bit-for-bit after division)
    rec = stieltjes_coeffs(gallery("power_hard_edge", beta=1.5), 100)
    out = []
    for scale in (1.0, 3.7):
        h = RegVarFn(scale=scale, index=1.0 / 1.5)
        zr = zero_study(rec, 0.0, h, "hard_edge", [100], 3)
        out.append((zr.max_rel_error_ratios, zr.extras["ratio_errors_by_n"][100]))
    # the ratio law is computed from raw zeros, so it is bit-identical
    assert out[0] == out[1]


def _zero_study_cases():
    leg = stieltjes_coeffs(gallery("legendre"), 121)
    hard = stieltjes_coeffs(gallery("power_hard_edge", beta=1.5), 150)
    even = stieltjes_coeffs(gallery("even_fh", beta=2.0), 121)
    return [
        (leg, 0.0, RegVarFn(scale=0.5, index=1.0), "clock", [60, 120], 3),
        # only two zeros right of xi at n = 60: the window is clipped at index n
        (leg, 0.99, RegVarFn(scale=0.5, index=1.0), "clock", [60, 120], 3),
        # a hard edge at 0: the window is clipped at index 0
        (hard, 0.0, RegVarFn(scale=1.0, index=1.0 / 1.5), "hard_edge", [75, 150], 3),
        (even, 0.0, asymptotic_inverse(RegVarFn(scale=2.0, index=2.0)), "even_fh",
         [30, 60], 3),
    ]


def test_zero_study_window_matches_full_spectrum(monkeypatch):
    windowed = [zero_study(*case) for case in _zero_study_cases()]
    monkeypatch.setattr(universality, "zeros_near",
                        lambda rec, n, xi, k: (0, poly_zeros(rec, n)))
    for case, report in zip(_zero_study_cases(), windowed):
        assert zero_study(*case) == report, case[3]


@pytest.mark.parametrize("xi", [1.5, -1.5])
def test_clock_study_outside_the_zeros(leg, xi):
    # right (or left) of every zero of p_n there is no gap around xi to scale
    with pytest.raises(universality.ZeroWindowError, match="no zero on one side") as info:
        zero_study(leg, xi, RegVarFn(scale=0.5, index=1.0), "clock", [60, 120], 3)
    assert (info.value.mode, info.value.n, info.value.xi) == ("clock", 60, xi)


@pytest.mark.parametrize("mode, n_values", [
    ("hard_edge", [30, 60]),
    ("even_fh", [14, 29]),
])
def test_zero_study_without_zero_right_of_xi(leg, mode, n_values):
    with pytest.raises(universality.ZeroWindowError) as info:
        zero_study(leg, 1.5, RegVarFn(scale=1.0, index=1.0), mode, n_values, 3)
    assert (info.value.mode, info.value.xi) == (mode, 1.5)
    assert info.value.n in (n_values[0], 2 * n_values[0])
    assert isinstance(info.value, ValueError)


def test_zero_study_window_too_narrow(leg, monkeypatch):
    # a window that misses a zero the study reads must raise, not shrink
    def narrow(rec, n, xi, k):
        return 1, poly_zeros(rec, n)[1:n // 2 + 1]

    monkeypatch.setattr(universality, "zeros_near", narrow)
    with pytest.raises(universality.ZeroWindowError, match="too close"):
        zero_study(leg, -0.999, RegVarFn(scale=0.5, index=1.0), "clock", [60], 3)


def test_sparse_jacobi_construction():
    rec = sparse_jacobi([0.5, 0.25], 4.0, 4.0, 40)
    assert rec.b[3] == 0.5 and rec.b[15] == 0.25
    assert np.sum(rec.b != 0.0) == 2
    assert np.all(rec.a == 1.0)
    with pytest.raises(ValueError):
        # decreasing positions: 10 -> 5
        sparse_jacobi([0.1, 0.1], 10.0, 0.5, 40)
    # round(first ratio^j) at 1, 1.1: the positions 1, 1 repeat
    with pytest.raises(ValueError, match=r"first = 1\.0, ratio = 1\.1"):
        sparse_jacobi([0.1] * 3, 1.0, 1.1, 40)
    # rounded positions whose ratios N_{j+1}/N_j are not monotone (2.5, 2.48, 2.52)
    rec = sparse_jacobi([1.0, 2.0, 3.0, 4.0, 5.0], 4.0, 2.5, 200)
    assert list(np.flatnonzero(rec.b) + 1) == [4, 10, 25, 62, 156]
    assert list(rec.b[[3, 9, 24, 61, 155]]) == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_sparse_free_diagnostics():
    rec = sparse_jacobi([], 4.0, 4.0, 2000)
    dat = sparse_diagnostics(rec, 0.0)
    # free Jacobi: ||A_n||^2 = 1/2 and K(n,0,0)/n -> 1/2 against direct sums
    assert np.max(np.abs(dat.norms_sq - 0.5)) <= 1e-12
    assert abs(kernel_diag(rec, 2000, 0.0) / 2000.0 - 0.5) <= 1e-3
    # at xi = 0, K(t, 0, 0) is predicted as g_xi(t) / (2 pi)
    assert abs(dat.g_xi(2000) / (2.0 * math.pi) - kernel_diag(rec, 2000, 0.0)) <= 1.0
    assert abs(dat.g_xi(1000) - math.pi * 1000.0) <= 1e-9
    # its inverse: g_xi(t) = pi t, so h(pi t) = t
    h = dat.scaling_inverse()
    assert abs(h(math.pi * 1000.0) - 1000.0) <= 1e-9
    # the diagnostics divide by 4 - xi^2: only the bulk (-2, 2) is valid
    for xi in (2.0, -2.5):
        with pytest.raises(ValueError):
            sparse_diagnostics(rec, xi)


def test_sparse_block_constancy_nonzero_xi():
    # the constancy of ||A_n|| between bumps is nontrivial away from 0
    n_max = 4000
    v = np.arange(1, 8, dtype=float) ** -0.5
    rec = sparse_jacobi(v, 4.0, 4.0, n_max)
    dat = sparse_diagnostics(rec, 0.5)
    assert dat.block_deviation <= 1e-12


@pytest.mark.parametrize("xi", [0.0, 0.5])
def test_sparse_diagnostics_diagonal_is_kernel_diag(xi):
    # the packaged sparse matrix; its run reads K(t) and K(2t) off dat.k
    # instead of two more recurrences at xi
    settings = load_config(pathlib.Path(__file__).resolve().parents[1]
                           / "configs" / "sparse.json").settings
    t = max(settings["n_values"])
    n_max, count = _sparse_size(settings["n_values"], settings["ratio"])
    v = np.arange(1, count + 1, dtype=float) ** settings["v_exponent"]
    rec = sparse_jacobi(v, settings["first"], settings["ratio"], n_max)
    dat = sparse_diagnostics(rec, xi)
    assert dat.k.shape == (n_max + 1,)
    for n in (1, t, 2 * t, n_max + 1):
        assert dat.k[n - 1] == kernel_diag(rec, n, xi)


def test_sparse_diagnostics_overflow_is_typed():
    # b_n = 10 makes p_n(0) grow like 10^n: the recurrence rescales near n = 280
    rec = RecurrenceCoeffs(a=np.ones(400), b=np.full(400, 10.0))
    with pytest.raises(KernelOverflowError, match=r"K\(401, 0.0, 0.0\)"):
        sparse_diagnostics(rec, 0.0)
    with pytest.raises(KernelOverflowError):
        kernel_diag(rec, 401, 0.0)


def test_sparse_regular_variation_of_kernel():
    n_max = 20000
    v = np.arange(1, 10, dtype=float) ** -0.5
    rec = sparse_jacobi(v, 4.0, 4.0, n_max)
    k1 = kernel_diag(rec, 10000, 0.0)
    k2 = kernel_diag(rec, 20000, 0.0)
    assert 1.9 <= k2 / k1 <= 2.1


def test_schrodinger_source_convergence():
    h = RegVarFn(scale=1.0 / math.pi, index=1.0)
    grid = real_grid_pairs(1.0, 5)
    sampler = functools.partial(rescaled_schrodinger, lambda y: 0.0, 0.0, 1.0, h)
    rep = convergence_study(sampler, sine_kernel, [50.0, 100.0, 200.0], grid, 0.05)
    assert rep.passed


def test_weyl_disk_radius():
    import numpy as np
    from cdlab.canonical import Hamiltonian, weyl

    h = Hamiltonian.constant(np.eye(2) / 2.0, length=50.0, tail=True)
    assert weyl(h, 1j, 40.0)[1] < 1e-8
    assert weyl(h, 1j, 0.5)[1] >= 1e-12


# each source enters as its sampler, with the source, xi = 0 and h bound
@pytest.mark.parametrize("source, index", [
    # K(0, ., .) = 0
    (functools.partial(rescaled_cd, RecurrenceCoeffs(a=np.ones(5), b=np.zeros(5)),
                       0.0, RegVarFn()), 0),
    # k_0 = 0
    (functools.partial(rescaled_cd_circle, VerblunskyCoeffs.free(5), 0.0, RegVarFn()), 0),
    # a NaN diagonal
    (functools.partial(rescaled_schrodinger, lambda y: math.nan, 0.0, 0.0, RegVarFn()), 1.0),
])
def test_every_sampler_raises_zero_diagonal(source, index):
    with pytest.raises(ZeroDiagonalError):
        source(index, [(0.0, 0.0)])


def _sampler(kind, leg):
    """(sampler, index): Legendre at n = 60, the free circle at n = 100 or the
    free Schrodinger operator at x = 50."""
    return {
        "oprl": (functools.partial(rescaled_cd, leg, 0.0, RegVarFn(scale=0.5, index=1.0)), 60),
        "opuc": (functools.partial(rescaled_cd_circle, VerblunskyCoeffs.free(100), 0.0,
                                   RegVarFn(scale=1.0 / (2.0 * math.pi), index=1.0)), 100),
        "schrodinger": (functools.partial(rescaled_schrodinger, lambda y: 0.0, 0.0, 1.0,
                                          RegVarFn(scale=1.0 / math.pi, index=1.0)), 50.0),
    }[kind]


@pytest.mark.parametrize("kind", ["oprl", "opuc", "schrodinger"])
def test_every_sampler_samples_each_point_on_its_own(kind, leg):
    # convergence_study fits on the FIT_GRID samples of the top level's one
    # call on FIT_GRID + grid: they must be the bits of a call on FIT_GRID alone
    sampler, index = _sampler(kind, leg)
    grid = real_grid_pairs(2.0, 5)
    fit_grid = universality.FIT_GRID
    assert sampler(index, fit_grid + grid) == sampler(index, fit_grid) + sampler(index, grid)


@pytest.mark.parametrize("kind", ["oprl", "opuc", "canonical", "schrodinger"])
def test_every_sampler_is_a_positive_hermitian_kernel(kind, leg):
    # the samplers of _sampler, and the Jacobi embedding of Legendre at t = 60
    grid = complex_grid_pairs(1.0, 3)
    if kind == "canonical":  # kernel_kh has no sampler: the grid over 20, over K_H(60, 0, 0)
        ham = jacobi_hamiltonian(leg, 121)
        diag = kernel_kh(ham, 60.0, 0.0, 0.0).real
        value = {(z, w): kernel_kh(ham, 60.0, z / 20.0, w / 20.0) / diag for z, w in grid}
    else:
        sampler, index = _sampler(kind, leg)
        value = {(s.z, s.w): s.value for s in sampler(index, grid)}
    points = list(dict.fromkeys(z for z, _ in grid))
    gram = np.array([[value[(z, w)] for w in points] for z in points])
    # K(z, w) = conj K(w, z)
    assert np.max(np.abs(gram - gram.conj().T)) <= 1e-12
    # the Gram matrix [K(z_i, z_j)] is positive semidefinite
    eig = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
    assert eig[0] >= -1e-10 * np.trace(gram).real
