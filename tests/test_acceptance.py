"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Sup-error tolerances are checked on real (z, w) grids; internal-scale fits use
complex sample grids (see the repository README for the rationale).  Two
clauses are known-red and documented in the project notes: the pure-point
kernel bound at the pinned atom cutoff (criterion 5) and the sparse-Jacobi
sine-kernel bound for the pinned constant-ratio bump positions (criterion 10).
Both are asserted as stated rather than weakened.
"""

import functools
import math

import numpy as np
import pytest

from cdlab.canonical import Hamiltonian, kernel_kh, rescaled_schrodinger, schrodinger_kernel
from cdlab.identities import run_identities
from cdlab.limit_kernels import (
    build_limit_kernel,
    eval_limit_kernel,
    fh_bessel_kernel,
    fit_internal_scale,
    sine_kernel,
)
from cdlab.measures import RegVarFn, asymptotic_inverse, gallery, mass
from cdlab.oprl import (
    eval_polys,
    kernel_diag,
    nevai_ratio,
    rescaled_cd,
    stieltjes_coeffs,
)
from cdlab.opuc import VerblunskyCoeffs, rescaled_cd_circle
from cdlab.universality import (
    complex_grid_pairs,
    convergence_study,
    real_grid_pairs,
    sparse_diagnostics,
    sparse_jacobi,
    zero_study,
)

GRID2 = real_grid_pairs(2.0, 9)
FIT_GRID = complex_grid_pairs(1.0, 3)


def _sup_vs_sine(samples):
    return max(abs(s.value - sine_kernel(s.z, s.w)) for s in samples)


def _report(num, name, passed, detail):
    print(f"ACCEPTANCE {num:2d} [{'PASS' if passed else 'FAIL'}] {name}: {detail}")


def test_criterion_01_identity_suite():
    results = run_identities()
    passed = all(r.passed for r in results)
    worst = max(results, key=lambda r: r.error / r.tol)
    _report(1, "identity suite", passed,
            f"{len(results)} identities; worst {worst.module}.{worst.name} "
            f"err {worst.error:.2e} (tol {worst.tol:.0e})")
    assert passed


def test_criterion_02_closed_form_kernels():
    spec = build_limit_kernel(1.0, 1.0, 1.0)
    ax = np.linspace(-3.0, 3.0, 5)
    pts = [complex(x, y) for x in ax for y in ax]
    err_sine = max(
        abs(eval_limit_kernel(spec, z, w) - sine_kernel(z / math.pi, w / math.pi))
        for z in pts for w in pts[::3]
    )
    fh_pts = [0.0, 0.7, -1.4 + 0.5j, 2.2 - 0.3j, 1.1 + 1.0j]
    err_fh = 0.0
    for beta in (1.0, 2.0, 3.0):
        spec_b = build_limit_kernel(1.0, 1.0, beta)
        for z in fh_pts:
            for w in fh_pts:
                err_fh = max(err_fh, abs(
                    eval_limit_kernel(spec_b, z, w) - fh_bessel_kernel(beta, z, w)))
    passed = err_sine <= 1e-10 and err_fh <= 1e-10
    _report(2, "closed-form kernels", passed,
            f"K111 vs sin err {err_sine:.2e}; Bessel-form vs printed err {err_fh:.2e} "
            f"(tol 1e-10)")
    assert passed


def test_criterion_03_opuc_lebesgue_oracle():
    n = 10 ** 4
    v = VerblunskyCoeffs.free(n)
    h = RegVarFn(scale=1.0 / (2.0 * math.pi), index=1.0)
    sup = _sup_vs_sine(rescaled_cd_circle(v, 0.0, h, n, GRID2))
    fit = fit_internal_scale(
        rescaled_cd_circle(v, 0.0, h, n, FIT_GRID), build_limit_kernel(1.0, 1.0, 1.0))
    passed = sup <= 1e-2 and abs(fit.c - math.pi) <= 1e-3
    _report(3, "OPUC Lebesgue oracle", passed,
            f"sup err {sup:.2e} (tol 1e-2); fitted c = {fit.c:.7f}, "
            f"|c - pi| = {abs(fit.c - math.pi):.2e} (tol 1e-3)")
    assert passed


@pytest.mark.parametrize("name,eta", [("legendre", 0.5), ("chebyshev", 1.0 / math.pi)])
def test_criterion_04_bulk_universality(name, eta):
    rec = stieltjes_coeffs(gallery(name), 201)
    h = RegVarFn(scale=eta, index=1.0)
    rep = convergence_study(functools.partial(rescaled_cd, rec, 0.0, h), sine_kernel,
                            [50, 100, 200], GRID2, 0.05)
    nev = nevai_ratio(rec, 0.0, 200)
    passed = rep.passed and nev - 1.0 <= 0.05
    _report(4, f"bulk universality ({name})", passed,
            f"sup errors {['%.4f' % e for e in rep.sup_errors]} decreasing, "
            f"final tol 0.05; nevai - 1 = {nev - 1.0:.4f}")
    assert passed


@pytest.fixture(scope="module")
def pure_point_rec():
    return stieltjes_coeffs(gallery("pure_point_bulk", cutoff=100000), 401)


def test_criterion_05_pure_point_masses():
    mu = gallery("pure_point_bulk", cutoff=100000)
    ok = True
    for n in range(1, 151):
        eps = 0.5 * (1.0 / (n + 1) + 1.0 / n)  # interior of the bracket
        ratio = mass(mu, 0.0, eps) / eps
        ok = ok and (n / (n + 1.0) <= ratio < 1.0)
    _report(5, "pure-point mass staircase", ok,
            "mu([0,eps))/eps in [n/(n+1), 1) for n = 1..150")
    assert ok


def test_criterion_05_pure_point_kernel(pure_point_rec):
    # known-red: the pinned cutoff 1e5 leaves a truncation gap that the
    # kernel already resolves at n = 400 (see notes); asserted as stated
    h = RegVarFn(scale=0.5, index=1.0)
    sup = _sup_vs_sine(rescaled_cd(pure_point_rec, 0.0, h, 400, GRID2))
    passed = sup <= 0.1
    _report(5, "pure-point bulk kernel (cutoff 1e5)", passed,
            f"sup err vs sine at n=400: {sup:.4f} (tol 0.1)")
    assert passed


@pytest.mark.parametrize("beta", [1.5, 2.0])
def test_criterion_06_hard_edge(beta):
    rec = stieltjes_coeffs(gallery("power_hard_edge", beta=beta), 300)
    h = RegVarFn(scale=1.0, index=1.0 / beta)
    zr = zero_study(rec, 0.0, h, "hard_edge", [100, 200, 300], 3)
    ex = zr.extras
    g1 = math.gamma(beta + 1.0)
    const_thm = math.pi ** (1.0 / beta) / (4.0 * g1 ** (1.0 / beta))
    verdicts = {k: f"{abs(ex['first_zero_constant'] / v - 1.0):.1%} off"
                for k, v in ex["candidate_constants"].items()}
    passed = zr.max_rel_error_ratios <= 0.02
    _report(6, f"hard edge (beta={beta})", passed,
            f"zero ratios within {zr.max_rel_error_ratios:.4f} of squared "
            f"Bessel-zero ratios (tol 0.02); h(K)-exponent "
            f"{ex['exponent']:.3f} +- {ex['exponent_band95']:.3f}; "
            f"first-zero constant {ex['first_zero_constant']:.5f} vs "
            f"pi^(1/b)/(4G^(1/b)) = {const_thm:.5f}; verdicts {verdicts}")
    assert passed
    assert ex["exponent_band95"] < 0.25  # band must be reported and finite


@pytest.mark.parametrize("beta", [1.5, 3.0])
def test_criterion_07_fisher_hartwig(beta):
    rec = stieltjes_coeffs(gallery("even_fh", beta=beta), 2 * 200 + 1)
    h = asymptotic_inverse(RegVarFn(scale=2.0, index=beta))
    zr = zero_study(rec, 0.0, h, "even_fh", [100, 200], 3)
    p, _ = eval_polys(rec, 401, 0.0)
    odd_exact = all(p[2 * k + 1] == 0.0 for k in range(200))
    passed = zr.max_rel_error_ratios <= 0.02 and odd_exact
    _report(7, f"Fisher-Hartwig even measure (beta={beta})", passed,
            f"even/odd scaled-zero ratios within {zr.max_rel_error_ratios:.4f} "
            f"(tol 0.02); p_odd(0) = 0 exactly: {odd_exact}")
    assert passed


@pytest.mark.parametrize("name,eta", [("chebyshev", 1.0 / math.pi), ("legendre", 0.5)])
def test_criterion_08_clock_behavior(name, eta):
    rec = stieltjes_coeffs(gallery(name), 201)
    h = RegVarFn(scale=eta, index=1.0)
    zr = zero_study(rec, 0.0, h, "clock", [200], 3)
    passed = zr.max_rel_error_ratios <= 0.05
    _report(8, f"clock behavior ({name})", passed,
            f"max |tau_n gap - 1| = {zr.max_rel_error_ratios:.4f} over |j| <= 3 "
            f"at n = 200 (tol 0.05)")
    assert passed


def test_criterion_09_canonical_and_schrodinger():
    # H = I/2 closed form at 1e-12
    h_free = Hamiltonian.constant(np.eye(2) / 2.0, length=20.0, tail=True)
    rng = np.random.default_rng(14)
    err_closed = 0.0
    for _ in range(10):
        t = rng.uniform(0.5, 10.0)
        z = complex(rng.uniform(-2, 2), rng.uniform(-0.5, 0.5))
        w = complex(rng.uniform(-2, 2), rng.uniform(-0.5, 0.5))
        u = z - np.conj(w)
        expected = t / 2.0 if abs(u) < 1e-12 else np.sin(t * u / 2.0) / u
        err_closed = max(err_closed, abs(kernel_kh(h_free, t, z, w) - expected)
                         / max(1.0, abs(expected)))
    quad, wron = schrodinger_kernel(lambda y: 0.0, 0.0, 5.0, 1.0 + 0.2j, 2.0, tol=1e-10)
    err_forms = abs(quad - wron) / (1.0 + abs(quad))
    h = RegVarFn(scale=math.sqrt(1.0) / math.pi, index=1.0)
    sampler = functools.partial(rescaled_schrodinger, lambda y: 0.0, 0.0, 1.0, h)
    rep = convergence_study(sampler, sine_kernel, [50.0, 100.0, 200.0],
                            real_grid_pairs(1.0, 9), 0.05)
    passed = err_closed <= 1e-12 and err_forms <= 1e-8 and rep.passed
    _report(9, "canonical/Schrodinger", passed,
            f"H=I/2 closed-form err {err_closed:.2e} (tol 1e-12); "
            f"quadrature-vs-Wronskian {err_forms:.2e} (tol 1e-8); free bulk "
            f"sup errors {['%.4f' % e for e in rep.sup_errors]} (final tol 0.05)")
    assert passed


@pytest.fixture(scope="module")
def sparse_setup():
    t_vals = [10 ** 3, 10 ** 4]
    n_max = 2 * max(t_vals)
    j_count = int(math.log(n_max, 4.0)) + 2
    v = np.arange(1, j_count + 1, dtype=float) ** -0.5
    rec = sparse_jacobi(v, ("geometric", 4.0, 4.0), n_max)
    return t_vals, rec, sparse_diagnostics(rec, 0.0)


def test_criterion_10_sparse_diagnostics(sparse_setup):
    t_vals, rec, dat = sparse_setup
    t_top = max(t_vals)
    ratio = kernel_diag(rec, 2 * t_top, 0.0) / kernel_diag(rec, t_top, 0.0)
    ok_blocks = dat.block_deviation <= 1e-12
    ok_ratio = 1.9 <= ratio <= 2.1
    passed = ok_blocks and ok_ratio
    _report(10, "sparse Jacobi diagnostics", passed,
            f"||A_n||^2 in-block deviation {dat.block_deviation:.2e} (tol 1e-12); "
            f"K(2t)/K(t) = {ratio:.4f} in [1.9, 2.1] at t = {t_top}")
    assert passed


def test_criterion_10_sparse_kernel_limit(sparse_setup):
    # known-red: constant-ratio N_j = 4^j is not sparse in the required sense
    # (see notes); the decreasing trend holds, the 0.15 bound does not
    t_vals, rec, dat = sparse_setup
    h = dat.scaling_inverse()
    sups = [_sup_vs_sine(rescaled_cd(rec, 0.0, h, t, GRID2)) for t in t_vals]
    decreasing = sups[1] < sups[0]
    passed = decreasing and sups[1] <= 0.15
    _report(10, "sparse Jacobi sine-kernel limit", passed,
            f"sup errors {['%.4f' % e for e in sups]} at t = {t_vals}; trend "
            f"decreasing: {decreasing}; bound 0.15 at t = 1e4: {sups[1] <= 0.15}")
    assert decreasing
    assert passed
