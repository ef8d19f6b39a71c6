"""Exact-identity suite: every check is a finite-tolerance equality with no
asymptotics, exercised on fixed inputs or on points drawn from one
random.Random(seed) stream, shared by the checks in registry order (the
standard library's generator is a far smaller import than numpy's).  Each
entry names the mathematical law it verifies; the CLI prints one line per
check.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import canonical, limit_kernels, measures, oprl, opuc, special

__all__ = ["IdentityResult", "MODULES", "run_identities"]


@dataclass
class IdentityResult:
    module: str
    name: str
    law: str
    error: float
    tol: float

    @property
    def passed(self):
        return self.error <= self.tol

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.module}.{self.name}: {self.law} "
                f"(err {self.error:.3e}, tol {self.tol:.1e})")


def _grid_1d(lim, n):
    return np.linspace(-lim, lim, n)


def _complex_grid(lim, n):
    ax = _grid_1d(lim, n)
    return [complex(x, y) for x in ax for y in ax]


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def _kummer_bessel(rng):
    worst = 0.0
    for nu in (0.0, 0.25, 1.0, 2.5):
        g = special.gamma_cx(nu + 1.0).real
        for z in _complex_grid(7.0, 5):
            lhs = cmath.exp(1j * z) * special.kummer_m(nu + 0.5, 2 * nu + 1.0, -2j * z)
            rhs = g * special.bessel_f(nu, z)
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    return worst, 1e-10


def _kummer_averaging(rng):
    worst = 0.0
    for alpha in (0.5, 1.25):
        for z in _complex_grid(7.0, 5):
            lhs = (special.kummer_m(alpha, 2 * alpha + 1.0, z)
                   + special.kummer_m(alpha + 1.0, 2 * alpha + 1.0, z)) / 2.0
            rhs = special.kummer_m(alpha, 2 * alpha, z)
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    return worst, 1e-10


def _hyp0f1_bessel(rng):
    worst = 0.0
    for nu in (0.0, 0.5, 1.0, 2.0):
        g = special.gamma_cx(nu + 1.0).real
        for x in _grid_1d(8.0, 17):
            lhs = special.hyp0f1(nu + 1.0, -x * x / 4.0)
            rhs = g * special.bessel_f(nu, x)
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    return worst, 1e-12


def _gamma_recurrence(rng):
    worst = 0.0
    for _ in range(40):
        z = complex(rng.uniform(-8, 8), rng.uniform(-5, 5))
        if abs(z - round(z.real)) < 0.1 and abs(z.imag) < 0.1:
            continue
        try:
            lhs = special.gamma_cx(z + 1.0)
            rhs = z * special.gamma_cx(z)
        except special.GammaPoleError:
            continue
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-280))
    return worst, 1e-11


def _conjugation_symmetry(rng):
    worst = 0.0
    for _ in range(25):
        z = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
        a, b = rng.uniform(0.2, 3.0), rng.uniform(0.5, 3.0)
        for f in (
            lambda t: special.kummer_m(a, b, t),
            lambda t: special.hyp0f1(b, t),
            lambda t: special.bessel_f(b - 0.4, t),
        ):
            worst = max(worst, abs(f(z.conjugate()) - f(z).conjugate()))
    return worst, 1e-9


def _bessel_zero_half(rng):
    worst = 0.0
    for k in (1, 2, 3):
        worst = max(worst, abs(special.bessel_zero(0.5, k) - k * math.pi))
    worst = max(worst, abs(special.bessel_zero(-0.5, 1) - math.pi / 2.0))
    return worst, 1e-10


# ---------------------------------------------------------------------------
# limit kernels
# ---------------------------------------------------------------------------

def _k111_sine(rng):
    spec = limit_kernels.build_limit_kernel(1.0, 1.0, 1.0)
    worst = 0.0
    for z in _complex_grid(3.0, 4):
        for w in _complex_grid(3.0, 3):
            u = z - np.conj(w)
            rhs = limit_kernels.eval_limit_kernel(spec, z, w)
            lhs = 1.0 if abs(u) < 1e-12 else cmath.sin(u) / u
            worst = max(worst, abs(lhs - rhs))
    return worst, 1e-10


def _fh_vs_limit(rng):
    worst = 0.0
    pts = [0.4 + 0.3j, -1.1 + 0.2j, 2.0 - 0.7j, 0.0]
    for beta in (1.0, 2.0, 3.0):
        spec = limit_kernels.build_limit_kernel(1.0, 1.0, beta)
        for z in pts:
            for w in pts:
                a = limit_kernels.eval_limit_kernel(spec, z, w)
                b = limit_kernels.fh_bessel_kernel(beta, z, w)
                worst = max(worst, abs(a - b))
    return worst, 1e-10


def _kappa_duplication(rng):
    worst = 0.0
    for beta in (0.5, 1.0, 1.5, 2.0, 3.0):
        spec = limit_kernels.build_limit_kernel(1.0, 1.0, beta)
        g = special.gamma_cx(beta / 2.0 + 1.0).real
        dup = 2.0 * (2.0 * g * g / math.pi) ** (1.0 / beta)
        worst = max(worst, abs(spec.kappa - dup) / dup)
    return worst, 1e-12


def _kernel_hermitian(rng):
    worst = 0.0
    for sm, sp, beta in ((1.0, 1.0, 1.5), (0.5, 2.0, 1.0), (0.0, 1.0, 2.0)):
        spec = limit_kernels.build_limit_kernel(sm, sp, beta)
        for _ in range(6):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            w = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            worst = max(worst, abs(
                limit_kernels.eval_limit_kernel(spec, z, w)
                - np.conj(limit_kernels.eval_limit_kernel(spec, w, z))
            ))
    return worst, 1e-12


def _diagonal_normalization(rng):
    worst = 0.0
    for sm, sp in ((1.0, 1.0), (0.0, 1.0), (2.0, 0.5), (1.0, 0.0)):
        for beta in (0.5, 1.0, 1.5, 2.0):
            spec = limit_kernels.build_limit_kernel(sm, sp, beta)
            worst = max(worst, abs(limit_kernels.eval_limit_kernel(spec, 0.0, 0.0) - 1.0))
    return worst, 1e-12


def _gram_positivity(rng):
    worst = 0.0
    for sm, sp in ((1.0, 1.0), (0.0, 1.0), (0.5, 2.0)):
        for beta in (0.5, 1.0, 2.0):
            spec = limit_kernels.build_limit_kernel(sm, sp, beta)
            pts = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(6)]
            gram = np.array([[limit_kernels.eval_limit_kernel(spec, zi, zj)
                              for zj in pts] for zi in pts])
            evals = np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)
            trace = float(np.trace(gram).real)
            worst = max(worst, -float(evals[0]) / max(trace, 1e-300))
    return worst, 1e-8


# ---------------------------------------------------------------------------
# OPRL
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _cached_rec(name):
    """The first 62 recurrence coefficients of a gallery measure, computed once."""
    return oprl.stieltjes_coeffs(measures.gallery(name), 62)


def _cd_sum_vs_formula(rng):
    worst = 0.0
    for name in ("chebyshev", "legendre"):
        rec = _cached_rec(name)
        for _ in range(12):
            n = rng.randrange(1, 61)
            z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            w = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            a = oprl.cd_kernel(rec, n, z, w, method="sum")
            b = oprl.cd_kernel(rec, n, z, w, method="cd_formula")
            worst = max(worst, abs(a - b) / max(abs(a), 1e-300))
    return worst, 1e-10


def _interp_affine(rng):
    rec = _cached_rec("chebyshev")
    worst = 0.0
    for _ in range(8):
        n = rng.randrange(0, 40)
        z = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        w = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        k0 = oprl.interp_kernel(rec, n + 0.25, z, w)
        k1 = oprl.interp_kernel(rec, n + 0.5, z, w)
        k2 = oprl.interp_kernel(rec, n + 0.75, z, w)
        worst = max(worst, abs(k1 - (k0 + k2) / 2.0) / max(abs(k1), 1.0))
    return worst, 1e-12


def _orthonormality(rng):
    worst = 0.0
    for name in ("chebyshev", "legendre"):
        mu = measures.gallery(name)
        rec = _cached_rec(name)
        x, w = oprl._discretize(mu, 40)
        w = w / w.sum()
        vals = np.empty((31, x.size))
        vals[0] = 1.0
        for k in range(1, 31):
            prev2 = vals[k - 2] if k >= 2 else 0.0
            am = rec.a[k - 2] if k >= 2 else 0.0
            vals[k] = ((x - rec.b[k - 1]) * vals[k - 1] - am * prev2) / rec.a[k - 1]
        gram = (vals * w) @ vals.T
        worst = max(worst, float(np.max(np.abs(gram - np.eye(31)))))
    return worst, 1e-8


def _zeros_interlace(rng):
    rec = _cached_rec("legendre")
    worst = 0.0
    for n in (5, 12, 25):
        lo = oprl.poly_zeros(rec, n)
        hi = oprl.poly_zeros(rec, n + 1)
        ok = np.all(hi[:-1] < lo) and np.all(lo < hi[1:])
        worst = max(worst, 0.0 if ok else 1.0)
    return worst, 0.5


def _diag_increasing(rng):
    # strict increase up to roundoff: increments |p_n(xi)|^2 may be ~eps*K
    rec = _cached_rec("chebyshev")
    worst = 0.0
    for xi in (0.0, 0.3, 0.5 + 0.2j):
        prev = 0.0
        for n in range(1, 40):
            cur = oprl.cd_kernel(rec, n, xi, xi).real
            worst = max(worst, (prev - cur) / max(cur, 1.0))
            prev = cur
    return worst, 1e-12


# ---------------------------------------------------------------------------
# OPUC
# ---------------------------------------------------------------------------

def _random_alphas(rng, n):
    real = [rng.uniform(-0.5, 0.5) for _ in range(n)]
    imag = [rng.uniform(-0.5, 0.5) for _ in range(n)]
    return opuc.VerblunskyCoeffs(np.array(real) + 1j * np.array(imag))


def _szego_reflection(rng):
    v = _random_alphas(rng, 8)
    worst = 0.0
    for _ in range(6):
        zeta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) + 0.2
        _, phi_star = opuc.szego_eval(v, 7, zeta)
        phi_ref, _ = opuc.szego_eval(v, 7, 1.0 / np.conj(zeta))
        lhs = phi_star[7]
        rhs = zeta ** 7 * np.conj(phi_ref[7])
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-10))
    return worst, 1e-10


def _cd_circle_methods(rng):
    v = _random_alphas(rng, 41)
    worst = 0.0
    for _ in range(10):
        n = rng.randrange(1, 41)
        zeta = cmath.exp(1j * rng.uniform(-3, 3)) * rng.uniform(0.8, 1.2)
        omega = cmath.exp(1j * rng.uniform(-3, 3)) * rng.uniform(0.8, 1.2)
        a = opuc.cd_kernel_circle(v, n, zeta, omega, method="sum")
        b = opuc.cd_kernel_circle(v, n, zeta, omega, method="cd_formula")
        worst = max(worst, abs(a - b) / max(abs(a), 1e-300))
    return worst, 1e-10


def _opuc_interpolation(rng):
    v = _random_alphas(rng, 21)
    worst = 0.0
    for s in (0.1, 0.25, 0.37, 0.6, 0.9):
        for _ in range(4):
            n = rng.randrange(1, 20)
            z = complex(rng.uniform(-2, 2), rng.uniform(-0.5, 0.5))
            w = complex(rng.uniform(-2, 2), rng.uniform(-0.5, 0.5))
            a = opuc.opuc_canonical_kernel(v, n + s, z, w)
            b = opuc.opuc_interp_kernel(v, n + s, z, w)
            worst = max(worst, abs(a - b) / max(abs(a), 1.0))
    return worst, 1e-10


def _opuc_s_consistency(rng):
    v = _random_alphas(rng, 21)
    worst = 0.0
    for _ in range(8):
        n = rng.randrange(0, 20)
        z = complex(rng.uniform(-2, 2), rng.uniform(-0.5, 0.5))
        w = complex(rng.uniform(-2, 2), rng.uniform(-0.5, 0.5))
        a = opuc._chain_kernel(v, n, 1.0, z, w)      # s = 1 at level n
        b = opuc._chain_kernel(v, n + 1, 0.0, z, w)  # s = 0 at level n+1
        worst = max(worst, abs(a - b) / max(abs(a), 1.0))
    return worst, 1e-10


# ---------------------------------------------------------------------------
# canonical systems
# ---------------------------------------------------------------------------

def _random_hamiltonian(rng, n_pieces=6):
    # trace-normalized pieces keep transfer entries O(e^t |Im z|) moderate
    mats = []
    for _ in range(n_pieces):
        m = np.array([[rng.gauss(0.0, 1.0) for _ in range(2)] for _ in range(2)])
        m = m @ m.T + 1e-3 * np.eye(2)
        mats.append(m / np.trace(m))
    lengths = np.array([rng.uniform(0.3, 1.5) for _ in range(n_pieces)])
    return canonical.Hamiltonian(lengths, np.array(mats))


def _det_w_unit(rng):
    h = _random_hamiltonian(rng)
    worst = 0.0
    for _ in range(8):
        t = rng.uniform(0.1, h.total_length)
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        w = canonical.transfer_matrix(h, t, z)
        scale = max(1.0, float(np.max(np.abs(w))) ** 2)
        worst = max(worst, abs(np.linalg.det(w) - 1.0) / scale)
    return worst, 1e-10


def _multiplicativity(rng):
    h = _random_hamiltonian(rng)
    cuts = np.cumsum(h.lengths)
    worst = 0.0
    for i, s in enumerate(cuts[:-1]):
        t = h.total_length
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        w_full = canonical.transfer_matrix(h, t, z)
        w_s = canonical.transfer_matrix(h, s, z)
        h_rest = canonical.Hamiltonian(h.lengths[i + 1:], h.matrices[i + 1:])
        w_rest = canonical.transfer_matrix(h_rest, t - s, z)
        scale = max(1.0, float(np.max(np.abs(w_full))))
        worst = max(worst, float(np.max(np.abs(w_full - w_s @ w_rest))) / scale)
    return worst, 1e-10


def _j_inner_integral(rng):
    h = _random_hamiltonian(rng, n_pieces=5)
    t = h.total_length
    worst = 0.0
    pairs = [
        (complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
         complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)))
        for _ in range(4)
    ]
    z_eq = complex(rng.uniform(-1, 1), rng.uniform(0.2, 1.0))
    pairs.append((z_eq, z_eq))
    for z, w in pairs:
        wz = canonical.transfer_matrix(h, t, z)
        ww = canonical.transfer_matrix(h, t, w)
        lhs = (wz @ canonical.J @ ww.conj().T - canonical.J) / (z - np.conj(w))
        rhs = canonical.transfer_form_integral(h, t, z, w)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst, 1e-8


def _rescale_kernel_identity(rng):
    h = _random_hamiltonian(rng)
    g = measures.RegVarFn(scale=1.3, index=1.2)
    worst = 0.0
    for r in (0.5, 2.0, 7.0):
        hr = canonical.rescale_h(h, g, r)
        for _ in range(4):
            t = rng.uniform(0.05, h.total_length / r)
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            w = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            lhs = canonical.kernel_kh(hr, t, z, w)
            rhs = canonical.kernel_kh(h, r * t, z / r, w / r) / g(r)
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1.0))
    return worst, 1e-10


def _rescale_weyl_identity(rng):
    # constant tail pushes the Weyl disks to negligible radius so the
    # truncated approximants obey the identity to full accuracy
    h = replace(_random_hamiltonian(rng, 5), tail=np.eye(2) / 2.0)
    g = measures.RegVarFn(scale=0.8, index=1.0)
    worst = 0.0
    t_max = 150.0
    for r in (2.0, 5.0):
        hr = canonical.rescale_h(h, g, r)
        z = complex(0.3, 1.1)
        lhs = canonical.weyl(hr, z, t_max / r)[0]
        rhs = (g(r) / r) * canonical.weyl(h, z / r, t_max)[0]
        worst = max(worst, abs(lhs - rhs))
    return worst, 1e-8


def _free_half_kernel(rng):
    # ranges keep the product-formula cancellation ~ e^{t min(Im z, -Im w)}
    # below the 1e-12 target
    h = canonical.Hamiltonian.constant(np.eye(2) / 2.0, length=50.0, tail=True)
    worst = 0.0
    for _ in range(6):
        t = rng.uniform(0.5, 10.0)
        z = complex(rng.uniform(-2, 2), rng.uniform(-0.5, 0.5))
        w = complex(rng.uniform(-2, 2), rng.uniform(-0.5, 0.5))
        u = z - np.conj(w)
        lhs = canonical.kernel_kh(h, t, z, w)
        rhs = t / 2.0 if abs(u) < 1e-12 else cmath.sin(t * u / 2.0) / u
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1.0))
    q, _ = canonical.weyl(h, 0.4 + 0.9j, 40.0)
    worst = max(worst, abs(q - 1j))
    return worst, 1e-12


def _rank_one_transfer(rng):
    worst = 0.0
    for alpha in (0.0, math.pi / 2.0, 0.7):
        e = np.array([math.cos(alpha), math.sin(alpha)])
        m = np.outer(e, e)
        h = canonical.Hamiltonian(np.array([1.0]), m[None, :, :])
        for _ in range(4):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            t = rng.uniform(0.1, 1.0)
            w = canonical.transfer_matrix(h, t, z)
            expected = np.eye(2) - t * z * np.outer(e, e) @ canonical.J
            worst = max(worst, float(np.max(np.abs(w - expected))))
    return worst, 1e-13


def _jacobi_kernel_equality(rng):
    rec = _cached_rec("chebyshev")
    ham = canonical.jacobi_hamiltonian(rec, 32)
    worst = 0.0
    for _ in range(10):
        t = rng.uniform(0.0, 30.0)
        z = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        w = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        lhs = canonical.kernel_kh(ham, t, z, w)
        rhs = oprl.interp_kernel(rec, t, z, w)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1.0))
    return worst, 1e-8


def _opuc_kernel_equality(rng):
    v = _random_alphas(rng, 16)
    ham = canonical.opuc_hamiltonian(v, 16)
    worst = 0.0
    for _ in range(10):
        t = rng.uniform(0.0, 15.0)
        z = complex(rng.uniform(-2, 2), rng.uniform(-0.6, 0.6))
        w = complex(rng.uniform(-2, 2), rng.uniform(-0.6, 0.6))
        lhs = canonical.kernel_kh(ham, t, z, w)
        rhs = opuc.opuc_canonical_kernel(v, t, z, w)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1.0))
    return worst, 1e-8


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

def _mass_additivity(rng):
    worst = 0.0
    for name in ("legendre", "chebyshev", "jump"):
        mu = measures.gallery(name)
        for _ in range(6):
            a, b, c = sorted(rng.uniform(-0.95, 0.95) for _ in range(3))
            lhs = measures.mass(mu, a, b) + measures.mass(mu, b, c)
            rhs = measures.mass(mu, a, c)
            worst = max(worst, abs(lhs - rhs))
    mu = measures.gallery("pure_point_bulk", cutoff=500)
    for (a, b, c) in ((-0.4, 0.0, 0.3), (-0.07, 0.11, 0.52)):
        lhs = measures.mass(mu, a, b) + measures.mass(mu, b, c)
        worst = max(worst, abs(lhs - measures.mass(mu, a, c)))
    return worst, 1e-12


def _local_scaling_recovery(rng):
    worst = 0.0
    r_grid = np.logspace(0.6, 4.0, 30)
    for beta in (0.5, 1.0, 2.0):
        for sig in (0.5, 2.0):
            w = lambda x, s=sig, b=beta: s * b * np.abs(x) ** (b - 1.0)
            mu = measures.Measure(pieces=(
                measures.AcPiece(-1.0, 0.0, w, singular_exponents=(0.0, beta - 1.0)),
                measures.AcPiece(0.0, 1.0, w, singular_exponents=(beta - 1.0, 0.0)),
            ))
            est = measures.local_scaling(mu, 0.0, r_grid)
            worst = max(worst, abs(est.beta_hat - beta) / beta)
            worst = max(worst, abs(est.sigma_plus_hat - sig) / sig)
            worst = max(worst, abs(est.sigma_minus_hat - sig) / sig)
    return worst, 0.01


def _asymptotic_inverse_roundtrip(rng):
    worst = 0.0
    for g in (measures.RegVarFn(1.0, 2.0), measures.RegVarFn(2.0, 1.0),
              measures.RegVarFn(0.7, 0.5)):
        h = measures.asymptotic_inverse(g)
        for t in (1e3, 1e6, 1e9):
            worst = max(worst, abs(g(h(t)) / t - 1.0))
    return worst, 1e-6


def _cauchy_herglotz(rng):
    worst = 0.0
    for name in ("legendre", "chebyshev", "power_hard_edge", "even_fh", "jump"):
        mu = measures.gallery(name)
        for _ in range(20):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.05, 3.0))
            m = measures.cauchy_transform(mu, z)
            worst = max(worst, -m.imag)
    mu = measures.gallery("pure_point_bulk", cutoff=2000)
    for _ in range(20):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.05, 3.0))
        worst = max(worst, -measures.cauchy_transform(mu, z).imag)
    return worst, 1e-12


_REGISTRY = [
    ("special_fn", "kummer_bessel", "e^{iz} M(nu+1/2,2nu+1,-2iz) = Gamma(nu+1) F_nu(z)", _kummer_bessel),
    ("special_fn", "kummer_averaging", "(M(a,2a+1,z)+M(a+1,2a+1,z))/2 = M(a,2a,z)", _kummer_averaging),
    ("special_fn", "hyp0f1_bessel", "0F1(nu+1,-x^2/4) = Gamma(nu+1) F_nu(x)", _hyp0f1_bessel),
    ("special_fn", "gamma_recurrence", "Gamma(z+1) = z Gamma(z)", _gamma_recurrence),
    ("special_fn", "conjugation", "f(conj z) = conj f(z) for real parameters", _conjugation_symmetry),
    ("special_fn", "bessel_zero_half", "j_{1/2,k} = k pi and j_{-1/2,1} = pi/2", _bessel_zero_half),
    ("limit_kernels", "k111_sine", "K_{1,1,1}(z,w) = sin(z-conj w)/(z-conj w)", _k111_sine),
    ("limit_kernels", "fh_vs_limit", "Bessel-form kernel = hypergeometric kernel (sigma=1)", _fh_vs_limit),
    ("limit_kernels", "kappa_duplication", "kappa(1,1,beta) = 2(2 Gamma(beta/2+1)^2/pi)^(1/beta)", _kappa_duplication),
    ("limit_kernels", "hermitian", "K(z,w) = conj(K(w,z))", _kernel_hermitian),
    ("limit_kernels", "diagonal_normalization", "K(0,0) = 1", _diagonal_normalization),
    ("limit_kernels", "gram_positivity", "kernel Gram matrices are PSD", _gram_positivity),
    ("oprl", "cd_sum_vs_formula", "CD sum = CD formula (line)", _cd_sum_vs_formula),
    ("oprl", "interp_affine", "interpolated kernel affine in t on [n,n+1]", _interp_affine),
    ("oprl", "orthonormality", "int p_j p_k dmu = delta_jk by quadrature", _orthonormality),
    ("oprl", "zeros_interlace", "zeros of p_n interlace zeros of p_{n+1}", _zeros_interlace),
    ("oprl", "diag_increasing", "K(n,xi,xi) strictly increasing in n", _diag_increasing),
    ("opuc", "szego_reflection", "phi*_n(z) = z^n conj(phi_n(1/conj z))", _szego_reflection),
    ("opuc", "cd_methods", "CD sum = CD formula (circle)", _cd_circle_methods),
    ("opuc", "interpolation", "K(n+s) = sin-ratio combination of K(n), K(n+1)", _opuc_interpolation),
    ("opuc", "s_consistency", "K(n+1) from s=1 equals level n+1 at s=0", _opuc_s_consistency),
    ("canonical", "det_w", "det W(t,z) = 1", _det_w_unit),
    ("canonical", "multiplicativity", "W(0,t) = W(0,s) W(s,t)", _multiplicativity),
    ("canonical", "j_inner_integral", "(W J W* - J)/(z-conj w) = int W H W*", _j_inner_integral),
    ("canonical", "rescale_kernel", "K_{A_r H}(t,z,w) = K_H(rt,z/r,w/r)/g(r)", _rescale_kernel_identity),
    ("canonical", "rescale_weyl", "q_{A_r H}(z) = (g(r)/r) q_H(z/r)", _rescale_weyl_identity),
    ("canonical", "free_half", "H = I/2: K = sin(t(z-conj w)/2)/(z-conj w), q = i", _free_half_kernel),
    ("canonical", "rank_one", "indivisible piece: W = I - l z e e^T J", _rank_one_transfer),
    ("canonical", "jacobi_kernel", "Jacobi-Hamiltonian kernel = interpolated CD kernel", _jacobi_kernel_equality),
    ("canonical", "opuc_kernel", "circle-Hamiltonian kernel = circle-chain kernel", _opuc_kernel_equality),
    ("measures", "mass_additivity", "mu[a,b) + mu[b,c) = mu[a,c)", _mass_additivity),
    ("measures", "local_scaling", "power weights recover (beta, sigma-, sigma+)", _local_scaling_recovery),
    ("measures", "asymptotic_inverse", "g(h(t))/t -> 1", _asymptotic_inverse_roundtrip),
    ("measures", "cauchy_herglotz", "Im m(z) >= 0 on the upper half plane", _cauchy_herglotz),
]

MODULES = tuple(dict.fromkeys(m for m, _, _, _ in _REGISTRY))

SEED = 20240811  # default seed of the randomized checks


def run_identities(module_filter=None, seed=SEED):
    """Run the identity suite (optionally one module) and return results."""
    if module_filter is not None and module_filter not in MODULES:
        raise ValueError(f"unknown identity module {module_filter!r}; one of {list(MODULES)}")
    rng = random.Random(seed)
    out = []
    for module, name, law, fn in _REGISTRY:
        if module_filter is not None and module != module_filter:
            continue
        err, tol = fn(rng)
        out.append(IdentityResult(module=module, name=name, law=law,
                                  error=float(err), tol=tol))
    return out
