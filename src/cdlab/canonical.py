"""Canonical systems: transfer matrices, reproducing kernels, Weyl functions,
weighted rescaling, and the Jacobi / circle / Schrodinger embeddings.

Transfer matrices solve d/dt W(t,z) J = z W(t,z) H(t), W(0,z) = I, with
J = [[0,-1],[1,0]].  Only piecewise-constant Hamiltonians are represented, so
each piece contributes the exact factor

    W_piece = cos(l z sqrt(d)) I + l z sinc(l z sqrt(d)) H0 J^{-1},
    d = det H0,

which for rank-one pieces (d = 0) degenerates to the linear polynomial
I - l z e e^T J.  Products run left to right in increasing t.  The Weyl
orientation is fixed once: q = lim_t W(t,z) * i under the fractional linear
action; the J-increasing (mathematical physics) convention is reachable only
through W = T^{-1}, never mixed in.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .limit_kernels import DIAGONAL_SWITCH, _rescaled_samples, pair_kernel
from .oprl import RecurrenceCoeffs, _level, eval_polys
from .opuc import VerblunskyCoeffs, szego_eval
from .special import sine_ratio

__all__ = [
    "Hamiltonian",
    "DomainError",
    "TransferOverflowError",
    "SchrodingerToleranceError",
    "transfer_matrix",
    "kernel_kh",
    "rescaled_schrodinger",
    "weyl",
    "rescale_h",
    "jacobi_hamiltonian",
    "opuc_hamiltonian",
    "schrodinger_kernel",
    "transfer_form_integral",
    "mobius",
    "J",
]

J = np.array([[0.0, -1.0], [1.0, 0.0]])
_J_INV = np.array([[0.0, 1.0], [-1.0, 0.0]])


class DomainError(ValueError):
    """t beyond the finite Hamiltonian domain without a tail rule."""


class TransferOverflowError(OverflowError):
    """W(t, z) or dW/dz leaves the double range."""


@dataclass(frozen=True)
class Hamiltonian:
    """Piecewise-constant 2x2 PSD matrix path; optional constant tail."""

    lengths: np.ndarray
    matrices: np.ndarray  # shape (k, 2, 2)
    tail: np.ndarray | None = None

    def __post_init__(self):
        lengths = np.asarray(self.lengths, dtype=float)
        mats = np.asarray(self.matrices, dtype=float)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "matrices", mats)
        if lengths.ndim != 1 or mats.shape != (lengths.size, 2, 2):
            raise ValueError("need k lengths and (k,2,2) matrices")
        if not np.all(np.isfinite(lengths)) or np.any(lengths <= 0):
            raise ValueError("piece lengths must be finite and > 0")
        for m in mats:
            _check_psd(m)
        if self.tail is not None:
            tail = np.asarray(self.tail, dtype=float)
            object.__setattr__(self, "tail", tail)
            _check_psd(tail)

    @property
    def total_length(self):
        return float(self.lengths.sum())

    @classmethod
    def constant(cls, matrix, length=1.0, tail=True):
        m = np.asarray(matrix, dtype=float)
        return cls(np.array([length]), m[None, :, :], tail=m if tail else None)


def _check_psd(m):
    if not np.all(np.isfinite(m)):
        raise ValueError(f"Hamiltonian pieces must be finite, got {m.tolist()}")
    if abs(m[0, 1] - m[1, 0]) > 1e-12 * (1.0 + abs(m[0, 1])):
        raise ValueError("Hamiltonian pieces must be symmetric")
    tr = m[0, 0] + m[1, 1]
    evals = np.linalg.eigvalsh(m)
    if evals[0] < -1e-14 * max(tr, 1.0):
        raise ValueError(f"piece is not PSD (eigenvalues {evals})")


def _piece_factor(m, ell, z, derivative=False):
    """Exact transfer factor of a constant piece, optionally with d/dz."""
    d = float(np.linalg.det(m))
    d = max(d, 0.0)  # clip roundoff; PSD was validated
    s = math.sqrt(d)
    c = m @ _J_INV
    theta = ell * z * s
    eye = np.eye(2)
    w = cmath.cos(theta) * eye + (ell * z * sine_ratio(theta)) * c
    if not derivative:
        return w, None
    dw = (-ell * s * cmath.sin(theta)) * eye + (ell * cmath.cos(theta)) * c
    return w, dw


def _iter_pieces(h, t):
    """(length, matrix) pieces covering [0, t], tail-extended if needed."""
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    remaining = float(t)
    for ell, m in zip(h.lengths, h.matrices):
        if remaining <= 1e-15:
            return
        take = min(ell, remaining)
        yield take, m
        remaining -= take
    if remaining > 1e-12:
        if h.tail is None:
            raise DomainError(
                f"t = {t} beyond domain [0, {h.total_length}] and no tail rule"
            )
        yield remaining, h.tail


def transfer_matrix(h, t, z, derivative=False):
    """W(t, z) as a 2x2 complex array, and (W, dW/dz) with derivative=True;
    multiplicative over pieces, identity at z = 0.  Raises ValueError for a
    non-finite z and TransferOverflowError when W or dW/dz leaves the double
    range."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    w = np.eye(2, dtype=complex)
    dw = np.zeros((2, 2), dtype=complex) if derivative else None
    # an overflow surfaces as inf or nan, or as OverflowError from cmath
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for ell, m in _iter_pieces(h, t):
                f, df = _piece_factor(m, ell, z, derivative)
                if derivative:
                    dw = dw @ f + w @ df
                w = w @ f
    except OverflowError:
        w = None
    if w is None or not (np.isfinite(w).all() and (dw is None or np.isfinite(dw).all())):
        raise TransferOverflowError(
            f"W(t, z) overflows double precision at z = {z} over the length t = {t}")
    return (w, dw) if derivative else w


def kernel_kh(h, t, z, w):
    """K_H(t,z,w) = (w22(t,z) conj(w21(t,w)) - w21(t,z) conj(w22(t,w))) / (z - conj w):
    pair_kernel of (w21, w22)."""
    def components(x, derivative):
        if not derivative:
            return tuple(transfer_matrix(h, t, x)[1])
        m, dm = transfer_matrix(h, t, x, derivative=True)
        return tuple(m[1]) + tuple(dm[1])

    return complex(pair_kernel(components, complex(z), complex(w)))


def mobius(matrix, tau):
    """(m11 tau + m12) / (m21 tau + m22) on the Riemann sphere."""
    m = np.asarray(matrix)
    if tau == cmath.inf:
        num, den = m[0, 0], m[1, 0]
    else:
        num = m[0, 0] * tau + m[0, 1]
        den = m[1, 0] * tau + m[1, 1]
    if den == 0:
        return cmath.inf
    return complex(num / den)


def weyl(h, z, t_max):
    """(q, disk_radius): the Weyl coefficient approximant q = W(t_max, z) * i
    and a disk-radius estimate.

    disk_radius = 1/(2 Im z K_H(t_max,z,z)) is the standard Weyl-disk bound;
    a large radius (non-convergence) is reported in the value, not raised.
    """
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("weyl needs Im z > 0")
    q = mobius(transfer_matrix(h, t_max, z), 1j)
    kd = kernel_kh(h, t_max, z, z).real
    radius = math.inf if kd <= 0 else 1.0 / (2.0 * z.imag * kd)
    return q, radius


def rescale_h(h, g, r):
    """Weighted rescaling: lengths/r, diagonal reweighted by g(r)/r and r/g(r)."""
    if r <= 0:
        raise ValueError("r must be > 0")
    gr = float(g(r))
    c1, c2 = gr / r, r / gr

    def reweight(m):
        return np.array([[c1 * m[0, 0], m[0, 1]], [m[1, 0], c2 * m[1, 1]]])

    mats = np.array([reweight(m) for m in h.matrices])
    tail = None if h.tail is None else reweight(h.tail)
    return Hamiltonian(h.lengths / r, mats, tail=tail)


def jacobi_hamiltonian(rec, n_max):
    """Unit-length rank-one pieces [[q_n(0)^2, -p_n q_n],[-p_n q_n, p_n(0)^2]]; the
    second kind q_0 = 0, q_n = p^(1)_{n-1} / a_1 from the shifted coefficients."""
    n_max = _level(n_max, 1, len(rec), "n_max")
    p, log_p = eval_polys(rec, n_max - 1, 0.0)
    p1, log_p1 = eval_polys(RecurrenceCoeffs(rec.a[1:], rec.b[1:]), max(n_max - 2, 0), 0.0)
    p = p.real * math.exp(log_p)
    q = np.append(0.0, p1.real[: n_max - 1] * math.exp(log_p1) / rec.a[0])
    mats = np.empty((n_max, 2, 2))
    for n in range(n_max):
        mats[n] = [[q[n] ** 2, -p[n] * q[n]], [-p[n] * q[n], p[n] ** 2]]
    return Hamiltonian(np.ones(n_max), mats)


def opuc_hamiltonian(v, n_max):
    """Unit-length constant pieces

        (1/2) [[|psi_n(1)|^2,  Im(psi_n(1) conj(phi_n(1)))],
               [Im(psi_n(1) conj(phi_n(1))), |phi_n(1)|^2]];

    the 1/2 normalizes the pieces so kernel_kh reproduces the circle-chain
    kernels K(n+s,.,.) exactly (free case: H = I/2, K(t,0,0) = t/2).  The
    second kind psi_n is the phi_n of the coefficients -alpha.
    """
    n_max = _level(n_max, 1, len(v), "n_max")
    phis, _ = szego_eval(v, n_max - 1, 1.0)
    psis, _ = szego_eval(VerblunskyCoeffs(-v.alpha), n_max - 1, 1.0)
    mats = np.empty((n_max, 2, 2))
    for n in range(n_max):
        phi, psi = phis[n], psis[n]
        off = float(np.imag(psi * np.conj(phi)))
        mats[n] = 0.5 * np.array([[abs(psi) ** 2, off], [off, abs(phi) ** 2]])
    return Hamiltonian(np.ones(n_max), mats)


def transfer_form_integral(h, t, z, w):
    """int_0^t W(s,z) H(s) W(s,w)* ds by 32-point Gauss-Legendre per piece.

    Equals (W(t,z) J W(t,w)* - J) / (z - conj w); used as the integral-identity
    oracle for transfer matrices.
    """
    from .measures import _leggauss

    x_gl, w_gl = _leggauss(32)
    z, w = complex(z), complex(w)
    out = np.zeros((2, 2), dtype=complex)
    wz0 = ww0 = np.eye(2, dtype=complex)  # W(start, z), W(start, w) of the piece
    for ell, m in _iter_pieces(h, t):
        for u, wq in zip((x_gl + 1.0) * (ell / 2.0), w_gl):
            wz = wz0 @ _piece_factor(m, u, z)[0]
            ww = ww0 @ _piece_factor(m, u, w)[0]
            out += (wq * ell / 2.0) * (wz @ m @ ww.conj().T)
        wz0 = wz0 @ _piece_factor(m, ell, z)[0]
        ww0 = ww0 @ _piece_factor(m, ell, w)[0]
    return out


# ---------------------------------------------------------------------------
# Schrodinger kernels
# ---------------------------------------------------------------------------

class SchrodingerToleranceError(RuntimeError):
    """Step control failed or the two kernel forms disagree."""


# RK4 steps per block of step matrices; keeps the block arrays near 3 MB at 162 lanes
_CHAIN_BLOCK = 64


def _rk4_step_matrices(a1, a2, a3, h, derivative):
    """Closed-form RK4 step matrices of (u, u')' = [[0, 1], [a, 0]] (u, u'),
    a1, a2, a3 = a at y, y + h/2, y + h over (steps, lanes); returns shape
    (steps, 2, 2, lanes), or (steps, 4, 4, lanes) for [[M, 0], [dM/dlam, M]]
    (da/dlam = -1)."""
    h2 = h * h
    d = 4 if derivative else 2
    m = np.zeros((a1.shape[0], d, d, a1.shape[1]), dtype=complex)
    m[:, 0, 0] = 1.0 + (h2 / 6.0) * (a1 + 2.0 * a2) + (h2 * h2 / 24.0) * a1 * a2
    m[:, 0, 1] = h + (h * h2 / 6.0) * a2
    m[:, 1, 0] = (h / 6.0) * (a1 + 4.0 * a2 + a3) + (h * h2 / 12.0) * a2 * (a1 + a3)
    m[:, 1, 1] = 1.0 + (h2 / 6.0) * (2.0 * a2 + a3) + (h2 * h2 / 24.0) * a2 * a3
    if derivative:
        m[:, 2:, 2:] = m[:, :2, :2]
        m[:, 2, 0] = -h2 / 2.0 - (h2 * h2 / 24.0) * (a1 + a2)
        m[:, 2, 1] = -h * h2 / 6.0
        m[:, 3, 0] = -h - (h * h2 / 12.0) * (a1 + 2.0 * a2 + a3)
        m[:, 3, 1] = -h2 / 2.0 - (h2 * h2 / 24.0) * (a2 + a3)
    return m


def _schrodinger_sweep(v_fn, beta_bc, x, lams, n_steps, derivative=False):
    """RK4 in n_steps steps for u'' = (V - lam) u on [0, x] with
    u(0) = sin(beta), u'(0) = -cos(beta), batched over the spectral
    parameters lams, as a chain of closed-form step matrices: per block of
    _CHAIN_BLOCK steps their entries are formed over (steps x lams) at once,
    and only the matrix-vector product runs step by step.  derivative=True
    also carries (d/dlam u, d/dlam u'), since RK4 commutes with d/dlam.

    Returns (state, m): state rows u, u' (then d/dlam u, d/dlam u') over lams,
    and m = int_0^x u(., lam_0) u(., lam_1) dy for each adjacent pair, by
    Simpson's rule on the RK4 substeps.
    """
    # each distinct lam is propagated once; lane maps the given lams to them
    lams, lane = np.unique(np.asarray(lams, dtype=complex), return_inverse=True)
    left, right = lane[0::2], lane[1::2]
    h = x / n_steps
    ys = np.concatenate(([0.0], np.cumsum(np.full(n_steps, h))))  # y += h per step
    v = np.array([v_fn(y) for y in ys.tolist()])
    v_mid = np.array([v_fn(y + 0.5 * h) for y in ys[:-1].tolist()])
    state = np.zeros((4 if derivative else 2, lams.size), dtype=complex)
    state[:2] = [[math.sin(beta_bc)], [-math.cos(beta_bc)]]
    m = 0.0
    for s in range(0, n_steps, _CHAIN_BLOCK):
        e = min(s + _CHAIN_BLOCK, n_steps)
        a1 = v[s:e, None] - lams
        a2 = v_mid[s:e, None] - lams
        mats = _rk4_step_matrices(a1, a2, v[s + 1 : e + 1, None] - lams, h, derivative)
        states = np.empty((e - s + 1,) + state.shape, dtype=complex)
        states[0] = state
        for k, step in enumerate(mats):
            np.einsum("ijl,jl->il", step, states[k], out=states[k + 1])
        u, du = states[:, 0], states[:, 1]
        # third-order dense output at the midpoint, (h/8)(k1 - k4) of u, keeps
        # Simpson at O(h^4)
        u_mid = 0.5 * (u[:-1] + u[1:]) - (h * h / 8.0) * a2 * (
            (1.0 + (h * h / 4.0) * a1) * u[:-1] + (h / 2.0) * du[:-1])
        f = u[:, left] * u[:, right]
        m = m + (h / 6.0) * (f[:-1] + 4.0 * u_mid[:, left] * u_mid[:, right] + f[1:]).sum(axis=0)
        state = states[-1]
    return state[:, lane], m


def rescaled_schrodinger(v_fn, beta_bc, xi, h, x, grid):
    """Samples of K(x, xi + z/tau, xi + w/tau) / K(x, xi, xi), tau = h(K(x, xi, xi)),
    of the Schrodinger kernel on [0, x], x finite and > 0: each K is an m of
    _schrodinger_sweep in max(1024, 16 x) steps."""
    if not 0.0 < x < math.inf:
        raise ValueError(f"x must be finite and > 0, got {x}")
    steps = max(1024, int(16 * x))
    _, m = _schrodinger_sweep(v_fn, beta_bc, x, [xi, xi], steps)

    def kernel(xs, pairs):
        lams = [lam for i, j in pairs for lam in (xs[i], xs[j].conjugate())]
        return _schrodinger_sweep(v_fn, beta_bc, x, lams, steps)[1]

    return _rescaled_samples(float(m[0].real), xi, h, grid, kernel)


def schrodinger_kernel(v_fn, beta_bc, x, z, w, tol=1e-8):
    """Reproducing kernel of -u'' + V u = lam u on [0, x] at (z, w):

        int_0^x u(y,z) conj(u(y,w)) dy
      = (u(x,z) conj(u'(x,w)) - u'(x,z) conj(u(x,w))) / (z - conj w),

    both forms returned, as (quadrature, wronskian); Richardson step halving
    (at most 14 times) until they stabilize to tol, error if the two forms
    disagree beyond 10x tol.
    """
    if not 0.0 < x < math.inf:
        raise ValueError(f"x must be finite and > 0, got {x}")
    z, w = complex(z), complex(w)
    vbar = w.conjugate()
    confluent = abs(z - vbar) < DIAGONAL_SWITCH

    lams = [(z + vbar) / 2.0] * 2 if confluent else [z, vbar]
    n = max(64, int(8 * x * (1.0 + abs(z) ** 0.5 + abs(w) ** 0.5)))
    prev = None
    for _ in range(14):
        (u, du, *dot), m = _schrodinger_sweep(v_fn, beta_bc, x, lams, n, derivative=confluent)
        quad = complex(m[0])
        if confluent:  # udot'' = (V - lam) udot - u, so K = u'(x) udot(x) - u(x) udot'(x)
            wron = complex(du[0] * dot[0][0] - u[0] * dot[1][0])
        else:
            wron = complex((u[0] * du[1] - du[0] * u[1]) / (z - vbar))
        if prev is not None and abs(quad - prev[0]) <= tol * (1.0 + abs(quad)) \
                and abs(wron - prev[1]) <= tol * (1.0 + abs(wron)):
            if abs(quad - wron) > 10.0 * tol * (1.0 + abs(quad)):
                raise SchrodingerToleranceError(
                    f"kernel forms disagree: |quad - wronskian| = {abs(quad - wron):.3e}"
                )
            return quad, wron
        prev = (quad, wron)
        n *= 2
    raise SchrodingerToleranceError(f"step control failed at {n} steps")
