"""Orthogonal polynomials on the real line.

Recurrence convention (orthonormal, probability measure):

    a_{n+1} p_{n+1}(x) = (x - b_{n+1}) p_n(x) - a_n p_{n-1}(x),
    p_{-1} = 0, p_0 = 1,  a_n > 0.

Second-kind polynomials are not a separate sequence: q_n = p^(1)_{n-1} / a_1
(q_0 = 0), where p^(1) are the polynomials of the shifted coefficients
(a_{n+1}, b_{n+1}), so eval_polys of RecurrenceCoeffs(a[1:], b[1:]) gives them.
Coefficients come from a quadrature discretization of the measure followed by
Lanczos tridiagonalization (folded onto x^2 for symmetric measures), which
first merges the runs of a large node set into their Jacobi blocks and stores
a run's basis only when Simon's estimate fires or the run breaks down.  Zeros
are eigenvalues of the truncated Jacobi matrix, found by Sturm-sequence
bisection: deterministic, strictly increasing, and the same bits whether all
n zeros are asked for (poly_zeros) or only a window of them around a point
(zeros_near).  Bounds on each zero let bisection take the steps outside them
without counting, and each step inside is counted by one scalar Sturm pass in
Python floats, which also gives the Newton step.  All n zeros take their
bounds from a dense eigvalsh (O(n^3) time, O(n^2) memory) and one certifying
numpy Sturm pass; a window takes them from scalar passes alone, by bisection
to isolate each zero and safeguarded Newton to polish it (O(n) memory).
Either way the bits are bisection's.

Integer levels n (and degrees and counts) follow one rule, _level, here and in
opuc and canonical; real levels t, those of the de Branges chain, go through
interp_kernel and follow one rule too, _real_level.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .limit_kernels import ZeroDiagonalError, _rescaled_samples, _tabulated, pair_kernel
from .measures import _piece_nodes, _subst_exponent

__all__ = [
    "RecurrenceCoeffs",
    "SupportTooSmallError",
    "PositivityLossError",
    "ZeroDiagonalError",
    "KernelOverflowError",
    "stieltjes_coeffs",
    "eval_polys",
    "cd_kernel",
    "interp_kernel",
    "kernel_diag",
    "rescaled_cd",
    "nevai_ratio",
    "poly_zeros",
    "zeros_near",
]

_RESCALE_LIMIT = 1e280


class SupportTooSmallError(ValueError):
    """Discretized support has too few points for the requested degree."""


class PositivityLossError(RuntimeError):
    """Lanczos lost positivity of an off-diagonal coefficient."""

    def __init__(self, index):
        self.index = index
        super().__init__(f"a_{index} lost positivity (ill-conditioned discretization)")


class KernelOverflowError(OverflowError):
    """K(index, xi, w) exceeds the double range; w defaults to xi (the diagonal)."""

    def __init__(self, index, xi, w=None):
        self.index = index
        self.xi = xi
        self.w = xi if w is None else w
        super().__init__(f"K({index}, {xi}, {self.w}) overflows double precision")


@dataclass(frozen=True)
class RecurrenceCoeffs:
    a: np.ndarray  # a_1 .. a_N
    b: np.ndarray  # b_1 .. b_N

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if a.shape != b.shape:
            raise ValueError("a and b must have equal length")
        if not (np.all((a > 0) & (a < np.inf)) and np.all(np.isfinite(b))):
            raise ValueError("all a_n must be finite and > 0, and all b_n finite")

    def __len__(self):
        return self.a.size


def _level(n, least, top, name="n"):
    """n as an int: an int, a numpy integer or an integral float with
    least <= n <= top.  Anything else (a fractional, NaN or infinite n, or one
    outside the range) raises a ValueError that names the argument, n and the
    bound it breaks."""
    if isinstance(n, (int, np.integer)) or isinstance(n, (float, np.floating)) and n.is_integer():
        if least <= n <= top:
            return int(n)
        if n > top:
            raise ValueError(f"{name} = {n} exceeds the top level {top}")
    raise ValueError(f"{name} must be an integer >= {least}, got {n}; real levels go through "
                     "interp_kernel or opuc_canonical_kernel")


def _real_level(t):
    """(n, s) = (floor(t), t - floor(t)) of a real level t; ValueError unless 0 <= t < inf."""
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    n = int(math.floor(t))
    return n, t - n


# ---------------------------------------------------------------------------
# Stieltjes / Lanczos
# ---------------------------------------------------------------------------

def _discretize(mu, n_max):
    """Nodes and positive weights of mu, sorted; exact for degree 2*n_max + 1.

    Each half of each piece gets k (n_max + 2) + 8 Gauss-Legendre nodes, k
    the substitution power of its endpoint exponent, so the substituted
    integrand of a degree-(2 n_max + 1) moment is integrated exactly.  Nodes
    of zero weight are dropped; raises ValueError on a non-finite weight (a
    density that returns NaN or inf) and SupportTooSmallError unless more than
    n_max nodes remain.  A measure of atoms only gives its own two arrays,
    which Measure keeps finite, strictly increasing and positive: no copy.
    """
    x, w = mu.atom_positions, mu.atom_masses
    if mu.pieces:
        xs, ws = [x], [w]
        for p in mu.pieces:
            k = max(_subst_exponent(g) for g in p.singular_exponents)
            x, w = _piece_nodes(p, p.a, p.b, k * (n_max + 2) + 8)
            xs.append(x)
            ws.append(w)
        x = np.concatenate(xs)
        w = np.real(np.concatenate(ws))
        if not np.all(np.isfinite(w)):
            raise ValueError("the measure has non-finite weights (a density returned NaN or inf)")
        order = np.argsort(x, kind="stable")
        x, w = x[order], w[order]
        x, w = x[w > 0], w[w > 0]
    if x.size <= n_max:
        raise SupportTooSmallError(
            f"support has {x.size} points after discretization; need > {n_max}"
        )
    return x, w


_CHUNK = 2**13  # entries per chunk of a test that reads a whole node set


def _chunks(n):
    """The (lo, hi) bounds of n entries in chunks of _CHUNK."""
    return ((lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK))


def _lanczos(x, w, m, total=None):
    """Diagonal (m) and off-diagonal (m - 1) of the m x m Jacobi block of sum w_i delta(x_i),
    or, with total, of its fold sum (w_i / total) delta(x_i^2) (x, w: the positive half).

    The block reads only the moments of degree <= 2m - 1.  While there are
    more than 2B entries, B = 32 m, each run of B entries becomes its own m x m
    Jacobi block with the run's mass on its first entry, which keeps those
    moments (discretize-and-merge: Gautschi 2004, Sec. 2.2), and Lanczos goes
    on over the block-diagonal tridiagonal operator (_merge_level).  Equal
    adjacent nodes are first made one node, and B is a multiple of m, so no
    run splits a node or a block.  The last level, one run, is redone with its
    basis when its basis-free try fires or breaks down.  Each step squares and
    normalizes only the slice of the fold that it reads (the equal-node merge,
    which no packaged config needs, reads it whole), so the peak is the
    measure's atoms and one stored basis.
    """
    fold = total is not None

    def read(lo, hi):  # the operator's nodes and masses lo..hi
        return (x[lo:hi] ** 2, w[lo:hi] / total) if fold else (x[lo:hi], w[lo:hi])

    # read in chunks, the test makes no array of the node set's size
    if any(np.any(s[1:] == s[:-1]) for s in (read(lo, hi + 1)[0] for lo, hi in _chunks(x.size))):
        x, w = read(0, x.size)
        keep = np.append(True, x[1:] != x[:-1])
        x, w, fold = x[keep], np.add.reduceat(w, np.flatnonzero(keep)), False
    off = None  # off[i] couples entries i and i + 1; None while no block has two
    while x.size > 64 * m and (level := _merge_level(read, x.size, m, off)):
        x, w, off = level
        fold = False
    x, w = read(0, x.size)
    off = None if off is None else off[:-1]
    d, e = _krylov(x, w, m, off, False)
    return _krylov(x, w, m, off) if np.isnan(d[0]) else (d, e)


def _merge_level(read, size, m, off):
    """(x, w, off) of the next level of _lanczos over the size entries that
    read gives, or None when no run could be merged.  The full runs go through
    _krylov as the rows of stacks of about 2^15 entries, the shorter last run
    first as a stack of its own, all with no stored basis; a run whose estimate
    fires or that breaks down is redone with its basis right after its stack
    (and keeps its entries if it breaks down).  On pure_point_bulk the last run
    is the one redone (a 201 x 3,520 basis): stored before any other stack's
    work arrays, its basis sits on fresh memory, not on freed arrays that the
    allocator keeps.  The blocks are concatenated in run order, and the stacks
    are freed on return, before the final block stores its basis.
    """
    block = 32 * m
    full, per = size // block, max(1, 2**15 // block)  # per: cache-sized stacks
    stacks = [(lo, min(lo + per * block, full * block), block)
              for lo in range(0, full * block, per * block)]
    if size > full * block:  # the shorter last run goes first
        stacks.insert(0, (full * block, size, size - full * block))
    parts = {}  # by the run's first entry
    for lo, hi, n in stacks:
        xs, ws = (a.reshape(-1, n) for a in read(lo, hi))
        d, e = _krylov(xs, ws, m, None if off is None else off[lo:hi].reshape(-1, n)[:, :-1], False)
        for start, x_run, w_run, d_run, e_run in zip(range(lo, hi, n), xs, ws, d, e):
            run = slice(start, start + n)
            try:
                if np.isnan(d_run[0]):
                    d_run, e_run = _krylov(x_run, w_run, m, None if off is None else off[run][:-1])
                parts[start] = (d_run, np.append(w_run.sum(), np.zeros(m - 1)),
                                np.append(e_run, 0.0))
            except PositivityLossError:
                parts[start] = (x_run, w_run, np.zeros(n) if off is None else off[run])
    if sum(p[0].size for p in parts.values()) == size:
        return None
    return tuple(map(np.concatenate, zip(*(parts[start] for start in sorted(parts)))))


def _krylov(x, w, m, off=None, basis=True):
    """m Lanczos steps from sqrt(w), normalized, on the tridiagonal operator
    with diagonal x and off-diagonal off (None: zero), for each row of the
    stack x (or x as one row): the Jacobi blocks' diagonals d (rows x m) and
    off-diagonals e (rows x (m - 1)), vectors for one row.

    Simon's recurrence (Simon 1984, Math. Comp. 42) estimates omega_{k+1,j} ~
    q_{k+1} . q_j from d, e and the two previous rows, plus a rounding term
    eps r / e_k, r the Gershgorin bound max_i |x_i| + |off_{i-1}| + |off_i|.
    With the stored basis (one row), q_{k+1} and q_{k+2} are reorthogonalized
    against it (twice if the first pass cancels, Kahan-Parlett) only when some
    |omega_{k+1,j}| passes sqrt(eps), which keeps d and e accurate to working
    precision, and a breakdown raises PositivityLossError; without it, a row
    whose estimate fires or that breaks down comes back NaN.
    """
    one = x.ndim == 1
    x, w = np.atleast_2d(x, w)
    radius = np.abs(x)
    if off is not None:  # one row's off-diagonal broadcasts over its stack of one
        radius[:, 1:] += np.abs(off)
        radius[:, :-1] += np.abs(off)
    scale, eps = radius.max(axis=1), np.finfo(float).eps
    q = np.sqrt(w)
    q = q / np.sqrt(np.vecdot(q, q))[:, None]
    prev, v, tmp = np.zeros((3,) + q.shape)  # q_{k-1} and two work arrays
    Q = np.empty((m, q.shape[1])) if basis else None
    d, e = np.empty((len(q), m)), np.zeros((len(q), m - 1))
    omega, omega_prev = np.ones((2, len(q), m + 1))  # rows k and k - 1 of the estimate; 1 past them
    stopped, again = np.zeros(len(q), bool), False  # again: q_{k+1} follows a reorthogonalized q_k
    for k in range(m):
        if basis:
            Q[k] = q[0]
        np.multiply(x, q, out=v)
        if off is not None:
            v[:, 1:] += np.multiply(off, q[:, :-1], out=tmp[:, 1:])
            v[:, :-1] += np.multiply(off, q[:, 1:], out=tmp[:, 1:])
        d[:, k] = np.vecdot(q, v)
        if k == m - 1:
            break
        v -= np.multiply(d[:, k, None], q, out=tmp)
        v -= np.multiply(e[:, k - 1, None], prev, out=tmp)  # e[:, -1] is still 0 at k = 0
        e[:, k] = np.sqrt(np.vecdot(v, v))
        stop = ~(e[:, k] > 1e-14 * scale)  # a breakdown, relative to the scale of the operator
        if basis and stop[0]:
            raise PositivityLossError(k + 1)
        # a stopped row goes on finite; count_nonzero costs a third of stop.any() on few rows
        ek = np.where(stop, 1.0, e[:, k]) if np.count_nonzero(stop) else e[:, k]
        t = (d[:, :k] - d[:, k, None]) * omega[:, :k] + e[:, :k] * omega[:, 1 : k + 1] \
            - e[:, k - 1, None] * omega_prev[:, :k]
        t[:, 1:] += e[:, :k][:, :-1] * omega[:, :k][:, :-1]
        row = omega_prev  # row k + 1 of the estimate, in the buffer of row k - 1
        row[:, :k] = (t + np.copysign(eps * scale[:, None], t)) / ek[:, None]
        row[:, k] = eps  # row[:, k + 1] is still 1
        stop |= np.abs(row[:, : k + 1]).max(axis=1) > math.sqrt(eps)
        if not basis and np.count_nonzero(stop):
            row[stop, : k + 1] = eps
            if (stopped := stopped | stop).all():
                break
        elif basis and (again or stop[0]):
            u = v[0]  # reorthogonalized in place
            u -= Q[: k + 1].T @ (Q[: k + 1] @ u)
            if np.linalg.norm(u) < e[0, k] / math.sqrt(2.0):  # cancelled: pass twice
                u -= Q[: k + 1].T @ (Q[: k + 1] @ u)
            e[0, k] = np.linalg.norm(u)
            if not e[0, k] > 1e-14 * scale[0]:
                raise PositivityLossError(k + 1)
            row[:, : k + 1], again = eps, not again
        omega, omega_prev = row, omega
        q, prev = np.divide(v, ek[:, None], out=prev), q
    d[stopped], e[stopped] = np.nan, np.nan
    return (d[0], e[0]) if one else (d, e)


def _folded_a(x, w, total, m):
    """a_1..a_m by Lanczos on the fold x -> x^2 of a measure of mass total
    that is its own mirror image (alpha_k = a_{2k}^2 + a_{2k+1}^2, beta_k =
    a_{2k+1} a_{2k+2}); None where the fold breaks down or a pivot a_{2k+1}^2
    cancels digits.  _lanczos folds the positive half as it reads it."""
    try:
        alpha, beta = _lanczos(x[x.size // 2:], w[x.size // 2:], m // 2 + 1, total)
    except PositivityLossError:
        return None
    a = [0.0]  # a[j] = a_j
    for k in range((m + 1) // 2):
        pivot = alpha[k] - a[-1] * a[-1]
        if not pivot > 1e-2 * alpha[k]:  # more than two digits would cancel
            return None
        a.append(math.sqrt(pivot))
        a.append(beta[k] / a[-1] if k < beta.size else 0.0)
    return np.array(a[1 : m + 1])


def stieltjes_coeffs(mu, n_max):
    """Recurrence coefficients (a_1..a_n, b_1..b_n) of the measure.

    The measure is discretized exactly for degree 2*n_max + 1 (_discretize)
    and normalized to unit mass.
    A bit-exact mirror-symmetric discretization is folded (b = 0); the mirror
    test and the fold read the node set in slices and copy none of it.  Folded
    or not, Lanczos merges a large node set into Jacobi blocks first (_lanczos).
    """
    n_max = _level(n_max, 1, math.inf, "n_max")
    x, w = _discretize(mu, n_max)
    total, n = float(w.sum()), x.size
    mirror = n % 2 == 0 and all(np.array_equal(x[lo:hi], -x[n - hi : n - lo][::-1])
                                and np.array_equal(w[lo:hi], w[n - hi : n - lo][::-1])
                                for lo, hi in _chunks(n // 2))
    a, b = (_folded_a(x, w, total, n_max) if mirror else None), np.zeros(n_max)
    if a is None:
        b, a = _lanczos(x, w / total, n_max + 1)
    return RecurrenceCoeffs(a=a, b=b[:n_max])


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def eval_polys(rec, n, z):
    """(p, log_scale) with p_k(z) = p[k] exp(log_scale), k = 0..n, by forward
    recurrence.

    If values exceed 1e280 in modulus, the whole sequence is rescaled by a
    common factor and log_scale records its logarithm.
    """
    n, z = _level(n, 0, len(rec)), complex(z)
    a, b = rec.a, rec.b
    p = np.empty(n + 1, dtype=complex)
    p[0] = 1.0
    log_scale = 0.0
    # a huge or infinite z overflows to inf or nan silently; the callers raise
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n + 1):
            p[k] = ((z - b[k - 1]) * p[k - 1] - (a[k - 2] * p[k - 2] if k >= 2 else 0.0)) / a[k - 1]
            if abs(p[k]) > _RESCALE_LIMIT:
                p[: k + 1] *= 1.0 / _RESCALE_LIMIT
                log_scale += math.log(_RESCALE_LIMIT)
    return p, log_scale


def _chain(c, d, zs, start, derivative):
    """(s, ds): the state after the steps s -> (c[k] + z d[k]) s, k < n, from
    start, and its z-derivative (None unless derivative), each of shape
    (2, len(zs)); c and d have shape (n, 2, 2).

    The steps go in blocks of ceil(sqrt(n)).  One pass over the step index i
    multiplies out the product M of every block and its derivative, d(T M) =
    D M + T dM, on (2, 2, blocks, points) arrays, reading step i of every
    block as a strided view of c and d (no copy); a shorter last block leaves
    the stack, its product complete, once it has no step i.  A second pass
    applies the block products to the state in order: about 2 sqrt(n) numpy
    steps instead of n.  A product t m is t[:, 0] m[0] + t[:, 1] m[1],
    elementwise over the stacked entries (matmul on stacks of 2 x 2 matrices
    is slower).  Where the steps are near parabolic (band and gap edges), the
    error of a block product applied to the state can reach about sqrt(n)
    times that of the steps one at a time.
    """
    def times(t, m):  # t (2, 2, ...) times m (2, k, ...)
        return t[:, 0, None] * m[0] + t[:, 1, None] * m[1]

    def product(t, dt, m, dm):  # (t m, dt m + t dm)
        return times(t, m), None if dm is None else times(dt, m) + times(t, dm)

    def block(x, j):  # block j (an index or a slice) of a stack of products, or None
        return None if x is None else x[:, :, j]

    def step(i):  # step i of every block that has one: (2, 2, blocks, 1) views
        ci, di = (x[i::size].transpose(1, 2, 0)[..., None] for x in (c, d))
        return ci + zs * di, di

    zs = np.asarray(zs, dtype=complex)
    n = len(c)
    size = math.isqrt(max(n - 1, 0)) + 1
    blocks, rem = divmod(n, size)
    m, dm = step(0)
    dm = dm if derivative else None
    for i in range(1, size):
        if i == rem:  # the short last block has no step i: its product is complete
            last = m[:, :, blocks], block(dm, blocks)
            m, dm = m[:, :, :blocks], block(dm, slice(blocks))
        m, dm = product(*step(i), m, dm)
    s = np.multiply.outer(start, np.ones((1,) + zs.shape, dtype=complex))  # a 2 x 1 column
    ds = np.zeros_like(s) if derivative else None
    for j in range(blocks):
        s, ds = product(m[:, :, j], block(dm, j), s, ds)
    if rem:
        s, ds = product(*last, s, ds)
    return s[:, 0], None if ds is None else ds[:, 0]


def _batch_level(rec, n, zs):
    """(p_{n-1}, p_n, p'_{n-1}, p'_n) at level n >= 0, vectorized in z: the
    steps (p_k, p_{k-1}) = ((z - b_k) / a_k p_{k-1} - a_{k-1} / a_k p_{k-2},
    p_{k-1}) from (p_0, p_{-1}) = (1, 0) by _chain."""
    n = _level(n, 0, len(rec))
    a = rec.a[:n]
    c, d = np.zeros((2, n, 2, 2))
    c[:, 0, 0], c[:, 0, 1], c[:, 1, 0] = -rec.b[:n] / a, -np.append(0.0, a)[:n] / a, 1.0
    d[:, 0, 0] = 1.0 / a
    (p, pm), (dp, dpm) = _chain(c, d, zs, (1.0, 0.0), True)
    return pm, p, dpm, dp


def _cd_pair(rec, n, points):
    """components of the de Branges pair (A, B) = (p_{n-1}, a_n p_n) of
    K(n, ., .) for pair_kernel, tabulated over points by one _batch_level pass."""
    def evaluate(xs):
        pm, pn, dpm, dpn = _batch_level(rec, n, xs)
        return pm, rec.a[n - 1] * pn, dpm, rec.a[n - 1] * dpn

    return _tabulated(evaluate, points)


def cd_kernel(rec, n, z, w, method="cd_formula"):
    """K(n,z,w) = sum_{j<n} p_j(z) conj(p_j(w)); 1 <= n <= len(rec) + 1 by the sum.

    method "sum" sums the series; "cd_formula" (n <= len(rec)) is the CD
    identity, pair_kernel of (p_{n-1}, a_n p_n).  Raises KernelOverflowError
    when the value is outside the double range.
    """
    if method not in ("sum", "cd_formula"):
        raise ValueError(f"unknown method {method!r}")
    n = _level(n, 1, len(rec) + (method == "sum"))
    z, w = complex(z), complex(w)
    # an overflow surfaces as inf or nan in the value and is raised below
    with np.errstate(over="ignore", invalid="ignore"):
        if method == "sum":
            p_z, log_z = eval_polys(rec, n - 1, z)
            p_w, log_w = eval_polys(rec, n - 1, w)
            s = np.sum(p_z * np.conj(p_w))
            try:
                out = complex(s * math.exp(log_z + log_w))
            except OverflowError:
                out = cmath.inf
        else:
            out = pair_kernel(_cd_pair(rec, n, [z, w]), z, w)
    if not cmath.isfinite(out):
        raise KernelOverflowError(n, z, w)
    return out


def interp_kernel(rec, t, z, w):
    """Piecewise-linear kernel at a real level t >= 0; K(0,.,.) = 0, integers match cd_kernel."""
    n, s = _real_level(t)
    k_lo = 0.0 if n == 0 else cd_kernel(rec, n, z, w)
    if s == 0.0:
        return complex(k_lo)
    k_hi = cd_kernel(rec, n + 1, z, w)
    return complex(k_lo + s * (k_hi - k_lo))


def kernel_diag(rec, n, xi):
    """K(n, xi, xi) = sum_{j<n} |p_j(xi)|^2, 0 <= n <= len(rec) + 1; real levels
    go through interp_kernel.  Raises ValueError for any other n or a NaN xi,
    and KernelOverflowError when K is outside the double range."""
    n, xi = _level(n, 0, len(rec) + 1), float(xi)
    if math.isnan(xi):
        raise ValueError("xi must not be NaN")
    p, log_scale = eval_polys(rec, max(n - 1, 0), xi)
    with np.errstate(over="ignore"):
        out = np.cumsum(np.abs(p) ** 2)[n - 1] if n else 0.0
    # a rescaled sequence had an entry above 1e280, so K exceeds 1e560
    if log_scale > 0.0 or not math.isfinite(out):
        raise KernelOverflowError(n, xi)
    return float(out)


def rescaled_cd(rec, xi, h, n, grid):
    """Samples of K(n, xi + z/tau, xi + w/tau) / K(n, xi, xi),
    tau = h(K(n, xi, xi)) -- the exact left-hand side of the scaling limits --
    at an integer level 0 <= n <= len(rec)."""
    n = _level(n, 0, len(rec))

    def kernel(xs, pairs):
        xs = xs.tolist()
        pair = _cd_pair(rec, n, xs)
        return [pair_kernel(pair, xs[i], xs[j]) for i, j in pairs]

    return _rescaled_samples(kernel_diag(rec, n, xi), xi, h, grid, kernel)


def nevai_ratio(rec, xi, n):
    """K(n+1, xi, xi) / K(n, xi, xi), 1 <= n <= len(rec).  Raises ValueError for
    a NaN xi and KernelOverflowError when the ratio is not finite."""
    n = _level(n, 1, len(rec))
    if math.isnan(xi):
        raise ValueError("xi must not be NaN")
    v = np.abs(eval_polys(rec, n, xi)[0])
    # an exact power-of-two scale keeps squares of entries up to the 1e280
    # rescale limit finite
    sq = np.ldexp(v, -math.frexp(v.max())[1]) ** 2
    ratio = float(1.0 + sq[n] / np.sum(sq[:n]))
    if not math.isfinite(ratio):
        raise KernelOverflowError(n + 1, xi)
    return ratio


# ---------------------------------------------------------------------------
# zeros
# ---------------------------------------------------------------------------

_TINY = 1e-300  # an exactly-zero pivot is counted as -_TINY


def _sturm_counts(d, e_sq, shifts):
    """Number of eigenvalues of tridiag(d, e) strictly below each shift.

    One pass over the matrix serves every shift at once, which is what makes
    poly_zeros' certifying pass over 2n bounds cheap.  Exactly-zero pivots
    are perturbed to -tiny before being counted, keeping the count monotone
    in the shift.
    """
    shifts = np.asarray(shifts, dtype=float)
    q = d[0] - shifts
    q = np.where(q == 0.0, -_TINY, q)
    count = (q < 0).astype(int)
    # after a subnormal pivot e_sq / q overflows; the infinite pivot keeps its sign
    with np.errstate(over="ignore"):
        for i in range(1, d.size):
            q = d[i] - shifts - e_sq[i - 1] / q
            q = np.where(q == 0.0, -_TINY, q)
            count += q < 0
    return count


def _count_step(d, e_sq, x):
    """(count, step) at one shift x, d and e_sq lists of floats: the count of
    _sturm_counts(d, e_sq, [x]), by the same IEEE operations in the same order
    and the same zero-pivot rule, and the Newton step -p_n(x) / p_n'(x) =
    -1 / sum_i q_i' / q_i over the pivots q_i of J - x (NaN where the sum is 0,
    as at an infinite x).  q_i = d_i - x - r_i, r_i = e_sq[i - 1] / q_{i-1},
    has q_i' = r_i q_{i-1}' / q_{i-1} - 1, so the pass carries t = q' / q.  In
    Python floats it costs about 1/40 of numpy's overhead per row at one shift.
    """
    q = d[0] - x
    if q == 0.0:
        q = -_TINY
    t = -1.0 / q
    count, total = int(q < 0), t
    for di, ei in zip(islice(d, 1, None), e_sq):
        r = ei / q
        q = di - x - r
        if q < 0.0:
            count += 1
        elif q == 0.0:
            q, count = -_TINY, count + 1
        t = (r * t - 1.0) / q
        total += t
    return count, (-1.0 / total if total else math.nan)


def _gershgorin(d, e):
    """(lo, hi): the Gershgorin bounds of tridiag(d, e) widened by 1, a
    bracket of every eigenvalue."""
    pad = np.concatenate([[0.0], np.abs(e), [0.0]])
    radius = pad[:-1] + pad[1:]
    return float(np.min(d - radius)) - 1.0, float(np.max(d + radius)) + 1.0


def _estimates(d, e):
    """Eigenvalues of tridiag(d, e) by dense eigvalsh, O(n^3) time and O(n^2)
    memory: the estimates of poly_zeros, which asks for all n."""
    return np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))


def _window_bounds(d, e_sq, ks, bracket, xi, c):
    """(lower, upper): bounds of the eigenvalues of ranks ks (increasing) of
    tridiag(d, e), c of them below xi, with count(lower) < k <= count(upper),
    from _count_step passes over the lists d and e_sq.  Bisection isolates
    each rank in one shared tree of counted points, from the ends of bracket
    (counts 0 and n) and xi, until the points around rank k count k - 1 and
    k (given up within 1e-13), and _polish tightens the isolating bracket; a
    rank that is not isolated keeps the points around it, looser bounds."""
    lo, hi = bracket
    xs, counts = [lo, hi], [0, len(d)]  # the tree, sorted
    if lo < xi < hi:
        xs.insert(1, xi)
        counts.insert(1, c)
    lower, upper = np.empty(len(ks)), np.empty(len(ks))
    for j, k in enumerate(ks.tolist()):
        i = bisect_left(counts, k)  # xs[i - 1] counts below k, xs[i] at least k
        a, b = xs[i - 1], xs[i]
        while counts[i - 1] < k - 1 or counts[i] > k:
            mid = 0.5 * (a + b)
            if not (b - a > 1e-13 and a < mid < b):
                break
            xs.insert(i, mid)
            counts.insert(i, _count_step(d, e_sq, mid)[0])
            i = bisect_left(counts, k)
            a, b = xs[i - 1], xs[i]
        else:
            a, b = _polish(d, e_sq, k, a, b, max(-lo, hi))
        lower[j], upper[j] = a, b
    return lower, upper


def _polish(d, e_sq, k, a, b, norm):
    """Tighter bounds of the eigenvalue of rank k, isolated by (a, b), by
    Newton from the midpoint: each _count_step pass's count moves the bracket,
    and a step that leaves it is reflected off the end it passed (a zero next
    to xi draws Newton past xi), else bisects.  Once the step is below 1e-12
    norm (after a step s the error is about s^2 / gap: near a hard edge, zeros
    1e-4 apart, 1e-9 would leave 1e-14), the bounds are x* -+ 16 eps norm,
    x* = x + step, where a pass at each end the bracket does not already
    certify does; else the counted bracket."""
    x = 0.5 * (a + b)
    for _ in range(64):
        count, step = _count_step(d, e_sq, x)
        a, b = (a, x) if count >= k else (x, b)
        if abs(step) < 1e-12 * norm:
            x, delta = x + step, 16.0 * np.finfo(float).eps * norm
            if (x - delta <= a or _count_step(d, e_sq, x - delta)[0] < k) and (
                    x + delta >= b or _count_step(d, e_sq, x + delta)[0] >= k):
                return x - delta, x + delta
            break
        x += step
        if not a < x < b:
            x = 2.0 * (b if x >= b else a) - x
            x = x if a < x < b else 0.5 * (a + b)
    return a, b


def _enclosures(d, e, estimates):
    """(lower, upper): per eigenvalue of tridiag(d, e), rank k at index k - 1,
    bounds with count(lower) < k <= count(upper), from one _sturm_counts pass.

    Each rank is enclosed by estimates[k - 1] -+ 16 eps ||J||, kept only when
    the pass certifies it; every other rank gets (-inf, inf), which leaves
    every step to counting.
    """
    ranks = np.arange(1, d.size + 1)
    delta = 16.0 * np.finfo(float).eps * max(abs(estimates[0]), abs(estimates[-1]))
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite bound fails below
        below, above = estimates - delta, estimates + delta
    counts = _sturm_counts(d, e * e, np.concatenate([below, above])).reshape(2, -1)
    # a NaN shift counts no eigenvalue below it, so only finite bounds certify
    ok = (counts[0] < ranks) & (counts[1] >= ranks) & np.isfinite(below) & np.isfinite(above)
    return np.where(ok, below, -np.inf), np.where(ok, above, np.inf)


def _bisect(d, e_sq, bracket, ks, lower, upper):
    """Eigenvalues of rank ks (1-based, increasing) of tridiag(d, e), d and
    e_sq = e^2 lists of floats, given bounds with count(lower) < ks <=
    count(upper) (infinite where unknown), which it tightens in place.

    Sturm bisection from bracket, the Gershgorin bracket (lo, hi), until
    every bracket is at most 1e-13 wide (at most 200 halvings); all brackets
    stop together, on the widest one.  The Sturm count is monotone in the
    shift (Demmel, Dhillon & Ren 1995), so a midpoint at or below lower[k]
    has fewer than k eigenvalues below it and one at or above upper[k] at
    least k: such steps are taken without counting.  Each midpoint inside the bounds is counted
    by one _count_step pass, and its count c bounds every lane: from above
    for ranks up to c, from below for the rest, so lanes that share a
    midpoint share its count.  Every midpoint is bisection's own
    0.5 * (lo + hi), so the steps and the result are bisection's bits.
    """
    if len(d) == 1:
        return np.array(d)[ks - 1]
    lo, hi = (np.full(ks.size, end) for end in bracket)
    for _ in range(200):
        if float(np.max(hi - lo)) <= 1e-13:
            break
        mid = 0.5 * (lo + hi)
        for j in np.flatnonzero((lower < mid) & (mid < upper)).tolist():
            if lower[j] < mid[j] < upper[j]:  # not yet bounded by a count of this step
                x = float(mid[j])
                s = np.searchsorted(ks, _count_step(d, e_sq, x)[0], side="right")
                upper[:s] = np.minimum(upper[:s], x)
                lower[s:] = np.maximum(lower[s:], x)
        take_hi = mid >= upper
        hi = np.where(take_hi, mid, hi)
        lo = np.where(take_hi, lo, mid)
    return 0.5 * (lo + hi)


def _jacobi(rec, n):
    """Diagonal and off-diagonal of the n x n truncated Jacobi matrix, 1 <= n <= len(rec).
    A ValueError names a_k where a_k^2 overflows, and the Gershgorin bracket where its
    width or midpoint does: the Sturm counts, and so the zeros, would be wrong."""
    n = _level(n, 1, len(rec))
    d, e = rec.b[:n].astype(float), rec.a[: n - 1].astype(float)
    with np.errstate(over="ignore"):
        big, (lo, hi) = np.flatnonzero(np.isinf(e * e)), _gershgorin(d, e)
    if big.size:
        raise ValueError(f"a_{big[0] + 1} = {float(e[big[0]])!r} squares to inf; the zeros need "
                         "every a_k^2 finite")
    if not (math.isfinite(hi - lo) and math.isfinite(lo + hi)):
        raise ValueError(f"the Gershgorin bracket [{lo!r}, {hi!r}] of the n = {n} Jacobi matrix "
                         "has no finite width or midpoint")
    return d, e


def poly_zeros(rec, n):
    """All n zeros of p_n, strictly increasing: eigenvalues of the truncated
    Jacobi matrix by Sturm bisection to bracket width 1e-13 (_bisect).  One
    dense eigvalsh (O(n^3) time, O(n^2) memory) and one _sturm_counts pass
    over all 2n bounds enclose every zero, so that bisection counts only the
    few midpoints that fall inside an enclosure.  Studies that read zeros
    near one point use zeros_near."""
    d, e = _jacobi(rec, n)
    return _bisect(d.tolist(), (e * e).tolist(), _gershgorin(d, e), np.arange(1, d.size + 1),
                   *_enclosures(d, e, _estimates(d, e)))


def zeros_near(rec, n, xi, k):
    """(first, zeros): the zeros of p_n with indices [c - k - 2, c + k + 2)
    clipped to [0, n), c the Sturm count at xi, so that
    zeros == poly_zeros(rec, n)[first:first + zeros.size] bit for bit.

    The window holds k + 1 zeros on each side of xi, or every zero on a side
    with fewer: the margin of one more covers a computed zero that lands
    within 1e-13 on the other side of xi.  Every count is a scalar pass
    (_count_step): one at xi, those that bound each rank of the window
    (_window_bounds), and those of the few bisection steps inside the bounds;
    no n x n array is built, O(n) memory at every n.  The window's widest
    bracket stands in for the widest of all n, so a width within ulps of
    1e-13 could stop it one halving early; the tests check the gallery
    recurrences bit for bit.
    """
    if math.isnan(xi):
        raise ValueError("xi must not be NaN")
    k = _level(k, 0, math.inf, "k")
    d, e = _jacobi(rec, n)
    xi, rows, e_sq, bracket = float(xi), d.tolist(), (e * e).tolist(), _gershgorin(d, e)
    c = _count_step(rows, e_sq, xi)[0]
    first = max(c - k - 2, 0)
    ks = np.arange(first, min(c + k + 2, d.size)) + 1
    bounds = _window_bounds(rows, e_sq, ks, bracket, xi, c)
    return first, _bisect(rows, e_sq, bracket, ks, *bounds)
