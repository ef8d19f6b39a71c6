"""Experiment orchestration: convergence studies against limit kernels,
zero-distribution studies, and the sparse-Jacobi example generator.

Ratio-based zero laws are the primary pass signals because they cancel the
unresolved internal-scale constant of the limit-kernel family; absolute
constants are always reported next to the candidate closed forms
{1, pi^(1/beta), Gamma(beta+1)^(-1/beta)} and never asserted.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .limit_kernels import build_limit_kernel, fit_internal_scale
from .oprl import KernelOverflowError, RecurrenceCoeffs, eval_polys, kernel_diag, zeros_near
from .special import bessel_zeros, gamma_cx

__all__ = [
    "ConvergenceReport",
    "ZeroReport",
    "ZeroWindowError",
    "real_grid_pairs",
    "complex_grid_pairs",
    "convergence_study",
    "zero_study",
    "sparse_jacobi",
    "SparseDiagnosticsAt",
    "sparse_diagnostics",
]


def real_grid_pairs(half_width, points_per_axis):
    """Real (z, w) pairs on [-hw, hw]^2, always containing (0, 0)."""
    axis = np.linspace(-half_width, half_width, points_per_axis)
    if not np.any(axis == 0.0):
        axis = np.sort(np.append(axis, 0.0))
    return [(complex(x), complex(y)) for x in axis for y in axis]


def complex_grid_pairs(half_width, points_per_axis):
    """Pairs from the product of a complex square grid with itself."""
    axis = np.linspace(-half_width, half_width, points_per_axis)
    if not np.any(axis == 0.0):
        axis = np.sort(np.append(axis, 0.0))
    pts = [complex(x, y) for x in axis for y in axis]
    return [(z, w) for z in pts for w in pts]


# The grid of the internal-scale fit (complex samples make the fit sharp);
# never mutated.
FIT_GRID = complex_grid_pairs(1.0, 3)


@dataclass
class ConvergenceReport:
    indices: list
    sup_errors: list
    fitted_scale: float
    fitted_scale_residual: float
    passed: bool
    samples_by_index: dict  # index -> the samples on grid


def convergence_study(sampler, target, indices, grid, tolerance):
    """Rescaled kernels sampler(index, grid) vs target(c z, c w) with fitted c;
    sampler is a rescaled sampler with its source, xi and h bound, such as
    functools.partial(oprl.rescaled_cd, rec, xi, h), which samples each
    distinct point on its own.

    One sampler call per distinct index: the largest index's call also takes
    FIT_GRID, the 3x3 complex grid of half-width 1, whose samples fit the
    internal scale c once.  Sup-errors are then recorded per index on grid
    after scale alignment.  Passed iff the errors decrease and the final one
    meets the tolerance.  The report keeps the samples per index.
    """
    indices = list(indices)
    if not indices:
        raise ValueError("need at least one index")
    if not any(z == 0 and w == 0 for z, w in grid):
        raise ValueError("grid must include (0, 0)")
    top = max(indices)
    top_samples = sampler(top, FIT_GRID + list(grid))
    fit = fit_internal_scale(top_samples[:len(FIT_GRID)], target)
    samples_by_index = {idx: top_samples[len(FIT_GRID):] if idx == top else sampler(idx, grid)
                        for idx in dict.fromkeys(indices)}
    sup_errors = [float(max(abs(s.value - target(fit.c * s.z, fit.c * s.w))
                            for s in samples_by_index[idx])) for idx in indices]
    decreasing = all(b < a for a, b in zip(sup_errors, sup_errors[1:]))
    passed = decreasing and sup_errors[-1] <= tolerance
    return ConvergenceReport(
        indices=indices,
        sup_errors=sup_errors,
        fitted_scale=fit.c,
        fitted_scale_residual=fit.residual,
        passed=passed,
        samples_by_index=samples_by_index,
    )


# ---------------------------------------------------------------------------
# zero studies
# ---------------------------------------------------------------------------

@dataclass
class ZeroReport:
    """Outcome of a zero_study; its extras are per mode (see zero_study)."""

    n_values: list
    scaled_zeros: dict  # (n, k) -> float
    max_rel_error_ratios: float
    extras: dict = field(default_factory=dict)


class ZeroWindowError(ValueError):
    """A zero study needs a zero of p_n near xi that it cannot have."""

    def __init__(self, mode, n, xi, cause):
        self.mode = mode
        self.n = n
        self.xi = xi
        super().__init__(f"{mode} zero study: p_{n} {cause} (xi = {xi!r})")


def _window(rec, n, xi, k, mode):
    """(zeros, i): zeros of p_n near xi (zeros_near) and the index in them of
    the first zero right of xi.

    The window holds the k + 1 zeros on each side of xi, or every zero on a
    side with fewer, so indexing relative to it matches the full spectrum.
    """
    first, zeros = zeros_near(rec, n, xi, k)
    i = int(np.searchsorted(zeros, xi, side="right"))
    if (i <= k and first > 0) or (zeros.size - i <= k and first + zeros.size < n):
        raise ZeroWindowError(mode, n, xi, "has zeros too close to xi for its window")
    return zeros, i


def _clock_study(rec, xi, h, n_values, k_max):
    scaled = {}
    for n in n_values:
        zeros, idx = _window(rec, n, xi, k_max, "clock")
        if idx in (0, zeros.size):
            raise ZeroWindowError("clock", n, xi, "has no zero on one side of xi")
        tau = float(h(kernel_diag(rec, n, xi)))
        for j in range(-k_max, k_max + 1):
            # xi_j is zeros[idx + j - 1]; the gap j is xi_{j+1} - xi_j
            i_lo = idx + j - 1
            i_hi = idx + j
            if i_lo >= 0 and i_hi < zeros.size:
                scaled[(n, j)] = tau * (zeros[i_hi] - zeros[i_lo])
    n_top = max(n_values)
    worst = max(
        (abs(v - 1.0) for (n, j), v in scaled.items() if n == n_top),
        default=math.inf,
    )
    return ZeroReport(
        n_values=list(n_values),
        scaled_zeros=scaled,
        max_rel_error_ratios=float(worst),
    )


def _ratio_law(rec, n, xi, h, mode, bessel, power, raw, scaled, kappa=1.0):
    """(window, h(K(n, xi, xi)), worst error) of the Bessel ratio law at degree
    n: the first len(bessel) zeros xi_k of p_n right of xi (a zero at xi, as of
    an odd p_n at the centre of an even weight, is left of it) go into raw and,
    as kappa h(K) (xi_k - xi), into scaled, by (n, k); the error is the worst
    |r_k / (j_k/j_1)^power - 1| of r_k = (xi_k - xi)/(xi_1 - xi)."""
    zeros, i = _window(rec, n, xi + 1e-300, len(bessel), mode)
    if i == zeros.size:
        raise ZeroWindowError(mode, n, xi, "has no zero right of xi")
    pos = zeros[i: i + len(bessel)]
    hk = float(h(kernel_diag(rec, n, xi)))
    errs = []
    for k in range(1, pos.size + 1):
        raw[(n, k)] = float(pos[k - 1])
        scaled[(n, k)] = kappa * hk * (pos[k - 1] - xi)
        ratio = (pos[k - 1] - xi) / (pos[0] - xi)
        errs.append(abs(ratio / float((bessel[k - 1] / bessel[0]) ** power) - 1.0))
    return zeros, hk, max(errs)


def _hard_edge_study(rec, xi, h, n_values, k_max):
    beta = 1.0 / h.index
    j_bessel = np.array(bessel_zeros(beta - 1.0, k_max))
    scaled, raw, ratio_errors_by_n = {}, {}, {}
    first_zero, hk_values = [], []
    for n in n_values:
        _, hk, ratio_errors_by_n[n] = _ratio_law(rec, n, xi, h, "hard_edge", j_bessel, 2,
                                                 raw, scaled)
        hk_values.append(hk)
        first_zero.append(raw[(n, 1)] - xi)
    # empirical exponent e in xi_1 ~ C h(K)^(-e): log-log regression
    x = np.log(hk_values)
    y = np.log(first_zero)
    if len(x) >= 2:
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - np.polyval([slope, intercept], x)
        dof = max(len(x) - 2, 1)
        se = math.sqrt(float(resid @ resid) / dof / float(np.sum((x - x.mean()) ** 2)))
        exponent = -slope
        band95 = 1.96 * se
    else:
        exponent, band95 = math.nan, math.inf
    # absolute first-zero constant vs both printed candidates (scale e = 1)
    n_top = max(n_values)
    const_meas = scaled[(n_top, 1)] / float(j_bessel[0] ** 2)
    g1 = gamma_cx(beta + 1.0).real
    const_thm = math.pi ** (1.0 / beta) / (4.0 * g1 ** (1.0 / beta))
    const_def = 1.0 / (4.0 * build_limit_kernel(0.0, 1.0, beta).sigma)
    return ZeroReport(
        n_values=list(n_values),
        scaled_zeros=scaled,
        max_rel_error_ratios=float(ratio_errors_by_n[n_top]),
        extras={
            "raw_zeros": raw,
            "ratio_errors_by_n": ratio_errors_by_n,
            "exponent": float(exponent),
            "exponent_band95": float(band95),
            "first_zero_constant": float(const_meas),
            "candidate_constants": {
                "pi^(1/b)/(4 Gamma(b+1)^(1/b))": const_thm,
                "one-sided component prediction 1/(4 sigma)": const_def,
                # internal scale pi^(1/beta) shrinks the component zeros
                "1/(4 sigma) at internal scale pi^(1/b)":
                    const_def / math.pi ** (1.0 / beta),
            },
        },
    )


def _even_fh_study(rec, xi, h, n_values, k_max):
    beta = 1.0 / h.index
    # p_2n sees order beta/2 - 1 and p_{2n+1} order beta/2
    laws = (("even", 0, np.array(bessel_zeros(beta / 2.0 - 1.0, k_max))),
            ("odd", 1, np.array(bessel_zeros(beta / 2.0, k_max))))
    kappa = build_limit_kernel(1.0, 1.0, beta).kappa
    scaled, raw, odd_zero_at_origin = {}, {}, {}
    errors = {"even": {}, "odd": {}}
    for n in n_values:
        for parity, odd, j_bessel in laws:
            zeros, _, errors[parity][n] = _ratio_law(rec, 2 * n + odd, xi, h, "even_fh",
                                                     j_bessel, 1, raw, scaled, kappa)
            if odd:
                odd_zero_at_origin[n] = float(np.min(np.abs(zeros - xi)))
    n_top = max(n_values)
    worst = max(errors["even"][n_top], errors["odd"][n_top])
    return ZeroReport(
        n_values=list(n_values),
        scaled_zeros=scaled,
        max_rel_error_ratios=float(worst),
        extras={
            "raw_zeros": raw,
            "ratio_errors_by_n": errors,
            "odd_zero_at_origin": odd_zero_at_origin,
        },
    )


def zero_study(rec, xi, h, mode, n_values, k_max):
    """Local zero-configuration laws at xi, per mode.

    clock:       tau_n (xi_{j+1} - xi_j) -> 1, tau_n = h(K(n,xi,xi))
    hard_edge:   ratio law (xi_k/xi_1) -> (j_{beta-1,k}/j_{beta-1,1})^2, plus
                 the empirical exponent of h(K) and the absolute constants
    even_fh:     even/odd-degree scaled zeros vs j_{beta/2-1,k} / j_{beta/2,k}

    Each study computes only a window of zeros around xi (oprl.zeros_near),
    never the whole spectrum; hard_edge and even_fh take their Bessel zeros
    from special.bessel_zeros, which serves k_max <= 30.  Raises
    ZeroWindowError when clock finds xi left or right of every zero of p_n, or
    another mode finds no zero right of xi.  The report holds the scaled zeros
    by (n, k) (clock: the scaled gaps by (n, j), leaving out gaps beyond the
    ends of the spectrum) and the worst error at the largest n; hard_edge and
    even_fh add the raw zeros and the ratio errors per n to extras.
    """
    n_values = sorted(n_values)
    if mode == "clock":
        return _clock_study(rec, xi, h, n_values, k_max)
    if mode == "hard_edge":
        return _hard_edge_study(rec, xi, h, n_values, k_max)
    if mode == "even_fh":
        return _even_fh_study(rec, xi, h, n_values, k_max)
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# sparse Jacobi matrices
# ---------------------------------------------------------------------------

@dataclass
class SparseDiagnosticsAt:
    xi: float
    norms_sq: np.ndarray          # ||A_n||^2 for n = 1..n_max
    block_deviation: float        # max |norms_sq - block value| within blocks
    q: np.ndarray                 # p_n^2 - xi a_n p_n p_{n-1} + (a_n p_{n-1})^2, n = 1..n_max
    k: np.ndarray                 # K(n, xi, xi) for n = 1..n_max + 1, the bits of kernel_diag

    def g_xi(self, m):
        """Scaling function of the measure at an integer m, or at each entry of
        an integer array; past n_max it keeps q at n_max."""
        return (2.0 * math.pi * m / math.sqrt(4.0 - self.xi * self.xi)) \
            * self.q[np.minimum(m, self.q.size) - 1]

    def scaling_inverse(self):
        """Numeric asymptotic inverse of g_xi, h(t) with g_xi(h(t)) = t, by
        linear interpolation; usable directly as the h of rescaled_cd."""
        ns = np.arange(1, self.q.size + 1)
        return functools.partial(np.interp, xp=np.maximum.accumulate(self.g_xi(ns)), fp=ns)


def sparse_diagnostics(rec, xi):
    """Diagnostics of a sparse_jacobi matrix at xi in (-2, 2), from one run of
    the recurrence: ||A_n||^2 of the oscillation vectors A_n, their largest
    deviation within the blocks between nonzero b_n, g_xi and its inverse, and
    the diagonal K(n, xi, xi).  Raises KernelOverflowError, as kernel_diag
    does, when the recurrence leaves the double range."""
    if not -2.0 < xi < 2.0:
        raise ValueError(f"xi = {xi} is outside the bulk (-2, 2)")
    n_max = len(rec)
    p, log_scale = eval_polys(rec, n_max, xi)
    with np.errstate(over="ignore"):
        k = np.cumsum(p.real ** 2)
    if log_scale > 0.0 or not math.isfinite(k[-1]):  # a rescale means K > 1e560
        raise KernelOverflowError(n_max + 1, xi)
    a_n, p_n, p_nm1 = rec.a, p.real[1:], p.real[:-1]
    q = p_n ** 2 - xi * a_n * p_n * p_nm1 + (a_n * p_nm1) ** 2
    norms_sq = 2.0 * q / (4.0 - xi * xi)
    # block constancy of ||A_n||^2 on N_j <= n < N_{j+1} (the vector jumps
    # exactly at n = N_j, where b_n is nonzero); edges index norms_sq from 0
    edges = np.unique(np.concatenate([[0], np.flatnonzero(rec.b), [n_max]]))
    dev = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi - lo >= 2:
            dev = max(dev, float(np.max(np.abs(norms_sq[lo:hi] - norms_sq[lo]))))
    return SparseDiagnosticsAt(xi=float(xi), norms_sq=norms_sq, block_deviation=dev, q=q, k=k)


def _bump_positions(first, ratio, n_max, count):
    """The bumps N_j = round(first ratio^(j-1)) up to n_max, at most count of
    them; ValueError unless they strictly increase."""
    bumps = []
    m = float(first)
    while m <= n_max and len(bumps) < count:
        bumps.append(int(round(m)))
        m *= ratio
    if any(b <= a for a, b in zip(bumps, bumps[1:])):
        raise ValueError(f"the rounded bump positions of first = {first}, ratio = {ratio} "
                         "do not strictly increase")
    return bumps


def sparse_jacobi(v_values, first, ratio, n_max):
    """Sparse decaying Jacobi matrix: a_n = 1, b_{N_j} = v_j, b_n = 0 otherwise,
    at the bumps N_j = round(first ratio^(j-1)) up to n_max; ValueError unless
    they strictly increase.  Returns the RecurrenceCoeffs; its diagnostics at
    a point come from sparse_diagnostics.
    """
    v_values = np.asarray(v_values, dtype=float)
    b = np.zeros(n_max)
    for v, pos in zip(v_values, _bump_positions(first, ratio, n_max, v_values.size)):
        if pos >= 1:
            b[pos - 1] = v
    return RecurrenceCoeffs(a=np.ones(n_max), b=b)
