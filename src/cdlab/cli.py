"""Batch experiment runner and its JSON config.

    cdlab run --config cfg.json [--out DIR]
    cdlab list-experiments

Every experiment is one entry of EXPERIMENTS, its runner: the runner's
keyword arguments are the settings a config may give and their defaults.
The exact-identity suites are the identities experiment; its config may
name one module (module_filter) and a seed.
Validation errors (a field the experiment does not read, a bad value) carry
the offending field path so the CLI can name it.  The n_values are integer
levels n >= 1 (oprl._level), or for schrodinger lengths x.  Exit status:
0 pass, 1 experiment fail, 2 config error.  Outputs are bit-stable for a
fixed config (floats printed with 17 significant digits).
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import canonical, measures, oprl, opuc
from .identities import MODULES as IDENTITY_MODULES, SEED, run_identities
from .limit_kernels import build_limit_kernel, sine_kernel
from .measures import RegVarFn, gallery, local_scaling
from .special import _MAX_BESSEL_ZEROS
from .universality import (_bump_positions, convergence_study, real_grid_pairs, sparse_diagnostics,
                           sparse_jacobi, zero_study)

__all__ = ["ConfigError", "ExperimentConfig", "EXPERIMENTS", "parse_config", "load_config",
           "run_experiment", "main"]


class ConfigError(ValueError):
    def __init__(self, field_path, message):
        self.field = field_path
        super().__init__(f"config field '{field_path}': {message}")


@dataclass
class ExperimentConfig:
    experiment: str
    output_dir: str
    settings: dict  # keyword arguments of the experiment's runner


def _expect(cond, field_path, message):
    if not cond:
        raise ConfigError(field_path, message)


def _is_number(v):  # JSON's NaN and Infinity are not numbers here
    return isinstance(v, int) or isinstance(v, float) and math.isfinite(v)


def _is_positive_list(v):
    return isinstance(v, (list, tuple)) and len(v) > 0 and all(_is_number(x) and x > 0 for x in v)


_OBJECT = (lambda v: isinstance(v, dict), "must be an object")
_POSITIVE = (lambda v: _is_number(v) and v > 0, "must be > 0")
_POSITIVE_LIST = (_is_positive_list, "must be a non-empty list of positive numbers")

# (check, message) of every setting, by config field path.  A mapping setting
# is laid over its declared default, and each of its keys is checked under
# "<setting>.<key>"; a key with no entry here is unknown.
CHECKS = {
    "measure": _OBJECT,
    "measure.name": (lambda v: v in measures.gallery_names(),
                     f"must be one of {measures.gallery_names()}"),
    "measure.params": (lambda v: isinstance(v, dict) and all(map(_is_number, v.values())),
                       "must be an object of numbers"),
    "xi": (_is_number, "must be a number"),
    "n_values": _POSITIVE_LIST,
    "grid": _OBJECT,
    "grid.half_width": _POSITIVE,
    "grid.points_per_axis": (lambda v: isinstance(v, int) and v >= 3, "must be an integer >= 3"),
    "tolerance": _POSITIVE,
    "scaling": _OBJECT,
    "scaling.eta": _POSITIVE,
    "k_max": (lambda v: isinstance(v, int) and 1 <= v <= _MAX_BESSEL_ZEROS,
              f"must be an integer in [1, {_MAX_BESSEL_ZEROS}]"),
    "betas": _POSITIVE_LIST,
    "v_exponent": (_is_number, "must be a number"),
    "first": _POSITIVE,
    "ratio": (lambda v: _is_number(v) and v > 1, "must be a number > 1"),
    "seed": (lambda v: isinstance(v, int) and v >= 0, "must be an integer >= 0"),
    "module_filter": (lambda v: v is None or v in IDENTITY_MODULES,
                      f"must be one of {list(IDENTITY_MODULES)}"),
}
_FLOATS = {"xi", "tolerance", "grid.half_width", "v_exponent", "first", "ratio"}


def _checked(path, value, default=None):
    """value of the setting at path, checked by CHECKS; a JSON integer where the setting
    is a float (_FLOATS) becomes a float, a list whose default is a tuple of floats (betas,
    schrodinger's lengths x) a tuple of floats, and other n_values integer levels >= 1."""
    _expect(path in CHECKS, path, "unknown field")
    check, message = CHECKS[path]
    _expect(check(value), path, message)
    if isinstance(default, dict):
        return {key: _checked(f"{path}.{key}", item)
                for key, item in {**default, **value}.items()}
    if isinstance(default, tuple) and isinstance(default[0], float):
        return tuple(map(float, value))
    if path == "n_values":
        try:
            return tuple(oprl._level(n, 1, math.inf) for n in value)
        except ValueError:
            raise ConfigError(path, f"must be integer levels >= 1, got {value}") from None
    return float(value) if path in _FLOATS else value


def parse_config(raw):
    """Validate a raw dict (already JSON-decoded) into an ExperimentConfig.

    Besides experiment and output_dir, a config may set exactly the keyword
    arguments of the experiment's runner; their defaults are the runner's.
    """
    _expect(isinstance(raw, dict), "", "top level must be an object")
    exp = raw.get("experiment")
    _expect(isinstance(exp, str) and exp in EXPERIMENTS, "experiment",
            f"must be one of {list(EXPERIMENTS)}")
    out_dir = raw.get("output_dir", f"out/{exp}")
    _expect(isinstance(out_dir, str), "output_dir", "must be a string")
    _, *declared = inspect.signature(EXPERIMENTS[exp]).parameters.values()
    defaults = {p.name: p.default for p in declared}
    for key in raw:
        _expect(key in defaults or key in ("experiment", "output_dir"), key,
                f"not a setting of the {exp} experiment; it takes {list(defaults)}")
    settings = {name: _checked(name, raw.get(name, default), default)
                for name, default in defaults.items()}
    if "measure" in settings:  # the gallery builder checks its own parameters
        try:
            _gallery_measure(settings["measure"])
        except ValueError as exc:
            raise ConfigError("measure.params", str(exc)) from None
    if exp == "sparse":  # the run's bump rule: its positions must strictly increase
        n_max, count = _sparse_size(settings["n_values"], settings["ratio"])
        try:
            _bump_positions(settings["first"], settings["ratio"], n_max, count)
        except ValueError as exc:
            raise ConfigError("ratio", str(exc)) from None
    return ExperimentConfig(exp, out_dir, settings)


@lru_cache(maxsize=1)
def _built(name, params):
    return gallery(name, **dict(params))


def _gallery_measure(setting):
    """The gallery measure of a measure setting.  The last one built is kept,
    so the build that checks a config in parse_config is the runner's."""
    return _built(setting["name"], tuple(setting["params"].items()))


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("", f"invalid JSON: {exc}") from exc
    return parse_config(raw)


def _fmt(x):
    return f"{x:.17g}"


def _write_kernel_csv(path, samples):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("re_z,im_z,re_w,im_w,re_K,im_K\n")
        for s in samples:
            fh.write(",".join(_fmt(v) for v in (
                s.z.real, s.z.imag, s.w.real, s.w.imag,
                s.value.real, s.value.imag)) + "\n")


def _write_zeros_csv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("n,k,zero,scaled_zero\n")
        for n, k, zero, scaled in rows:
            fh.write(f"{n},{k},{_fmt(zero)},{_fmt(scaled)}\n")


def _emit(report_lines, passed, out_dir, data):
    os.makedirs(out_dir, exist_ok=True)
    payload = {"passed": bool(passed), "lines": report_lines, "data": data}
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for line in report_lines:
        print(line)
    return 0 if passed else 1


def _normalized_scaling(mu, xi):
    """local_scaling data of the measure at xi with sigma+- divided by the total
    mass (the kernels downstream belong to the probability-normalized measure),
    and (sigma- + sigma+) / total, summed before the division."""
    est = local_scaling(mu, xi, np.logspace(0.7, 4.2, 36))
    total = mu.total_mass
    scl = {"beta_hat": est.beta_hat, "sigma_minus_hat": est.sigma_minus_hat / total,
           "sigma_plus_hat": est.sigma_plus_hat / total, "fit_residual": est.fit_residual}
    return scl, (est.sigma_minus_hat + est.sigma_plus_hat) / total


def _estimated_scaling(mu, xi, pinned):
    """Scaling function h for the rescaled kernels of the measure.

    With the pin scaling.eta, h(t) = eta t.  Otherwise the mass-normalized
    local_scaling estimates (beta, sigma+-) of _normalized_scaling: h is the
    power inverse of g(r) = (2/(sigma- + sigma+)) r^beta, which makes the
    summed one-sided limits of the normalized measure equal 2.
    """
    if "eta" in pinned:
        return RegVarFn(scale=float(pinned["eta"]), index=1.0), {"eta": pinned["eta"]}
    scl, sig = _normalized_scaling(mu, xi)
    return measures.asymptotic_inverse(RegVarFn(scale=2.0 / sig, index=scl["beta_hat"])), scl


# The default real grid of the kernel experiments; never mutated.
GRID = {"half_width": 2.0, "points_per_axis": 5}


def _convergence(out_dir, sampler, target, n_values, grid, tolerance):
    """convergence_study of sampler(index, grid) at every index of n_values on
    the real grid of the grid setting, with the internal scale fitted on the
    study's fixed 3x3 complex grid of half-width 1; writes kernel_<index>.csv
    per index."""
    report = convergence_study(sampler, target, n_values,
                               real_grid_pairs(grid["half_width"], grid["points_per_axis"]),
                               tolerance)
    for idx, samples in report.samples_by_index.items():
        tag = str(idx).replace(".", "_")
        _write_kernel_csv(os.path.join(out_dir, f"kernel_{tag}.csv"), samples)
    return report


def _run_bulk(out_dir, measure={"name": "legendre", "params": {}}, xi=0.0,
              n_values=(50, 100, 200), grid=GRID, tolerance=0.05, scaling={}):
    """rescaled CD kernels of a gallery measure vs the sine kernel"""
    mu = _gallery_measure(measure)
    h, scl = _estimated_scaling(mu, xi, scaling)
    n_top = max(n_values)
    rec = oprl.stieltjes_coeffs(mu, n_top + 1)
    report = _convergence(out_dir, partial(oprl.rescaled_cd, rec, xi, h), sine_kernel,
                          n_values, grid, tolerance)
    nev = oprl.nevai_ratio(rec, xi, n_top)
    nev_ok = abs(nev - 1.0) <= tolerance
    passed = report.passed and nev_ok
    lines = [
        f"[{'PASS' if report.passed else 'FAIL'}] bulk: rescaled CD kernel -> sine "
        f"kernel; sup errors {['%.4f' % e for e in report.sup_errors]} "
        f"at n = {report.indices}, tol {tolerance}",
        f"[{'PASS' if nev_ok else 'FAIL'}] bulk: K(n+1,xi,xi)/K(n,xi,xi) -> 1 "
        f"(subexponential growth); ratio - 1 = {nev - 1.0:.3e} at n = {n_top}",
        f"[INFO] fitted internal scale c = {report.fitted_scale:.6f} "
        f"(candidates: 1, pi, 1/Gamma(2)); residual {report.fitted_scale_residual:.3e}",
        f"[INFO] scaling data: {scl}",
    ]
    data = {
        "sup_errors": report.sup_errors,
        "indices": report.indices,
        "fitted_scale": report.fitted_scale,
        "nevai_ratio": nev,
        "scaling": scl,
    }
    return lines, passed, data


def _run_opuc_bulk(out_dir, n_values=(1000, 10000), grid=GRID, tolerance=0.01):
    """circle CD kernels (free coefficients) vs the sine kernel"""
    v = opuc.VerblunskyCoeffs.free(max(n_values))
    h = RegVarFn(scale=1.0 / (2.0 * math.pi), index=1.0)
    # k_n(zeta, omega) = sum_j (zeta conj(omega))^j here, so xi cancels: take 0
    report = _convergence(out_dir, partial(opuc.rescaled_cd_circle, v, 0.0, h), sine_kernel,
                          n_values, grid, tolerance)
    # internal scale against the printed two-sided kernel at sigma = 1, beta = 1:
    # the k111_sine identity K_{1,1,1}(pi z, pi w) = S(z, w) makes it pi c
    c = math.pi * report.fitted_scale
    c_ok = abs(c - math.pi) <= 1e-3
    passed = report.passed and c_ok
    lines = [
        f"[{'PASS' if report.passed else 'FAIL'}] opuc_bulk: rotated rescaled circle "
        f"CD kernel -> sine kernel; sup errors {['%.5f' % e for e in report.sup_errors]} "
        f"at n = {report.indices}, tol {tolerance}",
        f"[{'PASS' if c_ok else 'FAIL'}] opuc_bulk: internal scale of the printed "
        f"two-sided kernel: fitted c = {c:.9f}, |c - pi| = {abs(c - math.pi):.2e}",
    ]
    data = {"sup_errors": report.sup_errors, "indices": report.indices,
            "fitted_c_vs_printed_kernel": c}
    return lines, passed, data


def _zeros_rows(zr):
    raw = zr.extras["raw_zeros"]
    return [(n, k, raw[(n, k)], val) for (n, k), val in sorted(zr.scaled_zeros.items())]


def _run_hard_edge(out_dir, n_values=(100, 200, 300), tolerance=0.02, k_max=3, betas=(1.5,)):
    """zero ratio law at a hard edge vs squared Bessel-zero ratios"""
    lines, data, passed = [], {}, True
    for beta in betas:
        mu = gallery("power_hard_edge", beta=beta)
        h = RegVarFn(scale=1.0, index=1.0 / beta)  # g(r) = r^beta exactly at the edge 0
        rec = oprl.stieltjes_coeffs(mu, max(n_values))
        zr = zero_study(rec, 0.0, h, "hard_edge", n_values, k_max)
        ok = zr.max_rel_error_ratios <= tolerance
        passed = passed and ok
        ex = zr.extras
        cand = ex["candidate_constants"]
        meas_c = ex["first_zero_constant"]
        verdicts = {k: f"{abs(meas_c / v - 1.0):.2%} off" for k, v in cand.items()}
        lines += [
            f"[{'PASS' if ok else 'FAIL'}] hard_edge beta={beta}: zero ratio law "
            f"xi_k/xi_1 -> (j_(beta-1,k)/j_(beta-1,1))^2; max rel err "
            f"{zr.max_rel_error_ratios:.4f} at n = {max(zr.n_values)}, tol {tolerance}",
            f"[INFO] hard_edge beta={beta}: measured scaling exponent of h(K) = "
            f"{ex['exponent']:.4f} +- {ex['exponent_band95']:.4f} (95% band)",
            f"[INFO] hard_edge beta={beta}: first-zero constant {meas_c:.6f}; "
            f"candidate verdicts {verdicts}",
        ]
        data[f"beta={beta}"] = {
            "max_rel_error_ratios": zr.max_rel_error_ratios,
            "exponent": ex["exponent"],
            "exponent_band95": ex["exponent_band95"],
            "first_zero_constant": meas_c,
            "candidates": cand,
        }
        _write_zeros_csv(os.path.join(out_dir, f"zeros_beta_{beta}.csv"), _zeros_rows(zr))
    return lines, passed, data


def _run_fisher_hartwig(out_dir, n_values=(50, 100, 200), tolerance=0.02, k_max=3,
                        betas=(1.5,)):
    """even power-weight zero laws (even/odd degree Bessel ratios)"""
    lines, data, passed = [], {}, True
    for beta in betas:
        mu = gallery("even_fh", beta=beta)
        # at the singular point 0, nu([0,1/r)) = r^-beta/2, so g(r) = 2 r^beta
        h = measures.asymptotic_inverse(RegVarFn(scale=2.0, index=beta))
        rec = oprl.stieltjes_coeffs(mu, 2 * max(n_values) + 1)
        zr = zero_study(rec, 0.0, h, "even_fh", n_values, k_max)
        odd_zero = max(zr.extras["odd_zero_at_origin"].values())
        ok = zr.max_rel_error_ratios <= tolerance and odd_zero <= 1e-12
        passed = passed and ok
        lines += [
            f"[{'PASS' if ok else 'FAIL'}] fisher_hartwig beta={beta}: even/odd-degree "
            f"scaled-zero ratios -> Bessel-zero ratios (orders beta/2-1, beta/2); "
            f"max rel err {zr.max_rel_error_ratios:.4f}, tol {tolerance}; "
            f"odd-degree zero at origin within {odd_zero:.1e}",
        ]
        data[f"beta={beta}"] = {
            "max_rel_error_ratios": zr.max_rel_error_ratios,
            "odd_zero_at_origin": odd_zero,
        }
        _write_zeros_csv(os.path.join(out_dir, f"zeros_beta_{beta}.csv"), _zeros_rows(zr))
    return lines, passed, data


def _run_jump(out_dir, measure={"name": "jump", "params": {}}, xi=0.0,
              n_values=(100, 200, 400), grid=GRID, tolerance=0.1):
    """jump-weight rescaled kernels vs the two-sided limit kernel"""
    mu = _gallery_measure(measure)
    scl, _ = _normalized_scaling(mu, xi)
    sm, sp = scl["sigma_minus_hat"], scl["sigma_plus_hat"]
    spec = build_limit_kernel(sm, sp, 1.0)
    h = RegVarFn(scale=1.0, index=1.0)
    rec = oprl.stieltjes_coeffs(mu, max(n_values) + 1)
    report = _convergence(out_dir, partial(oprl.rescaled_cd, rec, xi, h), spec,
                          n_values, grid, tolerance)
    lines = [
        f"[{'PASS' if report.passed else 'FAIL'}] jump: rescaled CD kernel -> "
        f"two-sided limit kernel with jump data sigma-={sm:.4f}, sigma+={sp:.4f}; "
        f"sup errors {['%.4f' % e for e in report.sup_errors]}, tol {tolerance}",
        f"[INFO] fitted internal scale c = {report.fitted_scale:.6f} "
        f"(candidates: 1, pi^(1/beta)={math.pi:.4f}, 1/Gamma(2)=1)",
    ]
    data = {"sup_errors": report.sup_errors, "fitted_scale": report.fitted_scale,
            "sigma_minus": sm, "sigma_plus": sp}
    return lines, report.passed, data


def _sparse_size(n_values, ratio):
    """(n_max, bump count) of a sparse run: n_max = 2 max(n_values) and
    int(log_ratio(n_max)) + 2 bump heights."""
    n_max = 2 * max(n_values)
    return n_max, int(math.log(n_max, ratio)) + 2


def _run_sparse(out_dir, xi=0.0, n_values=(1000, 10000), grid=GRID, tolerance=0.15,
                v_exponent=-0.5, first=4.0, ratio=4.0):
    """sparse decaying Jacobi matrix: diagnostics and sine-kernel limit"""
    t_top = max(n_values)
    n_max, j_count = _sparse_size(n_values, ratio)
    v_vals = (np.arange(1, j_count + 1, dtype=float)) ** v_exponent
    rec = sparse_jacobi(v_vals, first, ratio, n_max)
    dat = sparse_diagnostics(rec, xi)
    block_ok = dat.block_deviation <= 1e-12
    ratio_k = float(dat.k[2 * t_top - 1] / dat.k[t_top - 1])  # K(2t) / K(t)
    ratio_ok = 1.9 <= ratio_k <= 2.1
    sampler = partial(oprl.rescaled_cd, rec, xi, dat.scaling_inverse())
    report = _convergence(out_dir, sampler, sine_kernel, n_values, grid, tolerance)
    passed = block_ok and ratio_ok and report.passed
    lines = [
        f"[{'PASS' if block_ok else 'FAIL'}] sparse: ||A_n||^2 constant between "
        f"sparse bumps; max in-block deviation {dat.block_deviation:.2e}",
        f"[{'PASS' if ratio_ok else 'FAIL'}] sparse: K(2t,xi,xi)/K(t,xi,xi) = "
        f"{ratio_k:.4f} in [1.9, 2.1] at t = {t_top} (regular variation, index 1)",
        f"[{'PASS' if report.passed else 'FAIL'}] sparse: rescaled CD kernel -> "
        f"sine kernel; sup errors {['%.4f' % e for e in report.sup_errors]} "
        f"at t = {report.indices}, tol {tolerance}",
    ]
    data = {"block_deviation": dat.block_deviation, "k_ratio": ratio_k,
            "sup_errors": report.sup_errors}
    return lines, passed, data


def _run_schrodinger(out_dir, xi=1.0, n_values=(50.0, 100.0, 200.0), grid=GRID, tolerance=0.05):
    """free Schrodinger kernels: two-form agreement and bulk limit"""
    quad, wron = canonical.schrodinger_kernel(lambda y: 0.0, 0.0, 5.0, 1.0 + 0.2j, 2.0, tol=1e-10)
    agree = abs(quad - wron) / (1.0 + abs(quad))
    agree_ok = agree <= 1e-8
    eta = math.sqrt(xi) / math.pi
    h = RegVarFn(scale=eta, index=1.0)
    sampler = partial(canonical.rescaled_schrodinger, lambda y: 0.0, 0.0, xi, h)
    report = _convergence(out_dir, sampler, sine_kernel, n_values, grid, tolerance)
    passed = agree_ok and report.passed
    lines = [
        f"[{'PASS' if agree_ok else 'FAIL'}] schrodinger: quadrature form = "
        f"Wronskian form of the eigensolution kernel at x=5 (rel diff {agree:.2e})",
        f"[{'PASS' if report.passed else 'FAIL'}] schrodinger: free-potential "
        f"rescaled kernel at xi={xi} -> sine kernel; sup errors "
        f"{['%.4f' % e for e in report.sup_errors]} at x = {report.indices}, "
        f"tol {tolerance}",
    ]
    data = {"two_form_rel_diff": agree, "sup_errors": report.sup_errors}
    return lines, passed, data


def _run_identity_suite(out_dir, module_filter=None, seed=SEED):
    """exact-identity suites, all modules or the one named by module_filter"""
    results = run_identities(module_filter=module_filter, seed=seed)
    lines = [r.line() for r in results]
    passed = all(r.passed for r in results)
    data = {f"{r.module}.{r.name}": {"error": r.error, "tol": r.tol, "passed": r.passed}
            for r in results}
    return lines, passed, data


# Each runner is run(out_dir, **settings) -> (lines, passed, data): its keyword
# arguments are the settings a config may give, with their defaults, and its
# docstring is the list-experiments help line.
EXPERIMENTS = {
    "bulk": _run_bulk,
    "hard_edge": _run_hard_edge,
    "fisher_hartwig": _run_fisher_hartwig,
    "jump": _run_jump,
    "opuc_bulk": _run_opuc_bulk,
    "sparse": _run_sparse,
    "schrodinger": _run_schrodinger,
    "identities": _run_identity_suite,
}


def run_experiment(cfg):
    """Run one configured experiment; returns (lines, passed, data)."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    return EXPERIMENTS[cfg.experiment](cfg.output_dir, **cfg.settings)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="cdlab", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None, help="override output directory")
    sub.add_parser("list-experiments", help="list experiment names")

    args = parser.parse_args(argv)
    if args.command == "list-experiments":
        for name, run in EXPERIMENTS.items():
            print(f"{name:22s} {run.__doc__}")
        return 0
    if args.command == "run":
        try:
            cfg = load_config(args.config)
        except (ConfigError, OSError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        if args.out:
            cfg.output_dir = args.out
        lines, passed, data = run_experiment(cfg)
        return _emit(lines, passed, cfg.output_dir, data)
    parser.print_help()
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
