"""Batch experiment runner and its JSON config.

    cdlab run --config cfg.json [--out DIR]
    cdlab list-experiments
    cdlab identities [--filter MODULE]

Every experiment is one entry of EXPERIMENTS: its runner, help line and
config defaults.  Validation errors carry the offending field path so the
CLI can name it.  Exit status: 0 pass, 1 experiment fail, 2 config error.
Outputs are bit-stable for a fixed config (floats printed with 17
significant digits).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import canonical, measures, oprl, opuc
from .identities import MODULES as IDENTITY_MODULES, run_identities
from .limit_kernels import build_limit_kernel, fit_internal_scale, sine_kernel
from .measures import RegVarFn, gallery, local_scaling
from .universality import (
    complex_grid_pairs,
    convergence_study,
    real_grid_pairs,
    sparse_jacobi,
    zero_study,
)


class ConfigError(ValueError):
    def __init__(self, field_path, message):
        self.field = field_path
        super().__init__(f"config field '{field_path}': {message}")


@dataclass
class GridConfig:
    half_width: float = 2.0
    points_per_axis: int = 5


@dataclass
class ExperimentConfig:
    experiment: str
    measure: dict = field(default_factory=dict)
    xi: float = 0.0
    n_values: list = field(default_factory=list)
    grid: GridConfig = field(default_factory=GridConfig)
    tolerance: float | None = 0.05  # None for the identity suites
    seed: int = 20240811
    output_dir: str = ""
    scaling: dict = field(default_factory=dict)  # optional pins: eta / beta / scale
    k_max: int = 3
    module_filter: str | None = None  # identities experiment only
    params: dict = field(default_factory=dict)  # experiment-specific extras


def _expect(cond, field_path, message):
    if not cond:
        raise ConfigError(field_path, message)


def parse_config(raw):
    """Validate a raw dict (already JSON-decoded) into an ExperimentConfig."""
    _expect(isinstance(raw, dict), "", "top level must be an object")
    known = {
        "experiment", "measure", "xi", "n_values", "grid", "tolerance",
        "seed", "output_dir", "scaling", "k_max", "module_filter", "params",
    }
    for key in raw:
        _expect(key in known, key, "unknown field")
    exp = raw.get("experiment")
    _expect(isinstance(exp, str) and exp in EXPERIMENTS, "experiment",
            f"must be one of {list(EXPERIMENTS)}")
    spec = EXPERIMENTS[exp]

    measure = raw.get("measure", spec.measure)
    if measure:
        _expect(isinstance(measure, dict), "measure", "must be an object")
        _expect(isinstance(measure.get("name", ""), str), "measure.name", "must be a string")
        _expect(isinstance(measure.get("params", {}), dict), "measure.params",
                "must be an object")

    xi = raw.get("xi", 0.0)
    _expect(isinstance(xi, (int, float)), "xi", "must be a number")

    n_values = raw.get("n_values", spec.n_values)
    _expect(isinstance(n_values, list) and
            all(isinstance(v, (int, float)) and v > 0 for v in n_values),
            "n_values", "must be a list of positive numbers")

    grid_raw = raw.get("grid", {})
    _expect(isinstance(grid_raw, dict), "grid", "must be an object")
    hw = grid_raw.get("half_width", 2.0)
    ppa = grid_raw.get("points_per_axis", 5)
    _expect(isinstance(hw, (int, float)) and hw > 0, "grid.half_width", "must be > 0")
    _expect(isinstance(ppa, int) and ppa >= 3, "grid.points_per_axis", "must be an integer >= 3")

    tol = None
    if spec.tolerance is not None:
        tol = raw.get("tolerance", spec.tolerance)
        _expect(isinstance(tol, (int, float)) and tol > 0, "tolerance", "must be > 0")
        tol = float(tol)

    seed = raw.get("seed", 20240811)
    _expect(isinstance(seed, int), "seed", "must be an integer")

    out_dir = raw.get("output_dir", f"out/{exp}")
    _expect(isinstance(out_dir, str), "output_dir", "must be a string")

    scaling = raw.get("scaling", {})
    _expect(isinstance(scaling, dict), "scaling", "must be an object")
    for key, val in scaling.items():
        _expect(key in ("eta", "beta", "scale"), f"scaling.{key}", "unknown pin")
        _expect(isinstance(val, (int, float)) and val > 0, f"scaling.{key}", "must be > 0")

    k_max = raw.get("k_max", 3)
    _expect(isinstance(k_max, int) and k_max >= 1, "k_max", "must be an integer >= 1")

    module_filter = raw.get("module_filter")
    _expect(module_filter is None or module_filter in IDENTITY_MODULES,
            "module_filter", f"must be one of {list(IDENTITY_MODULES)}")

    params = raw.get("params", {})
    _expect(isinstance(params, dict), "params", "must be an object")

    return ExperimentConfig(
        experiment=exp,
        measure=measure,
        xi=float(xi),
        n_values=list(n_values),
        grid=GridConfig(half_width=float(hw), points_per_axis=int(ppa)),
        tolerance=tol,
        seed=seed,
        output_dir=out_dir,
        scaling=scaling,
        k_max=k_max,
        module_filter=module_filter,
        params=params,
    )


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

    Pins: scaling.eta (bulk, h(t) = eta t) or scaling.beta with unit scale.
    Otherwise the mass-normalized local_scaling estimates (beta, sigma+-) of
    _normalized_scaling: h is the asymptotic inverse of
    g(r) = (2/(sigma- + sigma+)) r^beta, which makes the summed one-sided
    limits of the normalized measure equal 2.
    """
    if "eta" in pinned:
        return RegVarFn(scale=float(pinned["eta"]), index=1.0), {"eta": pinned["eta"]}
    if "beta" in pinned:
        beta = float(pinned["beta"])
        scale = float(pinned.get("scale", 1.0))
        return RegVarFn(scale=scale, index=1.0 / beta), {"beta": beta, "scale": scale}
    scl, sig = _normalized_scaling(mu, xi)
    return measures.asymptotic_inverse(RegVarFn(scale=2.0 / sig, index=scl["beta_hat"])), scl


def _fit_grid(cfg):
    """3x3 complex grid for the internal-scale fit: complex samples make it sharp."""
    return complex_grid_pairs(min(cfg.grid.half_width, 1.0), 3)


def _convergence(cfg, out_dir, sampler, target, target_name="sine kernel", index=int):
    """convergence_study of sampler(index, grid) at every configured index (cast
    by index) on the configured real grid; writes kernel_<index>.csv per index."""
    grid = real_grid_pairs(cfg.grid.half_width, cfg.grid.points_per_axis)
    report = convergence_study(sampler, target,
                               [index(n) for n in cfg.n_values], grid,
                               cfg.tolerance, fit_grid=_fit_grid(cfg),
                               target_name=target_name)
    for idx, samples in report.extras["samples_by_index"].items():
        tag = str(idx).replace(".", "_")
        _write_kernel_csv(os.path.join(out_dir, f"kernel_{tag}.csv"), samples)
    return report


def _run_bulk(cfg, out_dir):
    mu = gallery(cfg.measure["name"], **cfg.measure.get("params", {}))
    h, scl = _estimated_scaling(mu, cfg.xi, cfg.scaling)
    n_top = int(max(cfg.n_values))
    rec = oprl.stieltjes_coeffs(mu, n_top + 1)
    report = _convergence(cfg, out_dir, partial(oprl.rescaled_cd, rec, cfg.xi, h), sine_kernel)
    nev = oprl.nevai_ratio(rec, cfg.xi, n_top)
    nev_ok = abs(nev - 1.0) <= cfg.tolerance
    passed = report.passed and nev_ok
    lines = [
        f"[{'PASS' if report.passed else 'FAIL'}] bulk: rescaled CD kernel -> sine "
        f"kernel; sup errors {['%.4f' % e for e in report.sup_errors]} "
        f"at n = {report.indices}, tol {cfg.tolerance}",
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


def _run_opuc_bulk(cfg, out_dir):
    n_top = int(max(cfg.n_values))
    name = cfg.measure.get("name", "circle_lebesgue") if cfg.measure else "circle_lebesgue"
    if name == "circle_lebesgue":
        v = opuc.VerblunskyCoeffs.free(n_top)
    else:
        mu = gallery(name, **cfg.measure.get("params", {}))
        v = opuc.verblunsky_from_measure(mu, n_top)
    h = RegVarFn(scale=1.0 / (2.0 * math.pi), index=1.0)
    report = _convergence(cfg, out_dir, partial(opuc.rescaled_cd_circle, v, cfg.xi, h), sine_kernel)
    # internal scale against the printed two-sided kernel at sigma = 1, beta = 1,
    # on the samples the sine-kernel fit used
    fit = fit_internal_scale(report.extras["fit_samples"], build_limit_kernel(1.0, 1.0, 1.0))
    c_ok = abs(fit.c - math.pi) <= 1e-3
    passed = report.passed and c_ok
    lines = [
        f"[{'PASS' if report.passed else 'FAIL'}] opuc_bulk: rotated rescaled circle "
        f"CD kernel -> sine kernel; sup errors {['%.5f' % e for e in report.sup_errors]} "
        f"at n = {report.indices}, tol {cfg.tolerance}",
        f"[{'PASS' if c_ok else 'FAIL'}] opuc_bulk: internal scale of the printed "
        f"two-sided kernel: fitted c = {fit.c:.9f}, |c - pi| = {abs(fit.c - math.pi):.2e}",
    ]
    data = {"sup_errors": report.sup_errors, "indices": report.indices,
            "fitted_c_vs_printed_kernel": fit.c}
    return lines, passed, data


def _zeros_rows(zr):
    raw = zr.extras.get("raw_zeros", {})
    return [(n, k, raw.get((n, k), math.nan), val)
            for (n, k), val in sorted(zr.scaled_zeros.items())]


def _run_hard_edge(cfg, out_dir):
    params = dict(cfg.measure.get("params", {}))
    betas = cfg.params.get("betas", [params.get("beta", 1.5)])
    lines, data, passed = [], {}, True
    for beta in betas:
        mu = gallery("power_hard_edge", beta=beta)
        h = RegVarFn(scale=1.0, index=1.0 / beta)  # g(r) = r^beta exactly here
        n_top = int(max(cfg.n_values))
        rec = oprl.stieltjes_coeffs(mu, n_top)
        zr = zero_study(rec, cfg.xi, h, "hard_edge",
                        [int(n) for n in cfg.n_values], cfg.k_max)
        ok = zr.max_rel_error_ratios <= cfg.tolerance
        passed = passed and ok
        ex = zr.extras
        cand = ex["candidate_constants"]
        meas_c = ex["first_zero_constant"]
        verdicts = {k: f"{abs(meas_c / v - 1.0):.2%} off" for k, v in cand.items()}
        lines += [
            f"[{'PASS' if ok else 'FAIL'}] hard_edge beta={beta}: zero ratio law "
            f"xi_k/xi_1 -> (j_(beta-1,k)/j_(beta-1,1))^2; max rel err "
            f"{zr.max_rel_error_ratios:.4f} at n = {max(zr.n_values)}, tol {cfg.tolerance}",
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


def _run_fisher_hartwig(cfg, out_dir):
    params = dict(cfg.measure.get("params", {}))
    betas = cfg.params.get("betas", [params.get("beta", 1.5)])
    lines, data, passed = [], {}, True
    for beta in betas:
        mu = gallery("even_fh", beta=beta)
        # nu([0,1/r)) = r^-beta/2, so g(r) = 2 r^beta
        h = measures.asymptotic_inverse(RegVarFn(scale=2.0, index=beta))
        n_top = int(max(cfg.n_values))
        rec = oprl.stieltjes_coeffs(mu, 2 * n_top + 1)
        zr = zero_study(rec, cfg.xi, h, "even_fh",
                        [int(n) for n in cfg.n_values], cfg.k_max)
        odd_zero = max(zr.extras["odd_zero_at_origin"].values())
        ok = zr.max_rel_error_ratios <= cfg.tolerance and odd_zero <= 1e-12
        passed = passed and ok
        lines += [
            f"[{'PASS' if ok else 'FAIL'}] fisher_hartwig beta={beta}: even/odd-degree "
            f"scaled-zero ratios -> Bessel-zero ratios (orders beta/2-1, beta/2); "
            f"max rel err {zr.max_rel_error_ratios:.4f}, tol {cfg.tolerance}; "
            f"odd-degree zero at origin within {odd_zero:.1e}",
        ]
        data[f"beta={beta}"] = {
            "max_rel_error_ratios": zr.max_rel_error_ratios,
            "odd_zero_at_origin": odd_zero,
        }
        _write_zeros_csv(os.path.join(out_dir, f"zeros_beta_{beta}.csv"), _zeros_rows(zr))
    return lines, passed, data


def _run_jump(cfg, out_dir):
    mu = gallery(cfg.measure["name"], **cfg.measure.get("params", {}))
    scl, _ = _normalized_scaling(mu, cfg.xi)
    sm, sp = scl["sigma_minus_hat"], scl["sigma_plus_hat"]
    spec = build_limit_kernel(sm, sp, 1.0)
    h = RegVarFn(scale=1.0, index=1.0)
    n_top = int(max(cfg.n_values))
    rec = oprl.stieltjes_coeffs(mu, n_top + 1)
    report = _convergence(cfg, out_dir, partial(oprl.rescaled_cd, rec, cfg.xi, h), spec,
                          target_name=f"two-sided limit kernel ({sm:.3f},{sp:.3f},1)")
    lines = [
        f"[{'PASS' if report.passed else 'FAIL'}] jump: rescaled CD kernel -> "
        f"two-sided limit kernel with jump data sigma-={sm:.4f}, sigma+={sp:.4f}; "
        f"sup errors {['%.4f' % e for e in report.sup_errors]}, tol {cfg.tolerance}",
        f"[INFO] fitted internal scale c = {report.fitted_scale:.6f} "
        f"(candidates: 1, pi^(1/beta)={math.pi:.4f}, 1/Gamma(2)=1)",
    ]
    data = {"sup_errors": report.sup_errors, "fitted_scale": report.fitted_scale,
            "sigma_minus": sm, "sigma_plus": sp}
    return lines, report.passed, data


def _run_sparse(cfg, out_dir):
    p = cfg.params
    exponent = float(p.get("v_exponent", -0.5))
    ratio = float(p.get("ratio", 4.0))
    first = float(p.get("first", 4.0))
    t_top = int(max(cfg.n_values))
    n_max = 2 * t_top
    j_count = int(math.log(n_max, ratio)) + 2
    v_vals = (np.arange(1, j_count + 1, dtype=float)) ** exponent
    rec, diag = sparse_jacobi(v_vals, ("geometric", first, ratio), n_max)
    dat = diag.at(cfg.xi)
    block_ok = dat.block_deviation <= 1e-12
    k1 = oprl.kernel_diag(rec, t_top, cfg.xi)
    k2 = oprl.kernel_diag(rec, 2 * t_top, cfg.xi)
    ratio_k = k2 / k1
    ratio_ok = 1.9 <= ratio_k <= 2.1
    sampler = partial(oprl.rescaled_cd, rec, cfg.xi, dat.scaling_inverse())
    report = _convergence(cfg, out_dir, sampler, sine_kernel)
    passed = block_ok and ratio_ok and report.passed
    lines = [
        f"[{'PASS' if block_ok else 'FAIL'}] sparse: ||A_n||^2 constant between "
        f"sparse bumps; max in-block deviation {dat.block_deviation:.2e}",
        f"[{'PASS' if ratio_ok else 'FAIL'}] sparse: K(2t,xi,xi)/K(t,xi,xi) = "
        f"{ratio_k:.4f} in [1.9, 2.1] at t = {t_top} (regular variation, index 1)",
        f"[{'PASS' if report.passed else 'FAIL'}] sparse: rescaled CD kernel -> "
        f"sine kernel; sup errors {['%.4f' % e for e in report.sup_errors]} "
        f"at t = {report.indices}, tol {cfg.tolerance}",
    ]
    data = {"block_deviation": dat.block_deviation, "k_ratio": ratio_k,
            "sup_errors": report.sup_errors}
    return lines, passed, data


def _run_schrodinger(cfg, out_dir):
    val = canonical.schrodinger_kernel(lambda y: 0.0, 0.0, 5.0, 1.0 + 0.2j, 2.0, tol=1e-10)
    agree = abs(val.quadrature - val.wronskian) / (1.0 + abs(val.quadrature))
    agree_ok = agree <= 1e-8
    xi = float(cfg.params.get("xi", 1.0))
    eta = math.sqrt(xi) / math.pi
    h = RegVarFn(scale=eta, index=1.0)
    sampler = partial(canonical.rescaled_schrodinger, lambda y: 0.0, 0.0, xi, h)
    report = _convergence(cfg, out_dir, sampler, sine_kernel, index=float)
    passed = agree_ok and report.passed
    lines = [
        f"[{'PASS' if agree_ok else 'FAIL'}] schrodinger: quadrature form = "
        f"Wronskian form of the eigensolution kernel at x=5 (rel diff {agree:.2e})",
        f"[{'PASS' if report.passed else 'FAIL'}] schrodinger: free-potential "
        f"rescaled kernel at xi={xi} -> sine kernel; sup errors "
        f"{['%.4f' % e for e in report.sup_errors]} at x = {report.indices}, "
        f"tol {cfg.tolerance}",
    ]
    data = {"two_form_rel_diff": agree, "sup_errors": report.sup_errors}
    return lines, passed, data


def _run_identity_suite(cfg, out_dir):
    results = run_identities(module_filter=cfg.module_filter, seed=cfg.seed)
    lines = [r.line() for r in results]
    passed = all(r.passed for r in results)
    data = {f"{r.module}.{r.name}": {"error": r.error, "tol": r.tol, "passed": r.passed}
            for r in results}
    return lines, passed, data


@dataclass(frozen=True)
class Experiment:
    """A registered experiment: runner(cfg, out_dir) -> (lines, passed, data),
    its list-experiments help line, and its config defaults.  tolerance is
    None for experiments that take none."""

    run: Callable
    help: str
    n_values: list = field(default_factory=list)
    tolerance: float | None = None
    measure: dict = field(default_factory=dict)


EXPERIMENTS = {
    "bulk": Experiment(
        _run_bulk, "rescaled CD kernels of a gallery measure vs the sine kernel",
        [50, 100, 200], 0.05, {"name": "legendre", "params": {}}),
    "hard_edge": Experiment(
        _run_hard_edge, "zero ratio law at a hard edge vs squared Bessel-zero ratios",
        [100, 200, 300], 0.02, {"name": "power_hard_edge", "params": {"beta": 1.5}}),
    "fisher_hartwig": Experiment(
        _run_fisher_hartwig, "even power-weight zero laws (even/odd degree Bessel ratios)",
        [50, 100, 200], 0.02, {"name": "even_fh", "params": {"beta": 1.5}}),
    "jump": Experiment(
        _run_jump, "jump-weight rescaled kernels vs the two-sided limit kernel",
        [100, 200, 400], 0.1,
        {"name": "jump", "params": {"sigma_minus": 0.5, "sigma_plus": 1.0}}),
    "opuc_bulk": Experiment(
        _run_opuc_bulk, "circle CD kernels (free coefficients) vs the sine kernel",
        [1000, 10000], 0.01, {"name": "circle_lebesgue", "params": {}}),
    "sparse": Experiment(
        _run_sparse, "sparse decaying Jacobi matrix: diagnostics and sine-kernel limit",
        [1000, 10000], 0.15),
    "schrodinger": Experiment(
        _run_schrodinger, "free Schrodinger kernels: two-form agreement and bulk limit",
        [50, 100, 200], 0.05),
    "identities": Experiment(
        _run_identity_suite,
        "exact-identity suites, all modules or the one named by module_filter"),
}


def run_experiment(cfg):
    """Run one configured experiment; returns (lines, passed, data)."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    return EXPERIMENTS[cfg.experiment].run(cfg, cfg.output_dir)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="cdlab", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None, help="override output directory")
    sub.add_parser("list-experiments", help="list experiment names")
    p_id = sub.add_parser("identities", help="run the exact-identity suites")
    p_id.add_argument("--filter", default=None, choices=IDENTITY_MODULES,
                      help="restrict to one module")
    p_id.add_argument("--seed", type=int, default=20240811)

    args = parser.parse_args(argv)
    if args.command == "list-experiments":
        for name, spec in EXPERIMENTS.items():
            print(f"{name:22s} {spec.help}")
        return 0
    if args.command == "identities":
        results = run_identities(module_filter=args.filter, seed=args.seed)
        for r in results:
            print(r.line())
        return 0 if all(r.passed for r in results) else 1
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
