#!/usr/bin/env python3
"""Time `limit_kernels.fit_internal_scale` in-process and print one JSON object.

Usage: PYTHONPATH=<tree>/src python scripts/time_fit.py

Three fits on the 3x3 complex grid of half-width 1 that the study fits use
(81 sample pairs), two shaped like the packaged configs that fit the most:
- jump: samples of the two-sided kernel K_{0.5,1,1}(c z, c w) at
  c = pi (1 + 1e-3), fitted against K_{0.5,1,1};
- opuc_bulk: samples of the sine kernel S(c z, c w) at c = 1 + 1e-3, fitted
  against the sine kernel, the one fit opuc_bulk runs (it reads the printed
  K_{1,1,1}'s scale off the k111_sine identity as pi c);
- printed K111: the same samples fitted against the printed K_{1,1,1}, as
  acceptance criterion 3 does.
For each it gives the median in milliseconds over 9 calls, after one untimed
call, and the calls per fit of `kummer_m`, `hyp0f1` and the 80-bit
`_kummer_series_extended`.  Every call starts from an empty kernel memo (each
lru_cache of `limit_kernels` is cleared), as a config's first fit does.  The
cdlab on PYTHONPATH is the one timed, so the same script times any two trees.
"""

import json
import math
import statistics
import time

from cdlab import limit_kernels, special
from cdlab.limit_kernels import (KernelSample, build_limit_kernel, fit_internal_scale,
                                 sine_kernel)
from cdlab.universality import complex_grid_pairs

COUNTED = {"kummer_m": (special, limit_kernels), "hyp0f1": (special, limit_kernels),
           "_kummer_series_extended": (special,)}


def clear_memo():
    for value in vars(limit_kernels).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def samples(kernel, c):
    return [KernelSample(z=z, w=w, value=kernel(c * z, c * w))
            for z, w in complex_grid_pairs(1.0, 3)]


def counts(fit):
    """Series calls of one fit from an empty memo; rebinds each counted
    function in every module that holds it, and restores it after."""
    tally = dict.fromkeys(COUNTED, 0)
    saved = {name: getattr(special, name) for name in COUNTED}

    def counting(name, fn):
        def call(*args):
            tally[name] += 1
            return fn(*args)
        return call

    for name, modules in COUNTED.items():
        for module in modules:
            setattr(module, name, counting(name, saved[name]))
    try:
        clear_memo()
        fit()
    finally:
        for name, modules in COUNTED.items():
            for module in modules:
                setattr(module, name, saved[name])
    return tally


def median_ms(call, reps=9):
    clear_memo()
    call()
    times = []
    for _ in range(reps):
        clear_memo()
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return round(1e3 * statistics.median(times), 2)


def main():
    jump = build_limit_kernel(0.5, 1.0, 1.0)
    jump_samples = samples(jump, math.pi * (1 + 1e-3))
    sine_samples = samples(sine_kernel, 1 + 1e-3)
    printed = build_limit_kernel(1.0, 1.0, 1.0)
    fits = {
        "jump": lambda: fit_internal_scale(jump_samples, jump),
        "opuc_bulk": lambda: fit_internal_scale(sine_samples, sine_kernel),
        "printed K111": lambda: fit_internal_scale(sine_samples, printed),
    }
    out = {}
    for name, fit in fits.items():
        out[f"{name} ms"] = median_ms(fit)
        out.update({f"{name} {fn} calls": n for fn, n in counts(fit).items()})
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
