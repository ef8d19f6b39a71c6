#!/usr/bin/env python3
"""Time the zero finders in-process and count their work; print one JSON object.

Usage: PYTHONPATH=<tree>/src python scripts/time_zeros.py

Times `oprl.zeros_near(rec, n, 0.3, 3)` on the Legendre recurrence at n = 100,
401, 800, 1000, 1600, 2000, 3200 and 4000, and `oprl.poly_zeros(rec, n)` at
n = 100, 401, 1000, 2000 and 4000: the median in milliseconds over the number
of calls given in each key, after one untimed call (none for the slowest
cases, whose one call is timed alone).  Prints the tracemalloc peak of one
`zeros_near` call at each of its n, in bytes.  Times
`special.bessel_zeros(0.5, k)` at k = 3 and k = 20 the same way; a tree whose
`bessel_zeros` raises there gives the exception's name instead of a time.
Times the Gauss-Legendre rule `measures._leggauss.__wrapped__(n)` (its body,
past the cache) at n = 310, 411, 612 and 814, the sizes the two zero_laws
configs ask for, and at 3008.
Then runs the two zero_laws configs (configs/hard_edge.json and
configs/fisher_hartwig.json) and configs/identities.json once each,
in-process into a temporary directory, with the `_leggauss` cache emptied
first.  For each run it counts the calls of the zero finders
(`universality.zeros_near`, the windows of the zero studies, and
`oprl.poly_zeros`, all n zeros, which the identity suite asks for) and their
total wall time in milliseconds, and counts the passes that count
eigenvalues: the numpy Sturm passes `oprl._sturm_counts` (here only
`poly_zeros`' one certifying pass per call) and the scalar Sturm passes
`oprl._count_step` (in a tree that has them; here every other count, so all
of a window's).  It also counts
`special.bessel_zeros` calls and `measures._leggauss` calls (cache hits
included) and lists the distinct sizes of the `_leggauss` calls.  Every
count wraps the function in each cdlab module that holds it.  The cdlab on
PYTHONPATH is the one timed, so the same script times any two trees.
"""

import json
import pathlib
import statistics
import tempfile
import time
import tracemalloc

import numpy as np

from cdlab import cli, measures, oprl, special, universality
from cdlab.oprl import RecurrenceCoeffs, poly_zeros, zeros_near

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def median_ms(call, reps):
    if reps > 1:
        call()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return round(1e3 * statistics.median(times), 2)


def counted(modules, name, tally):
    """Rebind name in every module of modules to a wrapper that adds one to
    tally[name] per call and the call's wall time in ms to tally[name + " ms"]."""
    fn = getattr(modules[0], name)

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tally[name] += 1
            tally[name + " ms"] += 1e3 * (time.perf_counter() - start)

    for module in modules:
        setattr(module, name, wrapper)


def main():
    top = 4000
    k = np.arange(1, top + 1)
    legendre = RecurrenceCoeffs(a=k / np.sqrt(4.0 * k * k - 1.0), b=np.zeros(top))
    out = {}
    for n in (100, 401, 800, 1000, 1600, 2000, 3200, 4000):
        reps = 15 if n <= 401 else 5
        out[f"zeros_near n={n} calls={reps}"] = median_ms(
            lambda: zeros_near(legendre, n, 0.3, 3), reps)
        tracemalloc.start()
        zeros_near(legendre, n, 0.3, 3)
        out[f"zeros_near n={n} traced peak bytes"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    for n in (100, 401, 1000, 2000, 4000):
        reps = 15 if n <= 401 else (3 if n == 1000 else 1)
        out[f"poly_zeros n={n} calls={reps}"] = median_ms(lambda: poly_zeros(legendre, n), reps)
    for k in (3, 20):
        key = f"bessel_zeros nu=0.5 k={k} calls=15"
        try:
            out[key] = median_ms(lambda: special.bessel_zeros(0.5, k), 15)
        except Exception as exc:
            out[key] = f"raises {type(exc).__name__}"
    rule = measures._leggauss
    for n in (310, 411, 612, 814, 3008):
        reps = 15 if n <= 814 else 3
        out[f"_leggauss n={n} calls={reps}"] = median_ms(lambda: rule.__wrapped__(n), reps)
    tally = {}
    for modules, name in (([universality], "zeros_near"), ([oprl], "poly_zeros"),
                          ([oprl], "_sturm_counts"), ([oprl], "_count_step"),
                          ([special, universality], "bessel_zeros")):
        if hasattr(modules[0], name):
            tally[name] = tally[name + " ms"] = 0
            counted(modules, name, tally)
    sizes = []  # the n of every _leggauss call
    measures._leggauss = lambda n: sizes.append(n) or rule(n)
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("hard_edge", "fisher_hartwig", "identities"):
            for key in tally:
                tally[key] = 0
            sizes.clear()
            rule.cache_clear()
            cfg = cli.load_config(CONFIGS / f"{name}.json")
            cfg.output_dir = str(pathlib.Path(tmp) / name)
            cli.run_experiment(cfg)
            for key in ("zeros_near", "poly_zeros"):
                out[f"{name} {key} calls"] = tally[key]
                out[f"{name} {key} ms"] = round(tally[key + " ms"], 2)
            for key in ("_sturm_counts", "_count_step"):
                if key in tally:
                    out[f"{name} {key} passes"] = tally[key]
            out[f"{name} bessel_zeros calls"] = tally["bessel_zeros"]
            out[f"{name} _leggauss calls"] = len(sizes)
            out[f"{name} _leggauss sizes"] = sorted(set(sizes))
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
