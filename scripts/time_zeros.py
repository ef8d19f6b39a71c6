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
configs/fisher_hartwig.json) once each, in-process into a temporary
directory, with the `_leggauss` cache emptied first, and counts the
`oprl._sturm_counts` passes, the scalar Sturm passes `oprl._count_step` (in a
tree that has them), `special.bessel_zeros` calls and
`measures._leggauss` calls (cache hits included) of each run by wrapping
those functions in every cdlab module that holds them; the distinct sizes
of the `_leggauss` calls are listed too.  The cdlab on PYTHONPATH is the one
timed, so the same script times any two trees.
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
    tally[name] per call."""
    fn = getattr(modules[0], name)

    def wrapper(*args, **kwargs):
        tally[name] += 1
        return fn(*args, **kwargs)

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
    tally = {"_sturm_counts": 0, "bessel_zeros": 0}
    counted([oprl], "_sturm_counts", tally)
    if hasattr(oprl, "_count_step"):
        tally["_count_step"] = 0
        counted([oprl], "_count_step", tally)
    counted([special, universality], "bessel_zeros", tally)
    sizes = []  # the n of every _leggauss call
    measures._leggauss = lambda n: sizes.append(n) or rule(n)
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("hard_edge", "fisher_hartwig"):
            for key in tally:
                tally[key] = 0
            sizes.clear()
            rule.cache_clear()
            cfg = cli.load_config(CONFIGS / f"{name}.json")
            cfg.output_dir = str(pathlib.Path(tmp) / name)
            cli.run_experiment(cfg)
            out[f"{name} _sturm_counts passes"] = tally["_sturm_counts"]
            if "_count_step" in tally:
                out[f"{name} _count_step passes"] = tally["_count_step"]
            out[f"{name} bessel_zeros calls"] = tally["bessel_zeros"]
            out[f"{name} _leggauss calls"] = len(sizes)
            out[f"{name} _leggauss sizes"] = sorted(set(sizes))
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
