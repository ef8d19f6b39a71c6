#!/usr/bin/env python3
"""Time the merged Lanczos of `oprl` in-process; print one JSON object.

Usage: PYTHONPATH=<tree>/src python scripts/time_lanczos.py

Times `oprl.stieltjes_coeffs(gallery("pure_point_bulk", cutoff=100000), 400)`
(the coefficients of the bulk_pure_point config: 100,000 folded atoms, one
merge level) and `oprl._lanczos` on 50,000 equally spaced nodes in [0, 1] with
equal weights at m = 10 (two merge levels, the second over the tridiagonal
operator of the first): the median in milliseconds over the number of calls
given in each key, after one untimed call.  The cdlab on PYTHONPATH is the one
timed, so the same script times any two trees.
"""

import json
import statistics
import time

import numpy as np

from cdlab import oprl
from cdlab.measures import gallery


def median_ms(call, reps):
    call()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return round(1e3 * statistics.median(times), 2)


def main():
    mu = gallery("pure_point_bulk", cutoff=100000)
    x = np.linspace(0.0, 1.0, 50_000)
    w = np.full(x.size, 1.0 / x.size)
    out = {
        "stieltjes_coeffs pure_point_bulk(1e5) n=400 calls=11": median_ms(
            lambda: oprl.stieltjes_coeffs(mu, 400), 11),
        "_lanczos linspace(0, 1, 50000) m=10 calls=21": median_ms(
            lambda: oprl._lanczos(x, w, 10), 21),
    }
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
