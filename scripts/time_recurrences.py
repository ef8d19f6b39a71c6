#!/usr/bin/env python3
"""Time the batch recurrence evaluators in-process and print one JSON object.

Usage: PYTHONPATH=<tree>/src python scripts/time_recurrences.py

Times one call with derivatives of `oprl._batch_level` (Legendre recurrence,
x in [-0.05, 0.05] + 0.01i) and `opuc._szego_last_batch` (free and random
|alpha| < 0.5 Verblunsky coefficients, 1.001 e^{i theta} with |theta| <= 0.05)
at n = 1e3 and 1e4 with 1, 18 and 81 points: the median in milliseconds over
15 calls at n = 1e3 and 9 at n = 1e4, after one untimed call.  The cdlab on
PYTHONPATH is the one timed, so the same script times any two trees.
"""

import json
import statistics
import time

import numpy as np

from cdlab.oprl import RecurrenceCoeffs, _batch_level
from cdlab.opuc import VerblunskyCoeffs, _szego_last_batch


def median_ms(call, reps):
    call()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return round(1e3 * statistics.median(times), 2)


def main():
    top = 10000
    k = np.arange(1, top + 1)
    legendre = RecurrenceCoeffs(a=k / np.sqrt(4.0 * k * k - 1.0), b=np.zeros(top))
    rng = np.random.default_rng(7)
    circle = {"free": VerblunskyCoeffs.free(top),
              "random": VerblunskyCoeffs(rng.uniform(0, 0.5, top)
                                         * np.exp(2j * np.pi * rng.random(top)))}
    out = {}
    for n in (1000, 10000):
        reps = 15 if n == 1000 else 9
        for points in (1, 18, 81):
            theta = np.linspace(-0.05, 0.05, points) if points > 1 else np.zeros(1)
            xs, zetas = list(theta + 0.01j), list(1.001 * np.exp(1j * theta))
            out[f"_batch_level legendre n={n} points={points}"] = median_ms(
                lambda: _batch_level(legendre, n, xs), reps)
            for name, v in circle.items():
                out[f"_szego_last_batch {name} n={n} points={points}"] = median_ms(
                    lambda: _szego_last_batch(v, n, zetas, True), reps)
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
