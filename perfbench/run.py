"""Benchmark of `cdlab run` over the packaged configs, grouped into four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop: one driver process starts one `cdlab run --config ... --out TMP`
child at a time, from a fresh interpreter, and waits for it to end.  Nothing
runs concurrently.  The children inherit the BLAS thread settings of the
environment unchanged, because the quadrature eigensolve is BLAS-threaded and
forcing one thread slows `zero_laws` by about a third.

--trace 0 repeats passes over the workload's configs until S seconds have
elapsed (at least one pass) and reports end-to-end metrics: the median pass
wall time, the median of the largest child peak RSS per pass, the median
set-up time (fresh `import cdlab.cli`), and the share of config runs whose
outputs match the reference.  The two times are scaled to a reference host
speed (see SPEED_REF_S); the raw ones are printed before the result.

--trace 1 makes one untraced pass and one traced pass (perfbench/trace_child.py
wraps the public layer functions from outside) and reports per-layer metrics:
calls, self and total seconds per function, and a few derived counts.  The
traced outputs must be byte-identical to the untraced ones.

Every config run is checked against perfbench/reference.json: exit status,
the ordered [PASS]/[FAIL] tags of the report lines, and (at the default seed)
every field of report.json.  --seed only reaches the identity suite, the one
randomized config; the others ignore it.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Exits 2 without that line when the checkout lacks src/cdlab or configs/.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CONFIGS = os.path.join(ROOT, "configs")
WORK = os.path.join(HERE, ".work")
REFERENCE = os.path.join(HERE, "reference.json")
TRACE_CHILD = os.path.join(HERE, "trace_child.py")

sys.path.insert(0, HERE)
from trace_child import PEAK_TRACED, span_names  # noqa: E402

WORKLOADS = {
    "pure_point": ["bulk_pure_point"],
    "series_fit": ["opuc_bulk", "jump"],
    "zero_laws": ["hard_edge", "fisher_hartwig"],
    "light": ["bulk_legendre", "bulk_chebyshev", "schrodinger", "sparse", "identities"],
}
ALL_CONFIGS = [c for configs in WORKLOADS.values() for c in configs]

# The identity suite is the only randomized config; --seed becomes its seed.
SEEDED_CONFIG = "identities"
DEFAULT_SEED = 20240811

# Report numbers may move by this much without counting as a failure.  The
# coefficient work of later changes is allowed to differ at the 1e-12 relative
# level; that moves the 17-digit outputs, and differences of nearly equal
# kernels (sup errors) and the fitted scale amplify it by up to ~1e6.  Values
# at rounding level (identity-check errors, block deviations ~1e-16) are only
# compared to ATOL.
RTOL = 1e-6
ATOL = 1e-9

SETUP_REPEATS = 3

# The host's speed drifts, from other tenants, by a third or more over
# minutes: longer than a run, so no affordable run length averages it out.  Each pass
# and each set-up burst is therefore timed next to a fixed pure-Python loop,
# and the gated times are scaled to a host on which that loop takes
# SPEED_REF_S.  The loop does not touch cdlab, so a change to the program
# moves the scaled times as much as the raw ones.  Raw times are printed too.
SPEED_REF_S = 0.1
SPEED_LOOP = 1_000_000
SPEED_REPEATS = 5
CHILD_TIMEOUT_S = 120.0
CLI_ENTRY = "import sys; from cdlab.cli import main; sys.exit(main())"
TAG = re.compile(r"^\[(PASS|FAIL)\]")
BLAS_ENV = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "GOTO_NUM_THREADS"]

PROVENANCE_SNIPPET = """
import json, sys
import numpy as np
blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
ld = np.finfo(np.longdouble)
print(json.dumps({"python": sys.version.split()[0], "numpy": np.__version__,
    "blas": {"name": blas.get("name"), "version": blas.get("version")},
    "longdouble": {"precision": int(ld.precision), "nmant": int(ld.nmant),
                   "eps": float(ld.eps)}}))
"""


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env(work):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = work
    return env


def child_command(config_path, out_dir, spans_path=None):
    """The argv of one `cdlab run`, as the console script would run it."""
    args = ["run", "--config", config_path, "--out", out_dir]
    if spans_path is None:
        return [sys.executable, "-c", CLI_ENTRY] + args
    return [sys.executable, TRACE_CHILD, spans_path] + args


def run_child(cmd, log_path, env):
    """Run cmd to completion; returns (exit code, wall s, rusage).

    The exit code is negative for a signal; a child that outlives
    CHILD_TIMEOUT_S is killed.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def measure_setup(work, repeats=SETUP_REPEATS):
    """Wall times of fresh interpreters that import cdlab.cli."""
    env = child_env(work)
    cmd = [sys.executable, "-c", "import cdlab.cli"]
    times = []
    for _ in range(repeats):
        code, wall, _ = run_child(cmd, os.path.join(work, "setup.log"), env)
        if code != 0:
            raise RuntimeError(f"`import cdlab.cli` exited with {code}")
        times.append(wall)
    return times


def provenance(work):
    """Machine, toolchain and commit facts that the numbers depend on."""
    info = {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "memory_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
            "blas_thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                      if line.startswith("model name")), None)
    except OSError:
        info["cpu_model"] = None
    out = subprocess.run([sys.executable, "-c", PROVENANCE_SNIPPET], env=child_env(work),
                         capture_output=True, text=True, timeout=60, check=True)
    info.update(json.loads(out.stdout))
    info["commit"] = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        info["commit"] = git.stdout.strip() or None
    return info


# ---------------------------------------------------------------------------
# checking outputs
# ---------------------------------------------------------------------------

def flatten(value, prefix="", out=None):
    """Leaves of a JSON value, keyed by their dotted path."""
    out = {} if out is None else out
    if isinstance(value, dict):
        for key, item in value.items():
            flatten(item, f"{prefix}{key}.", out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            flatten(item, f"{prefix}{i}.", out)
    else:
        out[prefix[:-1]] = value
    return out


def file_hashes(out_dir):
    hashes = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def summarize_output(code, out_dir):
    """What the reference records about one config run."""
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    return {"exit": code,
            "tags": [m.group(1) for m in map(TAG.match, report["lines"]) if m],
            "passed": report["passed"],
            "values": flatten(report["data"]),
            "files": file_hashes(out_dir)}


def _close(a, b):
    if isinstance(a, bool) or isinstance(b, bool) or not (
            isinstance(a, (int, float)) and isinstance(b, (int, float))):
        return a == b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def check_output(code, out_dir, ref, compare_values):
    """Problems of one config run against its reference entry; [] if none."""
    if code != ref["exit"]:
        return [f"exit status {code}, expected {ref['exit']}"]
    try:
        got = summarize_output(code, out_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report.json: {exc!r}"]
    problems = []
    if got["tags"] != ref["tags"]:
        problems.append(f"verdict tags {got['tags']}, expected {ref['tags']}")
    if got["passed"] != ref["passed"]:
        problems.append(f"passed {got['passed']}, expected {ref['passed']}")
    if compare_values:
        if set(got["values"]) != set(ref["values"]):
            problems.append("report.json fields differ from the reference")
        for key in sorted(set(got["values"]) & set(ref["values"])):
            if not _close(got["values"][key], ref["values"][key]):
                problems.append(f"{key} = {got['values'][key]!r}, "
                                f"expected {ref['values'][key]!r}")
    return problems


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def config_path(name, seed, work):
    """Path of the config to run; the seeded config is copied with its seed set."""
    path = os.path.join(CONFIGS, f"{name}.json")
    if name != SEEDED_CONFIG:
        return path
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["seed"] = seed
    seeded = os.path.join(work, f"{name}_seed{seed}.json")
    with open(seeded, "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=2)
    return seeded


def run_config(name, seed, work, reference, tag, traced=False):
    """One `cdlab run` of a config, timed and checked."""
    out_dir = os.path.join(work, f"{tag}_{name}")
    spans = os.path.join(work, f"{tag}_{name}.spans.json") if traced else None
    cmd = child_command(config_path(name, seed, work), out_dir, spans)
    code, wall, usage = run_child(cmd, out_dir + ".log", child_env(work))
    comparable = name != SEEDED_CONFIG or seed == DEFAULT_SEED
    problems = check_output(code, out_dir, reference[name], comparable)
    if wall >= CHILD_TIMEOUT_S:
        problems.insert(0, f"timed out after {CHILD_TIMEOUT_S:.0f} s")
    identical = (comparable and not problems
                 and file_hashes(out_dir) == reference[name]["files"])
    return {"config": name, "out_dir": out_dir, "spans": spans, "wall_s": wall,
            "rss_mb": usage.ru_maxrss * 1024 / 1e6,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "problems": problems, "identical": identical}


def run_pass(configs, seed, work, reference, tag, traced=False):
    runs = [run_config(c, seed, work, reference, tag, traced) for c in configs]
    for r in runs:
        for p in r["problems"]:
            print(f"FAILED {r['config']} ({tag}): {p}", file=sys.stderr)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def describe(name, values, unit):
    q1, q2, q3 = quartiles(values)
    return f"{name}: median {q2:.4f} {unit}, quartiles [{q1:.4f}, {q3:.4f}], n = {len(values)}"


def host_speed():
    """Median time of a fixed pure-Python loop: how fast the host runs right now."""
    times = []
    for _ in range(SPEED_REPEATS):
        start = time.perf_counter()
        acc = 0
        for i in range(SPEED_LOOP):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def timed_run(workload, seed, seconds, work, reference):
    configs = WORKLOADS[workload]
    # warm-up: fills the file cache and, unless PYTHONDONTWRITEBYTECODE is
    # set (it is inherited, like the BLAS threads), the bytecode caches
    measure_setup(work, 1)
    # Set-up bursts and host-speed samples sit before the first pass and
    # after every pass, so pass j runs between speed samples j and j + 1.
    speeds = [host_speed()]
    setups = [measure_setup(work)]
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(configs, seed, work, reference, f"p{len(passes)}"))
        speeds.append(host_speed())
        setups.append(measure_setup(work))
    runs = [r for p in passes for r in p]
    failed = sum(1 for r in runs if r["problems"])
    walls = [sum(r["wall_s"] for r in p) for p in passes]
    setup = [t for burst in setups for t in burst]
    scaled_walls = [w * 2 * SPEED_REF_S / (speeds[j] + speeds[j + 1])
                    for j, w in enumerate(walls)]
    scaled_setup = [t * SPEED_REF_S / speeds[k] for k, burst in enumerate(setups)
                    for t in burst]
    rss = [max(r["rss_mb"] for r in p) for p in passes]
    print(describe("host speed loop", speeds, "s"))
    print(describe("raw wall_s", walls, "s"))
    print(describe("raw setup_s", setup, "s"))
    print(describe("wall_s", scaled_walls, "s"))
    print(describe("setup_s", scaled_setup, "s"))
    print(describe("peak_rss_mb", rss, "MB"))
    for c in configs:
        print(describe(f"raw {c}.wall_s", [r["wall_s"] for r in runs if r["config"] == c], "s"))
    metrics = {
        "wall_s": (statistics.median(scaled_walls), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (statistics.median(scaled_setup), "s"),
        "pass_share": (1.0 - failed / len(runs), "share"),
    }
    return len(runs), failed, metrics


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def span_metrics(span_files):
    """calls, self_s and total_s per traced function, and the derived counts."""
    names = span_names()
    calls = dict.fromkeys(names, 0)
    self_s = dict.fromkeys(names, 0.0)
    total_s = dict.fromkeys(names, 0.0)
    fits = evals_in_fits = 0
    peak_bytes = 0
    for path in span_files:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        spans = [(data["names"][i], start, end, parent)
                 for i, start, end, parent in data["spans"]]
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        in_fit = [False] * len(spans)
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - covered[i]
            ancestor, recursive = parent, False
            while ancestor >= 0 and not recursive:
                recursive = spans[ancestor][0] == name
                ancestor = spans[ancestor][3]
            if not recursive:
                total_s[name] += end - start
            if parent >= 0:
                in_fit[i] = in_fit[parent] or spans[parent][0] == "limit_kernels.fit_internal_scale"
            if name == "limit_kernels.fit_internal_scale":
                fits += 1
            elif name == "limit_kernels.eval_limit_kernel" and in_fit[i]:
                evals_in_fits += 1
        peak_bytes = max([peak_bytes] + data["peak_bytes"])
    metrics = {}
    for name in names:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s[name], "s")
        metrics[f"{name}.total_s"] = (total_s[name], "s")
    metrics[f"{PEAK_TRACED}.peak_mb"] = (peak_bytes / 1e6, "MB")
    metrics["limit_kernels.fit_internal_scale.kernel_evals_per_fit"] = (
        evals_in_fits / fits if fits else 0.0, "evals/fit")
    return metrics


# Each workload's stated split: (functions, lower bound or None, upper bound or
# None) on the share of the traced pass's wall time spent inside them.
SPLITS = {
    "pure_point": [(["oprl.stieltjes_coeffs"], 0.5, None),
                   (["limit_kernels.fit_internal_scale"], None, 0.1)],
    "series_fit": [(["limit_kernels.fit_internal_scale"], 0.5, None),
                   (["oprl.stieltjes_coeffs"], None, 0.2)],
    "zero_laws": [(["oprl.stieltjes_coeffs", "oprl.poly_zeros"], 0.5, None),
                  (["limit_kernels.fit_internal_scale"], None, 0.1)],
}


def report_splits(workload, metrics, traced_wall):
    for fns, low, high in SPLITS.get(workload, []):
        share = sum(metrics[f"{f}.total_s"][0] for f in fns) / traced_wall
        ok = (low is None or share > low) and (high is None or share < high)
        bound = f"> {low}" if low is not None else f"< {high}"
        print(f"split {'holds' if ok else 'FAILS'}: {' + '.join(fns)} "
              f"{share:.3f} of traced wall time, stated {bound}")


def traced_run(workload, seed, work, reference):
    configs = WORKLOADS[workload]
    plain = run_pass(configs, seed, work, reference, "plain")
    traced = run_pass(configs, seed, work, reference, "traced", traced=True)
    for p, t in zip(plain, traced):
        if (not p["problems"] and not t["problems"]
                and file_hashes(p["out_dir"]) != file_hashes(t["out_dir"])):
            t["problems"].append("traced outputs differ from untraced outputs")
            print(f"FAILED {t['config']} (traced): outputs differ", file=sys.stderr)
    runs = plain + traced
    failed = sum(1 for r in runs if r["problems"])
    metrics = span_metrics([r["spans"] for r in traced if os.path.exists(r["spans"])])
    plain_wall = sum(r["wall_s"] for r in plain)
    traced_wall = sum(r["wall_s"] for r in traced)
    for name in ALL_CONFIGS:
        wall = sum(r["wall_s"] for r in plain if r["config"] == name)
        metrics[f"cli.run.{name}.wall_s"] = (wall, "s")
    metrics["cli.run.cpu_s"] = (sum(r["cpu_s"] for r in plain), "s")
    metrics["cli.outputs_identical"] = (sum(1 for r in plain if r["identical"]), "count")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    print(f"untraced pass {plain_wall:.3f} s, traced pass {traced_wall:.3f} s")
    report_splits(workload, metrics, traced_wall)
    return len(runs), failed, metrics


# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that the running child is killed and reaped and
    # the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "cdlab", "cli.py")) or not os.path.isdir(CONFIGS):
        print(f"no cdlab sources at {SRC} or no configs at {CONFIGS}", file=sys.stderr)
        return 2
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)["configs"]
    # numpy's default_rng takes non-negative seeds only
    seed = args.seed % 2**32

    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK)
    try:
        print("provenance " + json.dumps(provenance(work), sort_keys=True))
        if args.trace:
            attempted, failed, metrics = traced_run(args.workload, seed, work, reference)
        else:
            attempted, failed, metrics = timed_run(args.workload, seed, args.seconds,
                                                   work, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
