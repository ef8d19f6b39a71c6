#!/usr/bin/env python3
"""Run every packaged experiment config and summarize the outcomes.

Usage: python scripts/run_all_experiments.py [--out-root DIR] [--against DIR]

The summary gives, per config, the exit status of its run, the result of
perfbench's reference check (`check_output` in perfbench/run.py: exit status,
verdict tags, `passed` and every report.json value against
perfbench/reference.json) and the largest relative change of a report.json
number against that reference (numbers at rounding level, at most perfbench's
ATOL on both sides, are left out: the check compares them to ATOL only).
With --against DIR it also compares each config's output directory with the
one of the same config under the output root DIR, for example one written by
this script at another commit: it gives `identical` when every output file
(report.json and the CSVs) has the same bytes, else the names of the files
that differ or exist on one side only, and the largest relative change of the
report.json numbers.

Exits 1 when the reference check of any config fails (or a config has no
reference entry), else 0.  A config that fails as its reference records is not
an error: bulk_pure_point (the pure-point kernel at cutoff 1e5) and sparse (the
sine-kernel clause for the packaged constant-ratio bump positions) are expected
to exit 1; see the reports they write.
"""

import argparse
import importlib.util
import json
import math
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from cdlab.cli import main as cdlab_main  # noqa: E402


def _perfbench():
    """perfbench/run.py as a module, for its reference check; no bytecode is
    written under perfbench/."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def largest_change(got, ref, atol):
    """(relative change, field) of the number in got furthest from ref, over
    the numbers above atol in size."""
    worst = (0.0, "-")
    for key, old in ref.items():
        new = got.get(key)
        if all(isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
               for x in (old, new)) and old != new and max(abs(old), abs(new)) > atol:
            worst = max(worst, (abs(new - old) / max(abs(old), abs(new)), key))
    return worst


def reference_check(bench, reference, path, code, out):
    """(whether the run passes the reference check, one summary phrase with
    the check's result and the largest change)."""
    ref = reference["configs"].get(path.stem)
    if ref is None:
        return False, "no reference entry"
    seed = json.loads(path.read_text()).get("seed", bench.DEFAULT_SEED)
    problems = bench.check_output(code, str(out), ref, seed == reference["seed"])
    verdict = "reference ok" if not problems else \
        f"reference FAILS ({len(problems)}): {problems[0]}"
    try:
        got = bench.summarize_output(code, str(out))["values"]
    except (OSError, ValueError, KeyError, TypeError):
        return not problems, verdict
    change, key = largest_change(got, ref["values"], bench.ATOL)
    return not problems, f"{verdict}; largest relative change {change:.2g} ({key})"


def differing_files(out, other):
    """Names of the files in the directories out and other that are not the
    same bytes on both sides (a file on one side only differs)."""
    names = {p.name for d in (out, other) if d.is_dir() for p in d.iterdir()}
    return sorted(name for name in names
                  if not all((d / name).is_file() for d in (out, other))
                  or (out / name).read_bytes() != (other / name).read_bytes())


def against_check(bench, out, other):
    """One summary phrase with the byte identity of the run's output files and
    the largest change of its report.json numbers against the directory
    other."""
    files = differing_files(out, other)
    identity = "identical" if not files else f"differ: {', '.join(files)}"
    try:
        got, old = (bench.summarize_output(None, str(d))["values"] for d in (out, other))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"against {other}: {identity}; unreadable report.json ({exc.__class__.__name__})"
    change, key = largest_change(got, old, bench.ATOL)
    return f"against {other}: {identity}; {change:.2g} ({key})"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out-root", default="out")
    parser.add_argument("--against", metavar="DIR",
                        help="another output root to compare each report.json with")
    args = parser.parse_args()
    bench = _perfbench()
    reference = json.loads(pathlib.Path(bench.REFERENCE).read_text())
    statuses, checks = {}, {}
    for path in sorted((ROOT / "configs").glob("*.json")):
        out = pathlib.Path(args.out_root) / path.stem
        print(f"\n=== {path.name} ===")
        statuses[path.name] = cdlab_main(
            ["run", "--config", str(path), "--out", str(out)]
        )
        ok, note = reference_check(bench, reference, path, statuses[path.name], out)
        if args.against:
            note += "; " + against_check(bench, out, pathlib.Path(args.against) / path.stem)
        checks[path.name] = ok, note
    print("\nsummary:")
    for name, status in statuses.items():
        print(f"  exit {status} {name:22s} {checks[name][1]}")
    return 0 if all(ok for ok, _ in checks.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
