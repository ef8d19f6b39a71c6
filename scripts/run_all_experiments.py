#!/usr/bin/env python3
"""Run every packaged experiment config and summarize the outcomes.

Usage: python scripts/run_all_experiments.py [--out-root DIR]

Note: the sparse experiment's sine-kernel clause is expected to fail for the
packaged constant-ratio bump positions; see the report it writes.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from cdlab.cli import main as cdlab_main  # noqa: E402

def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out-root", default="out")
    args = parser.parse_args()
    cfg_dir = pathlib.Path(__file__).resolve().parents[1] / "configs"
    statuses = {}
    for path in sorted(cfg_dir.glob("*.json")):
        out = pathlib.Path(args.out_root) / path.stem
        print(f"\n=== {path.name} ===")
        statuses[path.name] = cdlab_main(
            ["run", "--config", str(path), "--out", str(out)]
        )
    print("\nsummary:")
    for name, status in statuses.items():
        print(f"  {'ok  ' if status == 0 else 'FAIL'} {name}")
    return max(statuses.values())


if __name__ == "__main__":
    raise SystemExit(main())
