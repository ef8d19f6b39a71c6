"""Record perfbench/reference.json: what every packaged config outputs at the default seed.

    python3 perfbench/record_reference.py

Runs each config once with `cdlab run`, untraced, and stores its exit status,
the ordered [PASS]/[FAIL] tags of its report lines, every field of its
report.json and a SHA-256 of every output file, with the provenance of the
machine and commit it was recorded on.  Re-record only when a change is meant
to alter the outputs, and say so where the change is described.
"""

import json
import os
import shutil
import sys
import tempfile

from run import (ALL_CONFIGS, DEFAULT_SEED, REFERENCE, WORK, child_command, child_env,
                 config_path, provenance, run_child, summarize_output)


def main():
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK)
    try:
        configs = {}
        for name in ALL_CONFIGS:
            out_dir = os.path.join(work, name)
            cmd = child_command(config_path(name, DEFAULT_SEED, work), out_dir)
            code, wall, _ = run_child(cmd, out_dir + ".log", child_env(work))
            configs[name] = summarize_output(code, out_dir)
            print(f"{name}: exit {code}, tags {configs[name]['tags']}, {wall:.2f} s")
        record = {"seed": DEFAULT_SEED, "provenance": provenance(work), "configs": configs}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
