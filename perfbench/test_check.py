"""Tests of the benchmark's own checks.

    python3 -m unittest discover -s perfbench -p "test_*.py"

A perturbed verdict, a perturbed report number, a crashed child and a hung
child must each count as a failed config run; the traced pass must leave
outputs byte-identical to the untraced pass; and the metrics printed must be
exactly the ones BENCHMARK.json declares.  Uses the short bulk_chebyshev and
identities configs in place of a workload's configs.
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
import unittest
from unittest import mock

import run

# Runs the real CLI, then damages its output the way argv[1] names.
PERTURBING_CHILD = r"""
import json, os, sys, time
mode, args = sys.argv[1], sys.argv[2:]
if mode == "hang":
    time.sleep(60)
if mode == "crash":
    os.abort()
from cdlab.cli import main
code = main(args)
path = os.path.join(args[args.index("--out") + 1], "report.json")
with open(path, encoding="utf-8") as fh:
    report = json.load(fh)
if mode == "verdict":
    report["lines"][0] = report["lines"][0].replace("[PASS]", "[FAIL]", 1)
if mode == "number":
    report["data"]["sup_errors"][0] *= 1.001
with open(path, "w", encoding="utf-8") as fh:
    json.dump(report, fh)
sys.exit(code)
"""

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def printed(metrics):
    return {name: unit for name, (_, unit) in metrics.items()}


class BenchmarkCheckTest(unittest.TestCase):
    def setUp(self):
        os.makedirs(run.WORK, exist_ok=True)
        self.work = tempfile.mkdtemp(dir=run.WORK)
        with open(run.REFERENCE, encoding="utf-8") as fh:
            self.reference = json.load(fh)["configs"]

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def timed(self, configs, mode=None):
        def command(config_path, out_dir, spans_path=None):
            args = ["run", "--config", config_path, "--out", out_dir]
            return [sys.executable, "-c", PERTURBING_CHILD, mode] + args

        patches = [mock.patch.dict(run.WORKLOADS, {"light": configs})]
        if mode is not None:
            patches.append(mock.patch.object(run, "child_command", command))
        with contextlib.ExitStack() as stack:
            for p in patches:
                stack.enter_context(p)
            stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
            stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
            work = tempfile.mkdtemp(dir=self.work)  # no outputs left from another call
            return run.timed_run("light", run.DEFAULT_SEED, 0, work, self.reference)

    def test_unperturbed_run_passes_with_declared_metrics(self):
        attempted, failed, metrics = self.timed(["bulk_chebyshev"])
        self.assertEqual((attempted, failed), (1, 0))
        self.assertEqual(metrics["pass_share"][0], 1.0)
        self.assertEqual(printed(metrics), declared("end_to_end"))

    def test_perturbed_outputs_fail(self):
        for mode in ("verdict", "number", "crash"):
            with self.subTest(mode=mode):
                attempted, failed, metrics = self.timed(["bulk_chebyshev"], mode)
                self.assertEqual((attempted, failed), (1, 1))
                self.assertLess(metrics["pass_share"][0], 1.0)

    def test_hung_child_is_killed_and_fails(self):
        with mock.patch.object(run, "CHILD_TIMEOUT_S", 2.0):
            attempted, failed, _ = self.timed(["bulk_chebyshev"], "hang")
        self.assertEqual((attempted, failed), (1, 1))

    def test_number_within_tolerance_passes(self):
        out_dir = os.path.join(self.work, "out")
        code, _, _ = run.run_child(
            run.child_command(run.config_path("bulk_chebyshev", run.DEFAULT_SEED, self.work),
                              out_dir),
            out_dir + ".log", run.child_env(self.work))
        path = os.path.join(out_dir, "report.json")
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        report["data"]["sup_errors"][0] *= 1 + run.RTOL / 10
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
        self.assertEqual(run.check_output(code, out_dir, self.reference["bulk_chebyshev"], True),
                         [])

    def test_traced_outputs_identical_with_declared_metrics(self):
        with mock.patch.dict(run.WORKLOADS, {"light": ["bulk_chebyshev", "identities"]}), \
                contextlib.redirect_stdout(io.StringIO()):
            attempted, failed, metrics = run.traced_run("light", run.DEFAULT_SEED, self.work,
                                                        self.reference)
        self.assertEqual((attempted, failed), (4, 0))
        self.assertEqual(metrics["cli.outputs_identical"][0], 2)
        self.assertGreater(metrics["identities.run_identities.calls"][0], 0)
        self.assertEqual(printed(metrics), declared("per_layer"))


if __name__ == "__main__":
    unittest.main()
