"""The exact-identity suite beyond its default seed, its NaN verdict, and what a
run of it (and of the sparse config) loads."""

import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import cdlab
from cdlab import special
from cdlab.identities import run_identities

CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("seed", range(10))
def test_every_identity_holds_at_seed(seed):
    # the checks draw their points from one seeded stream; a law that held
    # only at the default seed's points would fail at one of these
    results = run_identities(seed=seed)
    assert len(results) == 34
    assert [r.line() for r in results if not r.passed] == []


def test_a_nan_error_fails_its_check(monkeypatch):
    # Python's max(worst, nan) keeps worst, so one NaN among a check's errors passed
    kummer_m, calls = special.kummer_m, []

    def nan_on_seventh_call(*args):
        calls.append(args)
        return math.nan if len(calls) == 7 else kummer_m(*args)

    monkeypatch.setattr(special, "kummer_m", nan_on_seventh_call)
    result = next(r for r in run_identities("special_fn") if r.name == "kummer_bessel")
    assert math.isnan(result.error)
    assert not result.passed


def _fresh_run(config, out, module):
    """(exit code, whether module was loaded) of `cdlab run` of a packaged
    config in a fresh interpreter."""
    child = (
        "import json, sys\n"
        "from cdlab.cli import main\n"
        "code = main(['run', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(json.dumps([code, sys.argv[3] in sys.modules]))\n"
    )
    src = str(pathlib.Path(cdlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run(
        [sys.executable, "-c", child, str(CONFIG_DIR / f"{config}.json"), str(out), module],
        capture_output=True, text=True, env=env, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_identities_run_does_not_load_numpy_random(tmp_path):
    # the points come from the standard library's random.Random; numpy 2
    # loads numpy.random (about 5 MB) on the first use of its generator
    code, loaded = _fresh_run("identities", tmp_path / "id", "numpy.random")
    assert code == 0
    assert not loaded
    assert json.loads((tmp_path / "id" / "report.json").read_text())["passed"]


def test_sparse_run_does_not_load_numpy_ma(tmp_path):
    # numpy 2.4's np.unique imports numpy.ma (about 1.3 MB and 17 ms); the
    # block edges of the sparse diagnostics are increasing without it.  The
    # packaged sparse config fails its sine-kernel clause, as its reference
    # records, so it exits 1
    code, loaded = _fresh_run("sparse", tmp_path / "sparse", "numpy.ma")
    assert code == 1
    assert not loaded
