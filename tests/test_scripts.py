"""Every script under scripts/ loads: the timing scripts import private names
(oprl._batch_level, opuc._szego_last_batch, ...) that a rename would break."""

import importlib.util
import pathlib
import sys

import pytest

SCRIPTS = sorted((pathlib.Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_script_loads_without_running_main(monkeypatch, path):
    monkeypatch.setattr(sys, "path", list(sys.path))  # some scripts put src/ first
    spec = importlib.util.spec_from_file_location(f"cdlab_script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
