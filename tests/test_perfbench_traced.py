"""The benchmark's tracer wraps cdlab functions by name: each must exist."""

import importlib
import importlib.util
import pathlib

TRACE_CHILD = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("trace_child", TRACE_CHILD)
    trace_child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_child)
    assert trace_child.TRACED
    for mod_name, fn_names in trace_child.TRACED.items():
        module = importlib.import_module(f"cdlab.{mod_name}")
        for fn_name in fn_names:
            assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"
