import importlib
import inspect
import pkgutil

import pytest

import cdlab

MODULES = [m.name for m in pkgutil.iter_modules(cdlab.__path__)]


def test_package_exports_only_its_version():
    assert [n for n in vars(cdlab) if not n.startswith("_") and n not in MODULES] == []
    assert isinstance(cdlab.__version__, str)


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_every_public_name_the_module_defines(name):
    mod = importlib.import_module(f"cdlab.{name}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    defined = [n for n, v in vars(mod).items()
               if not n.startswith("_") and (inspect.isclass(v) or inspect.isfunction(v))
               and v.__module__ == mod.__name__]
    assert [n for n in defined if n not in mod.__all__] == []
