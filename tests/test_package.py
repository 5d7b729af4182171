"""Package surface: every name a module exports exists."""

import importlib
import pkgutil

import lgha


def test_every_all_name_resolves():
    modules = [m.name for m in pkgutil.iter_modules(lgha.__path__)
               if m.name != "__main__"]
    exporting = []
    for name in modules:
        mod = importlib.import_module(f"lgha.{name}")
        if hasattr(mod, "__all__"):
            exporting.append(name)
            missing = [n for n in mod.__all__ if not hasattr(mod, n)]
            assert not missing, (name, missing)
            namespace = {}
            exec(f"from lgha.{name} import *", namespace)
            assert set(mod.__all__) <= set(namespace)
    assert {"groups", "nilfourier"} <= set(exporting)
