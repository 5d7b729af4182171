"""Package surface: every name a module exports exists, and every public
name has a caller outside the tests."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def test_every_public_library_name_has_a_caller():
    """Each public top-level function or class of an lgha module is named,
    as a name or an attribute, somewhere in the package or the benchmark
    besides its own definition.  Tests, strings and __all__ do not count."""
    pkg = Path(lgha.__file__).resolve().parent
    bench = pkg.parents[1] / "perfbench"
    assert (bench / "harness.py").is_file()
    trees = {path: ast.parse(path.read_text())
             for path in sorted(pkg.glob("*.py")) + sorted(bench.glob("*.py"))}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    unused = [f"{path.stem}.{node.name}"
              for path, tree in trees.items() if path.parent == pkg
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in used]
    assert not unused, unused
