"""Package surface: every name a module exports exists, every public name
has a caller outside the tests, and only the row modules form errors and
verdicts."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import lgha

# the child imports this checkout's lgha first, installed or not
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [str(Path(__file__).parents[1] / "src"),
     *filter(None, [os.environ.get("PYTHONPATH")])])}


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


def _library_trees():
    """The package directory and the parsed modules of the package and of
    the benchmark, by path."""
    pkg = Path(lgha.__file__).resolve().parent
    bench = pkg.parents[1] / "perfbench"
    assert (bench / "harness.py").is_file()
    return pkg, {path: ast.parse(path.read_text())
                 for path in sorted(pkg.glob("*.py")) + sorted(bench.glob("*.py"))}


def _defined_names(node):
    """The names a top-level statement defines: a function's or class's, or
    the plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [
        node.target] if isinstance(node, ast.AnnAssign) else []
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)]


def test_every_public_library_name_has_a_caller():
    """Each top-level function, class or constant of an lgha module, public
    or private, is read, as a name or an attribute, somewhere in the package
    or the benchmark besides its own definition, or is a layer the
    benchmark's tracer wraps by module and name, _L("module", "name", ...)
    in perfbench/tracing.py, whose per-layer metrics BENCHMARK.json lists.
    Tests, other strings, assignments and __all__ do not count."""
    pkg, trees = _library_trees()
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}
    traced = {f"{node.args[0].value}.{node.args[1].value}"
              for node in ast.walk(trees[pkg.parents[1] / "perfbench"
                                         / "tracing.py"])
              if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "_L"}
    unused = [f"{path.stem}.{name}"
              for path, tree in trees.items() if path.parent == pkg
              for node in tree.body for name in _defined_names(node)
              if name != "__all__" and name not in used
              and f"{path.stem}.{name}" not in traced]
    assert not unused, unused


# Defaulted parameters no library caller passes, kept on purpose: the
# command-line entry points take argv from tests and from sys.argv alike,
# and the README's block-form claim is tested through `form`.
_UNPASSED_DEFAULTS = {
    "cli.main": {"argv"},
    "report_diff.main": {"argv"},
    "groups.sp4_algebra_basis": {"form"},
    "groups.sp4_iwasawa_dimension_audit": {"form"},
}


def test_every_defaulted_parameter_is_passed_by_a_caller():
    """A defaulted parameter of a public top-level lgha function is a knob,
    so some call in the package or the benchmark that names the function
    passes it, by position or by keyword (a *args or **kwargs call counts as
    passing them all).  Tests do not count."""
    pkg, trees = _library_trees()
    npos, kws = {}, {}  # called name -> most positional args, keyword names
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            npos[name] = max(npos.get(name, 0),
                             float("inf") if starred else len(node.args))
            kws.setdefault(name, set()).update(k.arg for k in node.keywords)
    unpassed = []
    for path, tree in trees.items():
        for node in tree.body if path.parent == pkg else ():
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            qual = f"{path.stem}.{node.name}"
            args = node.args.posonlyargs + node.args.args
            first = len(args) - len(node.args.defaults)
            defaulted = [(i, a.arg) for i, a in enumerate(args) if i >= first]
            defaulted += [(float("inf"), a.arg) for a, d in zip(
                node.args.kwonlyargs, node.args.kw_defaults) if d is not None]
            named = kws.get(node.name, set()) | _UNPASSED_DEFAULTS.get(qual, set())
            unpassed += [f"{qual}({arg})" for i, arg in defaulted
                         if i >= npos.get(node.name, 0)
                         and arg not in named and None not in named]
    assert not unpassed, unpassed


def test_importing_the_cli_starts_no_thread():
    """The worker pool is created on first use: importing lgha.cli (what the
    benchmark's set-up probe times) starts no thread and imports neither
    concurrent.futures nor scipy.fft."""
    code = ("import sys, threading, lgha.cli; "
            "print(threading.active_count(), "
            "'concurrent.futures' in sys.modules, 'scipy.fft' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=CHILD_ENV)
    assert proc.stdout.split() == ["1", "False", "False"]


def test_python_m_lgha_exits_with_mains_code():
    """`python -m lgha` turns main's return value into the exit code: a
    budget main rejects exits 2 with its message and no traceback."""
    proc = subprocess.run(
        [sys.executable, "-m", "lgha", "--suite", "hormander",
         "--budget-grid", "nan"], capture_output=True, text=True,
        env=CHILD_ENV)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error:"), proc.stderr
    assert "Traceback" not in proc.stderr


def test_the_group_suites_import_no_scipy():
    """The library draws group elements with its own matrix exponential:
    running the suites that draw them loads no part of scipy, whose import
    added about 20 MB to the benchmark's peak resident set."""
    code = ("import sys, lgha.cli as c; cfg = c.SuiteConfig(budget_bandlimit=1.0); "
            "[c.run_suite(s, cfg) for s in ('groups', 'sl4-plancherel', "
            "'semidirect-plancherel')]; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=CHILD_ENV)
    assert proc.stdout.split() == ["[]"]


def test_benchmark_tracer_finds_every_layer(monkeypatch):
    """The benchmark's tracer wraps functions by name (perfbench/tracing.py,
    LAYERS), some of which, like PolyGauss.values, no library code calls;
    entering its block with every lgha module imported fails if one of them
    is gone, and leaving it restores every binding."""
    pkg, _ = _library_trees()
    for m in pkgutil.iter_modules(lgha.__path__):
        if m.name != "__main__":
            importlib.import_module(f"lgha.{m.name}")
    spec = importlib.util.spec_from_file_location(
        "_perfbench_tracing", pkg.parents[1] / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    from lgha import diffops
    before = vars(diffops.PolyGauss)["values"]
    with tracing.instrumented(tracing.Tracer()):
        assert vars(diffops.PolyGauss)["values"] is not before
    assert vars(diffops.PolyGauss)["values"] is before


# the modules that turn check results into report rows
_ROW_MODULES = {"suites", "cli", "report_diff"}
_ROW_KEYS = {"rel_err", "abs_err", "within_3sigma"}


def test_only_the_row_modules_form_errors_and_verdicts():
    """A check returns its sides, as a tuple or an MCResult, and a solve
    returns (field, info); the relative error, absolute error and 3-sigma
    verdict of a row are formed where rows are made.  So no other lgha
    module uses a row's error or verdict key as a dict key or a
    subscript."""
    pkg, trees = _library_trees()
    found = []
    for path, tree in trees.items():
        if path.parent != pkg or path.stem in _ROW_MODULES:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict):
                keys = node.keys
            elif isinstance(node, ast.Subscript):
                keys = [node.slice]
            else:
                continue
            found += [f"{path.stem}:{node.lineno} {key.value}"
                      for key in keys if isinstance(key, ast.Constant)
                      and key.value in _ROW_KEYS]
    assert not found, found
