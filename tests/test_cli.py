"""CLI surface: suites, report schema, determinism, exit codes, formats."""

import importlib
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from lgha import cli, quadrature
from lgha import iwasawa_plancherel as IP
from lgha.suites import ROWS


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "lgha", *args],
                          capture_output=True, text=True)
    return proc


def test_list_suites():
    proc = run_cli("--list")
    assert proc.returncode == 0
    names = proc.stdout.split()
    for s in cli.SUITE_NAMES:
        assert s in names


def test_unknown_suite_is_config_error():
    proc = run_cli("--suite", "bogus")
    assert proc.returncode == 2


def test_missing_suite_is_config_error():
    proc = run_cli()
    assert proc.returncode == 2


def test_bad_config_file(tmp_path, capsys):
    # the cases run in-process, and an exception escaping main fails the
    # test; the first also runs as one real process
    cfg = tmp_path / "cfg.json"
    for payload in ({"unknown_key": 1}, 5, {"budgets": 5},
                    {"tolerances": [1]}, {"budgets": {"max_grid_points": True}},
                    {"tolerances": {"modulus-vs-jacobian": True}}):
        cfg.write_text(json.dumps(payload))
        args = ("--suite", "hormander", "--config", str(cfg))
        assert cli.main(list(args)) == 2, payload
        err = capsys.readouterr().err
        assert "Traceback" not in err, (payload, err)
        if payload == {"unknown_key": 1}:
            proc = run_cli(*args)
            assert proc.returncode == 2, (payload, proc.stderr)
            assert "Traceback" not in proc.stderr


def test_bad_budget_rejected(tmp_path, capsys):
    # budgets below their floors or not finite numbers, and seeds that are
    # not nonnegative integers, from the config file or from a flag; the
    # cases run in-process, and an exception escaping main fails the test
    cases = [
        ({"budgets": {"max_grid_points": -5}}, ()),
        (None, ("--budget-grid", "0")),
        (None, ("--budget-mc", "500")),
        ({"budgets": {"max_mc_samples": 500}}, ()),
        (None, ("--budget-bandlimit", "-1")),
        (None, ("--budget-grid", "nan")),
        (None, ("--budget-grid", "inf")),
        (None, ("--budget-mc", "nan")),
        (None, ("--budget-bandlimit", "nan")),
        ({"budgets": {"max_grid_points": "abc"}}, ()),
        ({"budgets": {"max_mc_samples": None}}, ()),
        ({"budgets": {"max_so4_bandlimit": "abc"}}, ()),
        (None, ("--seed", "-200000")),
        ({"seed": 1.7}, ()),
        (None, ("--budget-mc", "1500.7")),
        ({"budgets": {"max_mc_samples": 1500.7}}, ()),
        # JSON true and false are not numbers
        ({"budgets": {"max_grid_points": True}}, ()),
        ({"budgets": {"max_mc_samples": False}}, ()),
        ({"budgets": {"max_so4_bandlimit": True}}, ()),
    ]
    for config, flags in cases:
        args = ["--suite", "hormander", *flags]
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            args += ["--config", str(cfg)]
        assert cli.main(args) == 2, (config, flags)
        err = capsys.readouterr().err
        assert err.startswith("config error:"), (config, flags, err)
    # one real process: exit code 2, the message and no traceback
    proc = run_cli("--suite", "hormander", "--budget-grid", "nan")
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error:"), proc.stderr


def test_integral_float_budget_accepted(tmp_path):
    # a float budget with no fractional part is that integer, from the
    # command line or from the config file
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"budgets": {"max_mc_samples": 1e6}}))
    for flags in (("--budget-mc", "1e6"), ("--config", str(cfg))):
        out = tmp_path / "report.json"
        proc = run_cli("--suite", "hormander", *flags, "--out", str(out))
        assert proc.returncode == 0, (flags, proc.stderr)
        budgets = json.loads(out.read_text())["config"]["budgets"]
        assert budgets["max_mc_samples"] == 1000000


def test_bad_tolerance_rejected(tmp_path, capsys):
    # a key that names no check row, a value that is not a finite number
    # >= 0, or a key of a row whose verdict no tolerance enters; the cases
    # run in-process, and the first also as one real process
    cfg = tmp_path / "cfg.json"
    for tolerances, word in (({"no-such-check": 1e-3}, "no-such-check"),
                             ({"nil-law-vs-matrix": "tight"}, "tight"),
                             ({"nil-law-vs-matrix": math.inf}, "nil-law"),
                             ({"nil-law-vs-matrix": math.nan}, "nil-law"),
                             ({"nil-law-vs-matrix": -1e-3}, "nil-law"),
                             ({"modulus-vs-jacobian": True}, "modulus-vs"),
                             ({"bracket-rank": 1e-30}, "bracket-rank")):
        cfg.write_text(json.dumps({"tolerances": tolerances}))
        args = ("--suite", "hormander", "--config", str(cfg))
        assert cli.main(list(args)) == 2, tolerances
        err = capsys.readouterr().err
        assert err.startswith("config error:"), err
        assert word in err
        if word == "no-such-check":
            proc = run_cli(*args)
            assert proc.returncode == 2, proc.stderr
            assert proc.stderr.startswith("config error:")
            assert word in proc.stderr
    assert set(cli.FIXED_VERDICT_NAMES) < set(cli.CHECK_NAMES)


def test_seed_flag_overrides_config_seed(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7}))
    out = tmp_path / "report.json"
    for flags, seed in (((), 7), (("--seed", "3"), 3)):
        proc = run_cli("--suite", "hormander", "--config", str(cfg),
                       "--out", str(out), *flags)
        assert proc.returncode == 0
        assert json.loads(out.read_text())["seed"] == seed


def test_missing_out_directory_is_an_output_error(tmp_path):
    out = tmp_path / "no-such-dir" / "report.json"
    proc = run_cli("--suite", "hormander", "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("output error:")
    assert "Traceback" not in proc.stderr


def test_out_naming_a_directory_leaves_no_temporary_file(tmp_path):
    out = tmp_path / "report"
    out.mkdir()
    proc = run_cli("--suite", "hormander", "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("output error:")
    assert "Traceback" not in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report"]


def test_configs_built_in_code_are_validated():
    # a negative seed reached Philox as a bare ValueError, a NaN tolerance
    # was used as is, and a float budget reached monte_carlo's chunk loop
    for cfg in (cli.SuiteConfig(seed=-200000),
                cli.SuiteConfig(tolerances={"nil-law-vs-matrix": math.nan}),
                cli.SuiteConfig(budget_mc=600000.0),
                cli.SuiteConfig(budget_grid=1e6)):
        with pytest.raises(cli.ConfigError):
            cli.run_suite("hormander", cfg)
        with pytest.raises(cli.ConfigError):
            cli.SUITES["hormander"](cfg)


def test_hormander_suite_report_schema(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("--suite", "hormander", "--seed", "7", "--out", str(out))
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    assert report["suite"] == "hormander"
    assert report["seed"] == 7
    assert report["summary"]["failed"] == 0
    for check in report["checks"]:
        for key in ("name", "anchor", "lhs", "rhs", "abs_err", "rel_err",
                    "tol", "pass"):
            assert key in check


def test_report_times_each_suite_outside_the_rows(monkeypatch):
    import time

    def suite(seconds, name):
        def run(cfg):
            time.sleep(seconds)
            return [{"name": name, "pass": True}]
        return run

    monkeypatch.setattr(cli, "SUITES", {"slow": suite(0.05, "s"),
                                        "quick": suite(0.0, "q")})
    report = cli.run_suite("all", cli.SuiteConfig())
    timings = report["timings"]
    assert list(timings) == ["slow", "quick"]
    assert timings["slow"] >= 0.05 and 0.0 <= timings["quick"] < 0.05
    assert report["summary"]["wall_time_s"] >= 0.05
    assert report["checks"] == [{"name": "s", "pass": True},
                                {"name": "q", "pass": True}]


def test_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    proc = run_cli("--suite", "hormander", "--seed", "3", "--out", str(out),
                   "--format", "csv")
    assert proc.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "name,anchor,lhs,rhs,abs_err,rel_err,tol,pass"
    assert len(lines) > 1


def test_determinism_same_seed():
    cfg = cli.SuiteConfig()
    cfg.seed = 42
    a = cli.run_suite("hormander", cfg)
    b = cli.run_suite("hormander", cfg)
    assert a["checks"] == b["checks"]


def test_different_seed_changes_samples():
    cfg1 = cli.SuiteConfig()
    cfg1.seed = 1
    cfg2 = cli.SuiteConfig()
    cfg2.seed = 2
    a = cli.run_suite("groups", cfg1)
    b = cli.run_suite("groups", cfg2)
    names = [c["name"] for c in a["checks"]]
    assert names == [c["name"] for c in b["checks"]]
    # same verdicts, generically different sampled error values
    assert any(x["lhs"] != y["lhs"] for x, y in zip(a["checks"], b["checks"]))


def test_budget_degradation_still_passes():
    cfg = cli.SuiteConfig()
    cfg.seed = 11
    cfg.budget_grid = 10 ** 6
    cfg.budget_mc = 1 << 18
    report = cli.run_suite("nil-plancherel", cfg)
    assert report["summary"]["failed"] == 0
    bump = next(c for c in report["checks"] if c["name"] == "plancherel-bump")
    grid = next(c for c in report["checks"] if c["name"] == "parseval-grid")
    assert bump["tol"] == 2e-2 and grid["tol"] == 2e-2  # degraded tolerances


def test_tolerance_override():
    # every tunable row of three quick suites reports its own configured
    # tolerance; the fixed-verdict row among them keeps the table's
    suites = ("groups", "sp4-plancherel", "semidirect-plancherel")
    names = [row[0] for suite in suites for row in ROWS[suite]
             if row[0] not in cli.FIXED_VERDICT_NAMES]
    tols = {name: (i + 2) * 1e-3 for i, name in enumerate(names)}
    tols["nil-law-vs-matrix"] = 1e-30
    cfg = cli.SuiteConfig.from_json({"tolerances": tols})
    rows = {c["name"]: c for suite in suites
            for c in cli.run_suite(suite, cfg)["checks"]}
    assert len(names) == 17
    assert {name: rows[name]["tol"] for name in names} == tols
    assert not rows["nil-law-vs-matrix"]["pass"]
    assert rows["sp4-dimension-audit"]["tol"] == 0.0


def _perfbench_module(name):
    """perfbench/<name>.py, loaded from its file (perfbench is no package)
    and registered in sys.modules, where its dataclasses look it up."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_row_table_matches_benchmark_gate():
    # a renamed, added or reordered row fails here, not first in the
    # benchmark run
    gate = _perfbench_module("gate")
    assert list(ROWS) == list(cli.SUITES)
    assert {suite: tuple(row[0] for row in rows)
            for suite, rows in ROWS.items()} == gate.EXPECTED_ROWS
    # perfbench runs cli.SUITES with cli.SuiteConfig, and its self-test reads
    # the monte_carlo binding in cli
    assert cli.monte_carlo is quadrature.monte_carlo
    assert callable(cli.SuiteConfig)


def test_every_traced_layer_names_a_library_attribute():
    # a deleted or renamed function that the benchmark traces fails here,
    # not first in a traced benchmark run
    tracing = _perfbench_module("tracing")
    assert tracing.LAYERS
    for layer in tracing.LAYERS:
        owner = importlib.import_module(f"lgha.{layer.module}")
        for part in layer.qualname.split("."):
            assert hasattr(owner, part), layer.key
            owner = getattr(owner, part)
        assert callable(owner), layer.key


def test_nan_error_fails_its_row(monkeypatch):
    # a NaN after a finite value must not vanish in the worst-case fold
    original = IP.upsilon_invariance_error

    def nan_at_second_draw(*args):
        err = original(*args)
        err[1] = math.nan
        return err

    monkeypatch.setattr(IP, "upsilon_invariance_error", nan_at_second_draw)
    cfg = cli.SuiteConfig(seed=42, budget_bandlimit=0.5)
    rows = {c["name"]: c for c in cli.SUITES["sl4-plancherel"](cfg)}
    assert math.isnan(rows["upsilon-invariance"]["lhs"])
    assert not rows["upsilon-invariance"]["pass"]
    assert all(c["pass"] for n, c in rows.items() if n != "upsilon-invariance")
