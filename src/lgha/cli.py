"""Command-line front end of the verification suites: parses the flags and
the JSON config, runs the suites of `lgha.suites` and writes the report.

A report holds one row per check (see `lgha.suites.ROWS`), a config echo,
a summary and the seconds each suite took (`timings`, outside the rows).
For a fixed (suite, config, seed) the rows are identical run to run; only
the timestamp and the times differ.

Exit codes: 0 all checks pass, 1 check failure, 2 configuration or output
error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

# monte_carlo is imported only so that it stays bound here: the benchmark's
# self-test (perfbench/test_perfbench.py, _bindings) reads lgha.cli.monte_carlo
from .quadrature import (BudgetExceeded, DEFAULT_GRID_BUDGET, MIN_MC_SAMPLES,
                         monte_carlo)
from .suites import CHECK_NAMES, FIXED_VERDICT_NAMES, MIN_GRID_POINTS, SUITES

SUITE_NAMES = (*SUITES, "all")


class ConfigError(ValueError):
    pass


# each JSON budget key, the SuiteConfig field it sets and its type; the
# field budget_grid is also set by the flag --budget-grid, and so on
_BUDGETS = {"max_grid_points": ("budget_grid", int),
           "max_mc_samples": ("budget_mc", int),
           "max_so4_bandlimit": ("budget_bandlimit", float)}


def _number(kind, value, what):
    """kind(value) for a number read from a config file or a flag; a value
    kind rejects (a string, NaN or infinity for int) is a ConfigError, and
    so are a bool (JSON true/false) and a float with a fractional part for
    int."""
    if isinstance(value, bool):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what} must be a finite number, got {value!r}") \
            from None
    if kind is int and isinstance(value, float) and out != value:
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return out


@dataclass
class SuiteConfig:
    seed: int = 42
    budget_grid: int = DEFAULT_GRID_BUDGET
    budget_mc: int = 1 << 20
    budget_bandlimit: float = 2.0
    tolerances: dict = field(default_factory=dict)

    @classmethod
    def from_json(cls, payload: dict) -> "SuiteConfig":
        if not isinstance(payload, dict):
            raise ConfigError("a config must be a JSON object")
        known = {"seed", "budgets", "tolerances"}
        extra = set(payload) - known
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        cfg = cls()
        cfg.seed = payload.get("seed", cfg.seed)
        budgets = payload.get("budgets", {})
        tolerances = payload.get("tolerances", {})
        if not (isinstance(budgets, dict) and isinstance(tolerances, dict)):
            raise ConfigError('"budgets" and "tolerances" must be objects')
        bextra = set(budgets) - set(_BUDGETS)
        if bextra:
            raise ConfigError(f"unknown budget keys: {sorted(bextra)}")
        for key, (name, kind) in _BUDGETS.items():
            if key in budgets:
                setattr(cfg, name, _number(kind, budgets[key], key))
        cfg.tolerances = {
            name: _number(float, tol, f"tolerance {name!r}")
            for name, tol in tolerances.items()}
        cfg.validate()
        return cfg

    def validate(self):
        """Reject a seed that is not a nonnegative integer, budgets the
        suites cannot run with (a grid or Monte Carlo budget must be an int),
        tolerance keys that name no check or a fixed-verdict row, and
        tolerances that are negative or not finite (exit code 2)."""
        if type(self.seed) is not int or self.seed < 0:
            raise ConfigError(
                f"seed must be a nonnegative integer, got {self.seed!r}")
        unknown = sorted(set(self.tolerances) - set(CHECK_NAMES))
        if unknown:
            raise ConfigError(f"unknown tolerance keys: {unknown}")
        fixed = sorted(set(self.tolerances) & set(FIXED_VERDICT_NAMES))
        if fixed:
            raise ConfigError(
                f"tolerance keys of rows with a fixed verdict: {fixed}")
        bad = sorted(name for name, tol in self.tolerances.items()
                     if not 0.0 <= tol < math.inf)
        if bad:
            raise ConfigError(
                f"tolerances must be finite and >= 0: {bad}")
        for what, budget, floor in (
                ("grid", self.budget_grid, MIN_GRID_POINTS),
                ("Monte Carlo", self.budget_mc, MIN_MC_SAMPLES)):
            if type(budget) is not int or budget < floor:
                raise ConfigError(f"{what} budget must be an int >= {floor}")
        # kna-plancherel-halfint needs the (1/2, 1/2) label
        if not self.budget_bandlimit >= 0.5:
            raise ConfigError("band-limit budget must be >= 0.5")

    def check_seed(self, name: str) -> int:
        """The seed of the named suite or check: the config's seed plus an
        offset fixed by the name."""
        return int(self.seed + zlib.crc32(name.encode()) % 100003)

    def rng(self, name: str) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(self.check_seed(name)))


def run_suite(suite: str, cfg: SuiteConfig) -> dict:
    if suite not in SUITE_NAMES:
        raise ConfigError(f"unknown suite {suite!r}; see --list")
    t0 = time.perf_counter()
    names = list(SUITES) if suite == "all" else [suite]
    checks = []
    timings = {}
    for name in names:
        start = time.perf_counter()
        checks.extend(SUITES[name](cfg))
        timings[name] = round(time.perf_counter() - start, 4)
    passed = sum(1 for c in checks if c["pass"])
    report = {
        "suite": suite,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seed": cfg.seed,
        "config": {
            "budgets": {key: getattr(cfg, name)
                        for key, (name, _) in _BUDGETS.items()},
            "tolerances": cfg.tolerances,
        },
        "checks": checks,
        "summary": {"passed": passed, "failed": len(checks) - passed,
                    "wall_time_s": round(time.perf_counter() - t0, 3)},
        "timings": timings,
    }
    return report


def _atomic_write(path: str, data: str):
    """Write data to path through path + ".tmp"; if the write or the
    rename fails, the temporary file is removed and the error propagates."""
    tmp = path + ".tmp"
    fh = open(tmp, "w")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _to_csv(report: dict) -> str:
    rows = ["name,anchor,lhs,rhs,abs_err,rel_err,tol,pass"]
    for c in report["checks"]:
        rows.append(",".join(str(c[k]) for k in
                             ("name", "anchor", "lhs", "rhs", "abs_err",
                              "rel_err", "tol", "pass")))
    return "\n".join(rows) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lgha", description="verification suites for the harmonic "
        "analysis library")
    parser.add_argument("--suite", default=None, choices=SUITE_NAMES)
    parser.add_argument("--seed", type=int, default=None,
                        help="overrides the config file's seed (default 42)")
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--out", default=None, help="report output path")
    parser.add_argument("--format", default="json", choices=("json", "csv"))
    parser.add_argument("--list", action="store_true",
                        help="list available suites")
    for name, _ in _BUDGETS.values():
        parser.add_argument("--" + name.replace("_", "-"), type=float)
    args = parser.parse_args(argv)

    if args.list:
        for name in SUITE_NAMES:
            print(name)
        return 0

    try:
        if args.config:
            with open(args.config) as fh:
                cfg = SuiteConfig.from_json(json.load(fh))
        else:
            cfg = SuiteConfig()
        if args.seed is not None:
            cfg.seed = args.seed
        for name, kind in _BUDGETS.values():
            if getattr(args, name) is not None:
                setattr(cfg, name, _number(kind, getattr(args, name),
                                           "--" + name.replace("_", "-")))
        cfg.validate()
        if args.suite is None:
            raise ConfigError("--suite is required (or use --list)")
    except (ConfigError, OSError, json.JSONDecodeError) as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return 2

    try:
        report = run_suite(args.suite, cfg)
    except BudgetExceeded as ex:
        print(f"budget exceeded: {ex}", file=sys.stderr)
        return 3
    except ConfigError as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return 2

    payload = _to_csv(report) if args.format == "csv" \
        else json.dumps(report, indent=2)
    if args.out:
        try:
            _atomic_write(args.out, payload)
        except OSError as ex:
            print(f"output error: {ex}", file=sys.stderr)
            return 2
    else:
        print(payload)
    for c in report["checks"]:
        status = "pass" if c["pass"] else "FAIL"
        print(f"[{status}] {c['name']}: err {c['rel_err']!r} tol {c['tol']}",
              file=sys.stderr)
    return 0 if report["summary"]["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
