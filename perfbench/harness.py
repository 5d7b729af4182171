"""Workloads of the harness benchmark and the code that runs them.

A workload is a fixed sequence of `lgha` suites.  One pass runs each suite
once, in order, through `lgha.cli.SUITES[name](SuiteConfig(seed=...))`:
a closed loop with one client, each suite starting when the previous one
has returned.
"""

from __future__ import annotations

import importlib
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    suites: tuple
    config: dict = field(default_factory=dict)  # SuiteConfig overrides
    quadratures: tuple = ()  # (kind, band limit) built during set-up
    # an untimed pass before the traced and untraced runs are paired; see
    # run.py.  Off where one pass takes ~40 s: three passes would not fit in
    # the 180 s a run may take.
    traced_warm_up: bool = True


# Each workload exercises some layers and bypasses others, so that a change
# to one layer shows on one workload and is predicted to leave another
# unchanged; BENCHMARK.json gives the reason for each.  The two budget
# overrides keep all runs of a comparison (70 of them) inside the time it is
# allowed; every check keeps its tolerance and verdict rule.
WORKLOADS = {
    # single-node peterweyl representation calls; almost no grid or FFT work.
    # Band limit 1 instead of 2 trims the transform checks of so4 and sl4;
    # the convolution-order and nested-transform oracles are unaffected.
    "compact-spectral": Workload(
        ("so4", "sl4-plancherel", "sp4-plancherel", "semidirect-plancherel"),
        config={"budget_bandlimit": 1.0},
        quadratures=(("so4", 1.0), ("so4", 0.5), ("u2", 1)),
        traced_warm_up=False),
    # FFTs, 6-D meshes, Monte Carlo and full-grid polynomials; no peterweyl.
    # 2^18 instead of 2^20 Monte Carlo samples.
    "euclidean-grid": Workload(("nil-plancherel", "solvers"),
                               config={"budget_mc": 1 << 18},
                               traced_warm_up=False),
    # the same modules on small batches: jets, 100-point Poly3.eval,
    # 1000-row group laws
    "symbolic-batch": Workload(("groups", "operator-identities", "hormander")),
}


def import_lgha(root: Path):
    """Import `lgha.cli` from the checkout's `src/`, never from elsewhere."""
    src = (root / "src").resolve()
    if not (src / "lgha" / "cli.py").is_file():
        raise ImportError(f"no lgha sources under {src}")
    sys.path.insert(0, str(src))
    cli = importlib.import_module("lgha.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"lgha imported from {cli.__file__}, not {src}")
    return cli


def setup(workload: Workload):
    """Work a fresh process does before the first pass: the quadratures the
    workload uses and the Wigner eigendecomposition caches."""
    from lgha import peterweyl, quadrature
    for kind, band_limit in workload.quadratures:
        getattr(quadrature, f"{kind}_quadrature")(band_limit)
    if workload.quadratures:
        for twoj in range(7):
            peterweyl.wigner_d(twoj / 2.0, 0.0)


def run_suite(cli, cfg, suite: str, tracer):
    """Run one suite, timed as the span `cli.suite.<name>` of `tracer`.

    Returns its rows, or None when it raised.
    """
    tracer.enter(f"cli.suite.{suite}", span=True)
    try:
        return cli.SUITES[suite](cfg)
    except Exception:  # a raising suite fails its rows; the run goes on
        traceback.print_exc()
        return None
    finally:
        tracer.exit()


def run_pass(cli, workload: Workload, seed: int, tracer):
    """Run every suite of the workload once.

    Returns suite -> rows, with None for a suite that raised.
    """
    cfg = cli.SuiteConfig(seed=seed, **workload.config)
    return {suite: run_suite(cli, cfg, suite, tracer)
            for suite in workload.suites}
