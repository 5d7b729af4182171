"""Benchmark of the lgha verification harness.

Runs one workload (a fixed sequence of `lgha` suites, see harness.py) in
this fresh process, repeating whole passes until `--seconds` have elapsed
(at least one pass), validates every check row (gate.py), and prints the
metrics.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones: `wall_s` (median
pass time, tracing off, set-up excluded), `setup_s` (median over seven
fresh processes of importing `lgha.cli` and building the workload's
quadratures and Wigner caches) and `peak_rss_mb` (ru_maxrss of this
process).  With `--trace 1` an untimed warm-up pass (where the workload
asks for one) is followed by passes in which every suite runs twice,
untraced and with every layer of tracing.py wrapped, side by side; the
metrics are the per-layer ones, including `trace.overhead_ratio` (traced
/ untraced time of the same pass - 1), and the traced rows must reproduce
the untraced rows bit for bit.

Attempted counts check rows; failed counts rows the gate rejects, and any
failure makes the exit code 1.  Run from the repository root:

    python3 perfbench/run.py --workload compact-spectral --seed 42 \
        --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import gate
import harness
import tracing

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 7


def _nonneg_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive_float(text):
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    p.add_argument("--seed", type=_nonneg_int, default=42)
    p.add_argument("--seconds", type=_positive_float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_seconds(workload_name: str) -> list[float]:
    """Set-up time of the workload in fresh processes, one per probe."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(probe), workload_name],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def timed_passes(cli, workload, seed, seconds, ledger) -> list[float]:
    """Untraced passes until `seconds` have elapsed; their wall times."""
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        results = harness.run_pass(cli, workload, seed, tracing.Tracer())
        walls.append(time.perf_counter() - t0)
        ledger.check_pass(results)
    return walls


class PairedPass(NamedTuple):
    wall: float  # untraced runs of the suites
    cpu: float  # CPU time of those runs, all threads
    plain: tracing.Tracer  # their suite spans
    traced_wall: float
    traced: tracing.Tracer


def paired_passes(cli, workload, seed, seconds, ledger) -> list[PairedPass]:
    """Run each suite untraced and traced side by side, pass after pass,
    until `seconds` have elapsed (at least one pass).

    Which run of a pair comes first alternates from suite to suite and from
    pass to pass, so that a drift of the host's speed does not always fall
    on the same one.  The ledger compares the second run of each pair with
    the first, so traced rows must equal untraced rows bit for bit.
    """
    cfg = cli.SuiteConfig(seed=seed, **workload.config)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        plain, traced = tracing.Tracer(), tracing.Tracer()
        wall = cpu = traced_wall = 0.0
        for i, suite in enumerate(workload.suites):
            order = (False, True) if (i + len(passes)) % 2 == 0 \
                else (True, False)
            for instrument in order:
                if instrument:
                    t0 = time.perf_counter()
                    with tracing.instrumented(traced):
                        rows = harness.run_suite(cli, cfg, suite, traced)
                    traced_wall += time.perf_counter() - t0
                else:
                    c0, t0 = time.process_time(), time.perf_counter()
                    rows = harness.run_suite(cli, cfg, suite, plain)
                    wall += time.perf_counter() - t0
                    cpu += time.process_time() - c0
                ledger.check_pass({suite: rows})
        passes.append(PairedPass(wall, cpu, plain, traced_wall, traced))
    return passes


def per_layer(passes: list[PairedPass]) -> dict:
    """Suite times and process CPU from the untraced runs, layer numbers
    from the first traced pass, and the tracing overhead of each pass
    against its own untraced runs; medians over the passes."""
    wall = statistics.median(p.wall for p in passes)
    cpu = statistics.median(p.cpu for p in passes)
    metrics = {}
    for suite in gate.EXPECTED_ROWS:
        metrics[f"cli.suite.{suite}.wall_s"] = (statistics.median(
            p.plain.stat(f"cli.suite.{suite}").total_s for p in passes), "s")
    metrics["proc.cpu_s"] = (cpu, "s")
    metrics["proc.cpu_util"] = (cpu / wall, "ratio")
    metrics.update(tracing.layer_metrics(passes[0].traced))
    metrics["trace.overhead_ratio"] = (statistics.median(
        p.traced_wall / p.wall - 1.0 for p in passes), "ratio")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli = harness.import_lgha(ROOT)
    except ImportError as ex:
        print(f"cannot import the harness: {ex}", file=sys.stderr)
        return 2
    import numpy

    workload = harness.WORKLOADS[args.workload]
    setups = [] if args.trace else setup_seconds(args.workload)
    harness.setup(workload)

    store = gate.ReferenceStore(
        STATE / "refs",
        gate.ReferenceStore.key(ROOT / "src" / "lgha", args.workload,
                                args.seed, workload.config, numpy.__version__))
    ledger = gate.Ledger(store.load())
    if args.trace:
        if workload.traced_warm_up:
            # untimed: lazy imports and first-use caches (about a fifth of
            # the first symbolic-batch pass) would otherwise fall on
            # whichever run of a pair comes first
            ledger.check_pass(harness.run_pass(cli, workload, args.seed,
                                               tracing.Tracer()))
        passes = paired_passes(cli, workload, args.seed, args.seconds, ledger)
        metrics = per_layer(passes)
        tracer = passes[0].traced
        STATE.mkdir(parents=True, exist_ok=True)
        with open(STATE / f"trace-{args.workload}-{args.seed}.json", "w") as fh:
            json.dump({"spans": tracer.spans,
                       "dropped_spans": tracer.dropped_spans,
                       "stats": {k: vars(v) for k, v in tracer.stats.items()}},
                      fh, indent=1)
    else:
        passes = timed_passes(cli, workload, args.seed, args.seconds, ledger)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"wall_s": (statistics.median(passes), "s"),
                   "setup_s": (statistics.median(setups), "s"),
                   "peak_rss_mb": (peak, "MB")}
    store.save(ledger.reference)

    for failure in ledger.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}"
          f"  trace {args.trace}  setup probes {len(setups)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:.6g} {unit}")
    print(f"  {'fail_ratio':<48} {ledger.failed}/{ledger.attempted}"
          f" = {ledger.failed / ledger.attempted:.6g}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
