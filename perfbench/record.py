"""Record the baseline of the harness benchmark in perfbench/baseline.json.

For every seed this runs perfbench/run.py once on each workload of
BENCHMARK.json with tracing off, then once per workload at seed 42 with
tracing on, one process after another.  It reports, per end-to-end
metric, the median, the quartiles and the spread (quartile distance /
median) next to the metric's bound, checks the bypass predictions on the
traced numbers, and writes everything with the environment to the output
file.

perfbench/baseline.json was made from the repository root with two sets
of runs of the same code, the second checked against the first
(larger / smaller median - 1 against each bound, in either order):

    python3 perfbench/record.py --out first.json
    python3 perfbench/record.py --compare first.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"

# layer metrics -> the end-to-end metric they should move -> on which
# workloads; "zero" marks a workload where the layer must not run at all.
PREDICTIONS = [
    ("cli.suite.<suite>.wall_s", "wall_s", "the suite's workload"),
    ("proc.cpu_s, proc.cpu_util", "wall_s", "euclidean-grid, symbolic-batch"),
    ("peterweyl.{so4_rep,wigner_D,wigner_D_stack,compact_transform,"
     "synthesize}.{calls,self_s}, peterweyl.{euler_from_su2,su2_from_euler}"
     ".calls", "wall_s", "compact-spectral; zero on euclidean-grid"),
    ("iwasawa_plancherel.{nested_transform_oracle,upsilon_invariance_error}"
     ".{calls,self_s}, iwasawa_plancherel.plancherel_sl4_check.total_s",
     "wall_s", "compact-spectral"),
    ("groups.{iwasawa_decompose,random_sl4}.calls, "
     "groups.iwasawa_decompose.self_s, groups.{nil_mul,L_mul}"
     ".{calls,items,self_s}", "wall_s",
     "symbolic-batch (batched laws), compact-spectral (single elements)"),
    ("quadrature.{dft_forward,dft_inverse,norm2}.{calls,points,self_s}, "
     "quadrature.SampledField.from_callable.{points,self_s}, "
     "quadrature.monte_carlo.{calls,samples,self_s}, "
     "quadrature.fft.bytes_computed", "wall_s, peak_rss_mb",
     "euclidean-grid; dft points on compact-spectral under 1% of it"),
    ("corpus.GaussPoly1D.values.{calls,points,self_s}, nilfourier."
     "{plancherel_N_check,parseval_N_check,lifted_convolution_check}.total_s,"
     " nilfourier.convolve_N.self_s", "wall_s", "euclidean-grid"),
    ("solvers.{lewy_solve,four_stage_solve}.total_s, "
     "solvers.{cr_solve,spectral_apply}.{calls,self_s}",
     "wall_s, peak_rss_mb", "euclidean-grid"),
    ("diffops.Poly3.eval.{calls,points,self_s}", "wall_s",
     "euclidean-grid, symbolic-batch"),
    ("diffops.{PolyDiffOp.apply,PolyDiffOp.compose}.{calls,self_s}, "
     "diffops.verify_identity.total_s", "wall_s", "symbolic-batch"),
    ("diffops.PolyGauss.values.{calls,self_s}", "wall_s",
     "symbolic-batch, euclidean-grid"),
    ("jets.{Jet.__mul__,Jet.exp,substitute}.{calls,self_s}", "wall_s",
     "symbolic-batch; zero elsewhere"),
]


def run_once(workload, seed, seconds, trace):
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
    result = json.loads(done.stdout.strip().splitlines()[-1]) \
        if done.stdout.strip() else None
    return {"seed": seed, "exit": done.returncode, "elapsed_s": elapsed,
            "result": result,
            "failures": [l for l in done.stderr.splitlines()
                         if l.startswith("FAILED")]}


def summarize(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "bound": bound,
            "values": values}


def environment():
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        rev = ""
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "machine": f"{platform.system()} {platform.machine()}",
            **{v: os.environ.get(v) for v in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
            "git_revision": rev or "unknown"}


def bypass_checks(layers):
    def get(w, m):
        return layers[w]["metrics"][m]["value"]
    pw = [m for m in layers["euclidean-grid"]["metrics"]
          if m.startswith("peterweyl.") and m.endswith(".calls")]
    dft = ("quadrature.dft_forward.points", "quadrature.dft_inverse.points")
    compact = sum(get("compact-spectral", m) for m in dft)
    grid = sum(get("euclidean-grid", m) for m in dft)
    return {
        "peterweyl calls on euclidean-grid": sum(get("euclidean-grid", m)
                                                 for m in pw),
        "dft points compact-spectral / euclidean-grid": compact / grid,
        "Jet.__mul__ calls outside symbolic-batch": sum(
            get(w, "jets.Jet.__mul__.calls") for w in layers
            if w != "symbolic-batch"),
    }


def compare(previous, current):
    """Median change of every end-to-end metric against an earlier record.

    The two medians agree when the larger exceeds the smaller by at most
    the bound, so the verdict is the same whichever record is taken first.
    """
    out = {}
    for name, e2e in current["end_to_end"].items():
        if name not in previous["end_to_end"]:
            continue
        out[name] = {}
        for m, s in e2e["metrics"].items():
            before = previous["end_to_end"][name]["metrics"][m]["median"]
            change = s["median"] / before - 1.0
            gap = max(s["median"], before) / min(s["median"], before) - 1.0
            out[name][m] = {"previous": before, "current": s["median"],
                            "change": change, "gap": gap, "bound": s["bound"],
                            "within_bound": gap <= s["bound"]}
            flag = "" if gap <= s["bound"] else "  <-- out of bound"
            print(f"{name:<18} {m:<12} median {before:.5g} -> "
                  f"{s['median']:.5g}  change {change:+.4f}  gap {gap:.4f}  "
                  f"bound {s['bound']}{flag}")
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="42,1,2,3,4,5,6,7,8,9")
    p.add_argument("--compare", default=None,
                   help="earlier record whose medians this run is checked "
                        "against, metric by metric, within the bounds")
    p.add_argument("--out", default=str(Path(__file__).parent / "baseline.json"))
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = [int(s) for s in args.seeds.split(",")]
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}

    record = {"environment": environment(), "run_seconds": spec["run_seconds"],
              "workloads": {}, "predictions": [
                  {"layer": a, "end_to_end": b, "workloads": c}
                  for a, b, c in PREDICTIONS],
              "end_to_end": {}, "per_layer": {}, "known_failures": []}
    for name in names:
        wl = harness.WORKLOADS[name]
        record["workloads"][name] = {"suites": list(wl.suites),
                                     "config": wl.config, "why": why[name]}
    # seed by seed, one run of every workload, so that each workload's runs
    # spread over the whole set and a slow spell of the host does not fall
    # on one workload alone
    runs = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            runs[name].append(run_once(name, seed, spec["run_seconds"], 0))
    for name in names:
        for r in runs[name]:
            if r["exit"] != 0:
                record["known_failures"].append(
                    {"workload": name, "seed": r["seed"], "trace": 0,
                     "exit": r["exit"], "rows": r["failures"]})
        ok = [r for r in runs[name] if r["result"]]
        metrics = {m: summarize([r["result"]["metrics"][m]["value"]
                                 for r in ok], bounds[m]) for m in bounds}
        record["end_to_end"][name] = {
            "seeds": seeds, "metrics": metrics,
            "attempted": sum(r["result"]["attempted"] for r in ok),
            "failed": sum(r["result"]["failed"] for r in ok),
            "elapsed_s": [round(r["elapsed_s"], 2) for r in runs[name]]}
        e2e = record["end_to_end"][name]
        print(f"{name:<18} fail_ratio   {e2e['failed']}/{e2e['attempted']}",
              flush=True)
        for m, s in metrics.items():
            flag = "" if s["spread"] < s["bound"] / 3 \
                else "  <-- spread above bound/3"
            print(f"{name:<18} {m:<12} median {s['median']:.5g}  spread "
                  f"{s['spread']:.4f}  bound {s['bound']}{flag}", flush=True)
    for name in names:
        traced = run_once(name, 42, spec["run_seconds"], 1)
        record["per_layer"][name] = dict(
            traced["result"] or {}, elapsed_s=round(traced["elapsed_s"], 2))
        if traced["exit"] != 0:
            record["known_failures"].append(
                {"workload": name, "seed": 42, "trace": 1,
                 "exit": traced["exit"], "rows": traced["failures"]})
    if len(record["per_layer"]) == len(harness.WORKLOADS):
        record["bypass_checks"] = bypass_checks(record["per_layer"])
    # a full comparison makes 20 untraced and 2 traced runs per workload
    # plus 4 further runs
    untraced = [statistics.mean(record["end_to_end"][n]["elapsed_s"])
                for n in names]
    traced = [record["per_layer"][n]["elapsed_s"] for n in record["per_layer"]]
    record["estimated_comparison_s"] = round(
        20 * sum(untraced) + 2 * sum(traced) + 4 * max(untraced), 1)
    print(f"estimated comparison time {record['estimated_comparison_s']} s")
    if args.compare:
        record["comparison"] = compare(
            json.loads(Path(args.compare).read_text()), record)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
