"""Self-tests of the harness benchmark's own code.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import gate
import harness
import record
import run
import tracing

ROOT = Path(__file__).resolve().parent.parent


def _rows(suite):
    return [{"name": n, "anchor": "a", "lhs": 1e-13, "rhs": 0.0,
             "abs_err": 1e-13, "rel_err": 1e-13, "tol": 1e-12, "pass": True}
            for n in gate.EXPECTED_ROWS[suite]]


def _reference(rows):
    return {r["name"]: gate.canonical(r) for r in rows}


def test_clean_rows_pass():
    rows = _rows("hormander")
    assert gate.check_suite("hormander", rows, _reference(rows)) == (3, [])


@pytest.mark.parametrize("field, value", [("lhs", math.nan),
                                          ("rel_err", math.inf),
                                          ("abs_err", -math.inf)])
def test_non_finite_row_fails(field, value):
    rows = _rows("hormander")
    rows[1][field] = value
    attempted, failures = gate.check_suite("hormander", rows)
    assert attempted == 3
    assert failures == ["hormander/bracket-rank: non-finite value"]


def test_flipped_verdict_fails():
    rows = _rows("hormander")
    rows[0]["pass"] = False
    _, failures = gate.check_suite("hormander", rows)
    assert failures == ["hormander/bracket-identity: verdict false"]


def test_missing_and_unexpected_rows_fail():
    rows = _rows("hormander")
    del rows[2]
    rows.append(dict(rows[0], name="bracket-extra"))
    attempted, failures = gate.check_suite("hormander", rows)
    assert attempted == 4
    assert sorted(failures) == ["hormander/bracket-depth-one: missing",
                                "hormander/bracket-extra: unexpected row"]


def test_changed_value_fails():
    rows = _rows("hormander")
    ref = _reference(rows)
    rows[2]["lhs"] = np.nextafter(rows[2]["lhs"], 1.0)
    _, failures = gate.check_suite("hormander", rows, ref)
    assert failures == [
        "hormander/bracket-depth-one: differs from the reference run"]


def test_raising_suite_fails_all_expected_rows():
    attempted, failures = gate.check_suite("solvers", None)
    assert attempted == len(gate.EXPECTED_ROWS["solvers"]) == len(failures)


def test_ledger_compares_later_passes_with_the_first():
    ledger = gate.Ledger()
    ledger.check_pass({"hormander": _rows("hormander")})
    changed = _rows("hormander")
    changed[0]["rhs"] = 1e-300
    ledger.check_pass({"hormander": changed})
    assert ledger.attempted == 6
    assert ledger.failures == [
        "hormander/bracket-identity: differs from the reference run"]


def test_reference_store_round_trips_rows_exactly(tmp_path):
    rows = _rows("hormander")
    rows[0]["lhs"] = 0.1 + 0.2
    store = gate.ReferenceStore(tmp_path, "k")
    assert store.load() is None
    store.save({"hormander": _reference(rows)})
    ledger = gate.Ledger(store.load())
    ledger.check_pass({"hormander": rows})
    assert ledger.failures == []


def test_self_time_is_exact_on_nested_spans():
    # A [0, 16] holds B [1, 9] and D [10, 15]; B holds C [2, 4] and C [5, 8]
    events = [("enter", "A", 0), ("enter", "B", 1), ("enter", "C", 2),
              ("exit", None, 4), ("enter", "C", 5), ("exit", None, 8),
              ("exit", None, 9), ("enter", "D", 10), ("exit", None, 15),
              ("exit", None, 16)]
    times = iter(t * 0.125 for _, _, t in events)
    tracer = tracing.Tracer(clock=lambda: next(times))
    for kind, name, _ in events:
        tracer.enter(name, span=True) if kind == "enter" else tracer.exit()
    expect = {"A": (16, 16 - 8 - 5), "B": (8, 8 - 2 - 3), "C": (5, 5),
              "D": (5, 5)}
    for name, (total, self_) in expect.items():
        assert tracer.stat(name).total_s == total * 0.125
        assert tracer.stat(name).self_s == self_ * 0.125
    assert tracer.stat("C").calls == 2
    parents = {s["name"]: s["parent"] for s in tracer.spans}
    ids = {s["name"]: s["id"] for s in tracer.spans}
    assert parents["A"] is None and parents["D"] == ids["A"]
    assert parents["C"] == ids["B"]
    assert sum(s["self_s"] for s in tracer.spans) == 16 * 0.125


def test_span_list_is_bounded(monkeypatch):
    monkeypatch.setattr(tracing, "MAX_SPANS", 2)
    tracer = tracing.Tracer()
    for _ in range(5):
        tracer.enter("x", span=True)
        tracer.exit()
    assert len(tracer.spans) == 2 and tracer.dropped_spans == 3
    assert tracer.stat("x").calls == 5


@pytest.fixture(scope="module")
def lgha_modules():
    harness.import_lgha(ROOT)
    import lgha.cli
    import lgha.jets
    import lgha.nilfourier
    import lgha.quadrature
    return lgha


def _bindings(lgha):
    q = lgha.quadrature
    return {
        "cli.monte_carlo": lgha.cli.monte_carlo,
        "nilfourier.monte_carlo": lgha.nilfourier.monte_carlo,
        "quadrature.monte_carlo": q.monte_carlo,
        "Jet.__mul__": vars(lgha.jets.Jet)["__mul__"],
        "Jet.__rmul__": vars(lgha.jets.Jet)["__rmul__"],
        "from_callable": vars(q.SampledField)["from_callable"],
        "groups.nil_mul": lgha.groups.nil_mul,
    }


def test_wrapping_covers_every_binding_and_is_undone(lgha_modules):
    lgha = lgha_modules
    before = _bindings(lgha)
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.instrumented(tracer):
            during = _bindings(lgha)
            assert all(during[k] is not before[k] for k in before)
            assert during["cli.monte_carlo"] is during["quadrature.monte_carlo"]
            assert isinstance(during["from_callable"], classmethod)
            lgha.groups.nil_mul(np.zeros((7, 6)), np.zeros((7, 6)))
            grid = lgha.quadrature.box_grid(("x",), -1.0, 1.0, 8)
            lgha.quadrature.SampledField.from_callable(grid, np.cos)
            raise RuntimeError("leave the block")
    after = _bindings(lgha)
    assert all(after[k] is before[k] for k in before)
    assert tracer.stat("groups.nil_mul").calls == 1
    assert tracer.stat("groups.nil_mul").items == 7
    assert tracer.stat("quadrature.SampledField.from_callable").items == 8


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) \
        == sorted(harness.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} \
        == {"wall_s", "setup_s", "peak_rss_mb"}
    printed = run.per_layer([run.PairedPass(1.0, 1.0, tracing.Tracer(), 1.0,
                                            tracing.Tracer())])
    assert [m["name"] for m in spec["per_layer"]] == list(printed)
    assert all(m["unit"] == printed[m["name"]][1] for m in spec["per_layer"])


def test_comparison_is_the_same_in_either_order():
    def rec(median):
        return {"end_to_end": {"w": {"metrics": {"wall_s": {
            "median": median, "bound": 0.25}}}}}
    for a, b, agree in ((1.0, 1.2, True), (1.0, 1.3, False),
                        (1.0, 0.85, True), (1.0, 0.79, False)):
        assert record.compare(rec(a), rec(b))["w"]["wall_s"]["within_bound"] \
            is agree
        assert record.compare(rec(b), rec(a))["w"]["wall_s"]["within_bound"] \
            is agree
