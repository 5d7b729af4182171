"""Row-by-row diff of two JSON reports."""

import json

from lgha import report_diff


def _report(*rows):
    return {"checks": [
        {"name": name, "anchor": "a", "lhs": lhs, "rhs": 0.0, "abs_err": lhs,
         "rel_err": lhs, "tol": 1e-6, "pass": passed}
        for name, lhs, passed in rows]}


def test_report_diff_lists_moved_rows_and_flags_verdicts(tmp_path, capsys):
    def run(old, new):
        paths = []
        for label, rep in (("old", old), ("new", new)):
            path = tmp_path / f"{label}.json"
            path.write_text(json.dumps(rep))
            paths.append(str(path))
        code = report_diff.main(paths)
        return code, capsys.readouterr().out

    base = _report(("a", 1e-9, True), ("b", 2e-9, True))
    code, out = run(base, base)
    assert code == 0 and out.strip().endswith("0 moved; names and verdicts agree")

    code, out = run(base, _report(("a", 1e-9, True), ("b", 3e-9, True)))
    assert code == 0
    assert ("b: d_lhs +1.000e-09 (rel 5.000e-01)  d_rhs 0  "
            "err 2e-09 -> 3e-09  pass") in out
    assert "a:" not in out

    # a rounding-level move reads as such, and a move from a zero lhs has
    # no relative size
    code, out = run(_report(("a", 0.0, True), ("b", 1.6229802060855056e-06,
                                               True)),
                    _report(("a", 1e-310, True), ("b", 1.6229802060704295e-06,
                                                  True)))
    assert code == 0
    assert "b: d_lhs -1.508e-17 (rel 9.289e-12)  d_rhs 0  " in out
    assert "a: d_lhs +1.000e-310 (rel n/a)  d_rhs 0  " in out

    code, out = run(base, _report(("a", 1e-9, True), ("b", 2e-3, False)))
    assert code == 1 and "pass -> FAIL" in out

    code, out = run(base, _report(("a", 1e-9, True), ("c", 2e-9, True)))
    assert code == 1 and "b: only in OLD" in out and "c: only in NEW" in out

    code, _ = run(base, _report(("b", 2e-9, True), ("a", 1e-9, True)))
    assert code == 1  # same rows in another order

    # a NaN field equals NaN in the other report
    nan = _report(("a", float("nan"), False), ("b", 2e-9, True))
    code, out = run(nan, nan)
    assert code == 0 and out.strip().endswith("0 moved; names and verdicts agree")
    code, out = run(nan, _report(("a", float("nan"), False),
                                 ("b", 3e-9, True)))
    assert code == 0 and "a:" not in out and "1 moved" in out

    assert report_diff.main([str(tmp_path / "old.json"),
                             str(tmp_path / "missing.json")]) == 2


def test_report_diff_prints_time_ratios_when_both_reports_are_timed(
        tmp_path, capsys):
    def run(old, new):
        paths = []
        for label, rep in (("old", old), ("new", new)):
            path = tmp_path / f"{label}.json"
            path.write_text(json.dumps(rep))
            paths.append(str(path))
        return report_diff.main(paths), capsys.readouterr().out

    untimed = _report(("a", 1e-9, True))
    timed = dict(untimed, timings={"groups": 2.0, "hormander": 0.0,
                                   "so4": 1.0})
    faster = dict(untimed, timings={"groups": 1.0, "hormander": 0.01})
    code, out = run(timed, faster)
    assert code == 0
    assert out.splitlines() == [
        "1 rows in OLD, 1 in NEW, 0 moved; names and verdicts agree",
        "time NEW/OLD: groups 0.50, hormander n/a"]
    for old, new in ((untimed, faster), (timed, untimed)):
        code, out = run(old, new)
        assert code == 0 and "time" not in out
        assert out.strip().endswith("0 moved; names and verdicts agree")
    code, out = run(timed, dict(_report(("a", 1e-3, False)),
                                timings={"groups": 4.0}))
    assert code == 1 and out.strip().endswith("time NEW/OLD: groups 2.00")
    code, _ = run(timed, dict(untimed, timings=[1.0]))
    assert code == 2
