"""Row-by-row comparison of two `lgha --out` JSON reports.

    python -m lgha.report_diff OLD.json NEW.json

prints one line per row whose lhs, rhs, error or verdict differs (a NaN
equals a NaN): the change of lhs (NEW - OLD, and relative to OLD) and of
rhs, the relative error before and after, and the verdict before and
after, followed by a summary line and, when both reports carry per-suite
`timings`, one line of NEW/OLD time ratios for the suites both ran.  Exit
codes: 0 when both reports have the same row names in the same order and
the same verdicts, 1 when they do not, 2 on unreadable input.
"""

from __future__ import annotations

import argparse
import json
import sys

__all__ = ["main"]

_FIELDS = ("lhs", "rhs", "abs_err", "rel_err", "pass")


def _same(old, new) -> bool:
    """old == new, with NaN (the one value unequal to itself) equal to NaN."""
    return old == new or (old != old and new != new)


def _delta(old, new, relative=False) -> str:
    """NEW - OLD, with |NEW - OLD| / max(|OLD|, 1e-300) if relative."""
    if _same(old, new):
        return "0"
    if isinstance(old, (int, float)) and isinstance(new, (int, float)):
        rel = abs(new - old) / max(abs(old), 1e-300)
        return f"{new - old:+.3e}" + (f" (rel {rel:.3e})" if relative else "")
    return f"{old!r} -> {new!r}"


def _verdict(row) -> str:
    return "pass" if row["pass"] else "FAIL"


def _diff_rows(old: dict, new: dict):
    """(lines, same) for two reports: one line per differing row, and
    whether row names, their order and the verdicts all agree."""
    old_rows = {c["name"]: c for c in old["checks"]}
    new_rows = {c["name"]: c for c in new["checks"]}
    same = [c["name"] for c in old["checks"]] == [c["name"] for c in new["checks"]]
    lines = []
    moved = 0
    for name, a in old_rows.items():
        b = new_rows.get(name)
        if b is None:
            lines.append(f"{name}: only in OLD")
            continue
        if all(_same(a[k], b[k]) for k in _FIELDS):
            continue
        moved += 1
        flip = _verdict(a) if a["pass"] == b["pass"] \
            else f"{_verdict(a)} -> {_verdict(b)}"
        same &= a["pass"] == b["pass"]
        lines.append(f"{name}: d_lhs {_delta(a['lhs'], b['lhs'], True)}  "
                     f"d_rhs {_delta(a['rhs'], b['rhs'])}  "
                     f"err {a['rel_err']!r} -> {b['rel_err']!r}  {flip}")
    lines.extend(f"{name}: only in NEW" for name in new_rows
                 if name not in old_rows)
    lines.append(f"{len(old_rows)} rows in OLD, {len(new_rows)} in NEW, "
                 f"{moved} moved; names and verdicts "
                 f"{'agree' if same else 'DIFFER'}")
    return lines, same


def _time_ratios(old: dict, new: dict):
    """One line of NEW/OLD seconds per suite both reports timed, or None
    when either report has no `timings`."""
    if "timings" not in old or "timings" not in new:
        return None
    ratios = []
    for name, t in old["timings"].items():
        t_new = new["timings"].get(name)
        if t_new is not None:
            ratios.append(f"{name} {t_new / t:.2f}" if t > 0
                          else f"{name} n/a")
    return "time NEW/OLD: " + ", ".join(ratios)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m lgha.report_diff",
        description="compare two lgha JSON reports row by row")
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    try:
        reports = []
        for path in (args.old, args.new):
            with open(path) as fh:
                reports.append(json.load(fh))
        lines, same = _diff_rows(*reports)
        ratios = _time_ratios(*reports)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as ex:
        print(f"report_diff: {ex}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    if ratios is not None:
        print(ratios)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
