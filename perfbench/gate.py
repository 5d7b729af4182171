"""Report-level correctness gate of the harness benchmark.

A check row counts as failed when its verdict is false, when any of its
numbers (lhs, rhs, abs_err, rel_err) is non-finite, when its name is not
one of the suite's expected rows (or repeats), or when its content differs
from the reference: the suite's first run for the same source tree and
seed.  An expected row that is absent counts as failed, and a suite that
raises fails all of its expected rows.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

# Row names each suite produced at the commit that introduced the benchmark.
EXPECTED_ROWS = {
    "groups": (
        "nil-law-vs-matrix", "nil-inverse-formula", "l-law-vs-matrix",
        "l-associativity", "two-sided-inverse", "heis-law-vs-matrix",
        "spn-embedding", "iwasawa-sl4", "iwasawa-sp4", "iwasawa-sp4-factors",
        "modulus-vs-jacobian"),
    "nil-plancherel": (
        "plancherel-separable", "plancherel-bump", "plancherel-bump-mc",
        "parseval-grid", "parseval-mc", "lifted-convolution",
        "lift-invariance"),
    "so4": (
        "wigner-reference", "schur-orthogonality", "transform-roundtrip",
        "inversion-pointwise", "identity-point-inversion",
        "compact-plancherel", "center-parity", "convolution-order"),
    "sl4-plancherel": (
        "kna-plancherel-trivial", "kna-plancherel-halfint",
        "kna-plancherel-full", "kna-spot-check", "upsilon-invariance",
        "upsilon-restriction"),
    "sp4-plancherel": (
        "sp4-plancherel", "sp4-plancherel-trivial", "sp4-dimension-audit",
        "sp4-unipotent-chart"),
    "semidirect-plancherel": (
        "semidirect-plancherel", "semidirect-law",
        "translation-lift-invariance"),
    "operator-identities": (
        "lewy-conjugation", "lewy-pair-conjugation", "shear-first-order",
        "shear-laplacian", "left-laplacian-transport",
        "right-laplacian-transport", "four-factor-conjugation",
        "single-factor-swap", "coordinate-map-inverses",
        "mutation-sensitivity", "operator-dsl-roundtrip"),
    "hormander": ("bracket-identity", "bracket-rank", "bracket-depth-one"),
    "solvers": (
        "cr-roundtrip", "cr-symbol", "cr-incompatible-rejected",
        "lewy-roundtrip", "lewy-roundtrip-residual", "lewy-generic-residual",
        "four-stage-roundtrip"),
}

NUMERIC_FIELDS = ("lhs", "rhs", "abs_err", "rel_err")


def canonical(row: dict) -> str:
    """Exact text of a row's content; floats round-trip through repr."""
    return json.dumps({k: row.get(k) for k in
                       ("anchor",) + NUMERIC_FIELDS + ("tol", "pass")},
                      sort_keys=True)


def _non_finite(row: dict) -> bool:
    return any(isinstance(row.get(k), (int, float))
               and not math.isfinite(row[k]) for k in NUMERIC_FIELDS)


def check_suite(suite: str, rows, reference=None):
    """Validate one suite's rows.

    `rows` is None when the suite raised.  `reference` maps row name to
    canonical content.  Returns (attempted, failures) where failures is a
    list of "suite/row: reason" strings.
    """
    expected = EXPECTED_ROWS[suite]
    if rows is None:
        return len(expected), [f"{suite}/{n}: suite raised" for n in expected]
    failures = []
    seen = set()
    for row in rows:
        name = row.get("name")
        reasons = []
        if name not in expected:
            reasons.append("unexpected row")
        elif name in seen:
            reasons.append("duplicate row")
        if row.get("pass") is not True:
            reasons.append("verdict false")
        if _non_finite(row):
            reasons.append("non-finite value")
        if reference is not None and name in reference \
                and canonical(row) != reference[name]:
            reasons.append("differs from the reference run")
        seen.add(name)
        if reasons:
            failures.append(f"{suite}/{name}: {', '.join(reasons)}")
    missing = [n for n in expected if n not in seen]
    failures.extend(f"{suite}/{n}: missing" for n in missing)
    return len(rows) + len(missing), failures


class Ledger:
    """Running count of attempted and failed rows over the passes of a run.

    The reference is the stored first run of this source tree and seed when
    one exists, otherwise each suite's first run in this run.
    """

    def __init__(self, reference=None):
        self.reference = reference if reference is not None else {}
        self.attempted = 0
        self.failures: list[str] = []

    def check_pass(self, results: dict):
        """results: suite -> rows (None if the suite raised).  A suite seen
        for the first time becomes the reference of its later runs."""
        for suite, rows in results.items():
            compare = self.reference.get(suite)
            if compare is None and rows is not None:
                self.reference[suite] = {r.get("name"): canonical(r)
                                         for r in rows}
            attempted, failures = check_suite(suite, rows, compare)
            self.attempted += attempted
            self.failures.extend(failures)

    @property
    def failed(self) -> int:
        return len(self.failures)


class ReferenceStore:
    """First-run rows per (source tree, workload, seed), kept in the checkout."""

    def __init__(self, directory: Path, key: str):
        self.path = Path(directory) / f"{key}.json"

    @staticmethod
    def key(src: Path, *parts) -> str:
        h = hashlib.sha256()
        for f in sorted(Path(src).rglob("*.py")):
            h.update(str(f.relative_to(src)).encode())
            h.update(f.read_bytes())
        h.update(json.dumps(parts, sort_keys=True).encode())
        return h.hexdigest()[:24]

    def load(self):
        try:
            with open(self.path) as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None

    def save(self, reference: dict):
        if self.path.exists():
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            json.dump(reference, fh, sort_keys=True)
        os.replace(tmp, self.path)
