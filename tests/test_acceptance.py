"""Acceptance battery: every criterion at its pinned tolerance, one printed
pass/fail line each.

The expensive machinery runs once through the full verification harness
(module-scoped fixture); each criterion inspects the relevant check rows and
re-derives its verdict against the pinned tolerance.  A second full run under
the same seed backs the determinism criterion.
"""

import time

import pytest

from lgha import cli

SEED = 42

_WALL = {}


@pytest.fixture(scope="module")
def full_report():
    cfg = cli.SuiteConfig()
    cfg.seed = SEED
    t0 = time.time()
    report = cli.run_suite("all", cfg)
    _WALL["all"] = time.time() - t0
    return report


def _rows(report, *names):
    by_name = {c["name"]: c for c in report["checks"]}
    return [by_name[n] for n in names]


def _verdict(num, label, ok, detail):
    line = f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_check_names_are_the_report_rows(full_report):
    # the list a config's tolerance keys are validated against
    assert [c["name"] for c in full_report["checks"]] == list(cli.CHECK_NAMES)


def test_criterion_01_group_law_oracles(full_report):
    rows = _rows(full_report, "nil-law-vs-matrix", "l-law-vs-matrix",
                 "heis-law-vs-matrix")
    worst = max(r["abs_err"] for r in rows)
    _verdict(1, "coordinate laws vs 4x4 matrix arithmetic",
             worst <= 1e-12, f"max abs err {worst:.2e} <= 1e-12")


def test_criterion_02_inverse_formula(full_report):
    row = _rows(full_report, "nil-inverse-formula")[0]
    _verdict(2, "explicit inverse-product formula",
             row["abs_err"] <= 1e-12, f"max abs err {row['abs_err']:.2e}")


def test_criterion_03_iwasawa(full_report):
    rows = _rows(full_report, "iwasawa-sl4", "iwasawa-sp4",
                 "iwasawa-sp4-factors")
    worst = max(r["abs_err"] for r in rows)
    _verdict(3, "Iwasawa reconstruction and symplectic factors",
             worst <= 1e-10, f"max err {worst:.2e} <= 1e-10")


def test_criterion_04_modulus(full_report):
    row = _rows(full_report, "modulus-vs-jacobian")[0]
    _verdict(4, "modulus equals conjugation Jacobian",
             row["rel_err"] <= 1e-8, f"rel err {row['rel_err']:.2e}")


def test_criterion_05_plancherel_N(full_report):
    sep, bump = _rows(full_report, "plancherel-separable", "plancherel-bump")
    ok = sep["rel_err"] <= 1e-8 and bump["rel_err"] <= 1e-6
    _verdict(5, "Plancherel identity on the unipotent group", ok,
             f"separable {sep['rel_err']:.2e} <= 1e-8, "
             f"bump {bump['rel_err']:.2e} <= 1e-6")


def test_criterion_06_parseval_pairing(full_report):
    grid, mc = _rows(full_report, "parseval-grid", "parseval-mc")
    ok = grid["rel_err"] <= 1e-6 and mc["pass"]
    _verdict(6, "bilinear pairing identity (grid and Monte Carlo)", ok,
             f"grid rel {grid['rel_err']:.2e} <= 1e-6, MC within 3 sigma")


def test_criterion_07_lifted_convolution(full_report):
    row = _rows(full_report, "lifted-convolution")[0]
    _verdict(7, "twisted vs flat convolution at lifted points",
             row["rel_err"] <= 2e-2, f"max rel {row['rel_err']:.2e} <= 2e-2")


def test_criterion_08_compact_fourier(full_report):
    orth, inv, planch = _rows(full_report, "schur-orthogonality",
                              "inversion-pointwise", "compact-plancherel")
    ok = orth["abs_err"] <= 1e-12 and inv["abs_err"] <= 1e-10 \
        and planch["rel_err"] <= 1e-10
    _verdict(8, "compact-group transform: orthogonality, inversion, "
             "Plancherel", ok,
             f"orth {orth['abs_err']:.2e}, inv {inv['abs_err']:.2e}, "
             f"planch {planch['rel_err']:.2e}")


def test_criterion_09_combined_plancherel(full_report):
    rows = _rows(full_report, "kna-plancherel-trivial",
                 "kna-plancherel-halfint", "kna-plancherel-full",
                 "sp4-plancherel", "semidirect-plancherel")
    worst = max(r["rel_err"] for r in rows)
    spot = _rows(full_report, "kna-spot-check")[0]
    ok = worst <= 1e-6 and spot["abs_err"] <= 1e-6
    _verdict(9, "combined Plancherel identities plus factorization spot "
             "checks", ok,
             f"max rel {worst:.2e} <= 1e-6, spot {spot['abs_err']:.2e}")


def test_criterion_10_lift_invariances(full_report):
    rows = _rows(full_report, "lift-invariance", "upsilon-invariance",
                 "translation-lift-invariance")
    worst = max(r["abs_err"] for r in rows)
    _verdict(10, "lift invariances pointwise", worst <= 1e-10,
             f"max err {worst:.2e} <= 1e-10")


def test_criterion_11_operator_identities(full_report):
    names = ("lewy-conjugation", "lewy-pair-conjugation", "shear-first-order",
             "shear-laplacian", "left-laplacian-transport",
             "right-laplacian-transport", "four-factor-conjugation",
             "single-factor-swap")
    rows = _rows(full_report, *names)
    worst = max(r["abs_err"] for r in rows)
    mutant = _rows(full_report, "mutation-sensitivity")[0]
    ok = worst <= 1e-9 and mutant["pass"] and mutant["abs_err"] > 1e-3
    _verdict(11, "conjugation identities plus mutation sensitivity", ok,
             f"max discrepancy {worst:.2e} <= 1e-9, "
             f"mutant detected at {mutant['abs_err']:.2e} > 1e-3")


def test_criterion_12_bracket_condition(full_report):
    rows = _rows(full_report, "bracket-identity", "bracket-rank")
    ok = all(r["pass"] for r in rows)
    _verdict(12, "bracket relation exact and span rank 3", ok,
             "exact polynomial identity, rank 3 at 100 points")


def test_criterion_13_constructive_solvers(full_report):
    cr, lw, lwres, gen, four = _rows(
        full_report, "cr-roundtrip", "lewy-roundtrip",
        "lewy-roundtrip-residual", "lewy-generic-residual",
        "four-stage-roundtrip")
    ok = cr["abs_err"] <= 1e-6 and lw["abs_err"] <= 1e-4 \
        and gen["abs_err"] <= 1e-3 and four["abs_err"] <= 1e-3
    _verdict(13, "constructive solver round trips and generic residual", ok,
             f"cr {cr['abs_err']:.2e} <= 1e-6, conjugated {lw['abs_err']:.2e}"
             f" <= 1e-4, generic {gen['abs_err']:.2e} <= 1e-3, "
             f"four-stage {four['abs_err']:.2e} <= 1e-3")


def test_criterion_14_determinism_and_wall_time(full_report):
    assert full_report["summary"]["failed"] == 0
    cfg = cli.SuiteConfig()
    cfg.seed = SEED
    second = cli.run_suite("all", cfg)
    same = full_report["checks"] == second["checks"]
    wall = _WALL["all"] + second["summary"]["wall_time_s"]
    ok = same and full_report["summary"]["wall_time_s"] < 600 \
        and second["summary"]["wall_time_s"] < 600
    _verdict(14, "full suite deterministic and under ten minutes", ok,
             f"identical checks: {same}, wall "
             f"{full_report['summary']['wall_time_s']:.0f}s / "
             f"{second['summary']['wall_time_s']:.0f}s")
