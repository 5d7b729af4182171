"""The nine verification suites: each turns one family of identities from
harmonic analysis on 4x4 matrix groups into report rows.

`ROWS` declares every row once, suite by suite in report order.
`SUITES[name](cfg)` runs one suite with the random generator
`cfg.rng(name)` and returns its rows; each row holds the two compared
values (or one observed error), absolute and relative errors, the tolerance
and the verdict.  For a fixed config and seed the rows are identical run to
run.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from . import groups as G
from . import nilfourier as NF
from . import peterweyl as PW
from . import iwasawa_plancherel as IP
from . import diffops as D
from . import solvers as SV
from .corpus import random_gauss_product
from .quadrature import (SampledField, box_grid, factor_pairing,
                         monte_carlo, so4_quadrature, u2_quadrature)

# Every row the nine suites emit, by suite in report order: its name, the
# anchor slug naming the identity or plumbing it checks, its default
# tolerance, and FIXED on a row whose verdict no tolerance enters (a Monte
# Carlo agreement, an exact count, a raised exception, a boolean property),
# whose tolerance a config may not set.
FIXED = True
ROWS = {
    "groups": (
        ("nil-law-vs-matrix", "unipotent-group-law", 1e-12),
        ("nil-inverse-formula", "unipotent-inverse", 1e-12),
        ("l-law-vs-matrix", "nine-parameter-group-law", 1e-12),
        ("l-associativity", "group-axioms", 1e-12),
        ("two-sided-inverse", "group-axioms", 1e-12),
        ("heis-law-vs-matrix", "three-parameter-group-law", 1e-12),
        ("spn-embedding", "four-parameter-symplectic", 1e-12),
        ("iwasawa-sl4", "iwasawa-reconstruction", 1e-10),
        ("iwasawa-sp4", "iwasawa-reconstruction", 1e-10),
        ("iwasawa-sp4-factors", "symplectic-factor-preservation", 1e-10),
        ("modulus-vs-jacobian", "conjugation-modulus", 1e-8)),
    "nil-plancherel": (
        ("plancherel-separable", "plancherel-nilpotent", 1e-8),
        ("plancherel-bump", "plancherel-nilpotent", 1e-6),
        ("plancherel-bump-mc", "plancherel-nilpotent", 3.0, FIXED),
        ("parseval-grid", "parseval-pairing", 1e-6),
        ("parseval-mc", "parseval-pairing", 3.0, FIXED),
        ("lifted-convolution", "twisted-vs-flat-convolution", 2e-2),
        ("lift-invariance", "lift-invariance-nilpotent", 1e-10)),
    "so4": (
        ("wigner-reference", "wigner-matrix-plumbing", 1e-12),
        ("schur-orthogonality", "peter-weyl-orthogonality", 1e-12),
        ("transform-roundtrip", "peter-weyl-orthogonality", 1e-12),
        ("inversion-pointwise", "peter-weyl-inversion", 1e-10),
        ("identity-point-inversion", "peter-weyl-inversion", 1e-10),
        ("compact-plancherel", "peter-weyl-plancherel", 1e-10),
        ("center-parity", "double-cover-parity", 1e-12),
        ("convolution-order", "compact-convolution", 1e-9)),
    "sl4-plancherel": (
        ("kna-plancherel-trivial", "combined-plancherel", 1e-6),
        ("kna-plancherel-halfint", "combined-plancherel", 1e-6),
        ("kna-plancherel-full", "combined-plancherel", 1e-6),
        ("kna-spot-check", "combined-transform-factorization", 1e-6),
        ("upsilon-invariance", "compact-shift-invariance", 1e-10),
        ("upsilon-restriction", "lift-restriction", 1e-12)),
    "sp4-plancherel": (
        ("sp4-plancherel", "symplectic-restricted-plancherel", 1e-6),
        ("sp4-plancherel-trivial", "symplectic-restricted-plancherel", 1e-6),
        ("sp4-dimension-audit", "iwasawa-dimension-count", 0.0, FIXED),
        ("sp4-unipotent-chart", "symplectic-unipotent-chart", 1e-12)),
    "semidirect-plancherel": (
        ("semidirect-plancherel", "semidirect-plancherel", 1e-6),
        ("semidirect-law", "semidirect-group-law", 1e-12),
        ("translation-lift-invariance", "semidirect-lift-invariance", 1e-10)),
    "operator-identities": (
        ("lewy-conjugation", "conjugation-identity", 1e-9),
        ("lewy-pair-conjugation", "conjugation-identity", 1e-9),
        ("shear-first-order", "conjugation-identity", 1e-9),
        ("shear-laplacian", "conjugation-identity", 1e-9),
        ("left-laplacian-transport", "conjugation-identity", 1e-9),
        ("right-laplacian-transport", "conjugation-identity", 1e-9),
        ("four-factor-conjugation", "conjugation-identity", 1e-9),
        ("single-factor-swap", "conjugation-identity", 1e-9),
        ("coordinate-map-inverses", "polynomial-involutions", 0.5, FIXED),
        ("mutation-sensitivity", "test-sensitivity", 1e-3, FIXED),
        ("operator-dsl-roundtrip", "operator-dsl", 0.5, FIXED)),
    "hormander": (
        ("bracket-identity", "bracket-relations", 0.5, FIXED),
        ("bracket-rank", "span-condition", 0.5, FIXED),
        ("bracket-depth-one", "span-condition", 0.5, FIXED)),
    "solvers": (
        ("cr-roundtrip", "constant-coefficient-solve", 1e-6),
        ("cr-symbol", "operator-symbol", 1e-12),
        ("cr-incompatible-rejected", "kernel-mode-projection", 0.5, FIXED),
        ("lewy-roundtrip", "conjugated-solve", 1e-4),
        ("lewy-roundtrip-residual", "conjugated-solve", 1e-3),
        ("lewy-generic-residual", "conjugated-solve", 1e-3),
        ("four-stage-roundtrip", "fourth-order-solve", 1e-3)),
}
_ROWS = {row[0]: row for rows in ROWS.values() for row in rows}
# a config's tolerance keys must name a row of CHECK_NAMES and none of
# FIXED_VERDICT_NAMES
CHECK_NAMES = tuple(_ROWS)
FIXED_VERDICT_NAMES = tuple(name for name, row in _ROWS.items() if row[3:])


def _worst(*vals):
    """Largest value, or NaN if any value is NaN (builtin max drops a NaN that
    follows a finite value: max(0.0, nan) == 0.0)."""
    return math.nan if any(math.isnan(v) for v in vals) else max(vals)


def _rel(lhs, rhs) -> float:
    """|lhs - rhs| over the larger of |lhs| and |rhs|, for complex values."""
    lhs, rhs = complex(lhs), complex(rhs)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def _recorder(cfg):
    """A suite's list of rows and the function that appends one.
    row(name, err) records an observed error: lhs, abs_err and rel_err are
    err, rhs is 0 (row(name, not ok) records 1 for a property that fails).
    row(name, lhs, rhs) records two compared values and their relative
    error.  The anchor comes from ROWS; the tolerance is the config's, else
    tol, else the one in ROWS; the verdict is rel_err <= tol unless passed
    is given."""
    checks = []

    def row(name, lhs, rhs=None, tol=None, passed=None):
        tol = float(cfg.tolerances.get(
            name, _ROWS[name][2] if tol is None else tol))
        if rhs is None:
            lhs = abs_err = rel_err = float(lhs)
            rhs = 0.0
        else:
            abs_err = abs(complex(lhs) - complex(rhs))
            rel_err = _rel(lhs, rhs)
            lhs, rhs = float(np.real(lhs)), float(np.real(rhs))
        if passed is None:
            passed = rel_err <= tol
        checks.append({"name": name, "anchor": _ROWS[name][1], "lhs": lhs,
                       "rhs": rhs, "abs_err": abs_err, "rel_err": rel_err,
                       "tol": tol, "pass": bool(passed)})

    return checks, row


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------


def _inverse_product_formula(Y, Xp):
    """Frozen six-component polynomial for nil_mul(nil_inv(Y), Xp); the
    third and fifth components carry the signs forced by the matrix law."""
    x1, x2, x3, x4, x5, x6 = np.moveaxis(Y, -1, 0)
    y1, y2, y3, y4, y5, y6 = np.moveaxis(Xp, -1, 0)
    return np.stack([
        y1 - x1,
        y2 - x2,
        y3 - x3 - x1 * y2 + x1 * x2,
        y4 - x4,
        y5 - x5 - x2 * y4 + x2 * x4,
        y6 - x6 + x1 * x5 - x1 * y5 - x1 * x2 * x4 + x3 * x4 - x3 * y4
        + x1 * x2 * y4,
    ], axis=-1)


def _groups(cfg, rng, row):
    p = rng.uniform(-1.5, 1.5, size=(1000, 6))
    q = rng.uniform(-1.5, 1.5, size=(1000, 6))
    err = np.max(np.abs(G.nil_embed(G.nil_mul(p, q))
                        - G.nil_embed(p) @ G.nil_embed(q)))
    row("nil-law-vs-matrix", err)

    err = np.max(np.abs(G.nil_mul(G.nil_inv(p), q)
                        - _inverse_product_formula(p, q)))
    row("nil-inverse-formula", err)

    X = rng.uniform(-1.5, 1.5, size=(1000, 9))
    Yv = rng.uniform(-1.5, 1.5, size=(1000, 9))
    Z = G.L_mul(X, Yv)
    err = _worst(
        np.max(np.abs(G.L_embed_twisted(Z)
                      - G.L_embed_twisted(X) @ G.L_embed_twisted(Yv))),
        np.max(np.abs(Z[:, [3, 4, 7]] - X[:, [3, 4, 7]] - Yv[:, [3, 4, 7]])),
    )
    row("l-law-vs-matrix", err)

    W = rng.uniform(-1.5, 1.5, size=(1000, 9))
    err = np.max(np.abs(G.L_mul(G.L_mul(X, Yv), W) - G.L_mul(X, G.L_mul(Yv, W))))
    row("l-associativity", err)

    err = np.max(np.abs(G.L_mul(G.L_inv(X), X)))
    err = _worst(err, np.max(np.abs(G.nil_mul(G.nil_inv(p), p))))
    row("two-sided-inverse", err)

    h1 = rng.uniform(-1.5, 1.5, size=(1000, 3))
    h2 = rng.uniform(-1.5, 1.5, size=(1000, 3))
    err = np.max(np.abs(G.heis_embed(G.heis_mul(h1, h2))
                        - G.heis_embed(h1) @ G.heis_embed(h2)))
    row("heis-law-vs-matrix", err)

    sp = rng.uniform(-1.5, 1.5, size=(1000, 4))
    sq = rng.uniform(-1.5, 1.5, size=(1000, 4))
    m1 = G.spn_matrix_block(sp)
    m2 = G.spn_matrix_block(sq)
    werr = _worst(
        G.symplectic_error(m1, G.SP_FORM_BLOCK),
        np.max(np.abs(G.spn_matrix_block(G.spn_mul(sp, sq)) - m1 @ m2)),
    )
    row("spn-embedding", werr)

    g = G.random_sl4(rng.standard_normal((1000, 4, 4)))
    k, a, n = G.iwasawa_decompose(g)
    row("iwasawa-sl4", np.max(np.abs(k @ a @ n - g)))

    g = G.random_sp4(rng.standard_normal((1000, 10)))
    k, a, n = G.iwasawa_decompose(g)
    row("iwasawa-sp4", np.max(np.abs(k @ a @ n - g)))
    row("iwasawa-sp4-factors", G.symplectic_error(np.stack([k, a, n])))

    t = rng.uniform(-1.0, 1.0, size=(100, 3))
    mf = G.modulus_factor(t)
    row("modulus-vs-jacobian",
        np.max(np.abs(mf - _fd_conjugation_jacobian(t)) / np.abs(mf)))


def _fd_conjugation_jacobian(log_a):
    """|det| of the central-difference Jacobian of n -> a n a^{-1} in the
    coordinates of N, for each row of log_a (..., 3)."""
    h = 1e-6
    a = np.exp(np.concatenate([log_a, -np.sum(log_a, axis=-1, keepdims=True)],
                              axis=-1))
    ainv = 1.0 / a

    def conj_coords(x):
        # (..., step, coordinate) for the six steps x (6, 6)
        return G.nil_from_matrix(a[..., None, :, None] * G.nil_embed(x)
                                 * ainv[..., None, None, :])

    step = h * np.eye(6)
    jac = (conj_coords(step) - conj_coords(-step)) / (2.0 * h)
    return np.abs(np.linalg.det(np.swapaxes(jac, -1, -2)))


# ---------------------------------------------------------------------------
# nil-plancherel
# ---------------------------------------------------------------------------

# Monte Carlo samples of each row; cfg.budget_mc is a ceiling on each
BUMP_MC_SAMPLES = 1 << 19
PARSEVAL_MC_SAMPLES = 1 << 20
LIFTED_MC_SAMPLES = 1 << 14  # for each of the ten integrals
MIN_GRID_POINTS = 6 ** 6  # the coarsest degraded grid; a lower budget exits 2


def _grid_count(budget: int, cap: int) -> int:
    """The most nodes per axis, c in [6, cap], with c^6 <= budget, for a
    budget of at least MIN_GRID_POINTS: integer arithmetic, so an exact
    sixth power counts and no budget overflows."""
    return max(c for c in range(6, cap + 1) if c ** 6 <= budget)


BUMP_SIGMA = 0.9
# int |_bump|^2: odd terms vanish; t^2 averages sigma^2/2 on exp(-t^2/sigma^2)
BUMP_NORM2 = (np.pi * BUMP_SIGMA ** 2) ** 3 \
    * (1.0 + (0.3 ** 2 + 0.2 ** 2 + 0.15 ** 2) * (BUMP_SIGMA ** 2 / 2.0) ** 2)


def _bump(*x):
    """The bump at six broadcastable coordinate arrays x1..x6."""
    mix = 1.0 + 0.3 * x[0] * x[3] + 0.2 * x[1] * x[5] - 0.15 * x[2] * x[4]
    r2 = x[0] ** 2 + x[1] ** 2 + x[2] ** 2 + x[3] ** 2 + x[4] ** 2 + x[5] ** 2
    return mix * np.exp(-r2 / (2.0 * BUMP_SIGMA ** 2))


def _nil_plancherel(cfg, rng, row):
    worst = 0.0
    for _ in range(3):
        f = random_gauss_product(rng, 6, poly=True)
        lhs, rhs, _ = factor_pairing(f.factors, f.factors)
        worst = _worst(worst, _rel(lhs, rhs))
    row("plancherel-separable", worst)

    # non-separable bump on a capped grid; degrade to a coarser grid with
    # Monte Carlo confirmation when the point budget is tight
    count = _grid_count(cfg.budget_grid, 12)
    # on the box +-sqrt(pi count / 2) sigma, which balances truncation
    # against aliasing at every count (Trefethen & Weideman 2014)
    lhs, rhs = NF.plancherel_N_check(
        _bump, np.sqrt(np.pi * count / 2.0) * BUMP_SIGMA, count)
    row("plancherel-bump", rhs, BUMP_NORM2, tol=2e-2 if count < 12 else None)
    mc = monte_carlo(lambda x: np.abs(_bump(*x.T)) ** 2, np.zeros(6),
                     np.full(6, BUMP_SIGMA / np.sqrt(2.0)),
                     min(cfg.budget_mc, BUMP_MC_SAMPLES),
                     cfg.check_seed("plancherel-bump-mc"))
    row("plancherel-bump-mc", lhs, mc.estimate.real, passed=mc.agrees(lhs))

    f = random_gauss_product(rng, 6, sigma_range=(0.8, 1.2), mu_scale=0.4,
                             poly=True)
    phi = random_gauss_product(rng, 6, sigma_range=(0.8, 1.2), mu_scale=0.4,
                               poly=True)
    # under a tight grid budget the pairing check degrades to a coarser grid
    # at Monte Carlo tolerance (the MC row below confirms independently)
    pcount = _grid_count(cfg.budget_grid, NF.PAIRING_COUNT)
    lhs, rhs, mc = NF.parseval_N_check(
        f, phi, pcount, n=min(cfg.budget_mc, PARSEVAL_MC_SAMPLES),
        seed=cfg.check_seed("parseval-mc"))
    row("parseval-grid", lhs, rhs,
        tol=2e-2 if pcount < NF.PAIRING_COUNT else None)
    row("parseval-mc", mc.estimate, rhs, passed=mc.agrees(rhs))

    fw = random_gauss_product(rng, 6, sigma_range=(1.1, 1.5), mu_scale=0.3)
    u = random_gauss_product(rng, 6, sigma_range=(0.4, 0.6), mu_scale=0.3)
    worst = 0.0
    for i in range(10):
        ell = 0.7 * rng.normal(size=9)
        ell[4] = 0.0  # the equality holds exactly on this slice of L
        mc = NF.lifted_convolution_check(
            fw, u, ell, n=min(cfg.budget_mc, LIFTED_MC_SAMPLES),
            seed=cfg.check_seed(f"lifted-{i}"))
        worst = _worst(worst, _rel(*mc.estimate))
    row("lifted-convolution", worst)

    F = NF.lift_to_L(fw.values)
    lpts = rng.normal(size=(1000, 9))
    hrk = rng.normal(size=(1000, 3))
    shifted = NF.invariance_shift(lpts, *hrk.T)
    err = np.max(np.abs(F(shifted) - F(lpts)))
    # the flows are affine in (h, r, k): the unit flows' displacements span
    # the family, which must move every point along three directions
    moves = np.stack([NF.invariance_shift(lpts, *e) - lpts
                      for e in np.eye(3)], axis=-1)
    rank = np.linalg.matrix_rank(moves)
    row("lift-invariance", _worst(err, float(np.any(rank != 3))))


# ---------------------------------------------------------------------------
# so4
# ---------------------------------------------------------------------------


def _so4(cfg, rng, row):
    J = min(2.0, cfg.budget_bandlimit)
    quad = so4_quadrature(J)

    worst = 0.0
    for j in (0.5, 1.0, 1.5, 2.0, 3.0):
        for beta in rng.uniform(0, np.pi, size=4):
            worst = _worst(worst, np.max(np.abs(
                PW.wigner_d(j, beta) - PW.wigner_d_reference(j, beta))))
    row("wigner-reference", worst)

    ones = np.ones((quad.left.node_count, quad.right.node_count))
    spec = PW.compact_transform(ones, quad, J)
    err = abs(spec.coeffs[(0.0, 0.0)][0, 0] - 1.0)
    for lbl, c in spec.coeffs.items():
        if lbl != (0.0, 0.0):
            err = _worst(err, float(np.max(np.abs(c))))
    row("schur-orthogonality", err)

    ref, vals = PW.random_band_limited(rng, J, quad)
    back = PW.compact_transform(vals, quad, J)
    err = _worst(*(np.max(np.abs(back.coeffs[l] - ref.coeffs[l]))
                   for l in ref.coeffs))
    row("transform-roundtrip", err)

    # 20 draws of (left, right) Euler triples, in the order of scalar draws
    el, er = np.moveaxis(rng.uniform(0.0, [2 * np.pi, np.pi, 4 * np.pi],
                                     size=(20, 2, 3)), 1, 0)
    direct = sum(PW.so4_dim(l) * np.trace(ref.coeffs[l] @ PW.so4_rep(l, el, er),
                                          axis1=-2, axis2=-1)
                 for l in ref.coeffs)
    row("inversion-pointwise",
        _worst(*np.abs(PW.compact_inverse(back, el, er) - direct)))

    ident = ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    lhs = PW.compact_inverse(back, *ident)
    rhs = sum(PW.so4_dim(l) * np.trace(back.coeffs[l]) for l in back.coeffs)
    row("identity-point-inversion", lhs.real, rhs.real)

    row("compact-plancherel", *PW.compact_plancherel_check(vals, quad, J)[:2])

    # center: the lift through (-1, -1) agrees with the identity lift for
    # every admissible label
    el_neg = (0.0, 0.0, 2.0 * np.pi)
    err = 0.0
    for lbl in PW.so4_labels(J):
        d = PW.so4_dim(lbl)
        err = _worst(err, np.max(np.abs(PW.so4_rep(lbl, el_neg, el_neg)
                                        - np.eye(d))))
    row("center-parity", err)

    # convolution theorem T(g * f) = Tg . Tf at band limit 1, synthesized on
    # the nodes and checked against the convolution integral by quadrature
    cquad = so4_quadrature(1.0)
    _, fvals = PW.random_band_limited(rng, 1.0, cquad)
    gspec, gvals = PW.random_band_limited(rng, 1.0, cquad)
    tf = PW.compact_transform(fvals, cquad, 1.0).coeffs
    tg = PW.compact_transform(gvals, cquad, 1.0).coeffs
    conv = PW.synthesize(PW.CompactSpectrum({l: tg[l] @ tf[l] for l in tg}),
                         cquad)
    row("convolution-order",
        PW.convolution_order_error(gspec, fvals, conv, cquad))


# ---------------------------------------------------------------------------
# sl4 / sp4 / semidirect plancherel
# ---------------------------------------------------------------------------


def _sl4(cfg, rng, row):
    J = min(2.0, cfg.budget_bandlimit)
    quad = so4_quadrature(J)

    trivial = PW.CompactSpectrum({(0.0, 0.0): np.array([[1.0 + 0.5j]])})
    f = IP.SeparableKNAFunction(trivial, random_gauss_product(rng, 6),
                                random_gauss_product(rng, 3))
    row("kna-plancherel-trivial", *IP.plancherel_sl4_check(f, quad, J)[:2])

    half = PW.CompactSpectrum({(0.5, 0.5): (rng.normal(size=(4, 4))
                                            + 1j * rng.normal(size=(4, 4))) / 4})
    f = IP.SeparableKNAFunction(half, random_gauss_product(rng, 6),
                                random_gauss_product(rng, 3))
    row("kna-plancherel-halfint", *IP.plancherel_sl4_check(f, quad, J)[:2])

    f = IP.SeparableKNAFunction(PW.random_spectrum(rng, J, quad),
                                random_gauss_product(rng, 6),
                                random_gauss_product(rng, 3))
    row("kna-plancherel-full", *IP.plancherel_sl4_check(f, quad, J)[:2])

    row("kna-spot-check", _kna_spot_error(rng))

    fm = _matrix_test_function(rng)
    z = rng.standard_normal((1000, 3, 4, 4))  # (g, h, k1) per draw
    h, k1 = G.random_so4(z[:, 1:]).swapaxes(0, 1)
    row("upsilon-invariance", np.max(IP.upsilon_invariance_error(
        fm, G.random_sl4(z[:, 0]), h, k1)))

    # U(g k1^T, k1) = f(g): a side that reads the lift's k1 slot
    lifted = IP.lift_upsilon(fm)
    g = G.random_sl4(rng.standard_normal((4, 4)))
    k1 = G.random_so4(rng.standard_normal((4, 4)))
    row("upsilon-restriction", abs(lifted(g @ k1.T, k1) - fm(g)))


def _matrix_test_function(rng):
    m = rng.normal(size=(4, 4))

    def fm(g):
        return np.exp(1j * np.trace(m @ g, axis1=-2, axis2=-1)) \
            * np.exp(-0.05 * np.sum(g * g, axis=(-2, -1)))

    return fm


def _kna_spot_error(rng):
    quad = so4_quadrature(0.5)
    label = (0.5, 0.5)
    coeffs = {label: (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) / 4}
    v = random_gauss_product(rng, 6)
    w = random_gauss_product(rng, 3)
    count = 3
    spec = IP.plancherel_sl4_check(
        IP.SeparableKNAFunction(PW.CompactSpectrum(coeffs), v, w), quad, 0.5,
        count=count)[2]

    def blackbox(npts, tpts):
        euclid = np.outer(v.values(npts), w.values(tpts))  # formed once

        def at(el, er):
            # D^{1/2} is the defining representation of SU(2), so the
            # compact factor 4 tr[C (U_l (x) U_r)] needs none of the Wigner
            # code that the factorized path runs on
            rep = np.einsum("pab,pcd->pacbd", PW.su2_from_euler(el),
                            PW.su2_from_euler(er)).reshape(-1, 4, 4)
            uval = 4.0 * np.einsum("ij,pji->p", coeffs[label], rep)
            return uval[:, None, None] * euclid
        return at

    idx = [(rng.integers(0, count, size=6), rng.integers(0, count, size=3))
           for _ in range(5)]
    n_idx, a_idx = (np.array(i) for i in zip(*idx))
    oracle = IP.nested_transform_oracle(blackbox, quad, label, spec.n_spectra,
                                        spec.a_spectra, n_idx, a_idx)
    worst = 0.0
    for o, n, a in zip(oracle, n_idx, a_idx):
        fact = spec.value(label, n, a)
        scale = max(np.max(np.abs(o)), 1e-300)
        worst = _worst(worst, float(np.max(np.abs(o - fact)) / scale))
    return worst


def _sp4(cfg, rng, row):
    M = 1
    quad = u2_quadrature(M)

    f = IP.SeparableKNAFunction(PW.random_spectrum(rng, M, quad),
                                random_gauss_product(rng, 4),
                                random_gauss_product(rng, 2))
    row("sp4-plancherel", *IP.plancherel_sl4_check(f, quad, M)[:2])

    trivial = PW.CompactSpectrum({(0, 0): np.array([[1.0 + 0.0j]])})
    f = IP.SeparableKNAFunction(trivial, random_gauss_product(rng, 4),
                                random_gauss_product(rng, 2))
    row("sp4-plancherel-trivial", *IP.plancherel_sl4_check(f, quad, M)[:2])

    dims = G.sp4_iwasawa_dimension_audit()
    row("sp4-dimension-audit", int(sum(dims)), 10,
        passed=tuple(int(d) for d in dims) == (4, 2, 4))

    pts = rng.normal(size=(50, 4))
    mats = G.sp4_n_chart(pts)
    prod = mats[0] @ mats[1]
    err = _worst(G.symplectic_error(mats), G.symplectic_error(prod),
                 float(np.max(np.abs(np.tril(prod, -1)))),
                 float(np.max(np.abs(np.diag(prod) - 1.0))))
    row("sp4-unipotent-chart", err)


def _semidirect(cfg, rng, row):
    J = 1.0
    quad = so4_quadrature(J)

    f = IP.SeparableKNAFunction(PW.random_spectrum(rng, J, quad),
                                random_gauss_product(rng, 6),
                                random_gauss_product(rng, 3),
                                r=random_gauss_product(rng, 4))
    row("semidirect-plancherel", *IP.plancherel_sl4_check(f, quad, J)[:2])

    z = rng.standard_normal((1000, 40))  # (v, v2, g1, g2) per draw
    v, v2 = z[:, :4], z[:, 4:8]
    g1, g2 = G.random_sl4(z[:, 8:].reshape(1000, 2, 4, 4)).swapaxes(0, 1)
    vv, gg = IP.semidirect_mul(v, g1, v2, g2)
    row("semidirect-law", np.max(np.abs(
        IP.affine_embed(vv, gg)
        - IP.affine_embed(v, g1) @ IP.affine_embed(v2, g2))))

    def fp(v, g):
        return np.exp(1j * np.sum(v, axis=-1)) \
            * np.exp(1j * np.trace(g, axis1=-2, axis2=-1)) \
            * np.exp(-0.05 * np.sum(g * g, axis=(-2, -1)))

    z = rng.standard_normal((1000, 52))  # (v, g, h, q) per draw
    g, h, q = G.random_sl4(z[:, 4:].reshape(1000, 3, 4, 4)).swapaxes(0, 1)
    row("translation-lift-invariance",
        np.max(IP.q_lift_invariance_error(fp, z[:, :4], g, h, q)))


# ---------------------------------------------------------------------------
# operator identities / hormander / solvers
# ---------------------------------------------------------------------------


def _operator_identities(cfg, rng, row):
    corpus = D.standard_corpus(rng)
    pts = rng.uniform(-1.2, 1.2, size=(100, 3))
    hb, g, gi = D.shear_reflect_map(), D.shear_map(), D.shear_map_inv()
    tau, pim = D.flip_y_shear_map(), D.flip_x_shear_map()
    # sensitivity: a perturbed coefficient must be detected loudly
    wrong = D.lewy_conjugate_true() + D.PolyDiffOp(
        {(1, 0, 0): D.Poly3({(0, 1, 0): -0.1})})  # 2y dz -> 2.1y dz
    # each side is (op, outer, inner): op on f o inner at outer(pts)
    errs = D.verify_identity((
        ("lewy-conjugation", (D.cauchy_riemann(), hb, hb),
         (D.lewy().coeff_reflect(sx=-1),)),
        ("lewy-pair-conjugation", (D.laplacian_2d(), hb, hb),
         (D.lewy().coeff_reflect(sx=-1)
          @ D.lewy_star().coeff_reflect(sx=-1),)),
        ("shear-first-order", (D.cauchy_riemann_star(), g, gi),
         (D.first_order_invariant(),)),
        ("shear-laplacian", (D.laplacian_3d(), g, gi),
         (D.sheared_laplacian(),)),
        ("left-laplacian-transport", (D.laplacian_3d(), tau, gi),
         (D.heis_laplacian_left().coeff_reflect(1, -1, 1),
          D.reflection(1, -1, 1))),
        ("right-laplacian-transport", (D.laplacian_3d(), pim, gi),
         (D.heis_laplacian_right().coeff_reflect(1, 1, -1),
          D.reflection(1, 1, -1))),
        ("four-factor-conjugation", (SV.four_stage_chain(), hb, hb),
         (SV.four_stage_operator(),)),
        ("single-factor-swap", (D.cr_pair_R(), hb, hb),
         (D.hormander_P_bar().coeff_reflect(sx=-1),)),
        ("mutation-sensitivity", (D.cauchy_riemann(), hb, hb), (wrong,))),
        corpus, pts)
    err = errs.pop("mutation-sensitivity")
    for name, e in errs.items():
        row(name, e)

    row("coordinate-map-inverses", not all(
        m.check_inverse() for m in (hb, g, gi, tau, pim)))
    row("mutation-sensitivity", err,
        passed=err > _ROWS["mutation-sensitivity"][2])

    s = "(-1)*dx + (-i)*dy + (-2)*y*dz + (2*i)*x*dz"
    ok = D.parse_op(s) == D.lewy() and \
        D.parse_op(D.format_op(D.hormander_Q4())) == D.hormander_Q4()
    row("operator-dsl-roundtrip", not ok)


def _hormander(cfg, rng, row):
    X, Y, Z = D.vf_x(), D.vf_y(), D.vf_z()
    br = D.lie_bracket(X, Y)
    ok = br == D.PolyDiffOp.partial(0, 2.0)
    zero = D.PolyDiffOp()
    ok = ok and D.lie_bracket(Z, X) == zero and D.lie_bracket(Z, Y) == zero
    row("bracket-identity", not ok)

    ranks = D.hormander_rank([X, Y], rng.normal(size=(100, 3)), depth=2)
    row("bracket-rank", np.any(ranks != 3))
    ranks = D.hormander_rank([X, Y], rng.normal(size=(10, 3)), depth=1)
    row("bracket-depth-one", np.any(ranks != 2))


def _roundtrip(solve, w, op, n):
    """Solve for the manufactured solution w o S on an n^3 grid, S the
    shear-reflection, from the right-hand side (op w) o S, with a solve
    that returns (field, info).  Returns the solution's relative error on
    the interior window and info's "residual" (None where the solve reports
    none); the n^3 fields are freed when this returns."""
    qw = w.apply_diffop(op)

    def rhs(z, y, x):
        return qw(*SV.shear_reflect_points(z, y, x))

    f, info = solve(rhs, n)
    box = SV.interior_mask(f.grid)
    href = w(*SV.shear_reflect_points(*f.grid.coords(index=box)))
    return SV.interior_rel_error(f.values[box], href), info.get("residual")


def _solvers(cfg, rng, row):
    # constant-coefficient roundtrip on a 2-D box
    grid2 = box_grid(("y", "x"), -6, 6, 64)
    ym, xm = grid2.coords()
    e = np.exp(-(xm ** 2 + ym ** 2) / 2.0)
    h = (xm + 1j * ym) * e
    gv = ((1 - xm * (xm + 1j * ym)) - 1j * (1j - ym * (xm + 1j * ym))) * e
    sol, info = SV.cr_solve(SampledField(grid2, gv), D.cauchy_riemann())
    err = float(np.max(np.abs(sol.values - h)) / np.max(np.abs(h)))
    row("cr-roundtrip", err)

    xi = rng.normal(size=(20, 2))
    sym = D.cauchy_riemann().symbol(np.zeros(20), xi[:, 1], xi[:, 0])
    err = float(np.max(np.abs(sym - (1j * xi[:, 0] + xi[:, 1]))))
    row("cr-symbol", err)

    try:
        SV.cr_solve(SampledField(grid2, e), D.cauchy_riemann())
        raised = False
    except SV.IncompatibleRHS:
        raised = True
    row("cr-incompatible-rejected", not raised)

    # conjugated solve, manufactured solution
    w = D.PolyGauss(D.Poly3({(0, 0, 1): 1.0, (0, 1, 0): 1.0j}), sigma=0.6)
    err, residual = _roundtrip(SV.lewy_solve, w, D.cauchy_riemann(), 160)
    row("lewy-roundtrip", err)
    row("lewy-roundtrip-residual", residual)

    gg = D.PolyGauss(D.Poly3({(0, 0, 1): 0.7, (0, 1, 0): 0.3j,
                              (1, 1, 0): -0.15, (0, 1, 2): -0.1}), sigma=0.65)
    row("lewy-generic-residual", SV.lewy_solve(gg, 160)[1]["residual"])

    w2 = D.PolyGauss(D.Poly3({(0, 0, 2): 1.0, (0, 2, 0): -1.0,
                              (0, 1, 1): 2.0j}), sigma=0.6)
    err, _ = _roundtrip(SV.four_stage_solve, w2, SV.four_stage_chain(), 144)
    row("four-stage-roundtrip", err)


def _run(name, body, cfg):
    """The rows body(cfg, cfg.rng(name), row) records, after cfg.validate()
    (a config built in code is checked like one read from a file)."""
    cfg.validate()
    checks, row = _recorder(cfg)
    body(cfg, cfg.rng(name), row)
    return checks


SUITES = {name: partial(_run, name, body) for name, body in (
    ("groups", _groups),
    ("nil-plancherel", _nil_plancherel),
    ("so4", _so4),
    ("sl4-plancherel", _sl4),
    ("sp4-plancherel", _sp4),
    ("semidirect-plancherel", _semidirect),
    ("operator-identities", _operator_identities),
    ("hormander", _hormander),
    ("solvers", _solvers),
)}
