"""Mutation checks as one kill table.  Each entry of _KILLS seeds one
mistake, in a group law, a chart, a slot table, the Iwasawa factors, the
modulus function, the dimension audit, an invariance flow, a lift, the
corpus, the Monte Carlo weight, the Euclidean and compact transforms and
Wigner matrices, a coordinate map, a pullback, the identity battery, the
operator DSL, a Lie bracket, the bracket depth or a solver step.  The
entry runs one whole suite at one config under the mistake and names the
exact set of rows that fail, so it also pins which rows guard it.  The same
suite at the same config fails no row honestly, and every report row is
failed by some entry or listed in _UNPINNED."""

import types
from typing import NamedTuple

import numpy as np
import pytest

from lgha import cli
from lgha import diffops as D
from lgha import groups as G
from lgha import iwasawa_plancherel as IP
from lgha import nilfourier as nf
from lgha import peterweyl as PW
from lgha import quadrature as Q
from lgha import solvers as SV
from lgha import suites
from lgha.corpus import GaussPoly1D
from lgha.jets import Jet
from lgha.quadrature import MIN_MC_SAMPLES, SampledField, Spectrum

_TOL = {row[0]: row[2] for rows in suites.ROWS.values() for row in rows}

# the suite configs the entries run at; a lower budget is taken only where
# it leaves the inputs of the rows the entries fail as they are
_CONFIGS = {
    "default": {},
    # the lowest budgets that leave the ten lifted-convolution integrals as
    # they are; honest, their two sides differ by rounding alone
    "lifted": {"budget_grid": suites.MIN_GRID_POINTS,
               "budget_mc": suites.LIFTED_MC_SAMPLES,
               "tolerances": {"lifted-convolution": 1e-12}},
    "min-budgets": {"budget_grid": suites.MIN_GRID_POINTS,
                    "budget_mc": MIN_MC_SAMPLES},
    # the default pairing grid, with the fewest Monte Carlo samples
    "min-mc": {"budget_mc": MIN_MC_SAMPLES},
    "mc-4096": {"budget_mc": 1 << 12},
}


class _Kill(NamedTuple):
    owner: object  # a module or class, or a tuple of modules that bind name
    name: str
    make: object  # the honest binding -> the mutant
    suite: str
    rows: set  # exactly the rows that fail
    config: str = "default"
    margin: float = 0.0  # if set, each row reads > margin * its default tol


def _flip_cross_term(slot, i, j):
    """A group-law mutant: the sign of the cross term p[i] q[j] in the
    output slot flipped."""

    def make(law):
        def mutant(p, q):
            p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
            out = law(p, q)
            out[..., slot] -= 2.0 * p[..., i] * q[..., j]
            return out
        return mutant

    return make


def _swap_entries(i, j):
    """A slot-table mutant: entries i and j swapped."""

    def make(table):
        out = list(table)
        out[i], out[j] = out[j], out[i]
        return out

    return make


def _involution(*fwd):
    """A mutant named map: the coordinate map fwd, its own claimed inverse."""
    return lambda honest: lambda: D.CoordMap(fwd, fwd)


def _unsigned_qr(g):
    """iwasawa_decompose without the sign move: k = q, a = diag r and
    n = (diag r)^{-1} r, so that k a n = g still."""
    q, r = np.linalg.qr(np.asarray(g, dtype=float))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    n = np.triu(r / d[..., :, None], 1) + np.eye(4)
    return q, d[..., :, None] * np.eye(4), n


def _at_depth(fixed):
    """A hormander_rank mutant that spans the brackets to a fixed depth,
    whatever depth it is asked for."""
    return lambda honest: lambda fields, points, depth=2: honest(
        fields, points, fixed)


def _transposed_transform(honest):
    """compact_transform with each label's coefficient block transposed."""
    return lambda f, quad: PW.CompactSpectrum(
        {l: c.T for l, c in honest(f, quad).coeffs.items()})


def _wigner_D_at_minus_alpha(honest):
    """wigner_D read at -alpha."""
    return lambda j, a, b, g: honest(j, -np.asarray(a), b, g)


def _flipped_kernel(honest):
    """dft_forward with exp(+i xi x) for exp(-i xi x): the conjugate of the
    honest transform of the conjugate field."""
    return lambda field: Spectrum(field.grid, honest(SampledField(
        field.grid, np.conj(field.values))).values.conj())


def _spn_slot(honest):
    """spn_matrix_block with z + x t in its (2,3) slot."""

    def mutant(p):
        p = np.asarray(p, dtype=float)
        m = honest(p)
        m[..., 1, 2] += 2.0 * p[..., 0] * p[..., 3]
        return m

    return mutant


def _wrong_t3_slot(honest):
    """nil_shift_of_L whose t3 slot adds z1 t1 where z1 t2 belongs."""

    def mutant(lpts, y):
        out = honest(lpts, y)
        z = G.nil_inv(np.asarray(y, dtype=float))
        out[..., 5] = z[..., 2] + lpts[..., 5] + z[..., 0] * lpts[..., 8]
        return out

    return mutant


def _narrowed(honest):
    """GaussPoly1D.parts with exp(-t^2 / sigma^2) for exp(-t^2 / (2
    sigma^2))."""

    def mutant(self, x):
        p, e = honest(self, x)
        return p, 2.0 * e

    return mutant


def _without_sigma_product(honest):
    """monte_carlo whose weight 1 / pdf lacks the factor prod(sigma): its
    estimate and standard error divided by prod(sigma)."""

    def mutant(integrand, mean, sigma, n, seed):
        mc = honest(integrand, mean, sigma, n, seed)
        s = np.prod(np.broadcast_to(sigma, np.shape(mean)))
        return Q.MCResult(mc.estimate / s, mc.stderr / s)

    return mutant


def _never_incompatible(honest):
    """_divide that returns an empty report where it would raise
    IncompatibleRHS; the division is done in place either way."""

    def mutant(vals, grid, op):
        try:
            return honest(vals, grid, op)
        except SV.IncompatibleRHS:
            return {}

    return mutant


# each mutant, with the rows' errors at the default seed
_KILLS = {
    # 0.91, 30 and 8.7
    "transposed-transform": _Kill(
        PW, "compact_transform", _transposed_transform, "so4",
        {"transform-roundtrip", "inversion-pointwise", "convolution-order"}),
    # 0.90
    "hs-norm-without-dimension": _Kill(
        PW.CompactSpectrum, "hs_norm2_weighted",
        lambda honest: lambda self, dim_fn: honest(self, lambda lbl: 1),
        "so4", {"compact-plancherel"}),
    # 2.0
    "wigner-d-at-minus-beta": _Kill(
        PW, "wigner_d",
        lambda honest: lambda j, beta: honest(j, -np.asarray(beta)),
        "so4", {"wigner-reference"}),
    # 3.1
    "wigner-D-at-minus-alpha": _Kill(
        PW, "wigner_D", _wigner_D_at_minus_alpha, "so4", {"convolution-order"}),
    # gamma read as if it ran over 2 pi, not SU(2)'s 4 pi: 0.074 to 17
    "wigner-D-at-half-gamma": _Kill(
        PW, "wigner_D",
        lambda honest: lambda j, a, b, g: honest(j, a, b, np.asarray(g) / 2),
        "so4",
        {"schur-orthogonality", "transform-roundtrip", "inversion-pointwise",
         "compact-plancherel", "center-parity", "convolution-order"}),
    # 21 and 0.89: each label's term without its dimension d
    "inverse-without-dimension": _Kill(
        PW, "compact_inverse",
        lambda honest: lambda spec, el, er: honest(PW.CompactSpectrum(
            {l: c / PW.so4_dim(l) for l, c in spec.coeffs.items()}), el, er),
        "so4", {"inversion-pointwise", "identity-point-inversion"}),
    # a wrong Euclidean kernel, Wigner phase or coefficient layout in the
    # factorized transform, which the oracle's black box does without:
    # 0.86, 2.1 and 1.9
    "flipped-dft-kernel": _Kill(
        Q, "dft_forward", _flipped_kernel, "sl4-plancherel",
        {"kna-spot-check"}, margin=5),
    "wigner-D-at-minus-alpha-on-sl4": _Kill(
        PW, "wigner_D", _wigner_D_at_minus_alpha, "sl4-plancherel",
        {"kna-spot-check"}, margin=5),
    "transposed-transform-on-sl4": _Kill(
        PW, "compact_transform", _transposed_transform, "sl4-plancherel",
        {"kna-spot-check"}, margin=5),
    # lift_upsilon as f(k1 g) or f(g k1^T): 1.6 each, and the restriction,
    # which reads the k1 slot, 0.47 and 1.1
    "upsilon-lift-with-k1-on-the-left": _Kill(
        IP, "lift_upsilon", lambda honest: lambda f: lambda g, k1: f(k1 @ g),
        "sl4-plancherel", {"upsilon-invariance", "upsilon-restriction"}),
    "upsilon-lift-with-k1-transposed": _Kill(
        IP, "lift_upsilon",
        lambda honest: lambda f: lambda g, k1: f(g @ np.swapaxes(k1, -1, -2)),
        "sl4-plancherel", {"upsilon-invariance", "upsilon-restriction"}),
    # f's jet at m(p) read as the jet of f o m: 1.5 to 463
    "pullback-without-chain-rule": _Kill(
        D.CoordMap, "pullback",
        lambda honest: lambda self, fs, points: [
            f.jet_at(Jet.coordinates(self.apply_points(points))) for f in fs],
        "operator-identities",
        {"lewy-conjugation", "lewy-pair-conjugation", "shear-first-order",
         "shear-laplacian", "left-laplacian-transport",
         "right-laplacian-transport", "four-factor-conjugation",
         "single-factor-swap"}),
    # z + xy for z - xy: 5.5 and 19
    "shear-with-plus-xy": _Kill(
        D, "shear_map", _involution(D.Z + D.X * D.Y, D.Y, D.X),
        "operator-identities",
        {"shear-first-order", "shear-laplacian", "coordinate-map-inverses"}),
    # z - xy for z + xy: 4.4 to 12
    "inverse-shear-with-minus-xy": _Kill(
        D, "shear_map_inv", _involution(D.Z - D.X * D.Y, D.Y, D.X),
        "operator-identities",
        {"shear-first-order", "shear-laplacian", "left-laplacian-transport",
         "right-laplacian-transport", "coordinate-map-inverses"}),
    # (z - 2xy, y, x): 5.5 to 470
    "shear-reflection-without-x-flip": _Kill(
        D, "shear_reflect_map", _involution(D.Z - 2.0 * D.X * D.Y, D.Y, D.X),
        "operator-identities",
        {"lewy-conjugation", "lewy-pair-conjugation",
         "four-factor-conjugation", "single-factor-swap",
         "coordinate-map-inverses"}),
    # 17
    "flip-y-shear-without-y-flip": _Kill(
        D, "flip_y_shear_map", _involution(D.Z + D.X * D.Y, D.Y, D.X),
        "operator-identities",
        {"left-laplacian-transport", "coordinate-map-inverses"}),
    # 16
    "flip-x-shear-without-x-flip": _Kill(
        D, "flip_x_shear_map", _involution(D.Z + D.X * D.Y, D.Y, D.X),
        "operator-identities",
        {"right-laplacian-transport", "coordinate-map-inverses"}),
    # every discrepancy 0: the perturbed coefficient goes unseen
    "verify-identity-reads-0": _Kill(
        D, "verify_identity",
        lambda honest: lambda identities, corpus, points: {
            name: 0.0 for name, _, _ in identities},
        "operator-identities", {"mutation-sensitivity"}),
    # every coefficient printed with the wrong sign
    "format-op-sign-slip": _Kill(
        D, "format_op", lambda honest: lambda op: honest(-1.0 * op),
        "operator-identities", {"operator-dsl-roundtrip"}),
    # (g, I, I): k a n = g, but k is no rotation: 20 and 8.2
    "iwasawa-g-I-I": _Kill(
        G, "iwasawa_decompose",
        lambda honest: lambda g: (
            g, *[np.broadcast_to(np.eye(4), g.shape)] * 2),
        "groups", {"iwasawa-sl4", "iwasawa-sp4"}),
    # det k = -1 and a with negative entries: 2.0 each
    "iwasawa-unsigned-qr": _Kill(
        G, "iwasawa_decompose", lambda honest: _unsigned_qr,
        "groups", {"iwasawa-sl4", "iwasawa-sp4", "iwasawa-sp4-factors"}),
    # 9.4 and 2.6
    "iwasawa-k-n-a": _Kill(
        G, "iwasawa_decompose",
        lambda honest: lambda g: tuple(honest(g)[i] for i in (0, 2, 1)),
        "groups", {"iwasawa-sl4", "iwasawa-sp4"}),
    # the cross term p1 q2 of x3: 4.3 to 4.4
    "nil-mul-flipped-x3-term": _Kill(
        G, "nil_mul", _flip_cross_term(2, 0, 1), "groups",
        {"nil-law-vs-matrix", "nil-inverse-formula", "two-sided-inverse"}),
    # the cross terms of nil_mul, one at a time, and the flat shift
    # subtracting y2 from the x3 slot and y3 from x2: 0.15 to 0.45
    **{f"nil-mul-flipped-x{s + 1}-p{i + 1}q{j + 1}-on-lifted": _Kill(
        G, "nil_mul", _flip_cross_term(s, i, j), "nil-plancherel",
        {"lifted-convolution"}, "lifted", margin=5)
       for s, i, j in ((2, 0, 1), (4, 1, 3), (5, 0, 4), (5, 2, 3))},
    "L-X-swapped-x2-x3": _Kill(
        G, "L_X", _swap_entries(1, 2), "nil-plancherel",
        {"lifted-convolution"}, "lifted", margin=5),
    # z1 t1 where z1 t2 belongs: 0.24
    "nil-shift-wrong-t3-slot": _Kill(
        nf, "nil_shift_of_L", _wrong_t3_slot, "nil-plancherel",
        {"lifted-convolution"}, "mc-4096"),
    # 11
    "nil-inv-negated-x6": _Kill(
        G, "nil_inv", lambda honest: lambda p: honest(p) * [1, 1, 1, 1, 1, -1],
        "groups", {"nil-inverse-formula", "two-sided-inverse"}),
    # 4.2
    "heis-mul-flipped-cross-term": _Kill(
        G, "heis_mul", _flip_cross_term(0, 2, 1), "groups",
        {"heis-law-vs-matrix"}),
    # the t1 x5' term of x6: 4.2 to 5.5
    "L-mul-flipped-x6-term": _Kill(
        G, "L_mul", _flip_cross_term(0, 8, 1), "groups",
        {"l-law-vs-matrix", "l-associativity", "two-sided-inverse"}),
    # 4.2
    "L-twisted-swapped-entries": _Kill(
        G, "L_TWISTED", _swap_entries(1, 2), "groups", {"l-law-vs-matrix"}),
    # z + x t where z - x t belongs: 7.4, and 6.0 on sp4
    "spn-matrix-block-slot": _Kill(
        G, "spn_matrix_block", _spn_slot, "groups", {"spn-embedding"}),
    "spn-matrix-block-slot-on-sp4": _Kill(
        G, "spn_matrix_block", _spn_slot, "sp4-plancherel",
        {"sp4-unipotent-chart"}),
    # a1^2 for a1^3: 1.7
    "modulus-with-a1-squared": _Kill(
        G, "modulus_factor",
        lambda honest: lambda t: honest(t) * np.exp(-np.asarray(t)[..., 0]),
        "groups", {"modulus-vs-jacobian"}),
    # the block form, for which the audit reads (4, 2, 3)
    "dimension-audit-on-the-block-form": _Kill(
        G, "sp4_iwasawa_dimension_audit",
        lambda honest: lambda form=None: honest(G.SP_FORM_BLOCK),
        "sp4-plancherel", {"sp4-dimension-audit"}),
    # (v + v2, g g2) for (v + g v2, g g2): 7.2
    "semidirect-mul-without-g-on-v2": _Kill(
        IP, "semidirect_mul",
        lambda honest: lambda v, g, v2, g2: (np.asarray(v) + v2, g @ g2),
        "semidirect-plancherel", {"semidirect-law"}),
    # f(v, g h) for f(g v, g h): 1.3
    "lift-q-without-g-on-v": _Kill(
        IP, "lift_q", lambda honest: lambda f: lambda v, g, h: f(v, g @ h),
        "semidirect-plancherel", {"translation-lift-invariance"}),
    # invariance_shift with its k flow, or every flow, at 0: the lifted
    # function stays invariant, but the unit flows' displacements have
    # rank 2 or 0
    "invariance-flow-k-at-0": _Kill(
        nf, "invariance_shift",
        lambda honest: lambda lpts, h, r, k: honest(lpts, h, r, 0 * k),
        "nil-plancherel", {"lift-invariance"}, "min-budgets"),
    "invariance-flows-all-at-0": _Kill(
        nf, "invariance_shift",
        lambda honest: lambda lpts, h, r, k: honest(lpts, 0 * h, 0 * r, 0 * k),
        "nil-plancherel", {"lift-invariance"}, "min-budgets"),
    # both sides read the narrower corpus Gaussian, but the box rule's
    # nodes, placed for the honest width, alias it: 2.3e-5
    "corpus-gaussian-narrowed": _Kill(
        GaussPoly1D, "parts", _narrowed, "nil-plancherel",
        {"parseval-grid"}, "min-mc", margin=5),
    # suites and nilfourier call monte_carlo by name: 0.93 and 0.41
    "monte-carlo-without-sigma-product": _Kill(
        (Q, nf, suites), "monte_carlo", _without_sigma_product,
        "nil-plancherel", {"plancherel-bump-mc", "parseval-mc"}),
    # W V - V W for V W - W V
    "lie-bracket-reversed": _Kill(
        D, "lie_bracket", lambda honest: lambda v, w: honest(w, v),
        "hormander", {"bracket-identity"}),
    "hormander-rank-at-depth-1": _Kill(
        D, "hormander_rank", _at_depth(1), "hormander", {"bracket-rank"}),
    "hormander-rank-at-depth-2": _Kill(
        D, "hormander_rank", _at_depth(2), "hormander", {"bracket-depth-one"}),
    # 2.0, 6.5, 2.0 and 2.0
    "cauchy-riemann-negated": _Kill(
        (D, SV), "cauchy_riemann", lambda honest: lambda: -1.0 * honest(),
        "solvers", {"cr-roundtrip", "cr-symbol", "lewy-roundtrip-residual",
                    "lewy-generic-residual"}),
    "divide-never-rejects": _Kill(
        SV, "_divide", _never_incompatible, "solvers",
        {"cr-incompatible-rejected"}),
    # spectral_apply multiplies -(i xi)^k in, so the residuals apply -op:
    # 2.0 each; solvers takes math.prod for that factor alone
    "derivative-factor-flipped": _Kill(
        SV, "math",
        lambda honest: types.SimpleNamespace(
            prod=lambda factors: -honest.prod(factors)),
        "solvers", {"lewy-roundtrip-residual", "lewy-generic-residual"},
        margin=1e3),
    # the unwindowed solution's tails are not periodic across the box, and
    # their derivatives leak into the interior: 1.3e-2
    "window-dropped": _Kill(
        SV, "plateau_window", lambda honest: lambda grid: None, "solvers",
        {"lewy-generic-residual"}, margin=5),
    # the x-index reversal undone before the shear: 1.41, 1.35, 0.64, 1.32
    "shear-without-x-reversal": _Kill(
        SV, "_shear",
        lambda honest: lambda vals, grid: honest(vals[..., ::-1].copy(), grid),
        "solvers", {"lewy-roundtrip", "lewy-roundtrip-residual",
                    "lewy-generic-residual", "four-stage-roundtrip"}),
}

# the Plancherel rows no entry fails yet: a mistake that keeps norms, as a
# unitary error in a transform does, leaves each of them passing
_UNPINNED = ("plancherel-separable", "plancherel-bump",
             "kna-plancherel-trivial", "kna-plancherel-halfint",
             "kna-plancherel-full", "sp4-plancherel",
             "sp4-plancherel-trivial", "semidirect-plancherel")


def _failing_rows(suite, config):
    """The rows that fail in one run of the suite at the named config, with
    their relative errors."""
    cfg = cli.SuiteConfig(**_CONFIGS[config])
    return {r["name"]: r["rel_err"] for r in cli.SUITES[suite](cfg)
            if not r["pass"]}


@pytest.mark.parametrize("suite,config", sorted(
    {(kill.suite, kill.config) for kill in _KILLS.values()}))
def test_each_honest_suite_run_fails_no_row(full_report, suite, config):
    # the default config reads the suite's rows of the shared honest run,
    # whose row list test_acceptance checks
    if config == "default":
        names = {row[0] for row in suites.ROWS[suite]}
        failing = {r["name"] for r in full_report["checks"]
                   if r["name"] in names and not r["pass"]}
    else:
        failing = set(_failing_rows(suite, config))
    assert failing == set()


@pytest.mark.parametrize("mutant", sorted(_KILLS))
def test_each_mutant_fails_exactly_its_rows(monkeypatch, mutant):
    kill = _KILLS[mutant]
    owners = kill.owner if isinstance(kill.owner, tuple) else (kill.owner,)
    honest = getattr(owners[0], kill.name)
    made = kill.make(honest)
    for owner in owners:
        assert getattr(owner, kill.name) is honest, owner
        monkeypatch.setattr(owner, kill.name, made)
    failing = _failing_rows(kill.suite, kill.config)
    assert set(failing) == kill.rows
    assert not kill.margin or all(
        err > kill.margin * _TOL[name] for name, err in failing.items())


def test_every_row_is_pinned_or_unpinned():
    pinned = set().union(*(kill.rows for kill in _KILLS.values()))
    assert pinned.isdisjoint(_UNPINNED)
    assert pinned | set(_UNPINNED) == set(suites.CHECK_NAMES)


def test_the_derived_charts_write_the_literal_slots():
    heis = G.heis_embed([[2.0, 3.0, 5.0], [0.5, -1.25, 2.0]])
    assert np.array_equal(heis, [
        [[1, 5, 2, 3], [0, 1, 3, 0], [0, 0, 1, 0], [0, 0, -5, 1]],
        [[1, 2, 0.5, -1.25], [0, 1, -1.25, 0], [0, 0, 1, 0], [0, 0, -2, 1]]])
    # L coordinates (x6, x5, x4, x3, x2, t3, t2, x1, t1)
    twisted = G.L_embed_twisted([[1.0, 2, 3, 4, 5, 6, 7, 8, 9],
                                 [-0.5, 0.25, 1.5, 9, 9, 2.0, -3.0, 9, 4.0]])
    assert np.array_equal(twisted, [
        [[1, 9, 6, 1], [0, 1, 7, 2], [0, 0, 1, 3], [0, 0, 0, 1]],
        [[1, 4, 2, -0.5], [0, 1, -3, 0.25], [0, 0, 1, 1.5], [0, 0, 0, 1]]])
    # (n12, n13, n23, n14); n24 = n13 - n12 n23 and n34 = -n12
    chart = G.sp4_n_chart([[2.0, 3.0, 5.0, 7.0], [0.5, -1.0, 4.0, 0.25]])
    assert np.array_equal(chart, [
        [[1, 2, 3, 7], [0, 1, 5, -7], [0, 0, 1, -2], [0, 0, 0, 1]],
        [[1, 0.5, -1, 0.25], [0, 1, 4, -3], [0, 0, 1, -0.5], [0, 0, 0, 1]]])
    # y = (y1..y6) leaves the x1..x6 slots of L; t3, t2 and t1 stay
    flat = nf.flat_shift_of_L([1.0, 2, 3, 4, 5, 6, 7, 8, 9],
                              [0.5, 1, 2, 4, 8, 16])
    assert np.array_equal(flat, [-15, -6, -1, 2, 4, 6, 7, 7.5, 9])
