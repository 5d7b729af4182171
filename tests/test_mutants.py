"""Mutation checks: each seeded mistake in a group law, a chart, a slot
table, the Iwasawa factors, the modulus function, the dimension audit, an
invariance flow, a lift, the corpus, the Euclidean and compact transforms
and Wigner matrices, a coordinate map, a pullback, the identity battery,
the operator DSL, a Lie bracket, the bracket depth or the Lewy solve's
residual makes the check that guards it fail.  A mistake is patched into the module for one test and
run through only the check that catches it, so the test also pins which
check that is."""

import math
import types

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


def _flip_cross_term(law, slot, i, j):
    """law with the sign of its cross term p[i] q[j] in the output slot
    flipped."""

    def mutant(p, q):
        p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
        out = law(p, q)
        out[..., slot] -= 2.0 * p[..., i] * q[..., j]
        return out

    return mutant


def _failing_rows(suite):
    return {r["name"] for r in cli.SUITES[suite](cli.SuiteConfig())
            if not r["pass"]}


@pytest.fixture(scope="module")
def lifted_calls():
    """The arguments of the ten lifted_convolution_check calls of the
    nil-plancherel suite at its default seed; the coarsest grid budget
    leaves them as they are and skips the 12^6 bump grid."""
    calls = []
    honest = nf.lifted_convolution_check

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return honest(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nf, "lifted_convolution_check", spy)
        cli.SUITES["nil-plancherel"](
            cli.SuiteConfig(budget_grid=suites.MIN_GRID_POINTS))
    assert len(calls) == 10
    return calls


def _lifted_convolution_error(calls):
    """The lifted-convolution row's value: the worst relative error between
    the two sides of its calls."""
    return max(suites._rel(*nf.lifted_convolution_check(*args, **kwargs)
                           .estimate)
               for args, kwargs in calls)


def test_lifted_convolution_passes_on_the_law_of_N(lifted_calls):
    assert _lifted_convolution_error(lifted_calls) <= 1e-12


# the cross terms of nil_mul: (output slot, p index, q index)
@pytest.mark.parametrize("slot,i,j", [(2, 0, 1), (4, 1, 3), (5, 0, 4),
                                      (5, 2, 3)])
def test_lifted_convolution_catches_a_flipped_nil_mul_cross_term(
        monkeypatch, lifted_calls, slot, i, j):
    # it reads 0.15 to 0.45
    monkeypatch.setattr(G, "nil_mul", _flip_cross_term(G.nil_mul, slot, i, j))
    tol = _TOL["lifted-convolution"]
    assert _lifted_convolution_error(lifted_calls) > 5 * tol


def test_a_swapped_L_X_entry_fails_lifted_convolution(monkeypatch,
                                                     lifted_calls):
    # the flat shift subtracts y2 from the x3 slot and y3 from x2: 0.39
    swapped = list(G.L_X)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    monkeypatch.setattr(G, "L_X", swapped)
    tol = _TOL["lifted-convolution"]
    assert _lifted_convolution_error(lifted_calls) > 5 * tol


def _failing_nil_rows():
    """The failing nil-plancherel rows at the coarsest grid and Monte Carlo
    budgets, which leave lift-invariance's inputs as they are."""
    return {r["name"] for r in cli.SUITES["nil-plancherel"](cli.SuiteConfig(
        budget_grid=suites.MIN_GRID_POINTS, budget_mc=MIN_MC_SAMPLES))
        if not r["pass"]}


# invariance_shift with its k flow, or every flow, at 0: the lifted function
# stays invariant, but the unit flows' displacements have rank 2 or 0
@pytest.mark.parametrize("flows", [lambda h, r, k: (h, r, 0 * k),
                                   lambda h, r, k: (0 * h, 0 * r, 0 * k)],
                         ids=["k-at-0", "all-at-0"])
def test_a_stalled_invariance_flow_fails_lift_invariance(monkeypatch, flows):
    assert _failing_nil_rows() == set()
    honest = nf.invariance_shift
    monkeypatch.setattr(nf, "invariance_shift",
                        lambda lpts, *hrk: honest(lpts, *flows(*hrk)))
    assert _failing_nil_rows() == {"lift-invariance"}


@pytest.fixture(scope="module")
def parseval_call():
    """The arguments of the nil-plancherel suite's parseval_N_check call at
    its default seed and grid budget, with the Monte Carlo side at its
    minimum sample count.  The 12^6 bump grid is stubbed out, and the suite
    stops at the captured call."""
    calls = []

    class Captured(Exception):
        pass

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        raise Captured

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nf, "plancherel_N_check",
                   lambda f, box, count: (1.0, 1.0))
        mp.setattr(nf, "parseval_N_check", spy)
        with pytest.raises(Captured):
            cli.SUITES["nil-plancherel"](
                cli.SuiteConfig(budget_mc=MIN_MC_SAMPLES))
    assert len(calls) == 1 and calls[0][0][2] == nf.PAIRING_COUNT
    return calls[0]


def _parseval_grid_error(call):
    """The parseval-grid row's value: the relative error between the grid
    side and the spectral side."""
    args, kwargs = call
    return suites._rel(*nf.parseval_N_check(*args, **kwargs)[:2])


def test_parseval_grid_passes_on_the_honest_corpus(parseval_call):
    # it reads 1.8e-10
    assert _parseval_grid_error(parseval_call) <= _TOL["parseval-grid"]


def test_a_narrowed_corpus_gaussian_fails_parseval_grid(monkeypatch,
                                                        parseval_call):
    # exp(-t^2 / sigma^2) for exp(-t^2 / (2 sigma^2)): both sides read the
    # mutant, but the box rule's nodes, placed for the honest width, alias
    # the narrower envelope: 2.3e-5
    honest = GaussPoly1D.parts

    def mutant(self, x):
        p, e = honest(self, x)
        return p, 2.0 * e

    monkeypatch.setattr(GaussPoly1D, "parts", mutant)
    assert _parseval_grid_error(parseval_call) > 5 * _TOL["parseval-grid"]


def test_the_honest_groups_and_sp4_suites_pass():
    assert _failing_rows("groups") == set()
    assert _failing_rows("sp4-plancherel") == set()


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


# mutants: (owner, attribute, mutant of the honest function, the suite it
# runs, the exact set of that suite's rows it fails), with the rows'
# errors at the default seed
_KILLS = {
    # 0.91, 30 and 8.7
    "transposed-transform": (
        PW, "compact_transform",
        lambda honest: lambda f, quad, J: PW.CompactSpectrum(
            {l: c.T for l, c in honest(f, quad, J).coeffs.items()}),
        "so4",
        {"transform-roundtrip", "inversion-pointwise", "convolution-order"}),
    # 0.90
    "hs-norm-without-dimension": (
        PW.CompactSpectrum, "hs_norm2_weighted",
        lambda honest: lambda self, dim_fn: honest(self, lambda lbl: 1),
        "so4", {"compact-plancherel"}),
    # 2.0
    "wigner-d-at-minus-beta": (
        PW, "wigner_d",
        lambda honest: lambda j, beta: honest(j, -np.asarray(beta)),
        "so4", {"wigner-reference"}),
    # 3.1
    "wigner-D-at-minus-alpha": (
        PW, "wigner_D",
        lambda honest: lambda j, a, b, g: honest(j, -np.asarray(a), b, g),
        "so4", {"convolution-order"}),
    # gamma read as if it ran over 2 pi, not SU(2)'s 4 pi: 0.074 to 17
    "wigner-D-at-half-gamma": (
        PW, "wigner_D",
        lambda honest: lambda j, a, b, g: honest(j, a, b, np.asarray(g) / 2),
        "so4",
        {"schur-orthogonality", "transform-roundtrip", "inversion-pointwise",
         "compact-plancherel", "center-parity", "convolution-order"}),
    # 21 and 0.89: each label's term without its dimension d
    "inverse-without-dimension": (
        PW, "compact_inverse",
        lambda honest: lambda spec, el, er: honest(PW.CompactSpectrum(
            {l: c / PW.so4_dim(l) for l, c in spec.coeffs.items()}), el, er),
        "so4", {"inversion-pointwise", "identity-point-inversion"}),
    # f's jet at m(p) read as the jet of f o m: 1.5 to 463
    "pullback-without-chain-rule": (
        D.CoordMap, "pullback",
        lambda honest: lambda self, fs, points: [
            f.jet_at(Jet.coordinates(self.apply_points(points))) for f in fs],
        "operator-identities",
        {"lewy-conjugation", "lewy-pair-conjugation", "shear-first-order",
         "shear-laplacian", "left-laplacian-transport",
         "right-laplacian-transport", "four-factor-conjugation",
         "single-factor-swap"}),
    # z + xy for z - xy: 5.5 and 19
    "shear-with-plus-xy": (
        D, "shear_map", _involution(D.Z + D.X * D.Y, D.Y, D.X),
        "operator-identities",
        {"shear-first-order", "shear-laplacian", "coordinate-map-inverses"}),
    # z - xy for z + xy: 4.4 to 12
    "inverse-shear-with-minus-xy": (
        D, "shear_map_inv", _involution(D.Z - D.X * D.Y, D.Y, D.X),
        "operator-identities",
        {"shear-first-order", "shear-laplacian", "left-laplacian-transport",
         "right-laplacian-transport", "coordinate-map-inverses"}),
    # (z - 2xy, y, x): 5.5 to 470
    "shear-reflection-without-x-flip": (
        D, "shear_reflect_map", _involution(D.Z - 2.0 * D.X * D.Y, D.Y, D.X),
        "operator-identities",
        {"lewy-conjugation", "lewy-pair-conjugation",
         "four-factor-conjugation", "single-factor-swap",
         "coordinate-map-inverses"}),
    # 17
    "flip-y-shear-without-y-flip": (
        D, "flip_y_shear_map", _involution(D.Z + D.X * D.Y, D.Y, D.X),
        "operator-identities",
        {"left-laplacian-transport", "coordinate-map-inverses"}),
    # 16
    "flip-x-shear-without-x-flip": (
        D, "flip_x_shear_map", _involution(D.Z + D.X * D.Y, D.Y, D.X),
        "operator-identities",
        {"right-laplacian-transport", "coordinate-map-inverses"}),
    # every discrepancy 0: the perturbed coefficient goes unseen
    "verify-identity-reads-0": (
        D, "verify_identity",
        lambda honest: lambda identities, corpus, points: {
            name: 0.0 for name, _, _ in identities},
        "operator-identities", {"mutation-sensitivity"}),
    # every coefficient printed with the wrong sign
    "format-op-sign-slip": (
        D, "format_op", lambda honest: lambda op: honest(-1.0 * op),
        "operator-identities", {"operator-dsl-roundtrip"}),
    # (g, I, I): k a n = g, but k is no rotation: 20 and 8.2
    "iwasawa-g-I-I": (
        G, "iwasawa_decompose",
        lambda honest: lambda g: (
            g, *[np.broadcast_to(np.eye(4), g.shape)] * 2),
        "groups", {"iwasawa-sl4", "iwasawa-sp4"}),
    # det k = -1 and a with negative entries: 2.0 each
    "iwasawa-unsigned-qr": (
        G, "iwasawa_decompose", lambda honest: _unsigned_qr,
        "groups", {"iwasawa-sl4", "iwasawa-sp4", "iwasawa-sp4-factors"}),
    # 9.4 and 2.6
    "iwasawa-k-n-a": (
        G, "iwasawa_decompose",
        lambda honest: lambda g: tuple(honest(g)[i] for i in (0, 2, 1)),
        "groups", {"iwasawa-sl4", "iwasawa-sp4"}),
    # the cross term p1 q2 of x3: 4.3 to 4.4
    "nil-mul-flipped-x3-term": (
        G, "nil_mul", lambda honest: _flip_cross_term(honest, 2, 0, 1),
        "groups",
        {"nil-law-vs-matrix", "nil-inverse-formula", "two-sided-inverse"}),
    # 11
    "nil-inv-negated-x6": (
        G, "nil_inv", lambda honest: lambda p: honest(p) * [1, 1, 1, 1, 1, -1],
        "groups", {"nil-inverse-formula", "two-sided-inverse"}),
    # a1^2 for a1^3: 1.7
    "modulus-with-a1-squared": (
        G, "modulus_factor",
        lambda honest: lambda t: honest(t) * np.exp(-np.asarray(t)[..., 0]),
        "groups", {"modulus-vs-jacobian"}),
    # the block form, for which the audit reads (4, 2, 3)
    "dimension-audit-on-the-block-form": (
        G, "sp4_iwasawa_dimension_audit",
        lambda honest: lambda form=None: honest(G.SP_FORM_BLOCK),
        "sp4-plancherel", {"sp4-dimension-audit"}),
    # (v + v2, g g2) for (v + g v2, g g2): 7.2
    "semidirect-mul-without-g-on-v2": (
        IP, "semidirect_mul",
        lambda honest: lambda v, g, v2, g2: (np.asarray(v) + v2, g @ g2),
        "semidirect-plancherel", {"semidirect-law"}),
    # f(v, g h) for f(g v, g h): 1.3
    "lift-q-without-g-on-v": (
        IP, "lift_q", lambda honest: lambda f: lambda v, g, h: f(v, g @ h),
        "semidirect-plancherel", {"translation-lift-invariance"}),
    # W V - V W for V W - W V
    "lie-bracket-reversed": (
        D, "lie_bracket", lambda honest: lambda v, w: honest(w, v),
        "hormander", {"bracket-identity"}),
    "hormander-rank-at-depth-1": (
        D, "hormander_rank", _at_depth(1), "hormander", {"bracket-rank"}),
    "hormander-rank-at-depth-2": (
        D, "hormander_rank", _at_depth(2), "hormander", {"bracket-depth-one"}),
}


def _mutants_of(*names):
    """Parametrise a test over the _KILLS mutants that run one of the named
    suites."""
    return pytest.mark.parametrize("mutant", sorted(
        m for m, kill in _KILLS.items() if kill[3] in names))


def _fails_exactly_its_rows(monkeypatch, mutant):
    owner, name, make, suite, rows = _KILLS[mutant]
    monkeypatch.setattr(owner, name, make(getattr(owner, name)))
    assert _failing_rows(suite) == rows


@_mutants_of("so4")
def test_each_so4_mutant_fails_exactly_its_rows(monkeypatch, mutant):
    _fails_exactly_its_rows(monkeypatch, mutant)


def test_the_honest_operator_identities_suite_passes():
    assert _failing_rows("operator-identities") == set()


@_mutants_of("operator-identities")
def test_each_operator_mutant_fails_exactly_its_rows(monkeypatch, mutant):
    _fails_exactly_its_rows(monkeypatch, mutant)


@_mutants_of("groups", "sp4-plancherel", "semidirect-plancherel", "hormander")
def test_each_mutant_fails_exactly_its_rows(monkeypatch, mutant):
    _fails_exactly_its_rows(monkeypatch, mutant)


def _flipped_kernel(honest):
    """dft_forward with exp(+i xi x) for exp(-i xi x): the conjugate of the
    honest transform of the conjugate field."""
    return lambda field: Spectrum(field.grid, honest(SampledField(
        field.grid, np.conj(field.values))).values.conj())


def _kna_spot_error():
    return suites._kna_spot_error(np.random.default_rng(42))


def test_the_honest_kna_spot_check_passes():
    # it reads 6.1e-15
    assert _kna_spot_error() <= _TOL["kna-spot-check"]


# a wrong Euclidean kernel, Wigner phase or coefficient layout in the
# factorized transform; the oracle's black box needs none of these
@pytest.mark.parametrize("owner,name,make", [
    (Q, "dft_forward", _flipped_kernel),  # 0.77
    (PW, "wigner_D", _KILLS["wigner-D-at-minus-alpha"][2]),  # 1.6
    (PW, "compact_transform", _KILLS["transposed-transform"][2]),  # 0.85
], ids=["flipped-dft-kernel", "wigner-D-at-minus-alpha",
        "transposed-transform"])
def test_a_wrong_factor_transform_fails_kna_spot_check(monkeypatch, owner,
                                                       name, make):
    monkeypatch.setattr(owner, name, make(getattr(owner, name)))
    assert _kna_spot_error() > 5 * _TOL["kna-spot-check"]


# lift_upsilon as f(k1 g) or f(g k1^T): the restriction reads the k1 slot
@pytest.mark.parametrize("lift", [
    lambda f: lambda g, k1: f(k1 @ g),
    lambda f: lambda g, k1: f(g @ np.swapaxes(k1, -1, -2))],
    ids=["k1-on-the-left", "k1-transposed"])
def test_a_wrong_upsilon_lift_fails_both_upsilon_rows(monkeypatch, lift):
    monkeypatch.setattr(suites, "_kna_spot_error", lambda rng: 0.0)
    assert _failing_rows("sl4-plancherel") == set()
    monkeypatch.setattr(IP, "lift_upsilon", lift)
    assert _failing_rows("sl4-plancherel") == {"upsilon-invariance",
                                               "upsilon-restriction"}


def test_a_wrong_spn_matrix_block_slot_fails_both_charts(monkeypatch):
    honest = G.spn_matrix_block

    def mutant(p):
        # (2,3) holds z + x t where z - x t belongs
        p = np.asarray(p, dtype=float)
        m = honest(p)
        m[..., 1, 2] += 2.0 * p[..., 0] * p[..., 3]
        return m

    monkeypatch.setattr(G, "spn_matrix_block", mutant)
    assert _failing_rows("groups") == {"spn-embedding"}
    assert _failing_rows("sp4-plancherel") == {"sp4-unipotent-chart"}


def test_a_flipped_heis_mul_cross_term_fails_its_row(monkeypatch):
    monkeypatch.setattr(G, "heis_mul", _flip_cross_term(G.heis_mul, 0, 2, 1))
    assert _failing_rows("groups") == {"heis-law-vs-matrix"}


def test_a_flipped_L_mul_cross_term_fails_the_l_rows(monkeypatch):
    # the t1 x5' term of x6
    monkeypatch.setattr(G, "L_mul", _flip_cross_term(G.L_mul, 0, 8, 1))
    assert _failing_rows("groups") == {"l-law-vs-matrix", "l-associativity",
                                       "two-sided-inverse"}


def test_a_swapped_L_TWISTED_entry_fails_the_l_law_row(monkeypatch):
    swapped = list(G.L_TWISTED)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    monkeypatch.setattr(G, "L_TWISTED", swapped)
    assert _failing_rows("groups") == {"l-law-vs-matrix"}


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


def _generic_residual():
    """lewy-generic-residual's value: the residual of one Lewy solve at
    n = 160 for the suite's right-hand side."""
    gg = D.PolyGauss(D.Poly3({(0, 0, 1): 0.7, (0, 1, 0): 0.3j,
                              (1, 1, 0): -0.15, (0, 1, 2): -0.1}), sigma=0.65)
    return SV.lewy_solve(gg, 160)[1]["residual"]


def test_a_flipped_derivative_factor_fails_the_lewy_residual(monkeypatch):
    # spectral_apply multiplies -(i xi)^k in: the residual applies -op and
    # reads 2.0 (lewy-roundtrip-residual too); solvers takes math.prod for
    # that factor alone
    monkeypatch.setattr(SV, "math", types.SimpleNamespace(
        prod=lambda factors: -math.prod(factors)))
    assert _generic_residual() > 1e3 * _TOL["lewy-generic-residual"]


def test_a_dropped_window_fails_the_generic_lewy_residual(monkeypatch):
    # the unwindowed solution's tails are not periodic across the box, and
    # their derivatives leak into the interior: 1.3e-2
    monkeypatch.setattr(SV, "plateau_window", lambda grid: None)
    assert _generic_residual() > 5 * _TOL["lewy-generic-residual"]
