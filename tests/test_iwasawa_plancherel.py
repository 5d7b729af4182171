"""Combined transforms, Plancherel identities, lifts, semidirect product."""

import numpy as np
import pytest

from lgha import cli
from lgha import groups as G
from lgha import iwasawa_plancherel as ip
from lgha import peterweyl as pw
from lgha.corpus import random_gauss_product
from lgha.quadrature import factor_pairing, so4_quadrature, u2_quadrature

rng = np.random.default_rng(505)


def _rel(res):
    """Relative error of a Plancherel check's two sides, res[:2]."""
    lhs, rhs = res[:2]
    return abs(lhs - rhs) / abs(lhs)


def test_plancherel_trivial_label():
    quad = so4_quadrature(1.0)
    f = ip.SeparableKNAFunction(
        pw.CompactSpectrum({(0.0, 0.0): np.array([[2.0 - 1.0j]])}),
        random_gauss_product(rng, 6), random_gauss_product(rng, 3))
    res = ip.plancherel_sl4_check(f, quad, 1.0)
    assert _rel(res) < 1e-6
    # trivial-label input: closed-form group-side value
    expect = abs(2.0 - 1.0j) ** 2 * f.v.norm2() * f.w.norm2()
    assert res[0] == pytest.approx(expect, rel=1e-8)


def test_plancherel_full_band():
    quad = so4_quadrature(2.0)
    f = ip.SeparableKNAFunction(pw.random_spectrum(rng, 2.0, quad),
                                random_gauss_product(rng, 6),
                                random_gauss_product(rng, 3))
    res = ip.plancherel_sl4_check(f, quad, 2.0)
    assert _rel(res) < 1e-6


def test_zero_function():
    quad = so4_quadrature(0.5)
    f = ip.SeparableKNAFunction(
        pw.CompactSpectrum({(0.0, 0.0): np.array([[0.0 + 0.0j]])}),
        random_gauss_product(rng, 6), random_gauss_product(rng, 3))
    lhs, rhs, _ = ip.plancherel_sl4_check(f, quad, 0.5)
    assert lhs == 0.0 and rhs == 0.0


def test_transform_linearity_in_f():
    quad = so4_quadrature(0.5)
    v = random_gauss_product(rng, 6)
    w = random_gauss_product(rng, 3)
    t1 = ip.plancherel_sl4_check(ip.SeparableKNAFunction(
        pw.CompactSpectrum({(0.5, 0.5): np.eye(4, dtype=complex)}), v, w),
        quad, 0.5)[2]
    t2 = ip.plancherel_sl4_check(ip.SeparableKNAFunction(
        pw.CompactSpectrum({(0.5, 0.5): 3.0 * np.eye(4, dtype=complex)}), v, w),
        quad, 0.5)[2]
    assert np.max(np.abs(t2.k_part.coeffs[(0.5, 0.5)]
                         - 3.0 * t1.k_part.coeffs[(0.5, 0.5)])) < 1e-12


def _spot_case(quad, J, label, count, n_dim=6, a_dim=3):
    """A separable K/N/A function with one compact label, as an opaque
    function of node stacks for the nested oracle, and its factorized
    transform on count-point grids."""
    d = pw.so4_dim(label)
    coeffs = pw.CompactSpectrum(
        {label: (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / d})
    v = random_gauss_product(rng, n_dim)
    w = random_gauss_product(rng, a_dim)
    # the factors of plancherel_sl4_check's spectrum, for any number of axes
    spec = ip.KNASpectrum(
        pw.compact_transform(pw.synthesize(coeffs, quad), quad, J),
        factor_pairing(v.factors, v.factors, count)[2],
        factor_pairing(w.factors, w.factors, count)[2])

    def blackbox(npts, tpts):
        euclid = np.outer(v.values(npts), w.values(tpts))

        def at(el, er):
            c = coeffs.coeffs[label]
            uval = d * np.einsum("ij,pji->p", c, pw.so4_rep(label, el, er))
            return uval[:, None, None] * euclid
        return at

    return blackbox, spec


def test_spot_check_against_nested_quadrature():
    quad = so4_quadrature(0.5)
    label = (0.5, 0.5)
    count = 3
    blackbox, spec = _spot_case(quad, 0.5, label, count)
    n_idx = tuple(rng.integers(0, count, size=6))
    a_idx = tuple(rng.integers(0, count, size=3))
    oracle = ip.nested_transform_oracle(blackbox, quad, label, spec.n_spectra,
                                        spec.a_spectra, [n_idx], [a_idx])
    assert oracle.shape == (1, 4, 4)
    fact = spec.value(label, n_idx, a_idx)
    scale = max(np.max(np.abs(oracle[0])), 1e-300)
    assert np.max(np.abs(oracle[0] - fact)) / scale < 1e-6


def test_nested_oracle_fails_at_wrong_label_or_frequency():
    quad = so4_quadrature(1.0)
    label, other = (1.0, 0.0), (0.0, 1.0)  # same dimension
    # band limit 1 has 144^2 node pairs: few Euclidean axes keep it quick
    blackbox, spec = _spot_case(quad, 1.0, label, 6, n_dim=2, a_dim=1)
    n_idx, a_idx = (1, 2), (1,)
    fact = spec.value(label, n_idx, a_idx)

    def rel_err(lbl, n, a):
        oracle = ip.nested_transform_oracle(blackbox, quad, lbl,
                                            spec.n_spectra, spec.a_spectra,
                                            n, a)
        return np.max(np.abs(oracle - fact), axis=(1, 2)) \
            / np.max(np.abs(fact))

    # the right point, then a wrong unipotent and a wrong diagonal frequency
    errs = rel_err(label, [n_idx, (2, 2), n_idx], [a_idx, a_idx, (2,)])
    assert errs[0] < 1e-6 and errs[1] > 1e-6 and errs[2] > 1e-6
    assert rel_err(other, [n_idx], [a_idx])[0] > 1e-6


def _four_point_case():
    """Oracle arguments at four random points, 3^5 grid values a pair."""
    quad = so4_quadrature(0.5)
    label, count = (0.5, 0.5), 3
    blackbox, spec = _spot_case(quad, 0.5, label, count, n_dim=3, a_dim=2)
    gen = np.random.default_rng(5053)
    n_idx = gen.integers(0, count, size=(4, 3))
    a_idx = gen.integers(0, count, size=(4, 2))
    return blackbox, quad, label, spec.n_spectra, spec.a_spectra, n_idx, a_idx


def test_many_point_oracle_equals_one_point_calls():
    *common, n_idx, a_idx = _four_point_case()
    many = ip.nested_transform_oracle(*common, n_idx, a_idx)
    assert many.shape == (4, 4, 4)
    for o, n, a in zip(many, n_idx, a_idx):
        one = ip.nested_transform_oracle(*common, [n], [a])
        assert np.array_equal(o, one[0])


def test_pair_blocks_leave_the_oracle_output_as_it_is(monkeypatch):
    # blocks of two pairs against the default blocks of about 2^17 values
    args = _four_point_case()
    default = ip.nested_transform_oracle(*args)
    monkeypatch.setattr(ip, "_ORACLE_ENTRIES", 2 * 3 ** 5)
    assert np.array_equal(ip.nested_transform_oracle(*args), default)


def test_spot_check_row_calls_the_black_box_once_per_block(monkeypatch):
    # 48^2 node pairs of 3^9 grid values each, split into 346 equal blocks
    # of 6 or 7 pairs: one oracle pass serves all five spot frequencies
    original = ip.nested_transform_oracle
    calls = {"oracle": 0, "blackbox": 0}
    most = -(-ip._ORACLE_ENTRIES // 3 ** 9)

    def counting(fn, *args):
        def grid(npts, tpts):
            at = fn(npts, tpts)

            def counted(el, er):
                calls["blackbox"] += 1
                assert 2 <= len(el) == len(er) <= most
                return at(el, er)
            return counted
        calls["oracle"] += 1
        return original(grid, *args)

    monkeypatch.setattr(ip, "nested_transform_oracle", counting)
    cfg = cli.SuiteConfig(seed=42, budget_bandlimit=0.5)
    rows = {c["name"]: c for c in cli.SUITES["sl4-plancherel"](cfg)}
    assert rows["kna-spot-check"]["pass"]
    assert calls == {"oracle": 1, "blackbox": 346}


def test_sp4_restriction_plancherel():
    quad = u2_quadrature(1)
    f = ip.SeparableKNAFunction(pw.random_spectrum(rng, 1, quad),
                                random_gauss_product(rng, 4),
                                random_gauss_product(rng, 2))
    res = ip.plancherel_sl4_check(f, quad, 1)
    assert _rel(res) < 1e-6
    assert list(res[2].k_part.coeffs) == pw.u2_labels(1)


def test_u2_table_with_so4_quadrature_rejected():
    # the quadrature picks the compact group: an SO(4) rule reads the U(2)
    # label (1, -1) as (j1, j2) = (1, -1), which is no SO(4) label
    gen = np.random.default_rng(5052)
    f = ip.SeparableKNAFunction(
        pw.CompactSpectrum({(1, -1): np.eye(3, dtype=complex)}),
        random_gauss_product(gen, 6), random_gauss_product(gen, 3))
    with pytest.raises(ValueError):
        ip.plancherel_sl4_check(f, so4_quadrature(1.0), 1.0)
    # the symplectic factor dims on an SO(4) rule
    f = ip.SeparableKNAFunction(
        pw.CompactSpectrum({(0, 0): np.array([[1.0 + 0j]])}),
        random_gauss_product(gen, 4), random_gauss_product(gen, 2))
    with pytest.raises(ValueError):
        ip.plancherel_sl4_check(f, so4_quadrature(1.0), 1)


def test_kna_check_synthesizes_once_through_the_module(monkeypatch):
    # the dispatcher looks synthesize up when called, so a rebinding of the
    # module attribute (as a tracer does) sees every call
    gen = np.random.default_rng(5051)
    calls = []
    original = pw.synthesize

    def counting(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(pw, "synthesize", counting)
    quad = so4_quadrature(0.5)
    f = ip.SeparableKNAFunction(pw.random_spectrum(gen, 0.5, quad),
                                random_gauss_product(gen, 6),
                                random_gauss_product(gen, 3))
    assert _rel(ip.plancherel_sl4_check(f, quad, 0.5)) < 1e-6
    assert len(calls) == 1


def test_sp4_restriction_dimension_validation():
    quad = u2_quadrature(1)
    f = ip.SeparableKNAFunction(
        pw.CompactSpectrum({(0, 0): np.array([[1.0 + 0j]])}),
        random_gauss_product(rng, 6), random_gauss_product(rng, 3))
    with pytest.raises(ValueError):
        ip.plancherel_sl4_check(f, quad, 1)


def test_sp4_charts():
    assert G.sp4_iwasawa_dimension_audit() == (4, 2, 4)
    p = rng.normal(size=(20, 4))
    mats = G.sp4_n_chart(p)
    for m in mats:
        assert G.symplectic_error(m) < 1e-12
        assert np.max(np.abs(np.tril(m, -1))) == 0.0
    prod = mats[0] @ mats[1]
    assert G.symplectic_error(prod) < 1e-12
    t = rng.normal(size=2)
    a = np.diag(np.exp([t[0], t[1], -t[1], -t[0]]))
    assert G.symplectic_error(a) < 1e-12


def test_semidirect_plancherel_and_law():
    quad = so4_quadrature(0.5)
    f = ip.SeparableKNAFunction(pw.random_spectrum(rng, 0.5, quad),
                                random_gauss_product(rng, 6),
                                random_gauss_product(rng, 3),
                                r=random_gauss_product(rng, 4))
    res = ip.plancherel_sl4_check(f, quad, 0.5)
    assert _rel(res) < 1e-6

    v, v2 = rng.normal(size=(2, 4))
    g1 = G.random_sl4(rng.standard_normal((4, 4)))
    g2 = G.random_sl4(rng.standard_normal((4, 4)))
    vv, gg = ip.semidirect_mul(v, g1, v2, g2)
    oracle = ip.affine_embed(v, g1) @ ip.affine_embed(v2, g2)
    assert np.max(np.abs(ip.affine_embed(vv, gg) - oracle)) < 1e-12


def test_translation_factor_dimension_validation():
    # a U(2) rule takes no translation factor; an SO(4) rule one of dim 4
    gen = np.random.default_rng(5054)
    trivial = pw.CompactSpectrum({(0, 0): np.array([[1.0 + 0j]])})
    f = ip.SeparableKNAFunction(trivial, random_gauss_product(gen, 4),
                                random_gauss_product(gen, 2),
                                r=random_gauss_product(gen, 4))
    with pytest.raises(ValueError):
        ip.plancherel_sl4_check(f, u2_quadrature(1), 1)
    for dim in (3, 5):
        f = ip.SeparableKNAFunction(trivial, random_gauss_product(gen, 6),
                                    random_gauss_product(gen, 3),
                                    r=random_gauss_product(gen, dim))
        with pytest.raises(ValueError):
            ip.plancherel_sl4_check(f, so4_quadrature(0.5), 0.5)


def test_upsilon_lift_invariance_and_restriction():
    m = rng.normal(size=(4, 4))

    def fm(g):
        return np.exp(1j * np.trace(m @ g, axis1=-2, axis2=-1)) \
            * np.exp(-0.05 * np.sum(g * g, axis=(-2, -1)))

    lifted = ip.lift_upsilon(fm)
    z = rng.standard_normal((200, 3, 4, 4))  # (g, h, k1) per draw
    err = ip.upsilon_invariance_error(fm, G.random_sl4(z[:, 0]),
                                      G.random_so4(z[:, 1]),
                                      G.random_so4(z[:, 2]))
    assert err.shape == (200,) and np.max(err) < 1e-10
    g = G.random_sl4(rng.standard_normal((4, 4)))
    assert abs(lifted(g, np.eye(4)) - fm(g)) == 0.0


def test_h_lift_and_q_lift():
    def fp(v, g):
        return np.exp(1j * np.sum(v, axis=-1)) \
            * np.exp(1j * np.trace(g, axis1=-2, axis2=-1)) \
            * np.exp(-0.05 * np.sum(g * g, axis=(-2, -1)))

    # at h = 1 the triple-group lift is the semidirect lift f(g v, g)
    v = rng.normal(size=4)
    g = G.random_sl4(rng.standard_normal((4, 4)))
    assert ip.lift_q(fp)(v, g, np.eye(4)) == fp(g @ v, g)
    z = rng.standard_normal((200, 52))  # (v, g, h, q) per draw
    g, h, q = G.random_sl4(z[:, 4:].reshape(200, 3, 4, 4)).swapaxes(0, 1)
    err = ip.q_lift_invariance_error(fp, z[:, :4], g, h, q)
    assert err.shape == (200,) and np.max(err) < 1e-10
