"""Jets, polynomial operators, coordinate maps, conjugation identities,
brackets, and the operator DSL."""

import tracemalloc
from math import factorial, prod

import numpy as np
import pytest

from lgha import cli
from lgha import diffops as D
from lgha.diffops import PlaneWave, standard_corpus
from lgha.jets import (MULTI_INDICES, N_COEFFS, DegreeOverflow, Jet,
                       substitute)
from lgha.solvers import four_stage_chain

rng = np.random.default_rng(606)


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------


def test_jet_ring_axioms():
    p = rng.normal(size=3)
    zj, yj, xj = Jet.coordinates(p)
    a = (zj + 2.0 * yj) * (xj + 1.5)
    b = xj * zj + 2.0 * yj * xj + 1.5 * zj + 3.0 * yj
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-14
    # associativity of truncated products
    c1 = (zj * yj) * xj
    c2 = zj * (yj * xj)
    assert np.max(np.abs(c1.coeffs - c2.coeffs)) < 1e-14


def test_jet_derivatives_of_polynomial():
    p = (0.3, -0.7, 1.1)
    zj, yj, xj = Jet.coordinates(p)
    f = zj * zj * xj + 3.0 * yj
    assert f.deriv((0, 0, 0)) == pytest.approx(p[0] ** 2 * p[2] + 3 * p[1])
    assert f.deriv((1, 0, 1)) == pytest.approx(2 * p[0])
    assert f.deriv((2, 0, 1)) == pytest.approx(2.0)
    assert f.deriv((0, 1, 0)) == pytest.approx(3.0)


def test_jet_exp_matches_plane_wave_derivatives():
    k = (0.7, -0.4, 1.1)
    f = PlaneWave(*k)
    p = rng.normal(size=3)
    jet = f.jet_at(Jet.coordinates(p))
    val = f.values(np.array(p))
    assert abs(jet.coeffs[0] - val) < 1e-14
    assert abs(jet.deriv((1, 0, 0)) - 1j * k[0] * val) < 1e-13
    assert abs(jet.deriv((0, 2, 0)) - (1j * k[1]) ** 2 * val) < 1e-13


def test_constant_poly_gauss_jet_equals_the_unit_product():
    # a constant polynomial scales the exp jet, with no Jet x Jet product
    mu, sigma = (0.2, -0.1, 0.3), 1.1
    coords = Jet.coordinates(rng.normal(size=(5, 3)))
    gauss = D.PolyGauss(D.ONE, mu, sigma).jet_at(coords)
    for c in (1.0, -2.5 + 0.5j):
        product = substitute(D.Poly3.const(c).terms, coords) * gauss
        jet = D.PolyGauss(D.Poly3.const(c), mu, sigma).jet_at(coords)
        assert np.array_equal(jet.coeffs, product.coeffs)


def test_jet_vs_finite_differences():
    # a plain Gaussian and a Gaussian times a polynomial
    for poly in (D.ONE, D.Poly3({(0, 0, 0): 1.0, (1, 0, 1): 0.3})):
        f = D.PolyGauss(poly, (0.2, -0.1, 0.3), 1.1)
        p = np.array([0.4, 0.2, -0.5])
        jet = f.jet_at(Jet.coordinates(p))
        h = 1e-5
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = h
            fd1 = (f.values(p + e) - f.values(p - e)) / (2 * h)
            m = [0, 0, 0]
            m[axis] = 1
            assert abs(jet.deriv(tuple(m)) - fd1) < 1e-6
            fd2 = (f.values(p + e) - 2 * f.values(p)
                   + f.values(p - e)) / h ** 2
            m[axis] = 2
            assert abs(jet.deriv(tuple(m)) - fd2) < 1e-5


def test_degree_overflow():
    p = (0.0, 0.0, 0.0)
    op = D.PolyDiffOp({(5, 0, 0): D.ONE})
    with pytest.raises(DegreeOverflow):
        op.apply([PlaneWave(1, 0, 0).jet_at(Jet.coordinates(p))], p)


def test_deriv_rejects_a_malformed_multi_index():
    zj, _, _ = Jet.coordinates((0.1, 0.2, 0.3))
    for midx in ((-1, 2, 0), (1, 1), (1, 0, 0, 0), (0.5, 0.5, 0)):
        with pytest.raises(ValueError, match="not a multi-index") as info:
            zj.deriv(midx)
        assert not isinstance(info.value, DegreeOverflow)
        assert repr(tuple(midx)) in str(info.value)
    with pytest.raises(DegreeOverflow):
        zj.deriv((2, 2, 1))
    assert zj.deriv(np.array([1, 0, 0])) == 1.0


def _cplx(gen, *shape):
    return gen.normal(size=shape) + 1j * gen.normal(size=shape)


def test_adding_an_array_broadcasts_the_jet_over_its_points():
    values = np.array([0.5, -1.0, 2.0])
    for got in (Jet.const(1.0) + values, values + Jet.const(1.0)):
        assert got.coeffs.shape == (N_COEFFS, 3)
        assert np.array_equal(got.coeffs[0], 1.0 + values)
        assert not np.any(got.coeffs[1:])
    assert np.array_equal((Jet.const(1.0) - values).coeffs[0], 1.0 - values)
    assert np.array_equal((values - Jet.const(1.0)).coeffs[0], values - 1.0)
    # a jet that already carries the points: the old in-place path, bit for
    # bit, -0.0 coefficients included
    coeffs = _cplx(rng, N_COEFFS, 3)
    coeffs[5] = complex(-0.0, -0.0)
    want = coeffs.copy()
    want[0] += values
    assert (Jet(coeffs) + values).coeffs.tobytes() == want.tobytes()
    assert (Jet(coeffs) + 2.5).coeffs[1:].tobytes() == coeffs[1:].tobytes()
    grid = rng.normal(size=(N_COEFFS, 2, 3)) + 0j
    want = grid.copy()
    want[0] += values
    assert (Jet(grid) + values).coeffs.tobytes() == want.tobytes()


def _jet_product_oracle(a, b):
    """The truncated product of two coefficient arrays, point by point in
    plain Python: coefficient k sums a[i]*b[j] over the pairs with
    m_i + m_j = m_k, in table order (i, then j), starting from zero."""
    # batch shapes broadcast as numpy shapes do, the coefficient axis aside
    shape = np.broadcast_shapes(a.shape[1:], b.shape[1:])
    a, b = (np.moveaxis(np.broadcast_to(np.moveaxis(x, 0, -1),
                                        shape + (N_COEFFS,)), -1, 0)
            for x in (a, b))
    pairs = [[(i, j) for i, mi in enumerate(MULTI_INDICES)
              for j, mj in enumerate(MULTI_INDICES)
              if tuple(p + q for p, q in zip(mi, mj)) == mk]
             for mk in MULTI_INDICES]
    out = np.zeros((N_COEFFS,) + shape, dtype=complex)
    for point in np.ndindex(shape):
        ap = [complex(v) for v in a[(slice(None),) + point]]
        bp = [complex(v) for v in b[(slice(None),) + point]]
        for k, kpairs in enumerate(pairs):
            acc = 0j
            for i, j in kpairs:
                acc = ap[i] * bp[j] + acc
            out[(k,) + point] = acc
    return out


def _bits(z):
    """The bytes of a complex array with every NaN part made one NaN:
    IEEE 754 fixes neither the sign nor the payload of a NaN that arithmetic
    makes, and numpy's SIMD loops and Python order NaN operands differently."""
    parts = np.ascontiguousarray(z).view(float)
    return np.where(np.isnan(parts), np.nan, parts).tobytes()


def _product_factors(gen, shape):
    """A pair of coefficient arrays whose products a[i]*b[j] are exact (a
    holds signed powers of two, real or imaginary, and signed zeros), so a
    product's bits depend on its summation order alone, not on whether the
    complex multiply fuses, with NaN, inf and -0.0 among both factors."""
    size = (N_COEFFS,) + shape
    a = (2.0 ** gen.integers(-3, 4, size=size)
         * gen.choice([1, -1, 1j, -1j], size=size))
    b = _cplx(gen, *size)
    specials = [np.nan, complex(np.inf, 0.0), complex(-np.inf, 0.0),
                complex(-0.0, -0.0), complex(0.0, -0.0), complex(np.nan, 1.0)]
    for arr in (a, b):
        flat = arr.reshape(-1)
        pick = gen.permutation(flat.size)[:4 * (flat.size // 35 + 1)]
        for n, p in enumerate(pick):
            flat[p] = specials[n % len(specials)]
    return a, b


@pytest.mark.filterwarnings("ignore:invalid value")
def test_jet_product_matches_the_plain_python_oracle():
    gen = np.random.default_rng(617)
    # (3, 1) against (1, 5): neither factor has the product's batch shape
    for sa, sb in (((), ()), ((1,), (1,)), ((100,), (100,)), ((), (100,)),
                   ((100,), ()), ((3, 5), (5,)), ((3, 1), (1, 5))):
        a, _ = _product_factors(gen, sa)
        _, b = _product_factors(gen, sb)
        for x, y in ((a, b), (b, a)):
            got = (Jet(x) * Jet(y)).coeffs
            want = _jet_product_oracle(x, y)
            assert got.shape == want.shape
            assert _bits(got) == _bits(want), (sa, sb)
            if not sa:
                assert np.isnan(got).any() and np.isinf(got).any()


def test_a_100_point_jet_product_holds_under_128_kib():
    """glibc maps a block of 128 KiB or more afresh on each allocation and
    trims a free heap top above that size, so a product that held more
    could fault in new pages on every call, depending on what the process
    freed before; formed 21 products at a time, it holds under 128 KiB
    (the products formed at once took 660 KiB)."""
    gen = np.random.default_rng(622)
    a, b = Jet(_cplx(gen, N_COEFFS, 100)), Jet(_cplx(gen, N_COEFFS, 100))
    a * b
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        a * b
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 128 * 1024


def test_jet_batch_shapes_broadcast_as_numpy_shapes():
    # (3, 5) against (5,): the shorter batch shape gains leading axes (the
    # product is checked against the oracle above)
    gen = np.random.default_rng(620)
    a, b = _cplx(gen, N_COEFFS, 3, 5), _cplx(gen, N_COEFFS, 5)
    for total in (Jet(a) + Jet(b), Jet(b) + Jet(a)):
        assert np.array_equal(total.coeffs, a + b[:, None])
    ones = Jet.const(np.ones((3, 5))) * Jet.const(np.ones(5))
    assert np.array_equal(ones.coeffs[0], np.ones((3, 5)))
    # a jet at one point times one value per point
    scaled = Jet(b[:, 0]) * np.arange(5.0)
    assert np.array_equal(scaled.coeffs, b[:, :1] * np.arange(5.0))


@pytest.mark.filterwarnings("ignore:invalid value")
def test_batched_product_equals_the_pointwise_products():
    gen = np.random.default_rng(618)
    a, b = _product_factors(gen, (100,))
    batch = (Jet(a) * Jet(b)).coeffs
    for p in range(100):
        point = (Jet(a[:, p]) * Jet(b[:, p])).coeffs
        assert _bits(batch[:, p]) == _bits(point)
    # generic factors: both shapes go through the same multiply
    a, b = _cplx(gen, N_COEFFS, 100), _cplx(gen, N_COEFFS, 100)
    batch = (Jet(a) * Jet(b)).coeffs
    for p in range(100):
        point = (Jet(a[:, p]) * Jet(b[:, p])).coeffs
        assert batch[:, p].tobytes() == point.tobytes()


_NAMED_MAPS = (D.shear_reflect_map, D.shear_map, D.shear_map_inv,
               D.flip_y_shear_map, D.flip_x_shear_map)


def _taylor_pullback(m, f, p):
    """The jet of f o m at one point p by the Taylor composition formula:
    the jet of f at q = m(p), its coefficient c_(a,b,c) times d0^a d1^b d2^c
    summed, the d_i the jets of m's components around p minus q_i, each
    coefficient of those from the components' partial derivatives."""
    q = m.apply_points(p)
    deltas = []
    for i, poly in enumerate(m.fwd):
        d = Jet()
        for k, midx in enumerate(MULTI_INDICES):
            part = poly
            for axis, order in enumerate(midx):
                for _ in range(order):
                    part = part.partial(axis)
            d.coeffs[k] = part.eval(*p) / prod(map(factorial, midx))
        d.coeffs[0] -= q[i]
        deltas.append(d)
    outer = f.jet_at(Jet.coordinates(q)).coeffs
    want = Jet()
    for k, midx in enumerate(MULTI_INDICES):
        term = Jet.const(outer[k])
        for d, order in zip(deltas, midx):
            for _ in range(order):
                term = term * d
        want = want + term
    return want


@pytest.mark.parametrize("make", _NAMED_MAPS, ids=lambda f: f.__name__)
def test_pullback_equals_the_taylor_composition(make):
    # the corpus jets at the map's component jets, against the composition
    # formula at each point and against finite differences of f o m
    gen = np.random.default_rng(619)
    m, corpus = make(), standard_corpus(gen)
    pts = gen.uniform(-1.2, 1.2, size=(6, 3))
    for f, got in zip(corpus, m.pullback(corpus, pts)):
        assert got.coeffs.shape == (N_COEFFS, 6)
        for n, p in enumerate(pts):
            want = _taylor_pullback(m, f, p).coeffs
            assert np.max(np.abs(got.coeffs[:, n] - want)) \
                <= 1e-13 * np.max(np.abs(want))
        h = 1e-5
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = h
            fd = (f.values(m.apply_points(pts + e))
                  - f.values(m.apply_points(pts - e))) / (2 * h)
            unit = tuple(int(a == axis) for a in range(3))
            assert np.max(np.abs(got.deriv(unit) - fd)) < 1e-8


def test_no_jet_product_has_a_unit_factor(monkeypatch):
    """A polynomial at jets, the exponential form and a pullback each power
    from its factor alone: no jet is multiplied by the unit jet."""
    gen = np.random.default_rng(623)
    factors, mul = [], Jet.__mul__

    def spy(a, b):
        if isinstance(b, Jet):
            factors.extend((a.coeffs.copy(), b.coeffs.copy()))
        return mul(a, b)

    monkeypatch.setattr(Jet, "__mul__", spy)
    monkeypatch.setattr(Jet, "__rmul__", spy)
    poly = D.Poly3({(0, 0, 0): 1.0, (2, 1, 0): 0.5, (0, 0, 3): -1j,
                    (1, 1, 1): 2.0})
    corpus = standard_corpus(gen)
    for shape in ((), (7,)):
        pts = gen.normal(size=shape + (3,))
        substitute(poly.terms, Jet.coordinates(pts))
        Jet(_cplx(gen, N_COEFFS, *shape)).exp()
        D.shear_reflect_map().pullback(corpus, pts)
    assert len(factors) > 100
    for c in factors:
        assert not (np.all(c[0] == 1.0) and not np.any(c[1:]))


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def _poly_eval_reference(poly, z, y, x):
    """Poly3.eval as one `**` per monomial and variable."""
    out = 0
    for (a, b, c), co in poly.terms.items():
        out = out + co * np.asarray(z) ** a * np.asarray(y) ** b * np.asarray(x) ** c
    if not poly.terms:
        return np.zeros(np.broadcast(z, y, x).shape, dtype=complex)
    return out


def _random_poly3(gen, max_degree, nterms):
    terms = {}
    for _ in range(nterms):
        m = gen.multinomial(gen.integers(0, max_degree + 1), [1 / 3] * 3)
        terms[tuple(int(k) for k in m)] = complex(*gen.normal(size=2))
    return D.Poly3(terms)


def _assert_close(got, want, rtol=1e-13):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == complex
    scale = max(float(np.max(np.abs(want), initial=0.0)), 1e-300)
    assert np.max(np.abs(got - want), initial=0.0) <= rtol * scale


def test_poly3_eval_matches_power_formula():
    gen = np.random.default_rng(611)  # the module rng stays as other tests see it
    n = 9
    zc, yc, xc = (gen.uniform(-2.5, 2.5, size=n).reshape(s)
                  for s in ((n, 1, 1), (1, n, 1), (1, 1, n)))
    full = [np.broadcast_to(v, (n, n, n)).copy() for v in (zc, yc, xc)]
    for degree in range(7):
        for _ in range(4):
            poly = _random_poly3(gen, degree, 8)
            _assert_close(poly.eval(zc, yc, xc),
                          _poly_eval_reference(poly, zc, yc, xc))
            _assert_close(poly.eval(*full), _poly_eval_reference(poly, *full))
            pt = tuple(float(v) for v in gen.normal(size=3))
            got = poly.eval(*pt)
            assert np.ndim(got) == 0
            _assert_close(got, _poly_eval_reference(poly, *pt))
    empty = D.Poly3()
    assert np.array_equal(empty.eval(zc, yc, xc), np.zeros((n, n, n), complex))
    assert empty.eval(0.5, 1.0, 2.0) == 0
    # a constant still broadcasts to the full shape
    assert D.Poly3.const(2.0).eval(zc, yc, xc).shape == (n, n, n)


def _corpus_jets(corpus, pts):
    return [f.jet_at(Jet.coordinates(pts)) for f in corpus]


def test_apply_examples():
    p = (0.2, 0.5, -0.9)
    assert D.PolyDiffOp.partial(2).apply([Jet.coordinates(p)[2]], p) == [1.0]
    # x^2 + y^2 + z^2
    p = rng.normal(size=3)
    r2 = sum(j * j for j in Jet.coordinates(p))
    [lap2] = D.laplacian_2d().apply([r2], p)
    [lap3] = D.laplacian_3d().apply([r2], p)
    assert lap2 == pytest.approx(4.0) and lap3 == pytest.approx(6.0)


def test_plane_wave_symbol_oracle():
    k = (0.9, -1.3, 0.4)
    f = PlaneWave(*k)
    pts = rng.normal(size=(20, 3))
    for op in (D.lewy(), D.lewy_star(), D.cauchy_riemann(),
               D.sheared_laplacian()):
        [vals] = op.apply(_corpus_jets([f], pts), pts)
        # exact action on a plane wave: polynomial coefficients at the point
        # times (ik)^alpha
        expect = np.zeros(20, dtype=complex)
        wave = f.values(pts)
        for m, poly in op.terms.items():
            expect += poly.eval(pts[:, 0], pts[:, 1], pts[:, 2]) \
                * (1j * k[0]) ** m[0] * (1j * k[1]) ** m[1] \
                * (1j * k[2]) ** m[2] * wave
        assert np.max(np.abs(vals - expect)) < 1e-12


def test_operator_composition_leibniz():
    # dz o (z dz) = dz + z dz^2
    a = D.PolyDiffOp.partial(0)
    b = D.PolyDiffOp({(1, 0, 0): D.Z})
    c = a @ b
    assert c == D.PolyDiffOp({(1, 0, 0): D.ONE, (2, 0, 0): D.Z})


def test_symbol_constant_coefficient():
    op = D.cauchy_riemann()
    xi = rng.normal(size=(10, 2))
    sym = op.symbol(np.zeros(10), xi[:, 1], xi[:, 0])
    assert np.max(np.abs(sym - (1j * xi[:, 0] + xi[:, 1]))) < 1e-14
    with pytest.raises(ValueError):
        D.lewy().symbol(0.0, 0.0, 0.0)


def test_coeff_reflect():
    op = D.lewy().coeff_reflect(sx=-1)
    assert op == D.lewy_conjugate_true()
    # double reflection restores
    assert op.coeff_reflect(sx=-1) == D.lewy()


# ---------------------------------------------------------------------------
# coordinate maps and conjugation
# ---------------------------------------------------------------------------


def test_maps_are_polynomial_inverses():
    for m in (D.shear_reflect_map(), D.shear_map(), D.shear_map_inv(),
              D.flip_y_shear_map(), D.flip_x_shear_map()):
        assert m.check_inverse()


def test_shear_reflect_is_involution_pointwise():
    m = D.shear_reflect_map()
    pts = rng.normal(size=(100, 3))
    assert np.max(np.abs(m.apply_points(m.apply_points(pts)) - pts)) < 1e-12


def _discrepancy(lhs, rhs, corpus, pts):
    """The one-identity verify_identity value, from PolyDiffOp.apply on
    jets built directly: the jet at the outer point, or the inner map's
    pullback of it."""
    def values(op, outer=None, inner=None):
        q = pts if outer is None else outer.apply_points(pts)
        return [op.apply([f.jet_at(Jet.coordinates(q)) if inner is None
                          else inner.pullback([f], q)[0]], q)[0]
                for f in corpus]
    return float(np.max([np.max(np.abs(a - b)) for a, b in
                         zip(values(*lhs), values(*rhs))], initial=0.0))


def test_conjugation_with_identity_map():
    ident = D.CoordMap((D.Z, D.Y, D.X), (D.Z, D.Y, D.X))
    f = D.PolyGauss(D.ONE, (0, 0, 0), 1.0)
    pts = rng.normal(size=(10, 3))
    err = D.verify_identity([("identity", (D.lewy(), ident, ident),
                              (D.lewy(),))], [f], pts)
    assert err["identity"] < 1e-13


def test_lewy_conjugation_identity():
    corpus = standard_corpus(rng)
    pts = rng.uniform(-1.2, 1.2, size=(40, 3))
    hb, sigma = D.shear_reflect_map(), D.reflection(1, 1, -1)
    # as displayed, with reflected-argument evaluation on both sides: the
    # conjugate read at sigma(p) has the outer map hb o sigma
    hb_sigma = D.CoordMap(
        tuple(substitute(p.terms, sigma.fwd) for p in hb.fwd),
        tuple(substitute(p.terms, hb.inv) for p in sigma.inv))
    assert hb_sigma.check_inverse()
    err = D.verify_identity([
        ("true", (D.cauchy_riemann(), hb, hb), (D.lewy_conjugate_true(),)),
        ("displayed", (D.cauchy_riemann(), hb_sigma, hb),
         (D.lewy().coeff_reflect(1, 1, -1), sigma))], corpus, pts)
    assert err["true"] < 1e-9
    assert err["displayed"] < 1e-9


def test_mutation_is_detected():
    corpus = standard_corpus(rng)
    pts = rng.uniform(-1.2, 1.2, size=(40, 3))
    hb = D.shear_reflect_map()
    wrong = D.lewy_conjugate_true() + D.PolyDiffOp(
        {(1, 0, 0): D.Poly3({(0, 1, 0): -0.1})})
    err = D.verify_identity([("mutant", (D.cauchy_riemann(), hb, hb),
                              (wrong,))], corpus, pts)["mutant"]
    assert not err < 1e-9
    assert err > 1e-3


def test_verify_identity_reports_a_nan_discrepancy():
    # a NaN from one corpus function between finite errors must not vanish,
    # and a NaN in one identity must not reach the others
    gen = np.random.default_rng(404)
    corpus = standard_corpus(gen)[:3]
    pts = gen.uniform(-1.2, 1.2, size=(5, 3))
    hb = D.shear_reflect_map()
    nan_op = D.lewy() + D.PolyDiffOp({(0, 0, 0): D.Poly3.const(np.nan)})
    finite = [("conjugation", (D.cauchy_riemann(), hb, hb),
               (D.lewy_conjugate_true(),)),
              ("off", (D.lewy(),), (D.lewy_star(),))]
    errs = D.verify_identity(finite + [("nan", (D.lewy(),), (nan_op,))],
                             corpus, pts)
    assert np.isnan(errs["nan"])
    for name, lhs, rhs in finite:
        alone = D.verify_identity([(name, lhs, rhs)], corpus, pts)[name]
        assert np.isfinite(alone) and errs[name] == alone

    class NanAtSecond:
        # the second corpus function, its jet turned to NaN
        def jet_at(self, zyx):
            return corpus[1].jet_at(zyx) * np.nan

    err = D.verify_identity([("off", (D.lewy(),), (D.lewy_star(),))],
                            [corpus[0], NanAtSecond(), corpus[2]], pts)
    assert np.isnan(err["off"])


def test_four_factor_conjugation_and_commutators():
    corpus = standard_corpus(rng)[:4]
    pts = rng.uniform(-1.2, 1.2, size=(25, 3))
    hb = D.shear_reflect_map()
    four = four_stage_chain()
    p1 = D.hormander_P_bar().coeff_reflect(sx=-1)
    p2 = D.hormander_P().coeff_reflect(sx=-1)
    err = D.verify_identity([("four", (four, hb, hb), (p1 @ p2 @ p2 @ p1,))],
                            corpus, pts)["four"]
    assert err < 1e-9
    # the conjugated factors commute; the displayed factors do not
    assert p1 @ p2 == p2 @ p1
    pd, pbd = D.hormander_P(), D.hormander_P_bar()
    comm = pd @ pbd - pbd @ pd
    assert comm == D.PolyDiffOp({(1, 0, 0): D.Poly3.const(8.0j)})


def test_reflection_transport_evaluates_at_the_flipped_points():
    # a sign reflection as the outer map moves the points exactly
    corpus = standard_corpus(np.random.default_rng(405))
    pts = rng.uniform(-1.2, 1.2, size=(30, 3))
    refl = D.reflection(1, -1, 1)
    assert np.array_equal(refl.apply_points(pts), pts * [1.0, -1.0, 1.0])
    op = D.heis_laplacian_left().coeff_reflect(1, -1, 1)
    other = D.heis_laplacian_left()
    at = pts * [1.0, -1.0, 1.0]
    flipped = op.apply(_corpus_jets(corpus, at), at)
    expect = float(np.max([np.max(np.abs(a - b)) for a, b in zip(
        flipped, other.apply(_corpus_jets(corpus, pts), pts))]))
    err = D.verify_identity([("flip", (op, refl), (other,))], corpus, pts)
    assert err["flip"] == expect and expect > 0


def test_grouped_battery_equals_one_identity_calls():
    # the whole battery in one call, sides sharing their maps and corpus
    # jets, against one call per identity and against jets built directly
    gen = np.random.default_rng(407)
    corpus = standard_corpus(gen)
    pts = gen.uniform(-1.2, 1.2, size=(20, 3))
    hb, g, gi = D.shear_reflect_map(), D.shear_map(), D.shear_map_inv()
    tau = D.flip_y_shear_map()
    battery = [
        ("lewy", (D.cauchy_riemann(), hb, hb),
         (D.lewy().coeff_reflect(sx=-1),)),
        ("shear", (D.laplacian_3d(), g, gi), (D.sheared_laplacian(),)),
        ("transport", (D.laplacian_3d(), tau, gi),
         (D.heis_laplacian_left().coeff_reflect(1, -1, 1),
          D.reflection(1, -1, 1))),
        ("swap", (D.cr_pair_R(), hb, hb),
         (D.hormander_P_bar().coeff_reflect(sx=-1),)),
        ("plain", (D.lewy(), None, None), (D.lewy_star(),))]
    grouped = D.verify_identity(battery, corpus, pts)
    assert list(grouped) == [name for name, _, _ in battery]
    for name, lhs, rhs in battery:
        alone = D.verify_identity([(name, lhs, rhs)], corpus, pts)
        assert np.array_equal(grouped[name], alone[name])
        assert np.array_equal(grouped[name],
                              _discrepancy(lhs, rhs, corpus, pts))


def test_operator_identities_build_each_pullback_once(monkeypatch):
    # one operator-identities run: the nine identities have 18 sides over
    # four (outer, inner) pairs with an inner map.  Each pair builds the
    # map's component jets once for the point batch and evaluates every one
    # of the ten corpus functions at them.  The side (cauchy_riemann(), hb, hb)
    # appears twice and is applied once, so 17 sides are applied.
    calls = {"pullback": 0, "apply": 0}

    def spy(owner, name):
        real = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, counted)

    spy(D.CoordMap, "pullback")
    spy(D.PolyDiffOp, "apply")
    report = cli.run_suite("operator-identities", cli.SuiteConfig())
    assert calls == {"pullback": 4, "apply": 17}
    assert report["summary"]["failed"] == 0


def test_hormander_q4_composition():
    q4 = D.hormander_Q4()
    assert q4.order == 4
    # leading symbol at a point equals the product of first-order symbols
    pt = (0.5, -0.3, 0.8)
    xi = np.array([0.3, -1.2, 0.7])

    def sym(op):
        return sum(complex(p.eval(*pt)) * (1j * xi[0]) ** m[0]
                   * (1j * xi[1]) ** m[1] * (1j * xi[2]) ** m[2]
                   for m, p in op.terms.items())

    lead = D.PolyDiffOp({m: p for m, p in q4.terms.items() if sum(m) == 4})
    prod = sym(D.hormander_P()) * sym(D.hormander_P_bar()) ** 2 \
        * sym(D.hormander_P())
    assert abs(sym(lead) - prod) < 1e-12


# ---------------------------------------------------------------------------
# brackets and rank
# ---------------------------------------------------------------------------


def test_bracket_relations_exact():
    X, Y, Z = D.vf_x(), D.vf_y(), D.vf_z()
    assert D.lie_bracket(X, Y) == D.PolyDiffOp.partial(0, 2.0)
    zero = D.PolyDiffOp()
    assert D.lie_bracket(Z, X) == zero
    assert D.lie_bracket(Z, Y) == zero
    assert D.lie_bracket(X, X) == zero


def test_hormander_rank():
    X, Y = D.vf_x(), D.vf_y()
    points = []
    for _ in range(20):
        p = rng.normal(size=3)
        points.append(p)
        assert D.hormander_rank([X, Y], p, depth=2) == 3
        assert D.hormander_rank([X, Y], p, depth=1) == 2
    # the same points as one (20, 3) stack
    assert D.hormander_rank([X, Y], np.array(points), depth=2).tolist() \
        == [3] * 20
    assert D.hormander_rank([X, Y], np.array(points), depth=1).tolist() \
        == [2] * 20


def test_squares_operators():
    # X^2 + Y^2 has no dz^2-free certificate; just pin the expansions
    xo, yo, zo = D.vf_x(), D.vf_y(), D.vf_z()
    s = xo @ xo + yo @ yo
    expect = D.PolyDiffOp({
        (0, 0, 2): D.ONE, (0, 2, 0): D.ONE,
        (1, 1, 0): 2.0 * D.X, (1, 0, 1): -2.0 * D.Y,
        (2, 0, 0): D.X * D.X + D.Y * D.Y,
    })
    assert s == expect
    assert s + zo @ zo == expect + D.PolyDiffOp({(2, 0, 0): D.ONE})
    assert D.heis_laplacian_left() == s + zo @ zo


# ---------------------------------------------------------------------------
# PolyGauss manufactured derivatives
# ---------------------------------------------------------------------------


def test_polygauss_apply_matches_jets():
    pg = D.PolyGauss(D.Poly3({(0, 0, 1): 1.0, (0, 1, 0): 0.4j}),
                     mu=(0.1, -0.2, 0.3), sigma=0.9)
    op = D.lewy_conjugate_true()
    derived = pg.apply_diffop(op)
    pts = rng.normal(size=(30, 3))
    [vals] = op.apply(_corpus_jets([pg], pts), pts)
    assert np.max(np.abs(derived.values(pts) - vals)) < 1e-12


def test_polygauss_on_broadcast_coordinates_equals_values_on_stacks():
    pg = D.PolyGauss(D.Poly3({(0, 0, 1): 1.0, (0, 1, 0): 0.4j,
                              (2, 1, 0): -0.3, (0, 1, 2): 0.2j}),
                     mu=(0.1, -0.2, 0.3), sigma=0.9)
    z, y, x = (rng.normal(size=shape)
               for shape in ((5, 1, 1), (1, 4, 1), (1, 1, 3)))
    stack = np.stack(np.broadcast_arrays(z, y, x), axis=-1)
    assert np.array_equal(pg(z, y, x), pg.values(stack))
    # the shear-reflected coordinates the solvers sample on
    assert np.array_equal(pg(z - 2.0 * x * y, y, -x),
                          pg.values(np.stack(np.broadcast_arrays(
                              z - 2.0 * x * y, y, -x), axis=-1)))


# ---------------------------------------------------------------------------
# DSL
# ---------------------------------------------------------------------------


def test_dsl_parse_known_operator():
    s = "(-1)*dx + (-i)*dy + (-2*y)*dz + (2*i*x)*dz"
    assert D.parse_op(s) == D.lewy()


# every named operator of the module
_NAMED_OPS = (
    D.cauchy_riemann, D.cauchy_riemann_star, D.lewy, D.lewy_star,
    D.lewy_conjugate_true, D.laplacian_2d, D.laplacian_3d,
    D.heis_laplacian_left, D.heis_laplacian_right, D.sheared_laplacian,
    D.first_order_invariant, D.hormander_P, D.hormander_P_bar,
    D.hormander_Q4, D.cr_pair_R, D.cr_pair_R_star)


def test_dsl_roundtrip_canonical():
    for make in _NAMED_OPS:
        op = make()
        text = D.format_op(op)
        assert D.parse_op(text) == op


def test_dsl_powers_and_errors():
    assert D.parse_op("y^2*dz*dz") == D.PolyDiffOp({(2, 0, 0): D.Y * D.Y})
    with pytest.raises(ValueError):
        D.parse_op("q*dz")
    with pytest.raises(ValueError):
        D.parse_op("(2*dz")
    # what Python's expression grammar takes but the DSL does not
    for text in ("2j*dx", "x**2*dz", "dz^2", "abs(x)*dz", "x.real*dz", ""):
        with pytest.raises(ValueError):
            D.parse_op(text)
    # past the interpreter's recursion limit: a ValueError, not a crash
    with pytest.raises(ValueError, match="too deeply"):
        D.parse_op(" + ".join(["x*dz"] * 5000))
    # node offsets count UTF-8 bytes: a non-ASCII name is quoted whole
    for text, seg in (("x*dz + é", "é"), ("é.real*dz", "é.real")):
        with pytest.raises(ValueError) as exc:
            D.parse_op(text)
        assert str(exc.value) == f"not an operator expression: {seg!r}"
    assert D.parse_op("--x*dz") == D.PolyDiffOp({(1, 0, 0): D.X})
    assert D.parse_op("+3*x^3*y*dx*dx") == D.PolyDiffOp(
        {(0, 0, 2): D.Poly3({(0, 1, 3): 3.0})})
