"""Jets, polynomial operators, coordinate maps, conjugation identities,
brackets, and the operator DSL."""

import numpy as np
import pytest

from lgha import diffops as D
from lgha.jets import (DEGREE, MULTI_INDICES, N_COEFFS, DegreeOverflow,
                       GaussianBump, Jet, PlaneWave, _align, standard_corpus,
                       substitute)

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
    f = zj ** 2 * xj + 3.0 * yj
    assert f.deriv((0, 0, 0)) == pytest.approx(p[0] ** 2 * p[2] + 3 * p[1])
    assert f.deriv((1, 0, 1)) == pytest.approx(2 * p[0])
    assert f.deriv((2, 0, 1)) == pytest.approx(2.0)
    assert f.deriv((0, 1, 0)) == pytest.approx(3.0)


def test_jet_exp_matches_plane_wave_derivatives():
    k = (0.7, -0.4, 1.1)
    f = PlaneWave(*k)
    p = rng.normal(size=3)
    jet = f.jet_at(p)
    val = f.values(np.array(p))
    assert abs(jet.value - val) < 1e-14
    assert abs(jet.deriv((1, 0, 0)) - 1j * k[0] * val) < 1e-13
    assert abs(jet.deriv((0, 2, 0)) - (1j * k[1]) ** 2 * val) < 1e-13


def test_jet_vs_finite_differences():
    f = GaussianBump((0.2, -0.1, 0.3), 1.1,
                     D.Poly3({(0, 0, 0): 1.0, (1, 0, 1): 0.3}))
    p = np.array([0.4, 0.2, -0.5])
    jet = f.jet_at(p)
    h = 1e-5
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = h
        fd1 = (f.values(p + e) - f.values(p - e)) / (2 * h)
        m = [0, 0, 0]
        m[axis] = 1
        assert abs(jet.deriv(tuple(m)) - fd1) < 1e-6
        fd2 = (f.values(p + e) - 2 * f.values(p) + f.values(p - e)) / h ** 2
        m[axis] = 2
        assert abs(jet.deriv(tuple(m)) - fd2) < 1e-5


def test_degree_overflow():
    f = PlaneWave(1, 0, 0)
    op = D.PolyDiffOp({(5, 0, 0): D.ONE})
    with pytest.raises(DegreeOverflow):
        op.apply(f, (0.0, 0.0, 0.0))


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
        assert np.array_equal(got.value, 1.0 + values)
        assert not np.any(got.coeffs[1:])
    assert np.array_equal((Jet.const(1.0) - values).value, 1.0 - values)
    assert np.array_equal((values - Jet.const(1.0)).value, values - 1.0)
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
    shape = np.broadcast_shapes(a.shape[1:], b.shape[1:])
    a = np.broadcast_to(a.reshape(a.shape + (1,) * (len(shape) + 1 - a.ndim)),
                        (N_COEFFS,) + shape)
    b = np.broadcast_to(b.reshape(b.shape + (1,) * (len(shape) + 1 - b.ndim)),
                        (N_COEFFS,) + shape)
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
    for sa, sb in (((), ()), ((100,), (100,)), ((), (100,)), ((100,), ())):
        a, _ = _product_factors(gen, sa)
        _, b = _product_factors(gen, sb)
        for x, y in ((a, b), (b, a)):
            got = (Jet(x) * Jet(y)).coeffs
            want = _jet_product_oracle(x, y)
            assert got.shape == want.shape
            assert _bits(got) == _bits(want), (sa, sb)
            if not sa:
                assert np.isnan(got).any() and np.isinf(got).any()


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


def test_substitute_equals_the_three_factor_form():
    gen = np.random.default_rng(619)
    for shape in ((), (100,)):
        outer = _cplx(gen, N_COEFFS, *shape)
        outer[7] = 0.0  # a zero coefficient is skipped in both forms
        deltas = []
        for _ in range(3):
            d = Jet(_cplx(gen, N_COEFFS, *shape))
            d.coeffs[0] = 0.0
            deltas.append(d)
        powers = []
        for d in deltas:
            ps = [Jet.const(1.0)]
            for _ in range(DEGREE):
                ps.append(ps[-1] * d)
            powers.append(ps)
        want = Jet()
        for k, (a, b, c) in enumerate(MULTI_INDICES):
            if not np.any(outer[k]):
                continue
            term = powers[0][a] * powers[1][b] * powers[2][c]
            al, bl = _align(term.coeffs, np.asarray(outer[k])[None, ...])
            want = want + Jet(al * bl)
        got = substitute(outer, deltas)
        assert got.coeffs.tobytes() == want.coeffs.tobytes()


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


class _CoordX:
    def jet_at(self, pts):
        pts = np.asarray(pts, dtype=float)
        return Jet.coordinate(2, pts[..., 2])


class _R2:
    """x^2 + y^2 + z^2 as a jet-evaluable function."""

    def jet_at(self, pts):
        zj, yj, xj = Jet.coordinates(pts)
        return zj * zj + yj * yj + xj * xj


def test_apply_examples():
    assert D.PolyDiffOp.partial(2).apply(_CoordX(), (0.2, 0.5, -0.9)) == 1.0
    assert D.laplacian_2d().apply(_R2(), rng.normal(size=3)) == pytest.approx(4.0)
    assert D.laplacian_3d().apply(_R2(), rng.normal(size=3)) == pytest.approx(6.0)


def test_plane_wave_symbol_oracle():
    k = (0.9, -1.3, 0.4)
    f = PlaneWave(*k)
    pts = rng.normal(size=(20, 3))
    for op in (D.lewy(), D.lewy_star(), D.cauchy_riemann(),
               D.sheared_laplacian()):
        vals = op.apply(f, pts)
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


def test_conjugation_with_identity_map():
    ident = D.CoordMap((D.Z, D.Y, D.X), (D.Z, D.Y, D.X))
    f = GaussianBump((0, 0, 0), 1.0)
    pts = rng.normal(size=(10, 3))
    a = D.conjugate_apply(ident, D.lewy(), f, pts)
    b = D.lewy().apply(f, pts)
    assert np.max(np.abs(a - b)) < 1e-13


def test_lewy_conjugation_identity():
    corpus = standard_corpus(rng)
    pts = rng.uniform(-1.2, 1.2, size=(40, 3))
    hb = D.shear_reflect_map()
    err = D.verify_identity(
        lambda f, p: D.conjugate_apply(hb, D.cauchy_riemann(), f, p),
        lambda f, p: D.lewy_conjugate_true().apply(f, p),
        corpus, pts)
    assert err < 1e-9
    # as displayed, with reflected-argument evaluation on both sides
    err2 = D.verify_identity(
        lambda f, p: D.conjugate_apply(hb, D.cauchy_riemann(),
                                       f, np.asarray(p) * [1, 1, -1]),
        D.reflected_eval(D.lewy(), (1, 1, -1)),
        corpus, pts)
    assert err2 < 1e-9


def test_mutation_is_detected():
    corpus = standard_corpus(rng)
    pts = rng.uniform(-1.2, 1.2, size=(40, 3))
    hb = D.shear_reflect_map()
    wrong = D.lewy_conjugate_true() + D.PolyDiffOp(
        {(1, 0, 0): D.Poly3({(0, 1, 0): -0.1})})
    err = D.verify_identity(
        lambda f, p: D.conjugate_apply(hb, D.cauchy_riemann(), f, p),
        lambda f, p: wrong.apply(f, p), corpus, pts)
    assert not err < 1e-9
    assert err > 1e-3


def test_verify_identity_reports_a_nan_discrepancy():
    # a NaN from one corpus function between finite errors must not vanish
    gen = np.random.default_rng(404)
    corpus = standard_corpus(gen)[:3]
    pts = gen.uniform(-1.2, 1.2, size=(5, 3))
    lewy = D.lewy()

    def off_by_one_then_nan(f, p):
        return lewy.apply(f, p) + (np.nan if f is corpus[1] else 1.0)

    err = D.verify_identity(lambda f, p: lewy.apply(f, p),
                            off_by_one_then_nan, corpus, pts)
    assert np.isnan(err)


def test_four_factor_conjugation_and_commutators():
    corpus = standard_corpus(rng)[:4]
    pts = rng.uniform(-1.2, 1.2, size=(25, 3))
    hb = D.shear_reflect_map()
    four = D.cr_pair_R() @ D.cr_pair_R_star() @ D.cr_pair_R_star() @ D.cr_pair_R()
    p1 = D.hormander_P_bar().coeff_reflect(sx=-1)
    p2 = D.hormander_P().coeff_reflect(sx=-1)
    err = D.verify_identity(
        lambda f, p: D.conjugate_apply(hb, four, f, p),
        lambda f, p: (p1 @ p2 @ p2 @ p1).apply(f, p), corpus, pts)
    assert err < 1e-9
    # the conjugated factors commute; the displayed factors do not
    assert p1 @ p2 == p2 @ p1
    pd, pbd = D.hormander_P(), D.hormander_P_bar()
    comm = pd @ pbd - pbd @ pd
    assert comm == D.PolyDiffOp({(1, 0, 0): D.Poly3.const(8.0j)})


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
    assert D.lie_bracket(X, Y) == D.PolyVectorField(2.0 * D.ONE, D.ZERO, D.ZERO)
    zero = D.PolyVectorField(D.ZERO, D.ZERO, D.ZERO)
    assert D.lie_bracket(Z, X) == zero
    assert D.lie_bracket(Z, Y) == zero
    assert D.lie_bracket(X, X) == zero


def test_hormander_rank():
    X, Y = D.vf_x(), D.vf_y()
    for _ in range(20):
        p = rng.normal(size=3)
        assert D.hormander_rank([X, Y], p, depth=2) == 3
        assert D.hormander_rank([X, Y], p, depth=1) == 2


def test_squares_operators():
    # X^2 + Y^2 has no dz^2-free certificate; just pin the expansions
    xo, yo, zo = (v.as_diffop() for v in (D.vf_x(), D.vf_y(), D.vf_z()))
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
    assert np.max(np.abs(derived.values(pts) - op.apply(pg, pts))) < 1e-12


# ---------------------------------------------------------------------------
# DSL
# ---------------------------------------------------------------------------


def test_dsl_parse_known_operator():
    s = "(-1)*dx + (-i)*dy + (-2*y)*dz + (2*i*x)*dz"
    assert D.parse_op(s) == D.lewy()


def test_dsl_roundtrip_canonical():
    for op in (D.lewy(), D.sheared_laplacian(), D.hormander_Q4(),
               D.first_order_invariant()):
        text = D.format_op(op)
        assert D.parse_op(text) == op


def test_dsl_powers_and_errors():
    assert D.parse_op("y^2*dz*dz") == D.PolyDiffOp({(2, 0, 0): D.Y * D.Y})
    with pytest.raises(ValueError):
        D.parse_op("q*dz")
    with pytest.raises(ValueError):
        D.parse_op("(2*dz")
