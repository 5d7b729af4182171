"""Group laws, embeddings, Iwasawa decomposition, modulus function."""

import numpy as np
import pytest

from lgha import groups as G

rng = np.random.default_rng(101)


def _nil_to_L(p):
    """N inside L: (x6, x5, x4) block and (t3, t2, t1) = (x3, x2, x1)."""
    out = np.zeros(p.shape[:-1] + (9,))
    out[..., [0, 1, 2, 5, 6, 8]] = p[..., [5, 4, 3, 2, 1, 0]]
    return out


def test_nil_identity_and_inverse():
    p = rng.uniform(-2, 2, size=6)
    e = np.zeros(6)
    assert np.allclose(G.nil_mul(e, p), p, atol=0)
    assert np.allclose(G.nil_mul(G.nil_inv(p), p), e, atol=1e-14)
    assert np.allclose(G.nil_inv(e), e, atol=0)


def test_nil_inverse_equals_copying_form_bit_for_bit():
    p = np.random.default_rng(1011).uniform(-3, 3, size=(500, 6))
    keep = p.copy()
    old = -p.copy()
    old[..., 2] += p[..., 0] * p[..., 1]
    old[..., 4] += p[..., 1] * p[..., 3]
    old[..., 5] += p[..., 0] * p[..., 4] + p[..., 2] * p[..., 3] \
        - p[..., 0] * p[..., 1] * p[..., 3]
    assert np.array_equal(G.nil_inv(p), old)
    assert np.array_equal(p, keep)


def test_nil_law_matches_matrix_product():
    p = rng.uniform(-2, 2, size=(500, 6))
    q = rng.uniform(-2, 2, size=(500, 6))
    lhs = G.nil_embed(G.nil_mul(p, q))
    rhs = G.nil_embed(p) @ G.nil_embed(q)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_nil_inverse_matches_matrix_inverse():
    p = rng.uniform(-2, 2, size=(200, 6))
    inv = G.nil_embed(G.nil_inv(p))
    for i in range(200):
        assert np.max(np.abs(inv[i] - np.linalg.inv(G.nil_embed(p[i])))) < 1e-12


def test_L_law_restricted_to_nil_subgroup():
    p = rng.uniform(-2, 2, size=(300, 6))
    q = rng.uniform(-2, 2, size=(300, 6))
    prod = G.L_mul(_nil_to_L(p), _nil_to_L(q))
    assert np.max(np.abs(prod - _nil_to_L(G.nil_mul(p, q)))) < 1e-12


def test_L_twisted_block_is_the_N_matrix():
    p = rng.uniform(-2, 2, size=(300, 6))
    X = _nil_to_L(p)
    X[:, [3, 4, 7]] = rng.uniform(-2, 2, size=(300, 3))  # they do not enter
    assert np.array_equal(G.L_embed_twisted(X), G.nil_embed(p))


def _literal(shape, slots):
    """The identity stack with each (i, j): values entry of slots written."""
    m = np.zeros(shape + (4, 4))
    m[..., range(4), range(4)] = 1.0
    for (i, j), v in slots.items():
        m[..., i, j] = v
    return m


def test_derived_charts_equal_their_literal_slots_bit_for_bit():
    gen = np.random.default_rng(1013)
    z, y, x, t = gen.uniform(-3, 3, size=(4, 200))
    assert np.array_equal(
        G.heis_embed(np.stack([z, y, x], axis=-1)),
        _literal(z.shape, {(0, 1): x, (0, 2): z, (0, 3): y, (1, 2): y,
                           (3, 2): -x}))
    assert np.array_equal(
        G.spn_matrix_block(np.stack([x, y, z, t], axis=-1)),
        _literal(z.shape, {(0, 1): x, (0, 2): y, (0, 3): z,
                           (1, 2): z - x * t, (1, 3): t, (3, 2): -x}))
    n12, n13, n23, n14 = z, y, x, t
    assert np.array_equal(
        G.sp4_n_chart(np.stack([n12, n13, n23, n14], axis=-1)),
        _literal(z.shape, {(0, 1): n12, (0, 2): n13, (0, 3): n14,
                           (1, 2): n23, (1, 3): n13 - n12 * n23,
                           (2, 3): -n12}))


@pytest.mark.parametrize("chart,n", [(G.nil_embed, 6), (G.L_embed_twisted, 9),
                                     (G.heis_embed, 3),
                                     (G.spn_matrix_block, 4),
                                     (G.sp4_n_chart, 4)])
def test_charts_reject_a_wrong_coordinate_count(chart, n):
    for wrong in (n - 1, n + 1):
        with pytest.raises(ValueError):
            chart(np.arange(float(wrong)))
        with pytest.raises(ValueError):
            chart(np.zeros((3, wrong)))


def test_L_abelian_part_is_direct_factor():
    X = rng.uniform(-2, 2, size=(300, 9))
    Y = rng.uniform(-2, 2, size=(300, 9))
    Z = G.L_mul(X, Y)
    assert np.max(np.abs(Z[:, [3, 4, 7]] - X[:, [3, 4, 7]] - Y[:, [3, 4, 7]])) == 0.0


def test_heis_identity_inverse_and_embedding():
    p = rng.uniform(-2, 2, size=3)
    e = np.zeros(3)
    assert np.allclose(G.heis_mul(e, p), p)
    assert np.allclose(G.heis_mul(-p, p), e, atol=1e-15)
    q = rng.uniform(-2, 2, size=(1000, 3))
    r = rng.uniform(-2, 2, size=(1000, 3))
    lhs = G.heis_embed(G.heis_mul(q, r))
    rhs = G.heis_embed(q) @ G.heis_embed(r)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_heis_embedding_is_block_symplectic():
    p = rng.uniform(-2, 2, size=(50, 3))
    for m in G.heis_embed(p):
        assert G.symplectic_error(m, G.SP_FORM_BLOCK) < 1e-12


def test_spn_embed_identity_and_symplectic():
    assert np.array_equal(G.spn_matrix_block(np.zeros(4)), np.eye(4))
    p = rng.uniform(-2, 2, size=4)
    assert G.symplectic_error(G.spn_matrix_block(p), G.SP_FORM_BLOCK) < 1e-12


def test_spn_product_pattern():
    p = rng.uniform(-2, 2, size=4)
    q = rng.uniform(-2, 2, size=4)
    prod = G.spn_matrix_block(p) @ G.spn_matrix_block(q)
    assert abs(prod[2, 0]) == 0 and abs(prod[2, 1]) == 0
    assert abs(prod[3, 0]) == 0 and abs(prod[3, 1]) == 0
    assert np.allclose(np.diag(prod), 1.0)
    # closed-form law reproduces the product
    assert np.max(np.abs(G.spn_matrix_block(G.spn_mul(p, q)) - prod)) < 1e-12


def test_symplectic_forms_related_by_basis_swap():
    P = np.eye(4)[[0, 1, 3, 2]]
    assert np.array_equal(P @ G.SP_FORM_BLOCK @ P.T, G.SP_FORM)
    g = G.random_sp4(rng.standard_normal(10))
    blocked = P @ g @ P.T
    assert G.symplectic_error(blocked, G.SP_FORM_BLOCK) < 1e-12


def test_iwasawa_identity():
    for m in G.iwasawa_decompose(np.eye(4)):
        assert np.allclose(m, np.eye(4))


def test_iwasawa_reconstruction_sl4():
    g = G.random_sl4(rng.standard_normal((200, 4, 4)))
    k, a, n = G.iwasawa_decompose(g)
    # factor tags validated on return
    assert np.max(np.abs(k @ a @ n - g)) < 1e-10


def test_iwasawa_roundtrip_on_factors():
    g = G.random_sl4(rng.standard_normal((4, 4)))
    k, a, n = G.iwasawa_decompose(g)
    k2, a2, n2 = G.iwasawa_decompose(k @ a @ n)
    assert np.max(np.abs(k2 - k)) < 1e-10
    assert np.max(np.abs(a2 - a)) < 1e-10
    assert np.max(np.abs(n2 - n)) < 1e-10


def test_iwasawa_sp4_factors_symplectic():
    g = G.random_sp4(rng.standard_normal((200, 10)))
    k, a, n = G.iwasawa_decompose(g)
    assert np.max(np.abs(k @ a @ n - g)) < 1e-10
    for m in (k, a, n):
        assert G.symplectic_error(m) < 1e-10


def test_iwasawa_moderate_conditioning():
    # spread diagonal ~ e^{+-3.5} gives condition numbers around 1e3
    t = np.array([3.5, -1.0, 0.5])
    a = np.diag(np.exp(np.concatenate([t, [-t.sum()]])))
    g = G.random_so4(rng.standard_normal((4, 4))) @ a \
        @ G.nil_embed(rng.uniform(-1, 1, 6))
    k, a, n = G.iwasawa_decompose(g)
    assert np.max(np.abs(k @ a @ n - g)) < 1e-9


def test_near_singular_raises():
    bad = np.eye(4)
    bad[:, 1] = bad[:, 0]  # rank deficient
    with pytest.raises(G.NearSingular):
        G.iwasawa_decompose(bad)


def test_matrix_element_validation():
    with pytest.raises(ValueError):
        G.check_group(2 * np.eye(4), "SL4")
    with pytest.raises(G.SymplecticViolation):
        G.check_group(np.diag([2.0, 1.0, 0.5, 1.0]), "SP4")
    m = np.eye(4)
    m[1, 0] = 1e-14
    with pytest.raises(ValueError):
        G.check_group(m, "UpperUnipotent")


_TAG_ERRORS = {"SL4": ValueError, "SP4": G.SymplecticViolation,
               "SO4": ValueError, "UpperUnipotent": ValueError,
               "DiagPositive": ValueError}


@pytest.mark.filterwarnings("ignore:invalid value encountered in det")
@pytest.mark.parametrize("tag", sorted(_TAG_ERRORS))
def test_nan_matrix_fails_every_group_check(tag):
    # each test reads not (err <= tol), so a NaN entry cannot pass
    with pytest.raises(_TAG_ERRORS[tag]):
        G.check_group(np.full((3, 4, 4), np.nan), tag)
    m = np.eye(4)
    m[0, 3] = np.nan
    with pytest.raises(_TAG_ERRORS[tag]):
        G.check_group(m, tag)


def test_nan_matrix_has_no_iwasawa_factors():
    with pytest.raises(G.NearSingular):
        G.iwasawa_decompose(np.full((4, 4), np.nan))
    g = np.stack([np.eye(4)] * 3)
    g[1, 2, 2] = np.nan
    with pytest.raises(G.NearSingular):
        G.iwasawa_decompose(g)


def test_check_group_rejects_a_stack_with_one_bad_matrix():
    gen = np.random.default_rng(1013)
    for tag, good in (("SL4", G.random_sl4(gen.standard_normal((5, 4, 4)))),
                      ("SP4", G.random_sp4(gen.standard_normal((5, 10)))),
                      ("SO4", G.random_so4(gen.standard_normal((5, 4, 4)))),
                      ("UpperUnipotent", G.nil_embed(gen.normal(size=(5, 6)))),
                      ("DiagPositive", np.stack([np.eye(4)] * 5))):
        assert np.array_equal(G.check_group(good, tag), good)
        bad = good.copy()
        bad[3] = np.diag([2.0, 1.0, 1.0, 1.0]) @ bad[3]
        with pytest.raises(_TAG_ERRORS[tag]):
            G.check_group(bad, tag)
    with pytest.raises(ValueError):
        G.check_group(np.eye(4), "GL4")


@pytest.mark.parametrize("sampler, shape", [(G.random_sl4, (4, 4)),
                                            (G.random_sp4, (10,)),
                                            (G.random_so4, (4, 4))])
def test_sampler_on_a_stack_equals_its_slices(sampler, shape):
    z = np.random.default_rng(1012).standard_normal((7,) + shape)
    stacked = sampler(z)
    assert stacked.shape == (7, 4, 4)
    for zi, gi in zip(z, stacked):
        assert np.array_equal(sampler(zi), gi)


def _rel_err(got, want):
    """Largest entry of |got - want| over the largest of |want|, per matrix."""
    return (np.max(np.abs(got - want), axis=(-2, -1))
            / np.max(np.abs(want), axis=(-2, -1)))


def test_expm_matches_scipy_on_the_drawn_algebras():
    """The draws of random_sl4 (traceless 0.5 z) and random_sp4 (0.4 z in
    the symplectic algebra), against scipy.linalg.expm."""
    from scipy.linalg import expm
    gen = np.random.default_rng(1015)
    x = 0.5 * gen.standard_normal((2000, 4, 4))
    x -= np.trace(x, axis1=-2, axis2=-1)[:, None, None] / 4.0 * np.eye(4)
    w = 0.4 * gen.standard_normal((2000, 10))
    y = (w @ G._SP4_BASIS.reshape(10, 16)).reshape(2000, 4, 4)
    for a in (x, y):
        assert np.max(_rel_err(G._expm(a), expm(a))) <= 1e-13


def _scaled_to_norms(a, norms):
    """The matrices a scaled to the given 1-norms (largest column sum)."""
    return a * (norms / np.abs(a).sum(axis=-2).max(axis=-1))[:, None, None]


@pytest.mark.parametrize("family", ["nilpotent", "symmetric", "antisymmetric"])
def test_expm_up_to_norm_50(family):
    """1-norms from 0 to 50, so that matrices are scaled by up to 2^-4 and
    squared four times.  A strictly upper triangular matrix has the finite
    series I + N + N^2/2 + N^3/6, also checked against scipy.linalg.expm; a
    symmetric or antisymmetric one has the spectral formula of its
    eigendecomposition.  (At these norms scipy's expm itself differs from
    a 40-digit reference by up to 5e-12 on symmetric and general matrices,
    where _expm stays within 4e-14, so it is the oracle only for N.)"""
    from scipy.linalg import expm
    gen = np.random.default_rng(1016)
    norms = np.linspace(0.0, 50.0, 801)[1:]
    a = gen.standard_normal((800, 4, 4))
    assert norms[-1] > 8 * G._THETA13  # so the last matrices have s = 4
    if family == "nilpotent":
        a = _scaled_to_norms(np.triu(a, 1), norms)
        a2 = a @ a
        want = np.eye(4) + a + a2 / 2 + a2 @ a / 6
        assert np.max(_rel_err(G._expm(a), expm(a))) <= 1e-13
    elif family == "symmetric":
        a = _scaled_to_norms(a + np.swapaxes(a, -1, -2), norms)
        lam, v = np.linalg.eigh(a)
        want = (v * np.exp(lam)[:, None, :]) @ np.swapaxes(v, -1, -2)
    else:
        a = _scaled_to_norms(a - np.swapaxes(a, -1, -2), norms)
        lam, v = np.linalg.eigh(1j * a)  # eigenvalues of a are -i lam
        want = ((v * np.exp(-1j * lam)[:, None, :])
                @ np.conj(np.swapaxes(v, -1, -2))).real
    assert np.max(_rel_err(G._expm(a), want)) <= 1e-13


def test_expm_of_zero_and_of_a_diagonal():
    """exp(0) is the identity exactly, on a stack and on one matrix, and a
    diagonal matrix gives diag(exp(d)) within 4 units in the last place,
    with zeros off the diagonal."""
    assert np.array_equal(G._expm(np.zeros((3, 4, 4))), np.stack([np.eye(4)] * 3))
    assert np.array_equal(G._expm(np.zeros((4, 4))), np.eye(4))
    d = np.random.default_rng(1017).uniform(-1.0, 1.0, (500, 4))
    e = G._expm(d[..., None] * np.eye(4))
    diag = np.diagonal(e, axis1=-2, axis2=-1)
    assert np.all(np.abs(diag - np.exp(d)) <= 4 * np.spacing(np.exp(d)))
    assert np.array_equal(e, diag[..., None] * np.eye(4))


def test_iwasawa_on_a_stack_equals_its_slices():
    gen = np.random.default_rng(1014)
    g = np.concatenate([G.random_sl4(gen.standard_normal((4, 4, 4))),
                        G.random_sp4(gen.standard_normal((3, 10)))])
    stacked = G.iwasawa_decompose(g.reshape(7, 1, 4, 4))
    for i in range(7):
        for m, s in zip(G.iwasawa_decompose(g[i]), stacked):
            assert np.max(np.abs(m - s[i, 0])) <= 1e-15


def test_modulus_factor_values():
    assert G.modulus_factor(np.zeros(3)) == 1.0
    assert G.modulus_factor(np.array([np.log(2.0), 0.0, 0.0])) == pytest.approx(64.0)


def test_modulus_factor_is_conjugation_jacobian():
    for _ in range(25):
        t = rng.uniform(-1, 1, size=3)
        a = np.diag(np.exp(np.concatenate([t, [-t.sum()]])))
        ainv = np.diag(1.0 / np.diag(a))
        h = 1e-6
        jac = np.zeros((6, 6))
        for i in range(6):
            e = np.zeros(6)
            e[i] = h
            up = G.nil_from_matrix(a @ G.nil_embed(e) @ ainv)
            dn = G.nil_from_matrix(a @ G.nil_embed(-e) @ ainv)
            jac[:, i] = (up - dn) / (2 * h)
        assert abs(np.linalg.det(jac)) == pytest.approx(G.modulus_factor(t),
                                                        rel=1e-8)


def test_sp4_algebra_dimensions():
    assert len(G.sp4_algebra_basis()) == 10
    assert G.sp4_iwasawa_dimension_audit() == (4, 2, 4)
    # the block form is not compatible with the triangular flag
    assert G.sp4_iwasawa_dimension_audit(G.SP_FORM_BLOCK)[2] == 3

