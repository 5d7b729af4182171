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
    g = G.random_sp4(rng)
    blocked = P @ g.entries @ P.T
    assert G.symplectic_error(blocked, G.SP_FORM_BLOCK) < 1e-12


def test_iwasawa_identity():
    fac = G.iwasawa_decompose(np.eye(4))
    assert np.allclose(fac.k.entries, np.eye(4))
    assert np.allclose(fac.a.entries, np.eye(4))
    assert np.allclose(fac.n.entries, np.eye(4))


def test_iwasawa_reconstruction_sl4():
    for _ in range(200):
        g = G.random_sl4(rng)
        fac = G.iwasawa_decompose(g)
        assert fac.reconstruction_error(g) < 1e-10
        # factor tags validated on construction; logA consistency:
        assert np.allclose(np.exp(fac.log_a), np.diag(fac.a.entries)[:3],
                           rtol=1e-12)


def test_iwasawa_roundtrip_on_factors():
    g = G.random_sl4(rng)
    fac = G.iwasawa_decompose(g)
    fac2 = G.iwasawa_decompose(fac.reconstruction())
    assert np.max(np.abs(fac2.k.entries - fac.k.entries)) < 1e-10
    assert np.max(np.abs(fac2.a.entries - fac.a.entries)) < 1e-10
    assert np.max(np.abs(fac2.n.entries - fac.n.entries)) < 1e-10


def test_iwasawa_sp4_factors_symplectic():
    for _ in range(200):
        g = G.random_sp4(rng)
        fac = G.iwasawa_decompose(g)
        assert fac.reconstruction_error(g) < 1e-10
        for m in (fac.k.entries, fac.a.entries, fac.n.entries):
            assert G.symplectic_error(m) < 1e-10


def test_iwasawa_moderate_conditioning():
    # spread diagonal ~ e^{+-3.5} gives condition numbers around 1e3
    t = np.array([3.5, -1.0, 0.5])
    a = np.diag(np.exp(np.concatenate([t, [-t.sum()]])))
    g = G.random_so4(rng).entries @ a @ G.nil_embed(rng.uniform(-1, 1, 6))
    fac = G.iwasawa_decompose(g)
    assert fac.reconstruction_error(g) < 1e-9


def test_near_singular_raises():
    bad = np.eye(4)
    bad[:, 1] = bad[:, 0]  # rank deficient
    with pytest.raises(G.NearSingular):
        G.iwasawa_decompose(bad)


def test_matrix_element_validation():
    with pytest.raises(ValueError):
        G.MatrixElement(2 * np.eye(4), "SL4")
    with pytest.raises(G.SymplecticViolation):
        G.MatrixElement(np.diag([2.0, 1.0, 0.5, 1.0]), "SP4")
    m = np.eye(4)
    m[1, 0] = 1e-14
    with pytest.raises(ValueError):
        G.MatrixElement(m, "UpperUnipotent")


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

