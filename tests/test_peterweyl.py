"""Wigner matrices, SO(4) and U(2) representations, compact transform."""

import numpy as np
import pytest

from lgha import peterweyl as pw
from lgha.quadrature import (SU2Quad, U2Quad, so4_quadrature, su2_quadrature,
                             u2_quadrature)

rng = np.random.default_rng(303)


def _rel(res):
    """Relative error of a Plancherel check's two sides, res[:2]."""
    lhs, rhs = res[:2]
    return abs(lhs - rhs) / abs(lhs)


def test_wigner_d_trivial_cases():
    assert np.allclose(pw.wigner_d(0, 1.234), [[1.0]])
    assert np.allclose(pw.wigner_D(0, 0.3, 0.8, 2.0), [[1.0]])
    for j in (0.5, 1, 2):
        d = int(2 * j) + 1
        assert np.max(np.abs(pw.wigner_D(j, 0.0, 0.0, 0.0) - np.eye(d))) < 1e-14


def test_wigner_d_matches_closed_form():
    for j in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
        for beta in rng.uniform(0, np.pi, size=20):
            assert np.max(np.abs(pw.wigner_d(j, beta)
                                 - pw.wigner_d_reference(j, beta))) < 1e-12


def test_wigner_D_unitary():
    for j in (0.5, 1.5, 2.0):
        d = pw.wigner_D(j, rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi),
                        rng.uniform(0, 4 * np.pi))
        assert np.max(np.abs(d @ d.conj().T - np.eye(d.shape[0]))) < 1e-12


def test_euler_roundtrip_including_poles():
    cases = [(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi),
              rng.uniform(0, 4 * np.pi)) for _ in range(100)]
    cases += [(1.0, 0.0, 2.0), (0.5, np.pi, 1.0), (0.0, 1e-9, 3.0)]
    for e in cases:
        u = pw.su2_from_euler(e)
        e2 = pw.euler_from_su2(u)
        assert np.max(np.abs(pw.su2_from_euler(e2) - u)) < 1e-9


def _euler_from_su2_loop(u):
    """One SU(2) element at a time, wrapping alpha with while loops: the
    reference for the batched euler_from_su2."""
    c = abs(u[0, 0])
    beta = 2.0 * np.arctan2(abs(u[1, 0]), c)
    if abs(u[1, 0]) < 1e-14:
        return 0.0, 0.0, (-2.0 * np.angle(u[0, 0])) % (4.0 * np.pi)
    if c < 1e-14:
        return 0.0, np.pi, (-2.0 * np.angle(u[1, 0])) % (4.0 * np.pi)
    s = -np.angle(u[0, 0])
    t = np.angle(u[1, 0])
    alpha, gamma = s + t, s - t
    flips = 0
    while alpha < 0:
        alpha += 2.0 * np.pi
        flips += 1
    while alpha >= 2.0 * np.pi:
        alpha -= 2.0 * np.pi
        flips += 1
    if flips % 2:
        gamma += 2.0 * np.pi
    return alpha, beta, gamma % (4.0 * np.pi)


def test_batched_euler_helpers_on_composed_nodes():
    # all composed elements k_a^{-1} k_b of the band-limit-1 node set, the
    # elements the convolution oracle builds
    su2 = pw.su2_from_euler(so4_quadrature(1.0).su2.euler)
    u = su2.conj().swapaxes(-1, -2)[:, None] @ su2[None, :]
    e = pw.euler_from_su2(u)
    assert e.shape == (144, 144, 3)
    assert np.max(np.abs(pw.su2_from_euler(e) - u)) < 1e-14
    alpha, beta, gamma = e[..., 0], e[..., 1], e[..., 2]
    assert np.all((alpha >= 0) & (alpha < 2 * np.pi))
    assert np.all((beta >= 0) & (beta <= np.pi))
    assert np.all((gamma >= 0) & (gamma < 4 * np.pi))
    # k_72^{-1} k_2 has alpha = -4.4e-16 before the wrap, and alpha + 2pi
    # rounds to 2pi: the second wrap step brings it to 0, where a
    # floor-based wrap would stop at 2pi
    assert -1e-15 < np.angle(u[72, 2, 1, 0]) - np.angle(u[72, 2, 0, 0]) < 0
    assert alpha[72, 2] == 0.0
    loop = np.array([[_euler_from_su2_loop(x) for x in row] for row in u])
    rounded_up = loop[..., 2] == 4 * np.pi  # the loop's gamma % 4pi
    assert rounded_up.sum() > 0
    loop[..., 2][rounded_up] = 0.0
    # alpha and gamma bit for bit; beta through the vectorized arctan2
    assert np.array_equal(e[..., [0, 2]], loop[..., [0, 2]])
    assert np.max(np.abs(e[..., 1] - loop[..., 1])) <= 1e-15
    # poles, one element at a time
    for pole in ((1.0, 0.0, 2.0), (0.5, np.pi, 1.0)):
        x = pw.su2_from_euler(pole)
        assert np.array_equal(pw.euler_from_su2(x), _euler_from_su2_loop(x))


def test_stacked_so4_rep_matches_single_points():
    el = np.stack([rng.uniform(0, 2 * np.pi, 30), rng.uniform(0, np.pi, 30),
                   rng.uniform(0, 4 * np.pi, 30)], axis=-1)
    er = el[::-1].copy()
    for lbl in pw.so4_labels(1.0):
        stack = pw.so4_rep(lbl, el, er)
        d = pw.so4_dim(lbl)
        assert stack.shape == (30, d, d)
        single = np.stack([pw.so4_rep(lbl, a, b) for a, b in zip(el, er)])
        assert np.max(np.abs(stack - single)) <= 1e-15
        kron = np.stack([np.kron(pw.wigner_D(lbl[0], *a), pw.wigner_D(lbl[1], *b))
                         for a, b in zip(el, er)])
        assert np.array_equal(single, kron)
    # broadcasting: (n, 1, 3) against (m, 3) gives every pair
    grid = pw.so4_rep((0.5, 0.5), el[:, None], er[:4])
    assert grid.shape == (30, 4, 4, 4)
    assert np.array_equal(grid[7, 2], pw.so4_rep((0.5, 0.5), el[7], er[2]))


def test_convolution_oracle_detects_swapped_product():
    quad = so4_quadrature(1.0)
    _, fvals = pw.random_band_limited(rng, quad)
    gspec, gvals = pw.random_band_limited(rng, quad)
    tf = pw.compact_transform(fvals, quad).coeffs
    tg = pw.compact_transform(gvals, quad).coeffs
    right = pw.synthesize(pw.CompactSpectrum({l: tg[l] @ tf[l] for l in tg}),
                          quad)
    swapped = pw.synthesize(pw.CompactSpectrum({l: tf[l] @ tg[l] for l in tg}),
                            quad)
    assert pw.convolution_order_error(gspec, fvals, right, quad) < 1e-12
    assert pw.convolution_order_error(gspec, fvals, swapped, quad) > 1e-9


def test_factored_label_values_equal_kronecker_traces():
    quad = so4_quadrature(1.0)
    su2 = pw.su2_from_euler(quad.su2.euler)
    # composed elements k^{-1} x at a spot node, four per factor
    el = pw.euler_from_su2(su2[:4].conj().swapaxes(-1, -2) @ su2[3])
    er = pw.euler_from_su2(su2[5:9].conj().swapaxes(-1, -2) @ su2[7])
    spec = pw.random_spectrum(rng, quad)
    for (j1, j2), c in spec.coeffs.items():
        g = pw._kron_trace(c, pw.wigner_D_stack(j1, el),
                           pw.wigner_D_stack(j2, er))
        d = pw.so4_dim((j1, j2))
        want = np.array([[d * np.trace(c @ np.kron(pw.wigner_D(j1, *a),
                                                   pw.wigner_D(j2, *b)))
                          for b in er] for a in el])
        assert g.shape == (4, 4)
        assert np.max(np.abs(g - want)) <= 1e-13


def _convolution_error_at_seed(seed):
    """The oracle on a correct convolution table, every step looked up in
    pw at call time so that a monkeypatched mutant enters."""
    quad = so4_quadrature(1.0)
    r = np.random.default_rng(seed)
    _, fvals = pw.random_band_limited(r, quad)
    gspec, gvals = pw.random_band_limited(r, quad)
    tf = pw.compact_transform(fvals, quad).coeffs
    tg = pw.compact_transform(gvals, quad).coeffs
    conv = pw.synthesize(pw.CompactSpectrum({l: tg[l] @ tf[l] for l in tg}),
                         quad)
    return pw.convolution_order_error(gspec, fvals, conv, quad)


def test_convolution_oracle_detects_alpha_sign_mutant(monkeypatch):
    assert _convolution_error_at_seed(42) < 1e-12
    real = pw.wigner_D
    monkeypatch.setattr(pw, "wigner_D", lambda j, alpha, beta, gamma: real(
        j, -np.asarray(alpha), beta, gamma))
    assert _convolution_error_at_seed(42) > 1e-9


def test_convolution_oracle_detects_transposed_coefficients(monkeypatch):
    real = pw.compact_transform
    monkeypatch.setattr(pw, "compact_transform", lambda *args: pw.CompactSpectrum(
        {l: c.T for l, c in real(*args).coeffs.items()}))
    assert _convolution_error_at_seed(42) > 1e-9


def test_batched_compact_inverse_equals_point_calls():
    quad = so4_quadrature(1.0)
    spec = pw.random_spectrum(rng, quad)
    el, er = np.moveaxis(rng.uniform(0.0, [2 * np.pi, np.pi, 4 * np.pi],
                                     size=(12, 2, 3)), 1, 0)
    batch = pw.compact_inverse(spec, el, er)
    assert batch.shape == (12,)
    single = np.array([pw.compact_inverse(spec, a, b) for a, b in zip(el, er)])
    assert type(pw.compact_inverse(spec, el[0], er[0])) is complex
    assert np.max(np.abs(batch - single)) <= 1e-14


def test_wigner_homomorphism():
    for j in (0.5, 1.0, 2.0):
        for _ in range(10):
            e1 = (rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi),
                  rng.uniform(0, 4 * np.pi))
            e2 = (rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi),
                  rng.uniform(0, 4 * np.pi))
            u12 = pw.su2_from_euler(e1) @ pw.su2_from_euler(e2)
            lhs = pw.wigner_D(j, *pw.euler_from_su2(u12))
            rhs = pw.wigner_D(j, *e1) @ pw.wigner_D(j, *e2)
            assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_so4_labels_parity():
    labels = pw.so4_labels(1.0)
    assert (0.5, 0.5) in labels and (0.0, 1.0) in labels
    assert (0.5, 1.0) not in labels
    with pytest.raises(pw.ParityViolation):
        pw.so4_rep((0.5, 1.0), (0, 0, 0), (0, 0, 0))


def test_synthesize_rejects_a_label_that_breaks_parity():
    # (0.5, 0.0) lives on SU(2) x SU(2), not on SO(4): the matrix-product
    # path rejects it as so4_rep does, instead of synthesizing values that
    # no transform returns
    c = np.array([[1.0 + 0.5j, 0.0], [0.2, -1.0]])
    with pytest.raises(pw.ParityViolation):
        pw.synthesize(pw.CompactSpectrum({(0.5, 0.0): c}), so4_quadrature(1.0))


def test_quadrature_exact_for_wigner_products():
    """orthogonality integrals evaluated with a higher-band-limit rule."""
    quad = su2_quadrature(2.0)
    for j1, j2 in ((0.5, 0.5), (1.0, 1.0), (0.5, 1.0), (0.5, 1.5)):
        d1 = pw.wigner_D_stack(j1, quad.euler)
        d2 = pw.wigner_D_stack(j2, quad.euler)
        gram = np.einsum("n,nab,ncd->abcd", quad.weights, d1, d2.conj())
        if j1 != j2:
            assert np.max(np.abs(gram)) < 1e-12
        else:
            dim = int(2 * j1) + 1
            expect = np.einsum("ac,bd->abcd", np.eye(dim), np.eye(dim)) / dim
            assert np.max(np.abs(gram - expect)) < 1e-12


def test_transform_of_constant():
    quad = so4_quadrature(1.0)
    ones = np.ones((quad.su2.node_count,) * 2)
    spec = pw.compact_transform(ones, quad)
    assert abs(spec.coeffs[(0.0, 0.0)][0, 0] - 1.0) < 1e-13
    for lbl, c in spec.coeffs.items():
        if lbl != (0.0, 0.0):
            assert np.max(np.abs(c)) < 1e-12


def test_transform_of_single_coefficient():
    quad = so4_quadrature(1.0)
    lbl = (0.5, 0.5)
    d = pw.so4_dim(lbl)
    c = np.zeros((d, d), dtype=complex)
    c[1, 2] = 1.0 / d  # synthesis gives the (2,1) matrix coefficient
    spec0 = pw.CompactSpectrum({lbl: c})
    vals = pw.synthesize(spec0, quad)
    back = pw.compact_transform(vals, quad)
    assert np.max(np.abs(back.coeffs[lbl] - c)) < 1e-12
    for other, mat in back.coeffs.items():
        if other != lbl:
            assert np.max(np.abs(mat)) < 1e-12


def test_transform_linearity():
    quad = so4_quadrature(1.0)
    _, v1 = pw.random_band_limited(rng, quad)
    _, v2 = pw.random_band_limited(rng, quad)
    a = pw.compact_transform(v1 + 2j * v2, quad)
    b1 = pw.compact_transform(v1, quad)
    b2 = pw.compact_transform(v2, quad)
    for lbl in a.coeffs:
        assert np.max(np.abs(a.coeffs[lbl] - b1.coeffs[lbl]
                             - 2j * b2.coeffs[lbl])) < 1e-12


def test_inversion_and_plancherel_band_limited():
    quad = so4_quadrature(2.0)
    spec, vals = pw.random_band_limited(rng, quad)
    res = pw.compact_plancherel_check(vals, quad)
    assert _rel(res) < 1e-10
    for _ in range(5):
        el = (rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi),
              rng.uniform(0, 4 * np.pi))
        er = (rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi),
              rng.uniform(0, 4 * np.pi))
        direct = sum(pw.so4_dim(l) * np.trace(spec.coeffs[l]
                                              @ pw.so4_rep(l, el, er))
                     for l in spec.coeffs)
        assert abs(pw.compact_inverse(res[2], el, er) - direct) < 1e-10


def test_u2_transform_roundtrip_and_plancherel():
    quad = u2_quadrature(1)
    spec, vals = pw.random_band_limited(rng, quad)
    back = pw.compact_transform(vals, quad)
    err = max(np.max(np.abs(back.coeffs[l] - spec.coeffs[l]))
              for l in spec.coeffs)
    assert err < 1e-12
    res = pw.compact_plancherel_check(vals, quad)
    assert _rel(res) < 1e-10
    assert list(res[2].coeffs) == pw.u2_labels(1)


def _so4_transform_reference(f_values, quad, labels):
    """The per-label SO(4) transform as two einsum steps, kept as a
    reference for the matrix-product compact_transform."""
    out = {}
    for j1, j2 in labels:
        d1inv = pw.wigner_D_stack(j1, quad.su2.euler).conj().transpose(0, 2, 1)
        d2inv = pw.wigner_D_stack(j2, quad.su2.euler).conj().transpose(0, 2, 1)
        a = np.einsum("n,nm,nij->mij", quad.su2.weights, f_values, d1inv)
        t = np.einsum("m,mij,mkl->ikjl", quad.su2.weights, a, d2inv)
        dd = t.shape[0] * t.shape[1]
        out[(j1, j2)] = t.reshape(dd, dd)
    return out


def _so4_synthesize_reference(spec, quad):
    """The per-label SO(4) synthesis as one five-index einsum."""
    vals = 0.0
    for (j1, j2), c in spec.coeffs.items():
        d1 = pw.wigner_D_stack(j1, quad.su2.euler)
        d2 = pw.wigner_D_stack(j2, quad.su2.euler)
        k1, k2 = d1.shape[1], d2.shape[1]
        c4 = c.reshape(k1, k2, k1, k2)
        vals = vals + k1 * k2 * np.einsum("ikjl,nji,mlk->nm", c4, d1, d2)
    return vals


def _u2_transform_reference(f_values, quad, labels):
    """The per-label U(2) transform: a phase sum over theta, then the SU(2)
    factor."""
    out = {}
    for m1, m2 in labels:
        dinv = pw.wigner_D_stack((m1 - m2) / 2.0, quad.su2.euler)
        dinv = dinv.conj().transpose(0, 2, 1)
        ph = np.exp(-1j * quad.theta * (m1 + m2)) * quad.theta_weights
        a = np.einsum("t,tn->n", ph, f_values)
        out[(m1, m2)] = np.einsum("n,n,nij->ij", quad.su2.weights, a, dinv)
    return out


def _u2_synthesize_reference(spec, quad):
    """The per-label U(2) synthesis: the phase times the trace against D."""
    vals = 0.0
    for (m1, m2), c in spec.coeffs.items():
        tr = np.einsum("ij,nji->n", c, pw.wigner_D_stack((m1 - m2) / 2.0,
                                                          quad.su2.euler))
        vals = vals + pw.u2_dim((m1, m2)) * np.outer(
            np.exp(1j * quad.theta * (m1 + m2)), tr)
    return vals


# SO(4) at band limit 1 has labels with a = b and with a != b; a transposed
# or swapped reordering, a dropped conj or dimension fails both tests there.
# Each rule's labels are those of the band limit it was built for.
_REFERENCE_CASES = (
    (so4_quadrature(1.0), pw.so4_labels(1.0), _so4_transform_reference,
     _so4_synthesize_reference),
    (u2_quadrature(1), pw.u2_labels(1), _u2_transform_reference,
     _u2_synthesize_reference),
)


def _random_node_values(gen, quad):
    shape = pw.compact_group(quad).weights.shape
    return gen.normal(size=shape) + 1j * gen.normal(size=shape)


@pytest.mark.parametrize("quad, labels, transform_ref, synthesize_ref",
                         _REFERENCE_CASES, ids=("so4", "u2"))
def test_transform_pair_matches_per_label_references(quad, labels,
                                                     transform_ref,
                                                     synthesize_ref):
    gen = np.random.default_rng(3033)
    spec = pw.random_spectrum(gen, quad)
    vals = pw.synthesize(spec, quad)
    ref = synthesize_ref(spec, quad)
    assert np.max(np.abs(vals - ref)) <= 1e-12 * np.max(np.abs(ref))
    # a node function outside the band limit, so every label sees noise
    f = _random_node_values(gen, quad)
    tf = pw.compact_transform(f, quad).coeffs
    assert list(tf) == labels
    ref = transform_ref(f, quad, labels)
    scale = max(np.max(np.abs(c)) for c in ref.values())
    for lbl, c in ref.items():
        assert np.max(np.abs(tf[lbl] - c)) <= 1e-12 * scale


@pytest.mark.parametrize("quad", [c[0] for c in _REFERENCE_CASES],
                         ids=("so4", "u2"))
def test_synthesis_is_adjoint_of_transform(quad):
    # sum_k w S(C) conj(f) = sum_labels d tr[C (Tf)^H] for any node values f
    gen = np.random.default_rng(3034)
    group = pw.compact_group(quad)
    spec = pw.random_spectrum(gen, quad)
    f = _random_node_values(gen, quad)
    lhs = np.sum(group.weights * pw.synthesize(spec, quad) * f.conj())
    tf = pw.compact_transform(f, quad).coeffs
    rhs = sum(group.dim(l) * np.trace(c @ tf[l].conj().T)
              for l, c in spec.coeffs.items())
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_random_spectrum_matches_per_label_loop():
    for quad, labels, dim in (
            (so4_quadrature(2.0), pw.so4_labels(2.0), pw.so4_dim),
            (u2_quadrature(1), pw.u2_labels(1), pw.u2_dim)):
        spec = pw.random_spectrum(np.random.default_rng(3031), quad)
        assert list(spec.coeffs) == labels
        # the per-label loop random_spectrum replaces, kept as a reference
        gen = np.random.default_rng(3031)
        for lbl in labels:
            d = dim(lbl)
            ref = (gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))) / d
            assert np.array_equal(spec.coeffs[lbl], ref)
    with pytest.raises(TypeError):
        pw.compact_group(su2_quadrature(0.5))


def test_u2_rep_well_defined_on_quotient():
    # (theta, s) and (theta + pi, -s) are one element of U(2): a synthesized
    # half-odd label takes one value at both node pairs
    e = np.array([1.1, 0.9, 2.3])
    e_neg = pw.euler_from_su2(-pw.su2_from_euler(e))
    # two nodes of equal weight integrate the constants alone: band limit 0
    su2 = SU2Quad(np.stack([e, e_neg]), np.full(2, 0.5), 0.0)
    quad = U2Quad(np.array([0.7, 0.7 + np.pi]), np.full(2, 0.5), su2)
    c = np.arange(16.0).reshape(4, 4) + 1j * np.eye(4)
    vals = pw.synthesize(pw.CompactSpectrum({(2, -1): c}), quad)
    assert abs(vals[0, 0] - vals[1, 1]) < 1e-12 * abs(vals[0, 0])
    assert abs(vals[0, 0] - vals[0, 1]) > 1e-3 * abs(vals[0, 0])


def test_u2_labels():
    labels = pw.u2_labels(1)
    assert (1, -1) in labels and (0, 0) in labels and (-1, 1) not in labels
    assert pw.u2_dim((1, -1)) == 3


def test_u2_labels_accept_an_integral_float():
    assert pw.u2_labels(1.0) == pw.u2_labels(1)
    assert all(type(m) is int for lbl in pw.u2_labels(1.0) for m in lbl)
    spec = pw.random_spectrum(np.random.default_rng(3032), u2_quadrature(1.0))
    assert list(spec.coeffs) == pw.u2_labels(1)


def test_u2_labels_reject_a_non_integral_or_negative_band_limit():
    for M in (1.5, -1, -1.0):
        with pytest.raises(ValueError, match="not a nonnegative integer"):
            pw.u2_labels(M)
