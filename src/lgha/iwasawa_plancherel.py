"""Combined transforms along Iwasawa coordinates: the K/N/A transform on the
special linear group (and its symplectic subgroup), the semidirect-product
transform with a Euclidean translation part, lift maps and their invariances,
and Plancherel checks.

L2 norms on the group side use the product coordinate measure
dk . dn . dt(logA), under which the factorized transform satisfies the
Plancherel identity by Fubini.  The primary evaluation path is separable
functions u(k) v(n) w(t); a budget-capped nested-quadrature path exists for
spot checks of the factorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import peterweyl as pw
from .corpus import GaussProduct
from .quadrature import BLOCK_ENTRIES, EulerQuadSO4, U2Quad, factor_plancherel

__all__ = [
    "SeparableKNAFunction", "KNASpectrum", "plancherel_sl4_check",
    "sp4_n_chart", "sp4_restrict_check",
    "semidirect_mul", "affine_embed", "plancherel_semidirect_check",
    "lift_upsilon", "lift_q",
    "upsilon_invariance_error", "q_lift_invariance_error",
    "nested_transform_oracle",
]

N_AXES = ("x1", "x2", "x3", "x4", "x5", "x6")
A_AXES = ("t1", "t2", "t3")
R_AXES = ("v1", "v2", "v3", "v4")
# nodes per axis on which each 1-D Euclidean factor is sampled
COUNT = 64


@dataclass
class SeparableKNAFunction:
    """f(k n a) = u(k) v(n) w(t(a)), with optional translation factor r(v0)
    for the semidirect product.  u is a band-limited coefficient table on the
    compact factor, SO(4) or U(2) as the quadrature it is checked on; v, w, r
    are separable Gaussian-type products."""

    u: pw.CompactSpectrum
    v: GaussProduct
    w: GaussProduct
    r: Optional[GaussProduct] = None


@dataclass
class KNASpectrum:
    """Factorized transform: a matrix per compact label times per-axis
    one-dimensional Euclidean spectra for the unipotent part (xi), the
    diagonal part (lambda), and optionally the translation part (eta)."""

    k_part: pw.CompactSpectrum
    n_spectra: list
    a_spectra: list
    r_spectra: Optional[list] = None

    def value(self, label, n_idx, a_idx) -> np.ndarray:
        """Transform value at one spectral grid point: the label matrix scaled
        by the scalar Euclidean factors."""
        scal = 1.0 + 0.0j
        for s, i in zip(self.n_spectra, n_idx):
            scal *= s.values[i]
        for s, i in zip(self.a_spectra, a_idx):
            scal *= s.values[i]
        return scal * self.k_part.coeffs[label]


def plancherel_sl4_check(f: SeparableKNAFunction, quad, J, count=COUNT):
    """The factorized transform T F f(lambda, xi, label) = Tu(label) Fv(xi)
    Fw(lambda) (times Fr(eta) with a translation factor), and both sides of
    its Plancherel identity: ||f||^2 over dk dn dt against the label sum of
    weighted Hilbert-Schmidt masses with (2 pi)^{-1} per Euclidean axis on
    the spectral side, (2 pi)^{-9} on SL(4).  Each side is a product by
    Fubini: the compact check on u times one 1-D Euclidean identity per
    axis.  u is synthesized once on the nodes of quad, whose type picks the
    compact group, and each 1-D factor is sampled once on count nodes of its
    own suggested box.  The character of the diagonal part is the Euclidean
    phase exp(-i lambda . t) in the logA chart."""
    uvals = pw.synthesize(f.u, quad)
    compact = pw.compact_plancherel_check(uvals, quad, J)
    lhs, rhs = compact["lhs"], compact["rhs"]
    spectra = []
    for g, names in ((f.v, N_AXES), (f.w, A_AXES), (f.r, R_AXES)):
        if g is None:
            spectra.append(None)
            continue
        out = []
        for name, factor in zip(names, g.factors):
            norm, spectral, spectrum = factor_plancherel(factor, count, name)
            lhs *= norm
            rhs *= spectral
            out.append(spectrum)
        spectra.append(out)
    spec = KNASpectrum(compact["spectrum"], *spectra)
    rel = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    return {"lhs": lhs, "rhs": rhs, "rel_err": rel, "spectrum": spec}


# ---------------------------------------------------------------------------
# symplectic restriction: K = U(2), N four-dimensional, A two-dimensional
# ---------------------------------------------------------------------------


def sp4_n_chart(params) -> np.ndarray:
    """Unit upper-triangular symplectic matrices (adapted form), charted by
    the free entries (n12, n13, n23, n14); the remaining entries are
    n34 = -n12 and n24 = n13 - n12 n23."""
    p = np.asarray(params, dtype=float)
    n12, n13, n23, n14 = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    m = np.zeros(p.shape[:-1] + (4, 4))
    idx = np.arange(4)
    m[..., idx, idx] = 1.0
    m[..., 0, 1] = n12
    m[..., 0, 2] = n13
    m[..., 0, 3] = n14
    m[..., 1, 2] = n23
    m[..., 1, 3] = n13 - n12 * n23
    m[..., 2, 3] = -n12
    return m


def sp4_restrict_check(f: SeparableKNAFunction, quad: U2Quad, M: int):
    """Plancherel identity restricted to the symplectic subgroup: U(2)
    coefficients, a four-dimensional unipotent chart and a two-dimensional
    diagonal chart, with (2 pi)^{-6} on the spectral side."""
    if not isinstance(quad, U2Quad):
        raise ValueError("symplectic restriction expects a U(2) quadrature")
    if f.v.dim != 4 or f.w.dim != 2:
        raise ValueError("expected dim N = 4 and dim A = 2")
    return plancherel_sl4_check(f, quad, M)


# ---------------------------------------------------------------------------
# semidirect product with the translation group
# ---------------------------------------------------------------------------


def _apply(g, v):
    """g v for stacks of matrices g (..., 4, 4) and vectors v (..., 4)."""
    return (g @ np.asarray(v, dtype=float)[..., None])[..., 0]


def semidirect_mul(v, g, v2, g2):
    """(v, g)(v', g') = (v + g v', g g'), over stacks."""
    return np.asarray(v, dtype=float) + _apply(g, v2), g @ g2


def affine_embed(v, g) -> np.ndarray:
    """5x5 matrix oracle for the semidirect law, (..., 5, 5) for stacks
    v (..., 4) and g (..., 4, 4)."""
    v = np.asarray(v, dtype=float)
    m = np.zeros(np.broadcast_shapes(v.shape[:-1], np.shape(g)[:-2]) + (5, 5))
    m[..., :4, :4] = g
    m[..., :4, 4] = v
    m[..., 4, 4] = 1.0
    return m


def plancherel_semidirect_check(f: SeparableKNAFunction, quad: EulerQuadSO4,
                                J):
    """Plancherel on the semidirect product: thirteen Euclidean dimensions
    (4 + 6 + 3), so (2 pi)^{-13} on the spectral side."""
    if f.r is None:
        raise ValueError("needs a translation factor")
    return plancherel_sl4_check(f, quad, J)


# ---------------------------------------------------------------------------
# lifts and invariances
# ---------------------------------------------------------------------------


def lift_upsilon(f):
    """Extend f on G to G x K by U(g, k1) = f(g k1); restricting k1 to the
    identity recovers f."""

    def lifted(g, k1):
        return f(g @ k1)

    return lifted


def upsilon_invariance_error(f, g, h, k1) -> np.ndarray:
    """|U(g h, h^{-1} k1) - U(g, k1)| for h in the compact factor, one value
    per draw of the stacks g, h, k1 (..., 4, 4); f maps stacks to values."""
    lifted = lift_upsilon(f)
    return np.abs(lifted(g @ h, np.swapaxes(h, -1, -2) @ k1) - lifted(g, k1))


def lift_q(f):
    """Extension to the triple group: (v, g, h) -> f(g v, g h)."""

    def lifted(v, g, h):
        return f(_apply(g, v), g @ h)

    return lifted


def q_lift_invariance_error(f, v, g, h, q) -> np.ndarray:
    """|F(q^{-1} v, g, q^{-1} h) - F(v, g q^{-1}, h)| for the lifted F, one
    value per draw of the stacks v (..., 4) and g, h, q (..., 4, 4)."""
    lifted = lift_q(f)
    qinv = np.linalg.inv(q)
    return np.abs(lifted(_apply(qinv, v), g, qinv @ h)
                  - lifted(v, g @ qinv, h))


# ---------------------------------------------------------------------------
# nested-quadrature spot check of the factorized transform
# ---------------------------------------------------------------------------


def nested_transform_oracle(fn, quad, label, n_spectra, a_spectra,
                            n_freq_idx, a_freq_idx):
    """Brute-force transform value at one spectral point, treating fn as an
    opaque function of (compact node pair, unipotent point, diagonal point):

      sum over nodes of w_k rep(k^{-1}) fn(k, n, t) e^{-i xi.n} e^{-i lam.t}

    with the same discrete measures the factorized path uses, iterated as a
    nested sum: compact node pairs outside, the (n, t) product grid inside.
    The points and frequencies are those of the 1-D spectra of the
    factorized path (KNASpectrum.n_spectra, .a_spectra); only their grids
    and frequencies are read.  fn maps node stacks ((P, 3), (P, 3)) and the
    grid points ((Nn, dn), (Nt, dt)) to a (P, Nn, Nt) value array; it is
    called on blocks of node pairs of about BLOCK_ENTRIES values each.
    Intended for small grids; the cost is |K|^2 x |n-grid| x |t-grid|.
    """
    n_grids = [s.grid for s in n_spectra]
    a_grids = [s.grid for s in a_spectra]
    n_mesh = np.meshgrid(*(g.axes[0].nodes() for g in n_grids), indexing="ij")
    t_mesh = np.meshgrid(*(g.axes[0].nodes() for g in a_grids), indexing="ij")
    npts = np.stack([m.ravel() for m in n_mesh], axis=-1)
    tpts = np.stack([m.ravel() for m in t_mesh], axis=-1)
    n_w = np.prod([g.axes[0].step for g in n_grids])
    t_w = np.prod([g.axes[0].step for g in a_grids])
    xi = np.array([g.axes[0].freqs()[i] for g, i in zip(n_grids, n_freq_idx)])
    lam = np.array([g.axes[0].freqs()[i] for g, i in zip(a_grids, a_freq_idx)])

    pair_phase = np.outer(np.exp(-1j * npts @ xi), np.exp(-1j * tpts @ lam))

    n_right = quad.right.node_count
    el = np.repeat(quad.left.euler, n_right, axis=0)
    er = np.tile(quad.right.euler, (quad.left.node_count, 1))
    w = np.outer(quad.left.weights, quad.right.weights).ravel()
    step = -(-BLOCK_ENTRIES // pair_phase.size)  # rounded up, at least 1
    phase = pair_phase.ravel()
    s = np.concatenate([
        fn(el[b:b + step], er[b:b + step], npts, tpts).reshape(-1, phase.size)
        @ phase for b in range(0, w.size, step)])
    # sum_p w s rep(k_p)^{-1} = conj(sum_p conj(w s) rep(k_p))^T: no
    # conjugated copy of the representation stack
    acc = np.einsum("p,pij->ji", (w * s).conj(), pw.so4_rep(label, el, er))
    return acc.conj() * n_w * t_w
