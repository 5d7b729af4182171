"""Combined transforms along Iwasawa coordinates: the K/N/A transform on the
special linear group (and its symplectic subgroup), the semidirect-product
transform with a Euclidean translation part, lift maps and their invariances,
and Plancherel checks.

L2 norms on the group side use the product coordinate measure
dk . dn . dt(logA), under which the factorized transform satisfies the
Plancherel identity by Fubini.  The primary evaluation path is separable
functions u(k) v(n) w(t); a nested-quadrature path exists for spot checks of
the factorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import peterweyl as pw
from .corpus import GaussProduct
from .quadrature import FACTOR_COUNT, EulerQuadSO4, U2Quad, factor_pairing

__all__ = [
    "SeparableKNAFunction", "KNASpectrum", "plancherel_sl4_check",
    "semidirect_mul", "affine_embed",
    "lift_upsilon", "lift_q",
    "upsilon_invariance_error", "q_lift_invariance_error",
    "nested_transform_oracle",
]


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
    one-dimensional Euclidean spectra for the unipotent part (xi) and the
    diagonal part (lambda)."""

    k_part: pw.CompactSpectrum
    n_spectra: list
    a_spectra: list

    def value(self, label, n_idx, a_idx) -> np.ndarray:
        """Transform value at one spectral grid point: the label matrix scaled
        by the scalar Euclidean factors."""
        scal = 1.0 + 0.0j
        for s, i in zip(self.n_spectra + self.a_spectra, (*n_idx, *a_idx)):
            scal *= s.values[i]
        return scal * self.k_part.coeffs[label]


# (dim N, dim A) and the translation-factor dims each compact group takes
_FACTOR_DIMS = {EulerQuadSO4: ((6, 3), (None, 4)), U2Quad: ((4, 2), (None,))}


def plancherel_sl4_check(f: SeparableKNAFunction, quad, count=FACTOR_COUNT):
    """The two sides of the Plancherel identity of the factorized transform
    T F f(lambda, xi, label) = Tu(label) Fv(xi) Fw(lambda) (times Fr(eta)
    with a translation factor), and that transform, as the tuple lhs, rhs,
    spectrum: ||f||^2 over dk dn dt against the sum over the labels up to
    the band limit of quad of weighted Hilbert-Schmidt masses with
    (2 pi)^{-1} per Euclidean axis on the spectral side.  Each side is a
    product by Fubini: the compact check on u times one 1-D Euclidean
    identity per axis.  u is synthesized once on the nodes of quad, and
    the 1-D factors are paired with themselves by
    quadrature.factor_pairing.  The character of the diagonal part is the
    Euclidean phase exp(-i lambda . t) in the logA chart.

    The type of quad picks the group.  An SO(4) rule is SL(4): dim N = 6 and
    dim A = 3, (2 pi)^{-9}, or with a translation factor of dim 4 the
    semidirect product with R^4, (2 pi)^{-13}.  A U(2) rule is the
    symplectic restriction: dim N = 4 and dim A = 2, (2 pi)^{-6}, and no
    translation factor.  Any other combination is a ValueError."""
    dims = (f.v.dim, f.w.dim, None if f.r is None else f.r.dim)
    na, r_dims = _FACTOR_DIMS.get(type(quad), (None, ()))
    if dims[:2] != na or dims[2] not in r_dims:
        raise ValueError(f"{type(quad).__name__} takes no factors of dims "
                         f"(N, A, translation) = {dims}")
    uvals = pw.synthesize(f.u, quad)
    k_lhs, k_rhs, k_spec = pw.compact_plancherel_check(uvals, quad)
    fs = sum((g.factors for g in (f.v, f.w, f.r) if g is not None), ())
    norm, spectral, out = factor_pairing(fs, fs, count)
    spec = KNASpectrum(k_spec, out[:na[0]], out[na[0]:sum(na)])
    return k_lhs * norm.real, k_rhs * spectral.real, spec


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

_ORACLE_ENTRIES = 1 << 17  # values a black-box block holds, about 2 MiB


def nested_transform_oracle(fn, quad, label, n_spectra, a_spectra,
                            n_freq_idx, a_freq_idx):
    """Brute-force transform values at S spectral points, treating fn as an
    opaque function of (compact node pair, unipotent point, diagonal point):

      sum over nodes of w_k rep(k^{-1}) fn(k, n, t) e^{-i xi.n} e^{-i lam.t}

    with the same discrete measures the factorized path uses, iterated as a
    nested sum: compact node pairs outside, the (n, t) product grid inside.
    The points and frequencies are those of the 1-D spectra of the
    factorized path (KNASpectrum.n_spectra, .a_spectra); only their grids
    and frequencies are read.  The points are given by (S, dn) and (S, dt)
    frequency index arrays, and the values come back as (S, d, d).
    fn(npts, tpts) takes the grid points ((Nn, dn), (Nt, dt)) once and
    returns at(el, er), which maps node stacks ((P, 3), (P, 3)) to (P, Nn,
    Nt) values, on equal blocks of about _ORACLE_ENTRIES values and never
    one pair alone while there are two (a fixed step can leave one in the
    last block, and a (1, Nn Nt) block goes through a dot product, not a
    matrix-vector product, and rounds differently).
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

    def freqs(grids, idx):
        return np.array([g.axes[0].freqs()[i] for g, i in zip(grids, idx)])

    # one pair-phase row per point, raveled like the (Nn, Nt) values
    phases = [np.outer(np.exp(-1j * npts @ freqs(n_grids, n)),
                       np.exp(-1j * tpts @ freqs(a_grids, a))).ravel()
              for n, a in zip(n_freq_idx, a_freq_idx)]

    su2 = quad.su2
    el = np.repeat(su2.euler, su2.node_count, axis=0)
    er = np.tile(su2.euler, (su2.node_count, 1))
    w = np.outer(su2.weights, su2.weights).ravel()
    size = npts.shape[0] * tpts.shape[0]
    parts = max(1, min(-(-w.size * size // _ORACLE_ENTRIES), w.size // 2))
    sums = [[] for _ in phases]
    at = fn(npts, tpts)
    for bl, br in zip(np.array_split(el, parts), np.array_split(er, parts)):
        block = at(bl, br).reshape(-1, size)
        for s, phase in zip(sums, phases):
            s.append(block @ phase)
        del block  # one block live at a time
    rep = pw.so4_rep(label, el, er)
    # sum_p w s rep(k_p)^{-1} = conj(sum_p conj(w s) rep(k_p))^T: no
    # conjugated copy of the representation stack
    return np.stack([
        np.einsum("p,pij->ji", (w * np.concatenate(s)).conj(), rep).conj()
        for s in sums]) * n_w * t_w
