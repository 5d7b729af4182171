"""Irreducible representations of SO(4) and U(2), the compact-group Fourier
transform T, its inversion, and the Plancherel identity.

SO(4) is realized through its double cover SU(2) x SU(2): a label is a pair
(j1, j2) of half-integers and descends to SO(4) exactly when j1 + j2 is an
integer (parity rule).  The representation matrix at a node pair is the
Kronecker product of two Wigner D matrices.

U(2) is realized as (U(1) x SU(2)) / Z2: a label is an integer pair
m1 >= m2, with dimension m1 - m2 + 1, acting as the phase character
exp(i theta (m1+m2)) times D^{(m1-m2)/2}.

Both are two-factor products, so one transform and its adjoint synthesis,
matrix products over the two node sets, serve both; the pointwise
evaluations (so4_rep, compact_inverse) stay apart from them as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, sqrt
from typing import Callable, NamedTuple

import numpy as np

from .quadrature import (EulerQuadSO4, SU2Quad, U2Quad, pairwise_sum,
                         u2_band_limit)

__all__ = [
    "ParityViolation", "wigner_jy", "wigner_d", "wigner_d_reference",
    "wigner_D", "wigner_D_stack", "su2_from_euler", "euler_from_su2",
    "so4_labels", "so4_dim", "so4_rep", "CompactSpectrum",
    "compact_transform", "synthesize", "compact_inverse",
    "convolution_order_error",
    "u2_labels", "u2_dim",
    "CompactGroup", "compact_group", "compact_plancherel_check",
    "random_spectrum", "random_band_limited",
]


# node pairs (left index, right index) at which convolution_order_error
# evaluates the convolution integral
_CONV_SPOT_NODES = ((0, 0), (3, 7), (11, 5))


class ParityViolation(ValueError):
    """Label pair does not descend from the double cover to SO(4)."""


def _check_half_integer(j):
    twoj = 2 * j
    if abs(twoj - round(twoj)) > 1e-12 or j < 0:
        raise ValueError(f"j = {j} is not a nonnegative half-integer")
    return round(twoj)


def wigner_jy(j) -> np.ndarray:
    """Angular-momentum generator J_y in the basis m = j, j-1, ..., -j."""
    twoj = _check_half_integer(j)
    d = twoj + 1
    m = j - np.arange(d)
    cp = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))  # raising from m[k+1]
    jy = np.zeros((d, d), dtype=complex)
    for k in range(d - 1):
        jy[k, k + 1] = cp[k] / 2j
        jy[k + 1, k] = -cp[k] / 2j
    return jy


@lru_cache(maxsize=64)
def _jy_eig(twoj: int):
    jy = wigner_jy(twoj / 2.0)
    lam, v = np.linalg.eigh(jy)
    return lam, v


def wigner_d(j, beta) -> np.ndarray:
    """Small Wigner matrix d^j(beta) = exp(-i beta J_y), real orthogonal.

    Vectorized over beta: returns (..., d, d).
    """
    twoj = _check_half_integer(j)
    lam, v = _jy_eig(twoj)
    beta = np.asarray(beta, dtype=float)
    phase = np.exp(-1j * beta[..., None] * lam)
    return np.einsum("ab,...b,cb->...ac", v, phase, v.conj()).real


def wigner_d_reference(j, beta) -> np.ndarray:
    """Independent closed-form evaluation of d^j(beta) via the explicit
    factorial sum (kept separate from wigner_d on purpose)."""
    twoj = _check_half_integer(j)
    d = twoj + 1
    ms = [j - k for k in range(d)]
    out = np.zeros((d, d))
    cb, sb = np.cos(beta / 2.0), np.sin(beta / 2.0)
    for a, mp in enumerate(ms):
        for b, m in enumerate(ms):
            pref = sqrt(factorial(round(j + m)) * factorial(round(j - m))
                        * factorial(round(j + mp)) * factorial(round(j - mp)))
            lo = max(0, round(m - mp))
            hi = min(round(j + m), round(j - mp))
            acc = 0.0
            for k in range(lo, hi + 1):
                num = (-1.0) ** (mp - m + k)
                den = (factorial(round(j + m) - k) * factorial(k)
                       * factorial(round(mp - m) + k)
                       * factorial(round(j - mp) - k))
                acc += num / den * cb ** (twoj + round(m - mp) - 2 * k) \
                    * sb ** (round(mp - m) + 2 * k)
            out[a, b] = pref * acc
    return out


def wigner_D(j, alpha, beta, gamma) -> np.ndarray:
    """Full Wigner matrix D^j(alpha,beta,gamma) = e^{-i m' alpha} d^j e^{-i m gamma}."""
    twoj = _check_half_integer(j)
    m = j - np.arange(twoj + 1)
    d = wigner_d(j, beta)
    return np.exp(-1j * np.multiply.outer(np.asarray(alpha), m))[..., :, None] \
        * d * np.exp(-1j * np.multiply.outer(np.asarray(gamma), m))[..., None, :]


def wigner_D_stack(j, euler: np.ndarray) -> np.ndarray:
    """D^j at a (..., 3) array of Euler triples -> (..., d, d)."""
    euler = np.asarray(euler, dtype=float)
    return wigner_D(j, euler[..., 0], euler[..., 1], euler[..., 2])


# ---------------------------------------------------------------------------
# SU(2) 2x2 arithmetic (D^{1/2} is the defining representation)
# ---------------------------------------------------------------------------


def su2_from_euler(euler) -> np.ndarray:
    """SU(2) elements at a (..., 3) array of Euler triples -> (..., 2, 2)."""
    euler = np.asarray(euler, dtype=float)
    alpha, beta, gamma = euler[..., 0], euler[..., 1], euler[..., 2]
    ca, sa = np.cos(beta / 2.0), np.sin(beta / 2.0)
    u = np.empty(euler.shape[:-1] + (2, 2), dtype=complex)
    u[..., 0, 0] = ca * np.exp(-0.5j * (alpha + gamma))
    u[..., 0, 1] = -sa * np.exp(-0.5j * (alpha - gamma))
    u[..., 1, 0] = sa * np.exp(0.5j * (alpha - gamma))
    u[..., 1, 1] = ca * np.exp(0.5j * (alpha + gamma))
    return u


def euler_from_su2(u: np.ndarray) -> np.ndarray:
    """Euler triples (alpha in [0,2pi), beta in [0,pi], gamma in [0,4pi))
    reproducing a (..., 2, 2) array of SU(2) elements exactly (no sign
    ambiguity) -> (..., 3)."""
    u = np.asarray(u, dtype=complex)
    a, b = np.abs(u[..., 0, 0]), np.abs(u[..., 1, 0])
    beta = 2.0 * np.arctan2(b, a)
    s = -np.angle(u[..., 0, 0])    # (alpha+gamma)/2
    t = np.angle(u[..., 1, 0])     # (alpha-gamma)/2
    alpha = s + t                  # in [-2pi, 2pi]
    gamma = s - t
    # Wrap alpha in two steps, each shifting gamma by 2pi to keep the
    # element: alpha = -4e-16 rounds to 2pi after the first step and to 0
    # after the second, where a single floor-based step would stop at 2pi.
    low = alpha < 0
    alpha = np.where(low, alpha + 2.0 * np.pi, alpha)
    high = alpha >= 2.0 * np.pi
    alpha = np.where(high, alpha - 2.0 * np.pi, alpha)
    gamma = np.where(low != high, gamma + 2.0 * np.pi, gamma)
    # poles: only alpha+gamma (beta ~ 0) or alpha-gamma (beta ~ pi) matters
    north = b < 1e-14
    south = ~north & (a < 1e-14)
    alpha = np.where(north | south, 0.0, alpha)
    beta = np.where(north, 0.0, np.where(south, np.pi, beta))
    gamma = np.where(north, 2.0 * s, np.where(south, -2.0 * t, gamma))
    gamma = gamma % (4.0 * np.pi)
    # -1e-16 % 4pi rounds to 4pi itself, the same element as 0
    gamma = np.where(gamma < 4.0 * np.pi, gamma, 0.0)
    return np.stack([alpha, beta, gamma], axis=-1)


# ---------------------------------------------------------------------------
# SO(4) labels and representations
# ---------------------------------------------------------------------------


def _check_parity(label):
    j1, j2 = label
    if (_check_half_integer(j1) + _check_half_integer(j2)) % 2:
        raise ParityViolation(f"label {label} has half-odd j1 + j2")


def so4_dim(label) -> int:
    j1, j2 = label
    return (_check_half_integer(j1) + 1) * (_check_half_integer(j2) + 1)


def so4_labels(J):
    """All labels (j1, j2) with j1, j2 <= J and j1 + j2 integral."""
    twoJ = int(round(2 * J))
    out = []
    for a in range(twoJ + 1):
        for b in range(twoJ + 1):
            if (a + b) % 2 == 0:
                out.append((a / 2.0, b / 2.0))
    return out


def so4_rep(label, euler_left, euler_right) -> np.ndarray:
    """Representation matrices at points of the double cover: the Kronecker
    product D^{j1} otimes D^{j2}, broadcast over the leading axes of the
    (..., 3) Euler triples, so (n, 3) inputs give (n, d, d) and one point
    gives (d, d).  Well defined on SO(4) by the parity rule."""
    _check_parity(label)
    j1, j2 = label
    d1 = wigner_D_stack(j1, euler_left)
    d2 = wigner_D_stack(j2, euler_right)
    # a broadcast product, not einsum: its complex products round exactly
    # like np.kron's
    kron = d1[..., :, None, :, None] * d2[..., None, :, None, :]
    n1, n2 = d1.shape[-1], d2.shape[-1]
    return kron.reshape(kron.shape[:-4] + (n1 * n2, n1 * n2))


@dataclass
class CompactSpectrum:
    """Matrix-valued transform values Tf(label), finitely many labels."""

    coeffs: dict

    def hs_norm2_weighted(self, dim_fn) -> float:
        """sum over labels of d_label * ||Tf(label)||_HS^2."""
        return float(sum(dim_fn(lbl) * np.sum(np.abs(c) ** 2)
                         for lbl, c in self.coeffs.items()))


def compact_inverse(spec: CompactSpectrum, euler_left, euler_right):
    """Pointwise inversion f(x) = sum d tr[Tf(label) rep(x)], broadcast as in
    so4_rep: a complex at one point, (n,) values at (n, 3) Euler stacks."""
    val = sum(so4_dim(l) * np.einsum("ij,...ji->...", c, so4_rep(
        l, euler_left, euler_right)) for l, c in spec.coeffs.items())
    return complex(val) if np.ndim(val) == 0 else val


def _kron_trace(c: np.ndarray, left: np.ndarray, right: np.ndarray):
    """d tr[c (left[p] kron right[q])] at every (p, q) of an (n, a, a) and an
    (m, b, b) stack, d = a * b: with rep[(k, l), (i, j)] = left[p, k, i]
    right[q, l, j], one contraction with left, then a matrix product."""
    a, b = left.shape[-1], right.shape[-1]
    t = np.einsum("ijkl,pki->pjl", (a * b) * c.reshape(a, b, a, b), left)
    return t.reshape(-1, b * b) @ right.swapaxes(-1, -2).reshape(-1, b * b).T


def convolution_order_error(g_spec: CompactSpectrum, f_values: np.ndarray,
                            conv_values: np.ndarray, quad: EulerQuadSO4) -> float:
    """Worst |(g * f)(x) - conv_values[x]| over the spot nodes x, where

      (g * f)(x) = int g(k^{-1} x) f(k) dk

    is summed by quadrature over the node pairs k.  The composed elements
    k^{-1} x (an SU(2) product and an Euler extraction on each factor) form
    a product of a left and a right set, so each label's term of g,
    d tr[C_label rep(k^{-1} x)], is _kron_trace of its Wigner stacks on the
    two.  Neither synthesize nor the convolution theorem T(g * f) = Tg . Tf,
    which conv_values (node values) is expected to satisfy, enters.
    """
    su2 = su2_from_euler(quad.su2.euler)
    inv, w = su2.conj().swapaxes(-1, -2), quad.su2.weights
    errs = []
    for i, j in _CONV_SPOT_NODES:
        # composed elements k^{-1} x on each factor, (n, 3) each
        el, er = euler_from_su2(inv @ su2[i]), euler_from_su2(inv @ su2[j])
        val = 0.0
        for (j1, j2), c in g_spec.coeffs.items():
            g = _kron_trace(c, wigner_D_stack(j1, el), wigner_D_stack(j2, er))
            val += w @ (g * f_values) @ w
        errs.append(abs(val - conv_values[i, j]))
    return float(np.max(errs))


# ---------------------------------------------------------------------------
# U(2)
# ---------------------------------------------------------------------------


def u2_dim(label) -> int:
    m1, m2 = label
    return m1 - m2 + 1


def u2_labels(M):
    """Integer pairs m1 >= m2 with |m1|, |m2| <= M, for a nonnegative
    integral M (an integral float such as 1.0 is accepted)."""
    M = u2_band_limit(M)
    out = []
    for m1 in range(-M, M + 1):
        for m2 in range(-M, m1 + 1):
            out.append((m1, m2))
    return out


# ---------------------------------------------------------------------------
# both compact groups as two-factor products, chosen by the type of the
# quadrature: one transform and its adjoint synthesis
# ---------------------------------------------------------------------------


class CompactGroup(NamedTuple):
    """The labels up to the quadrature's band limit, dimensions, factor
    stacks and node weights of one compact group.  factors(labels) maps each
    label to its left (n_left, a, a) and right (n_right, b, b) stacks on the
    two node sets; its rep at the node pair (n, m) is left[n] kron right[m]."""

    labels: list
    dim: Callable
    factors: Callable
    weights: np.ndarray


def compact_group(quad) -> CompactGroup:
    """SO(4) for an EulerQuadSO4: D^{j1} and D^{j2} on the nodes of its one
    SU(2) rule, for labels that keep the parity rule (ParityViolation
    otherwise).  U(2) for a U2Quad: the phase exp(i theta (m1+m2)) as a
    1 x 1 stack on the theta nodes, D^{(m1-m2)/2} on the SU(2) nodes.  The
    SU(2) rule's band limit bounds the labels of both.  The one place in
    this module that tells the two groups apart;
    iwasawa_plancherel._FACTOR_DIMS also keys on the quadrature type."""
    if isinstance(quad, EulerQuadSO4):
        def factors(labels):
            for l in labels:
                _check_parity(l)
            stacks = _dstacks(quad.su2, [j for l in labels for j in l])
            return {l: (stacks[l[0]], stacks[l[1]]) for l in labels}

        w = quad.su2.weights
        return CompactGroup(so4_labels(quad.su2.band_limit), so4_dim, factors,
                            np.outer(w, w))
    if isinstance(quad, U2Quad):
        def factors(labels):
            right = _dstacks(quad.su2, [(m1 - m2) / 2.0 for m1, m2 in labels])
            return {(m1, m2): (np.exp(1j * quad.theta * (m1 + m2))[:, None, None],
                               right[(m1 - m2) / 2.0])
                    for m1, m2 in labels}

        return CompactGroup(u2_labels(quad.su2.band_limit), u2_dim, factors,
                            np.outer(quad.theta_weights, quad.su2.weights))
    raise TypeError(f"no compact group for {type(quad).__name__}")


def _dstacks(quad: SU2Quad, js):
    return {j: wigner_D_stack(j, quad.euler) for j in sorted(set(js))}


def compact_transform(f_values: np.ndarray, quad) -> CompactSpectrum:
    """Tf(label) = sum over nodes of w * f(k) * rep(k^{-1}) for every label
    up to the band limit of quad, in the order of compact_group's labels.

    f_values has shape (n_left, n_right) over the product node set.  With
    A, B the factor stacks of compact_group flattened to (n, a * a), entry
    [n, j * a + i] = left[n, j, i], each label is A^H (w f) conj(B),
    reordered to the label matrix: the adjoint of synthesize.
    """
    group = compact_group(quad)
    wf = group.weights * f_values
    out = {}
    for lbl, (left, right) in group.factors(group.labels).items():
        a, b = left.shape[-1], right.shape[-1]
        t = left.reshape(-1, a * a).conj().T @ wf @ right.reshape(-1, b * b).conj()
        out[lbl] = t.reshape(a, a, b, b).transpose(1, 3, 0, 2).reshape(a * b, a * b)
    return CompactSpectrum(out)


def synthesize(spec: CompactSpectrum, quad) -> np.ndarray:
    """f(k) = sum over labels of d * tr[C_label rep(k)] on the node set:
    d (A @ C') @ B^T per label, with A, B as in compact_transform and C' the
    label matrix reordered to them."""
    group = compact_group(quad)
    vals = np.zeros(group.weights.shape, dtype=complex)
    for lbl, (left, right) in group.factors(list(spec.coeffs)).items():
        a, b = left.shape[-1], right.shape[-1]
        c = spec.coeffs[lbl].reshape(a, b, a, b).transpose(2, 0, 3, 1)
        vals += (a * b) * (left.reshape(-1, a * a) @ c.reshape(a * a, b * b)) \
            @ right.reshape(-1, b * b).T
    return vals


def compact_plancherel_check(f_values: np.ndarray, quad):
    """The two sides lhs = int |f|^2 dk, rhs = sum d ||Tf||_HS^2 over the
    labels of quad, and the spectrum Tf, as the tuple lhs, rhs, spectrum."""
    group = compact_group(quad)
    mass = np.abs(f_values) ** 2 * group.weights
    lhs = float(pairwise_sum(mass.ravel()).real)
    spec = compact_transform(f_values, quad)
    rhs = spec.hs_norm2_weighted(group.dim)
    return lhs, rhs, spec


def random_spectrum(rng, quad) -> CompactSpectrum:
    """Random coefficient table up to the band limit of quad, each label's
    d x d matrix of complex normals scaled by 1/d, drawn in label order."""
    group = compact_group(quad)
    coeffs = {}
    for lbl in group.labels:
        d = group.dim(lbl)
        coeffs[lbl] = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / d
    return CompactSpectrum(coeffs)


def random_band_limited(rng, quad):
    """Random coefficient table and its synthesized node values; by Schur
    orthogonality the transform of the synthesis returns the table."""
    spec = random_spectrum(rng, quad)
    return spec, synthesize(spec, quad)
