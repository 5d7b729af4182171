"""Fourier analysis on the six-parameter unipotent group N: the lift to the
auxiliary group L and its invariance, convolution products, the coordinate
Fourier transform, the bilinear Parseval identity, and the Plancherel
formula.

The coordinate Fourier transform on N is the Euclidean transform in the
global chart (x1..x6); it does not diagonalize the noncommutative
convolution, so the only integrated identities asserted here are the
Parseval pairing and the Plancherel formula, plus the lifted-convolution
equality on the slice of L where it holds exactly.
"""

from __future__ import annotations

import math

import numpy as np

from . import groups
from .corpus import product_overlap
from .quadrature import (Axis, SampledField, Spectrum, _by_plane, box_grid,
                         factor_pairing, monte_carlo, norm2, pairwise_sum)

__all__ = [
    "reduce_to_nil", "lift_to_L", "invariance_shift",
    "nil_shift_of_L", "flat_shift_of_L",
    "convolve_N",
    "plancherel_N_check", "parseval_N_check", "lifted_convolution_check",
]

NIL_AXES = ("x1", "x2", "x3", "x4", "x5", "x6")
PAIRING_COUNT = 17  # nodes per axis of the full Parseval pairing grid


# ---------------------------------------------------------------------------
# lift to L
# ---------------------------------------------------------------------------


def reduce_to_nil(lpts) -> np.ndarray:
    """Project L (coordinates x6,x5,x4,x3,x2,t3,t2,x1,t1) onto N coordinates
    (x1..x6) along the invariance directions:

      w1 = t1 + x1
      w2 = t2 + x2
      w3 = t3 + x3 + x1 (t2 + x2)
      w4 = x4
      w5 = x5 + x2 x4
      w6 = x6 + x3 x4 + x1 (x5 + x2 x4)

    Composing the line action after the plane action on the x-block, with the
    translation slots folded in; restricted to the embedded copy of N this is
    the identity chart.
    """
    l = np.asarray(lpts, dtype=float)
    x6, x5, x4 = l[..., 0], l[..., 1], l[..., 2]
    x3, x2 = l[..., 3], l[..., 4]
    t3, t2 = l[..., 5], l[..., 6]
    x1, t1 = l[..., 7], l[..., 8]
    w1 = t1 + x1
    w2 = t2 + x2
    w3 = t3 + x3 + x1 * (t2 + x2)
    w4 = x4
    w5 = x5 + x2 * x4
    w6 = x6 + x3 * x4 + x1 * (x5 + x2 * x4)
    return np.stack([w1, w2, w3, w4, w5, w6], axis=-1)


def lift_to_L(f):
    """Extension of f, a function on N (a callable on (..., 6) arrays), to L,
    constant along the invariance directions of `invariance_shift`."""

    def lifted(lpts):
        return f(reduce_to_nil(lpts))

    return lifted


def invariance_shift(lpts, h, r, k) -> np.ndarray:
    """The three-parameter family of transformations of L under which every
    lifted function is invariant (exactly, as polynomial identities):

      x3 -> x3 - r,  t3 -> t3 + r + h (t2 + x2)
      x2 -> x2 - k,  t2 -> t2 + k,  x5 -> x5 + k x4
      x1 -> x1 - h,  t1 -> t1 + h,  x6 -> x6 + r x4 + h (x5 + x2 x4)

    The three flows commute, and their orbits are precisely the fibers of
    `reduce_to_nil`.
    """
    l = np.asarray(lpts, dtype=float)
    x6, x5, x4, x3, x2, t3, t2 = np.moveaxis(l[..., :7], -1, 0)
    out = l.copy()
    out[..., 0] = x6 + r * x4 + h * (x5 + x2 * x4)
    out[..., 1] = x5 + k * x4
    out[..., 3] = x3 - r
    out[..., 4] = x2 - k
    out[..., 5] = t3 + r + h * (t2 + x2)
    out[..., 6] = t2 + k
    out[..., 7] = out[..., 7] - h
    out[..., 8] = out[..., 8] + h
    return out


def nil_shift_of_L(lpts, y) -> np.ndarray:
    """Left convolution shift of an L point in the N slots (x-block, t3, t2,
    t1), groups.L_TWISTED, by the inverse of the N point y, through the law
    of N; the slots (x3, x2, x1) ride along."""
    out = np.array(lpts, dtype=float)
    out[..., groups.L_TWISTED] = groups.nil_mul(groups.nil_inv(y),
                                                out[..., groups.L_TWISTED])
    return out


def flat_shift_of_L(lpts, y) -> np.ndarray:
    """Commutative convolution shift of an L point in the slots of x1..x6,
    groups.L_X: y is subtracted slot by slot; t3, t2 and t1 ride along."""
    out = np.array(lpts, dtype=float)
    out[..., groups.L_X] -= np.asarray(y, dtype=float)
    return out


# ---------------------------------------------------------------------------
# convolution on N
# ---------------------------------------------------------------------------


def convolve_N(phi, f, at, n: int, seed: int, sampler):
    """Noncommutative convolution (phi * f)(at) = int f(g^{-1} h) phi(g) dg
    by importance-sampled Monte Carlo, as an MCResult with its standard
    error.

    phi and f are callables on (..., 6) arrays.
    The integral is taken over u = g^{-1} h, a measure-preserving
    substitution (unit Jacobian): f is evaluated plainly, phi at h u^{-1}
    through the group law.  u is drawn, n samples from the given seed, from
    the diagonal Gaussian sampler = (mean, sigma) of 6-vectors.
    """
    at = np.asarray(at, dtype=float)

    def integrand(u):
        return f(u) * phi(groups.nil_mul(np.broadcast_to(at, u.shape),
                                         groups.nil_inv(u)))

    return monte_carlo(integrand, *sampler, n, seed)


# ---------------------------------------------------------------------------
# Fourier transform and Plancherel on N
# ---------------------------------------------------------------------------


def plancherel_N_check(f, box: float, count: int):
    """The two sides lhs, rhs: lhs = int |f|^2 dX by quadrature, rhs =
    (2 pi)^{-6} int |Ff|^2 dxi, with Ff the six-axis Euclidean transform in
    the global chart of N, for f(x1, ..., x6) on six broadcastable
    coordinate arrays (the contract of SampledField.from_callable) sampled
    on the count^6 grid of +-box.
    f is transformed in its own buffer, as np.fft.fftn runs it, last axis
    first: axes 1 to 5 one first-axis plane at a time, then axis 0 one
    second-axis index at a time, the planes split over the workers.
    dft_forward's phases h exp(-i xi x0) have modulus h on each axis, so rhs
    takes prod h^2 and applies none."""
    grid = box_grid(NIL_AXES, -box, box, count)
    fld = SampledField.from_callable(grid, f)
    lhs = norm2(fld)
    v = fld.values
    _by_plane(lambda p: np.fft.fftn(v[p], axes=range(1, 6), out=v[p]), len(v))
    _by_plane(lambda p: np.fft.fft(v[:, p], axis=0, out=v[:, p]), v.shape[1])
    spec = Spectrum(grid, v)
    rhs = norm2(spec) * math.prod(ax.step for ax in grid.axes) \
        * spec.freq_weight() / (2.0 * np.pi) ** 6
    return lhs, rhs


def parseval_N_check(f, phi, count: int = PAIRING_COUNT, n: int = 1 << 20,
                     seed: int = 0):
    """Bilinear pairing identity: (phi-check * f)(0) against
    (2 pi)^{-6} int Ff conj(Fphi) dxi, where phi-check(X) = conj(phi(X^{-1})),
    for separable GaussProduct f and phi.  Returns grid_lhs, rhs, mc: the
    spectral side rhs, the product of their factor pairings
    (quadrature.factor_pairing), between two convolution sides, a grid
    value and an MCResult.

    At the identity the group law cancels: phi-check(0 . u^{-1}) =
    conj(phi(u)), so the convolution side is int f conj(phi) du.
    The grid side takes it as a product of six 1-D box rules of
    f_k conj(phi_k), count nodes each, on the box c +- sqrt(pi count) w
    around the pairing's Gaussian envelope (center c, width w), which
    balances truncation against aliasing at every count (Trefethen &
    Weideman 2014); f and phi are read through GaussProduct.factor_values.
    The mc side importance-samples it through the group law (convolve_N),
    n samples from seed.
    """
    rhs = factor_pairing(f.factors, phi.factors)[1]

    center, width = product_overlap(f, phi)
    half = np.sqrt(np.pi * count) * width
    axes = [Axis(name, c - h, c + h, count)
            for name, c, h in zip(NIL_AXES, center, half)]
    nodes = [ax.nodes() for ax in axes]
    lhs = math.prod(complex(pairwise_sum(fv * np.conj(pv) * ax.step))
                    for ax, fv, pv in zip(axes, f.factor_values(nodes),
                                          phi.factor_values(nodes)))

    def phi_check(x):
        return np.conj(phi.values(groups.nil_inv(x)))

    # the sampler is deliberately wider than the integrand's envelope so
    # the importance weights carry genuine variance
    mc = convolve_N(phi_check, f.values, np.zeros(6), n, seed,
                    (center, 1.35 * width))
    return lhs, rhs, mc


def lifted_convolution_check(f, u, lpoint, n: int = 1 << 20, seed: int = 0):
    """Compare u * F (convolution in the N slots of L) with the commutative
    convolution in the flat slots, for F the lift of f, at one L point.

    The identity holds exactly on the slice {x2 slot = 0} of L, which is where
    the calling tests sample; off the slice the two sides differ by terms
    proportional to that coordinate.  Both sides are importance-sampled on
    one stream of samples (common random numbers), so on the slice they
    differ by rounding alone.  Returns monte_carlo's MCResult: its (2,)
    estimate holds the two sides, its (2,) stderr their standard errors.
    """
    F = lift_to_L(f.values)
    lpoint = np.asarray(lpoint, dtype=float)

    def both_sides(y):
        at = np.broadcast_to(lpoint, y.shape[:-1] + (9,))
        sides = np.stack([F(nil_shift_of_L(at, y)), F(flat_shift_of_L(at, y))],
                         axis=-1)
        return sides * u.values(y)[:, None]

    mean = np.array([fac.mu for fac in u.factors])
    sig = np.array([fac.sigma for fac in u.factors])
    return monte_carlo(both_sides, mean, sig, n, seed)
