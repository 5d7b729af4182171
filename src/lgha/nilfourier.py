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

import numpy as np

from . import groups
from .corpus import GaussProduct, product_overlap
from .quadrature import (Axis, SampledField, box_grid, dft_forward,
                         factor_plancherel, monte_carlo, norm2, pairwise_sum)

__all__ = [
    "reduce_to_nil", "lift_to_L", "invariance_shift",
    "nil_shift_of_L", "flat_shift_of_L",
    "convolve_N",
    "plancherel_N_check", "parseval_N_check", "lifted_convolution_check",
]

NIL_AXES = ("x1", "x2", "x3", "x4", "x5", "x6")


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
    x6, x5, x4 = l[..., 0].copy(), l[..., 1].copy(), l[..., 2].copy()
    x3, x2 = l[..., 3].copy(), l[..., 4].copy()
    t3, t2 = l[..., 5].copy(), l[..., 6].copy()
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
    t1) by the inverse of the N point y; the slots (x3, x2, x1) ride along."""
    l = np.asarray(lpts, dtype=float)
    y = np.asarray(y, dtype=float)
    z = groups.nil_inv(y)
    out = l.copy()
    z1, z2, z3 = z[..., 0], z[..., 1], z[..., 2]
    z4, z5, z6 = z[..., 3], z[..., 4], z[..., 5]
    out[..., 0] = z6 + l[..., 0] + z1 * l[..., 1] + z3 * l[..., 2]
    out[..., 1] = z5 + l[..., 1] + z2 * l[..., 2]
    out[..., 2] = z4 + l[..., 2]
    out[..., 5] = z3 + l[..., 5] + z1 * l[..., 6]
    out[..., 6] = z2 + l[..., 6]
    out[..., 8] = z1 + l[..., 8]
    return out


def flat_shift_of_L(lpts, y) -> np.ndarray:
    """Commutative convolution shift in the (x-block, x3, x2, x1) slots."""
    l = np.asarray(lpts, dtype=float)
    y = np.asarray(y, dtype=float)
    out = l.copy()
    out[..., 0] = l[..., 0] - y[..., 5]
    out[..., 1] = l[..., 1] - y[..., 4]
    out[..., 2] = l[..., 2] - y[..., 3]
    out[..., 3] = l[..., 3] - y[..., 2]
    out[..., 4] = l[..., 4] - y[..., 1]
    out[..., 7] = l[..., 7] - y[..., 0]
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


def plancherel_N_check(f, box: float = 6.0, count: int = 14):
    """lhs = int |f|^2 dX by quadrature, rhs = (2 pi)^{-6} int |Ff|^2 dxi,
    with Ff the six-axis Euclidean transform in the global chart of N.

    Separable inputs (GaussProduct) factor into one-dimensional checks on
    4 * count nodes per axis; other callables are sampled on the full
    count^6 grid.
    """
    if isinstance(f, GaussProduct):
        lhs = rhs = 1.0
        for factor in f.factors:
            norm, spectral, _ = factor_plancherel(factor, count * 4)
            lhs *= norm
            rhs *= spectral
    else:
        grid = box_grid(NIL_AXES, -box, box, count)
        fld = SampledField.from_callable(
            grid, lambda *xs: f(np.stack(np.broadcast_arrays(*xs), axis=-1)))
        lhs = norm2(fld)
        rhs = dft_forward(fld).integrate_abs2() / (2.0 * np.pi) ** 6
    rel = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    return {"lhs": lhs, "rhs": rhs, "rel_err": rel}


def parseval_N_check(f, phi, method: str = "grid", count: int = 16,
                     n: int = 1 << 20, seed: int = 0):
    """Bilinear pairing identity: (phi-check * f)(0) against
    (2 pi)^{-6} int Ff conj(Fphi) dxi, where phi-check(X) = conj(phi(X^{-1})).

    f and phi are separable GaussProduct functions; the spectral side is
    evaluated from one-dimensional transforms sampled on the dual grid.  At
    the identity the group law cancels: phi-check(0 . u^{-1}) = conj(phi(u)),
    so the convolution side is int f conj(phi) du.  method="grid" takes it
    as a product of six 1-D box rules of f_k conj(phi_k), count nodes each,
    on a box adapted to the pairing's Gaussian envelope; f and phi are read
    through GaussProduct.factor_values.  method="mc" importance-samples the
    convolution through the group law (convolve_N).
    """
    rhs = 1.0
    for ff, pf in zip(f.factors, phi.factors):
        lo = min(ff.suggested_axis()[0], pf.suggested_axis()[0])
        hi = max(ff.suggested_axis()[1], pf.suggested_axis()[1])
        grid = box_grid(("x",), lo, hi, count * 4)
        sf = dft_forward(SampledField(grid, ff.values(grid.axes[0].nodes())))
        sp = dft_forward(SampledField(grid, pf.values(grid.axes[0].nodes())))
        rhs *= complex(pairwise_sum(sf.values * np.conj(sp.values))
                       * sf.freq_weight()) / (2.0 * np.pi)

    center, width = product_overlap(f, phi)
    if method == "grid":
        # box margins stay proportional to the envelope width so the node
        # spacing tracks the integrand's bandwidth (polynomial factors
        # included)
        axes = [Axis(name, c - 7.5 * w - 0.3, c + 7.5 * w + 0.3, count)
                for name, c, w in zip(NIL_AXES, center, width)]
        nodes = [ax.nodes() for ax in axes]
        lhs = 1.0
        for ax, fv, pv in zip(axes, f.factor_values(nodes),
                              phi.factor_values(nodes)):
            lhs *= complex(pairwise_sum(fv * np.conj(pv) * ax.step))
        rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
        return {"lhs": lhs, "rhs": rhs, "rel_err": rel}
    if method == "mc":
        def phi_check(x):
            return np.conj(phi.values(groups.nil_inv(x)))

        # the sampler is deliberately wider than the integrand's envelope so
        # the importance weights carry genuine variance
        mc = convolve_N(phi_check, f.values, np.zeros(6), n, seed,
                        (center, 1.35 * width))
        rel = abs(mc.estimate - rhs) / max(abs(rhs), 1e-300)
        return {"lhs": mc.estimate, "rhs": rhs, "rel_err": rel,
                "stderr": mc.stderr, "within_3sigma": mc.agrees(rhs)}
    raise ValueError("method must be 'grid' or 'mc'")


def lifted_convolution_check(f, u, lpoint, n: int = 1 << 20, seed: int = 0):
    """Compare u * F (convolution in the N slots of L) with the commutative
    convolution in the flat slots, for F the lift of f, at one L point.

    The identity holds exactly on the slice {x2 slot = 0} of L, which is where
    the calling tests sample; off the slice the two sides differ by terms
    proportional to that coordinate.  Both sides are importance-sampled on
    one stream of samples (common random numbers), so on the slice they
    differ by rounding alone; stderr is the hypot of the two sides' errors.
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
    mc = monte_carlo(both_sides, mean, sig, n, seed)
    lhs, rhs = map(complex, mc.estimate)
    rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    sigma_comb = float(np.hypot(*mc.stderr))
    return {"lhs": lhs, "rhs": rhs, "rel_err": rel, "stderr": sigma_comb,
            "within_3sigma": abs(lhs - rhs) <= 3 * sigma_comb}
