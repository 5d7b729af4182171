"""Closed-form test functions: products of one-dimensional Gaussians times
low-degree polynomials.  Each factor knows its exact Fourier transform and
exact L2 norm.  Only the tests compare with these; the Plancherel and
Parseval checks pair sampled factors (quadrature.factor_pairing).

All transforms follow the package convention: forward kernel exp(-i xi x),
(2 pi) factors on the spectral side.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi, prod, sqrt

import numpy as np

__all__ = ["GaussPoly1D", "GaussProduct", "random_gauss_product"]


@dataclass(frozen=True)
class GaussPoly1D:
    """p(x - mu) * exp(-(x - mu)^2 / (2 sigma^2)) with p of degree <= 2,
    p(t) = c0 + c1 t + c2 t^2 (complex coefficients)."""

    mu: float
    sigma: float
    c0: complex = 1.0
    c1: complex = 0.0
    c2: complex = 0.0

    def values(self, x):
        p, e = self.parts(x)
        return p * np.exp(e)

    def parts(self, x):
        """p(t) and the exponent -t^2 / (2 sigma^2) at t = x - mu; zero
        coefficients are skipped: for finite x, c0 + 0 t + 0 t^2 is c0."""
        t = np.asarray(x, dtype=float) - self.mu
        p = self.c0
        if self.c1 != 0:
            p = p + self.c1 * t
        if self.c2 != 0:
            p = p + self.c2 * t * t
        return p, -t * t / (2.0 * self.sigma ** 2)

    def ft(self, xi):
        """Exact continuum transform: int f(x) exp(-i xi x) dx."""
        xi = np.asarray(xi, dtype=float)
        s = self.sigma
        g = s * sqrt(2.0 * pi) * np.exp(-0.5 * (s * xi) ** 2)
        # moments: (i d/dxi)^k applied to g
        g1 = -1j * s ** 2 * xi * g
        g2 = (s ** 2 - s ** 4 * xi ** 2) * g
        return np.exp(-1j * xi * self.mu) * (self.c0 * g + self.c1 * g1 + self.c2 * g2)

    def norm2(self) -> float:
        """Exact int |f|^2 dx via Gaussian moments of exp(-t^2/sigma^2)."""
        s = self.sigma
        m0 = s * sqrt(pi)
        m2 = m0 * s ** 2 / 2.0
        m4 = m0 * 3.0 * s ** 4 / 4.0
        c0, c1, c2 = self.c0, self.c1, self.c2
        # |p(t)|^2 = |c0|^2 + 2Re(c0 c1~) t + (|c1|^2 + 2Re(c0 c2~)) t^2
        #            + 2Re(c1 c2~) t^3 + |c2|^2 t^4  (odd moments vanish)
        a0 = abs(c0) ** 2
        a2 = abs(c1) ** 2 + 2.0 * (c0 * np.conj(c2)).real
        a4 = abs(c2) ** 2
        return float(a0 * m0 + a2 * m2 + a4 * m4)

    def suggested_axis(self):
        lo = self.mu - 8.0 * self.sigma
        hi = self.mu + 8.0 * self.sigma
        return lo, hi


@dataclass(frozen=True)
class GaussProduct:
    """Separable product of GaussPoly1D factors on R^d."""

    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
    def dim(self) -> int:
        return len(self.factors)

    def values(self, pts):
        """pts: (..., d) array; one np.exp per point, of the summed exponents."""
        pts = np.asarray(pts, dtype=float)
        poly, expo = 1.0 + 0.0j, 0.0
        for k, f in enumerate(self.factors):
            p, e = f.parts(pts[..., k])
            poly, expo = poly * p, expo + e
        return poly * np.exp(expo)

    def norm2(self) -> float:
        return prod(f.norm2() for f in self.factors)

    def factor_values(self, nodes_per_axis):
        return [f.values(nodes) for f, nodes in zip(self.factors, nodes_per_axis)]


def product_overlap(f: "GaussProduct", g: "GaussProduct"):
    """Per-axis center and width of the Gaussian envelope of |f * conj(g)|.

    1/sigma^2 adds; centers combine with inverse-variance weights.  Used to
    pick quadrature boxes and importance samplers adapted to the pairing.
    """
    centers, widths = [], []
    for a, b in zip(f.factors, g.factors):
        wa, wb = 1.0 / a.sigma ** 2, 1.0 / b.sigma ** 2
        widths.append(1.0 / sqrt(wa + wb))
        centers.append((a.mu * wa + b.mu * wb) / (wa + wb))
    return np.array(centers), np.array(widths)


def random_gauss_product(rng, dim, sigma_range=(0.8, 1.4), mu_scale=0.5,
                         poly: bool = False) -> GaussProduct:
    factors = []
    for _ in range(dim):
        mu = float(rng.uniform(-mu_scale, mu_scale))
        sigma = float(rng.uniform(*sigma_range))
        if poly:
            c = rng.normal(size=3) + 1j * rng.normal(size=3)
            factors.append(GaussPoly1D(mu, sigma, 1.0 + 0.2 * c[0],
                                       0.2 * c[1], 0.1 * c[2]))
        else:
            factors.append(GaussPoly1D(mu, sigma))
    return GaussProduct(tuple(factors))
