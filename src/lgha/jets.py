"""Truncated multivariate Taylor arithmetic ("jets") in three variables
(z, y, x), total degree <= 4.

A jet holds the Taylor coefficients of a function at a point; ring
operations, exponentials of nilpotent parts, and substitution of polynomial
coordinate changes are all exact, which makes pointwise derivative
evaluation and conjugation by polynomial maps exact as well.
"""

from __future__ import annotations

from math import factorial

import numpy as np

DEGREE = 4
VARS = ("z", "y", "x")

# canonical enumeration of multi-indices (az, ay, ax), total degree <= DEGREE
MULTI_INDICES = tuple(
    (a, b, c)
    for total in range(DEGREE + 1)
    for a in range(total, -1, -1)
    for b in range(total - a, -1, -1)
    for c in (total - a - b,)
)
POS = {m: i for i, m in enumerate(MULTI_INDICES)}
N_COEFFS = len(MULTI_INDICES)

# Product tables.  Output coefficient k of a product sums a[i] * b[j] over
# the pairs (i, j) with m_i + m_j = m_k, in table order (i, then j,
# ascending), starting from zero: the order in which a scatter-add over the
# flat pair list would add them.  Round r of the sum adds the r-th pair of
# every output monomial that has one; taking the monomials by decreasing
# pair count (_BY_COUNT) makes those a prefix, so a round is one slice of
# the products, _PROD_I/_PROD_J[lo:hi] for (lo, hi) in _ROUNDS.
_pairs = [[] for _ in MULTI_INDICES]
for i, mi in enumerate(MULTI_INDICES):
    for j, mj in enumerate(MULTI_INDICES):
        s = (mi[0] + mj[0], mi[1] + mj[1], mi[2] + mj[2])
        if sum(s) <= DEGREE:
            _pairs[POS[s]].append((i, j))
_BY_COUNT = sorted(range(N_COEFFS), key=lambda k: -len(_pairs[k]))
_UNSORT = np.array([_BY_COUNT.index(k) for k in range(N_COEFFS)])
_prod_i, _prod_j, _ROUNDS = [], [], []
for r in range(len(_pairs[_BY_COUNT[0]])):
    lo = len(_prod_i)
    for k in _BY_COUNT:
        if len(_pairs[k]) > r:
            _prod_i.append(_pairs[k][r][0])
            _prod_j.append(_pairs[k][r][1])
    _ROUNDS.append((lo, len(_prod_i)))
_PROD_I = np.array(_prod_i)
_PROD_J = np.array(_prod_j)

_FACT = np.array([factorial(a) * factorial(b) * factorial(c)
                  for (a, b, c) in MULTI_INDICES], dtype=float)


class DegreeOverflow(ValueError):
    """A derivative of order beyond the jet degree was requested."""


def _align(a: np.ndarray, b: np.ndarray):
    """Pad trailing (batch) axes so jets with scalar and batched coefficient
    arrays combine: both arrays lead with the coefficient axis."""
    nd = max(a.ndim, b.ndim)
    if a.ndim < nd:
        a = a.reshape(a.shape + (1,) * (nd - a.ndim))
    if b.ndim < nd:
        b = b.reshape(b.shape + (1,) * (nd - b.ndim))
    return a, b


class Jet:
    """Degree-4 Taylor polynomial; coeffs[POS[m]] is the coefficient of
    (dz)^az (dy)^ay (dx)^ax.

    Jets broadcast over points: the coefficient array may carry trailing
    axes, so one Jet can hold the Taylor data of a function at a whole batch
    of points at once.
    """

    __slots__ = ("coeffs",)
    # numpy operators defer to Jet's own, so array + jet is a jet
    __array_ufunc__ = None

    def __init__(self, coeffs=None, shape=()):
        if coeffs is None:
            self.coeffs = np.zeros((N_COEFFS,) + tuple(shape), dtype=complex)
        else:
            self.coeffs = np.asarray(coeffs, dtype=complex)

    @classmethod
    def const(cls, value) -> "Jet":
        value = np.asarray(value, dtype=complex)
        j = cls(shape=value.shape)
        j.coeffs[0] = value
        return j

    @classmethod
    def coordinate(cls, axis: int, value) -> "Jet":
        """The jet of the coordinate function var_axis at a point (or batch
        of points) where it takes the given value."""
        j = cls.const(value)
        unit = [0, 0, 0]
        unit[axis] = 1
        j.coeffs[POS[tuple(unit)]] = 1.0
        return j

    @classmethod
    def coordinates(cls, points):
        """Coordinate jets at one point (3,) or a batch (..., 3)."""
        pts = np.asarray(points, dtype=float)
        return tuple(cls.coordinate(i, pts[..., i]) for i in range(3))

    @property
    def value(self):
        return self.coeffs[0]

    def deriv(self, midx):
        """Exact partial derivative of the underlying function at the point
        (batch-shaped like the jet).  midx is (az, ay, ax); an order above
        DEGREE raises DegreeOverflow, anything else that is not a multi-index
        ValueError."""
        midx = tuple(midx)
        k = POS.get(midx)
        if k is None:
            if len(midx) == 3 and all(isinstance(m, (int, np.integer))
                                      and m >= 0 for m in midx):
                raise DegreeOverflow(
                    f"order {sum(midx)} exceeds jet degree {DEGREE}")
            raise ValueError(f"not a multi-index (az, ay, ax) of nonnegative "
                             f"integers: {midx!r}")
        return self.coeffs[k] * _FACT[k]

    def __add__(self, other):
        if isinstance(other, Jet):
            a, b = _align(self.coeffs, other.coeffs)
            return Jet(a + b)
        # a constant, one value or one per point, moves the value alone; its
        # shape broadcasts against the batch axes as numpy shapes do
        value = np.asarray(other)
        batch = self.coeffs.shape[1:]
        shape = np.broadcast_shapes(batch, value.shape)
        a = self.coeffs.reshape(
            (N_COEFFS,) + (1,) * (len(shape) - len(batch)) + batch)
        j = Jet(np.broadcast_to(a, (N_COEFFS,) + shape).copy())
        j.coeffs[0] += value
        return j

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.coeffs)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b = _align(self.coeffs, other.coeffs)
            prod = a[_PROD_I] * b[_PROD_J]
            out = np.zeros((N_COEFFS,) + prod.shape[1:], dtype=complex)
            for lo, hi in _ROUNDS:
                acc = out[:hi - lo]
                # term + sum, the operand order of np.add.at on batches (it
                # decides only the sign of a NaN sum of two NaNs)
                np.add(prod[lo:hi], acc, out=acc)
            return Jet(out[_UNSORT])
        return Jet(self.coeffs * other)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = Jet.const(1.0)
        for _ in range(k):
            out = out * self
        return out

    def exp(self) -> "Jet":
        """exp of the jet: exp(c0) times the (finite) series in the nilpotent
        part, exact because the nilpotent part to the fifth power vanishes."""
        nilp = Jet(self.coeffs.copy())
        c0 = np.array(nilp.coeffs[0], copy=True)
        nilp.coeffs[0] = 0.0
        out = Jet.const(np.ones_like(c0))
        term = Jet.const(np.ones_like(c0))
        for k in range(1, DEGREE + 1):
            term = term * nilp * (1.0 / k)
            out = out + term
        return out * np.exp(c0)


def substitute(outer_coeffs: np.ndarray, deltas) -> Jet:
    """Taylor composition: outer is a jet at q, deltas are the jets (without
    constant term) of the inner map's components around p with values q;
    returns the jet of the composite at p."""
    powers = []
    for d in deltas:
        ps = [Jet.const(1.0)]
        for _ in range(DEGREE):
            ps.append(ps[-1] * d)
        powers.append(ps)
    out = Jet()
    # (a, b) -> powers[0][a] * powers[1][b], shared by every c and dropped
    # after the last one, c = DEGREE - a - b
    head = {}
    for k, (a, b, c) in enumerate(MULTI_INDICES):
        co = outer_coeffs[k]
        if not np.any(co):
            continue
        if (a, b) not in head:
            head[a, b] = powers[0][a] * powers[1][b]
        shared = head.pop((a, b)) if a + b + c == DEGREE else head[a, b]
        term = shared * powers[2][c]
        al, bl = _align(term.coeffs, np.asarray(co)[None, ...])
        out = out + Jet(al * bl)
    return out


# ---------------------------------------------------------------------------
# corpus functions with exact jets
# ---------------------------------------------------------------------------


class PlaneWave:
    """exp(i (kz z + ky y + kx x))."""

    def __init__(self, kz, ky, kx):
        self.k = (complex(kz), complex(ky), complex(kx))

    def jet_at(self, point) -> Jet:
        zj, yj, xj = Jet.coordinates(point)
        return (1j * (self.k[0] * zj + self.k[1] * yj + self.k[2] * xj)).exp()

    def values(self, pts):
        pts = np.asarray(pts, dtype=float)
        return np.exp(1j * (self.k[0] * pts[..., 0] + self.k[1] * pts[..., 1]
                            + self.k[2] * pts[..., 2]))


class GaussianBump:
    """poly(z,y,x) * exp(-|r - mu|^2 / (2 sigma^2)), poly optional."""

    def __init__(self, mu=(0.0, 0.0, 0.0), sigma=1.0, poly=None):
        self.mu = tuple(float(m) for m in mu)
        self.sigma = float(sigma)
        self.poly = poly  # a diffops.Poly3 or None

    def jet_at(self, point) -> Jet:
        zj, yj, xj = Jet.coordinates(point)
        q = (zj - self.mu[0]) ** 2 + (yj - self.mu[1]) ** 2 + (xj - self.mu[2]) ** 2
        g = (q * (-1.0 / (2.0 * self.sigma ** 2))).exp()
        if self.poly is not None:
            g = self.poly.eval_jet(zj, yj, xj) * g
        return g

    def values(self, pts):
        pts = np.asarray(pts, dtype=float)
        q = ((pts[..., 0] - self.mu[0]) ** 2 + (pts[..., 1] - self.mu[1]) ** 2
             + (pts[..., 2] - self.mu[2]) ** 2)
        out = np.exp(-q / (2.0 * self.sigma ** 2)).astype(complex)
        if self.poly is not None:
            out = out * self.poly.eval(pts[..., 0], pts[..., 1], pts[..., 2])
        return out


def standard_corpus(rng):
    """Mixed corpus of four plane waves and six bumps, alternately Gaussians
    and Gaussian-times-polynomial functions, all with exact jets."""
    from .diffops import Poly3

    corpus = []
    for _ in range(4):
        corpus.append(PlaneWave(*rng.uniform(-1.5, 1.5, size=3)))
    for i in range(6):
        mu = rng.uniform(-0.5, 0.5, size=3)
        sigma = rng.uniform(0.8, 1.6)
        if i % 2 == 0:
            corpus.append(GaussianBump(mu, sigma))
        else:
            c = rng.normal(size=3)
            poly = Poly3({(0, 0, 0): 1.0, (1, 0, 0): 0.3 * c[0],
                          (0, 1, 1): 0.2 * c[1], (0, 0, 2): 0.1 * c[2]})
            corpus.append(GaussianBump(mu, sigma, poly))
    return corpus
