"""Truncated multivariate Taylor arithmetic ("jets") in three variables
(z, y, x), total degree <= 4.

A jet holds the Taylor coefficients of a function at a point; ring
operations and exponentials of nilpotent parts are exact.  So a formula
evaluated at the jets of a polynomial map's components gives the jet of
its composite with the map (Taylor-mode propagation), which makes
pointwise derivative evaluation and conjugation by polynomial maps exact
as well.
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
# every output monomial that has one; taking the outputs by decreasing
# pair count (_BY_COUNT) makes those a prefix of the output rows.  Formed
# _BLOCK at a time, a 100-point product holds under glibc's 128 KiB mmap and
# trim thresholds.  A group is (I, J, runs), a run being one round's part of
# it: its output rows and its slice of the group's products.
_pairs = [[] for _ in MULTI_INDICES]
for i, mi in enumerate(MULTI_INDICES):
    for j, mj in enumerate(MULTI_INDICES):
        s = (mi[0] + mj[0], mi[1] + mj[1], mi[2] + mj[2])
        if sum(s) <= DEGREE:
            _pairs[POS[s]].append((i, j))
_BY_COUNT = sorted(range(N_COEFFS), key=lambda k: -len(_pairs[k]))
_UNSORT = np.array([_BY_COUNT.index(k) for k in range(N_COEFFS)])
_flat = [(*_pairs[k][r], row) for r in range(len(_pairs[_BY_COUNT[0]]))
         for row, k in enumerate(_BY_COUNT) if len(_pairs[k]) > r]
_BLOCK, _GROUPS = 21, []
for lo in range(0, len(_flat), _BLOCK):
    i, j, rows = zip(*_flat[lo:lo + _BLOCK])
    cuts = [0, *(c for c, row in enumerate(rows) if c and row == 0), len(i)]
    _GROUPS.append((np.array(i), np.array(j), [(slice(rows[c], rows[d - 1] + 1),
                    slice(c, d)) for c, d in zip(cuts, cuts[1:])]))

_FACT = np.array([factorial(a) * factorial(b) * factorial(c)
                  for (a, b, c) in MULTI_INDICES], dtype=float)


class DegreeOverflow(ValueError):
    """A derivative of order beyond the jet degree was requested."""


def _align(a: np.ndarray, b: np.ndarray):
    """Pad the shorter batch shape with leading axes, right after the
    coefficient axis both arrays lead with, so batch shapes broadcast as
    numpy shapes do: (3, 5) against (5,) or against ()."""
    nd = max(a.ndim, b.ndim)
    a = a.reshape(a.shape[:1] + (1,) * (nd - a.ndim) + a.shape[1:])
    b = b.reshape(b.shape[:1] + (1,) * (nd - b.ndim) + b.shape[1:])
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
    def coordinates(cls, points):
        """The jets of the coordinate functions z, y, x at one point (3,) or
        a batch (..., 3)."""
        pts = np.asarray(points, dtype=float)
        jets = tuple(cls.const(pts[..., i]) for i in range(3))
        for j, unit in zip(jets, ((1, 0, 0), (0, 1, 0), (0, 0, 1))):
            j.coeffs[POS[unit]] = 1.0
        return jets

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
            out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
            for i, j, runs in _GROUPS:
                x, y = a.take(i, 0), b.take(j, 0)
                terms = np.multiply(  # in place in x, if it is out's shape
                    x, y, out=x if x.shape[1:] == out.shape[1:] else None)
                for rows, part in runs:
                    acc = out[rows]
                    # term + sum, the operand order of np.add.at on batches
                    # (it decides only the sign of a NaN sum of two NaNs)
                    np.add(terms[part], acc, out=acc)
                del x, y, terms  # freed before the next group's are formed
            return Jet(out[_UNSORT])
        # a constant, one value or one per point, scales every coefficient
        a, b = _align(self.coeffs, np.asarray(other)[None])
        return Jet(a * b)

    __rmul__ = __mul__

    def exp(self) -> "Jet":
        """exp of the jet: exp(c0) times the (finite) series in the nilpotent
        part, exact because the nilpotent part to the fifth power vanishes."""
        nilp = Jet(self.coeffs.copy())
        c0 = np.array(nilp.coeffs[0], copy=True)
        nilp.coeffs[0] = 0.0
        out = Jet.const(np.ones_like(c0)) + nilp
        term = nilp
        for k in range(2, DEGREE + 1):
            term = term * nilp * (1.0 / k)
            out = out + term
        return out * np.exp(c0)


def power_product(powers, m):
    """The product of powers[i][k] over the axes i whose exponent k = m[i]
    is nonzero, left to right, or None when every exponent is zero.  Each
    table is [unused, v, v^2, ...] for one factor v and is extended as
    needed, v^k formed as v^(k-1) * v; both arrays and jets multiply so."""
    out = None
    for table, k in zip(powers, m):
        if k:
            while len(table) <= k:
                table.append(table[-1] * table[1])
            out = table[k] if out is None else out * table[k]
    return out


def substitute(terms: dict, values):
    """The polynomial {multi-index (az, ay, ax): coefficient} at (z, y, x)
    = values, three ring values of one type (Poly3s or jets): each
    coefficient times its power_product, summed from the values' zero.  At
    the jets of a map's components this is the jet of the composite."""
    out, powers = type(values[0])(), [[None, v] for v in values]
    for m, co in terms.items():
        mono = power_product(powers, m)
        out = out + (co if mono is None else co * mono)
    return out
