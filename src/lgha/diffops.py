"""The operator calculus on R^3: polynomial-coefficient differential
operators (vector fields are the first-order ones) and their brackets,
polynomial coordinate maps, conjugation, the corpus of jet-evaluable test
functions (plane waves and polynomial-times-Gaussian bumps), identity
verification over it, and a small text DSL for operator expressions.

Variable order is (z, y, x) throughout, matching the group coordinates of
the three-parameter nilpotent symplectic group.  All coefficient arithmetic
is exact for integer and half-integer inputs.

Reflected-argument evaluation
-----------------------------
Several conjugation identities in this calculus naturally produce operators
evaluated "through a reflection": the displayed coefficient letters refer to
the unreflected coordinates while the derivatives are taken at the reflected
point.  Writing sigma for the sign reflection `reflection(sz, sy, sx)`, such
a statement is equivalent to the plain operator identity with the
coefficients precomposed by sigma (`PolyDiffOp.coeff_reflect`).
`verify_identity` checks identities between sides (op, outer, inner), op
applied to f o inner at outer(points), a missing map being the identity: so
the reflected reading of op is the side
(op.coeff_reflect(sz, sy, sx), reflection(sz, sy, sx)), and the conjugate of
op by a map m is (op, m, m).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from itertools import product
from math import comb, prod

import numpy as np

from .jets import VARS, Jet, DegreeOverflow, power_product, substitute

__all__ = [
    "Poly3", "PolyDiffOp", "CoordMap",
    "PolyGauss", "PlaneWave", "standard_corpus",
    "verify_identity",
    "lie_bracket", "hormander_rank",
    "vf_z", "vf_y", "vf_x",
    "cauchy_riemann", "cauchy_riemann_star", "lewy", "lewy_star",
    "lewy_conjugate_true", "laplacian_2d", "laplacian_3d",
    "heis_laplacian_left", "heis_laplacian_right", "sheared_laplacian",
    "first_order_invariant",
    "hormander_P", "hormander_P_bar", "hormander_Q4",
    "reflection", "shear_reflect_map", "shear_map", "shear_map_inv",
    "flip_y_shear_map", "flip_x_shear_map",
    "parse_op", "format_op",
]

def _fmt_complex(c: complex) -> str:
    re, im = c.real, c.imag
    if im == 0:
        return repr(re) if re != int(re) else repr(int(re))
    if re == 0:
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        core = repr(im) if im != int(im) else repr(int(im))
        return f"{core}*i"
    return f"({_fmt_complex(re)}+{_fmt_complex(complex(0, im))})"


class _Terms:
    """A finite sum {multi-index: value} with its zero values dropped: the
    arithmetic that Poly3 (complex values) and PolyDiffOp (Poly3 values)
    share.  A subclass gives `_value`, which makes a stored value, and
    `_zero`, from which a sum starts a multi-index that it adds; `_coerce`
    decides which operands + and - take."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for m, v in (terms or {}).items():
            v = self._value(v)
            if v:
                self.terms[tuple(m)] = v

    def __bool__(self):
        return bool(self.terms)

    @classmethod
    def _coerce(cls, other):
        """An operand of + and -: an instance, else NotImplemented."""
        return other if isinstance(other, cls) else NotImplemented

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for m, v in other.terms.items():
            out[m] = out.get(m, self._zero) + v
        return type(self)(out)

    __radd__ = __add__

    def __neg__(self):
        return type(self)({m: -v for m, v in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else self + (-other)


class Poly3(_Terms):
    """Polynomial in (z, y, x) with complex coefficients, stored sparsely;
    a number added to or subtracted from one is a constant."""

    __slots__ = ()
    _value = complex
    _zero = 0.0

    @classmethod
    def const(cls, c) -> "Poly3":
        return cls({(0, 0, 0): c})

    @classmethod
    def _coerce(cls, other):
        return other if isinstance(other, cls) else cls.const(other)

    @classmethod
    def variable(cls, axis: int) -> "Poly3":
        m = [0, 0, 0]
        m[axis] = 1
        return cls({tuple(m): 1.0})

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __mul__(self, other):
        if isinstance(other, Poly3):
            out = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                    out[m] = out.get(m, 0.0) + c1 * c2
            return Poly3(out)
        return Poly3({m: c * other for m, c in self.terms.items()})

    __rmul__ = __mul__

    def partial(self, axis: int) -> "Poly3":
        out = {}
        for m, c in self.terms.items():
            if m[axis] == 0:
                continue
            mm = list(m)
            mm[axis] -= 1
            out[tuple(mm)] = c * m[axis]
        return Poly3(out)

    def eval(self, z, y, x):
        """Evaluate on broadcastable arrays (or scalars): each monomial is
        a real power_product, from powers of each variable formed once,
        added into one complex accumulator."""
        args = [np.asarray(v) for v in (z, y, x)]
        out = np.zeros(np.broadcast_shapes(*(v.shape for v in args)),
                       dtype=complex)
        powers = [[None, v] for v in args]
        for m, co in self.terms.items():
            mono = power_product(powers, m)
            out += co if mono is None else co * mono
        return out if out.ndim else out[()]

    def reflect(self, sz: int = 1, sy: int = 1, sx: int = 1) -> "Poly3":
        """Substitute (z, y, x) -> (sz z, sy y, sx x)."""
        return Poly3({m: c * (sz ** m[0]) * (sy ** m[1]) * (sx ** m[2])
                      for m, c in self.terms.items()})

    @property
    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def __repr__(self):
        if not self.terms:
            return "Poly3(0)"
        bits = []
        for m in sorted(self.terms):
            mono = "".join(f"{VARS[i]}^{m[i]}" if m[i] > 1 else VARS[i]
                           for i in range(3) if m[i])
            bits.append(f"{_fmt_complex(self.terms[m])}{'*' + mono if mono else ''}")
        return "Poly3(" + " + ".join(bits) + ")"


ZERO = Poly3()
ONE = Poly3.const(1.0)
Z, Y, X = (Poly3.variable(i) for i in range(3))


def lie_bracket(v: "PolyDiffOp", w: "PolyDiffOp") -> "PolyDiffOp":
    """[V, W] = V W - W V, exact on polynomial coefficients; for vector
    fields (first-order operators) the second-order terms cancel."""
    return v @ w - w @ v


def hormander_rank(fields, points, depth: int = 2):
    """Rank of the span of the fields together with their iterated brackets
    up to the given depth: an int at one point (3,), an int array at each
    row of a stack (..., 3).  The brackets are built once for all points."""
    layer = allf = list(fields)
    for _ in range(depth - 1):
        # the nonzero brackets of the last layer with each field
        layer = [br for a in layer for b in fields
                 if (br := lie_bracket(a, b)).terms]
        allf = allf + layer
    pts = np.asarray(points, dtype=float)
    z, y, x = pts[..., 0], pts[..., 1], pts[..., 2]
    # (..., fields, 3): the dz, dy, dx coefficients of each field per point
    rows = np.stack([np.stack([f.terms.get(m, ZERO).eval(z, y, x) for m in
                               ((1, 0, 0), (0, 1, 0), (0, 0, 1))], axis=-1)
                     for f in allf], axis=-2)
    ranks = np.linalg.matrix_rank(rows, tol=1e-10)
    return int(ranks) if ranks.ndim == 0 else ranks


class PolyDiffOp(_Terms):
    """Finite sum of terms poly(z,y,x) * d^(az,ay,ax), canonical form; only
    operators add to or subtract from one."""

    __slots__ = ()
    _value = Poly3._coerce
    _zero = ZERO

    @classmethod
    def partial(cls, axis: int, coeff=1.0):
        m = [0, 0, 0]
        m[axis] = 1
        return cls({tuple(m): Poly3.const(coeff)})

    @property
    def order(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def __mul__(self, scalar):
        return PolyDiffOp({m: p * scalar for m, p in self.terms.items()})

    __rmul__ = __mul__

    def compose(self, other: "PolyDiffOp") -> "PolyDiffOp":
        """Operator product self . other via the Leibniz rule:
        p d^a (q d^b) = sum_{mu <= a} C(a, mu) p (d^mu q) d^{a - mu + b},
        summed into one dict."""
        out = {}
        for a, p in self.terms.items():
            for b, q in other.terms.items():
                for mu in product(*(range(k + 1) for k in a)):
                    dq = q
                    for axis, k in enumerate(mu):
                        for _ in range(k):
                            dq = dq.partial(axis)
                    if dq:
                        key = tuple(ai - mi + bi for ai, mi, bi in zip(a, mu, b))
                        out[key] = (out.get(key, ZERO)
                                    + dq * p * prod(map(comb, a, mu)))
        return PolyDiffOp(out)

    def __matmul__(self, other):
        return self.compose(other)

    def coeff_reflect(self, sz: int = 1, sy: int = 1, sx: int = 1) -> "PolyDiffOp":
        """Precompose the coefficient polynomials (only) with a sign
        reflection of the coordinates; derivative slots are untouched."""
        return PolyDiffOp({m: p.reflect(sz, sy, sx) for m, p in self.terms.items()})

    @property
    def is_constant_coefficient(self) -> bool:
        return all(p.degree == 0 for p in self.terms.values())

    def symbol(self, xiz, xiy, xix):
        """sum c (i xi)^alpha for constant-coefficient operators (array ok)."""
        if not self.is_constant_coefficient:
            raise ValueError("symbol requires constant coefficients")
        out = 0
        for m, p in self.terms.items():
            term = p.terms.get((0, 0, 0), 0.0)
            # only the axes the monomial uses, so the symbol has their shape
            for xi, k in zip((xiz, xiy, xix), m):
                if k:
                    term = term * (1j * np.asarray(xi)) ** k
            out = out + term
        return out

    def apply(self, jets, points) -> list:
        """Exact values of (op f) at one point (3,) or a batch (..., 3) for
        each of a sequence of degree-4 jets of functions f there.  Each
        coefficient is evaluated once per call."""
        if self.order > 4:
            raise DegreeOverflow("operator order exceeds jet degree")
        pts = np.asarray(points, dtype=float)
        z, y, x = pts[..., 0], pts[..., 1], pts[..., 2]
        coeffs = [(m, p.eval(z, y, x)) for m, p in self.terms.items()]
        values = []
        for jet in jets:
            out = np.zeros(pts.shape[:-1], dtype=complex)
            for m, c in coeffs:
                out = out + c * jet.deriv(m)
            values.append(complex(out) if out.ndim == 0 else out)
        return values

    def __repr__(self):
        return f"PolyDiffOp({format_op(self)!r})"


# ---------------------------------------------------------------------------
# polynomial coordinate maps and conjugation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoordMap:
    """Polynomial coordinate change with a polynomial inverse."""

    fwd: tuple
    inv: tuple

    def check_inverse(self) -> bool:
        comp = [substitute(p.terms, self.inv) for p in self.fwd]
        return comp == [Z, Y, X]

    def apply_points(self, pts):
        pts = np.asarray(pts, dtype=float)
        z, y, x = pts[..., 0], pts[..., 1], pts[..., 2]
        return np.stack([np.real(p.eval(z, y, x)) for p in self.fwd], axis=-1)

    def pullback(self, fs, points) -> list:
        """The jet of f o m at the point(s) for each f of a sequence: f's
        jet formula at the map's component jets, formed once per call."""
        coords = Jet.coordinates(points)
        zyx = [substitute(p.terms, coords) for p in self.fwd]
        return [f.jet_at(zyx) for f in fs]


def verify_identity(identities, corpus, points) -> dict:
    """{name: maximum absolute discrepancy over a corpus of jet-evaluable
    functions} for identities (name, lhs, rhs), each side a tuple (op,
    outer=None, inner=None).  Sides are grouped by their (outer, inner)
    pair; a group forms outer(points), the corpus jets there (through the
    inner map's component jets) and each operator's coefficient values
    once, and frees them before the next group; sides of a group with
    equal operators share one application.  A NaN discrepancy makes that
    identity NaN."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    identities, groups, values = list(identities), {}, {}
    for i, (_, *sides) in enumerate(identities):
        for s, (op, *maps) in enumerate(sides):
            outer, inner = (*maps, None, None)[:2]
            groups.setdefault((outer, inner), []).append(((i, s), op))
    for (outer, inner), sides in groups.items():
        q = pts if outer is None else outer.apply_points(pts)
        jets = ([f.jet_at(Jet.coordinates(q)) for f in corpus]
                if inner is None else inner.pullback(corpus, q))
        ops, applied = [], []  # the group's distinct operators, by ==
        for key, op in sides:
            if op not in ops:
                ops.append(op)
                applied.append(op.apply(jets, q))
            values[key] = applied[ops.index(op)]
        del jets  # freed before the next group's are formed
    return {name: float(np.max([np.max(np.abs(a - b)) for a, b in
                                zip(values[i, 0], values[i, 1])], initial=0.0))
            for i, (name, _, _) in enumerate(identities)}


# ---------------------------------------------------------------------------
# named coordinate maps
# ---------------------------------------------------------------------------


def reflection(sz: int, sy: int, sx: int) -> CoordMap:
    """(z, y, x) -> (sz z, sy y, sx x) for signs of +-1; an involution."""
    fwd = (float(sz) * Z, float(sy) * Y, float(sx) * X)
    return CoordMap(fwd, fwd)


def shear_reflect_map() -> CoordMap:
    """(z, y, x) -> (z - 2xy, y, -x); an involution."""
    fwd = (Z - 2.0 * X * Y, Y, -1.0 * X)
    return CoordMap(fwd, fwd)


def shear_map() -> CoordMap:
    """(z, y, x) -> (z - xy, y, x), inverse (z + xy, y, x)."""
    return CoordMap((Z - X * Y, Y, X), (Z + X * Y, Y, X))


def shear_map_inv() -> CoordMap:
    return CoordMap((Z + X * Y, Y, X), (Z - X * Y, Y, X))


def flip_y_shear_map() -> CoordMap:
    """(z, y, x) -> (z + xy, -y, x); an involution."""
    fwd = (Z + X * Y, -1.0 * Y, X)
    return CoordMap(fwd, fwd)


def flip_x_shear_map() -> CoordMap:
    """(z, y, x) -> (z + xy, y, -x); an involution."""
    fwd = (Z + X * Y, Y, -1.0 * X)
    return CoordMap(fwd, fwd)


# ---------------------------------------------------------------------------
# vector fields spanning the nilpotent Lie algebra
# ---------------------------------------------------------------------------


def vf_z() -> PolyDiffOp:
    return PolyDiffOp.partial(0)


def vf_y() -> PolyDiffOp:
    return PolyDiffOp({(1, 0, 0): X, (0, 1, 0): ONE})


def vf_x() -> PolyDiffOp:
    return PolyDiffOp({(1, 0, 0): -1.0 * Y, (0, 0, 1): ONE})


# ---------------------------------------------------------------------------
# named operators
# ---------------------------------------------------------------------------


def _op(dz=None, dy=None, dx=None, dzz=None, dyy=None, dxx=None, dzy=None,
        dzx=None):
    keys = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (0, 2, 0), (0, 0, 2),
            (1, 1, 0), (1, 0, 1))
    return PolyDiffOp({k: c for k, c in zip(keys, (dz, dy, dx, dzz, dyy, dxx,
                                                   dzy, dzx)) if c is not None})


def cauchy_riemann() -> PolyDiffOp:
    """dx - i dy."""
    return _op(dx=1.0, dy=-1.0j)


def cauchy_riemann_star() -> PolyDiffOp:
    """dx + i dy."""
    return _op(dx=1.0, dy=1.0j)


def lewy() -> PolyDiffOp:
    """-dx - i dy - 2y dz + 2ix dz (the classical unsolvable operator)."""
    return _op(dx=-1.0, dy=-1.0j, dz=-2.0 * Y + 2.0j * X)


def lewy_star() -> PolyDiffOp:
    """-dx + i dy - 2y dz - 2ix dz."""
    return _op(dx=-1.0, dy=1.0j, dz=-2.0 * Y - 2.0j * X)


def lewy_conjugate_true() -> PolyDiffOp:
    """-dx - i dy - (2y + 2ix) dz: what conjugating the Cauchy-Riemann
    operator by the shear-reflection actually produces; differs from lewy()
    by the sign of the x dz term and is spectrally solvable through that
    conjugation."""
    return _op(dx=-1.0, dy=-1.0j, dz=-2.0 * Y - 2.0j * X)


def laplacian_2d() -> PolyDiffOp:
    return _op(dxx=1.0, dyy=1.0)


def laplacian_3d() -> PolyDiffOp:
    return _op(dxx=1.0, dyy=1.0, dzz=1.0)


def heis_laplacian_left() -> PolyDiffOp:
    """Z^2 + Y^2 + X^2 for the left-invariant basis fields."""
    zo, yo, xo = vf_z(), vf_y(), vf_x()
    return zo @ zo + yo @ yo + xo @ xo


def heis_laplacian_right() -> PolyDiffOp:
    """Right-invariant counterpart: fields (dz, -x dz + dy, y dz + dx)."""
    zo = PolyDiffOp.partial(0)
    yo = PolyDiffOp({(1, 0, 0): -1.0 * X, (0, 1, 0): ONE})
    xo = PolyDiffOp({(1, 0, 0): Y, (0, 0, 1): ONE})
    return zo @ zo + yo @ yo + xo @ xo


def sheared_laplacian() -> PolyDiffOp:
    """The shear-conjugated 3-D Laplacian:
    dxx + dyy + (1 + x^2 + y^2) dzz + 2y dz dx + 2x dz dy."""
    return _op(dxx=1.0, dyy=1.0, dzz=ONE + X * X + Y * Y,
               dzx=2.0 * Y, dzy=2.0 * X)


def first_order_invariant() -> PolyDiffOp:
    """y dz + dx + i dy + ix dz."""
    return _op(dx=1.0, dy=1.0j, dz=Y + 1.0j * X)


def hormander_P() -> PolyDiffOp:
    """-i dx + dy - 2x dz - 2iy dz."""
    return _op(dx=-1.0j, dy=1.0, dz=-2.0 * X - 2.0j * Y)


def hormander_P_bar() -> PolyDiffOp:
    """i dx + dy - 2x dz + 2iy dz."""
    return _op(dx=1.0j, dy=1.0, dz=-2.0 * X + 2.0j * Y)


def hormander_Q4() -> PolyDiffOp:
    """The fourth-order composition P Pbar Pbar P."""
    p, pb = hormander_P(), hormander_P_bar()
    return p @ pb @ pb @ p


def cr_pair_R() -> PolyDiffOp:
    """-i dx + dy."""
    return _op(dx=-1.0j, dy=1.0)


def cr_pair_R_star() -> PolyDiffOp:
    """i dx + dy."""
    return _op(dx=1.0j, dy=1.0)


# ---------------------------------------------------------------------------
# the test-function corpus.  A polynomial times a Gaussian is closed under all
# operators in this module, so manufactured right-hand sides are exact
# ---------------------------------------------------------------------------


class PolyGauss:
    """P(z,y,x) * exp(-|r - mu|^2 / (2 sigma^2)).

    Applying any PolyDiffOp returns another PolyGauss (the derivative of the
    Gaussian factor re-enters as a polynomial), so right-hand sides
    manufactured from known solutions are exact closed forms, vectorized
    for sampling and jet-evaluable for spot checks.
    """

    def __init__(self, poly: Poly3, mu=(0.0, 0.0, 0.0), sigma: float = 1.0):
        self.poly = poly if isinstance(poly, Poly3) else Poly3.const(poly)
        self.mu = tuple(float(m) for m in mu)
        self.sigma = float(sigma)

    def _partial(self, poly: Poly3, axis: int) -> Poly3:
        shift = Poly3.variable(axis) - Poly3.const(self.mu[axis])
        return poly.partial(axis) - poly * shift * (1.0 / self.sigma ** 2)

    def apply_diffop(self, op: PolyDiffOp) -> "PolyGauss":
        total = Poly3()
        for m, coeff in op.terms.items():
            p = self.poly
            for axis in range(3):
                for _ in range(m[axis]):
                    p = self._partial(p, axis)
            total = total + coeff * p
        return PolyGauss(total, self.mu, self.sigma)

    def __call__(self, z, y, x):
        """Values at broadcastable coordinate arrays z, y, x."""
        q = ((z - self.mu[0]) ** 2 + (y - self.mu[1]) ** 2
             + (x - self.mu[2]) ** 2)
        return self.poly.eval(z, y, x) * np.exp(-q / (2.0 * self.sigma ** 2))

    def values(self, pts):
        """Values at the points of an (..., 3) array of (z, y, x) rows."""
        pts = np.asarray(pts, dtype=float)
        return self(pts[..., 0], pts[..., 1], pts[..., 2])

    def jet_at(self, zyx) -> Jet:
        """The jet of f at the three coordinate jets zyx: Jet.coordinates
        of a point or a batch, or a map's component jets there."""
        d = [j - c for j, c in zip(zyx, self.mu)]
        q = d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
        gauss = (q * (-0.5 / self.sigma ** 2)).exp()
        if set(self.poly.terms) == {(0, 0, 0)}:  # a constant: no jet product
            return Jet(gauss.coeffs * self.poly.terms[(0, 0, 0)])
        return substitute(self.poly.terms, zyx) * gauss


class PlaneWave:
    """exp(i (kz z + ky y + kx x))."""

    def __init__(self, kz, ky, kx):
        self.k = (complex(kz), complex(ky), complex(kx))

    def jet_at(self, zyx) -> Jet:
        """The jet of f at the three coordinate jets zyx, as for PolyGauss."""
        zj, yj, xj = zyx
        return (1j * (self.k[0] * zj + self.k[1] * yj + self.k[2] * xj)).exp()

    def values(self, pts):
        pts = np.asarray(pts, dtype=float)
        return np.exp(1j * (self.k[0] * pts[..., 0] + self.k[1] * pts[..., 1]
                            + self.k[2] * pts[..., 2]))


def standard_corpus(rng):
    """Mixed corpus of four plane waves and six bumps, alternately Gaussians
    and Gaussian-times-polynomial functions, all with exact jets."""
    corpus = []
    for _ in range(4):
        corpus.append(PlaneWave(*rng.uniform(-1.5, 1.5, size=3)))
    for i in range(6):
        mu = rng.uniform(-0.5, 0.5, size=3)
        sigma = rng.uniform(0.8, 1.6)
        poly = ONE
        if i % 2:
            c = rng.normal(size=3)
            poly = Poly3({(0, 0, 0): 1.0, (1, 0, 0): 0.3 * c[0],
                          (0, 1, 1): 0.2 * c[1], (0, 0, 2): 0.1 * c[2]})
        corpus.append(PolyGauss(poly, mu, sigma))
    return corpus


# ---------------------------------------------------------------------------
# operator DSL:  terms like (-1)*dx + (-i)*dy + (-2*y)*dz + (2*i*x)*dz
# ---------------------------------------------------------------------------

_NUMBER = re.compile(r"\d+\.?\d*(?:[eE][+-]?\d+)?")
_POWER = re.compile(r"[zyx] ?\*\* ?\d+")
_NO_INDEX = (0, 0, 0)
_UNITS = dict(zip(VARS, ((1, 0, 0), (0, 1, 0), (0, 0, 1))))
# name -> (coefficient, coordinate monomial, derivative multi-index)
_ATOMS = {"i": (1j, _NO_INDEX, _NO_INDEX),
          **{v: (1.0, u, _NO_INDEX) for v, u in _UNITS.items()},
          **{"d" + v: (1.0, _NO_INDEX, u) for v, u in _UNITS.items()}}


def _terms(node, src: bytes):
    """A parsed node of the one-line operator text src (UTF-8, since node
    offsets count bytes) as a list of (coefficient, coordinate monomial,
    derivative multi-index)."""
    seg = src[node.col_offset:node.end_col_offset].decode()
    if isinstance(node, ast.Constant) and _NUMBER.fullmatch(seg):
        return [(complex(float(seg)), _NO_INDEX, _NO_INDEX)]
    if isinstance(node, ast.Name) and node.id in _ATOMS:
        return [_ATOMS[node.id]]
    op = type(getattr(node, "op", None))
    if op is ast.UAdd:
        return _terms(node.operand, src)
    if op is ast.USub:
        return [(-1.0 * c, m, d) for c, m, d in _terms(node.operand, src)]
    if op is ast.Pow and _POWER.fullmatch(seg):
        mono = _ATOMS[node.left.id][1]
        return [(1.0, tuple(k * node.right.value for k in mono), _NO_INDEX)]
    if op not in (ast.Add, ast.Sub, ast.Mult):
        raise ValueError(f"not an operator expression: {seg!r}")
    left, right = _terms(node.left, src), _terms(node.right, src)
    if op is ast.Add:
        return left + right
    if op is ast.Sub:
        return left + [(-c, m, d) for c, m, d in right]
    return [(c1 * c2, tuple(map(sum, zip(m1, m2))),
             tuple(map(sum, zip(d1, d2))))
            for c1, m1, d1 in left for c2, m2, d2 in right]


def parse_op(text: str) -> PolyDiffOp:
    """Parse a sum of products of complex scalars, coordinates, and
    derivative symbols dz, dy, dx (repeat factors for higher order).

    The text is read by Python's expression grammar, with `^` for powers:
    numbers, the names i, z, y, x, dz, dy, dx, unary +/-, binary +, - and *,
    and a coordinate raised to an integer literal.  Anything else, `**`
    included, is a ValueError, and so is a text nested deeper than the
    interpreter's recursion limit (about a thousand operators in a row)."""
    if "**" in text:
        raise ValueError("write a power as x^k, not x**k")
    # whitespace only separates tokens; leading zeros of an integer are
    # dropped, since Python's grammar rejects them
    src = re.sub(r"(?<![\w.])0+(?=\d)", "",
                 " ".join(text.replace("^", "**").split()))
    try:
        parts = _terms(ast.parse(src, mode="eval").body, src.encode())
    except SyntaxError as exc:
        raise ValueError(f"cannot parse {text!r}: {exc.msg}") from None
    except RecursionError:
        raise ValueError("operator text nested too deeply") from None
    op = PolyDiffOp()
    for c, mono, d in parts:
        op = op + PolyDiffOp({d: Poly3({mono: c})})
    return op


def format_op(op: PolyDiffOp) -> str:
    """Canonical text form; parse_op(format_op(op)) == op."""
    bits = []
    for d in sorted(op.terms):
        poly = op.terms[d]
        dstr = "*".join("*".join(["d" + VARS[i]] * d[i])
                        for i in range(3) if d[i])
        for m in sorted(poly.terms):
            mono = "*".join(
                "*".join([VARS[i]] * m[i]) for i in range(3) if m[i])
            chunk = f"({_fmt_complex(poly.terms[m])})"
            if mono:
                chunk += "*" + mono
            if dstr:
                chunk += "*" + dstr
            bits.append(chunk)
    return " + ".join(bits) if bits else "(0)"
