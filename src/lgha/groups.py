"""Coordinate and matrix realizations of the 4x4 matrix groups and the
nilpotent groups, with group laws, inverses, embeddings, Iwasawa
decomposition, and the modulus function of the diagonal conjugation action.

Conventions
-----------
* Coordinate group laws are normative; matrix embeddings serve as oracles.
* The six-parameter unipotent group N uses coordinates (x1..x6) placed in the
  unit upper-triangular matrix at slots (1,2)=x1, (2,3)=x2, (1,3)=x3,
  (3,4)=x4, (2,4)=x5, (1,4)=x6.
* The symplectic group is realized with the antidiagonal form Omega
  (`SP_FORM`): this is the unique choice (up to scale) for which the standard
  QR-type Iwasawa factors of a symplectic matrix are again symplectic, and
  for which K = U(2), A two-dimensional and N four-dimensional add up to the
  full ten dimensions.  The block form [[0, I], [-I, 0]] (`SP_FORM_BLOCK`) is
  equivalent via the basis swap e3 <-> e4.
* The diagonal subgroup A is charted by logA in R^3 with the fourth entry
  e^{-t1-t2-t3}.
* Group elements are plain float arrays, stacked as (..., 4, 4);
  `check_group` is the one membership check.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "check_group", "SymplecticViolation", "NearSingular",
    "nil_mul", "nil_inv", "nil_embed", "nil_from_matrix",
    "L_mul", "L_inv", "L_embed_twisted",
    "heis_mul", "heis_embed",
    "spn_mul", "spn_matrix_block",
    "iwasawa_decompose", "modulus_factor",
    "SP_FORM", "SP_FORM_BLOCK",
    "symplectic_error", "sp4_algebra_basis", "sp4_iwasawa_dimension_audit",
    "random_sl4", "random_sp4", "random_so4",
]


class SymplecticViolation(ValueError):
    """A constructed matrix fails the symplectic relation (transcription bug)."""


class NearSingular(RuntimeError):
    """Gram-Schmidt pivot collapsed; the input is not a clean group element."""


# basis swap between the block form of the symplectic matrix and the
# Iwasawa-adapted antidiagonal form
_SWAP34 = np.eye(4)[[0, 1, 3, 2]]

SP_FORM_BLOCK = np.block([
    [np.zeros((2, 2)), np.eye(2)],
    [-np.eye(2), np.zeros((2, 2))],
])

SP_FORM = _SWAP34 @ SP_FORM_BLOCK @ _SWAP34.T


def symplectic_error(g, form=None) -> float:
    """Largest entry of |g form g^T - form| over a stack g (..., 4, 4)."""
    form = SP_FORM if form is None else form
    g = np.asarray(g, dtype=float)
    return float(np.max(np.abs(g @ form @ np.swapaxes(g, -1, -2) - form)))


def check_group(m, tag) -> np.ndarray:
    """The stack m (..., 4, 4) as a float array, once every matrix in it is
    checked to lie in the group named by tag: "SL4", "SP4", "SO4",
    "UpperUnipotent" or "DiagPositive".  A failure raises ValueError
    (SymplecticViolation for "SP4"); each test is written so that a NaN
    fails it."""
    m = np.asarray(m, dtype=float)
    if m.shape[-2:] != (4, 4):
        raise ValueError("expected a stack of 4x4 matrices")
    if tag == "SL4":
        if not np.all(np.abs(np.linalg.det(m) - 1.0) <= 1e-10):
            raise ValueError("determinant is not 1")
    elif tag == "SP4":
        if not symplectic_error(m) <= 1e-10:
            raise SymplecticViolation("symplectic relation violated")
    elif tag == "SO4":
        if not (np.all(np.abs(np.swapaxes(m, -1, -2) @ m - np.eye(4)) <= 1e-10)
                and np.all(np.linalg.det(m) > 0)):
            raise ValueError("not special orthogonal")
    elif tag == "UpperUnipotent":
        if not (np.all(np.tril(m) == np.eye(4)) and np.all(np.isfinite(m))):
            raise ValueError("not exactly unit upper triangular")
    elif tag == "DiagPositive":
        diag = np.diagonal(m, axis1=-2, axis2=-1)
        if not (np.all(m == diag[..., None] * np.eye(4)) and np.all(diag > 0)):
            raise ValueError("not positive diagonal")
        if not np.all(np.abs(np.prod(diag, axis=-1) - 1.0) <= 1e-12):
            raise ValueError("diagonal product is not 1")
    else:
        raise ValueError(f"unknown tag {tag!r}")
    return m


def _coords(obj, n):
    a = np.asarray(obj, dtype=float)
    if a.shape[-1] != n:
        raise ValueError(f"expected {n} coordinates, got shape {a.shape}")
    return a


# ---------------------------------------------------------------------------
# six-parameter unipotent group N
# ---------------------------------------------------------------------------


def nil_mul(p, q):
    """Group law of N in coordinates (vectorized over leading axes)."""
    p = _coords(p, 6)
    q = _coords(q, 6)
    out = p + q
    out[..., 2] += p[..., 0] * q[..., 1]
    out[..., 4] += p[..., 1] * q[..., 3]
    out[..., 5] += p[..., 0] * q[..., 4] + p[..., 2] * q[..., 3]
    return out


def nil_inv(p):
    p = _coords(p, 6)
    out = -p
    out[..., 2] += p[..., 0] * p[..., 1]
    out[..., 4] += p[..., 1] * p[..., 3]
    out[..., 5] += p[..., 0] * p[..., 4] + p[..., 2] * p[..., 3] \
        - p[..., 0] * p[..., 1] * p[..., 3]
    return out


def nil_embed(p) -> np.ndarray:
    """Unit upper-triangular 4x4 embedding (vectorized: (..., 4, 4))."""
    p = _coords(p, 6)
    m = np.zeros(p.shape[:-1] + (4, 4))
    idx = np.arange(4)
    m[..., idx, idx] = 1.0
    m[..., 0, 1] = p[..., 0]
    m[..., 1, 2] = p[..., 1]
    m[..., 0, 2] = p[..., 2]
    m[..., 2, 3] = p[..., 3]
    m[..., 1, 3] = p[..., 4]
    m[..., 0, 3] = p[..., 5]
    return m


def nil_from_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    return np.stack([m[..., 0, 1], m[..., 1, 2], m[..., 0, 2],
                     m[..., 2, 3], m[..., 1, 3], m[..., 0, 3]], axis=-1)


# ---------------------------------------------------------------------------
# nine-parameter group L; coordinate order (x6,x5,x4,x3,x2,t3,t2,x1,t1)
# ---------------------------------------------------------------------------


def L_mul(X, Y):
    """Group law of L (vectorized).  The (x6,x5,x4) block is twisted by the
    (t3,t2,t1) triple; (x3,x2,x1) are plain translations."""
    X = _coords(X, 9)
    Y = _coords(Y, 9)
    out = X + Y
    out[..., 0] += X[..., 8] * Y[..., 1] + X[..., 5] * Y[..., 2]
    out[..., 1] += X[..., 6] * Y[..., 2]
    out[..., 5] += X[..., 8] * Y[..., 6]
    return out


def L_inv(X):
    X = _coords(X, 9)
    x6, x5, x4 = X[..., 0], X[..., 1], X[..., 2]
    t3, t2, t1 = X[..., 5], X[..., 6], X[..., 8]
    out = -X.copy()
    out[..., 5] = -t3 + t1 * t2
    out[..., 0] = -x6 + t1 * x5 - (t1 * t2 - t3) * x4
    out[..., 1] = -x5 + t2 * x4
    return out


def L_embed_twisted(X) -> np.ndarray:
    """4x4 oracle for the twisted part of the L law; the remaining three
    coordinates (x3,x2,x1) add componentwise."""
    X = _coords(X, 9)
    m = np.zeros(X.shape[:-1] + (4, 4))
    idx = np.arange(4)
    m[..., idx, idx] = 1.0
    m[..., 0, 1] = X[..., 8]   # t1
    m[..., 0, 2] = X[..., 5]   # t3
    m[..., 1, 2] = X[..., 6]   # t2
    m[..., 0, 3] = X[..., 0]   # x6
    m[..., 1, 3] = X[..., 1]   # x5
    m[..., 2, 3] = X[..., 2]   # x4
    return m


# ---------------------------------------------------------------------------
# three-parameter nilpotent symplectic group
# ---------------------------------------------------------------------------


def heis_mul(p, q):
    """Law (z,y,x)(c,b,a) = (z + c + xb - ay, y + b, x + a) (vectorized)."""
    p = _coords(p, 3)
    q = _coords(q, 3)
    out = p + q
    out[..., 0] += p[..., 2] * q[..., 1] - q[..., 2] * p[..., 1]
    return out


def heis_embed(p) -> np.ndarray:
    """4x4 homomorphic embedding, block symplectic convention.  Slot map:
    (1,2) <- x, (1,3) <- z, (1,4) = (2,3) <- y, (4,3) <- -x."""
    p = _coords(p, 3)
    z, y, x = p[..., 0], p[..., 1], p[..., 2]
    m = np.zeros(p.shape[:-1] + (4, 4))
    idx = np.arange(4)
    m[..., idx, idx] = 1.0
    m[..., 0, 1] = x
    m[..., 0, 2] = z
    m[..., 0, 3] = y
    m[..., 1, 2] = y
    m[..., 3, 2] = -x
    return m


# ---------------------------------------------------------------------------
# four-parameter nilpotent symplectic group
# ---------------------------------------------------------------------------


def spn_matrix_block(p) -> np.ndarray:
    """The literal block-convention matrix of the four-parameter group."""
    p = _coords(p, 4)
    x, y, z, t = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    m = np.zeros(p.shape[:-1] + (4, 4))
    idx = np.arange(4)
    m[..., idx, idx] = 1.0
    m[..., 0, 1] = x
    m[..., 0, 2] = y
    m[..., 0, 3] = z
    m[..., 1, 2] = z - x * t
    m[..., 1, 3] = t
    m[..., 3, 2] = -x
    return m


def spn_mul(p, q):
    """Coordinate law read off the matrix product of block-convention matrices."""
    p = _coords(p, 4)
    q = _coords(q, 4)
    x1, y1, z1, t1 = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    x2, y2, z2, t2 = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    x = x1 + x2
    z = z1 + z2 + x1 * t2
    t = t1 + t2
    y = y1 + y2 + x1 * (z2 - x2 * t2) - z1 * x2
    return np.stack([x, y, z, t], axis=-1)


# ---------------------------------------------------------------------------
# Iwasawa decomposition g = k a n
# ---------------------------------------------------------------------------


def iwasawa_decompose(g):
    """Unique factorization g = k a n of each matrix in a stack g (..., 4, 4):
    the stacks (k, a, n) with k special orthogonal, a positive diagonal of
    determinant one, n unit upper triangular.

    For a symplectic input (adapted form) all three factors are themselves
    symplectic; this is checked by the groups suite, not here.
    """
    # modified Gram-Schmidt with one re-orthogonalization pass, g = q r, on
    # the rows of a and q, which are the columns of g and of k
    a = np.swapaxes(np.asarray(g, dtype=float), -1, -2)
    q = np.zeros_like(a)
    r = np.zeros_like(a)
    for j in range(4):
        v = a[..., j, :].copy()
        for _ in range(2):
            for i in range(j):
                c = np.sum(q[..., i, :] * v, axis=-1)
                r[..., i, j] += c
                v -= c[..., None] * q[..., i, :]
        piv = np.sqrt(np.sum(v * v, axis=-1))
        if not np.all(piv >= 1e-13):
            raise NearSingular(
                f"column {j} pivot {np.min(piv):g} below threshold")
        r[..., j, j] = piv
        q[..., j, :] = v / piv[..., None]
    d = np.diagonal(r, axis1=-2, axis2=-1)
    n = np.triu(r / d[..., :, None], 1) + np.eye(4)
    return (check_group(np.swapaxes(q, -1, -2), "SO4"),
            check_group(d[..., :, None] * np.eye(4), "DiagPositive"),
            check_group(n, "UpperUnipotent"))


def modulus_factor(log_a):
    """Jacobian determinant of n -> a n a^{-1} on N for a = diag(a1..a4)
    charted by log_a (..., 3): the product of a_i / a_j over i < j, i.e.
    a1^3 a2 a3^{-1} a4^{-3}."""
    t = np.asarray(log_a, dtype=float)
    a = np.exp(np.concatenate([t, -t.sum(axis=-1, keepdims=True)], axis=-1))
    return a[..., 0] ** 3 * a[..., 1] / a[..., 2] / a[..., 3] ** 3


# ---------------------------------------------------------------------------
# Lie-algebra helpers and random sampling
# ---------------------------------------------------------------------------


def sp4_algebra_basis(form=None) -> np.ndarray:
    """Orthonormal basis of the symplectic Lie algebra {X : X form + form X^T = 0},
    computed from the null space of the defining linear map."""
    form = SP_FORM if form is None else np.asarray(form, dtype=float)
    cols = []
    for a in range(4):
        for b in range(4):
            e = np.zeros((4, 4))
            e[a, b] = 1.0
            cols.append((e @ form + form @ e.T).ravel())
    mat = np.array(cols).T
    _, s, vt = np.linalg.svd(mat)
    null = vt[np.sum(s > 1e-10 * s[0]):]
    return null.reshape(-1, 4, 4)


_SP4_BASIS = sp4_algebra_basis()  # adapted form; random_sp4 draws in it


def sp4_iwasawa_dimension_audit(form=None):
    """Dimensions (dim k, dim a, dim n) of the intersections of the symplectic
    algebra with the antisymmetric, diagonal, and strictly upper triangular
    subspaces; for the adapted form these are (4, 2, 4)."""
    basis = sp4_algebra_basis(form)

    def subdim(mask):
        # dimension of intersection = len(basis) - rank of complement projection
        comp = np.array([ (b - mask(b)).ravel() for b in basis ])
        return len(basis) - np.linalg.matrix_rank(comp, tol=1e-10)

    def antisym(b):
        return 0.5 * (b - b.T)

    def diagonal(b):
        return np.diag(np.diag(b))

    def upper(b):
        return np.triu(b, 1)

    return subdim(antisym), subdim(diagonal), subdim(upper)


def random_sl4(z) -> np.ndarray:
    """exp(traceless part of 0.5 z) for standard normals z (..., 4, 4)."""
    from scipy.linalg import expm

    x = 0.5 * np.asarray(z, dtype=float)
    x = x - np.trace(x, axis1=-2, axis2=-1)[..., None, None] / 4.0 * np.eye(4)
    return check_group(expm(x), "SL4")


def random_sp4(z) -> np.ndarray:
    """exp of 0.4 z in the orthonormal basis of the symplectic algebra, for
    standard normals z (..., 10)."""
    from scipy.linalg import expm

    w = 0.4 * np.asarray(z, dtype=float)
    # row vector @ flattened basis: one draw rounds as a slice of a stack
    x = w[..., None, :] @ _SP4_BASIS.reshape(len(_SP4_BASIS), 16)
    return check_group(expm(x.reshape(w.shape[:-1] + (4, 4))), "SP4")


def random_so4(z) -> np.ndarray:
    """The orthogonal QR factor of standard normals z (..., 4, 4), with the
    signs of r's diagonal taken into q and its first two columns swapped
    where the determinant is negative."""
    q, r = np.linalg.qr(np.asarray(z, dtype=float))
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    flip = np.linalg.det(q) < 0
    q[flip] = q[flip][..., [1, 0, 2, 3]]
    return check_group(q, "SO4")
