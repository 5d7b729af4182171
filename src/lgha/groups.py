"""Coordinate and matrix realizations of the 4x4 matrix groups and the
nilpotent groups, with group laws, inverses, embeddings, Iwasawa
decomposition, and the modulus function of the diagonal conjugation action.

Conventions
-----------
* Coordinate group laws are normative; matrix embeddings serve as oracles.
* The six-parameter unipotent group N uses coordinates (x1..x6) placed in the
  unit upper-triangular matrix at slots (1,2)=x1, (2,3)=x2, (1,3)=x3,
  (3,4)=x4, (2,4)=x5, (1,4)=x6.
* Each nilpotent group has one chart; the others are coordinate views of it:
  L_embed_twisted(X) = nil_embed(X[..., L_TWISTED]), the twisted block
  (t1, t2, t3, x4, x5, x6) of L being an N point;
  heis_embed(z, y, x) = spn_matrix_block(x, z, y, 0), the t = 0 slice;
  sp4_n_chart(n12, n13, n23, n14) = spn_matrix_block(n12, n14, n13, n23)
  with rows and columns 3 and 4 swapped, the block chart in the adapted form.
* The symplectic group is realized with the antidiagonal form Omega
  (`SP_FORM`): this is the unique choice (up to scale) for which the standard
  QR-type Iwasawa factors of a symplectic matrix are again symplectic, and
  for which K = U(2), A two-dimensional and N four-dimensional add up to the
  full ten dimensions.  The block form [[0, I], [-I, 0]] (`SP_FORM_BLOCK`) is
  equivalent via the basis swap e3 <-> e4.
* The diagonal subgroup A is charted by logA in R^3 with the fourth entry
  e^{-t1-t2-t3}.
* Group elements are plain float arrays, stacked as (..., 4, 4).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SymplecticViolation", "NearSingular",
    "nil_mul", "nil_inv", "nil_embed", "nil_from_matrix",
    "L_mul", "L_inv", "L_embed_twisted",
    "heis_mul", "heis_embed",
    "spn_mul", "spn_matrix_block", "sp4_n_chart",
    "iwasawa_decompose", "modulus_factor",
    "SP_FORM", "SP_FORM_BLOCK",
    "symplectic_error", "sp4_algebra_basis", "sp4_iwasawa_dimension_audit",
    "random_sl4", "random_sp4", "random_so4",
]


class SymplecticViolation(ValueError):
    """A constructed matrix fails the symplectic relation (transcription bug)."""


class NearSingular(RuntimeError):
    """A QR diagonal entry collapsed; the input is not a clean group element."""


# basis swap between the block form of the symplectic matrix and the
# Iwasawa-adapted antidiagonal form
_E34 = [0, 1, 3, 2]
_SWAP34 = np.eye(4)[_E34]

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


def _coords(obj, n):
    a = np.asarray(obj, dtype=float)
    if a.shape[-1] != n:
        raise ValueError(f"expected {n} coordinates, got shape {a.shape}")
    return a


# ---------------------------------------------------------------------------
# six-parameter unipotent group N
# ---------------------------------------------------------------------------

# matrix slots of x1..x6
_NIL_SLOTS = ((0, 1), (1, 2), (0, 2), (2, 3), (1, 3), (0, 3))


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


def _unit_stack(values, slots) -> np.ndarray:
    """The identity stack (..., 4, 4) with values (..., k) written at the k
    matrix slots."""
    m = np.zeros(values.shape[:-1] + (4, 4))
    idx = np.arange(4)
    m[..., idx, idx] = 1.0
    m[(..., *zip(*slots))] = values
    return m


def nil_embed(p) -> np.ndarray:
    """Unit upper-triangular 4x4 embedding (vectorized: (..., 4, 4))."""
    return _unit_stack(_coords(p, 6), _NIL_SLOTS)


def nil_from_matrix(m) -> np.ndarray:
    return np.asarray(m, dtype=float)[(..., *zip(*_NIL_SLOTS))]


# ---------------------------------------------------------------------------
# nine-parameter group L; coordinate order (x6,x5,x4,x3,x2,t3,t2,x1,t1)
# ---------------------------------------------------------------------------

# the L slots of (t1, t2, t3, x4, x5, x6), the twisted block, which multiply
# as the N coordinates (x1..x6)
L_TWISTED = [8, 6, 5, 2, 1, 0]
# the L slots of x1..x6
L_X = [7, 4, 3, 2, 1, 0]


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
    """4x4 oracle for the twisted part of the L law: the N matrix of its
    L_TWISTED slots; the remaining three coordinates (x3,x2,x1) add
    componentwise."""
    return nil_embed(_coords(X, 9)[..., L_TWISTED])


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
    """4x4 homomorphic embedding, block symplectic convention: the t = 0
    slice spn_matrix_block(x, z, y, 0).  Slot map: (1,2) <- x, (1,3) <- z,
    (1,4) = (2,3) <- y, (4,3) <- -x."""
    p = _coords(p, 3)
    return spn_matrix_block(np.concatenate(
        [p[..., [2, 0, 1]], np.zeros(p.shape[:-1] + (1,))], axis=-1))


# ---------------------------------------------------------------------------
# four-parameter nilpotent symplectic group
# ---------------------------------------------------------------------------


def spn_matrix_block(p) -> np.ndarray:
    """The literal block-convention matrix of the four-parameter group."""
    p = _coords(p, 4)
    x, y, z, t = np.moveaxis(p, -1, 0)
    return _unit_stack(np.stack([x, y, z, z - x * t, t, -x], axis=-1),
                       ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (3, 2)))


def sp4_n_chart(params) -> np.ndarray:
    """Unit upper-triangular symplectic matrices (adapted form), charted by
    the free entries (n12, n13, n23, n14); the remaining entries are
    n34 = -n12 and n24 = n13 - n12 n23.  This is spn_matrix_block of
    (n12, n14, n13, n23) in the basis swap e3 <-> e4."""
    m = spn_matrix_block(_coords(params, 4)[..., [0, 3, 1, 2]])
    return m[..., _E34, :][..., _E34]


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

    It is the QR factorization g = q r with the signs s of r's diagonal
    moved into q, as random_so4 takes them: k = q diag(s), a = |diag r| and
    n = (diag r)^{-1} r.  A diagonal entry of r below 1e-13 in modulus,
    or a NaN, raises NearSingular.

    The groups suite, not this function, checks every factor's shape and,
    for a symplectic input (adapted form), that each factor is symplectic.
    """
    q, r = np.linalg.qr(np.asarray(g, dtype=float))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    if not np.all(np.abs(d) >= 1e-13):
        raise NearSingular(
            f"QR diagonal {np.min(np.abs(d)):g} below threshold")
    n = np.triu(r / d[..., :, None], 1) + np.eye(4)
    return q * np.sign(d)[..., None, :], np.abs(d)[..., :, None] * np.eye(4), n


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


# [13/13] Pade coefficients over the first, so that exp(0) = I exactly
_PADE13 = np.array([
    64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
    129060195264000, 10559470521600, 670442572800, 33522128640, 1323241920,
    40840800, 960960, 16380, 182, 1]) / 64764752532480000
_THETA13 = 5.371920351148152  # the largest 1-norm needing no squaring


def _expm(a) -> np.ndarray:
    """exp of each matrix of a stack a (..., n, n) (Higham 2005): one [13/13]
    Pade approximant for the stack, each matrix scaled by its own 2^-s, s =
    ceil(log2(max(|a|_1, theta13) / theta13)), and squared s times."""
    a = np.asarray(a, dtype=float)
    # a NaN or an inf entry gives s = 0 and a NaN result
    norm = np.nan_to_num(np.abs(a).sum(-2).max(-1, initial=0.0), posinf=0.0)
    s = np.ceil(np.log2(np.maximum(norm, _THETA13) / _THETA13))
    a = a * (0.5 ** s)[..., None, None]
    b, ident, a2 = _PADE13, np.eye(a.shape[-1]), a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(np.max(s, initial=0.0))):
        r[s > k] = r[s > k] @ r[s > k]
    return r


def random_sl4(z) -> np.ndarray:
    """exp(traceless part of 0.5 z) for standard normals z (..., 4, 4);
    ValueError unless each determinant is within 1e-10 of 1."""
    x = 0.5 * np.asarray(z, dtype=float)
    x = x - np.trace(x, axis1=-2, axis2=-1)[..., None, None] / 4.0 * np.eye(4)
    g = _expm(x)
    if not np.all(np.abs(np.linalg.det(g) - 1.0) <= 1e-10):
        raise ValueError("determinant is not 1")
    return g


def random_sp4(z) -> np.ndarray:
    """exp of 0.4 z in the orthonormal basis of the symplectic algebra, for
    standard normals z (..., 10); SymplecticViolation unless each is
    symplectic within 1e-10."""
    w = 0.4 * np.asarray(z, dtype=float)
    # row vector @ flattened basis: one draw rounds as a slice of a stack
    x = w[..., None, :] @ _SP4_BASIS.reshape(len(_SP4_BASIS), 16)
    g = _expm(x.reshape(w.shape[:-1] + (4, 4)))
    if not symplectic_error(g) <= 1e-10:
        raise SymplecticViolation("symplectic relation violated")
    return g


def random_so4(z) -> np.ndarray:
    """The orthogonal QR factor of standard normals z (..., 4, 4), with the
    signs of r's diagonal taken into q and its first two columns swapped
    where the determinant is negative; ValueError unless each q^T q is
    within 1e-10 of I and each determinant is positive."""
    q, r = np.linalg.qr(np.asarray(z, dtype=float))
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    flip = np.linalg.det(q) < 0
    q[flip] = q[flip][..., [1, 0, 2, 3]]
    if not (np.all(np.abs(np.swapaxes(q, -1, -2) @ q - np.eye(4)) <= 1e-10)
            and np.all(np.linalg.det(q) > 0)):
        raise ValueError("not special orthogonal")
    return q
