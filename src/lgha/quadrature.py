"""Tensor grids, quadrature rules, discrete Fourier transforms, Monte Carlo
integration, and Haar quadrature on SU(2)xSU(2) and U(2).

Fourier convention used throughout the package: the forward transform carries
the kernel exp(-i <xi, x>) and no prefactor; every (2pi) factor sits on the
inverse / spectral side, i.e. ||f||^2 = (2pi)^{-d} ||Ff||^2.  Every transform
calls np.fft directly; the solvers and plancherel_N_check split theirs into
per-plane calls over the workers (_by_plane).
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

DEFAULT_GRID_BUDGET = 2 ** 25
DEFAULT_SO4_NODE_BUDGET = 2 ** 21
MIN_MC_SAMPLES = 1000
FACTOR_COUNT = 64  # nodes on which factor_pairing samples each 1-D factor
_MC_CHUNK = 1 << 19  # samples drawn and summed per Monte Carlo block
# complex entries (512 KB) in one temporary block of the pointwise oracles
BLOCK_ENTRIES = 1 << 15


class BudgetExceeded(RuntimeError):
    """A grid or node set would exceed the configured point budget."""


# ---------------------------------------------------------------------------
# one run of planes per CPU for work that is independent per plane, and one
# block stream for Monte Carlo
# ---------------------------------------------------------------------------

_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_pool = None
_pool_lock = threading.Lock()
_local = threading.local()  # .in_task is set in the pool's threads


def _shared_pool():
    """The one worker pool, created on first use, or None where work runs
    serially: on one CPU, and inside a pool task, so that nesting cannot
    wait on a pool whose threads are all busy."""
    if _WORKERS == 1 or getattr(_local, "in_task", False):
        return None
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(_WORKERS, initializer=lambda: setattr(
                _local, "in_task", True))
    return _pool


def _by_plane(fn, count: int) -> list:
    """[fn(slice(i, i + 1)) for i in range(count)], in plane order, each
    worker running one contiguous run of the planes.  Every fn(p) must touch
    only its own plane, so the result does not depend on the worker count."""
    k = max(1, min(_WORKERS, count))
    edges = [count * i // k for i in range(k + 1)]

    def run(j):
        return [fn(slice(i, i + 1)) for i in range(edges[j], edges[j + 1])]

    pool = _shared_pool() if k > 1 else None
    return sum(map(run, range(k)) if pool is None else pool.map(run, range(k)),
               [])


@dataclass(frozen=True)
class Axis:
    """One grid axis: count cell-centered nodes on the box [lo, hi], so that
    a symmetric box contains -x for every node x."""

    name: str
    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if self.count < 2:
            raise ValueError("axis needs at least 2 nodes")
        if not self.lo < self.hi:
            raise ValueError("axis requires lo < hi")

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / self.count

    def nodes(self) -> np.ndarray:
        return self.lo + self.step * (np.arange(self.count) + 0.5)

    def freqs(self) -> np.ndarray:
        """Angular frequencies of the discrete transform along this axis, in
        numpy fft order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.count, d=self.step)


@dataclass(frozen=True)
class GridSpec:
    axes: tuple

    def __init__(self, axes):
        axes = tuple(axes)
        names = [a.name for a in axes]
        if len(set(names)) != len(names):
            raise ValueError("duplicate axis names")
        total = math.prod(a.count for a in axes)
        if total > DEFAULT_GRID_BUDGET:
            raise BudgetExceeded(f"grid has {total} points > {DEFAULT_GRID_BUDGET}")
        object.__setattr__(self, "axes", axes)

    @property
    def shape(self):
        return tuple(a.count for a in self.axes)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    @property
    def names(self):
        return tuple(a.name for a in self.axes)

    def axis(self, name: str) -> Axis:
        for a in self.axes:
            if a.name == name:
                return a
        raise KeyError(name)

    def coords(self, vec=Axis.nodes, index=()) -> list:
        """vec(axis) for every axis, cut to index (one slice per leading
        axis) and shaped to broadcast over the grid."""
        n = len(self.axes)
        cut = tuple(index) + (slice(None),) * (n - len(index))
        return [np.reshape(vec(a)[s], [-1 if j == i else 1 for j in range(n)])
                for i, (a, s) in enumerate(zip(self.axes, cut))]


def box_grid(names, lo, hi, count) -> GridSpec:
    """Cell-centered box axes for every name; lo, hi and count are each one
    value for all names or one value per name."""
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (len(names),))
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (len(names),))
    count = np.broadcast_to(np.asarray(count, dtype=int), (len(names),))
    axes = [Axis(n, lo[i], hi[i], int(count[i]))
            for i, n in enumerate(names)]
    return GridSpec(axes)


def pairwise_sum(a):
    """Deterministic pairwise reduction of an array (complex or real) over
    its first axis: one number for a 1-D array, k for an (m, k) array.

    One fixed halving tree: a[0]+a[1], a[2]+a[3], ... per level, odd tail
    kept; the result does not depend on threading or memory layout.
    """
    a = np.asarray(a)
    if a.shape[0] == 0:
        return np.zeros(a.shape[1:], a.dtype)[()]
    a = np.ascontiguousarray(a)
    while a.shape[0] > 1:
        half = a.shape[0] // 2
        tail = a[2 * half:]
        a = a[0:2 * half:2] + a[1:2 * half:2]
        if tail.shape[0]:
            a = np.concatenate([a, tail])
    return a[0]


@dataclass
class SampledField:
    """Complex values sampled on a tensor grid, row-major in axis order."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"value shape {self.values.shape} != grid shape {self.grid.shape}")
        r = np.atleast_2d(self.values)  # a 1-D field is one plane
        if not all(_by_plane(lambda p: np.all(np.isfinite(r[p])), len(r))):
            raise ValueError("field contains non-finite values")

    @classmethod
    def from_callable(cls, grid: GridSpec, fn):
        """Sample the pointwise fn, which maps coordinate arrays shaped to
        broadcast over the grid (GridSpec.coords) to values of their
        broadcast shape, on index boxes, one _by_plane step each: with d the
        first axis whose trailing block shape[d+1:] holds at most
        BLOCK_ENTRIES points, a box fixes the axes before d and runs
        BLOCK_ENTRIES // (block size) indices along d."""
        shape = grid.shape
        d = next(d for d in range(len(shape))
                 if math.prod(shape[d + 1:]) <= BLOCK_ENTRIES)
        run = BLOCK_ENTRIES // math.prod(shape[d + 1:])
        boxes = [tuple(slice(i, i + 1) for i in lead) + (slice(a, a + run),)
                 for lead in np.ndindex(*shape[:d])
                 for a in range(0, shape[d], run)]
        nodes = {a.name: a.nodes() for a in grid.axes}  # once, cut per box
        out = np.empty(shape, complex)
        _by_plane(lambda p: [np.copyto(out[box], fn(*grid.coords(
            lambda a: nodes[a.name], box))) for box in boxes[p]], len(boxes))
        return cls(grid, out)


def norm2(field) -> float:
    """Quadrature of |f|^2 (a SampledField or Spectrum f): the pairwise sum
    of its first-axis planes' sums of |f|^2, in plane order whatever the
    worker count, times the cell volume prod h."""
    vals = np.atleast_2d(field.values)  # a 1-D field is one plane
    sums = _by_plane(lambda p: pairwise_sum(np.abs(vals[p].ravel()) ** 2),
                     vals.shape[0])
    return float(pairwise_sum(np.asarray(sums))
                 * math.prod(ax.step for ax in field.grid.axes))


# ---------------------------------------------------------------------------
# discrete Fourier transforms (continuum-normalized)
# ---------------------------------------------------------------------------


@dataclass
class Spectrum:
    """Discrete approximation of the continuum Fourier transform over every
    axis of the grid, at the frequencies Axis.freqs."""

    grid: GridSpec
    values: np.ndarray

    def freq_weight(self) -> float:
        """Product of the dual-grid cell volumes (one Delta-xi per axis)."""
        return math.prod(2.0 * np.pi / (ax.count * ax.step)
                         for ax in self.grid.axes)


def _axis_phases(grid: GridSpec) -> list:
    """h * exp(-i xi x0) per axis, x0 the first node, shaped to broadcast
    over the grid: their product turns an FFT into the continuum
    transform's Riemann sum."""
    return grid.coords(lambda ax: ax.step * np.exp(
        -1j * ax.freqs() * (ax.lo + 0.5 * ax.step)))


def dft_forward(field: SampledField) -> Spectrum:
    """F(xi) = sum_j f(x_j) exp(-i xi x_j) h over every axis of the grid:
    np.fft.fftn times the whole-grid factor (f0 * f1) * ... of the axis
    phases."""
    out = np.fft.fftn(field.values)
    out *= functools.reduce(np.multiply, _axis_phases(field.grid))
    return Spectrum(field.grid, out)


def dft_inverse(spec: Spectrum) -> SampledField:
    """Exact inverse of dft_forward (composes to the identity on grid data)."""
    out = spec.values / functools.reduce(np.multiply, _axis_phases(spec.grid))
    return SampledField(spec.grid, np.fft.ifftn(out, out=out))


def _conj_sum(u, v) -> complex:
    """pairwise_sum(u * conj(v)), real for equal u and v (numpy's complex
    product may fuse multiply-adds, leaving rounding in its imaginary part)."""
    prod = u * np.conj(v)
    return complex(pairwise_sum(prod.real if np.array_equal(u, v) else prod))


def factor_pairing(fs, gs, count: int = FACTOR_COUNT):
    """Both sides of the 1-D bilinear Plancherel identity, multiplied over
    the factor pairs (a, b) of fs and gs (each with .values(x) and
    .suggested_axis()), and the spectra of fs: prod int a conj(b) dx and
    prod (2 pi)^{-1} int Fa conj(Fb) dxi.  A pair is sampled on count nodes
    of the box holding both suggested boxes; a once when b is a."""
    lhs = rhs = 1.0
    spectra = []
    for a, b in zip(fs, gs):
        (alo, ahi), (blo, bhi) = a.suggested_axis(), b.suggested_axis()
        grid = box_grid(("x",), min(alo, blo), max(ahi, bhi), count)
        fa = SampledField.from_callable(grid, a.values)
        fb = fa if b is a else SampledField.from_callable(grid, b.values)
        sa = dft_forward(fa)
        sb = sa if b is a else dft_forward(fb)
        lhs *= _conj_sum(fa.values, fb.values) * grid.axes[0].step
        rhs *= _conj_sum(sa.values, sb.values) * sa.freq_weight() \
            / (2.0 * np.pi)
        spectra.append(sa)
    return lhs, rhs, spectra


# ---------------------------------------------------------------------------
# Monte Carlo with Gaussian importance sampling
# ---------------------------------------------------------------------------


@dataclass
class MCResult:
    estimate: complex  # (k,) arrays for an integrand of k values per sample
    stderr: float

    def agrees(self, other_value: complex) -> bool:
        return abs(self.estimate - other_value) <= 3.0 * max(self.stderr, 1e-300)


def monte_carlo(integrand, mean, sigma, n: int, seed: int) -> MCResult:
    """Importance-sampled integral of `integrand` over R^d.

    Samples are drawn from a diagonal Gaussian N(mean, diag(sigma^2)) using a
    Philox counter-based generator, so results are reproducible bit-for-bit
    for a fixed seed.  `integrand` maps an (m, d) array to m complex values,
    or to (m, k) for k integrals on the same samples, and must be row-wise:
    the values of a row depend on that row alone.  Each chunk is drawn as a
    stream of power-of-two row blocks, each mapped, weighted and summed on a
    worker once drawn; their pairwise sum equals that over the whole chunk.
    """
    if n < MIN_MC_SAMPLES:
        raise ValueError(f"need at least {MIN_MC_SAMPLES} samples")
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), mean.shape)
    d = mean.size
    rng = np.random.Generator(np.random.Philox(seed))
    lognorm = -0.5 * d * np.log(2.0 * np.pi) - np.sum(np.log(sigma))

    def block_sums(z):
        x = mean + sigma * z
        logpdf = lognorm - 0.5 * np.sum(((x - mean) / sigma) ** 2, axis=1)
        vals = np.asarray(integrand(x), dtype=complex)
        w = (vals.T * np.exp(-logpdf)).T  # one weight per row
        return pairwise_sum(w), pairwise_sum(np.abs(w) ** 2)

    pool = _shared_pool()
    rows = BLOCK_ENTRIES // 2  # two complex values a row
    sums, sums2, remaining = [], [], n
    while remaining > 0:
        m = min(_MC_CHUNK, remaining)
        blocks = []
        for a in range(0, m, rows):
            z = rng.standard_normal((min(rows, m - a), d))
            blocks.append(block_sums(z) if pool is None
                          else pool.submit(block_sums, z))
        s, s2 = zip(*(b if pool is None else b.result() for b in blocks))
        sums.append(pairwise_sum(np.asarray(s)))
        sums2.append(pairwise_sum(np.asarray(s2)))
        remaining -= m
    est = pairwise_sum(np.asarray(sums)) / n
    var = np.maximum(pairwise_sum(np.asarray(sums2)).real / n
                     - np.abs(est) ** 2, 0.0)
    se = np.sqrt(var / n)
    return MCResult(est, se) if est.ndim else MCResult(complex(est), float(se))


# ---------------------------------------------------------------------------
# Haar quadrature on SU(2), SU(2)xSU(2) and U(2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SU2Quad:
    """Euler-angle product rule on SU(2), exact for matrix coefficients of
    irreducibles up to band limit J (and their pairwise products).

    alpha in [0, 2pi) uniform, beta Gauss-Legendre in cos(beta), gamma in
    [0, 4pi) uniform; weights normalized to total mass 1.
    """

    euler: np.ndarray    # (n, 3) columns alpha, beta, gamma
    weights: np.ndarray  # (n,)

    @property
    def node_count(self) -> int:
        return self.euler.shape[0]


def su2_quadrature(J: float) -> SU2Quad:
    if J < 0:
        raise ValueError("band limit must be >= 0")
    twoJ = int(round(2 * J))
    na = 2 * twoJ + 2
    nb = twoJ + 2
    ng = 2 * twoJ + 2
    if na * nb * ng > DEFAULT_SO4_NODE_BUDGET:
        raise BudgetExceeded("SU(2) quadrature exceeds node budget")
    alpha = 2.0 * np.pi * np.arange(na) / na
    x, wb = np.polynomial.legendre.leggauss(nb)
    beta = np.arccos(x)
    gamma = 4.0 * np.pi * np.arange(ng) / ng
    A, B, G = np.meshgrid(alpha, beta, gamma, indexing="ij")
    W = np.broadcast_to((wb / 2.0)[None, :, None] / (na * ng), A.shape)
    euler = np.stack([A.ravel(), B.ravel(), G.ravel()], axis=1)
    return SU2Quad(euler, W.ravel().copy())


@dataclass(frozen=True)
class EulerQuadSO4:
    """Product Haar quadrature on SU(2) x SU(2) (covering SO(4); only labels
    with j1 + j2 integral are well defined on the quotient)."""

    left: SU2Quad
    right: SU2Quad


def so4_quadrature(J: float) -> EulerQuadSO4:
    q = su2_quadrature(J)
    if q.node_count ** 2 > DEFAULT_SO4_NODE_BUDGET:
        raise BudgetExceeded("SO(4) quadrature exceeds node budget")
    return EulerQuadSO4(q, q)


@dataclass(frozen=True)
class U2Quad:
    """Haar quadrature on U(2) realized as (U(1) x SU(2)) / Z2: a phase theta
    in [0, pi) uniform plus an SU(2) factor."""

    theta: np.ndarray
    theta_weights: np.ndarray
    su2: SU2Quad


def u2_band_limit(M) -> int:
    """A U(2) band limit as an int: a nonnegative integer, or an integral
    float such as 1.0; any other value is a ValueError."""
    if not (M >= 0 and float(M).is_integer()):
        raise ValueError(f"U(2) band limit {M!r} is not a nonnegative integer")
    return int(M)


def u2_quadrature(M: int) -> U2Quad:
    M = u2_band_limit(M)
    nt = 4 * M + 2
    theta = np.pi * np.arange(nt) / nt
    su2 = su2_quadrature(M)
    if nt * su2.node_count > DEFAULT_SO4_NODE_BUDGET:
        raise BudgetExceeded("U(2) quadrature exceeds node budget")
    return U2Quad(theta, np.full(nt, 1.0 / nt), su2)
