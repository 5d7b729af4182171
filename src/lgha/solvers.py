"""Constructive spectral solvers: division by the symbol for
constant-coefficient operators on periodic boxes, and one shear-conjugated
solve body for the Lewy-type operator and for the four-stage composition.

The conjugating coordinate change (z, y, x) -> (z - 2xy, y, -x) acts on
sampled fields exactly: the x-reflection is an index reversal on the
cell-centered symmetric grid and the z-shift by -2xy is a Fourier phase per
(y, x) column, so no interpolation enters anywhere.

On a periodic box the constant-coefficient operators of interest annihilate
the modes on the line xi_x = xi_y = 0; those modes of the data are projected
out and reported.  Right-hand sides whose projected mass is not negligible
are rejected (the equation has no periodic solution for them).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .diffops import PolyDiffOp, cauchy_riemann, cr_pair_R, \
    cr_pair_R_star, hormander_P, hormander_P_bar, lewy_conjugate_true
from .jets import VARS
from .quadrature import Axis, GridSpec, SampledField, _by_plane, box_grid

__all__ = [
    "IncompatibleRHS", "cr_solve", "spectral_apply", "shear_reflect_points",
    "lewy_solve", "four_stage_chain", "four_stage_operator",
    "four_stage_solve", "interior_mask", "interior_rel_error",
]

SOLVE_AXES = VARS
# (z, y, x) half-widths holding the effective support of a conjugated
# solve's right-hand side, and the margin added to them on every axis
SUPPORT = (2.5, 2.8, 2.8)
PAD = 0.8


class IncompatibleRHS(ValueError):
    """The right-hand side has too much mass on the operator's kernel modes."""


def _per_axis(grid: GridSpec, vec, index=()):
    """grid.coords(vec, index) reordered to the z, y and x axes, with zeros
    for an axis the grid lacks."""
    xs = dict(zip(grid.names, grid.coords(vec, index)))
    zero = np.zeros((1,) * len(grid.axes))
    return [xs.get(name, zero) for name in SOLVE_AXES]


def cr_solve(g: SampledField, op: PolyDiffOp):
    """Solve op f = g spectrally for a constant-coefficient operator,
    transforming g only along the axes A along which the symbol varies (the
    continuum phases would cancel and are left out).

    Modes where |symbol| < 1e-10 are projected to zero; the projected L2
    mass relative to ||g||, sum_masked |FFT_A g|^2 / (N_A sum |g|^2) by
    Parseval, is reported, and IncompatibleRHS is raised when it exceeds
    1e-6.  g is left as it was.  Returns (solution field, info dict).
    """
    vals = g.values.copy()
    info = _divide(vals, g.grid, op)
    return SampledField(g.grid, vals), info


def _divide(vals, grid: GridSpec, op: PolyDiffOp) -> dict:
    """cr_solve's body, in place on vals sampled on grid: one first-axis
    plane per step where the symbol is constant along that axis, else one
    block.  IncompatibleRHS is raised after the division (cr_solve divides
    a copy, and a conjugated solve drops its buffer)."""
    if not op.is_constant_coefficient:
        raise ValueError("cr_solve needs a constant-coefficient operator")
    sym = np.asarray(op.symbol(*_per_axis(grid, Axis.freqs)))
    axes = tuple(a for a, n in enumerate(sym.shape) if n > 1)
    mask = np.abs(sym) < 1e-10
    div = np.where(mask, 1.0, sym)

    def block(b):  # divides b; its per-plane sums of |b|^2, its kernel modes
        parts = b.view(float)  # subnormal samples slow every FFT pass
        parts[np.abs(parts) < 1e-300] = 0.0
        sums = [np.sum(np.abs(v) ** 2) for v in b]
        kernel = np.broadcast_to(mask, b.shape)
        modes = np.fft.fftn(b, axes=axes, out=b)[kernel]
        b /= div
        b[kernel] = 0.0
        np.fft.ifftn(b, axes=axes, out=b)
        return sums, modes

    sums, modes = zip(*([block(vals)] if 0 in axes else
                        _by_plane(lambda p: block(vals[p]), len(vals))))
    total2 = float(np.sum(np.concatenate(sums))) * sym.size  # N_A sum |g|^2
    proj2 = float(np.sum(np.abs(np.concatenate(modes)) ** 2))
    projected_rel = float(np.sqrt(proj2 / max(total2, 1e-300)))
    if projected_rel > 1e-6:
        raise IncompatibleRHS(
            f"projected mass {projected_rel:.3e} exceeds 1.0e-06")
    n_projected = np.count_nonzero(mask) * (vals.size // mask.size)
    return {"projected_rel": projected_rel, "n_projected": int(n_projected)}


def spectral_apply(op: PolyDiffOp, field: SampledField, box=None,
                   window=None) -> np.ndarray:
    """op (w f) on the index box (one slice per axis, the whole grid by
    default), an array of the box's shape, w the product of the per-axis
    factors window (as plateau_window gives them; 1 by default).  Each term
    windows and transforms the lines through the box along the axes it
    differentiates, and only along those (the continuum phases cancel), and
    multiplies its coefficient in on the box's nodes.  A term runs one
    index at a time along the first axis it does not transform (as one
    chunk if it transforms every axis), the chunks split over the workers,
    each writing its own slice of the result; a chunk forms its window
    factor in axis order, (w0 * w1) * ..., so the result does not depend on
    the chunking, bit for bit."""
    grid = field.grid
    box = (slice(None),) * len(grid.axes) if box is None else tuple(box)
    xis, mesh = _per_axis(grid, Axis.freqs), _per_axis(grid, Axis.nodes, box)
    out = np.zeros(field.values[box].shape, complex)
    for m, poly in op.terms.items():
        axes = tuple(a for a, name in enumerate(grid.names)
                     if m[SOLVE_AXES.index(name)])
        # (i xi)^k per derivative, zero along an axis the grid lacks
        mult = math.prod((1j * xi) ** k for xi, k in zip(xis, m) if k)
        coef = poly.eval(*mesh)
        c = next((a for a in range(out.ndim) if a not in axes), None)
        # the grid indices of the box along c, one chunk each
        steps = [None] if c is None else range(*box[c].indices(grid.shape[c]))

        def chunk(p):
            lines = [slice(None) if a in axes else s
                     for a, s in enumerate(box)]
            at = [slice(None)] * out.ndim  # the chunk's slice of out
            if c is not None:
                at[c], lines[c] = p, slice(steps[p.start], steps[p.start] + 1)
            vals = field.values[tuple(lines)].copy()
            if window is not None:  # each factor cut to the lines on its axis
                vals *= functools.reduce(np.multiply, [
                    w[(slice(None),) * a + (s,)] for a, (w, s) in enumerate(
                        zip(window, lines))])
            np.fft.fftn(vals, axes=axes, out=vals)
            vals *= mult
            np.fft.ifftn(vals, axes=axes, out=vals)
            out[tuple(at)] += coef[tuple(
                s if n > 1 else slice(None) for s, n in zip(at, coef.shape))] \
                * vals[tuple(s if a in axes else slice(None)
                             for a, s in enumerate(box))]

        _by_plane(chunk, len(steps))
    return out


def _shear(vals, grid: GridSpec) -> np.ndarray:
    """Exact action of (z, y, x) -> (z - 2xy, y, -x) on values sampled on a
    grid with axes ("z", "y", "x"), in place: x-index reversal (the x axis
    must be a symmetric cell-centered box) followed by a per-column Fourier
    shift in z, one y row per step.  Returns vals."""
    if grid.names != SOLVE_AXES:
        raise ValueError("expected axes ('z', 'y', 'x')")
    ax_x = grid.axis("x")
    if abs(ax_x.lo + ax_x.hi) > 1e-12:
        raise ValueError("x axis must be a symmetric box")
    # exp(-i xi s), s = 2 x y, at the first n // 2 + 1 z frequencies (an even
    # n's Nyquist one too); the rest are their negatives, phases conjugated
    n, h = grid.shape[0], grid.shape[0] // 2 + 1
    _, y, x = grid.coords()
    shift, kz = 2.0 * (y * x), -1j * grid.coords(Axis.freqs)[0][:h]

    def row(p):
        spec = np.fft.fft(vals[:, p, ::-1], axis=0)
        phase = np.exp(kz * shift[:, p])
        spec[:h] *= phase
        spec[h:] *= np.conj(phase[n - h:0:-1])
        np.fft.ifft(spec, axis=0, out=vals[:, p])

    _by_plane(row, grid.shape[1])
    return vals


def shear_reflect_points(z, y, x):
    """The conjugating map (z, y, x) -> (z - 2xy, y, -x), an involution, at
    the points with broadcastable coordinate arrays z, y, x: the three
    image coordinate arrays."""
    return z - 2.0 * x * y, y, -x


def _conjugated_solve(g, n: int, op: PolyDiffOp):
    """Solve the shear-conjugate of op f = g on the n^3 grid around SUPPORT:
    sample g o (z, y, x) -> (z - 2xy, y, -x) on the grid's per-axis nodes,
    divide once by the symbol of the constant-coefficient op, and shear the
    solution back.  Returns the solution field and cr_solve's projected-mode
    report."""
    sz, sy, sx = SUPPORT
    # the z range must cover the sheared image of the whole (y, x) grid so
    # the Fourier z-shift cannot wrap support back into the window
    yh, xh = sy + PAD, sx + PAD
    half = np.array([sz + 2.0 * yh * xh + PAD, yh, xh])
    grid = box_grid(SOLVE_AXES, -half, half, n)
    # one n^3 buffer: the samples, divided and sheared in place
    vals = SampledField.from_callable(
        grid, lambda *zyx: g(*shear_reflect_points(*zyx))).values
    info = _divide(vals, grid, op)
    return SampledField(grid, _shear(vals, grid)), info


def plateau_window(grid: GridSpec) -> list:
    """Smooth separable window, one broadcastable factor per axis: 1 on the
    central 60% of each axis, cos^2 roll-off to 0 at the boundary.  The
    solution of the conjugated problem carries slowly decaying tails that
    are not periodic across the box, so fields are windowed before spectral
    differentiation; since derivatives are local, values on the interior
    (inside the flat region) are unaffected."""
    flat = 0.6

    def window(ax):
        t = (ax.nodes() - 0.5 * (ax.hi + ax.lo)) / (0.5 * (ax.hi - ax.lo))
        s = (np.abs(t) - flat) / (1.0 - flat)  # <= 0 on the flat part
        return np.cos(0.5 * np.pi * np.clip(s, 0.0, 1.0)) ** 2

    return grid.coords(window)


def interior_mask(grid: GridSpec) -> tuple:
    """Index of the interior window, one slice of nodes per axis: the
    central half of each axis, the z axis measured against the support's z
    half-width SUPPORT[0].  The window is a box, and the C-order ravel of
    values[interior_mask(grid)] lists its nodes in grid order."""
    box = []
    for ax in grid.axes:
        half = SUPPORT[0] if ax.name == "z" else 0.5 * (ax.hi - ax.lo)
        k = np.flatnonzero(
            np.abs(ax.nodes() - 0.5 * (ax.hi + ax.lo)) <= 0.5 * half)
        box.append(slice(k[0], k[-1] + 1) if k.size else slice(0))
    return tuple(box)


def interior_rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """Relative l2 error of a against b, two samplings of the interior
    window, summed over their C-order ravel."""
    a, b = np.ravel(a), np.ravel(b)
    num = np.sqrt(np.sum(np.abs(a - b) ** 2))
    den = np.sqrt(np.sum(np.abs(b) ** 2))
    return float(num / max(den, 1e-300))


def lewy_solve(g, n: int):
    """Constructive solve of the shear-conjugate Lewy-type equation
    (-dx - i dy - (2y + 2ix) dz) f = g on an n^3 grid.

    g(z, y, x) maps broadcastable coordinate arrays to values of their
    broadcast shape, with effective support inside the (z, y, x) half-widths
    SUPPORT.  The pullback of g under the conjugating map is sampled on a
    box whose z range covers the sheared image of the support; the
    Cauchy-Riemann factor is inverted spectrally; the solution
    is sheared back without interpolation.  Returns the solution field and
    a dict of the projected-mode report ("projected_rel", "n_projected")
    and the independently computed interior "residual" of the equation.
    """
    f, info = _conjugated_solve(g, n, cauchy_riemann())
    box = interior_mask(f.grid)
    applied = spectral_apply(lewy_conjugate_true(), f, box,
                             plateau_window(f.grid))
    g_inside = np.asarray(g(*f.grid.coords(index=box)), complex)
    residual = interior_rel_error(applied, g_inside)
    # residual is measured against g on the window, not against the solver's
    # own right-hand side samples
    return f, {"residual": residual, **info}


def four_stage_chain() -> PolyDiffOp:
    """The chain R Rbar Rbar R, with symbol (xi_x^2 + xi_y^2)^2: its kernel
    modes are those of R, the line xi_x = xi_y = 0."""
    r, rbar = cr_pair_R(), cr_pair_R_star()
    return r @ rbar @ rbar @ r


def four_stage_operator() -> PolyDiffOp:
    """The fourth-order operator the four-stage solve inverts: the
    conjugation of four_stage_chain() by the shear-reflection, expanded
    symbolically.  It agrees with the product of the coefficient-reflected
    first-order factors (which commute); it is not equal to the plain
    product of the displayed factors, whose commutator is 8i dz."""
    p1 = hormander_P_bar().coeff_reflect(sx=-1)   # = conj of R under the shear
    p2 = hormander_P().coeff_reflect(sx=-1)       # = conj of Rbar
    return p1 @ p2 @ p2 @ p1


def four_stage_solve(g, n: int):
    """Solve the four-stage composition inside the shear conjugation, on an
    n^3 grid around SUPPORT, by one division by the symbol of
    four_stage_chain(); g(z, y, x) is as for lewy_solve.  Returns the
    solution field and the projected-mode report; the solve is checked by
    its manufactured round trip, not by a residual."""
    return _conjugated_solve(g, n, four_stage_chain())
