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

import math

import numpy as np

from .diffops import PolyDiffOp, cauchy_riemann, cr_pair_R, \
    cr_pair_R_star, hormander_P, hormander_P_bar, lewy_conjugate_true
from .quadrature import (Axis, GridSpec, SampledField, _by_plane, box_grid,
                         fft_lines)

__all__ = [
    "IncompatibleRHS", "cr_solve", "spectral_apply", "shear_reflect_field",
    "shear_reflect_points", "lewy_solve", "four_stage_chain",
    "four_stage_operator", "four_stage_solve", "interior_mask",
    "interior_rel_error",
]

SOLVE_AXES = ("z", "y", "x")
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
    1e-6.  Returns (solution field, info dict).
    """
    if not op.is_constant_coefficient:
        raise ValueError("cr_solve needs a constant-coefficient operator")
    sym = np.asarray(op.symbol(*_per_axis(g.grid, Axis.freqs)))
    axes = tuple(a for a, n in enumerate(sym.shape) if n > 1)
    mask = np.abs(sym) < 1e-10
    # sum |FFT_A g|^2 over every mode, by Parseval
    total2 = float(np.sum(np.abs(g.values) ** 2)) \
        * np.prod([g.grid.shape[a] for a in axes])
    spec = fft_lines(g.values, np.empty(g.grid.shape, complex), axes=axes)
    full_mask = np.broadcast_to(mask, spec.shape)

    proj2 = float(np.sum(np.abs(spec[full_mask]) ** 2))
    projected_rel = float(np.sqrt(proj2 / max(total2, 1e-300)))
    if projected_rel > 1e-6:
        raise IncompatibleRHS(
            f"projected mass {projected_rel:.3e} exceeds 1.0e-06")

    spec /= np.where(mask, 1.0, sym)
    spec[full_mask] = 0.0
    sol = SampledField(g.grid, fft_lines(spec, spec, inverse=True, axes=axes))
    info = {"projected_rel": projected_rel,
            "n_projected": int(np.count_nonzero(full_mask))}
    return sol, info


def spectral_apply(op: PolyDiffOp, field: SampledField,
                   box=None) -> np.ndarray:
    """op f on the index box (one slice per axis, the whole grid by
    default), an array of the box's shape.  Each term transforms the lines
    through the box along the axes it differentiates, and only along those
    (the continuum phases would cancel and are left out), and multiplies
    its coefficient in on the box's nodes."""
    grid = field.grid
    box = (slice(None),) * len(grid.axes) if box is None else tuple(box)
    xis, mesh = _per_axis(grid, Axis.freqs), _per_axis(grid, Axis.nodes, box)
    out = np.zeros(field.values[box].shape, complex)
    for m, poly in op.terms.items():
        axes = tuple(a for a, name in enumerate(grid.names)
                     if m[SOLVE_AXES.index(name)])
        vals = field.values[tuple(slice(None) if a in axes else s
                                  for a, s in enumerate(box))]
        vals = fft_lines(vals, np.empty(vals.shape, complex), axes=axes)
        # (i xi)^k per derivative, zero along an axis the grid lacks
        vals *= math.prod((1j * xi) ** k for xi, k in zip(xis, m) if k)
        fft_lines(vals, vals, inverse=True, axes=axes)
        out += poly.eval(*mesh) * vals[tuple(
            s if a in axes else slice(None) for a, s in enumerate(box))]
    return out


def shear_reflect_field(field: SampledField) -> SampledField:
    """Exact action of (z, y, x) -> (z - 2xy, y, -x) on a sampled field with
    axes ("z", "y", "x"): x-index reversal (the x axis must be a symmetric
    cell-centered box) followed by a per-column Fourier shift in z."""
    grid = field.grid
    if grid.names != SOLVE_AXES:
        raise ValueError("expected axes ('z', 'y', 'x')")
    ax_x = grid.axis("x")
    if abs(ax_x.lo + ax_x.hi) > 1e-12:
        raise ValueError("x axis must be a symmetric box")
    vals = fft_lines(np.flip(field.values, axis=2),
                     np.empty(grid.shape, complex), axes=(0,))
    # s(y, x) = 2 x y; the z-shift's phase is built one z plane at a time
    _, y, x = grid.coords()
    shift = 2.0 * (y * x)
    xiz = grid.coords(Axis.freqs)[0]
    _by_plane(lambda p: np.multiply(vals[p], np.exp(-1j * xiz[p] * shift),
                                    out=vals[p]), grid.shape[0])
    return SampledField(grid, fft_lines(vals, vals, inverse=True, axes=(0,)))


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
    # the samples are freed before the shear allocates its buffer
    u, info = cr_solve(SampledField.from_callable(
        grid, lambda *zyx: g(*shear_reflect_points(*zyx))), op)
    return shear_reflect_field(u), info


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
    is sheared back without interpolation.  Returns a dict with the solution
    field "f", the projected-mode report, and the independently computed
    interior residual of the equation.
    """
    f, info = _conjugated_solve(g, n, cauchy_riemann())
    grid = f.grid

    box = interior_mask(grid)
    wz, wy, wx = plateau_window(grid)  # applied one z plane at a time
    windowed = np.empty(grid.shape, complex)
    _by_plane(lambda p: np.multiply(f.values[p], (wz[p] * wy) * wx,
                                    out=windowed[p]), n)
    applied = spectral_apply(lewy_conjugate_true(),
                             SampledField(grid, windowed), box)
    g_inside = np.asarray(g(*grid.coords(index=box)), complex)
    residual = interior_rel_error(applied, g_inside)
    # residual is measured against g on the window, not against the solver's
    # own right-hand side samples
    return {"f": f, "residual": residual, **info}


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
    four_stage_chain(); g(z, y, x) is as for lewy_solve.  Returns a dict
    with the solution field "f" and the projected-mode report; the solve is
    checked by its manufactured round trip, not by a residual."""
    f, info = _conjugated_solve(g, n, four_stage_chain())
    return {"f": f, **info}
