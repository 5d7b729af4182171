"""Spectral solvers: symbol division, shear action, residual machinery.

The full-size conjugated solves (round trips and generic-residual runs) live
in the acceptance suite; here the machinery is exercised on small grids.
"""

import sys
import tracemalloc

import numpy as np
import pytest

from lgha import diffops as D
from lgha import quadrature as Q
from lgha import solvers as S
from lgha.quadrature import SampledField, box_grid
from test_quadrature import _phase_factor

rng = np.random.default_rng(707)


def _grid2(n=64, L=6.0):
    return box_grid(("y", "x"), -L, L, n)


def _grid3(half, counts):
    """A (z, y, x) box grid with the given half-widths and node counts."""
    return box_grid(S.SOLVE_AXES, -np.array(half), half, counts)


def test_cr_solve_manufactured_2d():
    grid = _grid2()
    ym, xm = grid.coords()
    e = np.exp(-(xm ** 2 + ym ** 2) / 2.0)
    h = (xm + 1j * ym) * e
    g = ((1 - xm * (xm + 1j * ym)) - 1j * (1j - ym * (xm + 1j * ym))) * e
    sol, info = S.cr_solve(SampledField(grid, g), D.cauchy_riemann())
    assert np.max(np.abs(sol.values - h)) / np.max(np.abs(h)) < 1e-6
    assert info["projected_rel"] < 1e-6
    assert info["n_projected"] == 1


def test_cr_solve_grid_mode_residual():
    # on the retained modes the equation holds to roundoff
    grid = _grid2()
    ym, xm = grid.coords()
    e = np.exp(-(xm ** 2 + ym ** 2) / 2.0)
    g = ((1 - xm * (xm + 1j * ym)) - 1j * (1j - ym * (xm + 1j * ym))) * e
    sol, _ = S.cr_solve(SampledField(grid, g), D.cauchy_riemann())
    applied = S.spectral_apply(D.cauchy_riemann(), sol)
    # op f = g minus the projected kernel modes: remove the mean before
    # comparing
    g_retained = g - np.mean(g)
    resid = np.sqrt(np.sum(np.abs(applied - g_retained) ** 2)
                    / np.sum(np.abs(g_retained) ** 2))
    assert resid < 1e-8


def test_lewy_solve_zero_rhs():
    sol, info = S.lewy_solve(
        lambda z, y, x: np.zeros(np.broadcast(z, y, x).shape, dtype=complex),
        16)
    assert np.max(np.abs(sol.values)) == 0.0
    assert info["residual"] == 0.0


def test_cr_solve_zero_rhs():
    grid = _grid2(32)
    sol, _ = S.cr_solve(SampledField(grid, np.zeros(grid.shape)),
                        D.cauchy_riemann())
    assert np.max(np.abs(sol.values)) == 0.0


def test_cr_solve_rejects_incompatible():
    grid = _grid2(32)
    ym, xm = grid.coords()
    g = np.exp(-(xm ** 2 + ym ** 2) / 2.0)
    with pytest.raises(S.IncompatibleRHS):
        S.cr_solve(SampledField(grid, g), D.cauchy_riemann())


def test_cr_solve_requires_constant_coefficients():
    grid = _grid2(16)
    with pytest.raises(ValueError):
        S.cr_solve(SampledField(grid, np.zeros(grid.shape)), D.lewy())


def test_symbol_zero_set_is_origin_only():
    op = D.cauchy_riemann()
    xi = rng.normal(size=(200, 2))
    sym = op.symbol(np.zeros(200), xi[:, 1], xi[:, 0])
    assert np.min(np.abs(sym)) > 1e-3  # generic points are far from zero
    assert abs(op.symbol(0.0, 0.0, 0.0)) == 0.0


def _shear_field(f):
    """The shear-reflection of the field f, on a copy of its values."""
    return SampledField(f.grid, S._shear(f.values.copy(), f.grid))


def test_shear_reflect_field_exact():
    grid = _grid3((4 + 2 * 9 + 1, 3, 3), (128, 40, 40))
    w = D.PolyGauss(D.Poly3({(0, 0, 1): 1.0, (0, 1, 0): 1.0j}), sigma=0.8)
    zs, ys, xs = np.broadcast_arrays(*grid.coords())
    f = SampledField(grid, w.values(np.stack([zs, ys, xs], axis=-1)))
    sheared = _shear_field(f)
    direct = w.values(np.stack([zs - 2 * xs * ys, ys, -xs], axis=-1))
    assert np.max(np.abs(sheared.values - direct)) < 1e-10


def test_shear_reflect_field_is_involution_on_grid():
    grid = _grid3((20, 2.5, 2.5), (96, 32, 32))
    vals = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    f = SampledField(grid, vals)
    back = _shear_field(_shear_field(f))
    assert np.max(np.abs(back.values - vals)) < 1e-10


def test_shear_requires_symmetric_x_axis():
    grid = box_grid(S.SOLVE_AXES, (-4, -2, -1), (4, 2, 2), (16, 8, 8))
    f = SampledField(grid, np.zeros(grid.shape))
    with pytest.raises(ValueError):
        _shear_field(f)


def test_spectral_apply_matches_exact_derivative():
    w = D.PolyGauss(D.Poly3({(0, 0, 1): 1.0, (0, 1, 0): 0.5j, (1, 0, 0): 0.2}),
                    sigma=0.7)
    op = D.lewy_conjugate_true()
    exact = w.apply_diffop(op)
    grid = _grid3((6, 4, 4), 64)
    zs, ys, xs = np.broadcast_arrays(*grid.coords())
    f = SampledField(grid, w.values(np.stack([zs, ys, xs], axis=-1)))
    applied = S.spectral_apply(op, f)
    ref = exact.values(np.stack([zs, ys, xs], axis=-1))
    assert np.max(np.abs(applied - ref)) < 1e-5


def test_four_stage_operator_is_conjugation_of_chain():
    corpus_pt = rng.uniform(-1, 1, size=(10, 3))
    w = D.PolyGauss(D.Poly3({(0, 1, 1): 1.0}), sigma=1.1)
    hb = D.shear_reflect_map()
    err = D.verify_identity([("four-stage", (S.four_stage_chain(), hb, hb),
                              (S.four_stage_operator(),))], [w], corpus_pt)
    assert err["four-stage"] < 1e-10


@pytest.mark.parametrize("grid", [
    _grid3((4.0, 4.0, 4.0), (16, 24, 24)), _grid2(48)],
    ids=["zyx", "yx"])
def test_composed_division_equals_four_sequential_solves(grid):
    # one division by the symbol of R Rbar Rbar R against the four stages
    # R, Rbar, Rbar, R solved one after another
    w = D.PolyGauss(D.Poly3({(0, 0, 2): 1.0, (0, 2, 0): -1.0,
                             (0, 1, 1): 2.0j, (1, 0, 0): 0.5}), sigma=0.7)
    xs = dict(zip(grid.names, grid.coords()))
    mesh = [xs.get(n, 0.0) for n in S.SOLVE_AXES]
    pts = np.stack(np.broadcast_arrays(*mesh), axis=-1)
    g = SampledField(grid, w.apply_diffop(S.four_stage_chain()).values(pts))

    sol, info = S.cr_solve(g, S.four_stage_chain())
    ref, infos = g, []
    for op in (D.cr_pair_R(), D.cr_pair_R_star(), D.cr_pair_R_star(),
               D.cr_pair_R()):
        ref, stage_info = S.cr_solve(ref, op)
        infos.append(stage_info)
    rel = np.max(np.abs(sol.values - ref.values)) \
        / np.max(np.abs(ref.values))
    assert rel <= 1e-12
    n_line = grid.shape[0] if len(grid.shape) == 3 else 1
    assert info["n_projected"] == n_line
    assert all(i["n_projected"] == n_line for i in infos)
    assert info["projected_rel"] == infos[0]["projected_rel"]


def test_interior_mask_and_window():
    grid = _grid3((10, 2, 2), (40, 16, 16))
    mask = S.interior_mask(grid)
    zs, ys, xs = np.broadcast_arrays(*grid.coords())
    # z is measured against the support's half-width, y and x against the box
    assert np.all(np.abs(zs[mask]) <= 0.5 * S.SUPPORT[0] + 1e-9)
    assert np.max(np.abs(zs[mask])) > 0.5 * S.SUPPORT[0] - grid.axes[0].step
    assert np.all(np.abs(ys[mask]) <= 1.0 + 1e-9)
    wz, wy, wx = S.plateau_window(grid)
    win = (wz * wy) * wx
    assert np.all(win[mask] == 1.0)
    assert win[0, 0, 0] < 1e-3  # cell-centered nodes stop short of the edge


# ---------------------------------------------------------------------------
# the line-wise solver paths equal whole-array per-axis transforms bit for
# bit, and the phased full-grid formulas to rounding
# ---------------------------------------------------------------------------


def _random_field(grid, seed):
    gen = np.random.default_rng(seed)
    return SampledField(grid, gen.normal(size=grid.shape)
                        + 1j * gen.normal(size=grid.shape))


def _along(vals, axes, inverse=False):
    """np.fft.fft (ifft if inverse) of the whole array along each of axes,
    last axis first."""
    for a in reversed(axes):
        vals = (np.fft.ifft if inverse else np.fft.fft)(vals, axis=a)
    return vals


def _apply_reference(op, f):
    """op f on the whole grid: per term, the transform along the axes it
    differentiates, the (i xi)^m multiplier, the inverse transform and the
    coefficient on the nodes."""
    grid = f.grid
    xis = S._per_axis(grid, Q.Axis.freqs)
    mesh = S._per_axis(grid, Q.Axis.nodes)
    ref = np.zeros(grid.shape, dtype=complex)
    for m, poly in op.terms.items():
        axes = [grid.names.index(n) for n, k in zip(S.SOLVE_AXES, m)
                if k and n in grid.names]
        mult = 1.0
        for xi, k in zip(xis, m):
            if k:
                mult = mult * (1j * xi) ** k
        ref += poly.eval(*mesh) * _along(_along(f.values, axes) * mult,
                                         axes, inverse=True)
    return ref


def _apply_phased(op, f):
    """op f by the 3-D continuum transform: every axis transformed, the
    per-axis phases multiplied in and divided out."""
    grid = f.grid
    phase = _phase_factor(grid)
    spec = np.fft.fftn(f.values) * phase
    xiz, xiy, xix = S._per_axis(grid, Q.Axis.freqs)
    mesh = S._per_axis(grid, Q.Axis.nodes)
    ref = np.zeros(grid.shape, dtype=complex)
    for m, poly in op.terms.items():
        mult = (1j * xiz) ** m[0] * (1j * xiy) ** m[1] * (1j * xix) ** m[2]
        ref += poly.eval(*mesh) * np.fft.ifftn(spec * mult / phase)
    return ref


def _close(a, b):
    return np.allclose(a, b, rtol=1e-12, atol=1e-12 * np.max(np.abs(b)))


# a zeroth-order term with a polynomial coefficient
_WITH_CONSTANT = D.lewy_conjugate_true() + D.PolyDiffOp(
    {(0, 0, 0): D.Poly3({(0, 0, 0): 2.0, (0, 1, 0): 0.5j})})


@pytest.mark.parametrize("workers", (1, 2, 3))
@pytest.mark.parametrize("grid", [
    _grid3((5.0, 3.0, 4.0), (11, 8, 6)), box_grid(("y", "x"), -3, 4, (7, 10))],
    ids=["zyx", "yx"])
@pytest.mark.parametrize("op", [D.lewy_conjugate_true(),
                                S.four_stage_operator(), _WITH_CONSTANT],
                         ids=["lewy", "four-stage", "constant-term"])
def test_plane_wise_spectral_apply_equals_full_grid(monkeypatch, workers,
                                                    grid, op):
    monkeypatch.setattr(Q, "_WORKERS", workers)
    f = _random_field(grid, 11)
    applied = S.spectral_apply(op, f)
    assert np.array_equal(applied, _apply_reference(op, f))
    assert _close(applied, _apply_phased(op, f))


@pytest.mark.parametrize("workers", (1, 3))
@pytest.mark.parametrize("op", [D.lewy_conjugate_true(),
                                S.four_stage_operator(), _WITH_CONSTANT],
                         ids=["lewy", "four-stage", "constant-term"])
def test_spectral_apply_on_a_box_equals_the_whole_grid_cut(monkeypatch,
                                                           workers, op):
    monkeypatch.setattr(Q, "_WORKERS", workers)
    grid = _grid3((9.0, 3.0, 4.0), (23, 10, 12))
    f = _random_field(grid, 14)
    keep = f.values.copy()
    whole = S.spectral_apply(op, f)
    for box in (S.interior_mask(grid),
                (slice(3, 4), slice(0, 10), slice(5, 11))):
        assert np.array_equal(S.spectral_apply(op, f, box), whole[box])
    assert np.array_equal(f.values, keep)  # the field is not overwritten


def test_spectral_apply_chunks_lose_no_update(monkeypatch):
    # more workers than cores, switching threads as often as the interpreter
    # allows: each chunk adds into its own slice of the result, so every
    # run equals the serial one
    grid = _grid3((9.0, 3.0, 4.0), (23, 10, 12))
    f, op = _random_field(grid, 18), S.four_stage_operator()
    args = (S.interior_mask(grid), S.plateau_window(grid))
    monkeypatch.setattr(Q, "_WORKERS", 1)
    serial = S.spectral_apply(op, f, *args)
    monkeypatch.setattr(Q, "_WORKERS", 8)
    monkeypatch.setattr(Q, "_pool", None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert np.array_equal(S.spectral_apply(op, f, *args), serial)
    finally:
        sys.setswitchinterval(interval)
        if Q._pool is not None:
            Q._pool.shutdown()


def _cr_reference(vals, sym, axes):
    """Division by the symbol along axes, the kernel modes zeroed."""
    mask = np.abs(sym) < 1e-10
    spec = _along(vals, axes) / np.where(mask, 1.0, sym)
    return _along(np.where(mask, 0.0, spec), axes, inverse=True)


@pytest.mark.parametrize("workers", (1, 2, 3))
def test_plane_wise_shear_and_division_equal_full_grid(monkeypatch, workers):
    monkeypatch.setattr(Q, "_WORKERS", workers)
    for nz in (13, 16):  # 16 has an unpaired Nyquist plane
        _check_shear_and_division(_grid3((9.0, 2.0, 2.5), (nz, 6, 8)))


def _check_shear_and_division(grid):
    f = _random_field(grid, 12)
    zs, ys, xs = grid.coords()
    xiz = grid.coords(Q.Axis.freqs)[0]
    vals = np.fft.fft(np.flip(f.values, axis=2), axis=0)
    vals *= np.exp(-1j * xiz * (2.0 * (ys * xs)))
    assert np.array_equal(_shear_field(f).values,
                          np.fft.ifft(vals, axis=0))
    # cr_solve divides along y and x, the axes of the symbol, and zeroes
    # the kernel modes in the spectrum's buffer
    g = SampledField(grid, D.PolyGauss(D.Poly3({(0, 0, 1): 1.0}))(zs, ys, xs)
                     * np.ones(grid.shape))
    sym = D.cauchy_riemann().symbol(*S._per_axis(grid, Q.Axis.freqs))
    sol = S.cr_solve(g, D.cauchy_riemann())[0].values
    assert np.array_equal(sol, _cr_reference(g.values, sym, (1, 2)))
    # the 3-D phased formula
    phase = _phase_factor(grid)
    spec = np.fft.fftn(g.values) * phase
    mask = np.abs(sym) < 1e-10
    assert _close(sol, np.fft.ifftn(
        np.where(mask, 0.0, spec / np.where(mask, 1.0, sym)) / phase))


def _projected_report(vals, sym, axes):
    """cr_solve's projected-mode report, computed on the whole array: the
    Parseval sums per first-axis plane and the kernel modes of the
    spectrum gathered through the broadcast mask."""
    mask = np.broadcast_to(np.abs(sym) < 1e-10, vals.shape)
    total2 = float(np.sum(np.concatenate(
        [[np.sum(np.abs(v) ** 2)] for v in vals]))) \
        * np.prod([vals.shape[a] for a in axes])
    proj2 = float(np.sum(np.abs(_along(vals, axes)[mask]) ** 2))
    return {"projected_rel": float(np.sqrt(proj2 / max(total2, 1e-300))),
            "n_projected": int(np.count_nonzero(mask))}


@pytest.mark.parametrize("workers", (1, 3))
@pytest.mark.parametrize("terms, axes, n_kernel", [
    ({(1, 0, 0): 1.0, (0, 0, 1): 1.0j}, (0, 2), 6),
    ({(1, 0, 0): 1.0, (0, 1, 0): 1.0, (0, 0, 1): 1.0j}, (0, 1, 2), 1)],
    ids=["dz+idx", "dz+dy+idx"])
def test_division_along_the_first_axis_is_one_block(monkeypatch, workers,
                                                    terms, axes, n_kernel):
    # the symbol varies along z, so the whole array is divided as one block
    monkeypatch.setattr(Q, "_WORKERS", workers)
    op = D.PolyDiffOp({m: D.Poly3({(0, 0, 0): c}) for m, c in terms.items()})
    grid = _grid3((9.0, 2.0, 2.5), (13, 6, 8))
    sym = op.symbol(*S._per_axis(grid, Q.Axis.freqs))
    # a random field carries mass on the kernel modes
    g = _random_field(grid, 16)
    keep = g.values.copy()
    with pytest.raises(S.IncompatibleRHS):
        S.cr_solve(g, op)
    assert np.array_equal(g.values, keep)
    # its solution carries none, up to rounding
    g = SampledField(grid, _cr_reference(keep, sym, axes))
    sol, info = S.cr_solve(g, op)
    assert np.array_equal(sol.values, _cr_reference(g.values, sym, axes))
    assert info == _projected_report(g.values, sym, axes)
    assert info["n_projected"] == n_kernel


@pytest.mark.parametrize("workers", (1, 3))
def test_lewy_solve_equals_the_full_grid_formulas(monkeypatch, workers):
    # g sampled and the window multiplied in one z plane at a time, the
    # residual read on the interior box alone
    monkeypatch.setattr(Q, "_WORKERS", workers)
    w = D.PolyGauss(D.Poly3({(0, 0, 1): 1.0, (0, 1, 0): 1.0j}), sigma=0.6)
    qw = w.apply_diffop(D.cauchy_riemann())

    def rhs(z, y, x):
        return qw(*S.shear_reflect_points(z, y, x))

    sol, info = S.lewy_solve(rhs, 24)
    grid = sol.grid
    g = rhs(*S.shear_reflect_points(*S._per_axis(grid, Q.Axis.nodes)))
    sym = D.cauchy_riemann().symbol(*S._per_axis(grid, Q.Axis.freqs))
    f = _shear_field(
        SampledField(grid, _cr_reference(g, sym, (1, 2)))).values
    assert np.array_equal(sol.values, f)
    wz, wy, wx = S.plateau_window(grid)
    applied = _apply_reference(D.lewy_conjugate_true(),
                               SampledField(grid, f * ((wz * wy) * wx)))
    box = S.interior_mask(grid)
    g_inside = rhs(*S._per_axis(grid, Q.Axis.nodes, box))
    assert info["residual"] == S.interior_rel_error(applied[box], g_inside)
    href = w(*S.shear_reflect_points(*S._per_axis(grid, Q.Axis.nodes, box)))
    assert S.interior_rel_error(sol.values[box], href) \
        == S.interior_rel_error(f[box], href)


def _traced_peak(fn, n):
    """The traced peak of fn(), in complex n^3 fields."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return peak / (16 * n ** 3)


def _traced_lewy_peak(n):
    """The traced peak of a Lewy solve on the n^3 grid, in complex n^3
    fields."""
    g = D.PolyGauss(D.Poly3({(0, 0, 1): 0.7, (0, 1, 0): 0.3j}), sigma=0.65)
    return _traced_peak(lambda: S.lewy_solve(g, n), n)


def _peaks_on_fresh_pools(monkeypatch, traced):
    """{workers: traced()} at 1, 2 and 4 workers, each on a freshly built
    pool: each busy worker adds its own temporaries."""
    peaks = {}
    for workers in (1, 2, 4):
        monkeypatch.setattr(Q, "_WORKERS", workers)
        monkeypatch.setattr(Q, "_pool", None)
        try:
            peaks[workers] = traced()
        finally:
            if Q._pool is not None:
                Q._pool.shutdown()
    return peaks


def test_lewy_solve_holds_at_most_five_fields(monkeypatch):
    # the samples are divided and sheared in their own buffer, and the
    # window is multiplied in on the lines through the interior box alone,
    # so a Lewy solve holds one complex n^3 field and those lines; at
    # n = 64 the sampling boxes, 8 planes split over the busy workers, add
    # about a third of a field (1.38, 1.22-1.42 and 1.48-1.57 at 1, 2 and
    # 4 workers)
    peaks = _peaks_on_fresh_pools(monkeypatch, lambda: _traced_lewy_peak(64))
    assert max(peaks.values()) <= 2.0, peaks


def test_lewy_solve_holds_one_field_and_the_residual_lines(monkeypatch):
    # the samples are divided and sheared in their own buffer and the
    # residual's derivatives are taken one line slab at a time, so at
    # n = 96 the peak is the field and the sampling boxes, 3 planes at one
    # worker and one plane a worker at 2 and 4 (1.10, 1.09-1.11 and
    # 1.15-1.16 at 1, 2 and 4 workers; 1.28-1.36 while the windowed z
    # lines through the interior box were one block)
    peaks = _peaks_on_fresh_pools(monkeypatch, lambda: _traced_lewy_peak(96))
    assert max(peaks.values()) <= 1.5, peaks


def test_windowed_residual_apply_holds_a_tenth_of_a_field(monkeypatch):
    # spectral_apply takes each term one index at a time along the first
    # axis it does not transform, so the Lewy residual on the interior box
    # of the solve's 96^3 grid holds its box-sized result and coefficient
    # and each busy worker's line slab (0.045, 0.05 and 0.074-0.077 fields
    # at 1, 2 and 4 workers; 0.28-0.29 with the windowed z lines as one
    # block)
    def zero(z, y, x):
        return np.zeros(np.broadcast(z, y, x).shape, complex)

    axes = S.lewy_solve(zero, 8)[0].grid.axes  # the solve's box
    grid = box_grid(S.SOLVE_AXES, [a.lo for a in axes],
                    [a.hi for a in axes], 96)
    f = _random_field(grid, 17)
    peaks = _peaks_on_fresh_pools(monkeypatch, lambda: _traced_peak(
        lambda: S.spectral_apply(D.lewy_conjugate_true(), f,
                                 S.interior_mask(grid),
                                 S.plateau_window(grid)), 96))
    assert max(peaks.values()) <= 0.1, peaks


@pytest.mark.parametrize("workers", (1, 3))
def test_cr_solve_and_windowed_apply_leave_their_field_unchanged(monkeypatch,
                                                                 workers):
    # the conjugated solves divide and shear their own buffer in place;
    # cr_solve and spectral_apply must not write to the field they are given
    monkeypatch.setattr(Q, "_WORKERS", workers)
    grid = _grid3((9.0, 2.0, 2.5), (13, 6, 8))
    f = _random_field(grid, 15)
    keep = f.values.copy()
    S.spectral_apply(D.lewy_conjugate_true(), f, S.interior_mask(grid),
                     S.plateau_window(grid))
    assert np.array_equal(f.values, keep)
    # cr_solve rejects the random field, whose kernel modes carry mass; a
    # solved field has none
    sym = D.cauchy_riemann().symbol(*S._per_axis(grid, Q.Axis.freqs))
    g = SampledField(grid, _cr_reference(keep, sym, (1, 2)))
    keep = g.values.copy()
    S.cr_solve(g, D.cauchy_riemann())
    assert np.array_equal(g.values, keep)
