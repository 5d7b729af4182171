"""Grids, quadrature, transforms, Monte Carlo, Haar node sets."""

import dataclasses
import math
import threading

import numpy as np
import pytest

from lgha import quadrature as Q
from lgha.corpus import GaussPoly1D, random_gauss_product
from lgha.quadrature import pairwise_sum

rng = np.random.default_rng(202)


def _phase_factor(grid):
    """The product of the per-axis phases h exp(-i xi x0), x0 the first
    node, over the whole grid, axis by axis, first axis first: the factor
    that dft_forward multiplies in and dft_inverse divides out."""
    phase = 1.0
    for p in grid.coords(lambda ax: ax.step * np.exp(
            -1j * ax.freqs() * (ax.lo + 0.5 * ax.step))):
        phase = phase * p
    return phase


def test_constant_integrates_to_volume():
    grid = Q.box_grid(("a", "b", "c"), 0.0, 1.0, 8)
    f = Q.SampledField(grid, np.ones(grid.shape))
    assert Q.norm2(f) == pytest.approx(1.0, abs=1e-14)


def test_gaussian_integral():
    grid = Q.box_grid(("x",), -8.0, 8.0, 64)
    f = Q.SampledField(grid, np.exp(-grid.axes[0].nodes() ** 2 / 2.0))
    assert abs(Q.norm2(f) - np.sqrt(np.pi)) / np.sqrt(np.pi) < 1e-12


def test_separable_product_integrates_to_product():
    grid = Q.box_grid(("x", "y"), -6.0, 6.0, 40)
    xs, ys = grid.coords()
    f = Q.SampledField(grid, np.exp(-xs ** 2) * np.exp(-2 * ys ** 2))
    g1 = Q.SampledField(Q.box_grid(("x",), -6.0, 6.0, 40),
                        np.exp(-grid.axes[0].nodes() ** 2))
    g2 = Q.SampledField(Q.box_grid(("y",), -6.0, 6.0, 40),
                        np.exp(-2 * grid.axes[1].nodes() ** 2))
    assert Q.norm2(f) == pytest.approx(Q.norm2(g1) * Q.norm2(g2), rel=1e-12)


def test_dft_roundtrip():
    grid = Q.box_grid(("x", "y"), -5.0, 5.0, 32)
    f = Q.SampledField(grid, rng.normal(size=grid.shape)
                       + 1j * rng.normal(size=grid.shape))
    back = Q.dft_inverse(Q.dft_forward(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-12


def test_dft_roundtrip_3d_non_cubic():
    gen = np.random.default_rng(2021)
    grid = Q.GridSpec([Q.Axis("z", -7.0, 5.0, 12),
                       Q.Axis("y", 0.5, 3.0, 10),
                       Q.Axis("x", -2.0, 2.0, 7)])
    vals = gen.normal(size=grid.shape) + 1j * gen.normal(size=grid.shape)
    f = Q.SampledField(grid, vals.copy())
    spec = Q.dft_forward(f)
    before = spec.values.copy()
    back = Q.dft_inverse(spec)
    assert np.max(np.abs(back.values - vals)) < 1e-13
    # neither transform writes into its argument
    assert np.array_equal(f.values, vals)
    assert np.array_equal(spec.values, before)
    # the folded phase factor is the product of the per-axis factors
    expect = np.fft.fftn(vals)
    for k, ax in enumerate(grid.axes):
        xi = 2.0 * np.pi * np.fft.fftfreq(ax.count, d=ax.step)
        shape = [1, 1, 1]
        shape[k] = ax.count
        x0 = ax.nodes()[0]
        expect = expect * (ax.step * np.exp(-1j * xi * x0)).reshape(shape)
    assert np.max(np.abs(spec.values - expect)) < 1e-14 * np.max(np.abs(expect))


def test_dft_single_harmonic_spike():
    ax = Q.Axis("x", 0.0, 2 * np.pi, 32)
    grid = Q.GridSpec([ax])
    k0 = 5
    f = Q.SampledField(grid, np.exp(1j * k0 * ax.nodes()))
    spec = Q.dft_forward(f)
    freqs = ax.freqs()
    mags = np.abs(spec.values)
    assert freqs[np.argmax(mags)] == pytest.approx(k0)
    others = mags.copy()
    others[np.argmax(mags)] = 0
    assert np.max(others) < 1e-12


def test_dft_gaussian_closed_form():
    grid = Q.box_grid(("x",), -10.0, 10.0, 128)
    x = grid.axes[0].nodes()
    f = Q.SampledField(grid, np.exp(-x ** 2 / 2.0))
    spec = Q.dft_forward(f)
    xi = grid.axes[0].freqs()
    exact = np.sqrt(2 * np.pi) * np.exp(-xi ** 2 / 2.0)
    assert np.max(np.abs(spec.values - exact)) / np.max(exact) < 1e-8


def _bits(z):
    return np.complex128(z).tobytes()


def test_factor_pairing_samples_a_self_pair_once_bit_for_bit(monkeypatch):
    f = random_gauss_product(np.random.default_rng(2022), 6, poly=True)
    copies = [dataclasses.replace(a) for a in f.factors]
    assert copies == list(f.factors)
    samples, transforms = [], []
    values, dft = GaussPoly1D.values, Q.dft_forward
    monkeypatch.setattr(GaussPoly1D, "values",
                        lambda a, x: samples.append(a) or values(a, x))
    monkeypatch.setattr(Q, "dft_forward",
                        lambda fld: transforms.append(fld) or dft(fld))
    lhs, rhs, spectra = Q.factor_pairing(f.factors, f.factors)
    # one sample and one transform per factor
    assert len(samples) == len(transforms) == 6
    lhs2, rhs2, spectra2 = Q.factor_pairing(f.factors, copies)
    assert len(samples) == len(transforms) == 6 + 12
    assert _bits(lhs) == _bits(lhs2) and _bits(rhs) == _bits(rhs2)
    assert all(np.array_equal(s.values, t.values)
               for s, t in zip(spectra, spectra2))
    # a self-pairing is a norm: no rounding left in the imaginary parts
    assert lhs.imag == 0.0 and rhs.imag == 0.0
    assert abs(lhs - f.norm2()) <= 1e-10 * f.norm2()


def test_factor_pairing_samples_a_pair_on_the_union_of_its_boxes():
    a, b = GaussPoly1D(-1.0, 0.5), GaussPoly1D(2.0, 1.0)
    assert a.suggested_axis() == (-5.0, 3.0)
    assert b.suggested_axis() == (-6.0, 10.0)
    lhs, rhs, (spec,) = Q.factor_pairing([a], [b])
    ax = spec.grid.axes[0]
    assert (ax.lo, ax.hi, ax.count) == (-6.0, 10.0, Q.FACTOR_COUNT)
    # int exp(-(x+1)^2 / 0.5) exp(-(x-2)^2 / 2) dx in closed form
    s2 = 0.5 ** 2 + 1.0 ** 2
    exact = math.sqrt(2.0 * math.pi * 0.25 / s2) * math.exp(-9.0 / (2 * s2))
    assert abs(lhs - exact) <= 1e-10 * exact
    assert abs(rhs - exact) <= 1e-10 * exact


def test_hermitian_symmetry_for_real_fields():
    grid = Q.box_grid(("x",), -4.0, 4.0, 33)
    f = Q.SampledField(grid, np.exp(-grid.axes[0].nodes() ** 2)
                       * (1 + 0.3 * grid.axes[0].nodes()))
    spec = Q.dft_forward(f)
    v = spec.values
    flipped = np.conj(np.concatenate([[v[0]], v[1:][::-1]]))
    assert np.max(np.abs(v - flipped)) < 1e-12


def test_monte_carlo_zero_variance_when_integrand_matches_density():
    # integrating the sampler's own density gives exactly 1 with zero spread
    def density(x):
        return np.exp(-0.5 * np.sum(x ** 2, axis=1)) / (2 * np.pi)

    res = Q.monte_carlo(density, np.zeros(2), np.ones(2), 2000, seed=5)
    assert res.estimate == pytest.approx(1.0, abs=1e-12)
    assert res.stderr < 1e-8


def test_monte_carlo_gaussian_r6():
    res = Q.monte_carlo(lambda x: np.exp(-np.sum(x ** 2, axis=1)),
                        np.zeros(6), np.ones(6), 1 << 18, seed=7)
    exact = np.pi ** 3
    assert abs(res.estimate - exact) < 3 * res.stderr
    assert abs(res.estimate - exact) / exact < 0.02


def test_monte_carlo_deterministic():
    f = lambda x: np.exp(-np.sum(x ** 2, axis=1)) * (1 + x[:, 0])
    a = Q.monte_carlo(f, np.zeros(3), np.ones(3), 50000, seed=11)
    b = Q.monte_carlo(f, np.zeros(3), np.ones(3), 50000, seed=11)
    assert a.estimate == b.estimate and a.stderr == b.stderr


def test_monte_carlo_rejects_tiny_n():
    with pytest.raises(ValueError):
        Q.monte_carlo(lambda x: np.ones(x.shape[0]), np.zeros(1), np.ones(1),
                      10, seed=0)


def test_su2_quadrature_normalized():
    q = Q.su2_quadrature(1.5)
    assert pairwise_sum(q.weights) == pytest.approx(1.0, abs=1e-14)
    assert np.all(q.weights > 0)


def test_u2_quadrature_accepts_an_integral_float():
    q, ref = Q.u2_quadrature(1.0), Q.u2_quadrature(1)
    assert np.array_equal(q.theta, ref.theta)
    assert np.array_equal(q.theta_weights, ref.theta_weights)
    assert np.array_equal(q.su2.euler, ref.su2.euler)


def test_u2_quadrature_rejects_a_non_integral_or_negative_band_limit():
    for M in (1.5, -1, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="not a nonnegative integer"):
            Q.u2_quadrature(M)


def test_so4_quadrature_budget():
    with pytest.raises(Q.BudgetExceeded):
        Q.so4_quadrature(4.0)  # 3240^2 node pairs > 2^21


def test_grid_budget():
    with pytest.raises(Q.BudgetExceeded):
        Q.box_grid(tuple("abcdef"), -1, 1, 64)  # 64^6 = 2^36 > 2^25


def test_axis_validation():
    with pytest.raises(ValueError):
        Q.Axis("x", 1.0, -1.0, 8)
    with pytest.raises(ValueError):
        Q.Axis("x", -1.0, 1.0, 1)


def test_sampled_field_validation(monkeypatch):
    grid = Q.box_grid(("x",), -1.0, 1.0, 8)
    with pytest.raises(ValueError):
        Q.SampledField(grid, np.zeros(7))
    bad = np.zeros(8)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        Q.SampledField(grid, bad)
    # an n-D field is checked one first-axis plane at a time, the planes
    # split over the workers
    grid = Q.box_grid(("z", "y", "x"), -1.0, 1.0, (5, 4, 3))
    for workers in (1, 3):
        monkeypatch.setattr(Q, "_WORKERS", workers)
        for index in ((0, 0, 0), (2, 1, 1), (4, 3, 2)):
            bad = np.zeros(grid.shape, complex)
            bad[index] = complex(0.0, np.inf)
            with pytest.raises(ValueError):
                Q.SampledField(grid, bad)


def test_pairwise_sum_empty_and_small():
    assert pairwise_sum(np.array([])) == 0.0
    assert pairwise_sum(np.array([1.5])) == 1.5
    assert pairwise_sum(np.array([1.0, 2.0, 3.0])) == 6.0


def test_pairwise_sum_reduces_the_first_axis_column_by_column():
    for rows in (1, 2, 7, 1001):
        vals = rng.normal(size=(rows, 3)) + 1j * rng.normal(size=(rows, 3))
        for a in (vals, vals.real):
            s = pairwise_sum(a)
            assert s.shape == (3,) and s.dtype == a.dtype
            assert all(s[j] == pairwise_sum(a[:, j]) for j in range(3))
    assert np.array_equal(pairwise_sum(np.zeros((0, 2))), np.zeros(2))


def test_pairwise_sum_matches_fsum():
    import math

    vals = rng.normal(size=10001)
    assert pairwise_sum(vals) == pytest.approx(math.fsum(vals), rel=1e-14)
    cvals = vals + 1j * rng.normal(size=10001)
    s = pairwise_sum(cvals)
    assert s.real == pytest.approx(math.fsum(cvals.real), rel=1e-13)


# ---------------------------------------------------------------------------
# the per-CPU runs of planes change nothing: every result equals the serial
# one
# ---------------------------------------------------------------------------

_SPLIT_SHAPES = ((33,), (7, 6, 5), (3, 4, 2, 3, 2, 3))


@pytest.mark.parametrize("workers", (1, 2, 3))
@pytest.mark.parametrize("shape", _SPLIT_SHAPES + ((7, 3, 2, 4, 2, 3),))
def test_dft_pair_equals_fftn_for_any_slab_count(monkeypatch, workers, shape):
    # 7 first-axis planes split unevenly over 2 and over 3 workers
    monkeypatch.setattr(Q, "_WORKERS", workers)
    gen = np.random.default_rng(len(shape))
    grid = Q.box_grid(tuple("abcdef"[:len(shape)]), -2.0, 3.0, shape)
    vals = gen.normal(size=shape) + 1j * gen.normal(size=shape)
    keep = vals.copy()
    phase = _phase_factor(grid)
    spec = Q.dft_forward(Q.SampledField(grid, vals))
    assert np.array_equal(spec.values, np.fft.fftn(vals) * phase)
    assert np.array_equal(Q.dft_inverse(spec).values,
                          np.fft.ifftn(spec.values / phase))
    assert np.array_equal(vals, keep)


def _mc_integrand(x):
    return np.exp(-np.sum(x ** 2, axis=1)) * (1 + 1j * x[:, 0])


def _mc_second_column(x):
    return np.cos(x[:, 1]) * np.exp(-x[:, 2] ** 2)


def _mc_two_columns(x):
    return np.stack([_mc_integrand(x), _mc_second_column(x)], axis=-1)


@pytest.mark.parametrize("workers", (2, 3))
def test_monte_carlo_equals_serial_for_any_slab_count(monkeypatch, workers):
    args = (_mc_integrand, np.zeros(3), np.full(3, 0.8), 3 * 1000 + 7, 13)
    monkeypatch.setattr(Q, "_WORKERS", 1)
    serial = Q.monte_carlo(*args)
    monkeypatch.setattr(Q, "_WORKERS", workers)
    split = Q.monte_carlo(*args)
    assert split.estimate == serial.estimate
    assert split.stderr == serial.stderr
    # two values per sample, over several chunks: each column equals the
    # one-value serial call on the same seed, bit for bit
    monkeypatch.setattr(Q, "_MC_CHUNK", 1000)
    pairs = []
    for count in (workers, 1):
        monkeypatch.setattr(Q, "_WORKERS", count)
        pairs.append(Q.monte_carlo(_mc_two_columns, *args[1:]))
    for j, column in enumerate((_mc_integrand, _mc_second_column)):
        one = Q.monte_carlo(column, *args[1:])
        for pair in pairs:
            assert pair.estimate.shape == pair.stderr.shape == (2,)
            assert pair.estimate[j] == one.estimate
            assert pair.stderr[j] == one.stderr


def test_monte_carlo_integrand_may_transform_a_field(monkeypatch):
    # an integrand that itself uses the pool runs its slabs serially
    grid = Q.box_grid(("a", "b"), -1.0, 1.0, (6, 4))
    field = Q.SampledField(grid, np.arange(24.0).reshape(6, 4))

    def integrand(x):
        scale = pairwise_sum(np.abs(Q.dft_forward(field).values.ravel()) ** 2)
        return scale * np.exp(-np.sum(x ** 2, axis=1))

    args = (integrand, np.zeros(2), np.ones(2), 4000, 3)
    monkeypatch.setattr(Q, "_WORKERS", 1)
    serial = Q.monte_carlo(*args)
    monkeypatch.setattr(Q, "_WORKERS", 3)
    done = []
    caller = threading.Thread(
        target=lambda: done.append(Q.monte_carlo(*args)), daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive(), "nested pool call did not finish"
    split, = done
    assert split.estimate == serial.estimate
    assert split.stderr == serial.stderr


def _mc_unblocked(integrand, mean, sigma, n, seed):
    """monte_carlo's estimate and stderr with each chunk's weights computed
    in one call on the whole chunk, the formula before row blocks."""
    rng = np.random.Generator(np.random.Philox(seed))
    lognorm = -0.5 * mean.size * np.log(2.0 * np.pi) - np.sum(np.log(sigma))
    sums, sums2, remaining = [], [], n
    while remaining > 0:
        m = min(Q._MC_CHUNK, remaining)
        x = mean + sigma * rng.standard_normal((m, mean.size))
        logpdf = lognorm - 0.5 * np.sum(((x - mean) / sigma) ** 2, axis=1)
        vals = np.asarray(integrand(x), dtype=complex)
        w = (vals.T * np.exp(-logpdf)).T
        sums.append(pairwise_sum(w))
        sums2.append(pairwise_sum(np.abs(w) ** 2))
        remaining -= m
    est = pairwise_sum(np.asarray(sums)) / n
    var = np.maximum(pairwise_sum(np.asarray(sums2)).real / n
                     - np.abs(est) ** 2, 0.0)
    return est, np.sqrt(var / n)


@pytest.mark.parametrize("workers", (1, 2, 3))
@pytest.mark.parametrize("integrand", (_mc_integrand, _mc_two_columns),
                         ids=("one-value", "two-columns"))
def test_monte_carlo_row_blocks_equal_the_unblocked_sum(monkeypatch, workers,
                                                        integrand):
    # five blocks and a ragged tail over all slabs; two chunks, the second
    # one ragged too, so every slab ends in a partial block
    rows = Q.BLOCK_ENTRIES // 2
    monkeypatch.setattr(Q, "_WORKERS", workers)
    monkeypatch.setattr(Q, "_MC_CHUNK", 3 * rows + 5)
    args = (np.zeros(3), np.full(3, 0.8), 5 * rows + 123, 17)
    seen = []

    def spy(x):
        seen.append(x.shape[0])
        return integrand(x)

    got = Q.monte_carlo(spy, *args)
    est, se = _mc_unblocked(integrand, *args)
    assert np.array_equal(got.estimate, est)
    assert np.array_equal(got.stderr, se)
    assert max(seen) <= rows and sum(seen) == args[2]
    assert len(seen) >= 7


@pytest.mark.parametrize("shape, calls", [
    ((50,), 1),
    ((300, 200), 2),  # runs of 163 rows of 200 points
    ((5, 6, 7), 1),
    ((11, 10, 10, 10, 10, 10), 44),  # runs of 3 of the second axis, ragged
    ((4, 200, 200), 8),  # planes of 40,000 points, runs of 163 rows
], ids=["50", "300x200", "5x6x7", "11x10x10x10x10x10", "4x200x200"])
@pytest.mark.parametrize("workers", (1, 2, 3))
def test_from_callable_boxes_equal_the_whole_grid(monkeypatch, workers, shape,
                                                  calls):
    # the boxes, split over the workers, give fn evaluated on the whole grid
    # bit for bit, and no call sees more than BLOCK_ENTRIES points
    monkeypatch.setattr(Q, "_WORKERS", workers)
    grid = Q.box_grid(tuple("uvwxyz"[:len(shape)]), -1.0,
                      np.arange(1.0, 1.0 + len(shape)), shape)

    def fn(*xs):
        pts = np.stack(np.broadcast_arrays(*xs), axis=-1)
        return np.exp(-np.sum(pts ** 2, axis=-1)) * (1 + 1j * pts[..., -1])

    seen = []

    def spy(*xs):
        assert len(xs) == len(shape)
        seen.append(np.broadcast_shapes(*(x.shape for x in xs)))
        return fn(*xs)

    ref = fn(*np.broadcast_arrays(*grid.coords()))
    assert np.array_equal(Q.SampledField.from_callable(grid, spy).values, ref)
    assert len(seen) == calls
    assert sum(math.prod(s) for s in seen) == grid.size
    assert all(math.prod(s) <= Q.BLOCK_ENTRIES for s in seen)
