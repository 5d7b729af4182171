"""Lift to the auxiliary group, convolution, transform and Plancherel on N."""

import math
import tracemalloc

import numpy as np

from lgha import cli
from lgha import groups as G
from lgha import nilfourier as nf
from lgha import quadrature as Q
from lgha import suites
from lgha.corpus import (GaussPoly1D, GaussProduct, product_overlap,
                         random_gauss_product)
from lgha.quadrature import (MIN_MC_SAMPLES, box_grid, SampledField,
                             dft_forward, dft_inverse, factor_pairing,
                             monte_carlo, pairwise_sum)

rng = np.random.default_rng(404)


def test_lift_trivial_slice():
    f = random_gauss_product(rng, 6)
    F = nf.lift_to_L(f.values)
    x = rng.normal(size=3)
    l = np.zeros(9)
    l[:3] = x  # (x6, x5, x4) block, all other slots zero
    expect = f.values(np.array([0.0, 0.0, 0.0, x[2], x[1], x[0]]))
    assert abs(F(l) - expect) < 1e-14


def test_lift_restricts_to_function_on_nil():
    f = random_gauss_product(rng, 6)
    F = nf.lift_to_L(f.values)
    p = rng.normal(size=(50, 6))
    # N inside L: (x6, x5, x4) block and (t3, t2, t1) = (x3, x2, x1)
    l = np.zeros((50, 9))
    l[:, [0, 1, 2, 5, 6, 8]] = p[:, [5, 4, 3, 2, 1, 0]]
    assert np.max(np.abs(F(l) - f.values(p))) < 1e-14


def test_lift_invariance_pointwise():
    f = random_gauss_product(rng, 6, poly=True)
    F = nf.lift_to_L(f.values)
    for _ in range(300):
        l = rng.normal(size=9)
        h, r, k = rng.normal(size=3)
        assert abs(F(nf.invariance_shift(l, h, r, k)) - F(l)) < 1e-12


def test_shift_flows_commute():
    l = rng.normal(size=9)
    a = nf.invariance_shift(nf.invariance_shift(l, 0.5, 0, 0), 0, -0.8, 0.3)
    b = nf.invariance_shift(nf.invariance_shift(l, 0, -0.8, 0.3), 0.5, 0, 0)
    c = nf.invariance_shift(l, 0.5, -0.8, 0.3)
    assert np.max(np.abs(a - b)) < 1e-14
    assert np.max(np.abs(a - c)) < 1e-14


def test_shift_orbits_are_reduction_fibers():
    l = rng.normal(size=9)
    # shifting by the point's own slot values lands on the embedded copy of N
    reduced = nf.invariance_shift(l, l[7], l[3], l[4])
    assert abs(reduced[3]) < 1e-14 and abs(reduced[4]) < 1e-14 \
        and abs(reduced[7]) < 1e-14
    assert np.max(np.abs(nf.reduce_to_nil(reduced) - nf.reduce_to_nil(l))) < 1e-13


def test_convolution_approximate_identity():
    f = random_gauss_product(rng, 6, sigma_range=(1.2, 1.5), mu_scale=0.2)
    sigma = 0.045
    norm = (2 * np.pi * sigma ** 2) ** -3.0
    phi = GaussProduct(tuple(GaussPoly1D(0.0, sigma, norm ** (1 / 6.0))
                             for _ in range(6)))
    h = 0.3 * rng.normal(size=6)
    # the integrand is concentrated where h u^{-1} is near the identity, so
    # u is drawn around h, a little wider than phi
    val = nf.convolve_N(phi.values, f.values, h, 1 << 18, 9,
                        (h, np.full(6, 0.06))).estimate
    ref = f.values(h)
    assert abs(val - ref) / abs(ref) < 1e-2


def test_fourier_N_separable_matches_closed_form():
    f = random_gauss_product(rng, 6)
    grids = [box_grid((n,), *fac.suggested_axis(), 64)
             for n, fac in zip(nf.NIL_AXES, f.factors)]
    for fac, grid in zip(f.factors, grids):
        spec = dft_forward(SampledField(grid, fac.values(grid.axes[0].nodes())))
        xi = grid.axes[0].freqs()
        exact = fac.ft(xi)
        assert np.max(np.abs(spec.values - exact)) / np.max(np.abs(exact)) < 1e-8


def test_fourier_N_linearity_and_inversion():
    grid = box_grid(nf.NIL_AXES, -3.0, 3.0, 6)
    a = SampledField(grid, rng.normal(size=grid.shape)
                     + 1j * rng.normal(size=grid.shape))
    b = SampledField(grid, rng.normal(size=grid.shape))
    sa = dft_forward(a)
    sb = dft_forward(b)
    sc = dft_forward(SampledField(grid, a.values + 3.5 * b.values))
    scale = np.max(np.abs(sa.values))
    assert np.max(np.abs(sc.values - sa.values - 3.5 * sb.values)) < 1e-12 * scale
    back = dft_inverse(sa)
    assert np.max(np.abs(back.values - a.values)) < 1e-12


def test_plancherel_zero_function():
    zero = GaussProduct(tuple(GaussPoly1D(0.0, 1.0, 0.0) for _ in range(6)))
    lhs, rhs, _ = factor_pairing(zero.factors, zero.factors)
    assert lhs == 0.0 and rhs == 0.0


def test_plancherel_separable_closed_form():
    f = random_gauss_product(rng, 6, poly=True)
    lhs, rhs, _ = factor_pairing(f.factors, f.factors)
    assert abs(lhs - rhs) / abs(lhs) < 1e-8
    assert abs(lhs - f.norm2()) / f.norm2() < 1e-10


def test_parseval_self_pairing_equals_norm():
    f = random_gauss_product(rng, 6, sigma_range=(0.7, 0.9), mu_scale=0.0)
    lhs, rhs, _ = nf.parseval_N_check(f, f, count=16, n=MIN_MC_SAMPLES)
    assert abs(rhs - f.norm2()) / f.norm2() < 1e-8
    assert suites._rel(lhs, rhs) < 1e-6


def test_parseval_mc_within_errorbars():
    f = random_gauss_product(rng, 6, sigma_range=(0.8, 1.1), poly=True)
    phi = random_gauss_product(rng, 6, sigma_range=(0.8, 1.1), poly=True)
    _, rhs, mc = nf.parseval_N_check(f, phi, n=1 << 19, seed=21)
    # the parseval-mc row's rule: within tol = 3 standard errors
    assert abs(mc.estimate - rhs) <= suites._ROWS["parseval-mc"][2] * mc.stderr
    assert mc.stderr > 0


def test_lifted_convolution_on_slice_and_off_slice():
    # its own generator: the data must not depend on which tests ran first
    gen = np.random.default_rng(4045)
    f = random_gauss_product(gen, 6, sigma_range=(1.1, 1.4), mu_scale=0.2)
    u = random_gauss_product(gen, 6, sigma_range=(0.4, 0.6), mu_scale=0.2)
    on = 0.7 * gen.normal(size=9)
    on[4] = 0.0
    # each MCResult holds the two sides and their standard errors
    mc_on = nf.lifted_convolution_check(f, u, on, n=1 << 19, seed=31)
    lhs, rhs = mc_on.estimate
    assert abs(lhs - rhs) <= 3 * np.hypot(*mc_on.stderr)
    assert suites._rel(lhs, rhs) < 2e-2
    off = on.copy()
    off[4] = 1.5  # outside the slice the two convolutions genuinely differ
    mc_off = nf.lifted_convolution_check(f, u, off, n=1 << 19, seed=33)
    rel_off = suites._rel(*mc_off.estimate)
    assert rel_off > 5 * np.hypot(*mc_off.stderr) / abs(mc_off.estimate[0])
    assert rel_off > 3 * suites._rel(lhs, rhs)


def _suite_row(cfg, name):
    rows = cli.SUITES["nil-plancherel"](cfg)
    return rows, next(r for r in rows if r["name"] == name)


def test_nil_plancherel_passes_at_seed_51():
    # when each side of a lifted check drew its own sample stream,
    # lifted-convolution read 0.020239 here: sampling noise over its 2e-2
    # tolerance
    rows, lifted = _suite_row(cli.SuiteConfig(seed=51, budget_mc=1 << 18),
                              "lifted-convolution")
    assert all(r["pass"] for r in rows)
    assert lifted["rel_err"] < 1e-12


def _traced_bump_check():
    """plancherel-bump's check on its full 12^6 grid, and its traced peak
    in complex 12^6 fields."""
    box = np.sqrt(np.pi * 12 / 2.0) * suites.BUMP_SIGMA
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        res = nf.plancherel_N_check(suites._bump, box, 12)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return res, peak / (16 * 12 ** 6)


def test_bump_check_holds_one_field(monkeypatch):
    # the bump is sampled into one buffer, its |.|^2 summed plane by plane
    # and the buffer transformed in place, so the check holds one complex
    # 12^6 field and the busy workers' plane temporaries (2.75 fields with
    # a separate spectrum and whole-array |.|^2 temporaries); each worker
    # count runs on a fresh pool and gives the same sums, 5 workers taking
    # the 12 planes unevenly, and the in-place transform equals np.fft.fftn
    box = np.sqrt(np.pi * 12 / 2.0) * suites.BUMP_SIGMA
    grid = Q.box_grid(nf.NIL_AXES, -box, box, 12)
    spec = Q.Spectrum(grid, np.fft.fftn(
        Q.SampledField.from_callable(grid, suites._bump).values))
    rhs = Q.norm2(spec) * math.prod(ax.step for ax in grid.axes) \
        * spec.freq_weight() / (2.0 * np.pi) ** 6
    del spec
    results = []
    for workers in (1, 2, 4, 5):
        monkeypatch.setattr(Q, "_WORKERS", workers)
        monkeypatch.setattr(Q, "_pool", None)
        try:
            res, peak = _traced_bump_check()
        finally:
            if Q._pool is not None:
                Q._pool.shutdown()
        assert peak <= 1.3, (workers, peak)
        results.append(res)
    assert results[0] == results[1] == results[2] == results[3]
    assert results[0][1] == rhs
    assert abs(results[0][1] - suites.BUMP_NORM2) <= 1e-6 * suites.BUMP_NORM2


def test_monte_carlo_budget_is_a_ceiling(monkeypatch):
    # at a budget of 10^30 each row draws its own count; the spies draw
    # MIN_MC_SAMPLES in its place, so the rows' values are not asserted
    drawn = {suites: [], nf: []}
    for module, counts in drawn.items():
        def spy(integrand, mean, sigma, n, seed, counts=counts):
            counts.append(n)
            return monte_carlo(integrand, mean, sigma, MIN_MC_SAMPLES, seed)
        monkeypatch.setattr(module, "monte_carlo", spy)
    _suite_row(cli.SuiteConfig(budget_grid=6 ** 6, budget_mc=10 ** 30),
               "lifted-convolution")
    assert drawn[suites] == [suites.BUMP_MC_SAMPLES]  # plancherel-bump-mc
    # parseval-mc, then the ten lifted-convolution integrals
    assert drawn[nf] == [suites.PARSEVAL_MC_SAMPLES] \
        + [suites.LIFTED_MC_SAMPLES] * 10


def test_lifted_convolution_row_catches_a_wrong_t3_slot(monkeypatch):
    honest = nf.nil_shift_of_L

    def wrong_t3_slot(lpts, y):
        out = honest(lpts, y)
        z = G.nil_inv(np.asarray(y, dtype=float))
        # the t3 slot adds z1 t1 where z1 t2 belongs
        out[..., 5] = z[..., 2] + lpts[..., 5] + z[..., 0] * lpts[..., 8]
        return out

    cfg = cli.SuiteConfig(budget_mc=1 << 12)
    assert _suite_row(cfg, "lifted-convolution")[1]["pass"]
    monkeypatch.setattr(nf, "nil_shift_of_L", wrong_t3_slot)
    assert not _suite_row(cfg, "lifted-convolution")[1]["pass"]


def _heis_conv_grid(phi_vals, axes, mpts, mu, sig, kvec, weight):
    """out[m] = weight * sum_g phi[g] psi(g^{-1} . pt[m]) on the
    three-parameter group, psi(p) = exp(-|p - mu|^2 / (2 sig^2)) exp(i k.p),
    with g over the tensor grid of the node arrays axes = (z, y, x).

    Of g^{-1} . m = (pz, py, px), only pz = (mz - z) + (mx y - my x) mixes
    the axes, so a target's grid-sized work is one real Gaussian in pz; the
    other factors of psi are one-axis or (y, x) arrays.  Targets go in
    blocks, about 2 MB per grid-sized array."""
    z, y, x = axes
    phi = phi_vals.reshape(z.size, y.size, x.size)
    inv_two_s2 = 1.0 / (2.0 * sig * sig)
    out = np.empty(mpts.shape[0], dtype=np.complex128)
    step = max(1, 2 ** 18 // phi.size)
    for lo in range(0, mpts.shape[0], step):
        mz, my, mx = (mpts[lo:lo + step, k, None] for k in range(3))
        uz = mz - z
        cyx = (mx * y)[:, :, None] - (my * x)[:, None, :]
        py, px = my - y, mx - x
        pz = uz[:, :, None, None] + cyx[:, None]
        gauss_z = np.exp(-(pz - mu[0]) ** 2 * inv_two_s2)
        wave_z = np.exp(1j * kvec[0] * uz)
        rest = np.exp(1j * kvec[0] * cyx
                      + (1j * kvec[1] * py - (py - mu[1]) ** 2 * inv_two_s2)[:, :, None]
                      + (1j * kvec[2] * px - (px - mu[2]) ** 2 * inv_two_s2)[:, None, :])
        inner = np.einsum("bzyx,zyx,bz->byx", gauss_z, phi, wave_z)
        out[lo:lo + step] = np.einsum("byx,byx->b", inner, rest) * weight
    return out


def test_convolution_associativity_three_parameter_group():
    """(phi * psi) * f == phi * (psi * f) on the three-parameter group, with
    genuinely different intermediate grids on the two sides."""
    mus = rng.uniform(-0.3, 0.3, size=(3, 3))
    sig = 1.0
    ks = rng.uniform(-0.5, 0.5, size=(3, 3))

    def make(i):
        def fn(p):
            p = np.asarray(p, dtype=float)
            d = p - mus[i]
            return np.exp(-np.sum(d * d, axis=-1) / (2 * sig ** 2)) \
                * np.exp(1j * p @ ks[i])
        return fn

    phi, psi, f = make(0), make(1), make(2)
    # 16 nodes on +-5 read 1.5e-7; a flipped, dropped or doubled heis_mul
    # cross term reads 2.3e-2 to 5.1e-2
    grid = box_grid(("z", "y", "x"), -5.0, 5.0, 16)
    mesh = np.broadcast_arrays(*grid.coords())
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    w = grid.axes[0].step ** 3
    at = np.array([0.3, -0.2, 0.1])

    nodes = [ax.nodes() for ax in grid.axes]

    def conv(a_vals, b_mu, b_k, targets):
        return _heis_conv_grid(a_vals, nodes, targets, b_mu, sig, b_k, w)

    shifted = G.heis_mul(-pts, np.broadcast_to(at, pts.shape))  # g^{-1} at
    # left association: c = phi * psi on the grid, then c * f at the point
    c_vals = conv(phi(pts), mus[1], ks[1], pts)
    lhs = np.sum(c_vals * f(shifted)) * w
    # right association: d = psi * f, then phi * d at the point;
    # phi * d(at) = int d(g^{-1} at) phi(g) dg, with the inner convolution
    # evaluated exactly at the shifted points
    d_shift = conv(psi(pts), mus[2], ks[2], shifted)
    rhs = np.sum(phi(pts) * d_shift) * w
    assert abs(lhs - rhs) / abs(lhs) < 1e-4


def _reference_convolution(phi, f, at, box, count):
    """(phi * f)(at) through the group law as one full-grid sample, summed
    with the tensor-product weights."""
    grid = box_grid(nf.NIL_AXES, *box, count)
    at = np.asarray(at, dtype=float)

    def integrand(u):
        return f(u) * phi(G.nil_mul(np.broadcast_to(at, u.shape), G.nil_inv(u)))

    vals = SampledField.from_callable(
        grid, lambda *xs: integrand(np.stack(np.broadcast_arrays(*xs),
                                             axis=-1))).values
    for ax in grid.axes:
        vals = vals * ax.step
    return complex(pairwise_sum(vals.ravel()))


def test_group_law_cancels_in_the_pairing_at_the_identity():
    # the separable grid side of parseval_N_check rests on these two facts:
    # phi-check(0 . u^{-1}) = conj(phi(nil_inv(nil_inv(u)))) = conj(phi(u))
    u = np.random.default_rng(4046).uniform(-9.0, 9.0, size=(10 ** 5, 6))
    assert np.array_equal(G.nil_mul(np.zeros_like(u), u), u)
    assert np.max(np.abs(G.nil_inv(G.nil_inv(u)) - u)) <= 1e-12


def test_separable_parseval_grid_equals_group_law_sum():
    gen = np.random.default_rng(4047)
    f = random_gauss_product(gen, 6, sigma_range=(0.8, 1.2), mu_scale=0.4,
                             poly=True)
    phi = random_gauss_product(gen, 6, sigma_range=(0.8, 1.2), mu_scale=0.4,
                               poly=True)

    def phi_check(x):
        return np.conj(phi.values(G.nil_inv(x)))

    # at every count the box is c +- sqrt(pi count) w
    center, width = product_overlap(f, phi)
    half = np.sqrt(np.pi * 6) * width
    box = (center - half, center + half)
    ref = _reference_convolution(phi_check, f.values, np.zeros(6), box, 6)
    lhs = nf.parseval_N_check(f, phi, count=6, n=MIN_MC_SAMPLES)[0]
    assert abs(lhs - ref) <= 1e-13 * abs(ref)


def test_parseval_grid_fails_when_one_factor_of_f_is_perturbed(monkeypatch):
    gen = np.random.default_rng(4042)
    f = random_gauss_product(gen, 6, sigma_range=(0.8, 1.2), mu_scale=0.4,
                             poly=True)
    phi = random_gauss_product(gen, 6, sigma_range=(0.8, 1.2), mu_scale=0.4,
                               poly=True)
    # unperturbed, the same pairing passes at this count (the suite's
    # parseval-grid row); the grid side reads f through its factor values,
    # the spectral side through the factors themselves
    honest = GaussProduct.factor_values

    def perturbed(self, nodes_per_axis):
        vals = honest(self, nodes_per_axis)
        vals[3] = vals[3] * (1.0 + 1e-4 * np.cos(nodes_per_axis[3]))
        return vals

    monkeypatch.setattr(GaussProduct, "factor_values", perturbed)
    lhs, rhs, _ = nf.parseval_N_check(f, phi, count=17, n=MIN_MC_SAMPLES)
    assert suites._rel(lhs, rhs) > 1e-6


def test_gauss_poly_values_skips_zero_coefficients_bit_for_bit():
    x = np.random.default_rng(4043).normal(scale=3.0, size=4096)
    for c in [(1.0, 0.0, 0.0), (0.3 - 1.2j, 0.0, 0.0), (1.0, 0.0, 0.5j),
              (0.7, -0.2j, 0.0), (1.0 + 0.2j, 0.3, -0.1j), (0.0, 0.0, 0.0)]:
        fac = GaussPoly1D(0.25, 0.9, *c)
        t = x - fac.mu
        old = (fac.c0 + fac.c1 * t + fac.c2 * t * t) \
            * np.exp(-t * t / (2.0 * fac.sigma ** 2))
        new = fac.values(x)
        assert new.shape == old.shape
        assert np.array_equal(new.view(float) if np.iscomplexobj(new) else new,
                              old.view(float) if np.iscomplexobj(old) else old)


def test_gauss_product_values_equal_the_product_of_factor_values():
    # one np.exp of the summed exponents in place of one per factor
    gen = np.random.default_rng(4048)
    pts = gen.normal(scale=2.0, size=(4096, 6))
    for poly in (False, True):
        f = random_gauss_product(gen, 6, poly=poly)
        ref = np.prod([fac.values(pts[:, k])
                       for k, fac in enumerate(f.factors)], axis=0)
        vals = f.values(pts)
        assert vals.dtype == complex and vals.shape == (4096,)
        assert np.max(np.abs(vals - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_broadcast_invariance_shift_equals_pointwise_shifts():
    gen = np.random.default_rng(4044)
    lpts = gen.normal(size=(200, 9))
    hrk = gen.normal(size=(200, 3))
    loop = np.stack([nf.invariance_shift(lpts[i], *hrk[i]) for i in range(200)])
    assert np.array_equal(nf.invariance_shift(lpts, *hrk.T), loop)
