import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special, stats
from scipy.interpolate import PchipInterpolator

from currentlab import measures as M
from currentlab import process as P
from currentlab import specfun
from currentlab.errors import DomainError
from currentlab.specfun import Dimensions


def test_seeded_stream_determinism():
    a = P.SeededStream(2024, 3).rng.random(5)
    b = P.SeededStream(2024, 3).rng.random(5)
    c = P.SeededStream(2024, 4).rng.random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_seeded_stream_builds_its_generator_on_first_use():
    stream = P.SeededStream(2024, 7)
    assert "rng" not in vars(stream)
    got = stream.rng.random(5)
    assert stream.rng is stream.rng
    want = np.random.default_rng(np.random.SeedSequence(entropy=2024, spawn_key=(7,)))
    assert np.array_equal(got, want.random(5))
    assert np.array_equal(stream.rng.standard_normal(3), want.standard_normal(3))


def test_oracle_n2_domain():
    for lam in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            P.oracle_n2(lam, P.SeededStream(2024, 0), size=10)


def test_sample_marginal_is_gamma_then_normal_per_cell():
    # bit for bit the per-cell formula, in its draw order: the cell's
    # Gamma(lam/2, 1) mixing variable W, then its N(0, (W/2) I_d) coordinate
    dims, part = Dimensions(3), M.Partition((0.3, 0.8, 1.4))
    for size in (None, 1, 1000):
        got = P.sample_marginal(dims, part, P.SeededStream(2024, 40), size=size)
        rng = P.SeededStream(2024, 40).rng
        n_draws = 1 if size is None else size
        want = np.empty((n_draws, part.size, dims.d))
        for i, lam in enumerate(part.masses):
            w = rng.gamma(lam / 2.0, 1.0, size=n_draws)
            want[:, i, :] = np.sqrt(w / 2.0)[:, None] * rng.standard_normal((n_draws, dims.d))
        assert np.array_equal(got, want[0] if size is None else want)
    # the mixing draw alone is the same Gamma draw
    w = P.sample_mixing(0.8, P.SeededStream(2024, 41), 500)
    assert np.array_equal(w, P.SeededStream(2024, 41).rng.gamma(0.4, 1.0, size=500))


def _traced_peak_mb(fn, *args, **kwargs) -> float:
    """The peak of traced memory (numpy arrays and Python objects) while fn
    runs, in MB of 10^6 bytes."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_sample_marginal_is_one_draw_of_the_normals_across_their_blocks():
    # the normals are drawn NORMAL_BLOCK_ROWS rows at a time; across several
    # blocks and a ragged last one they are still the per-cell formula's one
    # call, bit for bit
    dims, part = Dimensions(3), M.Partition((0.3, 0.8))
    size = 2 * P.NORMAL_BLOCK_ROWS + 5
    got = P.sample_marginal(dims, part, P.SeededStream(2024, 42), size=size)
    rng = P.SeededStream(2024, 42).rng
    for i, lam in enumerate(part.masses):
        w = rng.gamma(lam / 2.0, 1.0, size=size)
        want = np.sqrt(w / 2.0)[:, None] * rng.standard_normal((size, dims.d))
        assert np.array_equal(got[:, i, :], want)


def test_sample_marginal_peak_is_its_output_and_one_mixing_array():
    # 200 000 draws of 3 cells at n = 3: a 9.6 MB output and a 1.6 MB mixing
    # array (the parent's full-size temporaries peaked at 19.3 MB)
    part = M.Partition((0.3, 0.5, 0.7))
    peak = _traced_peak_mb(P.sample_marginal, Dimensions(3), part, P.SeededStream(2024, 43),
                           size=200_000)
    assert 9.6 + 1.6 <= peak <= 11.5


def test_oracle_n2_is_the_difference_of_two_gamma_draws():
    got = P.oracle_n2(0.7, P.SeededStream(2024, 44), size=1000)
    rng = P.SeededStream(2024, 44).rng
    g1 = rng.gamma(0.35, 0.5, size=1000)
    g2 = rng.gamma(0.35, 0.5, size=1000)
    assert np.array_equal(got, g1 - g2)
    rng = P.SeededStream(2024, 44).rng
    one = rng.gamma(0.35, 0.5, size=1) - rng.gamma(0.35, 0.5, size=1)
    assert P.oracle_n2(0.7, P.SeededStream(2024, 44)) == float(one[0])
    # the second draw is subtracted in place: the output and one gamma
    # array, 1.6 MB each (the parent's three arrays peaked at 4.8 MB)
    peak = _traced_peak_mb(P.oracle_n2, 0.7, P.SeededStream(2024, 45), size=200_000)
    assert 3.2 <= peak <= 3.3


def test_marginal_matches_oracle_two_sample_ks():
    # n = 2: the Gaussian-scale-mixture sampler against the independent
    # difference-of-gammas oracle
    lam = 0.5
    part = M.Partition((lam,))
    xs = P.sample_marginal(Dimensions(2), part, P.SeededStream(2024, 0),
                           size=100_000)[:, 0, 0]
    ys = P.oracle_n2(lam, P.SeededStream(2024, 1), size=100_000)
    stat = stats.ks_2samp(xs, ys).statistic
    assert stat <= 0.02


def test_marginal_matches_quadrature_cdf():
    # n = 2: one-sample KS against the CDF obtained by integrating the
    # closed-form radial density (an entirely non-sampling route)
    dims = Dimensions(2)
    lam = 0.7
    rs = np.geomspace(1e-5, 30.0, 400)
    pdf = np.exp([specfun.log_marginal_radial_density(dims, lam, r) for r in rs])
    # one-sided CDF of |xi|; each sign carries half the mass
    cum = integrate.cumulative_trapezoid(pdf, rs, initial=0.0)
    cum /= cum[-1]
    radial_cdf = PchipInterpolator(rs, cum)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        r = np.clip(np.abs(x), rs[0], rs[-1])
        half = 0.5 * radial_cdf(r)
        return np.where(x >= 0, 0.5 + half, 0.5 - half)

    xs = P.sample_marginal(dims, M.Partition((lam,)), P.SeededStream(2024, 2),
                           size=100_000)[:, 0, 0]
    assert stats.ks_1samp(xs, cdf).statistic <= 0.02


def test_marginal_characteristic_function_n3():
    # n = 3: empirical characteristic function against (1+|g|^2/4)^(-lam/2)
    dims = Dimensions(3)
    lam = 0.8
    xs = P.sample_marginal(dims, M.Partition((lam,)), P.SeededStream(2024, 3),
                           size=200_000)[:, 0, :]
    for g in ([0.5, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, -0.5], [-3.0, 1.0]):
        g = np.asarray(g)
        phases = np.exp(1j * xs @ g)
        est = phases.real.mean()
        se = phases.real.std() / math.sqrt(len(xs))
        target = (1.0 + float(g @ g) / 4.0) ** (-lam / 2.0)
        assert abs(est - target) <= 3.0 * se


def test_jump_table_inverse_is_scipys_pchip():
    # the numpy monotone cubic against scipy's PchipInterpolator through the
    # same (log Lambda, log r) knots, at the knots and between them
    rng = np.random.default_rng(7)
    for n in (2, 3):
        dims = Dimensions(n)
        for cutoff in (1e-5, 0.05, 0.2):
            table = P.JumpSizeTable(dims, cutoff, P.default_intensity_scale(dims))
            knots = table.log_tail
            x = np.concatenate((knots, rng.uniform(knots[0], knots[-1], 20_000)))
            want = PchipInterpolator(knots, table.log_radius)(x)
            assert np.abs(table.inverse(x) - want).max() <= 1e-12
            # outside the table the inverse is clipped to its ends
            ends = table.inverse(np.array([knots[0] - 1.0, knots[-1] + 1.0]))
            assert np.array_equal(ends, table.log_radius[[0, -1]])


def test_monotone_cubic_keeps_monotone_data_monotone():
    x = np.array([0.0, 1.0, 1.5, 4.0, 4.2, 7.0])
    y = np.array([0.0, 0.0, 2.0, 2.1, 5.0, 5.0])
    c = P.monotone_cubic(x, y)
    t = np.linspace(0.0, 1.0, 101)[:, None] * np.diff(x)
    vals = c[3] + c[2] * t + c[1] * t * t + c[0] * t * t * t
    assert np.all(np.diff(vals, axis=0) >= -1e-15)
    assert np.allclose(vals[-1], y[1:], rtol=0, atol=1e-14)
    assert np.array_equal(c, PchipInterpolator(x, y).c)


def test_intensity_scale_and_truncation_bound():
    dims = Dimensions(2)
    assert P.default_intensity_scale(dims) == pytest.approx(math.pi ** -0.5)
    b1 = P.truncation_bound(dims, 1.0, 0.01)
    b2 = P.truncation_bound(dims, 1.0, 0.001)
    assert 0 < b2 < b1
    # near zero the integrand is ~ kappa_s * area * r^{d-1} (g ~ 1/(2 r^d)),
    # so the bound is ~ total_mass * kappa_s * area * cutoff / 2... linear
    assert b1 / b2 == pytest.approx(10.0, rel=0.15)


def _truncation_bound_closed_form(d: int, total_mass: float, cutoff: float) -> float:
    """truncation_bound in closed form.  The radial integrand r^d g(r) is
    r^nu K_nu(2r) with nu = d/2, so the integral is 2^(-nu-1) times
    integral_0^x t^nu K_nu(t) dt at x = 2 cutoff, which is
    sqrt(pi) 2^(nu-1) Gamma(nu+1/2) x [K_nu L_(nu-1) + L_nu K_(nu-1)](x)
    with L the modified Struve function (DLMF 10.43(ii))."""
    nu, x = d / 2.0, 2.0 * cutoff
    integral = (math.sqrt(math.pi) * 2.0 ** (nu - 1.0) * special.gamma(nu + 0.5) * x
                * (special.kv(nu, x) * special.modstruve(nu - 1.0, x)
                   + special.modstruve(nu, x) * special.kv(nu - 1.0, x)))
    return (total_mass * P.default_intensity_scale(Dimensions(d + 1))
            * specfun.sphere_area(d) * 2.0 ** (-nu - 1.0) * integral)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_truncation_bound_matches_its_closed_form(d):
    # the quad is at most 2.4e-13 off the closed form here (d = 2, c = 0.2)
    for cutoff in (1e-6, 1e-3, 0.05, 0.2, 1.0):
        got = P.truncation_bound(Dimensions(d + 1), 0.7, cutoff)
        assert got == pytest.approx(_truncation_bound_closed_form(d, 0.7, cutoff),
                                    rel=5e-13, abs=0)
    # d = 1: K_(1/2) is elementary, the integrand is (sqrt(pi)/2) e^(-2r)
    want = 0.7 * math.pi ** -0.5 * 2.0 * 0.5 * math.sqrt(math.pi) * 0.5 * -math.expm1(-0.4)
    assert _truncation_bound_closed_form(1, 0.7, 0.2) == pytest.approx(want, rel=1e-15)


def test_sample_process_projection_matches_marginal():
    # project shot-noise paths to a partition and compare with direct
    # marginal draws (two-sample KS per cell component); the cutoff must be
    # small enough that the no-jump atom at zero is below the KS budget
    dims = Dimensions(2)
    part = M.Partition((0.5, 0.5))
    n_paths = 10_000
    cutoff = 1e-5
    table = P.JumpSizeTable(dims, cutoff, P.default_intensity_scale(dims))
    proj = np.empty((n_paths, part.size))
    stream = P.SeededStream(2024, 10)
    for k in range(n_paths):
        cfg = P.sample_process(dims, part.total_mass, cutoff, stream, table=table)
        proj[k] = P.project_config(cfg, part)[:, 0]
    direct = P.sample_marginal(dims, part, P.SeededStream(2024, 11),
                               size=n_paths)
    for i in range(part.size):
        stat = stats.ks_2samp(proj[:, i], direct[:, i, 0]).statistic
        assert stat <= 0.03


def test_marginal_infinitely_divisible():
    # the mass-lam marginal equals the sum of two independent mass-lam/2
    # marginals in distribution
    dims = Dimensions(2)
    lam = 0.8
    whole = P.sample_marginal(dims, M.Partition((lam,)), P.SeededStream(2024, 30),
                              size=100_000)[:, 0, 0]
    halves = P.sample_marginal(dims, M.Partition((lam / 2, lam / 2)),
                               P.SeededStream(2024, 31), size=100_000)
    summed = halves[:, 0, 0] + halves[:, 1, 0]
    assert stats.ks_2samp(whole, summed).statistic <= 0.02


def test_truncation_consistency():
    # halving the cutoff moves the empirical characteristic estimate by less
    # than the declared truncation bound (at |gamma| = 1 the phase error per
    # path is at most the discarded amplitude mass)
    dims = Dimensions(2)
    total_mass = 1.0
    gamma = 1.0
    n_paths = 40_000

    def estimate(cutoff, sid):
        table = P.JumpSizeTable(dims, cutoff, P.default_intensity_scale(dims))
        stream = P.SeededStream(2024, sid)
        acc = 0.0
        for _ in range(n_paths):
            cfg = P.sample_process(dims, total_mass, cutoff, stream, table=table)
            acc += math.cos(gamma * cfg.amplitudes.sum())
        return acc / n_paths

    coarse = estimate(0.05, 40)
    fine = estimate(0.025, 41)
    bound = P.truncation_bound(dims, total_mass, 0.05)
    mc_noise = 3.0 / math.sqrt(n_paths)
    assert abs(coarse - fine) < bound + mc_noise


def test_sample_process_basic_properties():
    dims = Dimensions(3)
    cfg = P.sample_process(dims, 1.0, 0.05, P.SeededStream(2024, 20))
    assert cfg.positions.shape == cfg.radii.shape
    assert cfg.amplitudes.shape == (len(cfg.positions), dims.d)
    assert np.all(np.diff(cfg.positions) >= 0)
    assert np.all(cfg.radii >= 0.05 * (1 - 1e-9))
    assert cfg.truncation_bound > 0
    for mass in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            P.sample_process(dims, mass, 0.05, P.SeededStream(2024, 21))
    for cutoff in (0.0, math.nan):
        with pytest.raises(DomainError):
            P.JumpSizeTable(dims, cutoff, 1.0)


def test_sample_process_rejects_a_table_of_another_call():
    # truncation_bound comes from the call's arguments, the draws from the
    # table, so the two must describe the same process
    dims = Dimensions(2)
    table = P.JumpSizeTable(dims, 0.05, P.default_intensity_scale(dims))
    stream = P.SeededStream(2024, 22)
    assert P.sample_process(dims, 1.0, 0.05, stream, table=table).truncation_bound > 0
    for other_dims, cutoff, scale in ((Dimensions(3), 0.05, None), (dims, 0.1, None),
                                      (dims, 0.05, 1.01 * table.scale), (dims, math.nan, None)):
        with pytest.raises(DomainError):
            P.sample_process(other_dims, 1.0, cutoff, stream, scale, table=table)


def test_sample_process_determinism():
    a = P.sample_process(Dimensions(2), 1.0, 0.02, P.SeededStream(7, 0))
    b = P.sample_process(Dimensions(2), 1.0, 0.02, P.SeededStream(7, 0))
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.amplitudes, b.amplitudes)


def test_project_rotate_scale_config():
    dims = Dimensions(3)
    cfg = P.PointConfiguration(
        total_mass=1.0,
        positions=np.array([0.1, 0.6, 0.9]),
        amplitudes=np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]]),
    )
    part = M.Partition((0.5, 0.5))
    proj = P.project_config(cfg, part)
    assert np.allclose(proj, [[1.0, 0.0], [1.0, 3.0]])
    with pytest.raises(DomainError):
        P.project_config(cfg, M.Partition((0.5, 0.3)))
    u = np.array([[0.0, 1.0], [-1.0, 0.0]])
    rot = P.rotate_config(cfg, u)
    assert np.allclose(rot.radii, cfg.radii)
    assert np.allclose(rot.amplitudes, cfg.amplitudes @ u)


def test_project_empty_config_keeps_dimension():
    cfg = P.PointConfiguration(1.0, np.empty(0), np.empty((0, 2)))
    proj = P.project_config(cfg, M.Partition((0.5, 0.5)))
    assert proj.shape == (2, 2)
    assert np.all(proj == 0.0)
