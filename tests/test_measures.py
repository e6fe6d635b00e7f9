import math

import numpy as np
import pytest
from scipy.special import chdtri, gammaln

from currentlab import measures as M
from currentlab import specfun
from currentlab.errors import DomainError
from currentlab.process import SeededStream
from currentlab.specfun import Dimensions


def test_partition_basics():
    p = M.Partition((0.5, 0.3, 0.2))
    assert p.size == 3
    assert p.total_mass == pytest.approx(1.0)
    assert p.edges == pytest.approx([0.0, 0.5, 0.8, 1.0])
    with pytest.raises(DomainError):
        M.Partition((0.5, 0.0))
    with pytest.raises(DomainError):
        M.Partition((0.5, -0.1))


def test_require_nu_valid():
    M.Partition((0.5, 0.3)).require_nu_valid(Dimensions(2))
    with pytest.raises(DomainError):
        M.Partition((1.2,)).require_nu_valid(Dimensions(2))
    # the same mass is fine one dimension up
    M.Partition((1.2,)).require_nu_valid(Dimensions(3))


def test_refinement_mass_consistency():
    p = M.Partition((0.6, 0.4))
    M.Refinement(p, M.Partition((0.3, 0.3, 0.4)), (0, 0, 1))
    with pytest.raises(DomainError):
        M.Refinement(p, M.Partition((0.3, 0.3, 0.3)), (0, 0, 1))


def test_group_sum():
    p = M.Partition((0.6, 0.4))
    ref = M.split_evenly(p, 2)
    fine = np.array([[1.0], [2.0], [3.0], [4.0]])
    assert np.allclose(ref.group_sum(fine), [[3.0], [7.0]])
    # a batch of draws sums over its cell axis
    assert np.allclose(ref.group_sum(np.stack((fine, -fine))), [[[3.0], [7.0]], [[-3.0], [-7.0]]])


def _group_sum_loop(ref, xi_fine):
    out = np.zeros(xi_fine.shape[:-2] + (ref.coarse.size, xi_fine.shape[-1]))
    for j, i in enumerate(ref.assignment):
        out[..., i, :] += xi_fine[..., j, :]
    return out


def test_group_sum_matches_the_cell_loop():
    rng = np.random.default_rng(8)
    coarse = M.Partition((0.6, 0.4, 0.9))
    pairs = (M.split_evenly(coarse, 2),
             M.Refinement(coarse, M.Partition((0.3, 0.2, 0.45, 0.3, 0.45, 0.2)),
                          (0, 1, 2, 0, 2, 1)))
    fives = (M.split_evenly(coarse, 5),
             M.Refinement(coarse, M.Partition((0.2, 0.9, 0.4, 0.2, 0.2)), (0, 2, 1, 0, 0)))
    for d in (1, 2):
        for batch in ((), (7,), (3, 5)):
            # at most two fine cells per coarse cell, sorted or not: bit for bit
            for ref in pairs:
                xi = rng.standard_normal(batch + (ref.fine.size, d))
                assert np.array_equal(ref.group_sum(xi), _group_sum_loop(ref, xi))
            # more: the same sums in another order
            for ref in fives:
                xi = rng.standard_normal(batch + (ref.fine.size, d))
                assert np.allclose(ref.group_sum(xi), _group_sum_loop(ref, xi),
                                   rtol=0, atol=1e-14)


def test_mu_density_is_product_of_marginals():
    dims = Dimensions(3)
    p = M.Partition((0.5, 0.8))
    xi = np.array([[0.3, -0.2], [1.0, 0.5]])
    want = (specfun.log_marginal_radial_density(dims, 0.5, float(np.linalg.norm(xi[0])))
            + specfun.log_marginal_radial_density(dims, 0.8, float(np.linalg.norm(xi[1]))))
    assert M.log_mu_alpha_density(dims, p, xi) == pytest.approx(want, rel=1e-12)
    with pytest.raises(DomainError):
        M.log_mu_alpha_density(dims, p, np.array([[0.0, 0.0], [1.0, 0.5]]))


def test_densities_over_a_batch_match_per_point_calls():
    rng = np.random.default_rng(12)
    for n, masses in ((2, (0.5, 0.3, 0.8)), (3, (0.5, 0.7))):
        dims = Dimensions(n)
        p = M.Partition(masses)
        xi = rng.standard_normal((4, 6, p.size, dims.d))
        for density in (M.log_mu_alpha_density, M.log_nu_alpha_density, M.log_rn_derivative):
            got = density(dims, p, xi)
            assert got.shape == (4, 6)
            one = density(dims, p, xi[2, 3])
            assert isinstance(one, float)
            assert got[2, 3] == one
            want = [[density(dims, p, x) for x in row] for row in xi]
            assert np.allclose(got, want, rtol=1e-15, atol=0)
            # a flat point is one point
            assert density(dims, p, xi[1, 1].ravel()) == density(dims, p, xi[1, 1])
    with pytest.raises(DomainError):
        M.log_mu_alpha_density(Dimensions(3), M.Partition((0.5, 0.7)), np.ones((4, 3, 2)))
    with pytest.raises(DomainError):
        M.big_psi(M.Partition((0.5, 0.7)), Dimensions(3), np.ones((4, 2, 2)))


def test_nu_density_closed_form_single_cell():
    dims = Dimensions(2)
    lam = 0.5
    r = 1.0
    want = (-0.5 * math.log(math.pi) - lam * math.log(2.0)
            + float(gammaln((1 - lam) / 2.0) - gammaln(lam / 2.0)))
    assert M.log_nu_alpha_density(dims, M.Partition((lam,)), [r]) == pytest.approx(
        want, rel=1e-12)


def test_nu_density_homogeneity():
    dims = Dimensions(3)
    p = M.Partition((0.5, 0.8))
    xi = np.array([[0.3, -0.2], [1.0, 0.5]])
    base = M.log_nu_alpha_density(dims, p, xi)
    for c in (0.5, 3.0):
        scaled = M.log_nu_alpha_density(dims, p, c * xi)
        want = base + sum((lam - dims.d) * math.log(c) for lam in p.masses)
        assert scaled == pytest.approx(want, rel=1e-12)


def test_rn_derivative_is_density_ratio():
    dims = Dimensions(2)
    p = M.Partition((0.5, 0.3))
    xi = np.array([[0.7], [-1.1]])
    lhs = M.log_rn_derivative(dims, p, xi)
    rhs = M.log_nu_alpha_density(dims, p, xi) - M.log_mu_alpha_density(dims, p, xi)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_rn_derivative_zero_cells_use_v_at_zero():
    dims = Dimensions(2)
    p = M.Partition((0.5, 0.3))
    xi = np.array([[0.0], [-1.1]])
    only_second = -p.total_mass * math.log(2.0) + specfun.log_v_rho(
        (dims.d - 0.3) / 2.0, 1.1)
    assert M.log_rn_derivative(dims, p, xi) == pytest.approx(only_second, rel=1e-12)


def test_char_l_and_big_psi():
    assert M.char_l([0.0]) == 1.0
    assert M.char_l([2.0]) == pytest.approx(2.0 ** -0.5, rel=1e-14)
    dims = Dimensions(2)
    p = M.Partition((0.5, 0.3))
    gamma = np.array([[1.0], [2.0]])
    want = (1.0 + 0.25) ** -0.25 * (1.0 + 1.0) ** -0.15
    assert M.big_psi(p, dims, gamma) == pytest.approx(want, rel=1e-13)
    # mass additivity: splitting a cell with equal gamma leaves psi unchanged
    fine = M.Partition((0.25, 0.25, 0.3))
    gamma_f = np.array([[1.0], [1.0], [2.0]])
    assert M.big_psi(fine, dims, gamma_f) == pytest.approx(want, rel=1e-13)


def test_nu_char_refinement_exact():
    dims = Dimensions(3)
    p = M.Partition((0.5, 0.3))
    ref = M.split_evenly(p, 3)
    gamma_c = np.array([[0.4, -1.0], [2.0, 0.3]])
    gamma_f = np.asarray([gamma_c[i] for i in ref.assignment])
    assert math.log(M.nu_char(ref.fine, dims, gamma_f)) == pytest.approx(
        math.log(M.nu_char(p, dims, gamma_c)), abs=1e-12)
    with pytest.raises(DomainError):
        M.nu_char(p, dims, np.array([[0.0, 0.0], [2.0, 0.3]]))


def test_check_coherence():
    for n in (2, 3):
        dims = Dimensions(n)
        ref = M.split_evenly(M.Partition((0.5, 0.3)), 2)
        # the exact check draws gamma and nothing else
        stream = SeededStream(2024, 0)
        assert M.coherence_exact(dims, ref, stream) <= 1e-12
        after_gamma = SeededStream(2024, 0).rng
        after_gamma.normal(size=(ref.coarse.size, dims.d))
        assert stream.rng.random() == after_gamma.random()
        gammas = np.array([[[1.0] * dims.d, [0.0] * dims.d], [[0.0] * dims.d, [2.0] * dims.d]])
        for conditional, frequencies in ((False, gammas), (True, [[1.0, 1.0], [4.0, 0.5]])):
            q = M.coherence_mc(dims, ref, SeededStream(2024, 0), 50_000, frequencies,
                               conditional)
            assert 0.0 <= q <= chdtri(2, 1e-3)


def _plain_coherence_statistic(dims, ref, stream, n_samples, frequencies, conditional):
    """q of coherence_mc recomputed in plain numpy: each block's draws
    summed to the coarse cells by a loop over the fine cells, the mixing
    variables stacked, the statistics made as new arrays."""
    from currentlab.process import sample_marginal, sample_mixing

    freq = np.asarray(frequencies, dtype=float)
    if conditional:
        mean, cov = M.laplace_moments(ref.coarse, freq)
    else:
        mean, cov = M.cosine_moments(ref.coarse, dims, freq)
    total = np.zeros(len(freq))
    for size in M.mc_blocks(n_samples):
        if conditional:
            w = np.stack([sample_mixing(lam, stream, size) for lam in ref.fine.masses], axis=-1)
            sums = np.zeros((size, ref.coarse.size))
            for j, i in enumerate(ref.assignment):
                sums[:, i] += w[:, j]
            values = np.exp(-(sums @ freq.T))
        else:
            draws = sample_marginal(dims, ref.fine, stream, size=size)
            sums = np.zeros((size, ref.coarse.size, dims.d))
            for j, i in enumerate(ref.assignment):
                sums[:, i, :] += draws[:, j, :]
            values = np.cos(sums.reshape(size, -1) @ freq.reshape(len(freq), -1).T)
        total += values.sum(axis=0)
    dev = total / n_samples - mean
    return n_samples * (dev @ np.linalg.solve(cov, dev))


def test_coherence_mc_is_the_plain_numpy_statistic_bit_for_bit():
    # n spans two full blocks and a short one; at n = 3 the raw statistics
    # take a frequency vector per coarse cell
    n = 2 * M.MC_BLOCK + 123
    ref = M.split_evenly(M.Partition((0.5, 0.7)), 2)
    for dims in (Dimensions(2), Dimensions(3)):
        gammas = np.random.default_rng(dims.n).normal(size=(3, 2, dims.d))
        for conditional, frequencies in ((False, gammas), (True, [[1.0, 1.0], [4.0, 4.0]])):
            got = M.coherence_mc(dims, ref, SeededStream(2024, 5), n, frequencies, conditional)
            want = _plain_coherence_statistic(dims, ref, SeededStream(2024, 5), n,
                                              frequencies, conditional)
            assert got == want, (dims.n, conditional)


def test_check_coherence_conditional_averages_the_mean_given_the_mixing():
    # given the mixing sums S_c ~ Gamma(lam_c/2, 1) of the coarse cells, the
    # mean of the statistic is prod_c E exp(-t_c S_c); each factor by a
    # quadrature of the Gamma law in u = s^k (k = lam_c/2), where
    # s^(k-1) e^(-s) ds / Gamma(k) = e^(-u^(1/k)) du / Gamma(k + 1)
    from scipy.integrate import quad

    coarse = M.Partition((0.5, 0.7))

    def laplace(t):
        return math.prod(quad(lambda u: math.exp(-(1.0 + tc) * u ** (2.0 / lam)), 0.0, math.inf,
                              epsabs=1e-14, epsrel=1e-13)[0] / math.gamma(lam / 2.0 + 1.0)
                         for lam, tc in zip(coarse.masses, t))

    ts = np.array([[1.0, 1.0], [4.0, 4.0], [0.3, 2.5]])
    mean, cov = M.laplace_moments(coarse, ts)
    want_mean = np.array([laplace(t) for t in ts])
    want_cov = (np.array([[laplace(a + b) for b in ts] for a in ts])
                - np.outer(want_mean, want_mean))
    assert np.abs(mean - want_mean).max() <= 1e-12
    assert np.abs(cov - want_cov).max() <= 1e-12
    # and the mean of cos <gamma, xi> given the mixing is the statistic at
    # t_c = |gamma_c|^2 / 4: L(t) is Psi(gamma)
    gamma = np.array([[0.4, -1.0], [2.0, 0.3]])
    t = np.sum(gamma ** 2, axis=1) / 4.0
    assert M.mixing_laplace(coarse, t) == pytest.approx(
        M.big_psi(coarse, Dimensions(3), gamma), rel=1e-14)


def test_cosine_moments_match_a_quadrature_of_the_coarse_density():
    # Psi(gamma) = integral of cos(gamma xi) over the n = 2 coarse density,
    # in xi = u^2, where the |xi|^(lam - 1) singularity at 0 becomes regular;
    # the covariance reads Psi at every gamma_a + gamma_b and gamma_a - gamma_b
    from scipy.integrate import quad

    dims, coarse = Dimensions(2), M.Partition((0.5,))

    def psi(g):
        def f(u):
            return 4.0 * u * math.cos(g * u * u) * math.exp(
                M.log_mu_alpha_density(dims, coarse, [[u * u]]))
        return quad(f, 0.0, 7.0, limit=800, epsabs=1e-13, epsrel=1e-12)[0]

    gammas = np.array([1.0, 3.0, 9.0, 0.5])
    mean, cov = M.cosine_moments(coarse, dims, gammas[:, None, None])
    want_mean = np.array([psi(g) for g in gammas])
    want_cov = (np.array([[(psi(a + b) + psi(a - b)) / 2.0 for b in gammas] for a in gammas])
                - np.outer(want_mean, want_mean))
    assert np.abs(mean - want_mean).max() <= 1e-10
    assert np.abs(cov - want_cov).max() <= 1e-10


def test_mc_blocks_cover_the_samples():
    assert M.mc_blocks(100) == [100]
    assert M.mc_blocks(2 * M.MC_BLOCK + 5) == [M.MC_BLOCK, M.MC_BLOCK, 5]
    assert sum(M.mc_blocks(200_000)) == 200_000


def test_check_coherence_memory_does_not_grow_with_the_samples():
    # the 200k-sample n = 3 estimate held 21 MB of draws at once when drawn
    # as one array; block by block its peak is a raw block's fine draws and
    # their coarse sums, 1.5 MiB, whatever the count
    import tracemalloc

    dims = Dimensions(3)
    ref = M.split_evenly(M.Partition((0.5, 0.7)), 2)
    gammas = np.random.default_rng(1).normal(size=(3, 2, dims.d))
    for conditional, frequencies in ((False, gammas), (True, [[1.0, 1.0], [4.0, 4.0]])):
        M.coherence_mc(dims, ref, SeededStream(1, 1), 100, frequencies, conditional)
        tracemalloc.start()
        try:
            M.coherence_mc(dims, ref, SeededStream(2024, 3), 200_000, frequencies, conditional)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cells = ref.fine.size + ref.coarse.size
        assert peak <= M.MC_BLOCK * cells * dims.d * 8 + 2 ** 16, conditional


def test_density_v_is_refinement_limit_of_rn():
    dims = Dimensions(2)
    p = M.Partition((1.0,))
    atoms = np.array([[0.6], [-0.4]])
    positions = np.array([0.2, 0.7])
    target = M.log_density_v(dims, p.total_mass, np.abs(atoms[:, 0]))
    prev = None
    for parts in (5, 25, 125):
        fine = M.split_evenly(p, parts).fine
        edges = fine.edges
        xi = np.zeros((fine.size, dims.d))
        for pos, c in zip(positions, atoms):
            j = int(np.searchsorted(edges, pos) - 1)
            xi[j] += c
        got = M.log_rn_derivative(dims, fine, xi)
        err = abs(got - target) / abs(target)
        if prev is not None:
            assert err < prev
        prev = err
    assert prev <= 1e-2


def test_density_v_domain():
    with pytest.raises(DomainError):
        M.log_density_v(Dimensions(2), 1.0, [-0.5])
