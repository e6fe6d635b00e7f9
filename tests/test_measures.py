import math

import numpy as np
import pytest
from scipy.special import gammaln

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
        ref = M.split_evenly(M.Partition((0.5, 0.3)), 3)
        # the exact check draws gamma, as the Monte Carlo one first does, and nothing else
        stream = SeededStream(2024, 0)
        assert M.coherence_exact(dims, ref, stream) <= 1e-12
        after_gamma = SeededStream(2024, 0).rng
        after_gamma.normal(size=(ref.coarse.size, dims.d))
        assert stream.rng.random() == after_gamma.random()
        for conditional in (False, True):
            dev, se = M.coherence_mc(dims, ref, SeededStream(2024, 0), n_samples=100_000,
                                     conditional=conditional)
            assert dev / se <= 3.0


def test_check_coherence_conditional_averages_the_mean_given_the_mixing():
    # given the fine cells' Gamma(lam/2, 1) mixing variables W, a coarse
    # draw is N(0, (S_c/2) I), S_c the sum of W over the cell, and the mean
    # of cos <xi, gamma> is exp(-sum_c |gamma_c|^2 S_c / 4); the draws come
    # MC_BLOCK at a time, cell after cell, and n spans a full and a short block
    dims = Dimensions(3)
    ref = M.split_evenly(M.Partition((0.5, 0.7)), 2)
    n = 20_000
    dev, se = M.coherence_mc(dims, ref, SeededStream(2024, 8), n_samples=n, conditional=True)
    rng = SeededStream(2024, 8).rng
    gamma_c = rng.normal(size=(2, dims.d))
    values = []
    for size in (M.MC_BLOCK, n - M.MC_BLOCK):
        s = np.zeros((size, 2))
        for j, lam in enumerate(ref.fine.masses):
            s[:, ref.assignment[j]] += rng.gamma(lam / 2.0, 1.0, size=size)
        values.append(np.exp(-(s @ np.sum(gamma_c ** 2, axis=1)) / 4.0))
    values = np.concatenate(values)
    assert se == pytest.approx(values.std() / math.sqrt(n), rel=1e-12)
    assert dev == pytest.approx(
        abs(values.mean() - M.big_psi(ref.coarse, dims, gamma_c)), rel=1e-12)
    # and its standard error is below the raw estimator's on as many draws
    _, raw_se = M.coherence_mc(dims, ref, SeededStream(2024, 8), n_samples=n)
    assert se < raw_se


def test_conditional_coherence_is_the_stacked_formula_bit_for_bit():
    # the mixing variables fill one (size, l) array column by column and the
    # exponential is taken in place; the estimate is the one of stacking the
    # per-cell draws and exponentiating a new array, bit for bit
    from currentlab.process import sample_mixing

    dims = Dimensions(3)
    ref = M.split_evenly(M.Partition((0.5, 0.7)), 3)
    n = M.MC_BLOCK + 123
    got = M.coherence_mc(dims, ref, SeededStream(2024, 5), n_samples=n, conditional=True)
    stream = SeededStream(2024, 5)
    gamma_c = stream.rng.normal(size=(ref.coarse.size, dims.d))
    sq_c = np.einsum("ld,ld->l", gamma_c, gamma_c)
    moments = M.BlockMoments()
    for size in M.mc_blocks(n):
        w = np.stack([sample_mixing(lam, stream, size) for lam in ref.fine.masses], axis=-1)
        moments.add(np.exp(-(ref.group_sum(w[..., None])[..., 0] @ sq_c) / 4.0))
    want = (abs(moments.mean - M.big_psi(ref.coarse, dims, gamma_c)), moments.standard_error)
    assert got == want
    # mu-projection-mc-n3's estimate: four blocks of four fine cells, each
    # block's mixing array 0.52 MB (the stacked route peaked at 1.58 MB)
    import tracemalloc

    ref = M.split_evenly(M.Partition((0.5, 0.7)), 2)
    tracemalloc.start()
    try:
        M.coherence_mc(dims, ref, SeededStream(2024, 3), n_samples=4 * M.MC_BLOCK,
                       conditional=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25e6


def test_check_coherence_se_is_that_of_the_real_part():
    # Psi is real: the standard error is std(cos)/sqrt(N) on the same draws,
    # not the std of the complex phases, which adds in the variance of sin.
    # The draws come MC_BLOCK at a time; n spans a full and a short block
    from currentlab.process import sample_marginal

    dims = Dimensions(3)
    ref = M.split_evenly(M.Partition((0.5, 0.7)), 2)
    n = 20_000
    dev, se = M.coherence_mc(dims, ref, SeededStream(2024, 7), n_samples=n)
    stream = SeededStream(2024, 7)
    gamma_c = stream.rng.normal(scale=1.0, size=(2, dims.d))
    cos = []
    for size in (M.MC_BLOCK, n - M.MC_BLOCK):
        draws = sample_marginal(dims, ref.fine, stream, size=size)
        coarse = np.zeros((size, 2, dims.d))
        for j, i in enumerate(ref.assignment):
            coarse[:, i, :] += draws[:, j, :]
        cos.append(np.cos(np.einsum("nld,ld->n", coarse, gamma_c)))
    cos = np.concatenate(cos)
    assert se == pytest.approx(cos.std() / math.sqrt(n), rel=1e-12)
    assert dev == pytest.approx(abs(cos.mean() - M.big_psi(ref.coarse, dims, gamma_c)), rel=1e-12)


def test_block_moments_match_numpy_over_the_concatenated_values():
    rng = np.random.default_rng(3)
    samples = (rng.standard_normal(50_000) * 3.0 + 7.0,
               # near-constant: sum(x^2) - N mean^2 cancels to nothing here
               1.0 - 1e-9 * rng.random(50_000))
    for values in samples:
        moments = M.BlockMoments()
        for start in range(0, values.size, 12_345):
            moments.add(values[start:start + 12_345])
        assert moments.count == values.size
        assert moments.mean == pytest.approx(values.mean(), rel=1e-12)
        want = values.std() / math.sqrt(values.size)
        assert moments.standard_error == pytest.approx(want, rel=1e-12)
    near = samples[1]
    one_pass = math.sqrt(max(float(np.sum(near ** 2)) / near.size - near.mean() ** 2, 0.0))
    assert abs(one_pass - near.std()) > 0.5 * near.std()


def test_mc_blocks_cover_the_samples():
    assert M.mc_blocks(100) == [100]
    assert M.mc_blocks(2 * M.MC_BLOCK + 5) == [M.MC_BLOCK, M.MC_BLOCK, 5]
    assert sum(M.mc_blocks(200_000)) == 200_000


def test_check_coherence_memory_does_not_grow_with_the_samples():
    # the 200k-sample n = 3 estimate held 21 MB of draws at once when drawn
    # as one array
    import tracemalloc

    dims = Dimensions(3)
    ref = M.split_evenly(M.Partition((0.5, 0.7)), 2)
    for conditional in (False, True):
        M.coherence_mc(dims, ref, SeededStream(1, 1), n_samples=100, conditional=conditional)
        tracemalloc.start()
        try:
            M.coherence_mc(dims, ref, SeededStream(2024, 3), n_samples=200_000,
                           conditional=conditional)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6


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
