"""Every correctness check of the benchmark accepts a right answer and
rejects a wrong one.

    python3 -m pytest bench/test_checks.py -q
"""

import math
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import checks as C  # noqa: E402
import tracing  # noqa: E402
from currentlab import gridfn, measures as M, process as P, quadrature as Q  # noqa: E402
from currentlab import reps as R  # noqa: E402
from currentlab.specfun import Dimensions  # noqa: E402


def test_reports_reject_a_failed_check():
    ok = SimpleNamespace(check_id="a", residual=1e-13, tolerance=1e-12, passed=True)
    bad = SimpleNamespace(check_id="b", residual=2e-12, tolerance=1e-12, passed=False)
    assert C.check_reports([ok]) == []
    assert C.check_reports([ok, bad])


@pytest.mark.parametrize("n", [2, 3])
def test_cn_rejects_a_scale_of_one_plus_1e6(n):
    want = C.closed_form_cn(n)
    assert C.check_cn(n, want * (1 + 1e-12)) == []
    assert C.check_cn(n, want * (1 + 1e-6))


@pytest.mark.parametrize("n", [2, 3])
def test_kappa_rejects_a_scale_of_one_plus_1e6(n):
    want = -2.0 * math.pi ** (-(n - 1) / 2.0)
    assert C.check_kappa(n, want) == []
    assert C.check_kappa(n, want * (1 + 1e-6))


def _gammas(n, cells, seed=5):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((6, cells, n - 1))
    raw /= np.linalg.norm(raw, axis=-1, keepdims=True)
    return raw * rng.uniform(0.5, 2.5, size=(6, cells, 1))


@pytest.mark.parametrize("n", [2, 3])
def test_marginal_draws_reject_a_five_percent_scale(n):
    part = M.Partition((0.3, 0.55, 0.8))
    draws = P.sample_marginal(Dimensions(n), part, P.SeededStream(3), size=200_000)
    gammas = _gammas(n, 3)
    assert C.check_marginal_draws("program", draws, part.masses, gammas) == []
    assert C.check_marginal_draws("scaled", 1.05 * draws, part.masses, gammas)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_marginal_check_passes_numpy_gamma_sampler(seed):
    """A correct sampler on another random stream passes: Generator.gamma
    in place of the program's Marsaglia-Tsang sampler."""
    rng = np.random.default_rng(seed + 100)
    masses = (0.3, 0.55, 0.8)
    w = rng.gamma(np.asarray(masses) / 2.0, 1.0, size=(200_000, 3))
    draws = np.sqrt(w / 2.0)[:, :, None] * rng.standard_normal((200_000, 3, 2))
    assert C.check_marginal_draws("numpy", draws, masses, _gammas(3, 3, seed)) == []


def test_oracle_draws_reject_a_five_percent_scale():
    lam = 1.3
    draws = P.oracle_n2(lam, P.SeededStream(4), size=200_000)[:, None, None]
    gammas = _gammas(2, 1)
    assert C.check_marginal_draws("oracle", draws, [lam], gammas) == []
    assert C.check_marginal_draws("scaled", 1.05 * draws, [lam], gammas)


@pytest.mark.parametrize("n,cutoff", [(2, 0.05), (3, 0.2)])
def test_jump_counts_reject_a_wrong_intensity(n, cutoff):
    mu = C.poisson_jump_mean(n, 1.0, cutoff)
    rng = np.random.default_rng(6)
    assert C.check_jump_counts("right", rng.poisson(mu, 2000), n, 1.0, cutoff) == []
    assert C.check_jump_counts("wrong", rng.poisson(1.25 * mu, 2000), n, 1.0, cutoff)


def test_poisson_mean_matches_the_program_table():
    dims = Dimensions(2)
    table = P.JumpSizeTable(dims, 0.05, P.default_intensity_scale(dims))
    assert abs(table.total - C.poisson_jump_mean(2, 1.0, 0.05)) < C.TABLE_REL_TOL * table.total


def test_path_totals_reject_doubled_amplitudes():
    dims = Dimensions(2)
    table = P.JumpSizeTable(dims, 0.05, P.default_intensity_scale(dims))
    # sample_process re-runs its truncation quad on every path; draw 2000
    # n = 2 paths from the table directly, as sample_process does
    rng = np.random.default_rng(9)
    counts = rng.poisson(table.total, 2000)
    totals = np.array([[np.sum(table.sample_radii(rng, c) * rng.choice([-1.0, 1.0], c))]
                       for c in counts])
    gammas = np.array([[0.4], [1.0], [1.7]])
    assert C.check_path_totals("right", totals, 2, 1.0, 0.05, gammas) == []
    assert C.check_path_totals("doubled", 2.0 * totals, 2, 1.0, 0.05, gammas)


def test_log_densities_reject_a_relative_error_of_1e8():
    dims, part = Dimensions(3), M.Partition((0.35, 0.8))
    xi = np.array([[0.4, -0.9], [1.3, 0.2]])
    for got, want in ((M.log_mu_alpha_density(dims, part, xi),
                       C.log_mu_density_ref(3, part.masses, xi)),
                      (M.log_rn_derivative(dims, part, xi),
                       C.log_rn_ref(3, part.masses, xi))):
        assert C.check_log_density("program", got, want) == []
        assert C.check_log_density("perturbed", got * (1 + 1e-8), want)


def test_kernel_n2_rejects_the_operator_normalisation():
    """kernel_A / op_kernel = pi at n = 2, so an entry scaled by pi fails."""
    got = Q.kernel_A(Dimensions(2), 0.5, 0.7, -1.3).value
    assert C.check_kernel_n2(0.5, 0.7, -1.3, got) == []
    assert C.check_kernel_n2(0.5, 0.7, -1.3, math.pi * got)
    same = Q.kernel_A(Dimensions(2), 0.5, 1.1, 0.6).value
    assert C.check_kernel_n2(0.5, 1.1, 0.6, same) == []
    assert C.check_kernel_n2(0.5, 1.1, 0.6, math.pi * same)


def test_kernel_n3_rejects_a_scaled_entry():
    dims, lam, t = Dimensions(3), 0.5, 1.6
    xi, xp = np.array([0.5, -0.3]), np.array([0.9, 0.4])
    c, s = math.cos(0.7), math.sin(0.7)
    u = np.array([[c, -s], [s, c]])
    reps = [Q.kernel_A(dims, lam, a, b, cn=C.closed_form_cn(3))
            for a, b in ((xi, xp), (t * xi, xp / t), (xi @ u, xp @ u))]
    vals = [r.value for r in reps]
    err = sum(r.abs_error for r in reps)
    assert C.check_kernel_n3(lam, t, *vals, err=err) == []
    assert C.check_kernel_n3(lam, t, vals[0], math.pi * vals[1], vals[2], err=err)
    assert C.check_kernel_n3(lam, t, vals[0], vals[1], vals[2] * (1 + 1e-6), err=err)


def test_kernel_matrix_entries_reject_a_scaled_entry():
    grid = gridfn.grid_1d_sqrt(40.0, 64)
    mat = R.kernel_matrix(Dimensions(2), 0.5, grid, grid)
    idx = np.random.default_rng(0).integers(0, grid.size, size=(6, 2))
    x, w = grid.nodes[:, 0], grid.weights
    assert C.check_kernel_entries(0.5, x, w, mat, idx) == []
    assert C.check_kernel_entries(0.5, x, w, math.pi * mat, idx)


def test_norm_references_match_the_program():
    dims, lam = Dimensions(2), 0.5
    grid = gridfn.grid_1d_sqrt(60.0, 64)
    phi = gridfn.tabulate([grid], lambda x: np.exp(-np.sum((x - 0.8) ** 2, axis=-1)))
    ref = C.comm_norm_ref(1, lam, grid.nodes, grid.weights, phi.values)
    assert abs(ref / R.comm_norm(dims, lam, phi) - 1.0) < 1e-13
    part = M.Partition((0.5, 0.3))
    prod = gridfn.GridFunction([grid, grid], np.multiply.outer(phi.values, phi.values))
    ref = C.nu_norm_ref(1, part.masses, [(grid.nodes, grid.weights)] * 2, prod.values)
    assert abs(ref / R.nu_norm(dims, part, prod) - 1.0) < 1e-13


def test_norm_involution_and_translation_checks_reject_small_defects():
    assert C.check_norm_preserved("ok", 2.0, 2.0 * (1 + 1e-14)) == []
    assert C.check_norm_preserved("bad", 2.0, 2.0 * (1 + 1e-9))
    assert C.check_involution("ok", 1e-12, 1.0) == []
    assert C.check_involution("bad", 1e-6, 1.0)
    assert C.check_r_translation("ok", 1 + 1j, 1 + 1j, 1.0) == []
    assert C.check_r_translation("bad", 1 + 1j, (1 + 1j) * (1 + 1e-9), 1.0)


def test_self_time_excludes_children():
    spans = [(0, "process.sample_process", None, 0.0, 1.0, "n3"),
             (1, "process.truncation_bound", 0, 0.1, 0.7, None),
             (2, "specfun.bessel_k", 1, 0.2, 0.3, "integer")]
    m = tracing.per_layer_metrics(spans)
    assert m["process.sample_process.us_per_path.n3"][0] == pytest.approx(0.4e6)
    assert m["process.truncation_bound.ms_per_call"][0] == pytest.approx(600.0)
    assert m["specfun.bessel_k.calls.integer"][0] == 1


@pytest.mark.parametrize("rho,z,route", [
    (0.5, 1.0, "half_integer"), (2.5, 20.0, "half_integer"), (0.3, 15.1, "large_arg"),
    (1.0 + 5e-7, 1.0, "integer"), (1.0 + 2e-6, 1.0, "fractional"), (-2.0, 0.5, "integer"),
])
def test_bessel_route_thresholds(rho, z, route):
    assert tracing.bessel_route(rho, z) == route
