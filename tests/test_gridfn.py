import math
import tracemalloc

import numpy as np
import pytest

from currentlab import gridfn as GF
from currentlab.errors import DomainError


def test_cell_grid_validation():
    with pytest.raises(DomainError):
        GF.CellGrid(np.zeros((3, 1)), np.ones(2))
    g = GF.CellGrid(np.array([[1.0], [-2.0]]), np.ones(2))
    assert g.size == 2 and g.d == 1
    assert np.allclose(g.radii, [1.0, 2.0])


def test_grid_1d_integrates_gaussian():
    g = GF.grid_1d_sqrt(12.0, 400)
    val = float(np.sum(np.exp(-g.nodes[:, 0] ** 2) * g.weights))
    assert val == pytest.approx(math.sqrt(math.pi), rel=1e-13)


def test_grid_1d_sqrt_integrates_singular_density():
    # the square-root-graded grid resolves |x|^(-1/2) near the origin
    g = GF.grid_1d_sqrt(12.0, 400)
    val = float(np.sum(np.abs(g.nodes[:, 0]) ** -0.5
                       * np.exp(-np.abs(g.nodes[:, 0])) * g.weights))
    want = 2.0 * math.gamma(0.5)  # two half-lines of Gamma(1/2) each
    assert val == pytest.approx(want, rel=1e-3)


def test_legendre_rule_is_shared_and_read_only():
    x, w = GF._legendre_rule(24)
    assert GF._legendre_rule(24)[0] is x
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0
    # grids built from the one rule own writable arrays of their own
    grids = [GF.grid_1d_sqrt(3.0, 48), GF.grid_1d_sqrt(3.0, 48), GF.grid_2d_sqrt(3.0, 24, 4)]
    arrays = [a for g in grids for a in (g.nodes, g.weights)]
    assert all(a.flags.writeable for a in arrays)
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:] + [x, w])
    grids[0].nodes[0, 0] = 99.0
    assert grids[1].nodes[0, 0] != 99.0


def _legendre_reference(count: int, nodes: np.ndarray):
    """40-digit Gauss-Legendre nodes and weights near the given ones: two
    Newton steps on P_count from each, with P_count and its derivative by
    the three-term recurrence in mpmath."""
    import mpmath

    xs, ws = [], []
    with mpmath.workdps(40):
        for x0 in nodes:
            x = mpmath.mpf(float(x0))
            for _ in range(2):
                p_prev, p = mpmath.mpf(1), x
                for k in range(2, count + 1):
                    p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
                dp = count * (x * p - p_prev) / (x * x - 1)
                x -= p / dp
            xs.append(x)
            ws.append(2 / ((1 - x * x) * dp * dp))
    return xs, ws


@pytest.mark.parametrize("count", [12, 16, 24, 160, 512])
def test_legendre_rule_matches_40_digit_values(count):
    # the rule is symmetric, so the half x <= 0 is compared; at order 512
    # every fourth node of it, the first included
    x, w = GF._legendre_rule(count)
    x_np, w_np = np.polynomial.legendre.leggauss(count)
    half = slice(0, (count + 1) // 2, max(1, count // 128))
    want_x, want_w = _legendre_reference(count, x[half])

    def errors(got_x, got_w):
        dx = max(abs(float(g - r)) for g, r in zip(got_x[half], want_x))
        dw = max(abs(float((g - r) / r)) for g, r in zip(got_w[half], want_w))
        return dx, dw

    dx, dw = errors(x, w)
    dx_np, dw_np = errors(x_np, w_np)
    # nodes and weights at least as close as numpy's leggauss: the nodes
    # are correctly rounded (roots_legendre alone is up to 1.5e-16 off), the
    # weights read 4.6e-15 against 8.8e-15 at order 12 and 4.6e-13 against
    # 1.5e-11 at order 160
    assert dx <= dx_np
    assert dw <= dw_np
    assert abs(float(np.sum(w)) - 2.0) <= 1e-14


def test_legendre_rule_needs_no_dense_matrix():
    # leggauss eigen-solves a dense count x count companion matrix (2 MB at
    # order 512); the rule holds a few arrays of count values
    tracemalloc.start()
    try:
        GF._legendre_rule.__wrapped__(997)   # past the cache
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.2e6


def test_grid_2d_integrates_gaussian():
    g = GF.grid_2d_sqrt(10.0, 80, 40)
    val = float(np.sum(np.exp(-np.sum(g.nodes ** 2, axis=1)) * g.weights))
    assert val == pytest.approx(math.pi, rel=1e-13)


def test_grid_2d_sqrt_integrates_the_singular_weight():
    # |xi|^(-1/2) e^(-|xi|^2) over the disk of radius 6: pi * lower Gamma(3/4, 36)
    from scipy.special import gamma, gammainc

    want = math.pi * gamma(0.75) * gammainc(0.75, 36.0)
    g = GF.grid_2d_sqrt(6.0, 64, 8)
    r = g.radii
    assert abs(float(np.sum(r ** -0.5 * np.exp(-r * r) * g.weights)) - want) <= 1e-12


def test_tabulate_and_weight_tensor():
    cells = [GF.grid_1d_sqrt(6.0, 40), GF.grid_1d_sqrt(6.0, 48)]
    phi = GF.tabulate(cells, lambda x, y: np.exp(-np.sum(x * x, axis=-1) - np.sum(y * y, axis=-1)))
    assert phi.values.shape == (40, 48)
    assert phi.l == 2
    wt = np.multiply.outer(cells[0].weights, cells[1].weights)
    # total integral of the product Gaussian over both cells
    got = float(np.real(np.sum(wt * phi.values)))
    assert got == pytest.approx(math.pi, rel=1e-3)


def test_scale_values():
    cells = [GF.grid_1d_sqrt(5.0, 6), GF.grid_1d_sqrt(5.0, 4)]
    phi = GF.tabulate(cells, lambda x, y: np.ones((6, 4)))
    f0 = np.arange(6.0)
    f1 = np.arange(4.0)
    out = phi.scale_values([f0, f1])
    assert np.allclose(out.values, np.multiply.outer(f0, f1))
    # original untouched
    assert np.allclose(phi.values, 1.0)


def test_tabulate_single_cell_needs_vectorized_fn():
    grid = GF.grid_1d_sqrt(5.0, 6)
    phi = GF.tabulate([grid], lambda nodes: nodes[:, 0] ** 2)
    assert np.allclose(phi.values, grid.nodes[:, 0] ** 2)
    with pytest.raises(DomainError):
        GF.tabulate([grid], lambda nodes: 1.0)


def test_tabulate_calls_fn_once_on_the_whole_product_grid():
    # a non-separable fn of three cells against a loop over the product nodes
    cells = [GF.grid_2d_sqrt(3.0, 2, 3), GF.grid_1d_sqrt(2.0, 4), GF.grid_2d_sqrt(1.0, 3, 2)]

    def fn(a, b, c):
        return np.cos(a[..., 0] * b[..., 0] + c[..., 1]) * np.exp(-np.sum(a * c, axis=-1) * b[..., 0])

    calls = []
    phi = GF.tabulate(cells, lambda *xs: calls.append([x.shape for x in xs]) or fn(*xs))
    assert calls == [[(6, 1, 1, 2), (1, 4, 1, 1), (1, 1, 6, 2)]]
    assert phi.values.shape == (6, 4, 6)
    want = np.empty((6, 4, 6), dtype=complex)
    for idx in np.ndindex(want.shape):
        a, b, c = (cell.nodes[i] for cell, i in zip(cells, idx))
        want[idx] = math.cos(a[0] * b[0] + c[1]) * math.exp(-float(a @ c) * b[0])
    assert np.allclose(phi.values, want, rtol=1e-14, atol=0.0)


def test_tabulate_rejects_a_wrong_output_shape():
    cells = [GF.grid_1d_sqrt(5.0, 6), GF.grid_1d_sqrt(5.0, 4), GF.grid_2d_sqrt(1.0, 2, 2)]
    for fn in (lambda a, b, c: 1.0,                                   # a scalar
               lambda a, b, c: a[..., 0] * b[..., 0],                 # one cell short
               lambda a, b, c: np.ones((6, 4, 4, 1)),                 # one axis too many
               lambda a, b, c: np.ones((4, 6, 4))):                   # axes swapped
        with pytest.raises(DomainError):
            GF.tabulate(cells, fn)
    # a fn of the first cell alone gives (6, 1) on the (6, 4) grid
    with pytest.raises(DomainError):
        GF.tabulate(cells[:2], lambda a, b: a[..., 0])
