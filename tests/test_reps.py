import math
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest

from currentlab import gridfn as GF
from currentlab import group as G
from currentlab import measures as M
from currentlab import quadrature as Q
from currentlab import reps as R
from currentlab import specfun
from currentlab import suites as S
from currentlab.errors import DomainError, PointAtInfinityError
from currentlab.gridfn import CellGrid, grid_1d_sqrt, tabulate
from currentlab.specfun import Dimensions

D2 = Dimensions(2)
D3 = Dimensions(3)
LAM = 0.5


def grid64():
    return grid_1d_sqrt(25.0, 64)


def gauss(g):
    return np.exp(-np.sum(g * g, axis=-1))


def bump(grid):
    return tabulate([grid], lambda xi: np.exp(-np.sum((xi - 0.8) ** 2, axis=-1)))


def _unit_grid(nodes):
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    return CellGrid(nodes, np.ones(len(nodes)))


def _mp_kernel_n2(lam, xi, xp):
    # A_op at n = 2 from mpmath quadosc at 20 digits: (2/pi) 2^(-lam/2) times
    # integral_0^inf cos(xi x + 2 xi'/x) x^(lam-2) dx, its part below
    # x0 = sqrt(2 |xi'/xi|) mapped beyond 2/x0 by x -> 2/u
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(20):
        lam, xi, xp = mpmath.mpf(lam), mpmath.mpf(xi), mpmath.mpf(xp)
        x0 = mpmath.sqrt(2 * abs(xp / xi))
        up = mpmath.quadosc(lambda x: mpmath.cos(xi * x + 2 * xp / x) * x ** (lam - 2),
                            [x0, mpmath.inf], omega=abs(xi))
        lo = mpmath.quadosc(lambda u: mpmath.cos(xp * u + 2 * xi / u) * u ** -lam,
                            [2 / x0, mpmath.inf], omega=abs(xp))
        return float(2 / mpmath.pi * 2 ** (-lam / 2) * (up + 2 ** (lam - 1) * lo))


def _mp_kernel_n3(lam, xi, xp):
    # A_op at n = 3 from mpmath quadosc at 20 digits: (2/pi) 2^(-lam/2) times
    # integral_0^inf r^(lam-3) J_0(|r xi + 2 xi'/r|) dr, its part below
    # r0 = sqrt(2 |xi'|/|xi|) mapped beyond 2/r0 by r -> 2/u
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(20):
        lam = mpmath.mpf(lam)
        a = mpmath.mpf(xi[0]) ** 2 + mpmath.mpf(xi[1]) ** 2
        c = mpmath.mpf(xp[0]) ** 2 + mpmath.mpf(xp[1]) ** 2
        b = 4 * (mpmath.mpf(xi[0]) * xp[0] + mpmath.mpf(xi[1]) * xp[1])
        r0 = mpmath.sqrt(2 * mpmath.sqrt(c / a))
        up = mpmath.quadosc(
            lambda r: r ** (lam - 3) * mpmath.besselj(0, mpmath.sqrt(a * r * r + b + 4 * c / (r * r))),
            [r0, mpmath.inf], omega=mpmath.sqrt(a))
        lo = mpmath.quadosc(
            lambda u: u ** (1 - lam) * mpmath.besselj(0, mpmath.sqrt(c * u * u + b + 4 * a / (u * u))),
            [2 / r0, mpmath.inf], omega=mpmath.sqrt(c))
        return float(mpmath.re(2 / mpmath.pi * 2 ** (-lam / 2) * (up + 2 ** (lam - 2) * lo)))


def test_kernel_matrix_matches_pointwise():
    # closed-form entries times the source weight against mpmath, on both
    # signs of xi * xi' (the J and the K branch of the block), at lam = 1/2
    # (elementary Bessel functions) and away from it; at the first point an
    # oscillatory quadrature of the integral misses by 2.6e-6
    for lam, xi, xp in ((0.5, 0.024103904947130075, 0.3381049961377749),
                        (0.5, 0.7, -1.1), (0.3, -2.0, 0.4)):
        got = R.kernel_matrix(D2, lam, _unit_grid([[xi]]), CellGrid(np.array([[xp]]), np.array([0.7])))
        assert got[0, 0] == pytest.approx(0.7 * _mp_kernel_n2(lam, xi, xp), rel=1e-12, abs=0.0)


def test_kernel_matrix_n3_matches_mpmath():
    # the n = 3 closed form against mpmath, on both signs of xi . xi' and
    # across the mass range; the last point is an entry of `rep apply --n 3`'s
    # grid, xi' = -xi, where an oscillatory quadrature misses by 7.6e-4
    nodes = GF.grid_2d_sqrt(25.0, 8, 8).nodes
    cases = [(0.8, [0.5, -0.2], [1.0, 0.7]), (1.5, [0.05, 0.02], [-0.4, 0.6]),
             (0.2, [0.05, 0.02], [-0.4, 0.6]), (0.5, nodes[0], nodes[4])]
    for lam, xi, xp in cases:
        got = R.kernel_matrix(D3, lam, _unit_grid(xi), _unit_grid(xp))[0, 0]
        assert got == pytest.approx(_mp_kernel_n3(lam, xi, xp), rel=1e-12, abs=0.0)


XI3 = np.array([[0.5, -0.2], [1.3, 0.4], [-0.7, 0.9]])
XP3 = np.array([[1.0, 0.7], [-0.4, 0.6], [0.2, -1.5]])
ROT3 = np.array([[math.cos(0.9), -math.sin(0.9)], [math.sin(0.9), math.cos(0.9)]])


def _n3_law_defect(lam=0.8, t=1.7) -> float:
    """Largest relative defect of the kernel_matrix entries at n = 3 under
    A(t xi, xi'/t) = t^(2-lam) A(xi, xi') and A(xi U, xi' U) = A(xi, xi')
    (U a rotation); xi . xi' takes both signs on XI3 x XP3."""
    base = R.kernel_matrix(D3, lam, _unit_grid(XI3), _unit_grid(XP3))
    scaled = R.kernel_matrix(D3, lam, _unit_grid(t * XI3), _unit_grid(XP3 / t))
    rotated = R.kernel_matrix(D3, lam, _unit_grid(XI3 @ ROT3), _unit_grid(XP3 @ ROT3))
    return float(max(np.max(np.abs(scaled / (t ** (2.0 - lam) * base) - 1.0)),
                     np.max(np.abs(rotated / base - 1.0))))


def test_kernel_matrix_n3_scaling_and_rotation(monkeypatch):
    monkeypatch.setattr(R, "_KERNEL_CACHE", OrderedDict())
    assert (XI3 @ XP3.T > 0).any() and (XI3 @ XP3.T < 0).any()
    assert _n3_law_defect() <= 1e-13


def test_kernel_matrix_n3_laws_see_one_scaled_entry(monkeypatch):
    # one rotated entry off by 1 + 1e-6 must fail the law check above
    monkeypatch.setattr(R, "_KERNEL_CACHE", OrderedDict())
    block = R._kernel_block_n3

    def one_entry_off(lam, xi, xi_prime):
        m = block(lam, xi, xi_prime)
        if np.array_equal(xi, XI3 @ ROT3) and np.array_equal(xi_prime, XP3 @ ROT3):
            m[1, 2] *= 1.0 + 1e-6
        return m

    monkeypatch.setattr(R, "_kernel_block_n3", one_entry_off)
    assert _n3_law_defect() > 1e-7


def test_kernel_matrix_domain():
    with pytest.raises(DomainError):
        R.kernel_matrix(Dimensions(4), LAM, _unit_grid([[1.0, 0.0, 0.0]]),
                        _unit_grid([[0.0, 1.0, 0.0]]))


def _reflected_difference(nu, w):
    # J_{-nu}(w) - J_nu(w) by the reflection J_{-nu} = cos(nu pi) J_nu - sin(nu pi) Y_nu,
    # J_nu and Y_nu the real and imaginary parts of H^(1)_nu
    from scipy.special import hankel1

    h = hankel1(nu, w)
    return -2.0 * math.sin(0.5 * math.pi * nu) ** 2 * h.real - math.sin(math.pi * nu) * h.imag


def test_kernel_block_same_sign_term_against_mpmath():
    # same-sign entries carry D = J_{lam-1}(w) - J_{1-lam}(w), taken by the
    # reflection; against mpmath at 30 digits for w in [1e-4, 300], measured
    # against the modulus |H^(1)_nu| = sqrt(J_nu^2 + Y_nu^2) of the
    # oscillation, since D itself passes through zero.  Measured <= 1.6e-15;
    # J_nu and Y_nu from scipy's jv and yv reach 5.3e-14 on these points.
    mpmath = pytest.importorskip("mpmath")
    from scipy.special import hankel1

    xi = (np.geomspace(1e-4, 300.0, 60) / 2.0 ** 1.5) ** 2
    w = 2.0 ** 1.5 * np.sqrt(xi)
    with mpmath.workdps(30):
        for lam in (1e-6, 0.05, 0.3, 0.5 - 1e-6, 0.5, 0.5 + 1e-6, 0.7, 0.95, 1.0 - 1e-6):
            nu = 1.0 - lam
            d = np.array([float(mpmath.besselj(-nu, x) - mpmath.besselj(nu, x)) for x in w])
            # A_op = (2/pi) 2^(-lam/2) |2 xi'/xi|^((lam-1)/2) pi/(2 cos(pi lam/2)) D at xi' = 1
            pre = (2.0 / math.pi) * 2.0 ** (-lam / 2.0) * (2.0 / xi) ** ((lam - 1.0) / 2.0) \
                * math.pi / (2.0 * math.cos(0.5 * math.pi * lam))
            got = R._kernel_block_n2(lam, xi, np.array([1.0]))[:, 0]
            assert np.all(np.abs(got - pre * d) <= 1e-14 * pre * np.abs(hankel1(nu, w)))


def _hankel_kv_terms(lam, w):
    # the Bessel factor of both sign cases from scipy's hankel1 and the
    # scaled K, kve(w) e^(-w), at every lam: the route the block takes away
    # from lam = 1/2
    from scipy.special import kve

    const = math.pi / (2.0 * math.cos(0.5 * math.pi * lam))
    with np.errstate(under="ignore"):
        return np.stack((2.0 * math.sin(0.5 * math.pi * lam) * (kve(lam - 1.0, w) * np.exp(-w)),
                         const * _reflected_difference(1.0 - lam, w)))


def _block_entrywise(lam, xi, xi_prime, terms=R._kernel_terms):
    # the closed form entry by entry, both Bessel terms on the full block
    s = xi[:, None] * xi_prime[None, :]
    w = 2.0 ** 1.5 * np.sqrt(np.abs(s))
    amp = np.abs(2.0 * xi_prime[None, :] / xi[:, None]) ** ((lam - 1.0) / 2.0)
    d = terms(lam, w)
    return (2.0 / math.pi) * 2.0 ** (-lam / 2.0) * amp * np.where(s > 0, d[1], d[0])


def _sign_skewed_cases():
    # grids whose nodes are not sign-symmetric, and distinct pairs with one
    # product (1 * 2 = 4 * 0.5, 1 * 8 = 4 * 2)
    positive = np.geomspace(0.05, 30.0, 12)
    skew = np.concatenate((positive[:7], -positive[3:5], [2.0, -2.0, 2.0]))
    phi = tabulate([CellGrid(skew[:, None], np.ones(skew.size))], gauss)
    moved = R._apply_d(D2, LAM, phi, 0, -0.6, np.eye(1)).cells[0].nodes[:, 0]
    symmetric = grid_1d_sqrt(5.0, 8).nodes[:, 0]
    large = grid_1d_sqrt(60.0, 320).nodes[:, 0]
    other = grid_1d_sqrt(40.0, 96).nodes[:, 0]
    return ((positive, positive), (positive[:5], -positive), (skew, skew),
            (moved, skew), (symmetric, moved), (large, large), (large, other),
            (np.array([1.0, -4.0, 4.0]), np.array([2.0, 0.5, -8.0, -2.0])))


def test_kernel_block_without_sign_symmetry():
    # the block evaluates each Bessel term once per distinct |xi| |xi'|;
    # on every case it must give the entrywise formula's entries bit for bit
    for lam in (LAM, 0.3):
        for xi, xp in _sign_skewed_cases():
            block = R._kernel_block_n2(lam, xi, xp)
            assert block.shape == (xi.size, xp.size)
            assert np.array_equal(block, _block_entrywise(lam, xi, xp))


def test_kernel_block_at_half_is_the_hankel_and_kv_formula():
    # at lam = 1/2 the block takes H^(1)_{1/2} and K_{1/2} in closed form;
    # against the hankel1/kv formula at lam = 1/2 (measured 5e-16 of the
    # largest entry) and, from both sides of the switch, against the
    # hankel1/kv route at lam = 1/2 -+ 1e-9 (measured 9e-9: the entries
    # move by O(1e-9) themselves)
    nodes = S._operator_grid().nodes[:, 0]
    cases = ((nodes, nodes),) + _sign_skewed_cases()
    for xi, xp in cases:
        block = R._kernel_block_n2(0.5, xi, xp)
        scale = np.max(np.abs(block))
        ref = _block_entrywise(0.5, xi, xp, terms=_hankel_kv_terms)
        assert np.max(np.abs(block - ref)) <= 1e-14 * scale
        for lam in (0.5 - 1e-9, 0.5 + 1e-9):
            near = R._kernel_block_n2(lam, xi, xp)
            assert np.array_equal(near, _block_entrywise(lam, xi, xp, terms=_hankel_kv_terms))
            assert np.max(np.abs(near - block)) <= 2e-8 * scale


def test_kernel_block_is_built_without_full_size_temporaries():
    # the 320-node block itself is 0.8 MB; building it entry by entry from
    # per-entry index and value arrays peaked at 6.1 MB
    import tracemalloc

    nodes = grid_1d_sqrt(60.0, 320).nodes[:, 0]
    R._kernel_block_n2(0.3, nodes[:8], nodes[:8])
    tracemalloc.start()
    try:
        R._kernel_block_n2(0.3, nodes, nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def test_kernel_cache_evicts_the_least_recently_used(monkeypatch):
    monkeypatch.setattr(R, "_KERNEL_CACHE", OrderedDict())
    grids = [grid_1d_sqrt(1.0 + k, 2) for k in range(R._KERNEL_CACHE_SIZE + 1)]
    first = [R.kernel_matrix(D2, LAM, g, g) for g in grids[:R._KERNEL_CACHE_SIZE]]
    # a hit makes the oldest entry the most recent
    assert R.kernel_matrix(D2, LAM, grids[0], grids[0]) is first[0]
    R.kernel_matrix(D2, LAM, grids[-1], grids[-1])
    assert len(R._KERNEL_CACHE) == R._KERNEL_CACHE_SIZE
    assert R.kernel_matrix(D2, LAM, grids[0], grids[0]) is first[0]
    # the second grid became the oldest and was evicted: it is built again
    assert R.kernel_matrix(D2, LAM, grids[1], grids[1]) is not first[1]
    assert len(R._KERNEL_CACHE) == R._KERNEL_CACHE_SIZE


def test_z_and_d_letter_unitarity():
    # the unitarity law in L^2(nu_lam) against the commutative-model norm,
    # pi^(d/2) times it, whose ratio is the same to rounding
    grid = grid64()
    phi = bump(grid)
    n0 = R.comm_norm(D2, LAM, phi)
    for letter in (G.TriangularElement(1.0, np.eye(1), [0.7]),
                   G.TriangularElement(2.0, np.eye(1), [0.0]),
                   G.TriangularElement(-0.6, np.eye(1), [1.3])):
        out = R.t_comm_apply(D2, LAM, letter, phi)
        ratio = math.sqrt(R.comm_norm(D2, LAM, out) / n0)
        assert ratio == pytest.approx(1.0, abs=1e-12)
        res = R.unitarity_residual(D2, M.Partition((LAM,)), [grid], [[letter]], phi)
        assert res == pytest.approx(abs(ratio - 1.0), abs=4 * np.finfo(float).eps)


def test_current_group_elementwise_unitarity():
    part = M.Partition((0.5, 0.3))
    cells = [grid64(), grid64()]
    phi = R._product_bump(cells)
    letters = [G.TriangularElement(2.0, np.eye(1), [0.4]),
               G.TriangularElement(-0.7, np.eye(1), [-1.1])]
    out = R.u_current_apply(D2, part, letters, phi)
    assert math.sqrt(R.nu_norm(D2, part, out) / R.nu_norm(D2, part, phi)) \
        == pytest.approx(1.0, abs=1e-12)


def test_current_identity_parts_are_skipped_bit_for_bit(monkeypatch):
    # a letter's identity d-part and zero z-part are not applied; applying
    # them anyway, each cell's d-part with its own mass, gives the same
    # values and nodes
    part = M.Partition((0.5, 0.3))
    phi = R._product_bump([grid64(), grid64()])
    letters = [G.TriangularElement(1.0, np.eye(1), [0.4]),
               G.TriangularElement(-0.7, np.eye(1), [0.0])]
    skipped = R.u_current_apply(D2, part, letters, phi)
    out = phi
    for axis, (lam, let) in enumerate(zip(part.masses, letters)):
        out = R._apply_z(R._apply_d(D2, lam, out, axis, let.epsilon, let.u), axis, let.gamma)
    assert np.array_equal(skipped.values, out.values)
    assert all(np.array_equal(a.nodes, b.nodes) for a, b in zip(skipped.cells, out.cells))
    calls = []
    monkeypatch.setattr(R, "_apply_d", lambda *a: calls.append("d"))
    monkeypatch.setattr(R, "_apply_z", lambda *a: calls.append("z"))
    ident = [G.TriangularElement(1.0, np.eye(1), [0.0])] * 2
    assert np.array_equal(R.u_current_apply(D2, part, ident, phi).values, phi.values)
    assert calls == []


def _dilation(eps):
    return G.TriangularElement(eps, np.eye(1), [0.0])


def test_involution_squares_to_identity_and_preserves_norm():
    assert R.word_identity_residual(D2, LAM, grid64(), ["s", "s"], []) <= 1e-3
    assert R.unitarity_residual(D2, M.Partition((LAM,)), [grid64()], ["s"],
                                bump(grid64())) <= 1e-3


def test_inversion_dilation_conjugation():
    lhs, rhs = ["s", _dilation(2.0)], [_dilation(0.5), "s"]
    assert R.word_identity_residual(D2, LAM, grid64(), lhs, rhs) <= 1e-3
    # s d(2) = d(1/2) s in the group, but s d(2) is not d(2) s
    with pytest.raises(DomainError):
        R.word_identity_residual(D2, LAM, grid64(), lhs, [_dilation(2.0), "s"])


def test_inversion_translation_exchange():
    # reads 4.8e-5 on the operator grid
    lhs, rhs = G.exchange_words([0.7])
    assert R.word_identity_residual(D2, LAM, S._operator_grid(), lhs, rhs) <= 1e-4


def test_kernel_letters_land_on_the_target_pulled_back_through_d_parts():
    # each s lands on the target pulled back through the d-parts between it
    # and the next s to its left; translations do not move it
    grid = grid64()
    d2, z = _dilation(2.0), G.TriangularElement(-0.5, np.eye(1), [0.3])
    landing = R._landing_grids(D2, [d2, "s", z, d2, "s", z], grid)
    assert [g is None for g in landing] == [True, False, True, True, False, True]
    assert np.array_equal(landing[1].nodes, 2.0 * grid.nodes)
    assert np.array_equal(landing[1].weights, 2.0 * grid.weights)
    assert np.array_equal(landing[4].nodes, -grid.nodes)
    assert np.array_equal(landing[4].weights, grid.weights)
    # the word lands on the target: every kernel letter's d-parts carry it back
    out = R.t_comm_apply(D2, LAM, G.GroupWord(2, [d2, "s", _dilation(0.5), "s"]), bump(grid))
    assert np.array_equal(out.cells[0].nodes, grid.nodes)
    assert R._landing_grids(D2, ["s", G.TriangularElement(1.0, np.eye(1), [0.3])],
                            grid)[0] is grid


def _letter_by_letter(lam, letters, phi, target):
    # a second route to T^lam_w on one cell: each letter by its own operator,
    # the last letter first, kernel letters landing as _landing_grids says
    out = phi
    landing = R._landing_grids(D2, letters, target)
    for let, grid in zip(reversed(letters), reversed(landing)):
        if isinstance(let, str):
            out = R._apply_s(D2, lam, out, 0, grid)
            continue
        if R._moves_nodes(let):
            out = R._apply_d(D2, lam, out, 0, let.epsilon, let.u)
        if np.abs(let.gamma).max() > 0:
            out = R._apply_z(out, 0, let.gamma)
    return out


def test_single_cell_and_current_interpreters_agree():
    # t_comm_apply, the one-cell current word, agrees bit for bit and onto
    # the same nodes with the letter-by-letter route, for a word of z, d and
    # s letters with a d letter left of s, and for a group element, which it
    # factors first
    grid = grid64()
    phi = bump(grid)
    word = [G.TriangularElement(2.0, np.eye(1), [0.4]), "s",
            G.TriangularElement(-0.7, np.eye(1), [-1.1]), "s", _dilation(0.5)]
    element = G.GroupWord(2, word).evaluate()
    for g, letters in ((G.GroupWord(2, word), word),
                       (element, G.factor_word(element).letters)):
        one = R.t_comm_apply(D2, 0.5, g, phi, target=grid)
        ref = _letter_by_letter(0.5, list(letters), phi, grid)
        assert np.array_equal(one.cells[0].nodes, ref.cells[0].nodes)
        assert np.array_equal(one.values, ref.values)


def test_vacuum_identities(monkeypatch):
    # at the rounding floor with the closed-form c_n, and they see it off by 1e-9
    for dims, lam in ((D2, 0.5), (D3, 1.0)):
        assert R.vacuum_checks(dims, lam) <= 1e-13
    closed_form = Q.closed_form_cn
    monkeypatch.setattr(Q, "closed_form_cn", lambda n: closed_form(n) * (1.0 + 1e-9))
    for dims, lam in ((D2, 0.5), (D3, 1.0)):
        assert R.vacuum_checks(dims, lam) > 5e-10


def test_tau_embedding_z_commutation():
    cells = [grid_1d_sqrt(10.0, 24), grid_1d_sqrt(10.0, 24)]
    res = R.tau_z_commutation_residual(D2, cells, gauss, [0.4])
    assert res <= 1e-12
    # three cells of d = 2, against the embedded function tabulated node by node
    cells = [GF.grid_2d_sqrt(3.0, 3, 4), GF.grid_2d_sqrt(2.0, 2, 3), GF.grid_2d_sqrt(1.0, 2, 2)]
    tphi = tabulate(cells, R.tau_embed(gauss))
    for idx in np.ndindex(tphi.values.shape):
        total = sum(c.nodes[i] for c, i in zip(cells, idx))
        assert tphi.values[idx] == gauss(total)
    assert R.tau_z_commutation_residual(D3, cells, gauss, [0.4, -0.3]) <= 1e-12


def test_radial_pairing_matches_the_closed_forms():
    import tracemalloc

    # one and two cells, the exponents summing to near 0, d/2 and near d
    for dims in (D2, D3):
        d = dims.d
        for total in (0.05, d / 2.0, d - 0.1):
            want = R.gaussian_pairing(dims, total)
            for lams in (total, (0.4 * total, 0.6 * total)):
                got = R.radial_pairing(dims, lams, gauss, gauss)
                assert abs(got - want) <= 1e-13 * want, (d, lams)
    # e^(-|g|^2) against e^(-2|g|^2): the autocorrelation is
    # (pi/3)^(d/2) e^(-2 r^2/3), so the pairing is
    # (pi/3)^(d/2) |S^(d-1)| Gamma((d-lam)/2) / (2 (2/3)^((d-lam)/2))
    want = (math.pi / 3.0) * 2.0 * math.pi * math.gamma(0.4) / (2.0 * (2.0 / 3.0) ** 0.4)
    got = R.radial_pairing(D3, (0.5, 0.7), gauss, lambda g: gauss(g) ** 2)
    assert abs(got - want) <= 1e-13 * want
    # the radii go through in blocks: f1 never holds the whole 60-radius grid
    tracemalloc.start()
    try:
        R.radial_pairing(D3, (0.5, 0.7), gauss, gauss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1e6
    for lams in (0.0, (1.2, 0.8)):
        with pytest.raises(DomainError):
            R.radial_pairing(D3, lams, gauss, gauss)
    # an integrand that does not return one value per point is refused
    with pytest.raises(DomainError):
        R.radial_pairing(D3, 0.8, lambda g: 1.0, gauss)


def test_gaussian_pairing_matches_radial_quadrature():
    # |S^(d-1)| integral r^(d-1-lam) A(r e_1) dr, with the autocorrelation
    # A(u) of e^(-|g|^2) a product of one-dimensional ones, each by quad
    from scipy import integrate

    def auto_1d(r):
        return integrate.quad(lambda x: math.exp(-(x + r) ** 2 - x * x),
                              -np.inf, np.inf, epsabs=0.0, epsrel=1e-13)[0]

    area = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}
    for d in (1, 2, 3):
        for lam in (0.3, 0.5 * d, d - 0.2):
            radial = sum(integrate.quad(
                lambda r: r ** (d - 1 - lam) * auto_1d(r), a, b,
                epsabs=0.0, epsrel=1e-12, limit=200)[0]
                for a, b in ((0.0, 1.0), (1.0, np.inf)))
            want = area[d] * auto_1d(0.0) ** (d - 1) * radial
            got = R.gaussian_pairing(Dimensions(d + 1), lam)
            assert got == pytest.approx(want, rel=1e-9)
    assert R.gaussian_pairing(D3, 1.2) == pytest.approx(14.4435692524, rel=1e-10)
    for lam in (0.0, 2.0):
        with pytest.raises(DomainError):
            R.gaussian_pairing(D3, lam)


def _cell_letters(eps, shifts):
    return [G.TriangularElement(e, np.eye(1), [g]) for e, g in zip(eps, shifts)]


def test_r_transform_covariances():
    part = M.Partition((0.5, 0.3))
    cells = [S._operator_grid()] * 2
    gamma = np.array([[0.7], [-1.1]])
    z = _cell_letters((1.0, 1.0), (0.4, -0.6))
    d = _cell_letters((2.0, -0.7), (0.0, 0.0))
    assert R.r_intertwining_residual(D2, part, cells, [z], gamma) <= 1e-12
    assert R.r_intertwining_residual(D2, part, cells, [d], gamma) <= 1e-6
    # reads 1.5e-8 on the operator grid
    assert R.r_intertwining_residual(D2, part, cells, ["s"], gamma) <= 1e-7
    # s sends gamma^1 = 0 to infinity
    with pytest.raises(PointAtInfinityError):
        R.r_intertwining_residual(D2, part, cells, ["s"], np.array([[0.0], [-1.1]]))


def _operator_residuals(grid):
    part = M.Partition((0.5, 0.3))
    return (R.word_identity_residual(D2, LAM, grid, *G.exchange_words([0.7])),
            R.r_intertwining_residual(D2, part, [grid, grid], ["s"],
                                      np.array([[0.7], [-1.1]])))


def test_operator_grid_is_converged_in_its_node_count():
    # at R = 80 the residuals are set by the radius: 64 more nodes move
    # each by less than 10 % (at N = 160 they are 2.4 and 230 times larger)
    grid = grid_1d_sqrt(80.0, 192)
    assert np.array_equal(S._operator_grid().nodes, grid.nodes)
    for got, more in zip(_operator_residuals(grid),
                         _operator_residuals(grid_1d_sqrt(80.0, 256))):
        assert abs(got - more) <= 0.1 * more, (got, more)


@pytest.mark.parametrize("scale", [None, 1.0 + 2e-3])
def test_operator_grid_checks_see_a_kernel_constant_off_by_2e_3(monkeypatch, scale):
    # a kernel constant off by 1 + delta reads delta in the exchange (one
    # more s on its right side) and 2 delta in the two-cell inversion
    ids = ["inversion-translation-exchange", "dual-transform-inversion"]
    monkeypatch.setattr(R, "_KERNEL_CACHE", OrderedDict())
    if scale is not None:
        coeff = R._op_coeff
        monkeypatch.setattr(R, "_op_coeff", lambda lam: scale * coeff(lam))
    reports = S.run_suite(S.RunConfig(workers=1), "reps", check_ids=ids)
    assert [r.check_id for r in reports] == ids
    assert all(r.passed == (scale is None) for r in reports), reports


def test_r_intertwining_applies_the_last_letter_first(monkeypatch):
    # z.s acts as U_z U_s: s first.  Applying the letters first to last
    # instead reads the law of s.z against the right side of z.s
    part = M.Partition((0.5, 0.3))
    cells = [grid64(), grid64()]
    gamma = np.array([[0.7], [-1.1]])
    word = [_cell_letters((1.0, 1.0), (0.4, -0.6)), "s"]
    assert R.r_intertwining_residual(D2, part, cells, word, gamma) <= 1e-3
    apply = R.current_word_apply
    monkeypatch.setattr(R, "current_word_apply",
                        lambda dims, p, c, w, phi: apply(dims, p, c, w[::-1], phi))
    assert R.r_intertwining_residual(D2, part, cells, word, gamma) > 1e-2


def test_current_word_is_its_letters_applied_last_first():
    part = M.Partition((0.5, 0.3))
    cells = [grid64(), grid64()]
    phi = R._product_bump(cells)
    z = _cell_letters((1.0, 1.0), (0.4, -0.6))
    d = _cell_letters((2.0, -0.7), (0.3, 0.0))
    got = R.current_word_apply(D2, part, cells, [z, "s", d], phi)
    want = R.u_current_apply(D2, part, z, R.involution_apply(
        D2, part, R.u_current_apply(D2, part, d, phi), targets=cells))
    assert np.array_equal(got.values, want.values)
    assert all(a is b for a, b in zip(got.cells, cells))


def _two_cell_function():
    """A complex function on two grids of different sizes, so that a wrong
    axis cannot go unnoticed."""
    cells = [grid_1d_sqrt(20.0, 40), grid_1d_sqrt(12.0, 26)]
    return tabulate(cells, lambda x, y: np.exp(-(x[..., 0] - 0.8) ** 2 - 0.5 * y[..., 0] ** 2
                                               + 1j * (0.7 * x[..., 0] - 1.3 * y[..., 0])))


def test_apply_s_is_the_kernel_contracted_on_one_axis():
    phi = _two_cell_function()
    for axis, target in ((0, grid_1d_sqrt(15.0, 30)), (1, grid_1d_sqrt(9.0, 34))):
        got = R._apply_s(D2, LAM, phi, axis, target)
        mat = R.kernel_matrix(D2, LAM, target, phi.cells[axis])
        want = np.moveaxis(np.tensordot(mat, phi.values, axes=([1], [axis])), 0, axis)
        assert got.cells[axis] is target and got.cells[1 - axis] is phi.cells[1 - axis]
        np.testing.assert_allclose(got.values, want, rtol=1e-14,
                                   atol=1e-14 * np.abs(want).max())


def _one_product_apply_s(phi, axis, target):
    """The kernel letter as one real matrix product over the whole array,
    contracted axis first."""
    mat = R.kernel_matrix(D2, LAM, target, phi.cells[axis])
    vals = np.ascontiguousarray(np.moveaxis(phi.values, axis, 0))
    flat = mat @ vals.reshape(vals.shape[0], -1).view(float)
    return np.moveaxis(flat.view(complex).reshape(mat.shape[0], *vals.shape[1:]), 0, axis)


@pytest.mark.parametrize("block", [R._S_BLOCK, 64])
def test_blocked_apply_s_is_the_one_product_route_on_every_axis(monkeypatch, block):
    # at 64 values a block, every axis of both functions is split in blocks
    monkeypatch.setattr(R, "_S_BLOCK", block)
    two = _two_cell_function()
    sizes = (12, 10, 14)
    three = tabulate([grid_1d_sqrt(15.0, k) for k in sizes],
                     lambda x, y, z: np.exp(-(x[..., 0] - 0.8) ** 2 - 0.5 * y[..., 0] ** 2
                                            - 0.3 * z[..., 0] ** 2
                                            + 1j * (0.7 * x[..., 0] - z[..., 0])))
    for phi in (two, three):
        for axis in range(phi.l):
            target = grid_1d_sqrt(9.0, 2 * axis + 8)
            got = R._apply_s(D2, LAM, phi, axis, target).values
            want = _one_product_apply_s(phi, axis, target)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), (phi.l, axis)


def test_involution_holds_about_two_full_size_arrays_above_its_input():
    grid = grid_1d_sqrt(60.0, 320)
    part = M.Partition((0.5, 0.3))
    phi = R._product_bump([grid, grid])
    R.involution_apply(D2, part, phi, targets=[grid, grid])  # kernel blocks cached
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = R.involution_apply(D2, part, phi, targets=[grid, grid])
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # the two axes' outputs and one transposed block of at most _S_BLOCK
    # values; a full-size transposed copy or product would not fit
    assert out.values.nbytes == phi.values.nbytes
    assert peak <= 2 * phi.values.nbytes + 16 * R._S_BLOCK + 2 ** 16


def test_kernel_letters_keep_real_values_real():
    # the kernel is real, so s and the involution contract real values into
    # a real output: the complex route's real part to a few ulps, while the
    # complex route's imaginary part stays exactly 0
    grid = grid64()
    part = M.Partition((0.5, 0.3))
    two, one = R._product_bump([grid, grid]), bump(grid)
    for real, apply in ((two, lambda phi: R.involution_apply(D2, part, phi)),
                        (one, lambda phi: R.t_comm_apply(D2, LAM, "s", phi))):
        assert real.values.dtype == np.float64
        got = apply(real).values
        want = apply(GF.GridFunction(real.cells, real.values.astype(complex))).values
        assert got.dtype == np.float64 and want.dtype == np.complex128
        assert not want.imag.any()
        assert np.abs(got - want.real).max() <= 4 * np.finfo(float).eps * np.abs(want).max()
    # a z letter promotes the values to complex through its phase
    z = G.TriangularElement(1.0, np.eye(1), np.array([0.4]))
    assert R.u_current_apply(D2, part, [z, z], two).values.dtype == np.complex128
    assert R.t_comm_apply(D2, LAM, z, one).values.dtype == np.complex128


def test_r_transform_contracts_real_values_without_a_complex_copy():
    grid = grid_1d_sqrt(60.0, 320)
    part = M.Partition((0.5, 0.3))
    phi = R._product_bump([grid, grid])
    cplx = GF.GridFunction(phi.cells, phi.values.astype(complex))
    for gamma in ([[0.7], [-1.1]], [[1.3], [0.4]]):
        want = R.r_transform(D2, part, cplx, gamma)
        assert R.r_transform(D2, part, phi, gamma) == pytest.approx(want, rel=1e-14)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        R.r_transform(D2, part, phi, [[0.7], [-1.1]])
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # the real values promoted to complex would take 2 * phi.values.nbytes
    assert peak <= phi.values.nbytes / 8


def test_product_bump_holds_no_subnormal_values():
    grid = grid_1d_sqrt(60.0, 320)
    vals = R._product_bump([grid, grid]).values
    small = (vals != 0.0) & (np.abs(vals) < np.finfo(float).tiny)
    assert not small.any()
    # the outer product of the cell factors, up to the values set to 0
    one = R._product_bump([grid]).values
    want = np.multiply.outer(one, one)
    assert np.abs(vals - want).max() < np.finfo(float).tiny


def test_r_transform_is_the_scaled_grid_sum():
    phi = _two_cell_function()
    part = M.Partition((0.5, 0.3))
    weights = R._nu_weights(D2, part, phi.cells)
    for gamma in ([[0.7], [-1.1]], [[0.0], [2.5]]):
        factors = [w * np.exp(1j * c.nodes @ g)
                   for w, c, g in zip(weights, phi.cells, np.asarray(gamma))]
        want = complex(phi.scale_values(factors).values.sum())
        assert R.r_transform(D2, part, phi, gamma) == pytest.approx(want, rel=1e-14)


def test_special_cocycle_law():
    ident = np.eye(1)
    g1 = [G.TriangularElement(1.0, ident, [0.6])]
    g2 = [G.TriangularElement(1.7, ident, [-0.3])]
    assert R.special_cocycle_law_residual(D2, g1, g2, grid64()) <= 1e-8


def test_special_representation_is_lambda_zero_limit():
    # T^lambda on the grid tends to the lambda = 0 route, special_apply on
    # the bump's evaluator at the moved nodes, at first order in lambda
    phi = bump(grid64())
    letter = G.TriangularElement(1.01, np.eye(1), [0.5])
    rel = []
    for lam in (1e-3, 1e-4):
        small = R.t_comm_apply(D2, lam, letter, phi)
        zero = R.special_apply(D2, [letter], R.bump_evaluator)(small.cells[0].nodes)
        rel.append(float(np.abs(small.values - zero).max() / np.abs(zero).max()))
    assert rel[1] <= 1e-6
    assert rel[0] / rel[1] == pytest.approx(10.0, rel=1e-3)
    # the grid interpreter has no lambda = 0 route: that is special_apply
    with pytest.raises(DomainError):
        R.t_comm_apply(D2, 0.0, letter, phi)


def test_spherical_reproduce_matches_psi_with_distinct_cell_shifts():
    # the registry shifts every cell alike; here each cell has its own gamma
    for dims, part, gamma in (
            (D2, M.Partition((0.5, 1.5)), [[0.7], [-1.3]]),
            (D3, M.Partition((0.5, 1.5)), [[0.7, -0.2], [-1.3, 0.4]]),
            (D3, M.Partition((2.0, 1.0)), [[0.7, -0.2], [-1.3, 0.4]]),
            (D2, M.Partition((1.0, 0.5)), [[0.4], [2.5]])):
        coeff, target = R.spherical_reproduce(dims, part, gamma)
        assert target == M.big_psi(part, dims, gamma)
        assert abs(coeff - target) <= 1e-8
    # t^(2 lam - 1) is not smooth in t = sqrt|xi| for 2 lam not an integer
    with pytest.raises(DomainError):
        R.spherical_reproduce(D2, M.Partition((0.5, 0.3)), [[0.7], [-1.3]])
    with pytest.raises(DomainError):
        R.spherical_reproduce(Dimensions(4), M.Partition((1.0,)), [[0.7, 0.1, 0.0]])


def test_spherical_reproduce_is_the_product_grid_coefficient():
    # the per-cell factors multiply to <U_z f, f> of L^2(nu_alpha) on the
    # product grid, with f = v^(-1/2) tabulated there from log_rn_derivative
    part = M.Partition((0.5, 0.5))
    gamma = np.array([[0.7], [-1.3]])
    cells = [grid_1d_sqrt(40.0, 128), grid_1d_sqrt(40.0, 128)]
    f = tabulate(cells, lambda a, b: np.exp(
        -0.5 * M.log_rn_derivative(D2, part, np.stack(np.broadcast_arrays(a, b), axis=-2))))
    letters = [G.TriangularElement(1.0, np.eye(1), g) for g in gamma]
    want = R.nu_inner(D2, part, R.u_current_apply(D2, part, letters, f), f)
    coeff, _ = R.spherical_reproduce(D2, part, gamma)
    assert abs(coeff - want) <= 1e-12 * abs(want)


def test_spherical_radial_factors_on_distinct_radii_are_the_per_node_values():
    for dims, lam, grid in ((D2, 0.5, grid_1d_sqrt(40.0, 128)),
                            (D3, 1.0, GF.grid_2d_sqrt(40.0, 64, 32)),
                            (D2, 1.0, grid_1d_sqrt(30.0, 1024)),
                            (D3, 2.0, GF.grid_2d_sqrt(30.0, 128, 32))):
        for radial in (specfun.log_cell_ratio, specfun.log_marginal_radial_density):
            if radial is specfun.log_cell_ratio and lam >= dims.d:
                continue
            assert np.array_equal(R._on_radii(radial, dims, lam, grid),
                                  radial(dims, lam, grid.radii))
        assert np.unique(grid.radii).size <= grid.size // 2


def test_spherical_reproduce_computes_each_distinct_cell_once(monkeypatch):
    cell = R._spherical_cell
    calls = []
    monkeypatch.setattr(R, "_spherical_cell",
                        lambda dims, lam, g: calls.append(lam) or cell(dims, lam, g))
    coeff, _ = R.spherical_reproduce(D2, M.Partition((0.5, 0.5)), [[0.7], [0.7]])
    assert calls == [0.5]
    factor = cell(D2, 0.5, np.array([0.7]))
    assert coeff == complex(1.0) * factor * factor
    calls.clear()
    R.spherical_reproduce(D2, M.Partition((0.5, 0.5, 1.0)), [[0.7], [-0.7], [0.7]])
    assert calls == [0.5, 0.5, 1.0]


def test_spherical_reproduce_at_zero_is_the_vacuum_normalisation():
    for dims, part in ((D2, M.Partition((1.0,))), (D2, M.Partition((0.5, 0.5))),
                       (D3, M.Partition((0.5, 1.0)))):
        coeff, target = R.spherical_reproduce(dims, part, np.zeros((part.size, dims.d)))
        assert target == 1.0
        assert coeff != 1.0 and abs(coeff - 1.0) <= 1e-8
