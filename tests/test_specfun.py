import math

import numpy as np
import pytest
from scipy import integrate

from currentlab import specfun
from currentlab.errors import DomainError
from currentlab.specfun import Dimensions


def test_bessel_k_half_integer_values():
    # closed forms at order 1/2 and 3/2
    want = math.sqrt(math.pi / 4.0) * math.exp(-2.0)
    assert specfun.bessel_k(0.5, 1.0) == pytest.approx(want, rel=1e-12)
    assert specfun.bessel_k(1.5, 1.0) == pytest.approx(want * 1.5, rel=1e-12)


def test_bessel_k_order_symmetry():
    for rho in (0.3, 0.8, 2.4):
        for x in (0.1, 1.5, 6.0):
            assert specfun.bessel_k(rho, x) == pytest.approx(
                specfun.bessel_k(-rho, x), rel=1e-12)


def test_bessel_k_domain_error():
    with pytest.raises(DomainError):
        specfun.bessel_k(0.5, 0.0)
    with pytest.raises(DomainError):
        specfun.bessel_k(0.5, -1.0)


# every boundary of the former hand-written K routes: integer orders +- 1e-6,
# half-integer orders +- 1e-9, and 2z = 30 +- 1e-3
_BOUNDARY_ORDERS = ([m + e for m in range(4) for e in (-1e-6, 0.0, 1e-6)]
                    + [m + 0.5 + e for m in range(3) for e in (-1e-9, 0.0, 1e-9)])
_BOUNDARY_Z = (1e-4, 1e-2, 0.5, 2.0, 15.0 - 5e-4, 15.0 + 5e-4, 40.0)


def test_bessel_k_scipy_cross_check():
    # the scalar case of the production route against the independent
    # trapezoid-rule reference
    rho, z = np.meshgrid(_BOUNDARY_ORDERS, _BOUNDARY_Z, indexing="ij")
    want = specfun.bessel_k_reference(rho, z)
    assert want.shape == rho.shape
    for r, zz, w in zip(rho.flat, z.flat, want.flat):
        assert specfun.bessel_k(r, zz) == pytest.approx(w, rel=1e-12)


def test_bessel_k_reference_matches_mpmath():
    # mpmath at 30 digits is the oracle of the reference route
    import mpmath

    orders = [m + e for m in range(6) for e in (-1e-6, 0.0, 1e-6)]
    orders += [m + 0.5 + e for m in range(5) for e in (-1e-9, 0.0, 1e-9)]
    orders += [-0.3, -1.0, -2.5 - 1e-9, -4.0 + 1e-6, -5.0]
    zs = list(np.geomspace(1e-6, 150.0, 17)) + [15.0 - 5e-4, 15.0 + 5e-4]
    rho, z = np.meshgrid(orders, zs, indexing="ij")
    got = specfun.bessel_k_reference(rho, z)
    with mpmath.workdps(30):
        want = np.array([float(mpmath.besselk(r, 2 * mpmath.mpf(float(zz))))
                         for r, zz in zip(rho.flat, z.flat)]).reshape(rho.shape)
    assert np.max(np.abs(got - want) / want) <= 1e-14
    # a scalar pair gives a float
    assert isinstance(specfun.bessel_k_reference(0.5, 1.0), float)
    with pytest.raises(DomainError):
        specfun.bessel_k_reference([0.5, 1.0], [1.0, 0.0])


def _bessel_k_reference_one_shot(rho, z):
    """bessel_k_reference's rule with its (points x nodes) table built in
    one piece."""
    rho, z = np.broadcast_arrays(np.asarray(rho, dtype=float), np.asarray(z, dtype=float))
    r = np.abs(rho).ravel()
    x = 2.0 * z.ravel()
    h = np.minimum(0.05, 0.6 / np.sqrt(x))
    left_out = math.log(1e18) + 0.5 * np.log1p(x)
    t_max = np.arccosh(1.0 + left_out / x)
    for _ in range(6):
        t_max = np.arccosh(1.0 + (left_out + r * t_max) / x)
    steps = np.ceil(t_max / h).astype(int)
    k = np.arange(1, steps.max(initial=0) + 1)
    inside = k <= steps[:, None]
    t = h[:, None] * np.where(inside, k, 0)
    f = np.exp(-2.0 * x[:, None] * np.sinh(0.5 * t) ** 2) * np.cosh(r[:, None] * t)
    scaled = h * (0.5 + np.sum(np.where(inside, f, 0.0), axis=1))
    return (scaled * np.exp(-x)).reshape(z.shape)


def test_bessel_k_reference_blocks_are_the_one_shot_rule(monkeypatch):
    # the mpmath test's 722 points: far more values than one block holds,
    # and every point's sum bit for bit the one-shot table's
    orders = [m + e for m in range(6) for e in (-1e-6, 0.0, 1e-6)]
    orders += [m + 0.5 + e for m in range(5) for e in (-1e-9, 0.0, 1e-9)]
    orders += [-0.3, -1.0, -2.5 - 1e-9, -4.0 + 1e-6, -5.0]
    zs = list(np.geomspace(1e-6, 150.0, 17)) + [15.0 - 5e-4, 15.0 + 5e-4]
    rho, z = np.meshgrid(orders, zs, indexing="ij")
    assert rho.size == 722
    got = specfun.bessel_k_reference(rho, z)
    assert np.array_equal(got, _bessel_k_reference_one_shot(rho, z))
    # the same on random points, with blocks of one row each
    rng = np.random.default_rng(11)
    rho, z = rng.uniform(-5.0, 5.0, 300), np.exp(rng.uniform(-13.8, 5.0, 300))
    monkeypatch.setattr(specfun, "REFERENCE_BLOCK_VALUES", 1)
    assert np.array_equal(specfun.bessel_k_reference(rho, z),
                          _bessel_k_reference_one_shot(rho, z))


def test_log_bessel_k_beyond_the_kve_range():
    # kve returns NaN from 2z = 2^30 (z = 5.4e8) on; the large-argument
    # expansion takes over there, on either side of which the values agree
    # with mpmath at 30 digits to the rounding of log K itself
    mpmath = pytest.importorskip("mpmath")
    orders = (0.0, 0.5, 1.0, 1.7)
    zs = (1e8, 5.4e8, 1e9, 1e12)
    got = [specfun.log_bessel_k(r, np.array(zs)) for r in orders]
    with mpmath.workdps(30):
        want = [[float(mpmath.log(mpmath.besselk(r, 2 * mpmath.mpf(zz)))) for zz in zs]
                for r in orders]
    np.testing.assert_allclose(got, want, rtol=4e-16, atol=0)
    # a scalar and an array mixing both ranges
    assert specfun.log_bessel_k(0.5, 1e9) == got[1][2]
    mixed = specfun.log_bessel_k(1.0, np.array([0.3, 1e12]))
    assert mixed[1] == got[2][3] and mixed[0] == specfun.log_bessel_k(1.0, 0.3)
    with pytest.raises(DomainError):
        specfun.log_bessel_k(0.5, np.array([1e9, 0.0]))


_ORDER_ROUTE_ORDERS = [m + e for m in (-1.0, 0.0, 1.0) for e in (-1e-6, 0.0, 1e-6)]


def test_log_bessel_k_order_routes_against_the_reference():
    # orders 0 and +-1 go to k0e/k1e and their neighbours to kve: both sides
    # of each switch against the trapezoid-rule reference, 2z = 30 +- 1e-3
    # included
    rho, z = np.meshgrid(_ORDER_ROUTE_ORDERS, _BOUNDARY_Z, indexing="ij")
    want = specfun.bessel_k_reference(rho, z)
    got = np.exp(specfun.log_bessel_k(rho, z))
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
    for r, row in zip(_ORDER_ROUTE_ORDERS, got):
        assert np.array_equal(np.exp(specfun.log_bessel_k(r, np.array(_BOUNDARY_Z))), row)


def test_log_bessel_k_order_routes_at_large_argument():
    # at 2z = 2^30 and 2^31 kve returns NaN while k0e and k1e do not; both
    # agree with the large-argument expansion (DLMF 10.40.2)
    from scipy.special import kve

    x = np.array([2.0 ** 30, 2.0 ** 31])
    assert np.isnan(kve(0.5, x)).all()
    for rho in (0.0, 1.0, -1.0):
        series = 1.0 + (4.0 * rho * rho - 1.0) / (8.0 * x)
        want = 0.5 * np.log(0.5 * math.pi / x) - x + np.log(series)
        np.testing.assert_allclose(specfun.log_bessel_k(rho, x / 2.0), want, rtol=4e-16, atol=0)
        # the scaled value itself, which the log's -x hides below 1e-8
        np.testing.assert_allclose(specfun._scaled_k(rho, x), np.sqrt(0.5 * math.pi / x) * series,
                                   rtol=1e-14, atol=0)


def test_log_bessel_k_routes_per_element():
    # one call over orders (0, 1, 0.7) gives the bits of one call per order
    z = np.array([1e-3, 0.4, 3.0, 15.0 + 5e-4, 80.0])
    orders = np.array([0.0, 1.0, 0.7])
    got = specfun.log_bessel_k(orders[:, None], z)
    for row, rho in zip(got, orders):
        assert np.array_equal(row, specfun.log_bessel_k(float(rho), z))
    assert np.array_equal(specfun.log_bessel_k(orders, z[:3]),
                          [specfun.log_bessel_k(float(a), b) for a, b in zip(orders, z[:3])])
    # the domain error holds on every route
    for rho in (0.0, 1.0, -1.0, 0.7, orders):
        for bad in (0.0, -1.0):
            with pytest.raises(DomainError):
                specfun.log_bessel_k(rho, np.array([0.5, 1.0, bad]))


def test_v_rho_half_is_exponential():
    for x in np.linspace(0.0, 5.0, 26):
        assert specfun.v_rho(0.5, float(x)) == pytest.approx(
            math.exp(2.0 * x), rel=1e-12)


def test_v_rho_at_zero_is_one():
    for rho in (0.5, 1.0, 2.0, 3.5):
        assert specfun.v_rho(rho, 0.0) == 1.0


def test_v_rho_bessel_product_identity():
    for rho in (0.5, 0.75, 1.0, 2.0):
        for x in (0.1, 1.0, 3.0):
            prod = (specfun.v_rho(rho, x) * 2.0 / math.gamma(rho)
                    * x ** rho * specfun.bessel_k(rho, x))
            assert prod == pytest.approx(1.0, abs=1e-10)


def test_v_rho_domain_errors():
    with pytest.raises(DomainError):
        specfun.v_rho(0.0, 1.0)
    with pytest.raises(DomainError):
        specfun.v_rho(0.5, -0.1)


def test_v_rho_asymptotic_branches():
    # the relative error against V - 1 shrinks with x for every branch
    for rho in (0.5, 1.0, 2.0):
        errs = []
        for x in (1e-2, 1e-3):
            exact = specfun.v_rho(rho, x)
            approx = specfun.v_rho_asymptotic(rho, x)
            errs.append(abs(exact - approx) / abs(exact - 1.0))
        assert errs[1] < errs[0]
        assert errs[1] <= 1e-2


def test_v_rho_asymptotic_small_rho_value():
    x = 0.01
    want = 1.0 + x ** 1.5 * math.gamma(0.25) / math.gamma(1.75)
    assert specfun.v_rho_asymptotic(0.75, x) == pytest.approx(want, rel=1e-12)
    # the next correction is O(x^2), so agreement is to a few parts in 1e4
    assert specfun.v_rho(0.75, x) == pytest.approx(want, abs=5e-4)


def test_log_v_rho_array():
    xs = np.array([0.0, 0.05, 1.0, 10.0, 80.0])
    for rho in (0.5, 0.97, 2.3):
        got = specfun.log_v_rho(rho, xs)
        assert got.shape == xs.shape
        assert got[0] == 0.0
        assert np.all(np.isfinite(got))
        # log V = log Gamma(rho) - log 2 - rho log x - log K_rho(2x)
        want = (math.lgamma(rho) - math.log(2.0) - rho * np.log(xs[1:])
                - np.log(specfun.bessel_k_reference(rho, xs[1:])))
        assert got[1:] == pytest.approx(want, rel=1e-12)
    with pytest.raises(DomainError):
        specfun.log_v_rho(0.5, np.array([1.0, -0.1]))


def test_levy_density_radial_and_rotation():
    dims = Dimensions(2)
    want = 0.5 ** -0.5 * math.sqrt(math.pi / 2.0) * math.exp(-1.0)
    assert specfun.levy_density_radial(dims, 0.5) == pytest.approx(want, rel=1e-12)
    # g(xi) depends on |xi| alone; at n = 3 it is |xi|^-1 K_1(2|xi|)
    dims3 = Dimensions(3)
    xi = np.array([0.3, -0.4])
    u = np.array([[0.0, 1.0], [-1.0, 0.0]])
    r = float(np.linalg.norm(xi))
    assert np.linalg.norm(xi @ u) == r
    assert specfun.levy_density_radial(dims3, r) == pytest.approx(
        specfun.bessel_k_reference(1.0, r) / r, rel=1e-13)
    # monotone decay
    assert specfun.levy_density_radial(dims, 2.0) < specfun.levy_density_radial(dims, 0.1)


def test_marginal_radial_density_normalization():
    for n, lam in ((2, 1.0), (3, 0.7)):
        dims = Dimensions(n)
        d = dims.d
        area = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
        val, _ = integrate.quad(
            lambda r: area * r ** (d - 1)
            * math.exp(specfun.log_marginal_radial_density(dims, lam, r)),
            0.0, 40.0, limit=300, points=[1e-4, 0.01, 0.1, 1.0, 5.0])
        assert val == pytest.approx(1.0, abs=1e-8)


def test_marginal_radial_density_domain():
    for lam in (-0.5, 0.0):
        with pytest.raises(DomainError):
            specfun.log_marginal_radial_density(Dimensions(2), lam, np.array([0.5]))
    with pytest.raises(DomainError):
        specfun.log_marginal_radial_density(Dimensions(2), 1.0, np.array([0.5, 0.0]))
    with pytest.raises(DomainError):
        specfun.log_marginal_radial_density(Dimensions(3), 0.7, 0.0)


def test_sphere_area():
    for d, want in ((1, 2.0), (2, 2.0 * math.pi), (3, 4.0 * math.pi), (4, 2.0 * math.pi ** 2)):
        assert specfun.sphere_area(d) == pytest.approx(want, rel=1e-15)


def test_cell_laws_over_arrays_of_masses():
    # one call over an array of masses against one call per mass
    r = np.array([[0.05, 0.7, 2.0, 9.0], [0.3, 1.1, 4.0, 25.0]])
    for dims, lams in ((Dimensions(2), np.array([0.1, 0.5, 0.95])),
                       (Dimensions(3), np.array([0.3, 1.0, 1.7]))):
        laws = (specfun.log_marginal_radial_density, specfun.log_nu_radial_density,
                specfun.log_cell_ratio)
        for law in laws:
            got = law(dims, lams[:, None, None], r)
            assert got.shape == (3,) + r.shape
            for k, lam in enumerate(lams):
                assert np.array_equal(got[k], law(dims, float(lam), r))
            # a mass per radius
            assert np.array_equal(law(dims, lams, r[0, :3]),
                                  [law(dims, float(a), b) for a, b in zip(lams, r[0, :3])])
        rhos = (dims.d - lams) / 2.0
        assert np.array_equal(specfun.log_v_rho(rhos[:, None], r[0]),
                              [specfun.log_v_rho(float(rho), r[0]) for rho in rhos])
    with pytest.raises(DomainError):
        specfun.log_nu_radial_density(Dimensions(2), np.array([0.5, 1.0]), 1.0)
    with pytest.raises(DomainError):
        specfun.log_marginal_radial_density(Dimensions(2), np.array([0.5, 0.0]), 1.0)
    with pytest.raises(DomainError):
        specfun.log_v_rho(np.array([0.5, -0.1]), 1.0)


def test_nu_radial_density_and_cell_ratio():
    dims = Dimensions(3)
    r = np.array([0.2, 1.0, 3.5])
    for lam in (0.5, 1.3):
        nu = specfun.log_nu_radial_density(dims, lam, r)
        # the cell ratio is the nu law over the mu law
        ratio = nu - specfun.log_marginal_radial_density(dims, lam, r)
        assert np.allclose(specfun.log_cell_ratio(dims, lam, r), ratio, rtol=0, atol=1e-12)
        assert specfun.log_cell_ratio(dims, lam, 0.0) == pytest.approx(-lam * math.log(2.0))
    for lam in (0.0, 2.0, 2.5):
        with pytest.raises(DomainError):
            specfun.log_nu_radial_density(dims, lam, r)
    with pytest.raises(DomainError):
        specfun.log_nu_radial_density(dims, 0.5, np.array([1.0, 0.0]))
