import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import j0, jv

from currentlab import quadrature as Q
from currentlab import reps as R
from currentlab import specfun
from currentlab.errors import DomainError
from currentlab.gridfn import CellGrid
from currentlab.specfun import Dimensions


def test_radial_fourier_gaussian_closed_form():
    # FT of e^{-r^2} in R^d is pi^{d/2} e^{-|xi|^2/4}
    for n in (2, 3):
        dims = Dimensions(n)
        d = dims.d
        prof = Q.RadialProfile(lambda r: np.exp(-r * r), 0.0)
        for s in (0.5, 1.5):
            got = Q.radial_fourier(dims, prof, s).value
            want = math.pi ** (d / 2.0) * math.exp(-s * s / 4.0)
            assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.xfail(strict=True, reason="abs_error leaves out the tail segments' own "
                   "Gauss error (ROADMAP item 16)")
def test_radial_fourier_abs_error_covers_the_gaussian_error():
    # abs_error should bound |T - pi^(d/2) e^(-k^2/4)| for e^(-r^2); at n = 2
    # it reads 2.4e-12 against an error of 4.2e-11 at k = 0.5, and 1.9e-15
    # against 2.0e-12 at k = 1
    prof = Q.RadialProfile(lambda r: np.exp(-r * r), 0.0)
    for k in (0.5, 1.0):
        rep = Q.radial_fourier(Dimensions(2), prof, k)
        assert abs(rep.value - math.sqrt(math.pi) * math.exp(-k * k / 4.0)) <= rep.abs_error


def test_radial_fourier_array_matches_scalar_calls():
    # the scalar call is the one-element case of the blocked array path
    radii = np.array([1e-3, 0.05, 0.3, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0,
                      7.0, 10.0, 0.25, 0.75, 1.25, 4.0, 6.0, 8.0, 0.1])
    for n in (2, 3, 4):
        dims = Dimensions(n)
        prof = Q.RadialProfile(lambda r: np.exp(-r * r), 0.0)
        rep = Q.radial_fourier(dims, prof, radii)
        assert rep.value.shape == rep.abs_error.shape == radii.shape
        scalar = [Q.radial_fourier(dims, prof, k) for k in radii]
        assert all(isinstance(s.value, float) for s in scalar)
        np.testing.assert_allclose(rep.value, [s.value for s in scalar], rtol=0,
                                   atol=1e-14 * math.pi ** (dims.d / 2.0))


def test_radial_fourier_gaussian_closed_form_small_and_large_radii():
    # small k puts the whole Gaussian inside a head thousands of units long
    radii = np.array([1e-3, 0.05, 0.5, 1.5, 10.0])
    for n in (2, 3, 4):
        d = Dimensions(n).d
        prof = Q.RadialProfile(lambda r: np.exp(-r * r), 0.0)
        rep = Q.radial_fourier(Dimensions(n), prof, radii)
        want = math.pi ** (d / 2.0) * np.exp(-radii * radii / 4.0)
        np.testing.assert_allclose(rep.value, want, rtol=0, atol=1e-9)
        assert np.all(np.isfinite(rep.abs_error)) and np.all(rep.abs_error >= 0)


def test_radial_fourier_singular_head():
    # FT of r^(-1/2) e^(-r) on the line: 2 Re integral r^(-1/2) e^(-(1-ik) r) dr
    # = 2 sqrt(pi) (1+k^2)^(-1/4) cos(atan(k)/2); the Gauss-Jacobi panel
    # carries the r^(-1/2)
    radii = np.array([0.1, 0.5, 1.0, 3.0, 10.0])
    prof = Q.RadialProfile(lambda r: r ** -0.5 * np.exp(-r), -0.5)
    rep = Q.radial_fourier(Dimensions(2), prof, radii)
    want = 2.0 * math.sqrt(math.pi) * (1.0 + radii ** 2) ** -0.25 * np.cos(0.5 * np.arctan(radii))
    np.testing.assert_allclose(rep.value, want, rtol=0, atol=1e-9)
    assert np.all(np.isfinite(rep.abs_error)) and np.all(rep.abs_error >= 0)


def test_radial_fourier_domain():
    prof = Q.RadialProfile(lambda r: np.exp(-r * r), 0.0)
    for bad in (np.array([0.5, -1.0]), 0.0, np.array([1.0, 0.0]), math.nan):
        with pytest.raises(DomainError):
            Q.radial_fourier(Dimensions(2), prof, bad)
    with pytest.raises(DomainError):
        Q.radial_fourier(Dimensions(3), Q.RadialProfile(prof.evaluator, -2.0), 1.0)


# profiles whose tails stop early (three) and one whose tail never reaches
# the rounding level (algebraic decay)
_PROFILES = {
    "gaussian": Q.RadialProfile(lambda r: np.exp(-r * r), 0.0),
    "inverse V_1": Q.RadialProfile(lambda r: np.exp(-specfun.log_v_rho(1.0, r)), 0.0),
    "r^-1/2 e^-r": Q.RadialProfile(lambda r: r ** -0.5 * np.exp(-r), -0.5),
    "algebraic": Q.RadialProfile(lambda r: (1.0 + r * r / 4.0) ** -0.75, 0.0),
}
_FULL_RULE = Q._transform_rule(1, 0.0)[3].shape[0]   # tail segments of the rule


def test_early_stopped_tail_matches_the_full_rule(monkeypatch):
    # a first chunk as long as the rule evaluates every segment at once; a
    # tail stopped at the tolerance instead of the rounding level fails this
    radii = np.geomspace(1e-3, 50.0, 25)
    cases = [(n, name) for n in (2, 3, 4) for name in _PROFILES]
    early = [Q.radial_fourier(Dimensions(n), _PROFILES[name], radii).value
             for n, name in cases]
    monkeypatch.setattr(Q, "_FIRST_CHUNK", _FULL_RULE)
    for (n, name), got in zip(cases, early):
        full = Q.radial_fourier(Dimensions(n), _PROFILES[name], radii).value
        np.testing.assert_allclose(got, full, rtol=1e-14, atol=0,
                                   err_msg=f"{name} at n = {n}")


def _tail_runs(monkeypatch):
    # the Gaussian stops on the first chunk up to k = 30, one average per
    # block; 1/V_1 at k = 12..20 and the algebraic profile go on to the whole
    # rule, evaluating the rest of it in one profile call and averaging
    # twice.  Yields each case with the widths averaged, the sizes of the
    # profile calls made and the nodes_used reported.
    gaussian = np.array([0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0])
    widths, seen = [], []
    accelerated_sum = Q._accelerated_sum
    monkeypatch.setattr(Q, "_accelerated_sum",
                        lambda segs: widths.append(segs.shape[1]) or accelerated_sum(segs))

    def counted(name):
        f = _PROFILES[name].evaluator
        return Q.RadialProfile(lambda r: seen.append(r.size) or f(r), 0.0)

    for n in (2, 3, 4):
        dims = Dimensions(n)
        for name, radii, chunks in (
                ("gaussian", gaussian, [Q._FIRST_CHUNK] * (gaussian.size // Q._BLOCK)),
                ("inverse V_1", np.array([12.0, 16.0, 20.0]), [Q._FIRST_CHUNK, _FULL_RULE]),
                ("algebraic", np.array([0.1, 0.5, 1.0, 2.0]), [Q._FIRST_CHUNK, _FULL_RULE])):
            widths.clear()
            seen.clear()
            used = Q.radial_fourier(dims, counted(name), radii).nodes_used
            yield f"{name} at n = {n}", radii, chunks, list(widths), list(seen), used


def test_tail_grows_only_as_far_as_its_error_needs(monkeypatch):
    # the tail takes the first chunk, or the whole rule where the first
    # chunk's average has not reached its stop, and nothing in between
    head = 1.5 * Q._HEAD_PANELS * Q._HEAD_PTS
    for case, radii, chunks, widths, _, used in _tail_runs(monkeypatch):
        assert widths == chunks, case
        assert used == radii.size * (head + chunks[-1] * Q._GAUSS_PTS), case


def test_tail_evaluations_are_the_integrand_values_computed(monkeypatch):
    # every profile value computed is counted once, also in a tail that goes
    # on to the whole rule, and the rest of the rule is one profile call
    for case, _, chunks, _, seen, used in _tail_runs(monkeypatch):
        assert used == sum(seen), case
        assert len(seen) == len(chunks), case


def test_inverse_v_transform_at_tiny_radii():
    # the profile reaches r = 1e11 at k = 1e-8, where log_bessel_k once
    # returned NaN; the transform there is the integral of 1/V_1 (k = 0)
    prof = _PROFILES["inverse V_1"]
    for n in (2, 3):
        d = n - 1
        rep = Q.radial_fourier(Dimensions(n), prof, np.array([1e-8, 1e-6]))
        assert np.all(np.isfinite(rep.value))
        at_zero = (2.0 * math.pi) ** d * math.gamma(d / 2.0 + 1.0) / (
            (4.0 * math.pi) ** (d / 2.0) * math.gamma(1.0))
        np.testing.assert_allclose(rep.value, at_zero, rtol=1e-9)


def test_cn_calibration_spread():
    for n in (2, 3):
        const = Q.cached_cn(n)
        assert const.spread <= 1e-6
        assert const.value > 0


def test_cn_matches_derived_constant():
    # the calibrated constant and the closed form agree with (4 pi)^((n-1)/2)
    for n in (2, 3):
        want = (4.0 * math.pi) ** ((n - 1) / 2.0)
        assert Q.cached_cn(n).value == pytest.approx(want, rel=1e-9)
        assert Q.closed_form_cn(n) == pytest.approx(want, rel=1e-15)


def test_power_pairing_residual(monkeypatch):
    # the outer rule keeps the residual at its floor, far below the 1e-9
    # relative error in c_n that it must still see
    closed_form = Q.closed_form_cn
    for factor in (1.0, 1.0 + 1e-9):
        monkeypatch.setattr(Q, "closed_form_cn", lambda n: closed_form(n) * factor)
        for n, lams in ((2, (0.5,)), (3, (0.5, 1.0, 1.5))):
            dims = Dimensions(n)
            for lam in lams:
                got = Q.power_pairing_residual(dims, lam)
                assert got <= 1e-12 if factor == 1.0 else got > 5e-10
            # the masses of one call share one transform of the Gaussian
            assert Q.power_pairing_residual(dims, lams) == max(
                Q.power_pairing_residual(dims, lam) for lam in lams)
    with pytest.raises(DomainError):
        Q.power_pairing_residual(Dimensions(3), (0.5, 2.0))


def test_fourier_vrho_inverse_positive_and_accurate():
    for n, rho in ((2, 0.5), (3, 1.0)):
        resids = Q.fourier_vrho_inverse_check(Dimensions(n), rho)
        assert len(resids) == 5 and max(resids) <= 1e-13


def test_kernel_A_domain():
    # a mass outside (0, d) and a zero argument are outside the domain at
    # both n, and so are a point of the wrong dimension and n = 4
    for n, lam, xi, xp in ((2, 1.5, 1.0, 1.0), (2, 0.0, 1.0, 1.0), (3, 2.0, [1.0, 0.0], [0.0, 1.0]),
                           (2, 0.5, 0.0, 1.0), (3, 0.5, [0.0, 0.0], [1.0, 0.0]),
                           (3, 0.5, 1.0, [1.0, 0.0]), (4, 0.5, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])):
        with pytest.raises(DomainError):
            Q.kernel_A(Dimensions(n), lam, xi, xp, cn=4.0 * math.pi)


def test_kernel_A_prefactor():
    # kernel_A is pi A_op at n = 2 and 2 pi^2 A_op at n = 3 (c_3 = 4 pi),
    # A_op the kernel_matrix entry on a unit-weight grid; a closed form, it
    # reports no quadrature error
    lam = 0.5

    def a_op(dims, xi, xp):
        one = lambda x: CellGrid(np.atleast_2d(x), np.ones(1))
        return R.kernel_matrix(dims, lam, one(xi), one(xp))[0, 0]

    rep = Q.kernel_A(Dimensions(2), lam, 0.8, 1.3)
    assert rep.value == pytest.approx(math.pi * a_op(Dimensions(2), [0.8], [1.3]), rel=1e-13)
    assert rep.abs_error == 0.0
    xi, xp = np.array([0.5, -0.2]), np.array([1.0, 0.7])
    rep = Q.kernel_A(Dimensions(3), lam, xi, xp, cn=4.0 * math.pi)
    assert rep.value == pytest.approx(2.0 * math.pi ** 2 * a_op(Dimensions(3), xi, xp),
                                      rel=1e-13)
    assert rep.abs_error == 0.0


def test_levy_khinchin_constant_and_residual():
    for n in (2, 3):
        dims = Dimensions(n)
        kappa = Q.fit_levy_khinchin_kappa(n)
        want = -2.0 * math.pi ** (-(n - 1) / 2.0)
        assert kappa == pytest.approx(want, rel=1e-8)
        for g in (0.5, 1.0, 2.0, 4.0):
            assert Q.levy_khinchin_residual(dims, g, kappa) <= 1e-4


def test_levy_khinchin_residual_over_an_array_is_its_scalar_calls():
    # one _levy_rhs call for all |gamma| of the array, on the rule of its
    # largest |gamma|, which is the scalar calls' rule up to |gamma| = 2 pi;
    # a row of the matrix product may round apart from a one-row product,
    # by a few units in the last place
    g = np.array([[0.5, 1.0], [0.0, 4.0]])
    for n in (2, 3):
        kappa = Q.fit_levy_khinchin_kappa(n)
        got = Q.levy_khinchin_residual(Dimensions(n), g, kappa)
        assert got.shape == g.shape and got[1, 0] == 0.0
        want = [[Q.levy_khinchin_residual(Dimensions(n), x, kappa) for x in row] for row in g]
        assert np.abs(got - want).max() <= 4e-15
        assert isinstance(Q.levy_khinchin_residual(Dimensions(n), 2.0, kappa), float)


def test_levy_khinchin_zero_gamma():
    assert Q.levy_khinchin_residual(Dimensions(2), 0.0, _lk_closed_form(2)) == 0.0


def _lk_closed_form(n):
    return -2.0 * math.pi ** (-(n - 1) / 2.0)


def test_levy_khinchin_in_higher_dimensions():
    for n in (4, 5):
        dims = Dimensions(n)
        assert Q.fit_levy_khinchin_kappa(n) == pytest.approx(_lk_closed_form(n), rel=1e-9)
        for g in (0.1, 0.5, 4.0, 10.0):
            assert Q.levy_khinchin_residual(dims, g, _lk_closed_form(n)) <= 1e-9


def test_levy_khinchin_residual_is_at_rounding_level():
    # the angular average minus 1 is summed as a series at small u = |gamma| r,
    # so small |gamma| loses nothing to cancellation
    for n in (2, 3, 4, 5):
        for g in (0.1, 0.5, 4.0, 10.0):
            assert Q.levy_khinchin_residual(Dimensions(n), g, _lk_closed_form(n)) <= 1e-14


def test_levy_khinchin_sees_a_j0_average_beyond_d_2(monkeypatch):
    # J_0 is the sphere average only in R^2; the fit bypasses its cache
    monkeypatch.setattr(Q, "_angular_average_minus_one", lambda d, u: j0(u) - 1.0)
    for n in (4, 5):
        kappa = Q.fit_levy_khinchin_kappa.__wrapped__(n)
        assert abs(kappa / _lk_closed_form(n) - 1.0) > 0.1
        assert Q.levy_khinchin_residual(Dimensions(n), 0.5, _lk_closed_form(n)) > 0.1


def test_levy_rhs_fixed_rule_matches_adaptive_quad():
    for n in (2, 3, 4, 5):
        dims = Dimensions(n)
        d = dims.d
        area = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
        ks = np.array([0.1, 0.5, 4.0, 10.0])
        got = Q._levy_rhs(dims, ks)
        assert got.shape == ks.shape
        for k, value in zip(ks, got):
            def integrand(r):
                avg = math.gamma(d / 2.0) * (2.0 / (k * r)) ** (d / 2.0 - 1.0) \
                    * jv(d / 2.0 - 1.0, k * r)
                return area * r ** (d - 1) * specfun.levy_density_radial(dims, r) * (avg - 1.0)
            want, _ = integrate.quad(integrand, 0.0, 40.0, limit=400,
                                     points=[1e-4, 1e-2, 0.1, 1.0, 5.0])
            assert value == pytest.approx(want, rel=1e-9)
        assert np.ndim(Q._levy_rhs(dims, 0.5)) == 0
    with pytest.raises(DomainError):
        Q._levy_rhs(Dimensions(2), [0.5, 0.0])


def test_radial_rule_integrates_gamma_profiles():
    # integral_0^inf r^a e^(-2r) dr = Gamma(a + 1) / 2^(a + 1); the rule's
    # Gauss-Jacobi panel takes the r^a head
    for a in (-0.3, 0.0, 1.0, 2.5):
        for width in (0.5, 0.1):
            r, w = Q.radial_rule(a, width)
            assert not r.flags.writeable and not w.flags.writeable
            got = float(np.sum(w * r ** a * np.exp(-2.0 * r)))
            assert got == pytest.approx(math.gamma(a + 1.0) / 2.0 ** (a + 1.0), rel=1e-13)
    # the two integrals at k = 0 of the checks, times the sphere area: the
    # squared vacuum profiles (r^(lam-1) at 0) and 1/V_rho, against their
    # closed forms in c_n = (4 pi)^(d/2)
    for n, lam in ((2, 0.5), (3, 1.0)):
        d, rho = n - 1, (n - 1 - lam) / 2.0
        r, w = Q.radial_rule(lam - 1.0, 0.5)
        got = specfun.sphere_area(d) * np.sum(w * np.exp(R._log_k_profile(rho, r)) * r ** (d - 1))
        want = math.gamma(lam / 2.0) * (2.0 * math.pi) ** d / (2.0 * (4.0 * math.pi) ** (d / 2.0))
        assert got == pytest.approx(want, rel=1e-13)
    for n, rho in ((2, 0.5), (3, 1.0)):
        d = n - 1
        r, w = Q.radial_rule(d - 1.0, 0.5)
        inverse_v = np.exp(-specfun.log_v_rho(rho, r))
        got = specfun.sphere_area(d) * np.sum(w * inverse_v * r ** (d - 1))
        want = (2.0 * math.pi) ** d * math.gamma(d / 2.0 + rho) / (
            (4.0 * math.pi) ** (d / 2.0) * math.gamma(rho))
        assert got == pytest.approx(want, rel=1e-13)
