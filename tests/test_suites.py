import csv
import json
import math
import time
from collections import OrderedDict

import numpy as np
import pytest

from currentlab import group as G
from currentlab import measures as M
from currentlab import process as P
from currentlab import quadrature as Q
from currentlab import reps as R
from currentlab import specfun
from currentlab import suites as S
from currentlab.errors import DomainError, PointAtInfinityError
from currentlab.specfun import FourierConstant


def test_suite_names_registered():
    assert set(S.SUITE_NAMES) == {
        "specfun", "fourier", "levy-khinchin", "measures", "coherence",
        "invariance", "group", "reps", "spherical", "all",
    }
    for name in S.SUITE_NAMES:
        assert len(S.suite_specs(name)) > 0
    total = sum(len(S.suite_specs(n)) for n in S.SUITE_NAMES if n != "all")
    assert len(S.suite_specs("all")) == total


# (check_id, suite, anchor, tolerance) of every check in registry order: a
# check's registry index seeds its stream, so the order fixes its residual
_REGISTRY_SPEC = [
    ("v-half-exponential", "specfun", "17-7", 1e-12),
    ("v-at-zero", "specfun", "17-7", 1e-14),
    ("k-half-integer", "specfun", "17-5", 1e-10),
    ("k-order-symmetry", "specfun", "17-5", 1e-10),
    ("v-bessel-product", "specfun", "17-7", 1e-10),
    ("v-small-x-asymptotic", "specfun", "17-8", 0.01),
    ("k-reference-agreement", "specfun", "17-5", 1e-12),
    ("marginal-density-total-mass", "specfun", "17-9", 1e-08),
    ("jump-density-closed-form", "specfun", "345-1", 1e-10),
    ("fourier-constant-n2", "fourier", "17-3", 1e-06),
    ("fourier-constant-n3", "fourier", "17-3", 1e-06),
    ("power-pairing-n2", "fourier", "17-4", 1e-05),
    ("power-pairing-n3", "fourier", "17-4", 1e-05),
    ("v-inverse-transform-n2", "fourier", "727-7", 1e-05),
    ("v-inverse-transform-n3", "fourier", "727-7", 1e-05),
    ("levy-khinchin-n2", "levy-khinchin", "345-1", 0.0001),
    ("levy-khinchin-n3", "levy-khinchin", "345-1", 0.0001),
    ("levy-khinchin-constant-n2", "levy-khinchin", "345-1", 1e-06),
    ("levy-khinchin-constant-n3", "levy-khinchin", "345-1", 1e-06),
    ("membership-closure", "group", "1-1", 1e-09),
    ("cocycle-law", "group", "1-4", 1e-09),
    ("action-composition", "group", "1-2", 1e-09),
    ("jacobian-cocycle-relation", "group", "1-5", 1e-06),
    ("distance-cocycle-relation", "group", "1-6", 1e-06),
    ("exchange-identity-matrix", "group", "364", 1e-10),
    ("factor-word-roundtrip", "group", "1-1", 1e-08),
    ("triangular-composition", "group", "1-1", 1e-10),
    ("inversion-squared", "group", "1-1", 1e-15),
    ("density-ratio-consistency", "measures", "17-91", 1e-10),
    ("characteristic-product-form", "measures", "1-12", 1e-12),
    ("nu-transform-single-cell", "measures", "30-1", 1e-12),
    ("refinement-limit-of-density", "measures", "29", 0.01),
    ("characteristic-positive-definite", "measures", "181-1", 1e-10),
    ("characteristic-value", "measures", "181-1", 1e-14),
    ("nu-exact-refinement-n2", "coherence", "30-1", 1e-12),
    ("nu-exact-refinement-n3", "coherence", "30-1", 1e-12),
    ("mu-projection-mc-n2", "coherence", "17-9", 3.0),
    ("mu-projection-mc-n3", "coherence", "17-9", 3.0),
    ("trivial-refinement", "coherence", "30-1", 1e-15),
    ("two-level-chain", "coherence", "30-1", 1e-12),
    ("nu-rotation-invariance", "invariance", "18-33", 1e-12),
    ("nu-scaling-covariance", "invariance", "18-3", 1e-12),
    ("mu-rotation-invariance", "invariance", "17-9", 1e-12),
    ("configuration-rotation-radii", "invariance", "29", 1e-12),
    ("z-letter-unitarity", "reps", "1-14-1", 1e-12),
    ("d-letter-unitarity", "reps", "1-15-1", 1e-12),
    ("current-letter-unitarity", "reps", "17-13", 1e-12),
    ("kernel-involution", "reps", "73-1", 0.001),
    ("kernel-unitarity", "reps", "73-1", 0.001),
    ("inversion-dilation-conjugation", "reps", "363", 0.001),
    ("inversion-translation-exchange", "reps", "364", 0.001),
    ("vacuum-identities-n2", "reps", "342-1", 1e-06),
    ("vacuum-identities-n3", "reps", "342-1", 1e-06),
    ("tensor-embedding-z-commutation", "reps", "31-21", 1e-12),
    ("tensor-embedding-isometry", "reps", "31-21", 1e-12),
    ("dual-transform-translation", "reps", "444", 1e-12),
    ("dual-transform-dilation", "reps", "257", 1e-06),
    ("dual-transform-inversion", "reps", "2561", 0.001),
    ("dual-transform-word", "reps", "2561", 0.001),
    ("special-cocycle-law", "reps", "11-13", 1e-08),
    ("special-limit-continuity", "reps", "11-13", 1e-06),
    ("spherical-n2-l1-g0", "spherical", "1-12", 1e-08),
    ("spherical-n2-l1-g1", "spherical", "1-12", 1e-08),
    ("spherical-n2-l1-g2", "spherical", "1-12", 1e-08),
    ("spherical-n2-l2-g0", "spherical", "1-12", 1e-08),
    ("spherical-n2-l2-g1", "spherical", "1-12", 1e-08),
    ("spherical-n2-l2-g2", "spherical", "1-12", 1e-08),
    ("spherical-n3-l1-g0", "spherical", "1-12", 1e-08),
    ("spherical-n3-l1-g1", "spherical", "1-12", 1e-08),
    ("spherical-n3-l1-g2", "spherical", "1-12", 1e-08),
    ("spherical-n3-l2-g0", "spherical", "1-12", 1e-08),
    ("spherical-n3-l2-g1", "spherical", "1-12", 1e-08),
    ("spherical-n3-l2-g2", "spherical", "1-12", 1e-08),
]


def test_registry_spec_is_pinned_in_order():
    assert [(s.check_id, s.suite, s.anchor, s.tolerance)
            for s in S.suite_specs("all")] == _REGISTRY_SPEC


def test_unknown_suite_raises():
    with pytest.raises(DomainError):
        S.suite_specs("nope")


def test_run_config_validation():
    for trials in (0, -3):
        with pytest.raises(DomainError):
            S.RunConfig(trials=trials)
    with pytest.raises(DomainError):
        S.RunConfig(format="yaml")
    with pytest.raises(DomainError, match="positive"):
        S.RunConfig(tolerances={"kernel-involution": -1.0})
    # a tolerance for a check that does not exist (a typo of
    # kernel-involution) would be silently ignored
    with pytest.raises(DomainError, match="'kernel-involuton'"):
        S.RunConfig(tolerances={"kernel-involuton": 1e-9})


def test_run_suite_rejects_check_ids_that_name_no_check_of_the_suite():
    # a stale id would otherwise run nothing and pass
    cfg = S.RunConfig(workers=1)
    for suite, ids in (("reps", ("no-such-check",)),
                       ("reps", ("kernel-involution", "v-at-zero")),
                       ("all", ("kernel-involuton",))):
        with pytest.raises(DomainError, match="no check"):
            S.run_suite(cfg, suite, ids)
    assert [r.check_id for r in S.run_suite(cfg, "specfun", ("v-at-zero",))] == ["v-at-zero"]


def test_run_suite_reports_and_determinism():
    cfg = S.RunConfig(workers=2)
    a = S.run_suite(cfg, "measures")
    b = S.run_suite(cfg, "measures")
    assert [r.check_id for r in a] == [r.check_id for r in b]
    assert [r.residual for r in a] == [r.residual for r in b]
    for r in a:
        assert r.passed
        assert r.runtime_ms >= 0.0
        assert r.paper_anchor


def test_tolerance_override_can_fail_a_check():
    cfg = S.RunConfig(tolerances={"density-ratio-consistency": 1e-300})
    reports = {r.check_id: r for r in S.run_suite(cfg, "measures")}
    r = reports["density-ratio-consistency"]
    assert r.tolerance == 1e-300
    assert not r.passed


def test_serial_matches_threaded():
    a = S.run_suite(S.RunConfig(workers=1), "invariance")
    b = S.run_suite(S.RunConfig(workers=4), "invariance")
    assert [(r.check_id, r.residual) for r in a] == \
        [(r.check_id, r.residual) for r in b]


def test_report_dict_uses_pass_key():
    r = S.CheckReport("x", "1-1", 0.0, 1e-6, True, 1.0)
    d = r.to_dict()
    assert d["pass"] is True
    assert "passed" not in d


def test_write_report_json_and_csv(tmp_path):
    cfg = S.RunConfig()
    reports = S.run_suite(cfg, "specfun")
    jpath = tmp_path / "out.json"
    S.write_report(S.RunConfig(output_path=str(jpath)), "specfun", reports)
    doc = json.loads(jpath.read_text())
    assert doc["suite"] == "specfun"
    assert doc["all_pass"] is True
    assert len(doc["reports"]) == len(reports)
    assert all("pass" in r for r in doc["reports"])

    cpath = tmp_path / "out.csv"
    S.write_report(S.RunConfig(output_path=str(cpath), format="csv"),
                   "specfun", reports)
    rows = list(csv.DictReader(cpath.read_text().splitlines()))
    assert len(rows) == len(reports)
    assert set(rows[0]) == {"check_id", "paper_anchor", "residual",
                            "tolerance", "pass", "runtime_ms"}


def _run_check(check_id: str, cfg=None) -> float:
    cfg = cfg or S.RunConfig(workers=1)
    (spec,) = [s for s in S.suite_specs("all") if s.check_id == check_id]
    return float(spec.fn(cfg, S.SeededStream(cfg.seed, 0)))


@pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
def test_write_atomic_leaves_no_file_when_a_chunk_fails(tmp_path, error):
    def chunks():
        yield "first\n"
        raise error("disk gone")

    out = tmp_path / "out.txt"
    with pytest.raises(error):
        S.write_atomic(str(out), chunks())
    assert list(tmp_path.iterdir()) == []
    # an existing file is left as it was
    out.write_text("old\n")
    with pytest.raises(error):
        S.write_atomic(str(out), chunks())
    assert list(tmp_path.iterdir()) == [out] and out.read_text() == "old\n"


def test_group_check_raises_on_unexpected_error(monkeypatch):
    # only degenerate draws are skipped; a TypeError is a bug and propagates
    def broken(x, g):
        raise TypeError("broken action")

    monkeypatch.setattr(G, "act", broken)
    with pytest.raises(TypeError):
        _run_check("action-composition")


def test_group_check_retries_are_bounded(monkeypatch):
    def at_infinity(x, g):
        raise PointAtInfinityError("always at infinity")

    monkeypatch.setattr(G, "act", at_infinity)
    t0 = time.perf_counter()
    assert _run_check("action-composition", S.RunConfig(workers=1, trials=50)) == math.inf
    assert time.perf_counter() - t0 < 30.0


def test_group_suite_passes_at_every_seed():
    # the composition laws count error per unit of the rounding the action
    # admits, and the Jacobian is a fourth-order difference whose step
    # follows the distance to the pole, so trials near the pole of an
    # element pass too
    for seed in range(50):
        failed = [(r.check_id, r.residual) for r in
                  S.run_suite(S.RunConfig(seed=seed, workers=1), "group") if not r.passed]
        assert failed == [], seed


def _group_failures() -> list:
    return [r.check_id for r in S.run_suite(S.RunConfig(workers=1), "group") if not r.passed]


def test_group_checks_catch_planted_defects(monkeypatch):
    beta = G.cocycle_beta
    monkeypatch.setattr(G, "cocycle_beta", lambda x, g: beta(x, g) * (1.0 + 1e-6))
    assert "cocycle-law" in _group_failures()
    monkeypatch.undo()

    act = G.act

    def act_with_flipped_g23(x, g):
        # the gamma . g23 term of the denominator with the wrong sign
        m = np.array(g.m if isinstance(g, G.GroupElement) else g)
        n = m.shape[-1] - 1
        m[..., 1:n, n] *= -1.0
        return act(x, m)

    monkeypatch.setattr(G, "act", act_with_flipped_g23)
    assert {"cocycle-law", "action-composition"} <= set(_group_failures())


def test_fourier_constant_check_sees_a_constant_factor(monkeypatch):
    # a c_n off by a constant factor keeps the ratio spread; the check must fail
    true = Q.cached_cn(2)
    monkeypatch.setattr(Q, "cached_cn",
                        lambda n: FourierConstant(n, true.value * (1.0 + 1e-5), true.spread))
    assert _run_check("fourier-constant-n2") > 1e-6


def test_power_pairing_sees_a_scaled_transform(monkeypatch):
    # a calibrated c_n would absorb the factor; the closed form does not
    radial_fourier = Q.radial_fourier

    def scaled(*args, **kwargs):
        rep = radial_fourier(*args, **kwargs)
        return Q.QuadratureReport(rep.value * (1.0 + 1e-6), rep.abs_error, rep.nodes_used)

    monkeypatch.setattr(Q, "radial_fourier", scaled)
    Q.cached_cn.cache_clear()
    try:
        for check_id in ("power-pairing-n2", "power-pairing-n3"):
            assert _run_check(check_id) >= 5e-7
    finally:
        Q.cached_cn.cache_clear()


def test_levy_khinchin_checks_read_the_jump_intensity(monkeypatch):
    # kappa is -2 times the sampler's jump intensity, which a fit would not see
    intensity = P.default_intensity_scale
    monkeypatch.setattr(P, "default_intensity_scale", lambda dims: 1.01 * intensity(dims))
    for check_id in ("levy-khinchin-n2", "levy-khinchin-n3"):
        assert _fails(check_id)


def test_k_order_symmetry_compares_with_the_reference(monkeypatch):
    # scipy kve takes |rho| first, so K(-rho) against K(rho) compares a value
    # with itself; an error in the shared route must still fail the check
    kve = specfun.kve
    monkeypatch.setattr(specfun, "kve", lambda rho, x: kve(rho, x) * (1.0 + 1e-8))
    assert _run_check("k-order-symmetry") > 1e-10


def test_v_bessel_product_sees_a_scaled_k_route(monkeypatch):
    # V comes from the production K route and K from the reference, so an
    # error in the production route no longer cancels in the product
    kve, k1e = specfun.kve, specfun.k1e
    monkeypatch.setattr(specfun, "kve", lambda rho, x: kve(rho, x) * (1.0 + 1e-6))
    monkeypatch.setattr(specfun, "k1e", lambda x: k1e(x) * (1.0 + 1e-6))
    assert _run_check("v-bessel-product") > 5e-7


def _fails(check_id: str) -> bool:
    (spec,) = [s for s in S.suite_specs("all") if s.check_id == check_id]
    return _run_check(check_id) > spec.tolerance


def test_k_reference_agreement_sees_an_order_shift(monkeypatch):
    # the former hand-written route evaluated K at an order off by 1e-6
    scaled_k = specfun._scaled_k
    monkeypatch.setattr(specfun, "_scaled_k",
                        lambda rho, x: scaled_k(np.asarray(rho) - 1e-6, x))
    assert _run_check("k-reference-agreement") > 1e-6


def test_k_reference_agreement_sees_a_shifted_log_route(monkeypatch):
    log_k = specfun.log_bessel_k
    monkeypatch.setattr(specfun, "log_bessel_k", lambda rho, z: log_k(rho, z) + 1e-11)
    assert _fails("k-reference-agreement")


def test_k_reference_agreement_sees_a_scaled_reference(monkeypatch):
    ref = specfun.bessel_k_reference
    monkeypatch.setattr(specfun, "bessel_k_reference",
                        lambda rho, z: ref(rho, z) * (1.0 + 1e-11))
    assert _fails("k-reference-agreement")


_SPHERICAL = [s.check_id for s in S.suite_specs("spherical")]
_SPHERICAL_NU = [c for c in _SPHERICAL if not c.startswith("spherical-n2-l1-")]
_SPHERICAL_MU = [c for c in _SPHERICAL if c.startswith("spherical-n2-l1-")]
_SPHERICAL_SHIFTED = [c for c in _SPHERICAL if not c.endswith("-g0")]


def _spherical_failures() -> list:
    return [r.check_id for r in S.run_suite(S.RunConfig(workers=1), "spherical")
            if not r.passed]


def _shift_nu_density(monkeypatch):
    log_dens = specfun.log_nu_radial_density
    monkeypatch.setattr(specfun, "log_nu_radial_density",
                        lambda dims, lam, r: log_dens(dims, lam, r) + 1e-6)


def _shift_log_v(monkeypatch):
    log_v = specfun.log_v_rho
    monkeypatch.setattr(specfun, "log_v_rho", lambda rho, x: log_v(rho, x) + 1e-6)


def _shift_mu_density(monkeypatch):
    log_dens = specfun.log_marginal_radial_density
    monkeypatch.setattr(specfun, "log_marginal_radial_density",
                        lambda dims, lam, r: log_dens(dims, lam, r) + 1e-6)


def _scale_z_shift(monkeypatch):
    apply_z = R._apply_z
    monkeypatch.setattr(R, "_apply_z",
                        lambda phi, axis, gamma0: apply_z(phi, axis, gamma0 * (1.0 + 1e-4)))


@pytest.mark.parametrize("mutate, caught", [
    (_shift_nu_density, _SPHERICAL_NU),
    (_shift_log_v, _SPHERICAL_NU),
    (_shift_mu_density, _SPHERICAL_MU),
    (_scale_z_shift, _SPHERICAL_SHIFTED),
])
def test_spherical_checks_catch_mutants(monkeypatch, mutate, caught):
    assert _spherical_failures() == []
    mutate(monkeypatch)
    assert _spherical_failures() == caught


def test_nu_cell_law_is_read_by_the_ratio_and_the_spherical_checks(monkeypatch):
    # the one nu cell density feeds the measures' nu density and every
    # L^2(nu_alpha) pairing; the pairings that are ratios cancel the shift
    _shift_nu_density(monkeypatch)
    failed = [r.check_id for r in S.run_suite(S.RunConfig(workers=1), "all") if not r.passed]
    assert failed == ["density-ratio-consistency"] + _SPHERICAL_NU


class _StreamWithoutDraws:
    def __init__(self, seed, stream_id=0):
        self.seed, self.stream_id = seed, stream_id

    @property
    def rng(self):
        raise AssertionError("a check used its random stream")


def test_spherical_checks_draw_nothing(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("a spherical check drew from the sampler")

    monkeypatch.setattr(P, "sample_marginal", no_draws)
    monkeypatch.setattr(S, "SeededStream", _StreamWithoutDraws)
    reports = S.run_suite(S.RunConfig(workers=1), "spherical")
    assert len(reports) == 12
    assert all(r.passed and r.tolerance == 1e-8 for r in reports)


def test_tensor_embedding_isometry_draws_nothing_and_reads_one_value(monkeypatch):
    residuals = {r.residual for seed in (0, 1, 2024) for r in S.run_suite(
        S.RunConfig(seed=seed, workers=1), "reps", check_ids=["tensor-embedding-isometry"])}
    assert len(residuals) == 1 and residuals.pop() <= 1e-13
    monkeypatch.setattr(S, "SeededStream", _StreamWithoutDraws)
    (report,) = S.run_suite(S.RunConfig(workers=1), "reps",
                            check_ids=["tensor-embedding-isometry"])
    assert report.passed and report.tolerance == 1e-12


def test_shifted_cell_exponent_fails_only_tensor_embedding_isometry(monkeypatch):
    # the first cell's kernel factor |u|^(-0.5) becomes |u|^(-0.5 - 1e-6)
    kernel = R._kernel_product
    monkeypatch.setattr(R, "_kernel_product",
                        lambda r, lams: kernel(r, lams + np.eye(len(lams))[0] * 1e-6))
    failed = [r.check_id for r in S.run_suite(S.RunConfig(workers=1), "all") if not r.passed]
    assert failed == ["tensor-embedding-isometry"]


_MC_CHECKS = ["mu-projection-mc-n2", "mu-projection-mc-n3"]


def _scale_marginal_draws(monkeypatch):
    sample = P.sample_marginal
    monkeypatch.setattr(P, "sample_marginal",
                        lambda *args, **kwargs: 1.05 * sample(*args, **kwargs))


def _bias_mixing_shape(monkeypatch):
    monkeypatch.setattr(P, "sample_mixing",
                        lambda lam, stream, size: stream.rng.gamma(1.05 * lam / 2.0, size=size))


def _drop_a_fine_cell(monkeypatch):
    group_sum = M.Refinement.group_sum

    def dropped(self, xi_fine):
        xi_fine = np.array(xi_fine, dtype=float)
        xi_fine[..., 0, :] = 0.0
        return group_sum(self, xi_fine)

    monkeypatch.setattr(M.Refinement, "group_sum", dropped)


@pytest.mark.parametrize("mutate, caught", [
    (None, []),
    # the conditional estimator draws only the mixing variables
    (_scale_marginal_draws, ["mu-projection-mc-n2"]),
    (_bias_mixing_shape, ["mu-projection-mc-n2", "mu-projection-mc-n3"]),
    (_drop_a_fine_cell, ["mu-projection-mc-n2", "mu-projection-mc-n3"]),
])
def test_monte_carlo_checks_catch_mutants(monkeypatch, mutate, caught):
    if mutate is not None:
        mutate(monkeypatch)
    reports = S.run_suite(S.RunConfig(workers=1), "all", check_ids=_MC_CHECKS)
    assert [r.check_id for r in reports if not r.passed] == caught


def test_exact_coherence_checks_draw_no_samples(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("an exact coherence check drew from the sampler")

    monkeypatch.setattr(P, "sample_marginal", no_draws)
    ids = ["nu-exact-refinement-n2", "nu-exact-refinement-n3", "trivial-refinement"]
    reports = S.run_suite(S.RunConfig(workers=1), "coherence", check_ids=ids)
    assert [r.check_id for r in reports] == ids
    assert all(r.passed for r in reports)


def test_kernel_checks_apply_the_kernel_letter_only_as_often_as_they_read(monkeypatch):
    calls = []
    apply_s = R._apply_s

    def counted(*args, **kwargs):
        calls.append(1)
        return apply_s(*args, **kwargs)

    monkeypatch.setattr(R, "_apply_s", counted)
    for check_id, applies in (("kernel-unitarity", 1), ("kernel-involution", 2)):
        calls.clear()
        _run_check(check_id)
        assert len(calls) == applies, check_id


def test_checks_that_draw_nothing_build_no_generator():
    cfg = S.RunConfig(workers=1)
    specs = dict((s.check_id, (i, s)) for i, s in S.indexed_specs("all"))
    for check_id, draws in (("dual-transform-translation", False),
                            ("levy-khinchin-n2", False),
                            ("exchange-identity-matrix", True)):
        index, spec = specs[check_id]
        stream = S.SeededStream(cfg.seed, index)
        spec.fn(cfg, stream)
        assert ("rng" in vars(stream)) == draws, check_id


def _wrong_sign_phase(monkeypatch):
    apply_z = R._apply_z
    monkeypatch.setattr(R, "_apply_z", lambda phi, axis, gamma0: apply_z(phi, axis, -gamma0))


def _wrong_current_amplitude(monkeypatch):
    # |eps_i|^(lam_i/2) becomes |eps_i|^(3 lam_i/4)
    current = R.u_current_apply

    def mutant(dims, partition, letters, phi):
        out = current(dims, partition, letters, phi)
        extra = math.prod(abs(let.epsilon) ** (0.25 * lam)
                          for lam, let in zip(partition.masses, letters))
        return R.GridFunction(out.cells, out.values * extra)

    monkeypatch.setattr(R, "u_current_apply", mutant)


def _wrong_dilation_weight(monkeypatch):
    # the transported weights |eps|^(-d) w become |eps|^(d) w
    apply_d = R._apply_d

    def mutant(dims, lam, phi, axis, eps, u):
        out = apply_d(dims, lam, phi, axis, eps, u)
        cells = list(out.cells)
        c = cells[axis]
        cells[axis] = R.CellGrid(c.nodes, c.weights * abs(eps) ** (2 * dims.d))
        return R.GridFunction(cells, out.values)

    monkeypatch.setattr(R, "_apply_d", mutant)


_EXACT_DUAL = ["dual-transform-translation", "dual-transform-dilation"]


@pytest.mark.parametrize("mutate, caught", [
    (None, []),
    (_wrong_sign_phase, ["dual-transform-translation"]),
    (_wrong_current_amplitude, ["dual-transform-dilation"]),
    (_wrong_dilation_weight, ["dual-transform-dilation"]),
])
def test_exact_dual_transform_checks_catch_mutants_on_the_64_node_grid(
        monkeypatch, mutate, caught):
    specs = {s.check_id: s for s in S.suite_specs("reps")}
    for check_id in _EXACT_DUAL:
        assert specs[check_id].fn.keywords["grid"]().size == 64
    for check_id in ("inversion-translation-exchange", "dual-transform-inversion"):
        assert specs[check_id].fn.keywords["grid"] is S._operator_grid
    if mutate is not None:
        mutate(monkeypatch)
    reports = S.run_suite(S.RunConfig(workers=1), "reps", check_ids=_EXACT_DUAL)
    assert [r.check_id for r in reports if not r.passed] == caught
    for r in reports:
        if r.check_id in caught:
            assert r.residual > 1e3 * r.tolerance, r


def test_word_identity_checks_see_kernel_letters_landing_off_the_pull_back(monkeypatch):
    # a mutant that lands every s on the grid itself, whatever d-parts lie
    # to its left: the words whose s has a dilation to its left leave the grid
    ids = ["kernel-involution", "inversion-dilation-conjugation",
           "inversion-translation-exchange"]
    assert all(r.passed for r in S.run_suite(S.RunConfig(workers=1), "reps", check_ids=ids))
    monkeypatch.setattr(R, "_landing_grids", lambda dims, letters, target: [
        target if isinstance(let, str) else None for let in letters])
    reports = S.run_suite(S.RunConfig(workers=1), "reps", check_ids=ids)
    assert [r.check_id for r in reports if not r.passed] == ids[1:]
    assert all(r.residual > 100 * r.tolerance for r in reports[1:]), reports


def _reversed_letter_order(monkeypatch):
    # the word's letters applied first to last on the grid function
    apply = R.current_word_apply
    monkeypatch.setattr(R, "current_word_apply",
                        lambda dims, part, cells, word, phi: apply(dims, part, cells,
                                                                   word[::-1], phi))


def _inverted_cocycle_weight(monkeypatch):
    # beta^(-lam/2) becomes beta^(+lam/2)
    beta = G.cocycle_beta
    monkeypatch.setattr(G, "cocycle_beta", lambda gamma, g: 1.0 / beta(gamma, g))


@pytest.mark.parametrize("mutate", [None, _reversed_letter_order, _inverted_cocycle_weight])
def test_dual_transform_word_catches_mutants_on_the_64_node_grid(monkeypatch, mutate):
    spec = {s.check_id: s for s in S.suite_specs("reps")}["dual-transform-word"]
    assert spec.fn.keywords["grid"]().size == 64
    assert [len(let) for let in spec.fn.keywords["word"]] == [2, 1]
    if mutate is not None:
        mutate(monkeypatch)
    (report,) = S.run_suite(S.RunConfig(workers=1), "reps", check_ids=["dual-transform-word"])
    if mutate is None:
        assert report.passed
    else:
        assert report.residual > 10 * report.tolerance, report


def _nodes_moved_by_eps(monkeypatch):
    # d(eps) transports the nodes to p u^T eps instead of p u^T / eps
    apply_d = R._apply_d

    def mutant(dims, lam, phi, axis, eps, u):
        out = apply_d(dims, lam, phi, axis, eps, u)
        cells = list(out.cells)
        cells[axis] = R.CellGrid(cells[axis].nodes * eps * eps, cells[axis].weights)
        return R.GridFunction(cells, out.values)

    monkeypatch.setattr(R, "_apply_d", mutant)


@pytest.mark.parametrize("mutate", [None, _nodes_moved_by_eps, _wrong_sign_phase])
def test_special_limit_continuity_catches_mutants(monkeypatch, mutate):
    # the grid route at small lambda is read against special_apply, which
    # the grid letters' mutants do not reach (2.6e-2 and 0.94 against 5e-7)
    if mutate is not None:
        mutate(monkeypatch)
    (report,) = S.run_suite(S.RunConfig(workers=1), "reps",
                            check_ids=["special-limit-continuity"])
    if mutate is None:
        assert report.passed
    else:
        assert report.residual > 1e4 * report.tolerance, report


def test_check_all_builds_each_kernel_block_once(monkeypatch):
    # a cold round builds every distinct (lam, target, source) block once:
    # none is built twice, as it would be after an eviction
    monkeypatch.setattr(R, "_KERNEL_CACHE", OrderedDict())
    block = R._kernel_block_n2
    built = []

    def counted(lam, xi, xi_prime):
        built.append((lam, xi.tobytes(), xi_prime.tobytes()))
        return block(lam, xi, xi_prime)

    monkeypatch.setattr(R, "_kernel_block_n2", counted)
    assert all(r.passed for r in S.run_suite(S.RunConfig(workers=1), "all"))
    assert len(built) == len(set(built)) == 7


@pytest.mark.parametrize("error", [
    lambda k: 1e-3 * k,
    # zero at the fit's |gamma| = 0.5, 1, 2, 4, so kappa does not move: only
    # a residual taken at other |gamma| can see it
    lambda k: 1e-3 * np.sin(math.pi * np.log2(2.0 * k)),
])
def test_levy_khinchin_checks_see_a_gamma_dependent_error(monkeypatch, error):
    # a factor 1 + error(|gamma|) in _levy_rhs must fail both checks, also
    # one that a fitted kappa would not see
    ids = ["levy-khinchin-n2", "levy-khinchin-n3"]
    rhs = Q._levy_rhs
    Q.fit_levy_khinchin_kappa.cache_clear()
    try:
        assert all(r.passed for r in S.run_suite(S.RunConfig(workers=1), "levy-khinchin",
                                                 check_ids=ids))
        monkeypatch.setattr(Q, "_levy_rhs", lambda dims, k: rhs(dims, k)
                            * (1.0 + error(np.asarray(k))))
        Q.fit_levy_khinchin_kappa.cache_clear()
        reports = S.run_suite(S.RunConfig(workers=1), "levy-khinchin", check_ids=ids)
        assert [r.check_id for r in reports if not r.passed] == ids
    finally:
        Q.fit_levy_khinchin_kappa.cache_clear()
