"""End-to-end acceptance checks.  Each test covers one acceptance criterion
and prints a single PASS/FAIL line with its headline numbers."""

import math
import sys
import time

import numpy as np
from scipy import stats

from currentlab import group as G
from currentlab import measures as M
from currentlab import process as P
from currentlab import quadrature as Q
from currentlab import specfun
from currentlab import suites as S
from currentlab.errors import PointAtInfinityError
from currentlab.process import SeededStream
from currentlab.specfun import Dimensions


def report(tag: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_criterion_01_fourier_constant_calibration():
    t0 = time.perf_counter()
    spreads = {}
    for n in (2, 3):
        const = Q.calibrate_cn(Dimensions(n),
                               lam_grid=(0.5, 1.0, 1.5),
                               xi_grid=(0.25, 0.5, 1.0, 2.0))
        spreads[n] = const.spread
    dt = time.perf_counter() - t0
    ok = all(s <= 1e-6 for s in spreads.values()) and dt <= 30.0
    report("fourier-constant", ok,
           f"spreads n=2:{spreads[2]:.2e} n=3:{spreads[3]:.2e}, {dt:.1f}s")


def test_criterion_02_power_pairing_same_constant():
    worst = 0.0
    for n, lams in ((2, (0.5,)), (3, (0.5, 1.0, 1.5))):
        for lam in lams:
            worst = max(worst, Q.power_pairing_residual(Dimensions(n), lam))
    report("power-pairing", worst <= 1e-5, f"worst residual {worst:.2e}")


def test_criterion_03_levy_khinchin_fitted_constant():
    details = []
    ok = True
    for n in (2, 3):
        kappa = Q.fit_levy_khinchin_kappa(n)
        worst = max(Q.levy_khinchin_residual(Dimensions(n), g, kappa)
                    for g in (0.5, 1.0, 2.0, 4.0))
        details.append(f"n={n} kappa={kappa:.12f} worst={worst:.2e}")
        ok = ok and worst <= 1e-4
    report("levy-khinchin", ok, "; ".join(details))


def test_criterion_04_v_function():
    xs = np.linspace(0.0, 5.0, 101)
    worst_half = max(abs(specfun.v_rho(0.5, float(x)) - math.exp(2.0 * x))
                     / math.exp(2.0 * x) for x in xs)
    worst_asym = 0.0
    for rho in (0.5, 1.0, 2.0):
        x = 1e-3
        v = specfun.v_rho(rho, x)
        va = specfun.v_rho_asymptotic(rho, x)
        worst_asym = max(worst_asym, abs(v - va) / abs(v - 1.0))
    at_zero = all(specfun.v_rho(rho, 0.0) == 1.0 for rho in (0.5, 1.0, 2.0, 3.7))
    ok = worst_half <= 1e-12 and worst_asym <= 1e-2 and at_zero
    report("v-function", ok,
           f"half-order {worst_half:.2e}, asymptotic {worst_asym:.2e}, "
           f"V(0)=1 {at_zero}")


def test_criterion_05_group_laws():
    rng = np.random.default_rng(2024)
    worst_cocycle = worst_jac = worst_dist = 0.0
    done = 0
    while done < 100:
        n = 2 if done % 2 == 0 else 3
        dims = Dimensions(n)
        g1 = G.random_element(dims, rng)
        g2 = G.random_element(dims, rng)
        gam = rng.standard_normal(dims.d)
        y = rng.standard_normal(dims.d)
        try:
            lhs = G.cocycle_beta(gam, g1 @ g2)
            rhs = G.cocycle_beta(gam, g1) * G.cocycle_beta(G.act(gam, g1), g2)
            r1 = G.jacobian_relation_residual(g1, gam)
            r2 = G.distance_relation_residual(g1, gam, y)
        except PointAtInfinityError:
            continue
        worst_cocycle = max(worst_cocycle, abs(lhs - rhs) / abs(rhs))
        worst_jac = max(worst_jac, r1)
        worst_dist = max(worst_dist, r2)
        done += 1
    worst_word = 0.0
    for n in (2, 3):
        for _ in range(20):
            gam = rng.standard_normal(n - 1)
            # the identity's right side passes through the letter d(gamma),
            # whose entries reach 2/|gamma|^2; measure relative to that scale
            _, (d_gamma, *_) = G.exchange_words(gam)
            scale = float(np.abs(d_gamma.matrices()).max())
            worst_word = max(worst_word,
                             G.word_identity_residual(gam) / max(1.0, scale))
    worst_rt = 0.0
    for _ in range(50):
        g = G.random_element(Dimensions(3), rng)
        w = G.factor_word(g)
        worst_rt = max(worst_rt, float(np.abs(w.evaluate().m - g.m).max()))
    ok = (worst_cocycle <= 1e-6 and worst_jac <= 1e-6 and worst_dist <= 1e-6
          and worst_word <= 1e-10 and worst_rt <= 1e-8)
    report("group-laws", ok,
           f"cocycle {worst_cocycle:.2e}, jacobian {worst_jac:.2e}, "
           f"distance {worst_dist:.2e}, word {worst_word:.2e}, "
           f"roundtrip {worst_rt:.2e}")


def test_criterion_06_sampler_correctness():
    # n = 2 marginal against the difference-of-gammas oracle
    lam = 0.5
    xs = P.sample_marginal(Dimensions(2), M.Partition((lam,)),
                           SeededStream(2024, 50), size=100_000)[:, 0, 0]
    ys = P.oracle_n2(lam, SeededStream(2024, 51), size=100_000)
    ks_oracle = stats.ks_2samp(xs, ys).statistic

    # n = 3 empirical characteristic function on a 5-point grid
    lam3 = 0.8
    zs = P.sample_marginal(Dimensions(3), M.Partition((lam3,)),
                           SeededStream(2024, 52), size=200_000)[:, 0, :]
    worst_sig = 0.0
    for g in ([0.5, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, -0.5], [-3.0, 1.0]):
        g = np.asarray(g)
        ph = np.exp(1j * zs @ g).real
        se = ph.std() / math.sqrt(len(zs))
        target = (1.0 + float(g @ g) / 4.0) ** (-lam3 / 2.0)
        worst_sig = max(worst_sig, abs(ph.mean() - target) / se)

    # process projection against direct marginal draws
    dims = Dimensions(2)
    part = M.Partition((0.5, 0.5))
    cutoff = 1e-5
    table = P.JumpSizeTable(dims, cutoff, P.default_intensity_scale(dims))
    n_paths = 10_000
    proj = np.empty((n_paths, 2))
    stream = SeededStream(2024, 53)
    for k in range(n_paths):
        cfg = P.sample_process(dims, 1.0, cutoff, stream, table=table)
        proj[k] = P.project_config(cfg, part)[:, 0]
    direct = P.sample_marginal(dims, part, SeededStream(2024, 54), size=n_paths)
    ks_proj = max(stats.ks_2samp(proj[:, i], direct[:, i, 0]).statistic
                  for i in range(2))

    ok = ks_oracle <= 0.02 and worst_sig <= 3.0 and ks_proj <= 0.03
    report("samplers", ok,
           f"oracle KS {ks_oracle:.4f}, char-fn {worst_sig:.2f} SE, "
           f"projection KS {ks_proj:.4f}")


def _run_and_report(tag: str, suite: str, extra_ok=True, extra_detail=""):
    reports = S.run_suite(S.RunConfig(), suite)
    failed = [r for r in reports if not r.passed]
    worst = max((r.residual / r.tolerance for r in reports), default=0.0)
    ok = not failed and extra_ok
    detail = (f"{len(reports)} checks, worst residual/tolerance {worst:.2e}"
              + (f", failed: {[r.check_id for r in failed]}" if failed else "")
              + extra_detail)
    report(tag, ok, detail)
    return reports


def test_criterion_07_measure_structure():
    # coherence (exact nu products + mu projections), invariance at density
    # level, and the refinement limit of the density ratio
    all_reports = (S.run_suite(S.RunConfig(), "coherence")
                   + S.run_suite(S.RunConfig(), "invariance")
                   + S.run_suite(S.RunConfig(), "measures"))
    failed = [r.check_id for r in all_reports if not r.passed]
    refinement = next(r for r in all_reports
                      if r.check_id == "refinement-limit-of-density")
    ok = not failed and refinement.residual <= 1e-2
    report("measure-structure", ok,
           f"{len(all_reports)} checks"
           + (f", failed {failed}" if failed else "")
           + f", refinement-limit residual {refinement.residual:.2e}")


def test_criterion_08_representation_operators():
    reports = S.run_suite(S.RunConfig(), "reps")
    failed = [r.check_id for r in reports if not r.passed]
    by_id = {r.check_id: r.residual for r in reports}
    ok = (not failed
          and by_id["z-letter-unitarity"] <= 1e-6
          and by_id["d-letter-unitarity"] <= 1e-6
          and by_id["kernel-involution"] <= 1e-3
          and by_id["inversion-dilation-conjugation"] <= 1e-3
          and by_id["inversion-translation-exchange"] <= 1e-3
          and by_id["tensor-embedding-isometry"] <= 1e-12
          and by_id["vacuum-identities-n2"] <= 1e-6
          and by_id["vacuum-identities-n3"] <= 1e-6
          and by_id["dual-transform-translation"] <= 1e-12
          and by_id["dual-transform-dilation"] <= 1e-6
          and by_id["dual-transform-inversion"] <= 1e-3)
    report("representations", ok,
           f"{len(reports)} checks"
           + (f", failed {failed}" if failed else "")
           + f", involution {by_id['kernel-involution']:.2e}, "
           f"inversion-covariance {by_id['dual-transform-inversion']:.2e}")


def test_criterion_09_spherical_reproduction():
    t0 = time.perf_counter()
    reports = S.run_suite(S.RunConfig(), "spherical")
    dt = time.perf_counter() - t0
    failed = [r.check_id for r in reports if not r.passed]
    worst = max(r.residual for r in reports)
    ok = len(reports) == 12 and not failed and dt <= 300.0
    report("spherical-reproduction", ok,
           f"12 combinations, worst residual {worst:.2e}, {dt:.1f}s"
           + (f", failed {failed}" if failed else ""))


def test_criterion_10_full_suite_deterministic():
    t0 = time.perf_counter()
    first = S.run_suite(S.RunConfig(), "all")
    second = S.run_suite(S.RunConfig(), "all")
    dt = time.perf_counter() - t0
    failed = [r.check_id for r in first if not r.passed]
    same = ([(r.check_id, r.residual) for r in first]
            == [(r.check_id, r.residual) for r in second])
    ok = not failed and same and dt <= 900.0
    report("full-suite", ok,
           f"{len(first)} checks, deterministic={same}, two runs in {dt:.1f}s"
           + (f", failed {failed}" if failed else ""))
