"""Named bundles of residual checks with machine-readable reports.

Every check computes one nonnegative residual; it passes when the residual
is at or below its tolerance.  Checks are pure given (config, stream), so a
fixed RunConfig reproduces every residual bit for bit; only runtime_ms
varies between runs.  Suites may execute checks concurrently — each check
owns a private seeded stream derived from (config.seed, registry index).

Each check is one _check row, in registry order; a family of checks (such as
the n = 2 and n = 3 twins) is one function whose rows bind its parameters."""

from __future__ import annotations

import functools
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma

from . import group as G
from . import measures as M
from . import process as P
from . import quadrature as Q
from . import reps as R
from . import specfun
from .errors import DomainError, PointAtInfinityError
from .gridfn import CellGrid, grid_1d_sqrt
from .process import SeededStream
from .specfun import Dimensions


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by every suite run; flags override config-file values,
    which override these defaults."""

    seed: int = 2024
    tolerances: dict = field(default_factory=dict)
    output_path: str | None = None
    format: str = "json"
    workers: int = 4
    trials: int = 100   # random draws per group-law check

    def __post_init__(self):
        if self.trials < 1:
            raise DomainError(f"trials must be at least 1, got {self.trials}")
        unknown = sorted(set(self.tolerances) - {s.check_id for s in _REGISTRY})
        if unknown:
            raise DomainError(f"tolerance for unknown check {', '.join(map(repr, unknown))}")
        if not all(t > 0 for t in self.tolerances.values()):
            raise DomainError("tolerances must be positive")
        if self.format not in ("json", "csv"):
            raise DomainError("format must be json or csv")


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    paper_anchor: str
    residual: float
    tolerance: float
    passed: bool
    runtime_ms: int

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "paper_anchor": self.paper_anchor,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "runtime_ms": self.runtime_ms,
        }


@dataclass(frozen=True)
class CheckSpec:
    check_id: str
    suite: str
    anchor: str
    tolerance: float
    fn: object


_REGISTRY: list = []

SUITE_NAMES = (
    "specfun", "fourier", "levy-khinchin", "measures", "coherence",
    "invariance", "group", "reps", "spherical", "all",
)


def _check(suite: str, check_id: str, anchor: str, tolerance: float, **params):
    """Register the decorated function as the check check_id, with params
    bound; a family's function takes one `_check(...)(fn)` row per member.
    A check's registry index seeds its stream."""
    def deco(fn):
        _REGISTRY.append(CheckSpec(check_id, suite, anchor, tolerance,
                                   functools.partial(fn, **params)))
        return fn
    return deco


# ---------------------------------------------------------------------------
# special-function checks
# ---------------------------------------------------------------------------

@_check("specfun", "v-half-exponential", "17-7", 1e-12)
def _v_half_exp(cfg, stream):
    x = np.linspace(0.0, 5.0, 26)
    want = np.exp(2.0 * x)
    return float(np.max(np.abs(np.exp(specfun.log_v_rho(0.5, x)) - want) / want))


@_check("specfun", "v-at-zero", "17-7", 1e-14)
def _v_zero(cfg, stream):
    return max(abs(specfun.v_rho(rho, 0.0) - 1.0) for rho in (0.5, 1.0, 2.0))


@_check("specfun", "k-half-integer", "17-5", 1e-10)
def _k_half_int(cfg, stream):
    z = np.array([0.5, 1.0, 2.0])
    half = np.sqrt(math.pi / (4.0 * z)) * np.exp(-2.0 * z)
    want = np.stack((half, half * (1.0 + 1.0 / (2.0 * z))))   # orders 1/2, 3/2
    got = np.exp(specfun.log_bessel_k(np.array([[0.5], [1.5]]), z))
    return float(np.max(np.abs(got - want) / want))


@_check("specfun", "k-order-symmetry", "17-5", 1e-10)
def _k_symmetry(cfg, stream):
    rho, x = np.meshgrid((0.3, 0.8, 1.7, 2.4), (0.1, 1.0, 5.0), indexing="ij")
    want = specfun.bessel_k_reference(rho, x)
    got = np.exp(specfun.log_bessel_k(-rho, x))
    return float(np.max(np.abs(got - want) / want))


@_check("specfun", "v-bessel-product", "17-7", 1e-10)
def _v_k_product(cfg, stream):
    # V from the production K route, K from the reference route: with both
    # from one route the product is 1 to rounding whatever K reads
    rho, x = np.meshgrid((0.5, 0.75, 1.0, 2.0), (0.1, 0.5, 1.0, 3.0), indexing="ij")
    prod = (np.exp(specfun.log_v_rho(rho, x)) * 2.0 / gamma(rho)
            * x ** rho * specfun.bessel_k_reference(rho, x))
    return float(np.max(np.abs(prod - 1.0)))


@_check("specfun", "v-small-x-asymptotic", "17-8", 1e-2)
def _v_asymptotic(cfg, stream):
    worst = 0.0
    for rho in (0.5, 1.0, 2.0):
        x = 1e-3
        exact = specfun.v_rho(rho, x)
        approx = specfun.v_rho_asymptotic(rho, x)
        worst = max(worst, abs(exact - approx) / abs(exact - 1.0))
    return worst


@_check("specfun", "k-reference-agreement", "17-5", 1e-12)
def _k_reference(cfg, stream):
    # the production route against the trapezoid-rule reference on a grid
    # straddling every boundary of the former hand-written K routes: integer
    # orders +- 1e-6, half-integer orders +- 1e-9, 2z = 30 +- 1e-3
    orders = [m + e for m in range(4) for e in (-1e-6, 0.0, 1e-6)]
    orders += [m + 0.5 + e for m in range(3) for e in (-1e-9, 0.0, 1e-9)]
    zs = [float(z) for z in np.geomspace(1e-4, 40.0, 9)] + [15.0 - 5e-4, 15.0 + 5e-4]
    rho, z = np.meshgrid(orders, zs, indexing="ij")
    want = specfun.bessel_k_reference(rho, z)
    got = np.exp(specfun.log_bessel_k(rho, z))
    return float(np.max(np.abs(got - want) / want))


@_check("specfun", "marginal-density-total-mass", "17-9", 1e-8)
def _marginal_mass(cfg, stream):
    worst = 0.0
    for n, lam in ((2, 1.0), (3, 0.7)):
        dims = Dimensions(n)
        d = dims.d
        # the density times r^(d-1) goes like r^(lam-1) at 0
        r, w = Q.radial_rule(lam - 1.0, 0.5)
        val = specfun.sphere_area(d) * float(np.sum(
            w * r ** (d - 1) * np.exp(specfun.log_marginal_radial_density(dims, lam, r))))
        worst = max(worst, abs(val - 1.0))
    return worst


@_check("specfun", "jump-density-closed-form", "345-1", 1e-10)
def _levy_value(cfg, stream):
    got = specfun.levy_density_radial(Dimensions(2), 0.5)
    want = 0.5 ** -0.5 * math.sqrt(math.pi / 2.0) * math.exp(-1.0)
    return abs(got - want) / want


# ---------------------------------------------------------------------------
# Fourier identities
# ---------------------------------------------------------------------------

def _cn(cfg, stream, n):
    """The calibration's ratio spread or the calibrated c_n's relative
    distance from Q.closed_form_cn, whichever is larger (the spread alone
    stays 0 under a constant factor); no other check reads the calibration."""
    const = Q.cached_cn(n)
    return max(const.spread, abs(const.value / Q.closed_form_cn(n) - 1.0))


_check("fourier", "fourier-constant-n2", "17-3", 1e-6, n=2)(_cn)
_check("fourier", "fourier-constant-n3", "17-3", 1e-6, n=3)(_cn)


def _pairing(cfg, stream, n, lams):
    return Q.power_pairing_residual(Dimensions(n), lams)


_check("fourier", "power-pairing-n2", "17-4", 1e-5, n=2, lams=(0.5,))(_pairing)
_check("fourier", "power-pairing-n3", "17-4", 1e-5, n=3, lams=(0.5, 1.0, 1.5))(_pairing)


def _v_inverse(cfg, stream, n, rho):
    return max(Q.fourier_vrho_inverse_check(Dimensions(n), rho))


_check("fourier", "v-inverse-transform-n2", "727-7", 1e-5, n=2, rho=0.5)(_v_inverse)
_check("fourier", "v-inverse-transform-n3", "727-7", 1e-5, n=3, rho=1.0)(_v_inverse)


# ---------------------------------------------------------------------------
# Levy-Khinchin representation
# ---------------------------------------------------------------------------

def _lk(cfg, stream, n):
    # kappa is -2 times the sampler's jump intensity, which the check reads;
    # |gamma| away from the fit's 0.5, 1, 2 and 4, on the fit's rule in r
    dims = Dimensions(n)
    gamma_norm = np.array([0.3, 1.5, 3.0, 6.0])
    return float(Q.levy_khinchin_residual(dims, gamma_norm,
                                          -2.0 * P.default_intensity_scale(dims)).max())


_check("levy-khinchin", "levy-khinchin-n2", "345-1", 1e-4, n=2)(_lk)
_check("levy-khinchin", "levy-khinchin-n3", "345-1", 1e-4, n=3)(_lk)


def _lk_kappa(cfg, stream, n):
    # the one check that reads the fitted kappa
    want = -2.0 * P.default_intensity_scale(Dimensions(n))
    return abs(Q.fit_levy_khinchin_kappa(n) - want) / abs(want)


_check("levy-khinchin", "levy-khinchin-constant-n2", "345-1", 1e-6, n=2)(_lk_kappa)
_check("levy-khinchin", "levy-khinchin-constant-n3", "345-1", 1e-6, n=3)(_lk_kappa)


# ---------------------------------------------------------------------------
# group laws
# ---------------------------------------------------------------------------

@_check("group", "membership-closure", "1-1", 1e-9)
def _membership(cfg, stream):
    worst = 0.0
    for n in (2, 3):
        g = G.random_elements(Dimensions(n), stream.rng, 20)
        h = G.random_elements(Dimensions(n), stream.rng, 20)
        worst = max(worst, float(G.membership_residuals(g @ h).max()),
                    float(G.membership_residuals(G.inverse_matrices(g)).max()))
    return worst


_ATTEMPTS_PER_TRIAL = 4   # a group check gives up after this many drawn trials per trial


def _bounded_trials(count: int, trials) -> float:
    """Worst residual over `count` completed trials, the first half (rounded
    up) at n = 2 and the rest at n = 3.  trials(dims, k) draws k trials as
    one batch and returns the residuals of those it completed; a batch that
    raises PointAtInfinityError completes none.  Trials not completed are
    drawn again, up to _ATTEMPTS_PER_TRIAL * count drawn in all; past that
    the result is inf, so a check whose draws keep failing fails instead of
    spinning."""
    worst = 0.0
    budget = _ATTEMPTS_PER_TRIAL * count
    for n, need in ((2, count - count // 2), (3, count // 2)):
        while need:
            k = min(need, budget)
            if k == 0:
                return math.inf
            budget -= k
            try:
                done = trials(Dimensions(n), k)
            except PointAtInfinityError:
                continue
            # np.max keeps a nan residual, which then fails the check
            worst = float(np.max(done, initial=worst))
            need -= len(done)
    return worst


def _pair_trials(stream, dims, k):
    """k draws (g1, g2, x): two batches of elements and one of points."""
    g1 = G.random_elements(dims, stream.rng, k)
    g2 = G.random_elements(dims, stream.rng, k)
    return g1, g2, stream.rng.standard_normal((k, dims.d))


def _composition_condition(x, g1, g2, x1):
    """The largest action_condition of the three actions of a composition
    law, x.(g1 g2), x.g1 and x1.g2 with x1 = x.g1.  The laws divide their
    relative errors by it: near the pole of an element beta cancels, and
    rounding of relative size u in the entries is amplified by this number."""
    return np.maximum(np.maximum(G.action_condition(x, g1 @ g2), G.action_condition(x, g1)),
                      G.action_condition(x1, g2))


@_check("group", "cocycle-law", "1-4", 1e-9)
def _cocycle_law(cfg, stream):
    def trials(dims, k):
        g1, g2, x = _pair_trials(stream, dims, k)
        x1 = G.act(x, g1)
        lhs = G.cocycle_beta(x, g1 @ g2)
        rhs = G.cocycle_beta(x, g1) * G.cocycle_beta(x1, g2)
        return np.abs(lhs - rhs) / lhs / _composition_condition(x, g1, g2, x1)

    return _bounded_trials(cfg.trials, trials)


@_check("group", "action-composition", "1-2", 1e-9)
def _action_law(cfg, stream):
    def trials(dims, k):
        g1, g2, x = _pair_trials(stream, dims, k)
        x1 = G.act(x, g1)
        lhs = G.act(x1, g2)
        rhs = G.act(x, g1 @ g2)
        scale = np.maximum(1.0, np.abs(rhs).max(axis=-1))
        return (np.abs(lhs - rhs).max(axis=-1) / scale
                / _composition_condition(x, g1, g2, x1))

    return _bounded_trials(cfg.trials, trials)


def _measure_relation(cfg, stream, residual) -> float:
    # both checks draw y, so each keeps the stream of the pair it once shared
    def trials(dims, k):
        g = G.random_elements(dims, stream.rng, k)
        x = stream.rng.standard_normal((k, dims.d))
        y = stream.rng.standard_normal((k, dims.d))
        return residual(g, x, y)

    return _bounded_trials(max(25, cfg.trials // 4), trials)


_check("group", "jacobian-cocycle-relation", "1-5", 1e-6,
       residual=lambda g, x, y: G.jacobian_relation_residual(g, x))(_measure_relation)
_check("group", "distance-cocycle-relation", "1-6", 1e-6,
       residual=G.distance_relation_residual)(_measure_relation)


@_check("group", "exchange-identity-matrix", "364", 1e-10)
def _exchange_matrix(cfg, stream):
    worst = 0.0
    for d in (1, 2):
        gamma = stream.rng.standard_normal((20, d))
        keep = np.sum(gamma * gamma, axis=1) >= 1e-4
        worst = max(worst, float(np.max(G.word_identity_residual(gamma[keep]), initial=0.0)))
    return worst


@_check("group", "factor-word-roundtrip", "1-1", 1e-8)
def _factor_roundtrip(cfg, stream):
    def trials(dims, k):
        m = G.random_elements(dims, stream.rng, k)
        words, ok = G.factor_words(m)
        scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
        return (np.abs(words.evaluate() - m).max(axis=(-2, -1)) / scale)[ok]

    return _bounded_trials(cfg.trials, trials)


@_check("group", "triangular-composition", "1-1", 1e-10)
def _triangular_composition(cfg, stream):
    worst = 0.0
    for n in (2, 3):
        t1, t2 = (G.random_triangular(Dimensions(n), stream.rng, 20) for _ in range(2))
        lhs = t1.compose(t2).matrices()
        rhs = t1.matrices() @ t2.matrices()
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


@_check("group", "inversion-squared", "1-1", 1e-15)
def _s_squared(cfg, stream):
    worst = 0.0
    for n in (2, 3):
        s = G.make_s(n)
        worst = max(worst, float(np.abs((s @ s).m - np.eye(n + 1)).max()))
    return worst


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

@_check("measures", "density-ratio-consistency", "17-91", 1e-10)
def _rn_ratio(cfg, stream):
    worst = 0.0
    for n, masses in ((2, (0.5, 0.3)), (3, (0.5, 0.7))):
        dims = Dimensions(n)
        part = M.Partition(masses)
        xi = stream.rng.standard_normal((50, part.size, dims.d))
        a = M.log_rn_derivative(dims, part, xi)
        b = M.log_nu_alpha_density(dims, part, xi) - M.log_mu_alpha_density(dims, part, xi)
        worst = max(worst, float(np.abs(a - b).max()))
    return worst


@_check("measures", "characteristic-product-form", "1-12", 1e-12)
def _psi_product(cfg, stream):
    worst = 0.0
    dims = Dimensions(3)
    part = M.Partition((0.5, 0.7, 1.2))
    for _ in range(20):
        gamma = stream.rng.standard_normal((3, 2))
        direct = 1.0
        for lam, g in zip(part.masses, gamma):
            direct *= (1.0 + float(g @ g) / 4.0) ** (-lam / 2.0)
        got = M.big_psi(part, dims, gamma)
        worst = max(worst, abs(got - direct) / direct)
    return worst


@_check("measures", "nu-transform-single-cell", "30-1", 1e-12)
def _nu_char_value(cfg, stream):
    got = M.nu_char(M.Partition((1.0,)), Dimensions(2), np.array([[2.0]]))
    return abs(got - 0.5)


@_check("measures", "refinement-limit-of-density", "29", 1e-2)
def _refinement_limit(cfg, stream):
    dims = Dimensions(2)
    config = P.PointConfiguration(
        total_mass=1.0,
        positions=np.array([0.15, 0.5, 0.85]),
        amplitudes=np.array([[0.6], [-0.4], [0.9]]),
    )
    want = M.log_density_v(dims, 1.0, config.radii)
    part = M.Partition((1.0,))
    for _ in range(4):
        part = M.split_evenly(part, 5).fine
    got = M.log_rn_derivative(dims, part, P.project_config(config, part))
    return abs(math.exp(got - want) - 1.0)


@_check("measures", "characteristic-positive-definite", "181-1", 1e-10)
def _char_l_psd(cfg, stream):
    pts = stream.rng.standard_normal((20, 2)) * 1.5
    gram = M.char_l(pts[:, None, :] - pts[None, :, :])
    return max(0.0, -float(np.linalg.eigvalsh(gram).min()))


@_check("measures", "characteristic-value", "181-1", 1e-14)
def _char_l_value(cfg, stream):
    return abs(M.char_l([2.0]) - 2.0 ** -0.5)


# ---------------------------------------------------------------------------
# coherence under refinement
# ---------------------------------------------------------------------------

def _nu_exact(cfg, stream, n, masses, parts):
    ref = M.split_evenly(M.Partition(masses), parts)
    return M.coherence_exact(Dimensions(n), ref, stream)


def _mu_projection(cfg, stream, n, masses, n_samples, conditional):
    ref = M.split_evenly(M.Partition(masses), 2)
    dev, se = M.coherence_mc(Dimensions(n), ref, stream, n_samples, conditional)
    return dev / max(se, 1e-300)


_check("coherence", "nu-exact-refinement-n2", "30-1", 1e-12,
       n=2, masses=(0.5,), parts=2)(_nu_exact)
_check("coherence", "nu-exact-refinement-n3", "30-1", 1e-12,
       n=3, masses=(0.5, 0.7), parts=2)(_nu_exact)
# the raw estimator: the one check that runs sample_marginal end to end
_check("coherence", "mu-projection-mc-n2", "17-9", 3.0,
       n=2, masses=(0.5,), n_samples=200_000, conditional=False)(_mu_projection)
# conditioned on the mixing variables, 4 blocks have the standard error of
# the raw estimator's 200 000 samples
_check("coherence", "mu-projection-mc-n3", "17-9", 3.0,
       n=3, masses=(0.5, 0.7), n_samples=4 * M.MC_BLOCK, conditional=True)(_mu_projection)
_check("coherence", "trivial-refinement", "30-1", 1e-15,
       n=2, masses=(0.5, 0.3), parts=1)(_nu_exact)


@_check("coherence", "two-level-chain", "30-1", 1e-12)
def _coh_chain(cfg, stream):
    dims = Dimensions(3)
    alpha = M.Partition((0.6, 0.9))
    beta = M.split_evenly(alpha, 2).fine
    delta_ref = M.split_evenly(beta, 2)
    gamma_a = stream.rng.standard_normal((alpha.size, dims.d))
    gamma_d = np.asarray([gamma_a[j // 4] for j in range(delta_ref.fine.size)])
    lhs = math.log(M.nu_char(delta_ref.fine, dims, gamma_d))
    rhs = math.log(M.nu_char(alpha, dims, gamma_a))
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# invariance laws
# ---------------------------------------------------------------------------

@_check("invariance", "nu-rotation-invariance", "18-33", 1e-12)
def _nu_rotation(cfg, stream):
    dims = Dimensions(3)
    part = M.Partition((0.5, 0.7))
    xi, rotated = [], []
    for _ in range(20):
        xi.append(stream.rng.standard_normal((2, 2)))
        rotated.append([xi[-1][i] @ G.random_orthogonal(2, stream.rng) for i in range(2)])
    return float(np.abs(M.log_nu_alpha_density(dims, part, np.asarray(rotated))
                        - M.log_nu_alpha_density(dims, part, np.asarray(xi))).max())


@_check("invariance", "nu-scaling-covariance", "18-3", 1e-12)
def _nu_scaling(cfg, stream):
    worst = 0.0
    for n, masses in ((2, (0.5, 0.3)), (3, (0.5, 0.7))):
        dims = Dimensions(n)
        part = M.Partition(masses)
        xi, eps = [], []
        for _ in range(20):
            xi.append(stream.rng.standard_normal((part.size, dims.d)))
            eps.append(np.exp(stream.rng.uniform(-1.0, 1.0, size=part.size)))
        xi, eps = np.asarray(xi), np.asarray(eps)
        lhs = (M.log_nu_alpha_density(dims, part, eps[..., None] * xi)
               + dims.d * np.log(eps).sum(axis=1))
        rhs = M.log_nu_alpha_density(dims, part, xi) + np.log(eps) @ np.asarray(part.masses)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


@_check("invariance", "mu-rotation-invariance", "17-9", 1e-12)
def _mu_rotation(cfg, stream):
    dims = Dimensions(3)
    part = M.Partition((0.5, 0.7))
    xi, u = [], []
    for _ in range(20):
        xi.append(stream.rng.standard_normal((2, 2)))
        u.append(G.random_orthogonal(2, stream.rng))
    xi = np.asarray(xi)
    return float(np.abs(M.log_mu_alpha_density(dims, part, xi @ np.asarray(u))
                        - M.log_mu_alpha_density(dims, part, xi)).max())


@_check("invariance", "configuration-rotation-radii", "29", 1e-12)
def _config_rotation(cfg, stream):
    dims = Dimensions(3)
    config = P.sample_process(dims, 1.0, 0.05, stream)
    u = G.random_orthogonal(dims.d, stream.rng)
    rotated = P.rotate_config(config, u)
    if len(config.positions) == 0:
        return 0.0
    return float(np.abs(rotated.radii - config.radii).max())


# ---------------------------------------------------------------------------
# representation operators (single cell n = 2 unless stated)
# ---------------------------------------------------------------------------

_D2 = Dimensions(2)
_LAM = 0.5


def _grid64() -> CellGrid:
    return grid_1d_sqrt(25.0, 64)


def _operator_grid() -> CellGrid:
    # the grid of the two checks that the kernel quadrature limits.  Their
    # residuals are set by the radius R, not by the node count: at R = 60
    # they read the same from N = 192 to 320, while (80, 192) reads 4.8e-5
    # and 1.5e-8, within 5 % of (80, 256) (tools/grid_floor.py)
    return grid_1d_sqrt(80.0, 192)


def _cell_letters(eps, shifts):
    return [G.TriangularElement(e, np.eye(1), [g]) for e, g in zip(eps, shifts)]


def _unitarity(cfg, stream, masses, word, phi):
    # rows of one law on 64-node cells, phi tabulating the test function on them
    cells = [_grid64() for _ in masses]
    return R.unitarity_residual(_D2, M.Partition(masses), cells, word, phi(cells))


def _bump(cells):
    return R.bump(cells[0])


_check("reps", "z-letter-unitarity", "1-14-1", 1e-12, masses=(_LAM,),
       word=[_cell_letters((1.0,), (0.7,))], phi=_bump)(_unitarity)
_check("reps", "d-letter-unitarity", "1-15-1", 1e-12, masses=(_LAM,),
       word=[_cell_letters((2.0,), (0.0,))], phi=_bump)(_unitarity)
_check("reps", "current-letter-unitarity", "17-13", 1e-12, masses=(0.5, 0.3),
       word=[_cell_letters((2.0, -0.7), (0.4, -1.1))], phi=R._product_bump)(_unitarity)


def _word_identity(cfg, stream, grid, lhs, rhs):
    return R.word_identity_residual(_D2, _LAM, grid(), lhs, rhs)


def _dilation(eps):
    return G.TriangularElement(eps, np.eye(1), [0.0])


_check("reps", "kernel-involution", "73-1", 1e-3, grid=_grid64,
       lhs=["s", "s"], rhs=[])(_word_identity)
_check("reps", "kernel-unitarity", "73-1", 1e-3, masses=(_LAM,), word=["s"],
       phi=_bump)(_unitarity)
_check("reps", "inversion-dilation-conjugation", "363", 1e-3, grid=_grid64,
       lhs=["s", _dilation(2.0)], rhs=[_dilation(0.5), "s"])(_word_identity)
_EXCHANGE_LHS, _EXCHANGE_RHS = G.exchange_words([0.7])
_check("reps", "inversion-translation-exchange", "364", 1e-3, grid=_operator_grid,
       lhs=_EXCHANGE_LHS, rhs=_EXCHANGE_RHS)(_word_identity)


def _vacuum(cfg, stream, n, lam):
    return R.vacuum_checks(Dimensions(n), lam)


_check("reps", "vacuum-identities-n2", "342-1", 1e-6, n=2, lam=0.5)(_vacuum)
_check("reps", "vacuum-identities-n3", "342-1", 1e-6, n=3, lam=1.0)(_vacuum)


@_check("reps", "tensor-embedding-z-commutation", "31-21", 1e-12)
def _tau_z(cfg, stream):
    cells = [grid_1d_sqrt(10.0, 24), grid_1d_sqrt(10.0, 24)]
    return R.tau_z_commutation_residual(_D2, cells, lambda xi: np.exp(-np.sum(xi ** 2, axis=-1)),
                                        [0.4])


@_check("reps", "tensor-embedding-isometry", "31-21", 1e-12)
def _tau_isometry(cfg, stream):
    # the embedded tensor pairs under the per-cell product kernel
    # |u|^(-0.5) |u|^(-0.7); the isometry makes that the single-mass pairing
    # of lam = 1.2, whose closed form is gaussian_pairing
    dims, lambdas = Dimensions(3), (0.5, 0.7)
    f = lambda g: np.exp(-np.einsum("ij,ij->i", g, g))
    want = R.gaussian_pairing(dims, sum(lambdas))
    return abs(R.radial_pairing(dims, lambdas, f, f) - want) / want


def _dual_transform(cfg, stream, grid, word):
    # the z and d letters hold exactly on the nodes, so they need no more
    # than the 64-node grid; the inversion alone carries the kernel
    # quadrature's error, which the grid radius limits, and takes the
    # operator grid.  The z.s word reads 1.5e-4 on 64 nodes; words that
    # mix d and s, or apply s after z, read 2e-3 to 7e-2 there.
    part, cells = M.Partition((0.5, 0.3)), [grid(), grid()]
    return R.r_intertwining_residual(_D2, part, cells, word, np.array([[0.7], [-1.1]]))


_Z_SHIFT = _cell_letters((1.0, 1.0), (0.4, -0.6))
_check("reps", "dual-transform-translation", "444", 1e-12, grid=_grid64,
       word=[_Z_SHIFT])(_dual_transform)
_check("reps", "dual-transform-dilation", "257", 1e-6, grid=_grid64,
       word=[_cell_letters((2.0, -0.7), (0.0, 0.0))])(_dual_transform)
_check("reps", "dual-transform-inversion", "2561", 1e-3, grid=_operator_grid,
       word=["s"])(_dual_transform)
_check("reps", "dual-transform-word", "2561", 1e-3, grid=_grid64,
       word=[_Z_SHIFT, "s"])(_dual_transform)


@_check("reps", "special-cocycle-law", "11-13", 1e-8)
def _special_cocycle(cfg, stream):
    ident = np.eye(1)
    g1 = [G.TriangularElement(1.0, ident, [0.6])]
    g2 = [G.TriangularElement(1.7, ident, [-0.3])]
    return R.special_cocycle_law_residual(_D2, g1, g2, _grid64())


@_check("reps", "special-limit-continuity", "11-13", 1e-6)
def _lambda_zero_limit(cfg, stream):
    # T^lambda at small lambda on the grid against the lambda = 0 route,
    # special_apply on the bump's evaluator, read at the nodes T^lambda
    # moved to
    letter = G.TriangularElement(1.01, np.eye(1), [0.5])
    small = R.t_comm_apply(_D2, 1e-4, letter, R.bump(_grid64()))
    zero = R.special_apply(_D2, [letter], R.bump_evaluator)(small.cells[0].nodes)
    return float(np.abs(small.values - zero).max() / np.abs(zero).max())


# ---------------------------------------------------------------------------
# spherical-function reproduction (the headline equivalence)
# ---------------------------------------------------------------------------

def _spherical(cfg, stream, n, cells, radius):
    """Mass 1 split evenly into `cells` cells, gamma of norm `radius` along
    the diagonal in each."""
    dims = Dimensions(n)
    part = M.Partition((1.0 / cells,) * cells)
    g = np.full((cells, dims.d), radius / math.sqrt(dims.d))
    coeff, target = R.spherical_reproduce(dims, part, g)
    return abs(coeff - target)


_check("spherical", "spherical-n2-l1-g0", "1-12", 1e-8, n=2, cells=1, radius=0.0)(_spherical)
_check("spherical", "spherical-n2-l1-g1", "1-12", 1e-8, n=2, cells=1, radius=1.0)(_spherical)
_check("spherical", "spherical-n2-l1-g2", "1-12", 1e-8, n=2, cells=1, radius=2.0)(_spherical)
_check("spherical", "spherical-n2-l2-g0", "1-12", 1e-8, n=2, cells=2, radius=0.0)(_spherical)
_check("spherical", "spherical-n2-l2-g1", "1-12", 1e-8, n=2, cells=2, radius=1.0)(_spherical)
_check("spherical", "spherical-n2-l2-g2", "1-12", 1e-8, n=2, cells=2, radius=2.0)(_spherical)
_check("spherical", "spherical-n3-l1-g0", "1-12", 1e-8, n=3, cells=1, radius=0.0)(_spherical)
_check("spherical", "spherical-n3-l1-g1", "1-12", 1e-8, n=3, cells=1, radius=1.0)(_spherical)
_check("spherical", "spherical-n3-l1-g2", "1-12", 1e-8, n=3, cells=1, radius=2.0)(_spherical)
_check("spherical", "spherical-n3-l2-g0", "1-12", 1e-8, n=3, cells=2, radius=0.0)(_spherical)
_check("spherical", "spherical-n3-l2-g1", "1-12", 1e-8, n=3, cells=2, radius=1.0)(_spherical)
_check("spherical", "spherical-n3-l2-g2", "1-12", 1e-8, n=3, cells=2, radius=2.0)(_spherical)


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def indexed_specs(suite: str) -> list:
    """(registry index, spec) of every check of the suite, in registry order;
    the index seeds the check's stream."""
    if suite not in SUITE_NAMES:
        raise DomainError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    return [(i, s) for i, s in enumerate(_REGISTRY) if suite in ("all", s.suite)]


def suite_specs(suite: str) -> list:
    return [s for _, s in indexed_specs(suite)]


def _run_one(spec: CheckSpec, cfg: RunConfig, index: int) -> CheckReport:
    stream = SeededStream(cfg.seed, index)
    t0 = time.perf_counter()
    residual = float(spec.fn(cfg, stream))
    ms = int(round((time.perf_counter() - t0) * 1000.0))
    tol = float(cfg.tolerances.get(spec.check_id, spec.tolerance))
    return CheckReport(spec.check_id, spec.anchor, residual, tol,
                       residual <= tol, ms)


def run_suite(config: RunConfig, suite: str, check_ids=None) -> list:
    """Run every check of the suite, or only those named in check_ids
    (DomainError for an id that names no check of the suite); returns the
    reports in registry order and, when config.output_path is set, writes
    the report file atomically (no partial file on failure).  A check's
    stream depends on its registry index alone, so its residual does not
    depend on which other checks run."""
    specs = indexed_specs(suite)
    if check_ids is not None:
        unknown = sorted(set(check_ids) - {s.check_id for _, s in specs})
        if unknown:
            raise DomainError(f"no check {', '.join(map(repr, unknown))} in suite {suite!r}")
        specs = [(i, s) for i, s in specs if s.check_id in check_ids]
    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            reports = list(pool.map(lambda item: _run_one(item[1], config, item[0]), specs))
    else:
        reports = [_run_one(s, config, i) for i, s in specs]
    if config.output_path:
        write_report(config, suite, reports)
    return reports


def json_report(config: RunConfig, suite: str, reports: list) -> dict:
    """The JSON report of a suite run, as the check command prints it and
    write_report writes it."""
    return {
        "suite": suite,
        "seed": config.seed,
        "all_pass": all(r.passed for r in reports),
        "reports": [r.to_dict() for r in reports],
    }


def write_atomic(path: str, chunks) -> None:
    """Write the text chunks to path + ".tmp" as they come, then rename it
    onto path.  Any failure, KeyboardInterrupt included, removes the .tmp
    and leaves path as it was."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_report(config: RunConfig, suite: str, reports: list) -> None:
    if config.format == "csv":
        chunks = ["check_id,paper_anchor,residual,tolerance,pass,runtime_ms\n"]
        chunks += [f"{r.check_id},{r.paper_anchor},{r.residual!r},{r.tolerance!r},"
                   f"{str(r.passed).lower()},{r.runtime_ms}\n" for r in reports]
    else:
        chunks = [json.dumps(json_report(config, suite, reports), indent=2) + "\n"]
    write_atomic(config.output_path, chunks)
