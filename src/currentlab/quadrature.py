"""Radial Fourier transforms, the Fourier constant c_n in closed form
(closed_form_cn, its one definition) and its calibration, the
boundary-inversion kernel A^lambda (kernel_A, a closed form taken from the
kernel blocks of reps), and the Levy-Khinchin residual for
log(1 + |gamma|^2/4), which takes kappa from its caller.  Only the checks
of the calibration and of the kappa fit read the measured constants.

The radial transform's oscillatory improper integral is computed by
splitting the axis at the exact sign changes of the Bessel factor and
accelerating the resulting alternating series of segment integrals with
repeated averaging; this converges also for the conditionally convergent
and Abel-summable cases that arise from the slowly decaying profiles.  The
tail is averaged on its first _FIRST_CHUNK segments, and once more on all
_SEGMENTS of them where that first average has not reached its stop.

The radial Fourier transform takes an array of radii k > 0.  In the
variable u = k r the sign changes sit at fixed roots for every radius k, so
one fixed rule serves them all: a graded rule on the head [0, first root]
(a Gauss-Jacobi panel that maps out the algebraic singularity at 0, then
doubling Gauss-Legendre panels) and Gauss sums on the tail segments, with
one profile evaluation per block of radii.  The transform at k = 0 is a
plain integral of a profile that decays like e^(-2r), which the fixed rule
radial_rule takes.  The paired power identity integrates the transform
against |x|^(-lam) with a fixed graded outer rule of the same kind, so the
node set of all its masses is one transform call.  The Levy-Khinchin
integral takes every |gamma| of a call on radial_rule too."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import gamma as _gamma, j0, jn_zeros, jv, roots_jacobi

from . import specfun
from .errors import CalibrationError, ConvergenceError, DomainError
from .gridfn import _legendre_rule
from .specfun import Dimensions, FourierConstant

_GAUSS_PTS = 12
_SEGMENTS = 607      # tail segments at most, per oscillatory tail
_FIRST_CHUNK = 76    # tail segments evaluated first, about an eighth of _SEGMENTS
_TOL = 1e-11         # absolute tail error at which the averaging stops


@dataclass
class QuadratureReport:
    value: float | np.ndarray
    abs_error: float | np.ndarray
    nodes_used: int


@dataclass
class RadialProfile:
    """Radial integrand factor f(r), r > 0, with its algebraic behaviour
    f(r) ~ r^singularity_exponent as r -> 0 (exponent > -d for transforms
    in R^d)."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    singularity_exponent: float = 0.0


# ---------------------------------------------------------------------------
# segment machinery
# ---------------------------------------------------------------------------

def _legendre_panels(edges: np.ndarray, pts: int):
    """Gauss-Legendre nodes of order pts on each panel [edges_k, edges_{k+1}],
    one row per panel, and the panels' half widths, which scale the weights."""
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    return mid[:, None] + half[:, None] * _legendre_rule(pts)[0], half


def _average_tail(segment_sums: np.ndarray):
    """Accelerate each row's sum of an alternating-segment series by repeated
    averaging of its partial sums; a row stops improving once its error
    estimate is within _TOL.  Returns (values, error_estimates), one per row
    of the 2-d segment_sums."""
    row = np.cumsum(segment_sums, axis=1)
    best = row[:, -1]
    err = np.abs(segment_sums[:, -1])
    prev = best
    active = np.ones(len(row), dtype=bool)
    while row.shape[1] > 1 and active.any():
        row = 0.5 * (row[:, :-1] + row[:, 1:])
        diff = np.abs(row[:, -1] - prev)
        prev = row[:, -1]
        better = active & (diff < err)
        err = np.where(better, diff, err)
        best = np.where(better, prev, best)
        active &= ~(err <= _TOL)
    return best, err


def _accelerated_sum(segment_sums: np.ndarray):
    """Row sums of segment integrals over alternating lobes: a few raw head
    segments (they may be irregular), the rest by _average_tail."""
    head = min(4, segment_sums.shape[1] // 4)
    val, err = _average_tail(segment_sums[:, head:])
    return segment_sums[:, :head].sum(axis=1) + val, err


def _bessel_zeros(nu: float, count: int) -> np.ndarray:
    if nu == 0.0:
        return jn_zeros(0, count)
    # McMahon expansion is plenty for partitioning purposes
    k = np.arange(1, count + 1)
    beta = (k + 0.5 * nu - 0.25) * math.pi
    mu = 4.0 * nu * nu
    return beta - (mu - 1) / (8 * beta) - 4 * (mu - 1) * (7 * mu - 31) / (3 * (8 * beta) ** 3)


# ---------------------------------------------------------------------------
# radial Fourier transform
# ---------------------------------------------------------------------------

_HEAD_PANELS = 40   # graded panels on [0, first root]; the first is 2^-39 of it
_HEAD_PTS = 16      # nodes per head panel; the error estimate uses half as many
_BLOCK = 4          # radii per node tensor: (4, 607, 12) doubles stay under 256 kB
_EPS = np.finfo(float).eps


@lru_cache(maxsize=32)
def _graded_rule(top: float, panels: int, alpha: float, pts: int):
    """Nodes and weights of a fixed rule for integral_0^top g(x) dx, g ~ x^alpha
    at 0: a Gauss-Jacobi panel with weight x^alpha on [0, top 2^(1-panels)]
    (its weights divided by x^alpha, so the rule samples g itself), then
    Gauss-Legendre panels on the doubling intervals up to top.  Every panel
    spans [a, 2a], so a singularity at 0 lies equally far from each of them
    relative to its width."""
    edges = top * 2.0 ** np.arange(1 - panels, 1)
    xj, wj = roots_jacobi(pts, 0.0, alpha)
    tail, half = _legendre_panels(edges, pts)
    nodes = np.concatenate((0.5 * edges[0] * (1.0 + xj), tail.ravel()))
    weights = np.concatenate((0.5 * edges[0] * wj / (1.0 + xj) ** alpha,
                              (half[:, None] * _legendre_rule(pts)[1]).ravel()))
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _bessel_factor(d: int, u: np.ndarray) -> np.ndarray:
    """u^(d/2) J_{d/2-1}(u), the oscillating factor of the radial transform
    in the variable u = k r; sqrt(2/pi) cos u for d = 1."""
    if d == 1:
        return math.sqrt(2.0 / math.pi) * np.cos(u)
    nu = 0.5 * d - 1.0
    return u ** (0.5 * d) * (j0(u) if nu == 0.0 else jv(nu, u))


@lru_cache(maxsize=16)
def _transform_rule(d: int, alpha: float):
    """The radial transform's fixed nodes in u = k r, shared by every radius:
    the head [0, first root of J_{d/2-1}] by a graded rule at _HEAD_PTS and
    at _HEAD_PTS/2 nodes per panel (for the error estimate), then the tail
    segments between consecutive roots at _GAUSS_PTS nodes each.  Returns
    the nodes and the weights of the two head rules and the (segment, node)
    tail weights, the Bessel factor included."""
    roots = _bessel_zeros(0.5 * d - 1.0, _SEGMENTS + 1)
    hi_u, hi_w = _graded_rule(float(roots[0]), _HEAD_PANELS, alpha, _HEAD_PTS)
    lo_u, lo_w = _graded_rule(float(roots[0]), _HEAD_PANELS, alpha, _HEAD_PTS // 2)
    tail_u, half = _legendre_panels(roots, _GAUSS_PTS)
    rule = (np.concatenate((hi_u, lo_u, tail_u.ravel())),
            hi_w * _bessel_factor(d, hi_u), lo_w * _bessel_factor(d, lo_u),
            half[:, None] * _legendre_rule(_GAUSS_PTS)[1] * _bessel_factor(d, tail_u))
    for a in rule:
        a.flags.writeable = False
    return rule


def _segment_sums(vals: np.ndarray, weights: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """The tail segments' integrals for each radius of a block: the profile
    values on consecutive segments (flat per radius) against the (segment,
    node) weights, times the radius's scale."""
    return scale[:, None] * (vals.reshape(scale.size, *weights.shape) * weights).sum(axis=2)


def radial_fourier(dims: Dimensions, profile: RadialProfile, r_out) -> QuadratureReport:
    """d-dimensional Fourier transform of the radial profile, evaluated at
    the radius or array of radii r_out, with the standard unweighted
    convention T(xi) = integral f(|x|) e^{i<xi,x>} dx over R^d, d = n - 1.

    For k = |xi| > 0 this is (2 pi)^(d/2) k^(-d) integral f(u/k) u^(d/2)
    J_{d/2-1}(u) du (2 integral f cos(kr) dr for n = 2), taken in u = k r so
    that the nodes of _transform_rule serve every radius.  The head [0, first
    root] has a fixed graded rule whose Gauss-Jacobi panel maps out the
    profile's r^singularity_exponent times the Jacobian and Bessel powers;
    its doubling panels also cover the long head of small k.  The tail
    segments between the roots are accelerated by repeated averaging.
    Radii go through in blocks of _BLOCK.  A block evaluates the profile on
    the head and the first _FIRST_CHUNK tail segments and averages that
    tail once.  Where the tail error of any of its radii is still above
    min(_TOL, 4 eps |T|) (absolute, on T), as for algebraically decaying
    profiles, the block evaluates the profile on the remaining segments in
    one call and averages the tail of the whole rule once.  The radii are
    positive: at k = 0 the transform is the plain integral of f, which
    radial_rule takes.

    A scalar r_out gives a scalar value and abs_error, an array gives arrays
    of its shape.  abs_error is the tail estimate plus the difference between
    the head rule and the same panels at half the nodes, plus the rounding
    of the sums.  nodes_used counts the profile values computed."""
    d = dims.d
    f = profile.evaluator
    k = np.asarray(r_out, dtype=float)
    if not np.all(np.isfinite(k) & (k > 0)):
        raise DomainError("r_out must be finite and > 0")
    if profile.singularity_exponent <= -d:
        raise DomainError("profile is not locally integrable in R^d")
    alpha = profile.singularity_exponent + d - 1.0
    ks = k.ravel()
    value = np.empty(ks.size)
    error = np.empty(ks.size)
    nodes = 0
    u, hi_w, lo_w, tail_w = _transform_rule(d, alpha)
    n_hi, n_head = hi_w.size, hi_w.size + lo_w.size
    pts = tail_w.shape[1]
    for start in range(0, ks.size, _BLOCK):
        idx = slice(start, start + _BLOCK)
        kb = ks[idx]
        scale = (2.0 * math.pi) ** (0.5 * d) * kb ** -d
        first = n_head + _FIRST_CHUNK * pts
        vals = f((u[:first] / kb[:, None]).ravel()).reshape(kb.size, -1)
        head_terms = vals[:, :n_hi] * hi_w
        head = scale * head_terms.sum(axis=1)
        head_lo = scale * (vals[:, n_hi:n_head] * lo_w).sum(axis=1)
        segs = _segment_sums(vals[:, n_head:], tail_w[:_FIRST_CHUNK], scale)
        tail, tail_err = _accelerated_sum(segs)
        if np.any(tail_err > np.minimum(_TOL, 4.0 * _EPS * np.abs(head + tail))):
            rest = f((u[first:] / kb[:, None]).ravel())
            segs = np.concatenate((segs, _segment_sums(rest, tail_w[_FIRST_CHUNK:], scale)), axis=1)
            tail, tail_err = _accelerated_sum(segs)
        # the rounding of both sums keeps the estimate above 0 where the
        # head rules agree to the last bit
        rounding = _EPS * (scale * np.abs(head_terms).sum(axis=1) + np.abs(segs).sum(axis=1))
        value[idx] = head + tail
        error[idx] = np.abs(head - head_lo) + tail_err + rounding
        nodes += kb.size * (n_head + segs.shape[1] * pts)
    if k.ndim == 0:
        return QuadratureReport(float(value[0]), float(error[0]), nodes)
    return QuadratureReport(value.reshape(k.shape), error.reshape(k.shape), nodes)


# ---------------------------------------------------------------------------
# fixed rule on the half-line for radial densities that decay like e^(-2r)
# ---------------------------------------------------------------------------

_RADIAL_TOP = 30.0   # e^(-2r) is below 1e-26 beyond


@lru_cache(maxsize=16)
def _radial_rule(alpha: float, panels: int):
    head_r, head_w = _graded_rule(1.0, _HEAD_PANELS, alpha, _HEAD_PTS)
    tail, half = _legendre_panels(np.linspace(1.0, _RADIAL_TOP, panels + 1), _HEAD_PTS)
    nodes = np.concatenate((head_r, tail.ravel()))
    weights = np.concatenate((head_w, (half[:, None] * _legendre_rule(_HEAD_PTS)[1]).ravel()))
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def radial_rule(alpha: float, width: float):
    """Nodes and weights of a fixed rule for integral_0^30 g(r) dr, where
    g ~ r^alpha at 0 and g decays like e^(-2r): the graded rule of
    _graded_rule on [0, 1] (a Gauss-Jacobi panel with weight r^alpha, then
    doubling Gauss-Legendre panels), then Gauss-Legendre panels of equal
    width, at most `width`, on [1, 30]."""
    return _radial_rule(float(alpha), math.ceil((_RADIAL_TOP - 1.0) / width))


# ---------------------------------------------------------------------------
# c_n, its calibration and the paired power identity
# ---------------------------------------------------------------------------

_DEF_LAM_GRID = (0.5, 1.0, 1.5)
_DEF_XI_GRID = (0.25, 0.5, 1.0, 2.0)
_OUTER_PANELS = 6   # power_pairing_residual's outer rule: 6 panels of 16 nodes
_OUTER_PTS = 16


def closed_form_cn(n: int) -> float:
    """The Fourier constant c_n = (2 sqrt(pi))^(n-1) of
    FT[(1 + |x|^2/4)^(-lam/2)]; the one definition of c_n."""
    return (2.0 * math.sqrt(math.pi)) ** (n - 1)


def calibrate_cn(dims: Dimensions, lam_grid=_DEF_LAM_GRID, xi_grid=_DEF_XI_GRID,
                 spread_tol: float = 1e-6) -> FourierConstant:
    """Measure c_n as the constant ratio

        FT[(1 + |x|^2/4)^(-lam/2)](xi) /
            ((2/Gamma(lam/2)) |xi|^((lam-d)/2) K_{(d-lam)/2}(2|xi|))

    over a grid of lam and |xi|; raises CalibrationError if the ratio is not
    constant to spread_tol.  The denominator, which integrates to pi^(d/2),
    is pi^(d/2) times the single-cell marginal density, taken for the whole
    grid in one call."""
    xi = np.asarray(xi_grid, dtype=float)
    lhs = []
    for lam in lam_grid:
        prof = RadialProfile(lambda r, lam=lam: (1.0 + r * r / 4.0) ** (-lam / 2.0), 0.0)
        lhs.append(radial_fourier(dims, prof, xi).value)
    lams = np.asarray(lam_grid, dtype=float)[:, None]
    rhs = math.pi ** (0.5 * dims.d) * np.exp(
        specfun.log_marginal_radial_density(dims, lams, xi))
    ratios = (np.array(lhs) / rhs).ravel()
    mean = float(ratios.mean())
    spread = float((ratios.max() - ratios.min()) / abs(mean))
    if spread > spread_tol:
        raise CalibrationError(
            f"c_n ratio not constant: spread {spread:.3e} > {spread_tol:.1e}"
        )
    return FourierConstant(dims.n, mean, spread)


@lru_cache(maxsize=4)
def cached_cn(n: int) -> FourierConstant:
    return calibrate_cn(Dimensions(n))


def power_pairing_residual(dims: Dimensions, lam) -> float:
    """Check the homogeneous Fourier identity
        FT[|x|^(-lam)](xi) = c_n 2^(-lam) Gamma((d-lam)/2)/Gamma(lam/2) |xi|^(lam-d)
    in regularized pairing form against the Gaussian w(xi) = e^{-|xi|^2}:

        integral FT[w](x) |x|^(-lam) dx
            = c_n 2^(-lam) Gamma((d-lam)/2)/Gamma(lam/2) integral w |xi|^(lam-d) dxi,

    where the left side is evaluated by quadrature of the numerically
    transformed Gaussian and the right side in closed form.  lam is one
    mass or a sequence of them; returns the largest relative residual."""
    d = dims.d
    lams = [float(x) for x in np.atleast_1d(lam)]
    if not all(0 < x < d for x in lams):
        raise DomainError("the pairing identity needs 0 < lam < d = n - 1")
    prof = RadialProfile(lambda r: np.exp(-r ** 2), 0.0)
    # fixed outer rule on [0, 20] per mass (FT[w] is below e^-100 beyond):
    # the s^(d-1-lam) factor is mapped out on the first panel, the other
    # panels are the same for every mass, and the transform at the distinct
    # nodes of all the rules comes from one radial_fourier call
    rules = [_graded_rule(20.0, _OUTER_PANELS, d - 1.0 - x, _OUTER_PTS) for x in lams]
    nodes, at = np.unique(np.concatenate([s for s, _ in rules]), return_inverse=True)
    ft_w = radial_fourier(dims, prof, nodes).value[at]
    area = specfun.sphere_area(d)
    cn = closed_form_cn(dims.n)
    worst = 0.0
    for x, (s, w), ft in zip(lams, rules, np.split(ft_w, len(lams))):
        lhs = area * float(np.sum(w * s ** (d - 1 - x) * ft))
        # closed form of integral w |xi|^(lam-d) dxi for the Gaussian test profile
        rhs_integral = area * 0.5 * _gamma(x / 2.0)
        # the constant is pi^(d/2) times the nu cell density at |xi| = 1
        nu_at_one = math.exp(specfun.log_nu_radial_density(dims, x, 1.0))
        rhs = cn * math.pi ** (d / 2.0) * nu_at_one * rhs_integral
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return worst


def fourier_vrho_inverse_check(dims: Dimensions, rho: float):
    """Quadrature Fourier transform of 1/V_rho(|xi|) against the closed form

        (2 pi)^d Gamma(d/2+rho) / (c_n Gamma(rho)) * (1 + |x|^2/4)^(-d/2-rho).

    Returns the list of relative residuals at |x| = 0, 0.5, 1, 2 and 4 (the
    transform is also checked to be positive).  The prefactor restates the
    companion Fourier identity for (1+|x|^2/4)^(-d/2-rho) with the inversion
    constant (2 pi)^d made explicit.  At |x| = 0 the transform is the
    integral of 1/V_rho, which decays like e^(-2r), on radial_rule."""
    d = dims.d

    def vinv(r):
        return np.exp(-specfun.log_v_rho(rho, r))

    const = (2.0 * math.pi) ** d * _gamma(0.5 * d + rho) / (closed_form_cn(dims.n) * _gamma(rho))
    x = np.array([0.0, 0.5, 1.0, 2.0, 4.0])
    r, w = radial_rule(d - 1.0, 0.5)
    at_zero = specfun.sphere_area(d) * np.sum(w * vinv(r) * r ** (d - 1))
    got = np.concatenate(([at_zero], radial_fourier(dims, RadialProfile(vinv), x[1:]).value))
    want = const * (1.0 + x * x / 4.0) ** (-0.5 * d - rho)
    if not np.all(got > 0):
        raise ConvergenceError("transform of 1/V_rho must be positive")
    return (np.abs(got - want) / np.abs(want)).tolist()


# ---------------------------------------------------------------------------
# the inversion kernel A^lambda
# ---------------------------------------------------------------------------

def kernel_A(dims: Dimensions, lam: float, xi, xi_prime,
             cn: float | None = None) -> QuadratureReport:
    """The boundary-inversion kernel

        n = 2:  A(xi, xi') = 2^(1-lam/2) integral_0^inf cos(xi x + 2 xi'/x) x^(lam-2) dx
        n = 3:  A(xi, xi') = c_n 2^(-lam/2) integral_0^inf r^(lam-3) J_0(|r xi + 2 xi'/r|) dr

    in closed form: pi A_op at n = 2 and c_n (pi/2) A_op at n = 3, c_n being
    cn when given and closed_form_cn(3) = 4 pi otherwise (2 pi^2 A_op), and
    A_op the operator kernel of reps, whose Bessel
    closed forms (reps._kernel_block_n2, reps._kernel_block_n3) it takes at
    the one pair (xi, xi'); `kernel tabulate` prints it at n = 2.  A closed
    form has no quadrature error, so abs_error is 0.0, and it evaluates no
    integrand, so nodes_used is 0.  xi and xi' are numbers at n = 2 and
    points of R^2 at n = 3, both nonzero, and 0 < lam < d = n - 1."""
    from . import reps  # reps imports this module

    if dims.n not in (2, 3):
        raise DomainError("kernel_A implemented for n in {2, 3}")
    a, b = (np.asarray(x, dtype=float).reshape(1, -1) for x in (xi, xi_prime))
    if a.shape != (1, dims.d) or b.shape != (1, dims.d):
        raise DomainError(f"the n = {dims.n} kernel needs xi, xi' in R^{dims.d}")
    if not (a.any() and b.any()):
        raise DomainError("the kernel needs both arguments nonzero")
    if not 0.0 < lam < dims.d:
        raise DomainError(f"the n = {dims.n} kernel needs 0 < lam < {dims.d}")
    if dims.n == 2:
        value = math.pi * reps._kernel_block_n2(lam, a[:, 0], b[:, 0])[0, 0]
    else:
        if cn is None:
            cn = closed_form_cn(3)
        value = cn * 0.5 * math.pi * reps._kernel_block_n3(lam, a, b)[0, 0]
    return QuadratureReport(float(value), 0.0, 0)


# ---------------------------------------------------------------------------
# Levy-Khinchin representation of log(1 + |gamma|^2/4)
# ---------------------------------------------------------------------------

def _angular_average_minus_one(d: int, u):
    """The mean of e^{i<xi, gamma>} over the sphere |xi| = r in R^d, minus 1,
    as a function of u = |gamma| r > 0.  The mean is Gamma(d/2) (2/u)^nu
    J_nu(u) with nu = d/2 - 1, that is cos u for d = 1 and J_0(u) for d = 2;
    below u = 1, where subtracting 1 from it would cancel, the difference is
    summed as the power series
    sum_{k>=1} (-u^2/4)^k Gamma(nu+1) / (k! Gamma(nu+k+1)), whose 12 terms
    leave out less than 1e-17 of it.  Each distinct u is evaluated once (|gamma|
    and 2 |gamma| meet the same u on the doubling panels of radial_rule)."""
    shape = np.shape(u)
    u, at = np.unique(np.asarray(u, dtype=float), return_inverse=True)
    nu = 0.5 * d - 1.0
    if d == 1:
        out = np.cos(u)
    elif nu == 0.0:
        out = j0(u)
    else:
        out = _gamma(0.5 * d) * (2.0 / u) ** nu * jv(nu, u)
    out = out - 1.0
    small = u < 1.0
    q = -0.25 * u[small] ** 2
    term = np.ones_like(q)
    series = np.zeros_like(q)
    for k in range(1, 13):
        term = term * q / (k * (nu + k))
        series = series + term
    out[small] = series
    return out[at].reshape(shape)


def _levy_rhs(dims: Dimensions, gamma_norm):
    """integral over R^d of (e^{i<xi,gamma>} - 1) g(xi) dxi at each |gamma| > 0
    of the scalar or array gamma_norm, reduced to the radial integral with
    the angular average.  Every |gamma| of a call shares one fixed rule in r
    (radial_rule) whose tail panels are at most min(0.5, pi/max|gamma|)
    wide, so each half-period of the oscillation spans a panel or more."""
    k = np.asarray(gamma_norm, dtype=float)
    if not np.all(np.isfinite(k) & (k > 0)):
        raise DomainError("|gamma| must be finite and > 0")
    d = dims.d
    r, w = radial_rule(1.0, min(0.5, math.pi / float(k.max())))
    weights = specfun.sphere_area(d) * w * r ** (d - 1) * specfun.levy_density_radial(dims, r)
    osc = _angular_average_minus_one(d, k.reshape(-1, 1) * r)
    return (osc @ weights).reshape(k.shape)[()]


@lru_cache(maxsize=4)
def fit_levy_khinchin_kappa(n: int) -> float:
    """Fit the single constant kappa in
        log(1 + |gamma|^2/4) = kappa * integral (e^{i<xi,gamma>} - 1) g(xi) dxi
    over |gamma| = 0.5, 1, 2 and 4 (least squares = mean of ratios here),
    all of them in one _levy_rhs call.  The closed form is
    kappa = -2 pi^(-(n-1)/2), minus twice the sampler's jump intensity."""
    g = np.array([0.5, 1.0, 2.0, 4.0])
    return float(np.mean(np.log1p(g * g / 4.0) / _levy_rhs(Dimensions(n), g)))


def levy_khinchin_residual(dims: Dimensions, gamma_norm, kappa: float):
    """Relative residual of the Levy-Khinchin identity with constant kappa
    at each |gamma| of the scalar or array gamma_norm, 0 where |gamma| = 0;
    every nonzero |gamma| comes from one _levy_rhs call.  A scalar gives a
    float."""
    k = np.abs(np.asarray(gamma_norm, dtype=float))
    out = np.zeros(k.shape)
    nonzero = k != 0.0
    if nonzero.any():
        lhs = np.log1p(k[nonzero] ** 2 / 4.0)
        out[nonzero] = np.abs(lhs - kappa * _levy_rhs(dims, k[nonzero])) / np.abs(lhs)
    return float(out) if out.ndim == 0 else out
