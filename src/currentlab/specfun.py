"""Modified Bessel functions in the doubled-argument convention and the
derived radial densities.

All Bessel evaluators here take the *half* argument: ``bessel_k(rho, z)``
returns K_rho(2z).  Production values come from one route, the
exponentially scaled e^x K_rho(x) of ``_scaled_k``: ``log_bessel_k`` for
arrays and ``bessel_k``, its scalar case times e^(-x).  The route goes by
order, element by element: orders 0 and +-1 to scipy's ``k0e``/``k1e``
(Cephes Chebyshev expansions, a quarter of ``kve``'s time a point), every
other order to ``kve`` (D. E. Amos, ACM TOMS Algorithm 644, 1986).  On
``log_bessel_k`` sit the normalisation function V_rho, the
radial jump density g, and the per-cell laws of the (mu, nu) pair: the
log density of a mu cell, of a nu cell, and of their ratio.  V and the
three cell laws broadcast over arrays of the order or mass as well as of
the radius, so that a sum over the cells of a partition is one call.  The
sphere area is here too.  ``bessel_k_reference`` evaluates K_rho(2z)
independently, by the trapezoid rule on the integral representation
K_rho(x) = integral_0^inf e^(-x cosh t) cosh(rho t) dt (DLMF 10.32.9);
only the checks and tests use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, k0e, k1e, kve

from .errors import DomainError


@dataclass(frozen=True)
class Dimensions:
    """Ambient dimension parameter n of the hyperbolic isometry group;
    d = n - 1 is the boundary dimension carrying the vector-valued objects."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise DomainError(f"n must be >= 2, got {self.n}")

    @property
    def d(self) -> int:
        return self.n - 1


@dataclass(frozen=True)
class FourierConstant:
    """Calibrated constant of the radial Fourier identity for (1+|x|^2/4)^(-lam/2)."""

    n: int
    value: float
    spread: float = 0.0


def bessel_k(rho: float, z: float) -> float:
    """K_rho(2z) for a real order (symmetric in rho) and z > 0, a float: the
    scalar case of _scaled_k at x = 2z, times e^(-x)."""
    if not z > 0:
        raise DomainError(f"bessel_k requires z > 0, got {z}")
    x = 2.0 * z
    return float(_scaled_k(float(rho), x) * math.exp(-x))


def _scaled_k(rho, x):
    """e^x K_rho(x), by k0e at order 0, k1e at orders +-1 and kve at every
    other order, chosen element by element.  A Python float order costs
    two comparisons and no numpy call (the truncation bound's quadrature
    makes tens of thousands of scalar calls)."""
    if type(rho) is float:
        if rho == 0.0:
            return k0e(x)
        if rho == 1.0 or rho == -1.0:
            return k1e(x)
        return kve(rho, x)
    rho = np.asarray(rho, dtype=float)
    if rho.ndim == 0:
        return _scaled_k(float(rho), x)
    zero, one = rho == 0.0, np.abs(rho) == 1.0
    if not (zero.any() or one.any()):
        return kve(rho, x)
    rho, x, zero, one = np.broadcast_arrays(rho, x, zero, one)
    out = np.empty(x.shape)
    other = ~(zero | one)
    out[other] = kve(rho[other], x[other])
    out[zero] = k0e(x[zero])
    out[one] = k1e(x[one])
    return out


def log_bessel_k(rho, z):
    """log K_rho(2z) elementwise over arrays of orders and of z > 0 that
    broadcast together, from the exponentially scaled e^x K_rho(x) at
    x = 2z, so that the e^(-x) decay neither underflows nor loses relative
    accuracy.  The route is chosen per element: k0e at order 0, k1e at
    orders +-1, kve at every other order, so an array of orders gives the
    same bits as one call per order.  kve returns NaN from x = 2^30 on
    (k0e and k1e do not); there the value is the large-argument expansion
    1/2 log(pi/2x) - x + log1p((4 rho^2 - 1)/8x) (DLMF 10.40.2), whose
    first term left out, (4 rho^2 - 1)(4 rho^2 - 9)/(128 x^2), is below
    1e-18 for |rho| <= 2.  The domain is tested only when some value is
    not finite, which z <= 0 or NaN makes it."""
    z = np.asarray(z, dtype=float)
    x = 2.0 * z
    out = np.log(_scaled_k(rho, x)) - x
    if np.isfinite(out).all():
        return out
    if not np.all(z > 0):
        raise DomainError("log_bessel_k requires z > 0")
    with np.errstate(divide="ignore"):
        large = 0.5 * np.log(0.5 * math.pi / x) - x + np.log1p(
            (4.0 * np.square(rho) - 1.0) / (8.0 * x))
    return np.where(np.isnan(out), large, out)[()]


REFERENCE_BLOCK_VALUES = 2 ** 13   # integrand values per block of bessel_k_reference


def bessel_k_reference(rho, z):
    """K_rho(2z) by the trapezoid rule on the integral representation
    (DLMF 10.32.9), elementwise over arrays of rho and z > 0 that broadcast
    together; scalars give a float.  The independent reference route, used
    only by the checks and the tests.

    With x = 2z the rule sums the scaled integrand
    e^x K_rho(x) = integral_0^inf exp(-2x sinh^2(t/2)) cosh(rho t) dt,
    which is positive and analytic in a strip, so the rule converges
    geometrically in 1/h.  The step is h = min(0.05, 0.6/sqrt(x)): near
    t = 0 the integrand is a Gaussian of width 1/sqrt(x), and a fixed
    h = 0.05 is off by 5e-12 at x = 300.  The sum stops at T where
    x (cosh T - 1) = log(1e18) + log(1 + x)/2 + |rho| T, so that the
    integrand left out is below 1e-18 of the integral (e^x K_0(x) stays
    above 1/sqrt(1 + x)).  Agrees with mpmath at 30 digits to 4e-15
    relative for |rho| <= 5 and 1e-6 <= z <= 150.

    The (points x nodes) table of the integrand is built in blocks of rows
    of about REFERENCE_BLOCK_VALUES values.  Every row has the common node
    count (the largest), so each point's sum does not depend on the
    blocking."""
    rho, z = np.broadcast_arrays(np.asarray(rho, dtype=float), np.asarray(z, dtype=float))
    if not np.all(z > 0):
        raise DomainError("bessel_k_reference requires z > 0")
    r = np.abs(rho).ravel()
    x = 2.0 * z.ravel()
    h = np.minimum(0.05, 0.6 / np.sqrt(x))
    left_out = math.log(1e18) + 0.5 * np.log1p(x)
    t_max = np.arccosh(1.0 + left_out / x)
    for _ in range(6):  # contracting fixed-point iteration for T
        t_max = np.arccosh(1.0 + (left_out + r * t_max) / x)
    steps = np.ceil(t_max / h).astype(int)
    k = np.arange(1, steps.max(initial=0) + 1)
    sums = np.empty(x.size)
    rows = max(1, REFERENCE_BLOCK_VALUES // max(k.size, 1))
    for a in range(0, x.size, rows):
        b = slice(a, a + rows)
        inside = k <= steps[b, None]
        t = h[b, None] * np.where(inside, k, 0)
        f = np.exp(-2.0 * x[b, None] * np.sinh(0.5 * t) ** 2) * np.cosh(r[b, None] * t)
        sums[b] = np.sum(np.where(inside, f, 0.0), axis=1)
    scaled = h * (0.5 + sums)
    return (scaled * np.exp(-x)).reshape(z.shape)[()]


def v_rho(rho: float, x: float) -> float:
    """V_rho(x) = Gamma(rho) / (2 x^rho K_rho(2x)), with V_rho(0) = 1."""
    return math.exp(log_v_rho(rho, x))


def log_v_rho(rho, x):
    """log V_rho(x) elementwise over arrays of orders rho > 0 and of x >= 0
    that broadcast together (0 at x = 0); stable for large x, where V grows
    like e^(2x).  Scalars give a scalar."""
    rho = np.asarray(rho, dtype=float)
    if not np.all(rho > 0):
        raise DomainError(f"v_rho requires rho > 0, got {rho}")
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0):
        raise DomainError("v_rho requires x >= 0")
    pos = x > 0
    xp = np.where(pos, x, 1.0)
    out = gammaln(rho) - math.log(2.0) - rho * np.log(xp) - log_bessel_k(rho, xp)
    return np.where(pos, out, 0.0)[()]


def v_rho_asymptotic(rho: float, x: float) -> float:
    """Leading small-x behaviour of V_rho, with the three branches

    rho < 1:  1 + x^(2 rho) Gamma(1-rho)/Gamma(1+rho)
    rho = 1:  1 - 2 x^2 (log x + euler_gamma - 1/2)
    rho > 1:  1 + x^2 / (rho - 1)

    The coefficients follow from the small-argument series
    2 x^rho K_rho(2x) = Gamma(rho) (1 + x^2/(1-rho) + ...) (non-integer rho)
    and 2 x K_1(2x) = 1 + 2 x^2 (log x + euler_gamma - 1/2) + ..., so the
    relative error of each branch against V_rho(x) - 1 vanishes as x -> 0."""
    if not rho > 0:
        raise DomainError(f"v_rho_asymptotic requires rho > 0, got {rho}")
    if not x >= 0:
        raise DomainError(f"v_rho_asymptotic requires x >= 0, got {x}")
    if x == 0.0:
        return 1.0
    if abs(rho - 1.0) < 1e-6:
        return 1.0 - 2.0 * x * x * (math.log(x) + np.euler_gamma - 0.5)
    if rho < 1.0:
        return 1.0 + x ** (2.0 * rho) * math.exp(gammaln(1.0 - rho) - gammaln(1.0 + rho))
    return 1.0 + x * x / (rho - 1.0)


def levy_density_radial(dims: Dimensions, r):
    """Radially symmetric jump density g(xi) = |xi|^(-(n-1)/2) K_{(n-1)/2}(2|xi|)
    as a function of the radius r = |xi| > 0, elementwise over arrays.
    |xi| g(xi) is integrable near 0 but g itself is not."""
    r = np.asarray(r, dtype=float)
    if not np.all(r > 0):
        raise DomainError("radius must be positive")
    rho = dims.d / 2.0
    return np.exp(-rho * np.log(r) + log_bessel_k(rho, r))[()]


def sphere_area(d: int) -> float:
    """Area 2 pi^(d/2) / Gamma(d/2) of the unit sphere in R^d (2 at d = 1)."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def log_nu_radial_density(dims: Dimensions, lam, r):
    """log of the (infinite-mass) density on R^(n-1) of a single cell of mass
    0 < lam < n - 1 of the nu law, at radii r > 0, elementwise over arrays
    of masses and radii that broadcast together:

        pi^(-(n-1)/2) * 2^(-lam) * Gamma((n-1-lam)/2)/Gamma(lam/2) * r^(lam-n+1).

    It is homogeneous of degree lam - n + 1 in the cell vector."""
    d = dims.d
    lam = np.asarray(lam, dtype=float)
    if not np.all((lam > 0) & (lam < d)):
        raise DomainError(f"nu-side formulas need 0 < lam < n - 1 = {d}, got {lam}")
    r = np.asarray(r, dtype=float)
    if not np.all(r > 0):
        raise DomainError("radius must be positive")
    return (
        -0.5 * d * math.log(math.pi)
        - lam * math.log(2.0)
        + (gammaln((d - lam) / 2.0) - gammaln(lam / 2.0))
        + (lam - d) * np.log(r)
    )[()]


def log_cell_ratio(dims: Dimensions, lam, r):
    """log of one cell's factor 2^(-lam) V_{(n-1-lam)/2}(r) of the density
    ratio d nu / d mu, elementwise over arrays of masses 0 < lam < n - 1 and
    radii r >= 0 that broadcast together.  It comes from V, not from the
    difference of the two log densities, so the ratio and the pair of
    densities are independent routes."""
    lam = np.asarray(lam, dtype=float)
    return (-lam * math.log(2.0) + log_v_rho((dims.d - lam) / 2.0, r))[()]


def log_marginal_radial_density(dims: Dimensions, lam, r):
    """log of the probability density on R^(n-1) of a single cell of mass
    lam > 0 of the gamma-type vector law, at radii r > 0, elementwise over
    arrays of masses and radii that broadcast together:

        pi^(-(n-1)/2) * (2/Gamma(lam/2)) * r^((lam-n+1)/2) * K_{(n-1-lam)/2}(2r).

    The pi^(-(n-1)/2) prefactor normalises the radial kernel to total mass
    one (the kernel alone integrates to pi^((n-1)/2) for every lam), so this
    is the exact law of the Gaussian mixture sampler."""
    lam = np.asarray(lam, dtype=float)
    if not np.all(lam > 0):
        raise DomainError(f"mass parameter must be positive, got {lam}")
    r = np.asarray(r, dtype=float)
    if not np.all(r > 0):
        raise DomainError("radius must be positive")
    d = dims.d
    rho = (d - lam) / 2.0
    return (
        -0.5 * d * math.log(math.pi)
        + math.log(2.0)
        - gammaln(lam / 2.0)
        + 0.5 * (lam - d) * np.log(r)
        + log_bessel_k(rho, r)
    )[()]
