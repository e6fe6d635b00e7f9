"""Finite-dimensional marginals of the infinite-dimensional pair (mu, nu):
mu is the law of the gamma-type vector-valued Levy process over the base
space X (modeled as the interval [0, total_mass] with Lebesgue mass), nu its
projectively invariant companion.  A partition of X induces, for each cell
of mass lam_i, an R^d-valued coordinate, and the cell marginals are

    mu_alpha:  product of pi^(-d/2) (2/Gamma(lam/2)) |xi|^((lam-d)/2)
               K_{(d-lam)/2}(2|xi|)           (a probability density),
    nu_alpha:  product of pi^(-d/2) 2^(-lam) Gamma((d-lam)/2)/Gamma(lam/2)
               |xi|^(lam-d)                   (infinite total mass, lam < d),

with d = n - 1.  The pi^(-d/2) factors normalise mu to total mass one; they
cancel in the density ratio, so

    d nu_alpha / d mu_alpha = 2^(-m(X)) prod_k V_{(d-lam_k)/2}(|xi^k|)

holds with the same 2^(-m(X)) prefactor in every dimension (for n = 2 it is
sometimes convenient to absorb it into the cell factors; we never do).  The
three cell laws are written once, in specfun; the joint densities here sum
them over the cells, all cells (and any batch of points) in one call.
Coherence under refinement is checked exactly (coherence_exact, which draws
gamma alone) and by Monte Carlo (coherence_mc, a chi-square test of sample
means against their exact means and covariance)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import DomainError
from .specfun import Dimensions


@dataclass(frozen=True)
class Partition:
    """Finite measurable partition of X = [0, total_mass]: consecutive cells
    with the given positive, finite masses."""

    masses: tuple

    def __init__(self, masses):
        object.__setattr__(self, "masses", tuple(float(m) for m in masses))
        if not all(0.0 < m < math.inf for m in self.masses):
            raise DomainError("all cell masses must be positive and finite")

    @property
    def size(self) -> int:
        return len(self.masses)

    @property
    def total_mass(self) -> float:
        return float(sum(self.masses))

    @property
    def edges(self) -> np.ndarray:
        return np.concatenate(([0.0], np.cumsum(self.masses)))

    def require_nu_valid(self, dims: Dimensions) -> "Partition":
        if any(m >= dims.d for m in self.masses):
            raise DomainError(
                f"nu-side formulas need every cell mass < n - 1 = {dims.d}"
            )
        return self


@dataclass(frozen=True)
class Refinement:
    """A partition beta refining alpha: assignment[j] is the alpha-cell
    containing beta-cell j."""

    coarse: Partition
    fine: Partition
    assignment: tuple

    def __post_init__(self):
        sums = np.zeros(self.coarse.size)
        for j, i in enumerate(self.assignment):
            sums[i] += self.fine.masses[j]
        if np.abs(sums - np.asarray(self.coarse.masses)).max() > 1e-12:
            raise DomainError("fine masses do not add up to the coarse ones")

    def group_sum(self, xi_fine: np.ndarray) -> np.ndarray:
        """Sum fine-cell vectors into coarse cells (the projection that
        intertwines the two marginals), over the cell axis of an array
        (..., fine cells, d): one matrix product of the flattened cells with
        the 0/1 assignment matrix kron I_d.  Its zero terms add nothing, so
        where no coarse cell collects more than two fine cells it equals the
        loop out[i] += xi[j] bit for bit; with more, the product may add
        them in another order, which moves the sum by rounding."""
        xi_fine = np.asarray(xi_fine, dtype=float)
        batch, d = xi_fine.shape[:-2], xi_fine.shape[-1]
        assign = np.eye(self.coarse.size)[list(self.assignment)]
        out = xi_fine.reshape(batch + (-1,)) @ np.kron(assign, np.eye(d))
        return out.reshape(batch + (self.coarse.size, d))


def split_evenly(partition: Partition, parts: int) -> Refinement:
    fine, assign = [], []
    for i, m in enumerate(partition.masses):
        for _ in range(parts):
            fine.append(m / parts)
            assign.append(i)
    return Refinement(partition, Partition(fine), tuple(assign))


def _as_cells(partition: Partition, dims: Dimensions, xi) -> np.ndarray:
    """One point as an array (cells, d), a flat one as (cells * d,), or a
    batch of points as (..., cells, d)."""
    xi = np.asarray(xi, dtype=float)
    if xi.ndim == 1:
        xi = xi.reshape(partition.size, dims.d)
    if xi.shape[-2:] != (partition.size, dims.d):
        raise DomainError(f"expected shape {(partition.size, dims.d)}, got {xi.shape}")
    return xi


def _as_point(partition: Partition, dims: Dimensions, xi) -> np.ndarray:
    xi = _as_cells(partition, dims, xi)
    if xi.ndim != 2:
        raise DomainError(f"expected one point of shape {(partition.size, dims.d)}, "
                          f"got {xi.shape}")
    return xi


def char_l(gamma):
    """One-dimensional-mass characteristic function L(gamma) = (1+|gamma|^2/4)^(-1/2)
    of one vector gamma, which gives a float, or elementwise over the last
    axis of an array (..., d) of vectors."""
    g = np.atleast_1d(np.asarray(gamma, dtype=float))
    out = (1.0 + (g[..., None, :] @ g[..., :, None])[..., 0, 0] / 4.0) ** -0.5
    return float(out) if g.ndim == 1 else out


def big_psi(partition: Partition, dims: Dimensions, gamma) -> float:
    """Characteristic functional of mu_alpha:
    Psi(gamma) = prod_i (1 + |gamma^i|^2/4)^(-lam_i/2)."""
    gamma = _as_point(partition, dims, gamma)
    acc = 0.0
    for lam, g in zip(partition.masses, gamma):
        acc += -0.5 * lam * math.log1p(float(g @ g) / 4.0)
    return math.exp(acc)


def _cell_sum(law, dims: Dimensions, partition: Partition, xi):
    """The sum over the cells of a specfun cell law at the cell radii of xi,
    one call of the law over all cells: a float for one point, an array of
    the batch shape for a batch (..., cells, d) of points."""
    radii = np.linalg.norm(_as_cells(partition, dims, xi), axis=-1)
    total = np.sum(law(dims, np.asarray(partition.masses), radii), axis=-1)
    return float(total) if np.ndim(total) == 0 else total


def log_mu_alpha_density(dims: Dimensions, partition: Partition, xi):
    """log of the joint probability density of the cell marginals of mu, the
    sum of the mu cell laws; at one point (a float) or over a batch of
    points (..., cells, d)."""
    return _cell_sum(specfun.log_marginal_radial_density, dims, partition, xi)


def log_nu_alpha_density(dims: Dimensions, partition: Partition, xi):
    """log of the density of the (sigma-finite) nu marginal, the sum of the
    nu cell laws, at one point or over a batch of points as
    log_mu_alpha_density; the density is homogeneous of degree lam_i - d in
    each cell vector."""
    return _cell_sum(specfun.log_nu_radial_density, dims, partition, xi)


def log_rn_derivative(dims: Dimensions, partition: Partition, xi):
    """log d nu_alpha / d mu_alpha (xi) = log(2^(-m(X)) prod_k V_{(d-lam_k)/2}(|xi^k|)),
    the sum of the cell ratios, at one point or over a batch of points as
    log_mu_alpha_density."""
    partition.require_nu_valid(dims)
    return _cell_sum(specfun.log_cell_ratio, dims, partition, xi)


def log_density_v(dims: Dimensions, total_mass: float, radii) -> float:
    """log of the partition-free limit density v = d nu / d mu on point
    configurations, 2^(-m(X)) prod_i V_{(n-1)/2}(|c^i|) over the atom
    amplitudes |c^i|."""
    log_v = specfun.log_v_rho(dims.d / 2.0, np.atleast_1d(radii))
    return -float(total_mass) * math.log(2.0) + float(np.sum(log_v))


def nu_char(partition: Partition, dims: Dimensions, gamma) -> float:
    """The nu-side characteristic product prod_i |gamma^i|^(-lam_i)."""
    gamma = _as_point(partition, dims, gamma)
    acc = 0.0
    for lam, g in zip(partition.masses, gamma):
        r = float(np.linalg.norm(g))
        if r == 0.0:
            raise DomainError("nu_char needs every cell component nonzero")
        acc += -lam * math.log(r)
    return math.exp(acc)


# The Monte Carlo estimators draw and evaluate this many samples at a time,
# so their memory does not grow with the sample count
MC_BLOCK = 2 ** 14


def mc_blocks(n_samples: int):
    """The sizes of the MC_BLOCK-sample blocks of an n_samples-sample
    estimate, the last one short."""
    return [min(MC_BLOCK, n_samples - start) for start in range(0, n_samples, MC_BLOCK)]


def cosine_moments(partition: Partition, dims: Dimensions, gammas):
    """Exact mean and covariance of the cosines cos <gamma_a, xi>, xi drawn
    from mu_alpha, at the frequencies gammas, m points of big_psi (each
    (cells, d) or flat): as Psi is real and even, E cos <gamma_a, xi> =
    Psi(gamma_a), and cos A cos B = (cos(A + B) + cos(A - B)) / 2 gives
    Cov_ab = (Psi(gamma_a + gamma_b) + Psi(gamma_a - gamma_b)) / 2 - Psi(gamma_a) Psi(gamma_b)."""
    gammas = np.asarray(gammas, dtype=float)
    mean = np.array([big_psi(partition, dims, g) for g in gammas])
    second = np.array([[(big_psi(partition, dims, a + b) + big_psi(partition, dims, a - b)) / 2.0
                        for b in gammas] for a in gammas])
    return mean, second - np.outer(mean, mean)


def mixing_laplace(partition: Partition, t):
    """L(t) = prod_c (1 + t_c)^(-lam_c/2), the Laplace transform
    E exp(-sum_c t_c S_c) of independent S_c ~ Gamma(lam_c/2, 1), one per
    cell, over the last axis of an array t (..., cells)."""
    t = np.asarray(t, dtype=float)
    return np.exp(np.log1p(t) @ (-0.5 * np.asarray(partition.masses)))


def laplace_moments(partition: Partition, ts):
    """Exact mean and covariance of exp(-sum_c t_ac S_c) at the rows t_a of
    ts (m, cells), S_c the cells' mixing sums as in mixing_laplace: the
    product of two is the exponential at t_a + t_b, so
    Cov_ab = L(t_a + t_b) - L(t_a) L(t_b)."""
    ts = np.asarray(ts, dtype=float)
    mean = mixing_laplace(partition, ts)
    return mean, mixing_laplace(partition, ts[:, None, :] + ts[None, :, :]) - np.outer(mean, mean)


def coherence_exact(dims: Dimensions, refinement: Refinement, stream) -> float:
    """Consistency of the marginal families under refinement, exactly: for
    gamma constant on each coarse cell (drawn from the stream), the nu-side
    product over the fine cells equals the coarse product, and big_psi
    agrees likewise (mass additivity).  Returns the larger of the two
    log residuals."""
    coarse, fine = refinement.coarse, refinement.fine
    gamma_c = stream.rng.normal(size=(coarse.size, dims.d))
    gamma_f = np.asarray([gamma_c[i] for i in refinement.assignment])
    return max(abs(math.log(law(fine, dims, gamma_f)) - math.log(law(coarse, dims, gamma_c)))
               for law in (nu_char, big_psi))


def coherence_mc(dims: Dimensions, refinement: Refinement, stream, n_samples: int,
                 frequencies, conditional: bool = False) -> float:
    """Consistency of the marginal families under refinement, by Monte
    Carlo: fine samples of mu, group-summed to the coarse partition, have
    the coarse partition's law.  m statistics are averaged over n_samples
    draws from the stream, MC_BLOCK at a time, each block summed by one
    group_sum, and their sample means d away from the exact means of
    cosine_moments or laplace_moments are read against the exact
    covariance Sigma: q = n_samples d^T Sigma^(-1) d, which under the null
    follows chi-square with m degrees of freedom.

    The raw statistics are cos <gamma_a, xi> over fine draws of
    sample_marginal, at the frequencies gamma_a, m points of the coarse
    big_psi.  The conditional ones (Rao-Blackwell) draw only the fine
    cells' mixing variables W by sample_mixing: given W a coarse cell's
    draw is N(0, (S_c/2) I_d), S_c the group sum of W over its fine cells,
    and the statistics are exp(-sum_c t_ac S_c) at the frequencies t
    (m, coarse cells); a block's W fill one (size, fine cells) array column
    by column and the exponential is taken in place.  Returns q."""
    from . import process as P

    coarse, fine = refinement.coarse, refinement.fine
    frequencies = np.asarray(frequencies, dtype=float)
    if conditional:
        mean, cov = laplace_moments(coarse, frequencies)
        weights = -frequencies.T
    else:
        mean, cov = cosine_moments(coarse, dims, frequencies)
        weights = frequencies.reshape(len(frequencies), -1).T

    def block(size):
        if conditional:
            w = np.empty((size, fine.size))
            for i, lam in enumerate(fine.masses):
                w[:, i] = P.sample_mixing(lam, stream, size)
            values = refinement.group_sum(w[..., None])[..., 0] @ weights
            return np.exp(values, out=values)
        draws = refinement.group_sum(P.sample_marginal(dims, fine, stream, size=size))
        values = draws.reshape(size, -1) @ weights
        return np.cos(values, out=values)

    total = np.zeros(len(frequencies))
    for size in mc_blocks(n_samples):
        total += block(size).sum(axis=0)
    dev = total / n_samples - mean
    return float(n_samples * (dev @ np.linalg.solve(cov, dev)))
