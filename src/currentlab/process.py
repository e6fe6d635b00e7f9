"""Samplers: cell marginals of the gamma-type vector law (Gaussian scale
mixture over gamma subordinators), the one-dimensional difference-of-gammas
oracle, and the jump (shot-noise) simulation of the process itself with a
small-jump cutoff."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.interpolate import PchipInterpolator

from . import specfun
from .errors import DomainError
from .specfun import Dimensions


@dataclass
class SeededStream:
    """Deterministic random stream: (seed, stream_id) fixes every draw."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        self.rng = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        )


def sample_mixing(lam: float, stream: SeededStream, size: int) -> np.ndarray:
    """size draws of the mixing variable W ~ Gamma(lam/2, 1) of a cell of
    mass lam: given W, the cell's coordinate of mu is N(0, (W/2) I_d)."""
    return stream.rng.gamma(lam / 2.0, size=size)


def sample_marginal(dims: Dimensions, partition, stream: SeededStream,
                    size: int | None = None) -> np.ndarray:
    """Draw from the joint cell marginal of mu: per cell, W by sample_mixing
    and then xi ~ N(0, (W/2) I_d); cells independent.

    Returns shape (l, d), or (size, l, d) when size is given."""
    single = size is None
    n_draws = 1 if single else int(size)
    l, d = partition.size, dims.d
    out = np.empty((n_draws, l, d))
    for i, lam in enumerate(partition.masses):
        w = sample_mixing(lam, stream, n_draws)
        out[:, i, :] = np.sqrt(w / 2.0)[:, None] * stream.rng.standard_normal((n_draws, d))
    return out[0] if single else out


def oracle_n2(lam: float, stream: SeededStream, size: int | None = None):
    """Independent sampler of the n = 2 cell marginal: the difference of two
    Gamma(lam/2, scale 1/2) variables has characteristic function
    (1 + gamma^2/4)^(-lam/2)."""
    if lam <= 0:
        raise DomainError("gamma shape must be positive")
    n_draws = 1 if size is None else int(size)
    g1 = stream.rng.gamma(lam / 2.0, 0.5, size=n_draws)
    g2 = stream.rng.gamma(lam / 2.0, 0.5, size=n_draws)
    out = g1 - g2
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


class JumpSizeTable:
    """Tabulated inverse of the radial tail intensity
    Lambda(r) = kappa_s * area(S^{d-1}) integral_r^inf s^(d-1) g(s) ds built
    on a log grid; used to draw jump radii by inversion."""

    def __init__(self, dims: Dimensions, cutoff: float, intensity_scale: float,
                 r_max: float = 25.0, grid_size: int = 600):
        if cutoff <= 0 or cutoff >= r_max:
            raise DomainError("cutoff must lie in (0, r_max)")
        self.dims, self.cutoff, self.scale = dims, cutoff, intensity_scale
        d = dims.d
        rs = np.geomspace(cutoff, r_max, grid_size)
        dens = (intensity_scale * specfun.sphere_area(d) * rs ** (d - 1)
                * specfun.levy_density_radial(dims, rs))
        # cumulative tail mass by trapezoid on the log grid (refined enough
        # that the inversion error is far below sampling noise)
        chunks = 0.5 * (dens[1:] + dens[:-1]) * np.diff(rs)
        tail = np.concatenate((np.cumsum(chunks[::-1])[::-1], [0.0]))
        self.total = float(tail[0])
        keep = tail > 0
        self._inv = PchipInterpolator(
            np.log(tail[keep][::-1]), np.log(rs[keep][::-1])
        )
        self._log_tail_range = (math.log(tail[keep].min()), math.log(self.total))

    def sample_radii(self, rng: np.random.Generator, count: int) -> np.ndarray:
        u = rng.random(count) * self.total
        lo, hi = self._log_tail_range
        logu = np.clip(np.log(np.maximum(u, 1e-300)), lo, hi)
        return np.exp(self._inv(logu))


def default_intensity_scale(dims: Dimensions) -> float:
    """Jump intensity prefactor kappa_s = pi^(-d/2): with jump measure
    kappa_s g(xi) dxi per unit mass of X the process has characteristic
    functional exp(-(lam/2) log(1+|gamma|^2/4)) per cell, i.e. exactly mu."""
    return math.pi ** (-dims.d / 2.0)


def truncation_bound(dims: Dimensions, total_mass: float, cutoff: float,
                     intensity_scale: float | None = None) -> float:
    """Expected total amplitude of discarded jumps:
    total_mass * kappa_s * integral_{|xi| < cutoff} |xi| g(xi) dxi."""
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
    directions uniform on the sphere, positions uniform on X."""
    if total_mass <= 0:
        raise DomainError("total_mass must be positive")
    if intensity_scale is None:
        intensity_scale = default_intensity_scale(dims)
    if table is None:
        table = JumpSizeTable(dims, cutoff, intensity_scale)
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
    """Apply an orthogonal matrix (globally, or per atom via a callable of
    the position) to every amplitude."""
    if callable(u):
        amps = np.asarray([c @ np.asarray(u(x), dtype=float)
                           for x, c in zip(config.positions, config.amplitudes)])
    else:
        amps = config.amplitudes @ np.asarray(u, dtype=float)
    return PointConfiguration(config.total_mass, config.positions.copy(),
                              amps, config.truncation_bound)


def scale_config(config: PointConfiguration, factor) -> PointConfiguration:
    """Scale every amplitude by a constant (or position-dependent) factor."""
    if callable(factor):
        amps = np.asarray([float(factor(x)) * c
                           for x, c in zip(config.positions, config.amplitudes)])
    else:
        amps = float(factor) * config.amplitudes
    return PointConfiguration(config.total_mass, config.positions.copy(),
                              amps, config.truncation_bound)
