"""Tensor-product node grids and grid-sampled functions used by the
finite-dimensional representation operators.

A GridFunction stores one node set per cell (each a quadrature rule on
R^d) and values on the tensor product of the node sets, real (float64)
when they are given real and complex otherwise.  Diagonal operators act on
the values; dilation letters act by transporting the node sets themselves
(so change of variables is exact on the rule), and kernel letters replace
values by quadrature sums back onto a target node set."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_legendre

from .errors import DomainError


@dataclass
class CellGrid:
    """Quadrature rule on R^d: nodes (N, d), weights (N,)."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes = np.atleast_2d(np.asarray(self.nodes, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        if self.nodes.shape[0] != self.weights.shape[0]:
            raise DomainError("nodes/weights length mismatch")

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    @property
    def d(self) -> int:
        return self.nodes.shape[1]

    @property
    def radii(self) -> np.ndarray:
        return np.linalg.norm(self.nodes, axis=1)


@lru_cache(maxsize=32)
def _legendre_rule(count: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order.
    One pass of the three-term recurrence at scipy's roots_legendre gives
    P_n and P_(n-1), so P_n' = n (x P_n - P_(n-1)) / (x^2 - 1) and, by
    Legendre's equation, P_n'' = (2 x P_n' - n (n + 1) P_n) / (1 - x^2).
    One Newton step x -= P_n / P_n' then rounds the nodes correctly (scipy's
    are up to 1.5e-16 off, numpy's leggauss 6e-17), P_n' is carried to the
    new nodes by P_n'', and the weights are 2 / ((1 - x^2) P_n'(x)^2) (Hale &
    Townsend 2013): closer to 40-digit values than leggauss's (2.1e-12
    against 1.1e-10 relative at order 512), in O(n) memory, where leggauss
    eigen-solves a dense n x n companion matrix.  The arrays are read-only:
    every grid derives its own from them."""
    x = roots_legendre(count)[0]
    p_prev, p = np.ones_like(x), x.copy()
    for k in range(2, count + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    dp = count * (x * p - p_prev) / (x * x - 1.0)
    step = p / dp
    dp -= step * (2.0 * x * dp - count * (count + 1) * p) / (1.0 - x * x)
    x -= step
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def grid_1d_sqrt(radius: float, count: int) -> CellGrid:
    """Gauss-Legendre rule in the variable t = sqrt(|xi|) (xi = sign t^2):
    the inversion kernel oscillates linearly in t, and the |xi|^(lam-1)
    norm weight becomes t^(2 lam - 1), regular at the origin for lam >= 1/2.
    The natural rule for the kernel-letter operators."""
    if count % 2:
        raise DomainError("count must be even")
    x, w = _legendre_rule(count // 2)
    t = 0.5 * math.sqrt(radius) * (x + 1.0)
    wt = 0.5 * math.sqrt(radius) * w
    pos = t * t
    wpos = 2.0 * t * wt
    nodes = np.concatenate((-pos[::-1], pos))[:, None]
    weights = np.concatenate((wpos[::-1], wpos))
    return CellGrid(nodes, weights)


def grid_2d_sqrt(radius: float, radial_count: int, angular_count: int) -> CellGrid:
    """Polar rule on the disk of the given radius with Gauss-Legendre nodes
    in t = sqrt(|xi|), as in grid_1d_sqrt, and the trapezoid rule in angle:
    the area element r dr becomes 2 t^3 dt, so the |xi|^(lam-2) weight of
    L^2(nu_alpha) becomes 2 t^(2 lam - 1), regular for lam >= 1/2."""
    x, w = _legendre_rule(radial_count)
    t = 0.5 * math.sqrt(radius) * (x + 1.0)
    r = t * t
    wr = math.sqrt(radius) * w * t ** 3
    th = 2.0 * np.pi * np.arange(angular_count) / angular_count
    rr, tt = np.meshgrid(r, th, indexing="ij")
    nodes = np.stack((rr * np.cos(tt), rr * np.sin(tt)), axis=-1).reshape(-1, 2)
    weights = np.repeat(wr * (2.0 * np.pi / angular_count), angular_count)
    return CellGrid(nodes, weights)


@dataclass
class GridFunction:
    """values on the tensor product of the per-cell grids; values.shape ==
    (cells[0].size, ..., cells[-1].size).  Real values are kept as float64,
    complex ones as complex128."""

    cells: list
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values)
        self.values = vals.astype(complex if np.iscomplexobj(vals) else float, copy=False)
        if self.values.shape != tuple(c.size for c in self.cells):
            raise DomainError("values shape does not match the grids")

    @property
    def l(self) -> int:
        return len(self.cells)

    def scale_values(self, factors) -> "GridFunction":
        """Multiply the values by factors in turn, each a pair (axis, f): a
        vector f along that cell axis, or a scalar f for axis None.  The
        result is allocated once, at the dtype of the values and the
        factors, and every factor multiplies it in place, in the order
        given; so it rounds as a chain of products would, and holds one
        output-sized array.  With no factors the values are not copied."""
        factors = [(axis, np.asarray(f)) for axis, f in factors]
        if not factors:
            return GridFunction(self.cells, self.values)
        vals = np.empty(self.values.shape, np.result_type(self.values, *(f for _, f in factors)))
        source = self.values
        for axis, f in factors:
            if axis is not None:
                shape = [1] * vals.ndim
                shape[axis] = -1
                f = f.reshape(shape)
            np.multiply(source, f, out=vals)
            source = vals
        return GridFunction(self.cells, vals)


def tabulate(cells: list, fn) -> GridFunction:
    """Evaluate fn on the product grid in one call.  fn takes one node array
    per cell: the k-th holds cell k's nodes on axis k of the product grid,
    with length 1 on the other cell axes and the coordinates last, shape
    (1, .., N_k, .., 1, d), so that arrays built from them broadcast over
    the grid; it returns the values, of shape (N_1, .., N_l).  For one cell
    that is fn(nodes (N, d)) -> values (N,).  Real values stay real."""
    shape = tuple(c.size for c in cells)
    nodes = []
    for k, c in enumerate(cells):
        axes = [1] * len(cells)
        axes[k] = c.size
        nodes.append(c.nodes.reshape(axes + [c.d]))
    vals = np.asarray(fn(*nodes))
    if vals.shape != shape:
        raise DomainError(f"fn must map the nodes of the grid to values of shape {shape}, "
                          f"got {vals.shape}")
    return GridFunction(cells, vals)
