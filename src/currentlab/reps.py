"""The complementary-series representations T^lambda of the rank-one group,
their commutative (Fourier) model on grid functions, the current-group
operators over a partition, the involution, and the R transform.

Standard model: T_g f(gamma) = f(gamma.g) beta(gamma, g)^(1-n+lambda/2) on
functions over R^d with the pairing  <f1,f2> = integral integral
|gamma' - gamma''|^(-lambda) f1 f2.  Commutative model on the Fourier side:

    z(gamma0):  phi(xi) -> e^{i<xi,gamma0>} phi(xi)
    d(eps,u) :  phi(xi) -> |eps|^(lambda/2) phi(eps xi u)
    s        :  phi(xi) -> integral A_op(xi, xi') phi(xi') dxi'

with squared norm  (2^-lambda Gamma((d-lambda)/2)/Gamma(lambda/2))
integral |xi|^(lambda-d) |phi|^2 dxi, pi^(d/2) times the L^2(nu_lambda)
norm; every pairing here weights its cells by the nu cell law of specfun.

The operator kernel A_op carries the constant (2/pi) 2^(-lambda/2) in front
of a raw oscillatory integral, which has a Bessel closed form at n = 2 and
at n = 3 (_kernel_block_n2, _kernel_block_n3); this is the normalisation
forced by Fourier inversion (the (2 pi)^d of the inverse transform), and it
is what makes s an involution numerically.

The kernel letter need not fix the vacuum: for phi = vacuum_evaluator
|xi|^((d-lambda)/2) at lambda = 1/2, <T_s phi, phi> / ||phi||^2 reads 0.9441
on grid_1d_sqrt(50, 182) and (200, 362) alike.  The one-cell canonical state
is Psi(g) = |<g o, o>|^(-lambda/2) with o = (1, 0, ..., 0, -1)/sqrt 2, and
|<g o, o>| = cosh t for t = dist(o, g o) in H^n.  With a = lambda/2,

    Delta cosh^(-a) t = cosh^(-a) t [a (a + 1) tanh^2 t - a n]

is not a constant multiple of cosh^(-a) t, so Psi is the spherical function
of no irreducible representation: as the z-orbit of o meets every t, a
vector of T^lambda fixed by the stabiliser of o (which holds s) cannot
reproduce Psi on the z-letters."""

from __future__ import annotations

import math
import threading
from collections import OrderedDict

import numpy as np
from scipy.special import gamma as _gamma, hankel1, hankel1e, hankel2e

from . import group as G
from . import measures as M
from . import quadrature as Q
from . import specfun
from .errors import DomainError
from .gridfn import (CellGrid, GridFunction, _legendre_rule, grid_1d_sqrt,
                     grid_2d_sqrt, tabulate)
from .specfun import Dimensions


# ---------------------------------------------------------------------------
# norms and inner products
# ---------------------------------------------------------------------------

def _nu_weights(dims: Dimensions, partition: M.Partition, cells: list) -> list:
    """Per cell, the quadrature weights times the nu cell density."""
    return [c.weights * np.exp(specfun.log_nu_radial_density(dims, lam, c.radii))
            for lam, c in zip(partition.masses, cells)]


def nu_inner(dims: Dimensions, partition: M.Partition, phi1: GridFunction,
             phi2: GridFunction) -> complex:
    """L^2(nu_alpha) pairing on the product grid."""
    prod = GridFunction(phi1.cells, phi1.values * np.conj(phi2.values))
    weights = _nu_weights(dims, partition, phi1.cells)
    return complex(prod.scale_values(enumerate(weights)).values.sum())


def nu_norm(dims: Dimensions, partition: M.Partition, phi: GridFunction) -> float:
    return float(nu_inner(dims, partition, phi, phi).real)


def comm_norm(dims: Dimensions, lam: float, phi: GridFunction) -> float:
    """Squared norm in the commutative model of a single-cell function,
    2^(-lam) Gamma((d-lam)/2)/Gamma(lam/2) sum w |xi|^(lam-d) |phi|^2,
    which is pi^(d/2) times its squared norm in L^2(nu_lam)."""
    if phi.l != 1:
        raise DomainError("comm_norm is the single-cell norm")
    return math.pi ** (dims.d / 2.0) * nu_norm(dims, M.Partition((lam,)), phi)


# ---------------------------------------------------------------------------
# standard-model pairing
# ---------------------------------------------------------------------------

def gaussian_pairing(dims: Dimensions, lam: float) -> float:
    """Closed form of the standard-model pairing of f(g) = e^(-|g|^2) on R^d
    with itself under |u|^(-lam), 0 < lam < d:

        (pi/2)^(d/2) |S^(d-1)| 2^((d-lam)/2 - 1) Gamma((d-lam)/2).

    With g' = g'' + u the inner integral is the autocorrelation of f,
    (pi/2)^(d/2) e^(-|u|^2/2), and the radial integral of r^(d-1-lam)
    e^(-r^2/2) is 2^((d-lam)/2 - 1) Gamma((d-lam)/2)."""
    d = dims.d
    if not 0 < lam < d:
        raise DomainError("gaussian_pairing needs 0 < lam < d")
    half = (d - lam) / 2.0
    return ((math.pi / 2.0) ** (d / 2.0) * specfun.sphere_area(d)
            * 2.0 ** (half - 1.0) * math.gamma(half))


# radial_pairing's fixed rules: the radial integral on [0, _PAIR_TOP] in
# _PAIR_PANELS graded panels of _PAIR_PTS nodes, the autocorrelation on the
# box [-_PAIR_BOX, _PAIR_BOX]^d at _PAIR_NODES Gauss-Legendre nodes per axis,
# and about _PAIR_BLOCK shifted points at a time (a transient peak of about
# 0.8 MB at d = 2)
_PAIR_TOP, _PAIR_PANELS, _PAIR_PTS = 10.0, 5, 12
_PAIR_BOX, _PAIR_NODES = 6.0, 64
_PAIR_BLOCK = 2 ** 14


def radial_pairing(dims: Dimensions, lam, f1, f2) -> float:
    """The standard-model pairing of f1 and f2 under the kernel
    prod_i |g' - g''|^(-lam_i), by a fixed quadrature rule, for radial f1
    and f2 that are negligible outside the box |g_i| <= 6 and no narrower
    than e^(-2|g|^2) (the rule's node spacing), and whose autocorrelation
    is negligible beyond |u| = 10:

        |S^(d-1)| integral_0^10 r^(d-1) prod_i r^(-lam_i) A(r) dr,
        A(r) = integral f1(g + r e_1) f2(g) dg.

    lam is one exponent or a sequence of them, a sequence being the kernel
    of the embedded tensor tau f (the embedding's diagonal support collapses
    every cell onto one pair of points); f1 and f2 map (N, d) points to (N,)
    values.  The radial rule is quadrature._graded_rule with singularity
    exponent d - 1 - sum lam_i; A takes one Gauss-Legendre product rule in
    g, with the radii in blocks of about _PAIR_BLOCK points per call of f1.
    For e^(-|g|^2) at d = 1, 2 the result is within 1e-14 of
    gaussian_pairing; 52 nodes per axis would do for it, but leave
    e^(-|g|^2) against e^(-2|g|^2) 8e-11 off."""
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    total = float(np.sum(lams))
    d = dims.d
    if not 0 < total < d:
        raise DomainError("radial_pairing needs 0 < sum(lam) < d")
    r, w = Q._graded_rule(_PAIR_TOP, _PAIR_PANELS, d - 1.0 - total, _PAIR_PTS)
    x, wx = _legendre_rule(_PAIR_NODES)
    g = np.stack(np.meshgrid(*[_PAIR_BOX * x] * d, indexing="ij"), axis=-1).reshape(-1, d)
    wg = np.prod(np.meshgrid(*[_PAIR_BOX * wx] * d, indexing="ij"), axis=0).ravel()
    wf2 = wg * _integrand_values(f2, g)
    auto = np.empty_like(r)
    step = max(1, _PAIR_BLOCK // len(g))
    for start in range(0, len(r), step):
        radii = r[start:start + step]
        shifted = np.repeat(g[None], len(radii), axis=0)
        shifted[..., 0] += radii[:, None]
        values = _integrand_values(f1, shifted.reshape(-1, d))
        auto[start:start + step] = values.reshape(len(radii), -1) @ wf2
    return float(specfun.sphere_area(d)
                 * np.sum(w * r ** (d - 1) * _kernel_product(r, lams) * auto))


def _kernel_product(r: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """The per-cell kernel prod_i r^(-lam_i), its factors multiplied in order."""
    kern = r ** (-lams[0])
    for li in lams[1:]:
        kern = kern * r ** (-li)
    return kern


def _integrand_values(f, points: np.ndarray) -> np.ndarray:
    vals = np.asarray(f(points))
    if vals.shape != points.shape[:1]:
        raise DomainError("a pairing integrand maps (N, d) points "
                          f"to (N,) values, got shape {vals.shape}")
    return vals


# ---------------------------------------------------------------------------
# operator kernel and its discretization
# ---------------------------------------------------------------------------

def _op_coeff(lam: float) -> float:
    """The constant (2/pi) 2^(-lam/2) of A_op in front of the raw kernel
    integral."""
    return (2.0 / math.pi) * 2.0 ** (-lam / 2.0)


def _kernel_terms(lam: float, w: np.ndarray) -> np.ndarray:
    """The Bessel factor of the n = 2 kernel entries at the points w, for
    xi xi' < 0 (row 0) and for xi xi' > 0 (row 1); see _kernel_block_n2.
    At lam = 1/2 both orders are 1/2, where H^(1)_{1/2}(w) =
    -i sqrt(2/(pi w)) e^{iw} and K_{1/2}(w) = sqrt(pi/(2w)) e^{-w}
    (DLMF 10.16.1, 10.39.2) replace hankel1 and specfun's K route."""
    nu = 1.0 - lam
    with np.errstate(under="ignore"):
        if lam == 0.5:
            root = np.sqrt(2.0 / (math.pi * w))
            h_real, h_imag = root * np.sin(w), -root * np.cos(w)
            k = 0.5 * math.pi * root * np.exp(-w)
        else:
            h = hankel1(nu, w)
            h_real, h_imag = h.real, h.imag
            k = specfun._scaled_k(lam - 1.0, w) * np.exp(-w)
    d = np.empty((2,) + w.shape)
    d[1] = math.pi / (2.0 * math.cos(0.5 * math.pi * lam)) * (
        -2.0 * math.sin(0.5 * math.pi * nu) ** 2 * h_real - math.sin(math.pi * nu) * h_imag)
    d[0] = 2.0 * math.sin(0.5 * math.pi * lam) * k
    return d


def _kernel_block_n2(lam: float, xi: np.ndarray, xi_prime: np.ndarray) -> np.ndarray:
    """Vectorized n = 2 closed-form kernel block A_op(xi_i, xi'_j), the
    Bessel closed form of the raw integral
    I = integral cos(xi x + 2 xi'/x) x^(lam-2) dx:

        I = pi / (2 cos(pi lam / 2)) * |2 xi'/xi|^((lam-1)/2) * D(w),
        w = 2^(3/2) |xi xi'|^(1/2),
        D = J_{lam-1}(w) - J_{1-lam}(w)  if xi xi' > 0,
        D = I_{lam-1}(w) - I_{1-lam}(w)  if xi xi' < 0.

    On the first branch, with nu = 1 - lam, the reflection
    J_{-nu} = cos(nu pi) J_nu - sin(nu pi) Y_nu (DLMF 10.4.7) gives
    D = -2 sin^2(nu pi/2) J_nu(w) - sin(nu pi) Y_nu(w), and J_nu and Y_nu
    are the real and imaginary parts of one Hankel function
    H^(1)_nu = J_nu + i Y_nu (DLMF 10.4.3), about five times faster than
    scipy's jv and yv and closer to the 30-digit values.  On the second
    branch the product of the prefactor and D is taken as
    2 sin(pi lam/2) K_{lam-1}(w) (the I difference cancels catastrophically
    for large w).  At lam = 1/2 both Bessel functions are elementary:
    H^(1)_{1/2}(w) = -i sqrt(2/(pi w)) e^{iw} and
    K_{1/2}(w) = sqrt(pi/(2w)) e^{-w} (_kernel_terms).  The tests take
    their reference values from mpmath.

    An entry depends only on the magnitudes (|xi_i|, |xi'_j|) and on
    whether xi_i xi'_j > 0.  So the block is built from one table per sign
    case over the distinct magnitude pairs, holding coeff * amp * D, and
    one gather of the full block at the end.  The Bessel terms of both
    cases are evaluated once per distinct product |xi| |xi'| of the pairs.
    |x y| = |x| |y| exactly, so the block equals the entrywise formula bit
    for bit."""
    ax, ix = np.unique(np.abs(xi), return_inverse=True)
    ay, iy = np.unique(np.abs(xi_prime), return_inverse=True)
    prod, ip = np.unique(ax[:, None] * ay[None, :], return_inverse=True)
    amp = (2.0 * ay[None, :] / ax[:, None]) ** ((lam - 1.0) / 2.0)
    d = _kernel_terms(lam, 2.0 ** 1.5 * np.sqrt(prod))
    tables = _op_coeff(lam) * amp * d[:, ip.reshape(amp.shape)]
    same = np.multiply.outer(np.sign(xi), np.sign(xi_prime)) > 0
    return tables[same.view(np.uint8), ix[:, None], iy[None, :]]


def _kernel_block_n3(lam: float, xi: np.ndarray, xi_prime: np.ndarray) -> np.ndarray:
    """Vectorized n = 3 closed-form kernel block A_op(xi_i, xi'_j) for the
    rows xi_i of xi and xi'_j of xi_prime, points of R^2, from the Bessel
    closed form of the raw integral
    J = integral_0^inf r^(lam-3) J_0(|r xi + 2 xi'/r|) dr.  With xi and xi'
    read as complex numbers, nu = 1 - lam/2 and w = sqrt(2 conj(xi) xi'),

        J = pi 2^(lam/2-2) / sin(pi lam/2) * |xi/xi'|^nu
            * (1/2) Re[(e^{2 i pi nu} - 1) H^(1)_nu(w) conj(H^(2)_nu(w))].

    As sin(pi nu) = sin(pi lam/2), the factor (e^{2 i pi nu} - 1) /
    sin(pi lam/2) is 2i e^{i pi nu}, so the block takes
    J = -pi 2^(lam/2-2) |xi/xi'|^nu Im[e^{i pi nu} H^(1)_nu conj(H^(2)_nu)],
    which does not cancel as lam nears 0 or 2.  The product is
    hankel1e(nu, w) conj(hankel2e(nu, w)) e^{2i Re w}: the scaled functions
    carry e^{-iw} and e^{iw}, so neither overflows where |Im w| is large.
    H^(1)_nu(w) conj(H^(2)_nu(w)) = H^(1)_nu(w) H^(1)_nu(conj w) for real
    nu, so either square root of a negative conj(xi) xi' gives the entry."""
    z = xi[:, 0] + 1j * xi[:, 1]
    zp = xi_prime[:, 0] + 1j * xi_prime[:, 1]
    nu = 1.0 - 0.5 * lam
    w = np.sqrt(2.0 * np.multiply.outer(z.conj(), zp))
    h = hankel1e(nu, w) * hankel2e(nu, w).conj() * np.exp(2j * w.real)
    amp = np.divide.outer(np.abs(z), np.abs(zp)) ** nu
    return (-_op_coeff(lam) * math.pi * 2.0 ** (0.5 * lam - 2.0)) * amp * (
        np.exp(1j * math.pi * nu) * h).imag


# Least recently used matrices are dropped beyond this many: a `check all`
# round builds 7 and reuses each within a few calls.  The check runner's
# threads share the cache, so reordering and eviction hold the lock.
_KERNEL_CACHE_SIZE = 16
_KERNEL_CACHE: OrderedDict = OrderedDict()
_KERNEL_LOCK = threading.Lock()


def kernel_matrix(dims: Dimensions, lam: float, target: CellGrid,
                  source: CellGrid) -> np.ndarray:
    """M[i, j] = A_op(target_i, source_j) * w_j, cached on grid content:
    the Bessel closed form of _kernel_block_n2 or _kernel_block_n3."""
    if dims.n not in (2, 3):
        raise DomainError("operator kernel implemented for n in {2, 3}")
    key = (
        dims.n, round(lam, 12),
        target.nodes.tobytes(), source.nodes.tobytes(), source.weights.tobytes(),
    )
    with _KERNEL_LOCK:
        got = _KERNEL_CACHE.get(key)
        if got is not None:
            _KERNEL_CACHE.move_to_end(key)
            return got
    if dims.n == 2:
        m = _kernel_block_n2(lam, target.nodes[:, 0], source.nodes[:, 0])
    else:
        m = _kernel_block_n3(lam, target.nodes, source.nodes)
    m *= source.weights[None, :]
    with _KERNEL_LOCK:
        _KERNEL_CACHE[key] = m
        if len(_KERNEL_CACHE) > _KERNEL_CACHE_SIZE:
            _KERNEL_CACHE.popitem(last=False)
    return m


# ---------------------------------------------------------------------------
# commutative model operators
# ---------------------------------------------------------------------------

def _z_phase(cell: CellGrid, gamma0: np.ndarray) -> np.ndarray:
    """The factor e^{i <xi, gamma0>} of a z letter at the cell's nodes."""
    return np.exp(1j * cell.nodes @ gamma0)


def _d_part(dims: Dimensions, lam: float, cell: CellGrid, eps: float,
            u: np.ndarray) -> tuple:
    """The d-part of a triangular letter on one cell, |eps|^(lam/2)
    phi(eps xi u), by transporting the node set: the result is known exactly
    at xi = p u^T / eps for each node p, with the quadrature weights
    rescaled by |eps|^(-d) — change of variables is exact.  Returns the
    transported cell and the amplitude |eps|^(lam/2)."""
    moved = CellGrid((cell.nodes @ u.T) / eps, cell.weights * abs(eps) ** (-dims.d))
    return moved, abs(eps) ** (lam / 2.0)


# _apply_s contracts at most about this many values per block
_S_BLOCK = 2 ** 15


def _apply_s(dims: Dimensions, lam: float, phi: GridFunction, axis: int,
             target: CellGrid) -> GridFunction:
    """s on the given cell axis, onto the target grid.  The values are read
    as (before, axis, after) and taken in blocks of rows of the axes before
    it, about _S_BLOCK values a block (one block for the first axis).  A
    block is transposed to put the axis first and, as the kernel matrix is
    real, multiplied as one real matrix product (with a float view of the
    real and imaginary parts of complex values), straight into one
    preallocated output of the values' dtype that holds the contracted axis
    first; the result is a view of it with the axis moved back, real for
    real values.  So no full-size transposed copy or product is made,
    unless the (before, axis, after) reading itself must copy: values whose
    memory order is not their axis order, as a 3-cell function's after its
    middle axis is contracted."""
    mat = kernel_matrix(dims, lam, target, phi.cells[axis])
    shape = phi.values.shape
    vals = phi.values.reshape(math.prod(shape[:axis]), shape[axis], -1)
    before, n, after = vals.shape
    out = np.empty((mat.shape[0], before, after), dtype=vals.dtype)
    rows = max(1, _S_BLOCK // (n * after))
    for i in range(0, before, rows):
        block = vals[i:i + rows].transpose(1, 0, 2)
        np.matmul(mat, np.ascontiguousarray(block).reshape(n, -1).view(float),
                  out=out[:, i:i + rows].reshape(mat.shape[0], -1).view(float))
    out = out.reshape((mat.shape[0],) + shape[:axis] + shape[axis + 1:])
    cells = list(phi.cells)
    cells[axis] = target
    return GridFunction(cells, np.moveaxis(out, 0, axis))


def t_comm_apply(dims: Dimensions, lam: float, g, phi: GridFunction,
                 target: CellGrid | None = None) -> GridFunction:
    """Apply T^lambda_g in the commutative model to a single-cell grid
    function: the one-cell current word of current_word_apply, at the one
    mass lam onto the target grid (default: the function's own grid).  g may
    be a GroupWord, a single letter (TriangularElement or "s"), or a
    GroupElement (factored first).  lam must be positive (Partition), and
    below d when g has a kernel letter (involution_apply)."""
    if phi.l != 1:
        raise DomainError("t_comm_apply acts on single-cell functions")
    word = [let if isinstance(let, str) else [let] for let in _as_letters(g)]
    return current_word_apply(dims, M.Partition((lam,)), [target or phi.cells[0]], word, phi)


def _moves_nodes(let) -> bool:
    """Whether the d-part of a triangular letter is not the identity."""
    return let.epsilon != 1.0 or not np.array_equal(let.u, np.eye(len(let.u)))


def _landing_grids(dims: Dimensions, letters: list, target: CellGrid) -> list:
    """The grid each kernel letter of a word lands on, one entry per letter
    (None for a triangular one): the target pulled back through the d-parts
    of the triangular letters between it and the next kernel letter to its
    left, nodes (q @ u) eps and weights w |eps|^d, so that those d-letters
    carry it back onto the target."""
    landing, grid = [], target
    for let in letters:
        landing.append(grid if isinstance(let, str) else None)
        if isinstance(let, str):
            grid = target
        elif _moves_nodes(let):
            grid = CellGrid((grid.nodes @ let.u) * let.epsilon,
                            grid.weights * abs(let.epsilon) ** dims.d)
    return landing


def _as_letters(g) -> list:
    if isinstance(g, G.GroupWord):
        return list(g.letters)
    if isinstance(g, (G.TriangularElement, str)):
        return [g]
    if isinstance(g, G.GroupElement):
        return list(G.factor_word(g).letters)
    raise DomainError(f"cannot interpret {type(g)} as a group word")


# ---------------------------------------------------------------------------
# operator identity residuals (single cell, n = 2)
# ---------------------------------------------------------------------------

def bump_evaluator(xi: np.ndarray) -> np.ndarray:
    """The single-cell identities' test function e^(-|xi - 0.8|^2)."""
    return np.exp(-np.sum((xi - 0.8) ** 2, axis=-1))


def bump(grid: CellGrid) -> GridFunction:
    """bump_evaluator tabulated on the grid."""
    return tabulate([grid], bump_evaluator)


def unitarity_residual(dims: Dimensions, partition: M.Partition, cells: list,
                       word: list, phi: GridFunction) -> float:
    """| ||U_w phi|| / ||phi|| - 1 | in L^2(nu_alpha) for a word w of current
    letters applied by current_word_apply onto the cells."""
    out = current_word_apply(dims, partition, cells, word, phi)
    return abs(math.sqrt(nu_norm(dims, partition, out) / nu_norm(dims, partition, phi)) - 1.0)


def word_identity_residual(dims: Dimensions, lam: float, grid: CellGrid,
                          lhs: list, rhs: list) -> float:
    """||T_lhs phi - T_rhs phi|| / ||phi|| for the bump phi on the grid, two
    words equal in the group applied through t_comm_apply onto the grid.
    Raises DomainError unless the words evaluate to the same matrix, to
    1e-12 of its largest entry."""
    words = [G.GroupWord(dims.n, lhs), G.GroupWord(dims.n, rhs)]
    g_lhs, g_rhs = (w.matrices() for w in words)
    if np.abs(g_lhs - g_rhs).max() > 1e-12 * np.abs(g_lhs).max():
        raise DomainError("the two words are not equal in the group")
    phi = bump(grid)
    t_lhs, t_rhs = (t_comm_apply(dims, lam, w, phi, target=grid).values for w in words)
    part = M.Partition((lam,))
    diff = GridFunction([grid], t_lhs - t_rhs)
    return math.sqrt(nu_norm(dims, part, diff) / nu_norm(dims, part, phi))


# ---------------------------------------------------------------------------
# vacuum vector
# ---------------------------------------------------------------------------

def _log_k_profile(rho: float, r):
    """log(r^(-rho) K_rho(2r)) elementwise over radii r > 0."""
    return -rho * np.log(r) + specfun.log_bessel_k(rho, r)


def vacuum_evaluator(dims: Dimensions, lam: float):
    """f_lambda(xi) = (|xi|^((lam-d)/2) K_{(d-lam)/2}(2|xi|))^(1/2); at
    lam = 0 this is the square root of the jump density g.  (The power
    carries the (lam-d)/2 exponent: that is the choice whose squared
    Fourier transform reproduces (1+|gamma|^2/4)^(-lam/2), and at lam = 0
    it degenerates to the jump density.)

    f alone need not be in L^2(nu_lam).  At d = 1, lam = 1/2, f^2 times the
    nu density is |xi|^(-1) near 0, so the squared nu-norm of f grows with
    the grid: 20.3, 22.3 and 23.3 on grid_1d_sqrt (50, 182), (200, 362) and
    (400, 512).  The s-coefficient 0.9441 of the module docstring is that
    of the product f |xi|^((d-lam)/2), which is in L^2(nu_lam); it reads
    0.94414852990230 on all three grids."""
    rho = (dims.d - lam) / 2.0

    def f(xi):
        r = np.linalg.norm(np.atleast_2d(np.asarray(xi, dtype=float)), axis=1)
        pos = r > 0
        return np.where(pos, np.exp(0.5 * _log_k_profile(rho, np.where(pos, r, 1.0))), 0.0)

    return f


def vacuum_checks(dims: Dimensions, lam: float):
    """Two quadrature identities for the vacuum vector, at |gamma| = 0.5, 1
    and 2:

    (ratio)  integral e^{i<xi,gamma>} f_lambda^2 dxi /
             integral f_lambda^2 dxi  =  (1 + |gamma|^2/4)^(-lambda/2)

    (norm)   integral f_lambda^2 dxi  =  Gamma(lam/2) (2 pi)^d / (2 c_n),

    the norm value being the gamma-independent constant (with the inversion
    factor (2 pi)^d written out), the norm taken on radial_rule.  Returns
    the worst residual of the two."""
    d = dims.d
    rho = (d - lam) / 2.0

    def prof(r):
        return np.exp(_log_k_profile(rho, r))

    r, w = Q.radial_rule(lam - 1.0, 0.5)
    norm = specfun.sphere_area(d) * float(np.sum(w * prof(r) * r ** (d - 1)))
    want_norm = _gamma(lam / 2.0) * (2.0 * math.pi) ** d / (2.0 * Q.closed_form_cn(dims.n))
    norm_resid = abs(norm - want_norm) / want_norm
    gn = np.array([0.5, 1.0, 2.0])
    transform = Q.radial_fourier(dims, Q.RadialProfile(prof, lam - d), gn).value
    want = (1.0 + gn * gn / 4.0) ** (-lam / 2.0)
    ratio_resid = float(np.max(np.abs(transform / norm - want) / want, initial=0.0))
    return max(ratio_resid, norm_resid)


# ---------------------------------------------------------------------------
# tensor products and the multiplicative embedding
# ---------------------------------------------------------------------------

def tau_embed(phi):
    """tau phi (xi_1, ..., xi_l) = phi(xi_1 + ... + xi_l): the Fourier-side
    form of multiplying l independent copies along a refinement.  phi maps
    points (..., d) to values (...); the embedded function broadcasts its
    arguments against each other, as tabulate's fn."""

    def out(*xis):
        return phi(sum(xis[1:], xis[0]))

    return out


def tau_z_commutation_residual(dims: Dimensions, cells: list, phi, gamma0) -> float:
    """Exact node identity: applying the current z-letter (same gamma0 in
    every cell) through u_current_apply to tau(phi) equals tau applied to the
    z-shifted phi."""
    gamma0 = np.atleast_1d(np.asarray(gamma0, dtype=float))
    tphi = tabulate(cells, tau_embed(phi))
    z = G.TriangularElement(1.0, np.eye(dims.d), gamma0)
    # a z-letter carries no mass-dependent amplitude, so any masses do
    lhs = u_current_apply(dims, M.Partition((1.0,) * len(cells)), [z] * len(cells), tphi)

    def phi_shifted(xi):
        return phi(xi) * np.exp(1j * (xi @ gamma0))

    rhs = tabulate(cells, tau_embed(phi_shifted))
    denom = np.abs(tphi.values).max()
    return float(np.abs(lhs.values - rhs.values).max() / denom)


# ---------------------------------------------------------------------------
# current group operators, involution, R transform
# ---------------------------------------------------------------------------

def u_current_apply(dims: Dimensions, partition: M.Partition, letters: list,
                    phi: GridFunction) -> GridFunction:
    """U_b for a cell-wise triangular current b = (eps_i, u_i, gamma_i):
    multiply cell i by |eps_i|^(lam_i/2) e^{i <xi^i, gamma^i>} at its own
    mass lam_i and substitute xi^i -> eps_i xi^i u_i, the d-part first; an
    identity d-part and a zero shift are skipped.  The d-parts transport the
    cells, and the amplitudes and phases multiply one new array in turn
    (GridFunction.scale_values)."""
    if len(letters) != phi.l or phi.l != partition.size:
        raise DomainError("need one triangular letter per cell")
    cells, factors = list(phi.cells), []
    for axis, (lam, let) in enumerate(zip(partition.masses, letters)):
        if isinstance(let, str):
            raise DomainError("u_current_apply takes triangular letters only")
        if _moves_nodes(let):
            cells[axis], amplitude = _d_part(dims, lam, cells[axis], let.epsilon, let.u)
            factors.append((None, amplitude))
        if np.abs(let.gamma).max() > 0:
            factors.append((axis, _z_phase(cells[axis], let.gamma)))
    return GridFunction(cells, phi.values).scale_values(factors)


def involution_apply(dims: Dimensions, partition: M.Partition,
                     phi: GridFunction, targets: list | None = None) -> GridFunction:
    """The involution I = tensor product over cells of T^{lam_i}_s."""
    partition.require_nu_valid(dims)
    out = phi
    for axis, lam in enumerate(partition.masses):
        tgt = targets[axis] if targets else out.cells[axis]
        out = _apply_s(dims, lam, out, axis, tgt)
    return out


def r_transform(dims: Dimensions, partition: M.Partition, phi: GridFunction,
                gamma) -> complex:
    """R phi(gamma) = integral phi(xi) e^{i<xi,gamma>} d nu_alpha(xi) by node
    quadrature on the product grid, contracting the values with one cell's
    factor at a time, the last cell first.  Real values are contracted with
    the factor's real and imaginary parts as one real (N, 2) matrix, so they
    are never copied to complex at full size."""
    gamma = np.asarray(gamma, dtype=float).reshape(partition.size, dims.d)
    vals = phi.values
    for w, c, g in reversed(list(zip(_nu_weights(dims, partition, phi.cells),
                                     phi.cells, gamma))):
        factor = w * np.exp(1j * c.nodes @ g)
        if np.iscomplexobj(vals):
            vals = vals @ factor
        else:
            vals = (vals @ factor.view(float).reshape(-1, 2)).view(complex)[..., 0]
    return complex(vals)


def _product_bump(cells: list) -> GridFunction:
    """Odd, zero-mean product test function: per cell
    e^{-|xi - 0.8|^2} - e^{-|xi + 0.8|^2}.  The vanishing mean makes the
    R transform decay at infinity fast enough that grid truncation error
    stays far below the identity tolerances.  Values below the smallest
    normal float are set to 0: they are far below every tolerance, and
    subnormal operands slow the matrix products of the kernel letter and
    the R transform (the 320 x 320 kernel product took 2.7 times as long
    with them on a 2-core x86 machine)."""
    def one(nodes):
        return (np.exp(-np.sum((nodes - 0.8) ** 2, axis=-1))
                - np.exp(-np.sum((nodes + 0.8) ** 2, axis=-1)))

    vals = one(cells[0].nodes)
    for c in cells[1:]:
        vals = np.multiply.outer(vals, one(c.nodes))
    vals[np.abs(vals) < np.finfo(float).tiny] = 0.0
    return GridFunction(cells, vals)


def _cell_word(word: list, i: int) -> list:
    """Cell i's word of a word of current letters: "s" and each letter's
    i-th triangular letter."""
    return [let if isinstance(let, str) else let[i] for let in word]


def current_word_apply(dims: Dimensions, partition: M.Partition, cells: list,
                       word: list, phi: GridFunction) -> GridFunction:
    """U_w for a word w of current letters: a letter is "s", the involution,
    or a list of one TriangularElement per cell (u_current_apply).  The one
    interpreter of words: a single-cell word is the one-cell case
    (t_comm_apply).  On cell i the involution lands where _landing_grids
    puts the kernel letters of the cell's word onto cells[i].  U is a
    homomorphism, U_{w1 w2} = U_{w1} U_{w2}, so the last letter acts first."""
    landing = [_landing_grids(dims, _cell_word(word, i), cell) for i, cell in enumerate(cells)]
    out = phi
    for k in reversed(range(len(word))):
        if isinstance(word[k], str):
            out = involution_apply(dims, partition, out, targets=[g[k] for g in landing])
        else:
            out = u_current_apply(dims, partition, word[k], out)
    return out


def r_intertwining_residual(dims: Dimensions, partition: M.Partition,
                            cells: list, word: list, gamma) -> float:
    """R(U_w phi)(gamma) = prod_i beta(gamma^i, w_i)^(-lam_i/2) R phi(gamma^i.w_i):
    the dual transform intertwines the current group, for the product bump
    phi on the cells and a word w of current letters (current_word_apply)
    whose word on cell i is w_i.  The right side is read from the group
    alone: w_i evaluated as a matrix moves gamma^i by the boundary action
    and weighs it by the cocycle (z(gamma0): gamma + gamma0 with beta = 1;
    d(eps, u): gamma u / eps with beta = |eps|; s: -2 gamma / |gamma|^2
    with beta = |gamma|^2 / 2).  The z and d letters are exact on the nodes;
    s carries the kernel quadrature's error.  Raises PointAtInfinityError
    where w_i sends gamma^i to infinity."""
    gamma = np.asarray(gamma, dtype=float).reshape(partition.size, dims.d)
    phi = _product_bump(cells)
    lhs = r_transform(dims, partition,
                      current_word_apply(dims, partition, cells, word, phi), gamma)
    moved = np.empty_like(gamma)
    log_amp = []
    for i, (lam, g) in enumerate(zip(partition.masses, gamma)):
        w_i = G.GroupWord(dims.n, _cell_word(word, i)).evaluate()
        moved[i] = G.act(g, w_i)
        log_amp.append(-0.5 * lam * math.log(G.cocycle_beta(g, w_i)))
    rhs = math.exp(sum(log_amp)) * r_transform(dims, partition, phi, moved)
    return abs(lhs - rhs) / abs(rhs)


def _spherical_cell(dims: Dimensions, lam: float, gamma: np.ndarray) -> complex:
    """One cell's factor of the spherical matrix coefficient: with the
    single-cell z-letter of shift gamma, <U_z f, f> in L^2(nu_lam) for
    f = v^(-1/2) when lam < d, and the integral of e^{i<xi,gamma>} against
    mu_lam when lam >= d, where nu has no sigma-finite factor (f^2 v = 1).
    In t = sqrt|xi| the weight of either integral is t^(2 lam - 1) times a
    smooth function, so the Gauss-Legendre rules in t are exact in it only
    for 2 lam an integer; other masses raise DomainError."""
    d = dims.d
    if d not in (1, 2):
        raise DomainError("grids implemented for d in {1, 2}")
    if (2.0 * lam) % 1.0:
        raise DomainError(f"spherical quadrature needs 2 lam an integer, got lam = {lam}")
    part = M.Partition((lam,))
    letters = [G.TriangularElement(1.0, np.eye(d), gamma)]
    if lam < d:
        grid = grid_1d_sqrt(40.0, 128) if d == 1 else grid_2d_sqrt(40.0, 64, 32)
        log_v = _on_radii(specfun.log_cell_ratio, dims, lam, grid)
        f = GridFunction([grid], np.exp(-0.5 * log_v))
        return nu_inner(dims, part, u_current_apply(dims, part, letters, f), f)
    # with the log singularity of the density at lam = d the rule in t
    # converges only as N^-4 on the line, as N^-8 on the disk
    grid = grid_1d_sqrt(30.0, 1024) if d == 1 else grid_2d_sqrt(30.0, 128, 32)
    dens = grid.weights * np.exp(
        _on_radii(specfun.log_marginal_radial_density, dims, lam, grid))
    return complex(u_current_apply(dims, part, letters, GridFunction([grid], dens)).values.sum())


def _on_radii(radial, dims: Dimensions, lam: float, grid: CellGrid) -> np.ndarray:
    """radial(dims, lam, r) at every node of the grid, evaluated once per
    distinct radius: a 1-d grid has each radius twice, and the 2048 nodes of
    the polar grid have 156 distinct ones."""
    radii, at = np.unique(grid.radii, return_inverse=True)
    return radial(dims, lam, radii)[at]


def spherical_reproduce(dims: Dimensions, partition: M.Partition, gamma):
    """Headline equivalence check: the matrix coefficient <U_z f, f> of the
    current z-letter z(gamma) against the vacuum f = v^(-1/2) of
    L^2(nu_alpha), v = d nu/d mu, equals the characteristic functional
    Psi(gamma), since f^2 v = 1 turns it into the mu-average of
    e^{i<xi,gamma>}.  The current and the vacuum factorise over cells, so the
    coefficient is the product of one single-cell quadrature per cell
    (_spherical_cell), computed once for each distinct (mass, gamma) pair of
    the cells; no product grid is built and nothing is drawn.  At gamma = 0
    it is the normalisation ||f||^2 = 1.  Returns (coefficient, Psi(gamma));
    the coefficient is complex."""
    gamma = np.asarray(gamma, dtype=float).reshape(partition.size, dims.d)
    factors = {}
    coeff = complex(1.0)
    for lam, g in zip(partition.masses, gamma):
        key = (lam, g.tobytes())
        if key not in factors:
            factors[key] = _spherical_cell(dims, lam, g)
        coeff *= factors[key]
    return coeff, M.big_psi(partition, dims, gamma)


# ---------------------------------------------------------------------------
# special representation at lambda = 0
# ---------------------------------------------------------------------------

def special_apply(dims: Dimensions, letters, f):
    """T^0_g on analytic evaluators for words in {z, d}: z multiplies by the
    phase, d substitutes xi -> eps xi u with no amplitude factor.  f and the
    returned evaluator map an (N, d) array of points to (N,) values."""

    def build(let, inner):
        if isinstance(let, str):
            raise DomainError("special_apply supports z and d letters")
        eps, u, gamma0 = let.epsilon, let.u, let.gamma

        def out(xi):
            xi = np.asarray(xi, dtype=float)
            val = inner(eps * xi @ u)
            if np.abs(gamma0).max() > 0:
                val = val * np.exp(1j * (xi @ gamma0))
            return val

        return out

    # T_{l1 l2 ...} = T_{l1}(T_{l2}(...)): wrap from the innermost letter out
    g = f
    for let in reversed(list(letters)):
        g = build(let, g)
    return g


def _cocycle_evaluator(dims: Dimensions, letters):
    """xi -> b(g)(xi) = (T^0_g f_0 - f_0)(xi) over (N, d) arrays of points."""
    f0 = vacuum_evaluator(dims, 0.0)
    moved = special_apply(dims, letters, f0)
    return lambda xi: moved(xi) - f0(xi)


def special_cocycle(dims: Dimensions, letters, grid: CellGrid) -> GridFunction:
    """b(g) = T^0_g f_0 - f_0 tabulated on the grid (f_0 the lambda = 0
    vacuum), for words over the triangular letters."""
    return tabulate([grid], _cocycle_evaluator(dims, letters))


def special_cocycle_law_residual(dims: Dimensions, g1_letters, g2_letters,
                                 grid: CellGrid) -> float:
    """b(g1 g2) = T^0_{g1} b(g2) + b(g1) pointwise on the nodes."""
    b12 = special_cocycle(dims, list(g1_letters) + list(g2_letters), grid)
    t1_b2 = special_apply(dims, g1_letters, _cocycle_evaluator(dims, g2_letters))
    rhs = t1_b2(grid.nodes) + special_cocycle(dims, g1_letters, grid).values
    denom = max(float(np.abs(b12.values).max()), 1e-12)
    return float(np.abs(b12.values - rhs).max() / denom)
