"""The matrix group preserving the quadratic form 2 x_1 x_{n+1} + |x_mid|^2,
its triangular subgroup, the boundary action on R^(n-1), and the Bruhat-type
factorization of arbitrary elements into at most four letters over the
triangular subgroup together with the inversion s.

Conventions: matrices are (n+1) x (n+1) in the block pattern

    [ g11  g12  g13 ]      g11, g13, g31, g33 scalars,
    [ g21  g22  g23 ]      g12, g32 rows, g21, g23 columns,
    [ g31  g32  g33 ]      g22 an (n-1) x (n-1) block,

boundary points gamma are row vectors in R^(n-1) embedded on the cone as
p(gamma) = (-|gamma|^2/2, gamma, 1), acted on from the right."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, NotInGroupError, PointAtInfinityError
from .specfun import Dimensions

_MEMBERSHIP_TOL = 1e-9
_INFINITY_TOL = 1e-12


@lru_cache(maxsize=None)
def form_matrix(n: int) -> np.ndarray:
    """The invariant form s = antidiag(1, e, 1): s[0,n]=s[n,0]=1, identity
    middle; one read-only array per n."""
    s = np.zeros((n + 1, n + 1))
    s[0, n] = 1.0
    s[n, 0] = 1.0
    s[1:n, 1:n] = np.eye(n - 1)
    s.setflags(write=False)
    return s


@dataclass
class GroupElement:
    """An element g with g s g^T = s."""

    m: np.ndarray
    n: int

    def __post_init__(self):
        self.m = np.asarray(self.m, dtype=float)
        if self.m.shape != (self.n + 1, self.n + 1):
            raise DomainError("matrix shape does not match n")

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.m @ other.m, self.n)


def inverse_matrices(m: np.ndarray) -> np.ndarray:
    """g^-1 = s g^T s for each matrix of a stack (..., n+1, n+1)."""
    s = form_matrix(m.shape[-1] - 1)
    return s @ np.swapaxes(m, -1, -2) @ s


def membership_residuals(m: np.ndarray) -> np.ndarray:
    """max |g s g^T - s| for each matrix of a stack (..., n+1, n+1)."""
    s = form_matrix(m.shape[-1] - 1)
    gap = np.abs(m @ s @ np.swapaxes(m, -1, -2) - s)
    return gap.reshape(gap.shape[:-2] + (gap.shape[-1] ** 2,)).max(axis=-1)


def make_s(n: int) -> GroupElement:
    """The inversion letter: the form matrix itself (an involution in the group)."""
    return GroupElement(form_matrix(n), n)


def _z_matrices(gamma: np.ndarray) -> np.ndarray:
    """The matrices of z(gamma) over a stack of shifts (..., d)."""
    n = gamma.shape[-1] + 1
    m = np.zeros(gamma.shape[:-1] + (n + 1, n + 1))
    m.reshape(gamma.shape[:-1] + ((n + 1) ** 2,))[..., ::n + 2] = 1.0   # the diagonal
    m[..., 1:n, 0] = -gamma
    m[..., n, 0] = -0.5 * (gamma * gamma).sum(axis=-1)
    m[..., n, 1:n] = gamma
    return m


def _d_matrices(eps: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The matrices of d(eps, u) over stacks of eps (...) and u (..., d, d)."""
    n = u.shape[-1] + 1
    m = np.zeros(eps.shape + (n + 1, n + 1))
    m[..., 0, 0] = 1.0 / eps
    m[..., 1:n, 1:n] = u
    m[..., n, n] = eps
    return m


def _matrices(g) -> np.ndarray:
    """The matrix of a GroupElement, or a stack of matrices (..., n+1, n+1)."""
    return g.m if isinstance(g, GroupElement) else np.asarray(g, dtype=float)


def _action_parts(gamma, g):
    """(gamma.g, beta(gamma, g)) from the image p(gamma) g of the cone point
    p(gamma) = (-|gamma|^2/2, gamma, 1), broadcast over stacks of points
    (..., d) and of matrices (..., n+1, n+1).  Raises PointAtInfinityError
    if a point is sent to infinity: the last coordinate of the image is
    below _INFINITY_TOL times the largest (at least 1)."""
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    m = _matrices(g)
    n = m.shape[-1] - 1
    half = -0.5 * np.sum(gamma * gamma, axis=-1, keepdims=True)
    p = np.concatenate((half, gamma, np.ones_like(half)), axis=-1)
    img = (p[..., None, :] @ m)[..., 0, :]
    den = img[..., n]
    far = np.abs(den) < _INFINITY_TOL * np.maximum(1.0, np.abs(img).max(axis=-1))
    if far.any():
        point = np.broadcast_to(gamma, far.shape + gamma.shape[-1:])[far][0]
        raise PointAtInfinityError(f"gamma={point} is sent to infinity")
    return img[..., 1:n] / den[..., None], np.abs(den)


def act(gamma, g) -> np.ndarray:
    """Boundary action gamma -> gamma.g: push the cone point
    (-|gamma|^2/2, gamma, 1) through g and renormalize the last coordinate.
    Broadcasts over stacks of points (..., d) and of elements
    (..., n+1, n+1)."""
    return _action_parts(gamma, g)[0]


def cocycle_beta(gamma, g):
    """beta(gamma, g) = | -|gamma|^2/2 g13 + gamma . g23 + g33 |: a float
    for one point and one element, an array over stacks as act."""
    beta = _action_parts(gamma, g)[1]
    return float(beta) if beta.ndim == 0 else beta


def action_condition(gamma, g):
    """kappa(gamma, g) = |p(gamma)|_1 max|g| / beta(gamma, g) >= 1, the
    condition number of beta(gamma, g) and of gamma.g, broadcast as act.
    Rounding errors of relative size u in p(gamma), and of size u max|g|
    in every entry of g (a product of letters carries errors of that size
    even in its small entries), move beta by up to about u kappa beta and
    gamma.g by up to about u kappa (1 + |gamma.g|).  kappa is large near
    the pole of g, where beta vanishes, and where g has large entries."""
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    m = _matrices(g)
    p_norm = 1.0 + np.abs(gamma).sum(axis=-1) + 0.5 * np.sum(gamma * gamma, axis=-1)
    return p_norm * np.abs(m).max(axis=(-2, -1)) / _action_parts(gamma, m)[1]


@dataclass
class TriangularElement:
    """Element (eps, u, gamma) of the triangular subgroup, realized as
    z(gamma) d(eps, u); composition law
    (e1,u1,c1)(e2,u2,c2) = (e1 e2, u1 u2, c1 + e1 c2 u1^{-1}).

    The fields may also be stacks, eps (...), u (..., d, d) and
    gamma (..., d): the element then stands for the stack of elements, and
    compose and matrices broadcast over it."""

    epsilon: float
    u: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        self.u = np.array(self.u, dtype=float, copy=None, ndmin=2)
        self.gamma = np.array(self.gamma, dtype=float, copy=None, ndmin=1)
        if not np.asarray(self.epsilon).all():
            raise DomainError("epsilon must be nonzero")

    def compose(self, other: "TriangularElement") -> "TriangularElement":
        eps = self.epsilon * other.epsilon
        u = self.u @ other.u
        shift = (other.gamma[..., None, :] @ np.linalg.inv(self.u))[..., 0, :]
        gamma = self.gamma + np.asarray(self.epsilon)[..., None] * shift
        return TriangularElement(eps, u, gamma)

    def matrices(self) -> np.ndarray:
        """The matrix z(gamma) d(eps, u), or the stack of them (..., n+1, n+1)."""
        return _triangular_matrices(np.asarray(self.epsilon, dtype=float), self.u, self.gamma)


def random_triangular(dims: Dimensions, rng: np.random.Generator,
                      count: int) -> TriangularElement:
    """A stack of count triangular elements drawn as the letters of
    random_elements: log|eps| uniform on [-1, 1] with a fair sign, u the
    sign-fixed QR factor of a Gaussian matrix, gamma standard normal."""
    eps = np.exp(rng.uniform(-1.0, 1.0, count)) * np.where(rng.random(count) < 0.5, 1.0, -1.0)
    u = _sign_fixed_q(rng.standard_normal((count, dims.d, dims.d)))
    return TriangularElement(eps, u, rng.standard_normal((count, dims.d)))


def _upper_size(am: np.ndarray) -> np.ndarray:
    """max(|g12|, |g13|, |g23|) for each matrix of a stack of absolute
    values |g| (k, n+1, n+1)."""
    n = am.shape[-1] - 1
    return np.maximum(am[:, 0, 1:].max(axis=-1), am[:, :n, n].max(axis=-1))


def _triangular_matrices(eps: np.ndarray, u: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """z(gamma) d(eps, u) over stacks of eps, u and gamma."""
    return _z_matrices(gamma) @ _d_matrices(eps, u)


def _triangular_parts(m: np.ndarray, upper: np.ndarray):
    """Read (eps, u, gamma) off each block lower-triangular matrix of a
    stack m (k, n+1, n+1) whose upper blocks have the sizes upper
    (_upper_size).  Returns eps, u, gamma and a mask of the matrices that
    are in the triangular subgroup: upper blocks below _MEMBERSHIP_TOL, and
    z(gamma) d(eps, u) within 10 _MEMBERSHIP_TOL max(|eps|, 1/|eps|) of m.
    A zero eps is set to 1, which puts z(gamma) d(eps, u) at least 1 off m."""
    n = m.shape[-1] - 1
    eps = m[:, n, n]
    u = m[:, 1:n, 1:n]
    ok = upper <= _MEMBERSHIP_TOL
    eps = np.where(eps != 0.0, eps, 1.0)
    gamma = (m[:, n, None, 1:n] @ np.swapaxes(u, -1, -2))[:, 0, :]
    size = np.abs(eps)
    bound = 10 * _MEMBERSHIP_TOL * np.maximum(size, 1.0 / size)   # max(1, ...) is implied
    gap = np.abs(_triangular_matrices(eps, u, gamma) - m)
    ok &= gap.reshape(gap.shape[:1] + ((n + 1) ** 2,)).max(axis=-1) <= bound
    return eps, u, gamma, ok


@dataclass
class GroupWord:
    """A word over the triangular subgroup and the letter s."""

    n: int
    letters: list = field(default_factory=list)

    def matrices(self) -> np.ndarray:
        """The product of the letters, left to right: one matrix, or a stack
        (..., n+1, n+1) over triangular letters that are stacks."""
        g = np.eye(self.n + 1)
        for let in self.letters:
            g = g @ (form_matrix(self.n) if isinstance(let, str) else let.matrices())
        return g

    def evaluate(self) -> GroupElement:
        return GroupElement(self.matrices(), self.n)


@dataclass
class WordStack:
    """The words of factor_words over a stack of k elements: element i is
    the triangular letter b_i = (eps[i], u[i], gamma[i]) alone where
    split[i] is False, else z(shift[i]) . s . b_i, preceded by s where
    lead[i]."""

    n: int
    split: np.ndarray
    lead: np.ndarray
    shift: np.ndarray
    eps: np.ndarray
    u: np.ndarray
    gamma: np.ndarray

    def evaluate(self) -> np.ndarray:
        """The product of each word's letters, left to right, as
        GroupWord.evaluate: a stack (k, n+1, n+1)."""
        s = form_matrix(self.n)
        g = np.where(self.lead[:, None, None], s, np.eye(self.n + 1))
        g = np.where(self.split[:, None, None], g @ _z_matrices(self.shift) @ s, g)
        return g @ _triangular_matrices(self.eps, self.u, self.gamma)

    def word(self, i: int) -> GroupWord:
        """Word i as a GroupWord."""
        b = TriangularElement(float(self.eps[i]), self.u[i], self.gamma[i])
        if not self.split[i]:
            return GroupWord(self.n, [b])
        z = TriangularElement(1.0, np.eye(self.n - 1), self.shift[i])
        return GroupWord(self.n, ["s"] * bool(self.lead[i]) + [z, "s", b])


def _split(h: np.ndarray):
    """(shift, q) with h = z(shift) . s . q for each element of a stack
    (k, n+1, n+1) off the triangular subgroup: the first column (a, v, *) of
    M = h s lies on the cone, so shift = -(v/a) annihilates it under
    z(-shift) and the quotient q = s z(-shift) M s is block lower
    triangular.  a is the corner entry h13; q is in the triangular subgroup
    only up to the rounding that the division by a amplifies."""
    n = h.shape[-1] - 1
    s = form_matrix(n)
    M = h @ s
    shift = -(M[:, 1:n, 0] / M[:, 0, None, 0])
    return shift, s @ (_z_matrices(-shift) @ M) @ s


# _split divides by the corner g13: over random_element draws its quotient
# b left the group by up to 1e-15 (max|g| / |g13|)^2, which at this ratio
# of |g13| to max|g| is 1e-8, a tenth of b's membership test
_SPLIT_MIN_CORNER = 3e-4
_QUOTIENT_TOL = 1e-7   # membership tolerance of the split quotient b


def factor_words(m):
    """factor_word over a stack of matrices (k, n+1, n+1), in array
    operations.  Returns (words, ok): a WordStack and a mask of the
    elements factored; where factor_word would raise NotInGroupError, ok is
    False and the word is meaningless.  A step that no element of the
    stack needs is skipped."""
    m = np.asarray(m, dtype=float)
    n = m.shape[-1] - 1
    am = np.abs(m)
    scale = am.reshape(am.shape[:1] + ((n + 1) ** 2,)).max(axis=-1)
    upper = _upper_size(am)
    split = upper > 1e-10 * scale
    ok = membership_residuals(m) <= _MEMBERSHIP_TOL
    lead = split & (am[:, 0, n] < np.minimum(_SPLIT_MIN_CORNER * scale, am[:, n, n]))
    h = np.where(lead[:, None, None], form_matrix(n) @ m, m) if lead.any() else m
    with np.errstate(divide="ignore", invalid="ignore"):
        shift, q = _split(h)
        ok &= ~split | (membership_residuals(q) <= _QUOTIENT_TOL)
    if not split.all():
        shift = np.where(split[:, None], shift, 0.0)
        q = np.where(split[:, None, None], q, m)
    *b, is_triangular = _triangular_parts(q, _upper_size(np.abs(q)))
    return WordStack(n, split, lead, shift, *b), ok & is_triangular


def factor_word(g: GroupElement) -> GroupWord:
    """Factor g as a word over {triangular} union {s}.

    If the upper blocks g12, g13, g23 vanish (to 1e-10 max|g|), g is itself
    triangular.
    Otherwise g s admits an in-group LU splitting, g = z(gamma) . s . b with
    b triangular (_split).  The splitting divides by the corner g13, so
    when |g13| is below _SPLIT_MIN_CORNER max|g| and below |g33| (g near the
    triangular subgroup), s g, whose corner is g33, is split instead:
    g = s . z(gamma) . s . b.  Words have at most 3 letters in the first
    case and 4 in the second.  factor_words does the same over a stack;
    this is its one-element call."""
    words, ok = factor_words(g.m[None])
    if not ok[0]:
        raise NotInGroupError("g is not in the group, or the triangular letter "
                              "of its split is not")
    return words.word(0)


_JACOBIAN_STEP = 1e-3       # difference step, relative to the distance to the pole
_JACOBIAN_MAX_STEP = 1e-2   # ... and at most this
_WORD_LETTERS = 6           # random words have 1 .. _WORD_LETTERS letters


def jacobian_relation_residual(g, x):
    """|det D(x -> x.g)| = beta(x, g)^(1-n), the quasi-invariance of Lebesgue
    measure under the action, by a five-point (fourth-order) central-
    difference Jacobian, over one GroupElement or a stack of elements
    (..., n+1, n+1) and points x (..., d).

    beta(x, g) = |g13|/2 |x - x0|^2 about the pole x0 of g, so the action
    varies on the scale of the distance |x - x0|: the difference step is
    _JACOBIAN_STEP times that distance, at most _JACOBIAN_MAX_STEP (for
    g13 = 0 there is no pole and the action is affine).  Returns the
    relative residual: a float for one trial, else an array."""
    m = _matrices(g)
    n = m.shape[-1] - 1
    x = np.atleast_1d(np.asarray(x, dtype=float))
    beta_x = np.asarray(cocycle_beta(x, m))
    with np.errstate(divide="ignore"):
        pole_distance = np.sqrt(2.0 * beta_x / np.abs(m[..., 0, n]))
    h = np.minimum(_JACOBIAN_STEP * pole_distance, _JACOBIAN_MAX_STEP)[..., None, None]
    offsets = h * np.eye(x.shape[-1])   # row i is h e_i
    stack = m[..., None, :, :]

    def at(k):
        return act(x[..., None, :] + k * offsets, stack)

    jac = (8.0 * (at(1) - at(-1)) - (at(2) - at(-2))) / (12.0 * h)
    want = beta_x ** (-(n - 1))
    res = np.abs(np.abs(np.linalg.det(jac)) - want) / want
    return float(res) if res.ndim == 0 else res


def distance_relation_residual(g, x, y):
    """|x - y|^2 = |x.g - y.g|^2 beta(x,g) beta(y,g), over g, x and y as in
    jacobian_relation_residual.  Returns the relative residual: a float for
    one trial, else an array."""
    m = _matrices(g)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    beta_x = np.asarray(cocycle_beta(x, m))
    beta_y = np.asarray(cocycle_beta(y, m))
    lhs = np.sum((x - y) ** 2, axis=-1)
    rhs = np.sum((act(x, m) - act(y, m)) ** 2, axis=-1) * beta_x * beta_y
    res = np.abs(lhs - rhs) / np.maximum(lhs, 1e-300)
    return float(res) if res.ndim == 0 else res


def _sign_fixed_q(a: np.ndarray) -> np.ndarray:
    """The orthogonal QR factors of a stack of square matrices, each column
    signed so that R has a positive diagonal.  The boundary dimensions 1
    and 2 have closed forms: a 1x1 factor is sign(a); for 2x2, with columns
    a1 and a2, q1 = a1/|a1| and q2 = sign(det a) (-q1_y, q1_x), since
    R_22 = <q2, a2> = sign(det a) det a/|a1|.  LAPACK's QR from d = 3 on."""
    d = a.shape[-1]
    if d == 1:
        return np.sign(a)
    if d == 2:
        x, y = a[..., 0, 0], a[..., 1, 0]
        norm = np.hypot(x, y)
        c, s = x / norm, y / norm
        turn = np.sign(x * a[..., 1, 1] - y * a[..., 0, 1])
        q = np.empty_like(a)
        q[..., 0, 0], q[..., 1, 0] = c, s
        q[..., 0, 1], q[..., 1, 1] = -turn * s, turn * c
        return q
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def random_orthogonal(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish orthogonal matrix by QR of a Gaussian matrix (sign-fixed)."""
    if d == 0:
        return np.eye(0)
    return _sign_fixed_q(rng.standard_normal((d, d)))


def random_elements(dims: Dimensions, rng: np.random.Generator, count: int) -> np.ndarray:
    """count random words of up to _WORD_LETTERS letters in {z, d, s}, as one
    (count, n+1, n+1) array: word lengths uniform on 1 .. _WORD_LETTERS, letter
    kinds uniform, gamma standard normal, log|eps| uniform on [-1, 1] with a
    fair sign, u the sign-fixed QR factor of a Gaussian matrix.  Every
    letter is drawn; letters past a word's length are the identity."""
    n, d = dims.n, dims.d
    shape = (count, _WORD_LETTERS)
    lengths = rng.integers(1, _WORD_LETTERS + 1, size=count)
    kinds = rng.integers(0, 3, size=shape)
    gamma = rng.standard_normal(shape + (d,))
    eps = np.exp(rng.uniform(-1.0, 1.0, shape)) * np.where(rng.random(shape) < 0.5, 1.0, -1.0)
    u = _sign_fixed_q(rng.standard_normal(shape + (d, d)))
    kinds[np.arange(_WORD_LETTERS) >= lengths[:, None]] = -1
    letters = np.tile(np.eye(n + 1), shape + (1, 1))
    letters[kinds == 0] = _z_matrices(gamma[kinds == 0])
    letters[kinds == 1] = _d_matrices(eps[kinds == 1], u[kinds == 1])
    letters[kinds == 2] = form_matrix(n)
    g = letters[:, 0]
    for k in range(1, _WORD_LETTERS):
        g = g @ letters[:, k]
    return g


def random_element(dims: Dimensions, rng: np.random.Generator) -> GroupElement:
    """One word of random_elements."""
    return GroupElement(random_elements(dims, rng, 1)[0], dims.n)


def exchange_words(gamma):
    """The two sides of the exchange identity
    z(gamma) s = d(gamma) . s . z(-gamma) . s . z(j gamma), with
    j gamma = -2 gamma / |gamma|^2 and d(gamma) the diagonal letter
    d(-|gamma|^2/2, u_gamma) = diag(-2/|gamma|^2, u_gamma, -|gamma|^2/2),
    u_gamma = e - 2 gamma^T gamma / |gamma|^2 the reflection, as letter lists
    over one gamma (d,) or, as stacked letters, over a stack (..., d)."""
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    # a stacked product, so that each |gamma|^2 rounds as gamma @ gamma does
    g2 = (gamma[..., None, :] @ gamma[..., :, None])[..., 0, 0]
    if np.any(g2 == 0.0):
        raise DomainError("gamma must be nonzero")
    eye = np.eye(gamma.shape[-1])
    u = eye - 2.0 * (gamma[..., :, None] * gamma[..., None, :]) / g2[..., None, None]
    jg = -2.0 * gamma / g2[..., None]
    z = [TriangularElement(1.0, eye, shift) for shift in (gamma, -gamma, jg)]
    d_gamma = TriangularElement(-0.5 * g2, u, np.zeros_like(gamma))
    return [z[0], "s"], [d_gamma, "s", z[1], "s", z[2]]


def word_identity_residual(gamma):
    """Matrix residual of the exchange identity (exchange_words), over one
    gamma (d,) or a stack (k, d): a float for one, else an array."""
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    n = gamma.shape[-1] + 1
    lhs, rhs = exchange_words(gamma.reshape(-1, n - 1))
    res = np.abs(GroupWord(n, lhs).matrices() - GroupWord(n, rhs).matrices()).max(axis=(-2, -1))
    return float(res[0]) if gamma.ndim == 1 else res
