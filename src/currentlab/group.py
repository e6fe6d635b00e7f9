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

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NotInGroupError, PointAtInfinityError
from .specfun import Dimensions

_MEMBERSHIP_TOL = 1e-9
_INFINITY_TOL = 1e-12


def form_matrix(n: int) -> np.ndarray:
    """The invariant form s = antidiag(1, e, 1): s[0,n]=s[n,0]=1, identity middle."""
    s = np.zeros((n + 1, n + 1))
    s[0, n] = 1.0
    s[n, 0] = 1.0
    s[1:n, 1:n] = np.eye(n - 1)
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

    # block accessors
    @property
    def g11(self) -> float: return self.m[0, 0]
    @property
    def g12(self) -> np.ndarray: return self.m[0, 1:self.n]
    @property
    def g13(self) -> float: return self.m[0, self.n]
    @property
    def g21(self) -> np.ndarray: return self.m[1:self.n, 0]
    @property
    def g22(self) -> np.ndarray: return self.m[1:self.n, 1:self.n]
    @property
    def g23(self) -> np.ndarray: return self.m[1:self.n, self.n]
    @property
    def g31(self) -> float: return self.m[self.n, 0]
    @property
    def g32(self) -> np.ndarray: return self.m[self.n, 1:self.n]
    @property
    def g33(self) -> float: return self.m[self.n, self.n]

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.m @ other.m, self.n)

    def inverse(self) -> "GroupElement":
        s = form_matrix(self.n)
        return GroupElement(s @ self.m.T @ s, self.n)

    def membership_residual(self) -> float:
        s = form_matrix(self.n)
        return float(np.abs(self.m @ s @ self.m.T - s).max())

    def require_member(self, tol: float = _MEMBERSHIP_TOL) -> "GroupElement":
        r = self.membership_residual()
        if r > tol:
            raise NotInGroupError(f"form relation violated: residual {r:.3e}")
        return self


def make_s(n: int) -> GroupElement:
    """The inversion letter: the form matrix itself (an involution in the group)."""
    return GroupElement(form_matrix(n), n)


def make_z(gamma) -> GroupElement:
    """Unipotent translation letter z(gamma):
    rows (1, 0, 0), (-gamma^T, e, 0), (-|gamma|^2/2, gamma, 1)."""
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    d = gamma.shape[0]
    n = d + 1
    m = np.eye(n + 1)
    m[1:n, 0] = -gamma
    m[n, 0] = -0.5 * float(gamma @ gamma)
    m[n, 1:n] = gamma
    return GroupElement(m, n)


def make_d(eps: float, u=None, n: int | None = None) -> GroupElement:
    """Diagonal letter d(eps, u) = diag(1/eps, u, eps) with u orthogonal."""
    if eps == 0.0:
        raise DomainError("eps must be nonzero")
    if u is None:
        if n is None:
            raise DomainError("give u or n")
        u = np.eye(n - 1)
    u = np.atleast_2d(np.asarray(u, dtype=float))
    d = u.shape[0]
    if np.abs(u @ u.T - np.eye(d)).max() > 1e-10:
        raise DomainError("u must be orthogonal")
    n = d + 1
    m = np.zeros((n + 1, n + 1))
    m[0, 0] = 1.0 / eps
    m[1:n, 1:n] = u
    m[n, n] = eps
    return GroupElement(m, n)


def d_of_gamma(gamma) -> GroupElement:
    """The diagonal element diag(-2/|gamma|^2, u_gamma, -|gamma|^2/2) with the
    reflection u_gamma = e - 2 gamma^T gamma / |gamma|^2."""
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    g2 = float(gamma @ gamma)
    if g2 == 0.0:
        raise DomainError("gamma must be nonzero")
    u = np.eye(gamma.shape[0]) - 2.0 * np.outer(gamma, gamma) / g2
    return make_d(-0.5 * g2, u)


def _action_parts(gamma: np.ndarray, g: GroupElement):
    n = g.n
    p = np.empty(n + 1)
    p[0] = -0.5 * float(gamma @ gamma)
    p[1:n] = gamma
    p[n] = 1.0
    img = p @ g.m
    return img


def act(gamma, g: GroupElement) -> np.ndarray:
    """Boundary action gamma -> gamma.g: push the cone point
    (-|gamma|^2/2, gamma, 1) through g and renormalize the last coordinate."""
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    img = _action_parts(gamma, g)
    den = img[g.n]
    scale = max(1.0, float(np.abs(img).max()))
    if abs(den) < _INFINITY_TOL * scale:
        raise PointAtInfinityError(f"gamma={gamma} is sent to infinity")
    return img[1:g.n] / den


def cocycle_beta(gamma, g: GroupElement) -> float:
    """beta(gamma, g) = | -|gamma|^2/2 g13 + gamma . g23 + g33 |."""
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    img = _action_parts(gamma, g)
    den = img[g.n]
    scale = max(1.0, float(np.abs(img).max()))
    if abs(den) < _INFINITY_TOL * scale:
        raise PointAtInfinityError(f"beta undefined: gamma={gamma} sent to infinity")
    return abs(float(den))


@dataclass
class TriangularElement:
    """Element (eps, u, gamma) of the triangular subgroup, realized as
    z(gamma) d(eps, u); composition law
    (e1,u1,c1)(e2,u2,c2) = (e1 e2, u1 u2, c1 + e1 c2 u1^{-1})."""

    epsilon: float
    u: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        self.u = np.atleast_2d(np.asarray(self.u, dtype=float))
        self.gamma = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        if self.epsilon == 0.0:
            raise DomainError("epsilon must be nonzero")

    @property
    def n(self) -> int:
        return self.gamma.shape[0] + 1

    def compose(self, other: "TriangularElement") -> "TriangularElement":
        eps = self.epsilon * other.epsilon
        u = self.u @ other.u
        gamma = self.gamma + self.epsilon * (other.gamma @ np.linalg.inv(self.u))
        return TriangularElement(eps, u, gamma)

    def matrix(self) -> GroupElement:
        return make_z(self.gamma) @ make_d(self.epsilon, self.u)

    @classmethod
    def from_matrix(cls, g: GroupElement, tol: float = _MEMBERSHIP_TOL) -> "TriangularElement":
        """Read (eps, u, gamma) off a block lower-triangular group element."""
        upper = max(abs(g.g13), float(np.abs(g.g12).max(initial=0.0)),
                    float(np.abs(g.g23).max(initial=0.0)))
        if upper > tol:
            raise NotInGroupError("matrix is not block lower triangular")
        eps = g.g33
        u = g.g22
        gamma = g.g32 @ u.T
        t = cls(eps, u, gamma)
        if np.abs(t.matrix().m - g.m).max() > 10 * tol * max(1.0, abs(eps), 1.0 / abs(eps)):
            raise NotInGroupError("matrix is not in the triangular subgroup")
        return t


Letter = TriangularElement | str  # "s" is the only string letter


@dataclass
class GroupWord:
    """A word over the triangular subgroup and the letter s."""

    n: int
    letters: list = field(default_factory=list)

    def evaluate(self) -> GroupElement:
        g = GroupElement(np.eye(self.n + 1), self.n)
        for let in self.letters:
            g = g @ (make_s(self.n) if isinstance(let, str) else let.matrix())
        return g

    def __len__(self) -> int:
        return len(self.letters)


def _split(g: GroupElement) -> list:
    """The letters z(gamma), s, b of g = z(gamma) . s . b, for g off the
    triangular subgroup: the first column (a, v, *) of M = g s lies on the
    cone, so gamma = -(v/a) annihilates it under z(-gamma) and the quotient
    is automatically block upper triangular.  a is the corner entry g13."""
    n = g.n
    s = make_s(n)
    M = g @ s
    a = M.m[0, 0]
    gamma = -(M.m[1:n, 0] / a)
    upper = make_z(-gamma) @ M
    b = TriangularElement.from_matrix((s @ upper @ s).require_member(1e-7))
    return [TriangularElement(1.0, np.eye(n - 1), gamma), "s", b]


# _split divides by the corner g13: over random_element draws its quotient
# b left the group by up to 1e-15 (max|g| / |g13|)^2, which at this ratio
# of |g13| to max|g| is 1e-8, a tenth of b's membership test
_SPLIT_MIN_CORNER = 3e-4


def factor_word(g: GroupElement, tol: float = 1e-10) -> GroupWord:
    """Factor g as a word over {triangular} union {s}.

    If the upper blocks g12, g13, g23 vanish, g is itself triangular.
    Otherwise g s admits an in-group LU splitting, g = z(gamma) . s . b with
    b triangular (_split).  The splitting divides by the corner g13, so
    when |g13| is below _SPLIT_MIN_CORNER max|g| and below |g33| (g near the
    triangular subgroup), s g, whose corner is g33, is split instead:
    g = s . z(gamma) . s . b.  Words have at most 3 letters in the first
    case and 4 in the second."""
    g.require_member()
    n = g.n
    scale = float(np.abs(g.m).max())
    upper = max(abs(g.g13), float(np.abs(g.g12).max(initial=0.0)),
                float(np.abs(g.g23).max(initial=0.0)))
    if upper <= tol * scale:
        return GroupWord(n, [TriangularElement.from_matrix(g)])
    if abs(g.g13) < min(_SPLIT_MIN_CORNER * scale, abs(g.g33)):
        return GroupWord(n, ["s"] + _split(make_s(n) @ g))
    return GroupWord(n, _split(g))


def measure_relation_check(g: GroupElement, x, y, h: float = 1e-6):
    """Two finite checks of the boundary geometry:

    (1) |det D(x -> x.g)| = beta(x, g)^(1-n)   (quasi-invariance of Lebesgue
        measure under the action), by central-difference Jacobian;
    (2) |x - y|^2 = |x.g - y.g|^2 beta(x,g) beta(y,g).

    Returns the pair of relative residuals."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    d = x.shape[0]
    jac = np.empty((d, d))
    for i in range(d):
        xp = x.copy(); xp[i] += h
        xm = x.copy(); xm[i] -= h
        jac[i] = (act(xp, g) - act(xm, g)) / (2.0 * h)
    detj = abs(float(np.linalg.det(jac)))
    beta_x = cocycle_beta(x, g)
    want = beta_x ** (-(g.n - 1))
    res1 = abs(detj - want) / abs(want)
    lhs = float((x - y) @ (x - y))
    rhs = float(np.sum((act(x, g) - act(y, g)) ** 2)) * beta_x * cocycle_beta(y, g)
    res2 = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    return res1, res2


def random_orthogonal(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish orthogonal matrix by QR of a Gaussian matrix (sign-fixed)."""
    if d == 0:
        return np.eye(0)
    a = rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


def random_element(dims: Dimensions, rng: np.random.Generator,
                   max_letters: int = 6) -> GroupElement:
    """Random word of up to max_letters letters in {z, d, s}: gamma standard
    normal, log|eps| uniform on [-1, 1], u a QR orthogonal factor."""
    n = dims.n
    g = GroupElement(np.eye(n + 1), n)
    k = int(rng.integers(1, max_letters + 1))
    for _ in range(k):
        kind = rng.integers(0, 3)
        if kind == 0:
            g = g @ make_z(rng.standard_normal(dims.d))
        elif kind == 1:
            eps = math.exp(rng.uniform(-1.0, 1.0)) * (1.0 if rng.random() < 0.5 else -1.0)
            g = g @ make_d(eps, random_orthogonal(dims.d, rng))
        else:
            g = g @ make_s(n)
    return g


def word_identity_residual(gamma) -> float:
    """Matrix residual of the exchange identity
    z(gamma) s = d(gamma) . s . z(-gamma) . s . z(j gamma), with
    j gamma = -2 gamma / |gamma|^2 and d(gamma) = d_of_gamma(gamma)."""
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    g2 = float(gamma @ gamma)
    if g2 == 0.0:
        raise DomainError("gamma must be nonzero")
    n = gamma.shape[0] + 1
    s = make_s(n)
    lhs = make_z(gamma) @ s
    jg = -2.0 * gamma / g2
    rhs = d_of_gamma(gamma) @ s @ make_z(-gamma) @ s @ make_z(jg)
    return float(np.abs(lhs.m - rhs.m).max())
