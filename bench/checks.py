"""Correctness checks for the benchmark workloads.

Every reference value here is computed apart from the program: closed forms,
scipy's Bessel functions and scipy's quadrature, or a property the method
must have (a scaling law, a norm the letters preserve).  No check compares
against a stored copy of the program's output.

Each check returns a list of failure messages; an empty list means the
output passed.  The benchmark's own tests feed every check a wrong answer
and require a non-empty list.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate
from scipy.special import gammaln, jv, kv, kve

# Monte Carlo checks compare against the exact law at this many standard
# errors: wide enough that a correct sampler on any random stream passes
# (two-sided Gaussian tail 2e-9 per comparison), narrow enough that the
# sample sizes used reject a 5 % scale error.
MC_SIGMAS = 6.0


def _sphere_area(d: int) -> float:
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


# ---------------------------------------------------------------------------
# check-all
# ---------------------------------------------------------------------------

def check_reports(reports) -> list:
    """Every residual of the registry is within its tolerance."""
    return [f"{r.check_id}: residual {r.residual:.3e} > tolerance {r.tolerance:.1e}"
            for r in reports if not r.passed]


def closed_form_cn(n: int) -> float:
    """The Fourier constant c_n = (2 sqrt(pi))^(n-1)."""
    return (2.0 * math.sqrt(math.pi)) ** (n - 1)


def check_cn(n: int, value: float, rel_tol: float = 1e-9) -> list:
    """Calibrated Fourier constant against the closed form."""
    want = closed_form_cn(n)
    dev = abs(value - want) / want
    return [] if dev <= rel_tol else [f"c_{n} = {value!r}, closed form {want!r} (rel {dev:.2e})"]


def check_kappa(n: int, value: float, rel_tol: float = 1e-9) -> list:
    """Fitted Levy-Khinchin constant against -2 pi^(-(n-1)/2)."""
    want = -2.0 * math.pi ** (-(n - 1) / 2.0)
    dev = abs(value - want) / abs(want)
    return [] if dev <= rel_tol else [f"kappa_{n} = {value!r}, closed form {want!r} (rel {dev:.2e})"]


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def log_char(masses, gamma) -> float:
    """log prod_i (1 + |gamma_i|^2/4)^(-lam_i/2) for gamma of shape (l, d)."""
    sq = np.sum(np.asarray(gamma, dtype=float) ** 2, axis=-1)
    return float(-0.5 * np.dot(masses, np.log1p(sq / 4.0)))


def _char_compare(label: str, phases: np.ndarray, target: float, target2: float,
                  slack: float = 0.0) -> list:
    """Compare the empirical characteristic function of a symmetric law with
    its exact value.  target2 is the exact value at twice the frequency; it
    gives the exact variances Var cos = (1 + phi(2g))/2 - phi(g)^2 and
    Var sin = (1 - phi(2g))/2, so the bound does not rest on a sample
    variance."""
    count = phases.size
    se_cos = math.sqrt(max((1.0 + target2) / 2.0 - target * target, 0.0) / count)
    se_sin = math.sqrt(max((1.0 - target2) / 2.0, 0.0) / count)
    re = float(np.mean(np.cos(phases)))
    im = float(np.mean(np.sin(phases)))
    out = []
    if abs(re - target) > MC_SIGMAS * se_cos + slack + 1e-12:
        out.append(f"{label}: Re phi {re:.6f} vs {target:.6f} "
                   f"({abs(re - target) / max(se_cos, 1e-300):.1f} SE, slack {slack:.2e})")
    if abs(im) > MC_SIGMAS * se_sin + slack + 1e-12:
        out.append(f"{label}: Im phi {im:.6f} vs 0 ({abs(im) / max(se_sin, 1e-300):.1f} SE)")
    return out


def check_marginal_draws(label: str, draws: np.ndarray, masses, gammas) -> list:
    """Joint cell draws (N, l, d) against prod (1 + |gamma_i|^2/4)^(-lam_i/2)
    at every gamma of shape (l, d)."""
    draws = np.asarray(draws, dtype=float)
    out = []
    for k, gamma in enumerate(gammas):
        phases = np.einsum("nld,ld->n", draws, gamma)
        out += _char_compare(f"{label} gamma#{k}", phases,
                             math.exp(log_char(masses, gamma)),
                             math.exp(log_char(masses, 2.0 * gamma)))
    return out


def poisson_jump_mean(n: int, mass: float, cutoff: float) -> float:
    """Expected jump count above the cutoff: mass * pi^(-d/2) * area(S^(d-1))
    * integral_cutoff^inf r^(d-1) r^(-d/2) K_{d/2}(2r) dr, by scipy quadrature
    of the exponentially scaled Bessel K."""
    d = n - 1
    rho = d / 2.0
    f = lambda r: r ** (d - 1 - rho) * kve(rho, 2.0 * r) * math.exp(-2.0 * r)
    head, _ = integrate.quad(f, cutoff, 1.0, limit=200)
    tail, _ = integrate.quad(f, 1.0, np.inf, limit=200)
    return mass * math.pi ** (-rho) * _sphere_area(d) * (head + tail)


def truncation_mean(n: int, mass: float, cutoff: float) -> float:
    """Expected total amplitude of the jumps below the cutoff:
    mass * pi^(-d/2) * area * integral_0^cutoff r^d r^(-d/2) K_{d/2}(2r) dr."""
    d = n - 1
    rho = d / 2.0
    val, _ = integrate.quad(lambda r: r ** (d - rho) * kv(rho, 2.0 * r), 0.0, cutoff,
                            limit=200)
    return mass * math.pi ** (-rho) * _sphere_area(d) * val


# The jump-size table integrates the tail intensity by trapezoid on a log
# grid cut at r = 25; its total differs from the exact mean by about 3e-5
# relative, so the count check allows 1e-4 on top of the sampling error.
TABLE_REL_TOL = 1e-4


def check_jump_counts(label: str, counts, n: int, mass: float, cutoff: float) -> list:
    """Mean jump count per path against the Poisson mean computed above."""
    counts = np.asarray(counts, dtype=float)
    mu = poisson_jump_mean(n, mass, cutoff)
    se = math.sqrt(mu / counts.size)
    dev = abs(float(counts.mean()) - mu)
    if dev > MC_SIGMAS * se + TABLE_REL_TOL * mu:
        return [f"{label}: mean jump count {counts.mean():.4f} vs Poisson mean {mu:.4f} "
                f"({dev / se:.1f} SE over {counts.size} paths)"]
    return []


def check_path_totals(label: str, totals: np.ndarray, n: int, mass: float,
                      cutoff: float, gammas) -> list:
    """Characteristic function of each path's total amplitude (N, d) against
    (1 + |gamma|^2/4)^(-mass/2), allowing |gamma| times the expected
    amplitude of the discarded small jumps."""
    totals = np.asarray(totals, dtype=float)
    trunc = truncation_mean(n, mass, cutoff)
    out = []
    for k, gamma in enumerate(gammas):
        gamma = np.asarray(gamma, dtype=float)
        phases = totals @ gamma
        out += _char_compare(f"{label} gamma#{k}", phases,
                             math.exp(log_char([mass], gamma[None, :])),
                             math.exp(log_char([mass], 2.0 * gamma[None, :])),
                             slack=float(np.linalg.norm(gamma)) * trunc)
    return out


def log_mu_density_ref(n: int, masses, xi) -> float:
    """log of prod_i pi^(-d/2) (2/Gamma(lam/2)) r^((lam-d)/2) K_{(d-lam)/2}(2r)."""
    d = n - 1
    acc = 0.0
    for lam, x in zip(masses, np.asarray(xi, dtype=float).reshape(len(masses), d)):
        r = float(np.linalg.norm(x))
        rho = abs((d - lam) / 2.0)
        acc += (-0.5 * d * math.log(math.pi) + math.log(2.0) - float(gammaln(lam / 2.0))
                + 0.5 * (lam - d) * math.log(r)
                + math.log(kve(rho, 2.0 * r)) - 2.0 * r)
    return acc


def log_rn_ref(n: int, masses, xi) -> float:
    """log of 2^(-m) prod_i V_rho(r_i), V_rho(x) = Gamma(rho)/(2 x^rho K_rho(2x)),
    rho = (d - lam)/2."""
    d = n - 1
    acc = -float(np.sum(masses)) * math.log(2.0)
    for lam, x in zip(masses, np.asarray(xi, dtype=float).reshape(len(masses), d)):
        r = float(np.linalg.norm(x))
        rho = (d - lam) / 2.0
        acc += (float(gammaln(rho)) - math.log(2.0) - rho * math.log(r)
                - (math.log(kve(rho, 2.0 * r)) - 2.0 * r))
    return acc


DENSITY_TOL = 1e-10


def check_log_density(label: str, got: float, want: float) -> list:
    dev = abs(got - want)
    if dev > DENSITY_TOL * max(1.0, abs(want)):
        return [f"{label}: {got!r} vs scipy {want!r} (diff {dev:.2e})"]
    return []


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def kernel_integral_n2_ref(lam: float, xi: float, xi_prime: float) -> float:
    """integral_0^inf cos(xi x + 2 xi'/x) x^(lam-2) dx in closed form:
    pi/(2 cos(pi lam/2)) |2 xi'/xi|^((lam-1)/2) (J_{lam-1}(w) - J_{1-lam}(w))
    for xi xi' > 0 and 2 sin(pi lam/2) |2 xi'/xi|^((lam-1)/2) K_{1-lam}(w)
    for xi xi' < 0, w = 2^(3/2) |xi xi'|^(1/2)."""
    s = xi * xi_prime
    w = 2.0 ** 1.5 * math.sqrt(abs(s))
    amp = abs(2.0 * xi_prime / xi) ** ((lam - 1.0) / 2.0)
    if s > 0:
        return (math.pi / (2.0 * math.cos(0.5 * math.pi * lam)) * amp
                * (jv(lam - 1.0, w) - jv(1.0 - lam, w)))
    return 2.0 * math.sin(0.5 * math.pi * lam) * amp * kv(1.0 - lam, w)


KERNEL_N2_REL_TOL = 1e-7


def check_kernel_n2(lam: float, xi: float, xi_prime: float, got: float) -> list:
    """kernel_A at n = 2 is 2^(1-lam/2) times the Bessel closed form."""
    want = 2.0 ** (1.0 - lam / 2.0) * kernel_integral_n2_ref(lam, xi, xi_prime)
    if abs(got - want) > KERNEL_N2_REL_TOL * abs(want) + 1e-9:
        return [f"kernel_A n=2 ({xi:.4f}, {xi_prime:.4f}): {got!r} vs closed form {want!r}"]
    return []


def check_kernel_entries(lam: float, x, weights, mat, idx) -> list:
    """Kernel-matrix entries M[i, j] at the index pairs idx against
    (2/pi) 2^(-lam/2) * closed form(x_i, x_j) * weight_j."""
    out = []
    for i, j in idx:
        want = (2.0 / math.pi) * 2.0 ** (-lam / 2.0) * weights[j] * \
            kernel_integral_n2_ref(lam, float(x[i]), float(x[j]))
        if abs(mat[i, j] - want) > KERNEL_N2_REL_TOL * abs(want) + 1e-9 * weights[j]:
            out.append(f"kernel_matrix[{i}, {j}] = {mat[i, j]!r}, closed form {want!r}")
    return out


KERNEL_N3_REL_TOL = 1e-8


def check_kernel_n3(lam: float, t: float, base: float, scaled: float, rotated: float,
                    err: float) -> list:
    """kernel_A at n = 3 obeys A(t xi, xi'/t) = t^(2-lam) A(xi, xi') and is
    invariant under a common rotation of xi and xi'.  err is the sum of the
    quadrature error estimates of the three entries."""
    out = []
    want = t ** (2.0 - lam) * base
    if abs(scaled - want) > KERNEL_N3_REL_TOL * abs(want) + 10.0 * err:
        out.append(f"kernel_A n=3 scaling: {scaled!r} vs t^(2-lam) A = {want!r}")
    if abs(rotated - base) > KERNEL_N3_REL_TOL * abs(base) + 10.0 * err:
        out.append(f"kernel_A n=3 rotation: {rotated!r} vs {base!r}")
    return out


def comm_norm_ref(d: int, lam: float, nodes, weights, values) -> float:
    """Commutative-model squared norm
    2^(-lam) Gamma((d-lam)/2)/Gamma(lam/2) sum w |xi|^(lam-d) |phi|^2."""
    coeff = math.exp(-lam * math.log(2.0) + gammaln((d - lam) / 2.0) - gammaln(lam / 2.0))
    r = np.linalg.norm(np.atleast_2d(nodes), axis=1)
    return coeff * float(np.sum(weights * r ** (lam - d) * np.abs(values) ** 2))


def nu_weights(d: int, masses, cells) -> np.ndarray:
    """Product-grid weights of L^2(nu_alpha): per cell
    pi^(-d/2) 2^(-lam) Gamma((d-lam)/2)/Gamma(lam/2) |xi|^(lam-d) w;
    cells is a list of (nodes, weights) pairs."""
    out = np.ones(())
    for lam, (nodes, weights) in zip(masses, cells):
        coeff = math.exp(-lam * math.log(2.0) + gammaln((d - lam) / 2.0)
                         - gammaln(lam / 2.0))
        r = np.linalg.norm(np.atleast_2d(nodes), axis=1)
        out = np.multiply.outer(out, math.pi ** (-d / 2.0) * coeff * r ** (lam - d) * weights)
    return out


def nu_norm_ref(d: int, masses, cells, values) -> float:
    """L^2(nu_alpha) squared norm on a product grid."""
    return float(np.sum(np.abs(values) ** 2 * nu_weights(d, masses, cells)))


NORM_REL_TOL = 1e-12


def check_norm_preserved(label: str, before: float, after: float) -> list:
    """z and d letters, and triangular currents, are exact isometries on the
    node rule: transport moves nodes and weights together."""
    dev = abs(after / before - 1.0)
    return [] if dev <= NORM_REL_TOL else [f"{label}: norm ratio off by {dev:.2e}"]


# s o s reproduces the input on the 320-node grid to 7.6e-7 for a bump at
# 0.8 and 7e-6 at 1.5; bump centres stay within [-1.2, 1.2].
INVOLUTION_TOL = 1e-4


def check_involution(label: str, err_norm: float, norm: float) -> list:
    """Relative L^2 distance of the twice-applied kernel letter from the input."""
    rel = math.sqrt(err_norm / norm)
    return [] if rel <= INVOLUTION_TOL else [f"{label}: s(s(phi)) off by {rel:.2e}"]


def check_r_translation(label: str, lhs: complex, rhs: complex, scale: float) -> list:
    """R(U_z phi)(gamma) = R phi(gamma + gamma0) holds exactly on the nodes;
    scale is the nu-weighted L^1 norm of phi, the size of the sum's terms."""
    dev = abs(lhs - rhs) / max(abs(rhs), scale)
    return [] if dev <= 1e-12 else [f"{label}: R covariance off by {dev:.2e}"]
