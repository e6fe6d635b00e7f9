"""The three benchmark workloads.

A workload makes its inputs from the seed when it is built (that is its
set-up), then runs whole rounds of the same operations.  Every program call
of a round goes through Ops.call, which times it under a kind and counts it;
a round's wall time is the sum of its calls' times, so input generation and
the correctness checks are not timed.  Between calls, once every
CHECKPOINT_S of call time, Ops samples the machine's speed and scales the
call time since the previous sample by the two samples around it (see
machine.py).  Checks run after each round (and over the whole run in
finish) and return failure messages.
"""

from __future__ import annotations

import math
import sys
import time
import traceback
from collections import defaultdict

import numpy as np

import checks as C
from currentlab import group as G
from currentlab import gridfn
from currentlab import measures as M
from currentlab import process as P
from currentlab import quadrature as Q
from currentlab import reps as R
from currentlab import suites
from currentlab.specfun import Dimensions

D2, D3 = Dimensions(2), Dimensions(3)


CHECKPOINT_S = 3.0   # call time between two samples of the machine's speed


class Ops:
    """Times program calls by kind and counts operations attempted and failed;
    adds up the call time scaled to the machine's nominal speed, by samples
    of a machine.Reference, in scaled_seconds."""

    def __init__(self, reference):
        self.seconds = defaultdict(float)
        self.units = defaultdict(int)
        self.attempted = 0
        self.failed = 0
        self.round_seconds = 0.0
        self.reference = reference
        self.refs = [reference.sample()]
        self.segment = 0.0           # call time since the last sample
        self.scaled_seconds = 0.0

    def checkpoint(self, force: bool = False) -> None:
        """Sample the machine's speed once CHECKPOINT_S of call time has
        passed since the last sample (or whenever there is any, if forced),
        and scale that call time by the samples on either side of it."""
        if self.segment == 0.0 or (self.segment < CHECKPOINT_S and not force):
            return
        ref = self.reference.sample()
        self.scaled_seconds += self.reference.scaled(self.segment, self.refs[-1], ref)
        self.refs.append(ref)
        self.segment = 0.0

    def call(self, kind: str, units: int, fn, *args, ops: int = 1, **kwargs):
        """Run one program call; units is the amount of work it does for the
        kind's rate, ops the number of operations it counts as.  A call that
        raises counts its operations as failed and returns None."""
        self.attempted += ops
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.failed += ops
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            dt = time.perf_counter() - t0
            self.seconds[kind] += dt
            self.round_seconds += dt
            self.segment += dt
            self.checkpoint()
        self.units[kind] += units
        return result

    def rate(self, kind: str) -> float:
        return self.units[kind] / self.seconds[kind] if self.seconds[kind] else 0.0


# ---------------------------------------------------------------------------
# check-all
# ---------------------------------------------------------------------------

# The registry's Monte Carlo checks are 3-standard-error tests, so a suite
# seed taken from --seed would fail one of them on some seeds (4 of the
# suite seeds 0-79 fail one) and make the result differ between runs.  The
# suite runs at the command line's default seed; its cost does not depend on
# the seed.
SUITE_SEED = suites.RunConfig().seed


class CheckAll:
    """`currentlab check all`, serial: the full residual registry, with the
    calibrated constants and the kernel cache rebuilt in every round.

    The registry is grouped by suite, so running its suites one after the
    other in registry order runs the same checks, in the same order and on
    the same streams, as run_suite(config, "all") with one worker; the calls
    per suite give the machine-speed samples places to fall between."""

    def __init__(self, seed: int):
        self.config = suites.RunConfig(seed=SUITE_SEED, workers=1)
        specs = suites.suite_specs("all")
        self.ids = [s.check_id for s in specs]
        self.suites = list(dict.fromkeys(s.suite for s in specs))
        self.sizes = {name: len(suites.suite_specs(name)) for name in self.suites}
        # kept before any tracing wrapper replaces the module attributes
        self.cached_cn = Q.cached_cn
        self.kappa = Q.fit_levy_khinchin_kappa

    def round(self, ops: Ops, index: int) -> list:
        if index:  # the first round runs in a fresh process
            self.cached_cn.cache_clear()
            self.kappa.cache_clear()
            R._KERNEL_CACHE.clear()
        reports = []
        for name in self.suites:
            got = ops.call("suite", self.sizes[name], suites.run_suite, self.config, name,
                           ops=self.sizes[name])
            if got is None:
                return [f"run_suite raised on suite {name}"]
            reports += got
        out = C.check_reports(reports)
        if [r.check_id for r in reports] != self.ids:
            out.append("the suites' reports are not the registry's checks in order")
        for n in (2, 3):
            out += C.check_cn(n, self.cached_cn(n).value)
            out += C.check_kappa(n, self.kappa(n))
        return out

    def finish(self) -> list:
        return []


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

MARGINAL_DRAWS = 200_000
CUTOFFS = (0.05, 0.2)
PATHS = {2: 1000, 3: 8}       # per cutoff and round
DENSITY_POINTS = 40           # per dimension and round
PATH_MASS = 1.0


def _gammas(rng, count: int, cells: int, d: int, lo: float, hi: float) -> np.ndarray:
    """count frequency vectors of shape (cells, d), per-cell norms uniform on [lo, hi]."""
    raw = rng.standard_normal((count, cells, d))
    raw /= np.linalg.norm(raw, axis=-1, keepdims=True)
    return raw * rng.uniform(lo, hi, size=(count, cells, 1))


class Sampling:
    """The sampler front ends: cell marginals and the n = 2 oracle, process
    paths with one jump-size table per (n, cutoff), and the two densities at
    a fixed subset of the marginal draws."""

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng([seed, 2])
        self.parts = {2: M.Partition(rng.uniform(0.2, 0.9, 3)),
                      3: M.Partition(rng.uniform(0.2, 0.9, 3))}
        self.oracle_lam = float(rng.uniform(0.3, 2.0))
        self.marginal_gammas = {n: _gammas(rng, 6, 3, n - 1, 0.5, 2.5) for n in (2, 3)}
        self.oracle_gammas = _gammas(rng, 6, 1, 1, 0.5, 3.0)
        self.path_gammas = {n: _gammas(rng, 4, 1, n - 1, 0.3, 2.0)[:, 0, :] for n in (2, 3)}
        self.scale = {n: P.default_intensity_scale(Dimensions(n)) for n in (2, 3)}
        self.counts = defaultdict(list)   # (n, cutoff) -> jump count per path
        self.totals = defaultdict(list)   # (n, cutoff) -> total amplitude per path

    def _stream(self, index: int, k: int) -> P.SeededStream:
        return P.SeededStream(self.seed, 100 * index + k)

    def round(self, ops: Ops, index: int) -> list:
        out = []
        draws = {}
        for k, n in enumerate((2, 3)):
            part = self.parts[n]
            draws[n] = ops.call("marginal", MARGINAL_DRAWS, P.sample_marginal, Dimensions(n),
                                part, self._stream(index, k), size=MARGINAL_DRAWS)
            if draws[n] is not None:
                out += C.check_marginal_draws(f"sample_marginal n={n}", draws[n],
                                              part.masses, self.marginal_gammas[n])
        oracle = ops.call("marginal", MARGINAL_DRAWS, P.oracle_n2, self.oracle_lam,
                          self._stream(index, 2), size=MARGINAL_DRAWS)
        if oracle is not None:
            out += C.check_marginal_draws("oracle_n2", oracle[:, None, None],
                                          [self.oracle_lam], self.oracle_gammas)

        for n in (2, 3):
            dims = Dimensions(n)
            for j, cutoff in enumerate(CUTOFFS):
                kind = f"paths_n{n}"
                table = ops.call(kind, 0, P.JumpSizeTable, dims, cutoff, self.scale[n])
                if table is None:
                    continue
                stream = self._stream(index, 10 + 2 * n + j)
                for _ in range(PATHS[n]):
                    config = ops.call(kind, 1, P.sample_process, dims, PATH_MASS, cutoff,
                                      stream, table=table)
                    if config is not None:
                        self.counts[n, cutoff].append(len(config.positions))
                        self.totals[n, cutoff].append(
                            config.amplitudes.reshape(-1, n - 1).sum(axis=0))

        for n in (2, 3):
            if draws[n] is None:
                continue
            dims, part = Dimensions(n), self.parts[n]
            for xi in draws[n][:DENSITY_POINTS]:
                got = ops.call("density", 1, M.log_mu_alpha_density, dims, part, xi)
                if got is not None:
                    out += C.check_log_density(f"log_mu_alpha_density n={n}", got,
                                               C.log_mu_density_ref(n, part.masses, xi))
                got = ops.call("density", 1, M.log_rn_derivative, dims, part, xi)
                if got is not None:
                    out += C.check_log_density(f"log_rn_derivative n={n}", got,
                                               C.log_rn_ref(n, part.masses, xi))
        return out

    def finish(self) -> list:
        out = []
        for (n, cutoff), counts in sorted(self.counts.items()):
            label = f"sample_process n={n} cutoff={cutoff}"
            out += C.check_jump_counts(label, counts, n, PATH_MASS, cutoff)
            out += C.check_path_totals(label, np.asarray(self.totals[n, cutoff]), n,
                                       PATH_MASS, cutoff, self.path_gammas[n])
        return out


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

LAM = 0.5
KERNEL_SIZES = (320, 480, 640)
WORD_GRID = (60.0, 320)
RANDOM_WORDS = 8
BUMPS = 4
KERNEL_A_N2_VALUES = 16       # a 16 x 16 table
KERNEL_A_N3_PAIRS = 8         # each tabulated at (xi, xi'), (t xi, xi'/t), (xi U, xi' U)
PRODUCT = M.Partition((0.5, 0.3))


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _bump(centre: float):
    return lambda xi: np.exp(-np.sum((xi - centre) ** 2, axis=-1))


class Operators:
    """The representation operators: kernel-matrix builds on fresh grids,
    words applied to bump functions (random elements are misses, fixed words
    are hits), kernel_A tables at n = 2 and n = 3, and the two-cell
    involution, current and dual transform."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 3])
        self.grid = gridfn.grid_1d_sqrt(*WORD_GRID)
        self.product_cells = [self.grid, gridfn.grid_1d_sqrt(40.0, 320)]
        ident = np.eye(1)
        self.fixed_words = [
            G.GroupWord(2, [G.TriangularElement(1.0, ident, [0.7]), "s",
                            G.TriangularElement(1.0, ident, [-0.4])]),
            G.GroupWord(2, [G.TriangularElement(2.0, ident, [0.0]), "s"]),
        ]
        self.kernel_cache = R._KERNEL_CACHE

    def _inputs(self):
        """This round's inputs, drawn from the seeded generator."""
        rng = self.rng
        # fresh grids: every round builds its matrices on new nodes
        radii = rng.uniform(55.0, 65.0, len(KERNEL_SIZES))
        words = []
        while len(words) < RANDOM_WORDS:
            g = G.random_element(D2, rng)
            # keep elements whose factorisation has a kernel letter and is
            # well conditioned: factor_word fails on some elements with a
            # corner entry g13 below 1e-4 of the largest entry
            if abs(g.m[0, 2]) > 1e-3 * float(np.abs(g.m).max()):
                words.append(g)
        centres = rng.uniform(-1.2, 1.2, BUMPS)
        letters = [G.TriangularElement(float(np.exp(rng.uniform(-1, 1)) * rng.choice([-1, 1])),
                                       np.eye(1), [float(rng.normal())]) for _ in range(BUMPS)]
        xs = rng.uniform(0.3, 3.0, KERNEL_A_N2_VALUES) * rng.choice([-1, 1], KERNEL_A_N2_VALUES)
        pairs = [(rng.normal(size=2), rng.normal(size=2), float(rng.uniform(0.5, 2.0)),
                  _rotation(float(rng.uniform(0, 2 * math.pi))))
                 for _ in range(KERNEL_A_N3_PAIRS)]
        pc = rng.uniform(-1.2, 1.2, 2)
        current = [G.TriangularElement(float(np.exp(rng.uniform(-1, 1))), np.eye(1),
                                       [float(rng.normal())]) for _ in range(2)]
        shifts = rng.normal(size=(2, 1))
        gammas = rng.normal(size=(3, 2, 1))
        return radii, words, centres, letters, xs, pairs, pc, current, shifts, gammas

    def round(self, ops: Ops, index: int) -> list:
        # every round starts from an empty kernel cache, so each round does
        # the same builds and peak memory does not grow with the round count
        self.kernel_cache.clear()
        radii, words, centres, letters, xs, pairs, pc, current, shifts, gammas = self._inputs()
        out = []

        for size, radius in zip(KERNEL_SIZES, radii):
            grid = gridfn.grid_1d_sqrt(float(radius), size)
            mat = ops.call("kernel", size * size, R.kernel_matrix, D2, LAM, grid, grid)
            if mat is not None:
                idx = self.rng.integers(0, size, size=(6, 2))
                out += C.check_kernel_entries(LAM, grid.nodes[:, 0], grid.weights, mat, idx)

        grid = self.grid
        nodes, weights = grid.nodes, grid.weights
        for k, centre in enumerate(centres):
            phi = ops.call("tabulate", 0, gridfn.tabulate, [grid], _bump(centre))
            if phi is None:
                continue
            norm = C.comm_norm_ref(1, LAM, nodes, weights, phi.values)
            moved = ops.call("words", 1, R.t_comm_apply, D2, LAM, letters[k], phi)
            if moved is not None:
                c = moved.cells[0]
                out += C.check_norm_preserved(
                    f"z/d letter on bump {k}", norm,
                    C.comm_norm_ref(1, LAM, c.nodes, c.weights, moved.values))
            s1 = ops.call("words", 1, R.t_comm_apply, D2, LAM, "s", phi, target=grid)
            s2 = None if s1 is None else \
                ops.call("words", 1, R.t_comm_apply, D2, LAM, "s", s1, target=grid)
            if s2 is not None:
                err = C.comm_norm_ref(1, LAM, nodes, weights, s2.values - phi.values)
                out += C.check_involution(f"s o s on bump {k}", err, norm)
            for word in self.fixed_words:
                ops.call("words", 1, R.t_comm_apply, D2, LAM, word, phi)
            for g in words[k::BUMPS]:
                ops.call("words", 1, R.t_comm_apply, D2, LAM, g, phi)

        for xi in xs:
            for xp in xs:
                rep = ops.call("kernel_A", 1, Q.kernel_A, D2, LAM, float(xi), float(xp))
                if rep is not None:
                    out += C.check_kernel_n2(LAM, float(xi), float(xp), rep.value)
        cn3 = C.closed_form_cn(3)
        for xi, xp, t, u in pairs:
            reps = [ops.call("kernel_A", 1, Q.kernel_A, D3, LAM, a, b, cn=cn3)
                    for a, b in ((xi, xp), (t * xi, xp / t), (xi @ u, xp @ u))]
            if all(r is not None for r in reps):
                out += C.check_kernel_n3(LAM, t, *(r.value for r in reps),
                                         err=sum(r.abs_error for r in reps))

        out += self._product_round(ops, pc, current, shifts, gammas)
        return out

    def _product_round(self, ops: Ops, pc, current, shifts, gammas) -> list:
        cells = self.product_cells
        pairs = [(c.nodes, c.weights) for c in cells]
        one = [np.exp(-np.sum((c.nodes - p) ** 2, axis=-1))
               - np.exp(-np.sum((c.nodes + p) ** 2, axis=-1)) for c, p in zip(cells, pc)]
        phi = gridfn.GridFunction(cells, np.multiply.outer(*one))
        weights = C.nu_weights(1, PRODUCT.masses, pairs)
        norm = float(np.sum(np.abs(phi.values) ** 2 * weights))
        scale = float(np.sum(np.abs(phi.values) * weights))
        out = []

        inv1 = ops.call("product", 1, R.involution_apply, D2, PRODUCT, phi)
        inv2 = None if inv1 is None else \
            ops.call("product", 1, R.involution_apply, D2, PRODUCT, inv1)
        if inv2 is not None:
            err = float(np.sum(np.abs(inv2.values - phi.values) ** 2 * weights))
            out += C.check_involution("involution twice", err, norm)

        moved = ops.call("product", 1, R.u_current_apply, D2, PRODUCT, current, phi)
        if moved is not None:
            out += C.check_norm_preserved(
                "u_current_apply", norm,
                C.nu_norm_ref(1, PRODUCT.masses, [(c.nodes, c.weights) for c in moved.cells],
                              moved.values))

        ident = np.eye(1)
        z = [G.TriangularElement(1.0, ident, s) for s in shifts]
        shifted = ops.call("product", 1, R.u_current_apply, D2, PRODUCT, z, phi)
        if shifted is None:
            return out
        for k, gamma in enumerate(gammas):
            lhs = ops.call("product", 1, R.r_transform, D2, PRODUCT, shifted, gamma)
            rhs = ops.call("product", 1, R.r_transform, D2, PRODUCT, phi, gamma + shifts)
            if lhs is not None and rhs is not None:
                out += C.check_r_translation(f"r_transform gamma#{k}", lhs, rhs, scale)
        return out

    def finish(self) -> list:
        return []


WORKLOADS = {"check-all": CheckAll, "sampling": Sampling, "operators": Operators}

# workload rates: units of work per second of the calls of one kind, table
# builds counted in the path rates; 0 on a workload without that kind
RATES = {
    "marginal_draws_per_s": "marginal",
    "paths_per_s_n2": "paths_n2",
    "paths_per_s_n3": "paths_n3",
    "density_evals_per_s": "density",
    "kernel_entries_per_s": "kernel",
    "word_applies_per_s": "words",
    "kernel_quad_entries_per_s": "kernel_A",
}
