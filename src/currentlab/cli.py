"""Command-line entry point: special-function evaluation, check suites,
samplers, density evaluation, kernel tabulation, operator application, and
group-law verification, all emitting machine-readable output.

Exit status: 0 on success (and all checks passing), 1 when a suite has
failures, 2 on usage errors.  Every command fails the same way: a bad
argument, seed, config or output path prints `error: <message>` on stderr,
writes nothing to stdout, leaves no output file, and exits 1.  main is the
one place that turns such a failure (DomainError, ValueError, OSError) into
that message; every output file goes through suites.write_atomic."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import group as G
from . import measures as M
from . import process as P
from . import quadrature as Q
from . import reps as R
from . import specfun, suites
from .errors import DomainError
from .gridfn import CellGrid, grid_1d_sqrt, grid_2d_sqrt
from .process import SeededStream
from .specfun import Dimensions

_SEED_ENV = "CURRENTLAB_SEED"


def _default_seed() -> int:
    return int(os.environ.get(_SEED_ENV, "2024"))


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.asarray([float(v) for v in text.split(",")])
    except ValueError:
        raise DomainError(f"expected comma-separated numbers, got {text!r}") from None


def _parse_partition(text: str) -> tuple:
    return tuple(_parse_vector(text).tolist())


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_specfun_eval(args) -> int:
    x = args.x
    if args.fn == "K":
        val = specfun.bessel_k(args.rho, x)
    elif args.fn == "V":
        val = specfun.v_rho(args.rho, x)
    elif args.fn == "g":
        val = specfun.levy_density_radial(Dimensions(args.n), x)
    else:  # psi: single-cell marginal density at radius x
        val = math.exp(specfun.log_marginal_radial_density(
            Dimensions(args.n), args.lam, x))
    print(repr(float(val)))
    return 0


# the JSON types a config-file value may have, per RunConfig field
_CONFIG_TYPES = {
    "seed": (int, "an integer"),
    "workers": (int, "an integer"),
    "trials": (int, "an integer"),
    "format": (str, "a string"),
    "output_path": ((str, type(None)), "a string or null"),
    "tolerances": (dict, "an object"),
}


def _is(value, kind) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(value, kind) and not isinstance(value, bool)


def _load_config_file(path: str) -> dict:
    with open(path) as fh:
        base = json.load(fh)
    if not isinstance(base, dict):
        raise DomainError("a config file holds one JSON object")
    unknown = sorted(set(base) - {f.name for f in dataclasses.fields(suites.RunConfig)})
    if unknown:
        raise DomainError(f"unknown config key {', '.join(map(repr, unknown))}")
    for key, value in base.items():
        kind, name = _CONFIG_TYPES[key]
        if not _is(value, kind):
            raise DomainError(f"config key {key!r} must be {name}, "
                              f"got {type(value).__name__}")
    for check_id, tol in base.get("tolerances", {}).items():
        if not _is(tol, (int, float)):
            raise DomainError(f"tolerance of {check_id!r} must be a number, "
                              f"got {type(tol).__name__}")
    return base


def _build_run_config(args) -> suites.RunConfig:
    base: dict = {}
    if args.config:
        base = _load_config_file(args.config)
    if _SEED_ENV in os.environ and "seed" not in base:
        base["seed"] = _default_seed()
    # explicit flags override config-file values
    for key in ("seed", "workers", "trials", "format"):
        val = getattr(args, key)
        if val is not None:
            base[key] = val
    if args.out:
        base["output_path"] = args.out
    if "tolerances" in base:
        base["tolerances"] = {k: float(v) for k, v in base["tolerances"].items()}
    return suites.RunConfig(**base)


def _cmd_check(args) -> int:
    cfg = _build_run_config(args)
    reports = suites.run_suite(cfg, args.suite)
    _emit(suites.json_report(cfg, args.suite, reports))
    return 0 if all(r.passed for r in reports) else 1


def _process_record(config: P.PointConfiguration) -> dict:
    return {
        "atoms": [
            {"x": float(x), "c": c.tolist()}
            for x, c in zip(config.positions, config.amplitudes)
        ],
        "truncation_bound": config.truncation_bound,
    }


def _cmd_sample(args) -> int:
    """Validate the arguments, then write each JSONL record as it is made, so
    that memory holds the draws but never all the records."""
    dims = Dimensions(args.n)
    stream = SeededStream(args.seed if args.seed is not None else _default_seed())
    if args.kind == "marginal":
        part = M.Partition(_parse_partition(args.partition))
        draws = P.sample_marginal(dims, part, stream, size=args.count) \
            if args.count > 0 else ()
        records = ({"xi": xi.tolist()} for xi in draws)
    else:
        if not 0.0 < args.mass < math.inf:
            raise DomainError("--mass must be positive and finite")
        table = P.JumpSizeTable(dims, args.eps, P.default_intensity_scale(dims))
        records = (_process_record(P.sample_process(dims, args.mass, args.eps, stream,
                                                    table=table))
                   for _ in range(args.count))
    suites.write_atomic(args.out, (json.dumps(rec) + "\n" for rec in records))
    return 0


def _cmd_measure_density(args) -> int:
    dims = Dimensions(args.n)
    part = M.Partition(_parse_partition(args.partition))
    xi = _parse_vector(args.xi)
    if args.which == "mu":
        logv = M.log_mu_alpha_density(dims, part, xi)
    elif args.which == "nu":
        logv = M.log_nu_alpha_density(dims, part, xi)
    else:  # v: xi holds the atom radii of a point configuration
        logv = M.log_density_v(dims, part.total_mass, xi)
    _emit({"value": math.exp(logv), "log_value": logv})
    return 0


def _cmd_kernel_tabulate(args) -> int:
    grid = _parse_vector(args.grid).tolist()
    lines = ["xi,xi_prime,value\n"]
    lines += [f"{xi!r},{xp!r},{Q.kernel_A(Dimensions(2), args.lam, xi, xp).value!r}\n"
              for xi in grid for xp in grid]
    suites.write_atomic(args.out, lines)
    return 0


def _parse_letters(text: str, d: int) -> list:
    letters = []
    for part in text.split("|"):
        part = part.strip()
        if part == "s":
            letters.append("s")
            continue
        kind, _, payload = part.partition(":")
        vec = _parse_vector(payload) if payload else np.zeros(d)
        if kind == "z":
            if vec.shape != (d,):
                raise DomainError(f"z letter needs {d} components, got {len(vec)}")
            letters.append(G.TriangularElement(1.0, np.eye(d), vec))
        elif kind == "d":
            letters.append(G.TriangularElement(float(vec[0]), np.eye(d),
                                               np.zeros(d)))
        else:
            raise DomainError(f"unknown letter {part!r} (use z:…, d:…, or s)")
    return letters


def _rep_grid(dims: Dimensions, text: str) -> CellGrid:
    """The operator checks' grid for --grid radius,count: grid_1d_sqrt(radius,
    count) at n = 2, grid_2d_sqrt(radius, count/4, count/4) at n = 3."""
    try:
        radius, count = text.split(",")
        radius, count = float(radius), int(count)
    except ValueError:
        raise DomainError(f"--grid takes radius,count, got {text!r}") from None
    if not (math.isfinite(radius) and radius > 0):
        raise DomainError(f"--grid radius must be finite and positive, got {radius}")
    if dims.n == 2:
        if count < 2 or count % 2:
            raise DomainError(f"--grid count must be even and at least 2 at n = 2, got {count}")
        return grid_1d_sqrt(radius, count)
    if dims.n == 3:
        if count < 8 or count % 4:
            raise DomainError("--grid count must be a multiple of 4 and at least 8 at n = 3 "
                              f"(count/4 radii and count/4 angles), got {count}")
        return grid_2d_sqrt(radius, count // 4, count // 4)
    raise DomainError("grids implemented for d in {1, 2}")


def _cmd_rep_apply(args) -> int:
    dims = Dimensions(args.n)
    grid = _rep_grid(dims, args.grid)
    letters = _parse_letters(args.g, dims.d)
    phi = R.tabulate([grid], lambda xi: np.exp(-np.sum(xi ** 2, axis=-1)))
    out = R.t_comm_apply(dims, args.lam, G.GroupWord(dims.n, letters), phi,
                         target=grid)
    payload = {
        "lambda": args.lam,
        "nodes": out.cells[0].nodes.tolist(),
        "values": [[float(v.real), float(v.imag)] for v in out.values],
    }
    if args.out:
        suites.write_atomic(args.out, [json.dumps(payload) + "\n"])
    else:
        _emit(payload)
    return 0


_REP_SUITE_CHECKS = {
    "unitarity": ("z-letter-unitarity", "d-letter-unitarity",
                  "current-letter-unitarity", "kernel-unitarity"),
    "involution": ("kernel-involution", "inversion-dilation-conjugation",
                   "inversion-translation-exchange", "dual-transform-inversion"),
    "tau": ("tensor-embedding-z-commutation", "tensor-embedding-isometry"),
    "spherical": None,  # the whole spherical suite
    "cocycle": ("special-cocycle-law", "special-limit-continuity"),
}


def _cmd_rep_check(args) -> int:
    cfg = _build_run_config(args)
    suite = "spherical" if args.suite == "spherical" else "reps"
    reports = suites.run_suite(cfg, suite, _REP_SUITE_CHECKS[args.suite])
    _emit([
        {"check": r.check_id, "residual": r.residual,
         "tolerance": r.tolerance, "pass": r.passed}
        for r in reports
    ])
    return 0 if all(r.passed for r in reports) else 1


def _cmd_group_check(args) -> int:
    Dimensions(args.n)
    cfg = _build_run_config(args)
    reports = suites.run_suite(cfg, "group")
    _emit({
        "n": args.n,
        "trials": cfg.trials,
        "form_matrix": G.form_matrix(args.n).tolist(),
        "all_pass": all(r.passed for r in reports),
        "reports": [r.to_dict() for r in reports],
    })
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default=None)
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="currentlab",
        description="Numerical checks for the commutative model of the "
                    "current-group representation.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    sf = sub.add_parser("specfun", help="evaluate a special function")
    sf_sub = sf.add_subparsers(dest="action", required=True)
    ev = sf_sub.add_parser("eval")
    ev.add_argument("--fn", choices=("K", "V", "g", "psi"), required=True)
    ev.add_argument("--rho", type=float, default=0.5)
    ev.add_argument("--x", type=float, required=True)
    ev.add_argument("--n", type=int, default=2)
    ev.add_argument("--lambda", dest="lam", type=float, default=0.5)
    ev.set_defaults(func=_cmd_specfun_eval)

    ck = sub.add_parser("check", help="run a check suite")
    ck.add_argument("suite", choices=suites.SUITE_NAMES)
    _add_common(ck)
    ck.set_defaults(func=_cmd_check)

    sa = sub.add_parser("sample", help="draw marginal vectors or processes")
    sa.add_argument("kind", choices=("marginal", "process"))
    sa.add_argument("--n", type=int, default=2)
    sa.add_argument("--partition", default="0.5,0.3")
    sa.add_argument("--mass", type=float, default=1.0)
    sa.add_argument("--eps", type=float, default=0.05,
                    help="small-jump cutoff for the process sampler")
    sa.add_argument("--seed", type=int, default=None)
    sa.add_argument("--count", type=int, required=True)
    sa.add_argument("--out", required=True)
    sa.set_defaults(func=_cmd_sample)

    me = sub.add_parser("measure", help="evaluate a density")
    me_sub = me.add_subparsers(dest="action", required=True)
    de = me_sub.add_parser("density")
    de.add_argument("--which", choices=("mu", "nu", "v"), required=True)
    de.add_argument("--n", type=int, default=2)
    de.add_argument("--partition", default="0.5,0.3")
    de.add_argument("--xi", required=True,
                    help="flat comma-separated cell vectors (radii for v)")
    de.set_defaults(func=_cmd_measure_density)

    ke = sub.add_parser("kernel", help="tabulate the inversion kernel")
    ke_sub = ke.add_subparsers(dest="action", required=True)
    ta = ke_sub.add_parser(
        "tabulate", help="CSV of kernel_A in closed form on a grid",
        description="Tabulate quadrature.kernel_A at n = 2, which is pi * A_op "
                    "(A_op: the operator kernel of the inversion letter s), "
                    "from its Bessel closed form.")
    ta.add_argument("--lambda", dest="lam", type=float, default=0.5)
    ta.add_argument("--grid", required=True, help="comma-separated xi values")
    ta.add_argument("--out", required=True)
    ta.set_defaults(func=_cmd_kernel_tabulate)

    re_ = sub.add_parser("rep", help="apply or check representation operators")
    re_sub = re_.add_subparsers(dest="action", required=True)
    ap = re_sub.add_parser("apply")
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--lambda", dest="lam", type=float, default=0.5)
    ap.add_argument("--g", required=True, help='word like "z:1.0|s|d:2.0"')
    ap.add_argument("--grid", default="25.0,64", help="radius,count")
    ap.add_argument("--out", default=None)
    ap.set_defaults(func=_cmd_rep_apply)
    rc = re_sub.add_parser("check")
    rc.add_argument("--suite", choices=tuple(_REP_SUITE_CHECKS), required=True)
    _add_common(rc)
    rc.set_defaults(func=_cmd_rep_check)

    gr = sub.add_parser("group", help="verify the group laws")
    gr_sub = gr.add_subparsers(dest="action", required=True)
    gc = gr_sub.add_parser("check")
    gc.add_argument("--n", type=int, default=2,
                    help="dimension of the printed form matrix")
    _add_common(gc)
    gc.set_defaults(func=_cmd_group_check)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
