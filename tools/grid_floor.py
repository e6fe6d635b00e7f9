"""Residual floor of the kernel-letter checks against the grid's (R, N).

    python3 tools/grid_floor.py --grids 60,320 80,160 80,192 80,256 100,224

For each grid_1d_sqrt(R, N) the script runs the registry's rows of
inversion-translation-exchange and dual-transform-inversion (which run on
suites._operator_grid) and of kernel-involution (on the 64-node grid) with
that grid in place of their own, and prints each residual and its cold
time in ms: reps._KERNEL_CACHE is cleared before each check, so the time
includes building its kernel blocks.  The times are single runs.  At fixed
R, a residual that stops moving as N grows is limited by the radius, not by
the node count; too few nodes for the radius read worse again.  Run it from
the root of a source checkout.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from currentlab import reps as R  # noqa: E402
from currentlab import suites as S  # noqa: E402
from currentlab.errors import DomainError  # noqa: E402
from currentlab.gridfn import grid_1d_sqrt  # noqa: E402

CHECKS = ("inversion-translation-exchange", "dual-transform-inversion", "kernel-involution")


def _grid_arg(text: str) -> tuple:
    """(R, N, grid_1d_sqrt(R, N)) from "R,N"."""
    try:
        radius, count = text.split(",")
        radius, count = float(radius), int(count)
        return radius, count, grid_1d_sqrt(radius, count)
    except (ValueError, DomainError) as err:
        raise argparse.ArgumentTypeError(f"expected R,N, got {text!r}: {err}") from None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--grids", type=_grid_arg, nargs="+", required=True, metavar="R,N",
                    help="grid_1d_sqrt(R, N) radius and node count")
    args = ap.parse_args(argv)

    config = S.RunConfig(workers=1)
    specs = {spec.check_id: (index, spec) for index, spec in S.indexed_specs("reps")}
    print("grid_1d_sqrt(R, N); per check: residual, cold ms")
    print(f"{'R':>7s} {'N':>5s}" + "".join(f"  {c:>32s}" for c in CHECKS))
    for radius, count, grid in args.grids:
        cols = []
        for check_id in CHECKS:
            index, spec = specs[check_id]
            R._KERNEL_CACHE.clear()
            t0 = time.perf_counter()
            residual = spec.fn(config, S.SeededStream(config.seed, index), grid=lambda: grid)
            ms = 1e3 * (time.perf_counter() - t0)
            cols.append(f"{residual:23.3e} {ms:8.1f}")
        print(f"{radius:7.1f} {count:5d}" + "".join(f"  {c:>32s}" for c in cols))
    return 0


if __name__ == "__main__":
    sys.exit(main())
