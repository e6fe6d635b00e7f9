"""Points of scipy.special that each registry check evaluates, and how many of
them the check had evaluated before.

    python3 tools/special_evals.py
    python3 tools/special_evals.py --suite spherical

The script wraps the scipy.special functions that currentlab's modules bind
(kve, k0e, k1e, hankel1, hankel1e, hankel2e, j0 and jv), so every
call made through those names is counted, and then runs one round of the
registry in this
fresh process, each check on the stream of its registry index, as `check
all --seed S --workers 1` runs it.  A call counts one point per element of its broadcast
arguments.  A point repeats when the same function was evaluated at the same
arguments earlier in the same check.  The rules cached for the life of the
process are built in the check that first needs them, as in a cold `check
all`.  The script prints, per check, the points evaluated and the repeats,
then their totals over the round.  n = 2 kernel entries at lam = 1/2 take
H^(1)_{1/2} and K_{1/2} in closed form and call no scipy function, so the
checks that use only such blocks count none.  Run it from the root of a
source checkout.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import defaultdict

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from currentlab import quadrature, reps, specfun  # noqa: E402
from currentlab import suites as S  # noqa: E402

COUNTED = ("kve", "k0e", "k1e", "hankel1", "hankel1e", "hankel2e", "j0", "jv")


class Counter:
    """Records the argument points of every wrapped call, per function."""

    def __init__(self):
        self.points = defaultdict(list)

    def wrap(self, name: str, fn):
        def counted(*args):
            self.points[name].append(np.stack(
                [a.ravel() for a in np.broadcast_arrays(*map(np.asarray, args))], axis=1))
            return fn(*args)
        return counted

    def take(self) -> tuple:
        """(points, repeats) since the last take, and start afresh."""
        total = repeats = 0
        for chunks in self.points.values():
            pts = np.concatenate(chunks)
            total += len(pts)
            repeats += len(pts) - len(np.unique(pts, axis=0))
        self.points.clear()
        return total, repeats


def install(counter: Counter) -> None:
    for module in (specfun, quadrature, reps):
        for name in COUNTED:
            if hasattr(module, name):
                setattr(module, name, counter.wrap(name, getattr(module, name)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=S.RunConfig().seed)
    ap.add_argument("--suite", choices=S.SUITE_NAMES, default="all",
                    help="count only the checks of this suite")
    args = ap.parse_args(argv)

    counter = Counter()
    install(counter)
    config = S.RunConfig(seed=args.seed, workers=1)
    print(f"scipy.special points ({', '.join(COUNTED)}), one round, seed {args.seed}")
    print(f"  {'check':34s} {'points':>9s} {'repeats':>9s}")
    total = repeats = 0
    for index, spec in S.indexed_specs(args.suite):
        spec.fn(config, S.SeededStream(config.seed, index))
        pts, rep = counter.take()
        total += pts
        repeats += rep
        print(f"  {spec.check_id:34s} {pts:9d} {rep:9d}")
    print(f"  {'round':34s} {total:9d} {repeats:9d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
