"""Failure rate of registry checks over many seeds.

    python3 tools/mc_rate.py --seeds 1000
    python3 tools/mc_rate.py --seeds 1000 --suite group

By default it runs the Monte Carlo checks, those whose residual is a
deviation in standard errors, with tolerance 3.0; on correct code a 3-SE
check fails on about 0.27 % of seeds.  --suite runs every check of a suite,
deterministic checks included: a check that is exact up to rounding should
fail on no seed.  For each seed s in 0 .. N-1 the script runs the checks
with run_suite(RunConfig(seed=s, workers=1), "all", check_ids=...), exactly
as `currentlab check all --seed s` would, and prints per check the number of
seeds on which it failed and its largest residual over them, then the seeds
on which any check failed.  Run it from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from currentlab import suites as S  # noqa: E402

SE_TOLERANCE = 3.0


def _check_ids(suite) -> list:
    if suite:
        return [s.check_id for s in S.suite_specs(suite)]
    return [s.check_id for s in S.suite_specs("all") if s.tolerance == SE_TOLERANCE]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=1000, help="run seeds 0 .. N-1")
    ap.add_argument("--suite", choices=[n for n in S.SUITE_NAMES if n != "all"],
                    help="run every check of this suite")
    args = ap.parse_args(argv)

    ids = _check_ids(args.suite)
    failures = {cid: 0 for cid in ids}
    worst = {cid: 0.0 for cid in ids}
    bad_seeds = []
    t0 = time.perf_counter()
    for seed in range(args.seeds):
        reports = S.run_suite(S.RunConfig(seed=seed, workers=1), "all", check_ids=ids)
        failed = [r for r in reports if not r.passed]
        for r in reports:
            worst[r.check_id] = max(worst[r.check_id], r.residual)
        for r in failed:
            failures[r.check_id] += 1
        if failed:
            bad_seeds.append(
                f"{seed} (" + ", ".join(f"{r.check_id} {r.residual:.3g}" for r in failed) + ")")
    kind = "checks" if args.suite else "Monte Carlo checks"
    print(f"{len(ids)} {kind}, seeds 0..{args.seeds - 1}, {time.perf_counter() - t0:.1f} s")
    for cid in ids:
        print(f"  {cid:32s} failed {failures[cid]:4d}  worst {worst[cid]:.3g}")
    print(f"seeds with a failure: {len(bad_seeds)} of {args.seeds}")
    for line in bad_seeds:
        print("  " + line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
