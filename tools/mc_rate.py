"""False-failure rate of the registry's Monte Carlo checks over many seeds.

    python3 tools/mc_rate.py --seeds 1000

The Monte Carlo checks are those whose residual is a deviation in standard
errors, with tolerance 3.0.  For each seed s in 0 .. N-1 the script runs
them with run_suite(RunConfig(seed=s, workers=1), "all", check_ids=...),
exactly as `currentlab check all --seed s` would, and prints per check the
number of seeds on which it failed and its largest residual, then the seeds
on which any check failed.  On correct code a 3-SE check fails on about
0.27 % of seeds.  Run it from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from currentlab import suites as S  # noqa: E402

SE_TOLERANCE = 3.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=1000, help="run seeds 0 .. N-1")
    args = ap.parse_args(argv)

    ids = [s.check_id for s in S.suite_specs("all") if s.tolerance == SE_TOLERANCE]
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
                f"{seed} (" + ", ".join(f"{r.check_id} {r.residual:.2f}" for r in failed) + ")")
    print(f"{len(ids)} Monte Carlo checks, seeds 0..{args.seeds - 1}, "
          f"{time.perf_counter() - t0:.1f} s")
    for cid in ids:
        print(f"  {cid:32s} failed {failures[cid]:4d}  worst {worst[cid]:.2f} SE")
    print(f"seeds with a failure: {len(bad_seeds)} of {args.seeds}")
    for line in bad_seeds:
        print("  " + line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
