"""Warm time of every registry check, over many rounds in one process.

    python3 tools/check_times.py --rounds 20
    python3 tools/check_times.py --rounds 20 --suite fourier

One unmeasured round first pays the imports and the rules cached for the
life of the process; in it the script reads ru_maxrss, the process's peak
resident memory, before and after each check, and reports how much each
check raised it (the memory a check first needs beyond what the checks
before it left, which is what a cold `check all` pays).  ru_maxrss is a
high-water mark, so it reads 0 for a check whose peak stays below an
earlier check's; a second unmeasured round therefore runs under
tracemalloc and reports each check's own peak of traced memory (numpy
arrays and Python objects) above what was live when it started.  Before
every round the script clears what the benchmark's check-all round rebuilds
(cached_cn, fit_levy_khinchin_kappa and reps._KERNEL_CACHE), so the check
that first needs a kernel block is charged for it, as in `currentlab check
all`.  The calibrated c_n and the fitted kappa are read only by their own
checks, so they are charged to fourier-constant-n* and
levy-khinchin-constant-n*; the other checks take the closed forms.  Each
check runs as `check all --seed S --workers 1` runs it, on the stream of
its registry index, and is timed alone.  The script prints, per check and per suite (the sum of its checks
in a round), the minimum and the median over the rounds in ms, the
first round's ru_maxrss rise in MB and the traced round's peak in MB (a
suite's and the round's peak is the largest of their checks').  On a
shared machine only minima over 15 or more rounds repeat between runs.
Run it from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time
import tracemalloc
from collections import defaultdict

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from currentlab import quadrature as Q  # noqa: E402
from currentlab import reps as R  # noqa: E402
from currentlab import suites as S  # noqa: E402


def _clear_caches() -> None:
    Q.cached_cn.cache_clear()
    Q.fit_levy_khinchin_kappa.cache_clear()
    R._KERNEL_CACHE.clear()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _round(indexed: list, config: S.RunConfig, rss_rise=None, traced_peak=None) -> dict:
    """Seconds per check id of one round, caches cleared first; with a
    dict rss_rise, also the rise of ru_maxrss per check id in MB, and with
    a dict traced_peak (tracemalloc tracing), the peak of traced memory
    above the check's start per check id in MB."""
    _clear_caches()
    out = {}
    for index, spec in indexed:
        stream = S.SeededStream(config.seed, index)
        rss0 = _peak_rss_mb()
        if traced_peak is not None:
            tracemalloc.reset_peak()
            traced0 = tracemalloc.get_traced_memory()[0]
        t0 = time.perf_counter()
        spec.fn(config, stream)
        out[spec.check_id] = time.perf_counter() - t0
        if rss_rise is not None:
            rss_rise[spec.check_id] = _peak_rss_mb() - rss0
        if traced_peak is not None:
            traced_peak[spec.check_id] = (tracemalloc.get_traced_memory()[1] - traced0) / 2 ** 20
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rounds", type=int, default=20, help="measured rounds")
    ap.add_argument("--seed", type=int, default=S.RunConfig().seed)
    ap.add_argument("--suite", choices=S.SUITE_NAMES, default="all",
                    help="time only the checks of this suite")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")

    config = S.RunConfig(seed=args.seed, workers=1)
    indexed = S.indexed_specs(args.suite)
    specs = [spec for _, spec in indexed]
    rss_start = _peak_rss_mb()
    rss_rise, peak = {}, {}
    _round(indexed, config, rss_rise=rss_rise)  # warm-up
    tracemalloc.start()
    _round(indexed, config, traced_peak=peak)
    tracemalloc.stop()
    per_check = defaultdict(list)
    per_suite = defaultdict(list)
    totals = []
    for _ in range(args.rounds):
        times = _round(indexed, config)
        suite_sums = defaultdict(float)
        for spec in specs:
            per_check[spec.check_id].append(times[spec.check_id])
            suite_sums[spec.suite] += times[spec.check_id]
        for name, t in suite_sums.items():
            per_suite[name].append(t)
        totals.append(sum(times.values()))

    suite_rise = defaultdict(float)
    suite_peak = defaultdict(float)
    for spec in specs:
        suite_rise[spec.suite] += rss_rise[spec.check_id]
        suite_peak[spec.suite] = max(suite_peak[spec.suite], peak[spec.check_id])

    def row(name: str, ts: list, rise: float, traced: float) -> str:
        return (f"  {name:34s} {1e3 * min(ts):9.2f} {1e3 * float(np.median(ts)):9.2f}"
                f" {rise:9.2f} {traced:9.2f}")

    print(f"{len(specs)} checks, {args.rounds} warm rounds, seed {args.seed}; "
          "ms: min, median; MB: ru_maxrss rise in the first round "
          f"(from {rss_start:.1f} MB), tracemalloc peak above the check's start")
    print("per check")
    for spec in specs:
        print(row(spec.check_id, per_check[spec.check_id], rss_rise[spec.check_id],
                  peak[spec.check_id]))
    print("per suite")
    for name, ts in per_suite.items():
        print(row(name, ts, suite_rise[name], suite_peak[name]))
    print(row("round", totals, sum(rss_rise.values()), max(peak.values())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
