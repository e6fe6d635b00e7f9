import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from currentlab import suites as S
from currentlab.gridfn import grid_2d_sqrt

ROOT = Path(__file__).resolve().parents[1]

MC_CHECKS = ("mu-projection-mc-n2", "mu-projection-mc-n3")


def _run_tool(*args) -> str:
    done = subprocess.run([sys.executable, *args], cwd=ROOT, timeout=300,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_mc_rate_runs_the_two_monte_carlo_checks():
    out = _run_tool("tools/mc_rate.py", "--seeds", "2")
    assert "2 Monte Carlo checks, seeds 0..1" in out
    for check_id in MC_CHECKS:
        assert check_id in out
    assert "seeds with a failure:" in out


def test_check_times_runs_one_suite():
    out = _run_tool("tools/check_times.py", "--rounds", "1", "--suite", "coherence")
    assert "1 warm rounds" in out
    # the coherence suite holds both Monte Carlo checks
    for check_id in MC_CHECKS:
        assert check_id in out
    assert "round" in out.splitlines()[-1]


def test_check_times_reports_each_checks_traced_peak():
    out = _run_tool("tools/check_times.py", "--rounds", "1", "--suite", "reps")
    assert "tracemalloc peak above the check's start" in out.splitlines()[0]
    rows = {line.split()[0]: [float(x) for x in line.split()[1:]]
            for line in out.splitlines()[2:] if not line.startswith("per ")}
    assert all(len(cols) == 4 and cols[3] >= 0.0 for cols in rows.values())
    # the inversion holds two N x N real functions on the operator grid
    # (8 N^2 bytes each) at once
    n = S._operator_grid().size
    assert rows["dual-transform-inversion"][3] > 2 * 8 * n ** 2 / 2 ** 20
    # a suite's and the round's peak is their largest check's
    assert rows["reps"][3] == rows["round"][3] == max(
        cols[3] for name, cols in rows.items() if name not in ("reps", "round"))


def test_special_evals_runs_one_suite():
    out = _run_tool("tools/special_evals.py", "--suite", "spherical")
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()[2:]}
    assert len(rows) == 13 and "round" in rows
    # each distinct radius of the polar grid of the lam < d cells (2048
    # nodes on 64 radii, which the norm splits by rounding) is evaluated once
    distinct = np.unique(grid_2d_sqrt(40.0, 64, 32).radii).size
    assert rows["spherical-n3-l1-g1"] == [str(distinct), "0"]
    assert rows["round"][1] == "0"
    assert out.splitlines()[0].startswith(
        "scipy.special points (kve, k0e, k1e, hankel1, hankel1e, hankel2e, j0, jv)")
    # the n = 2 kernel blocks at lam = 1/2 are closed forms that call no
    # scipy function (1056 to 22166 points a check before)
    out = _run_tool("tools/special_evals.py", "--suite", "reps")
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()[2:]}
    for check in ("kernel-involution", "inversion-dilation-conjugation",
                  "inversion-translation-exchange"):
        assert rows[check] == ["0", "0"]
    assert int(rows["dual-transform-inversion"][0]) > 0


def test_grid_floor_runs_one_grid():
    out = _run_tool("tools/grid_floor.py", "--grids", "25,64")
    header, row = out.splitlines()[1:]
    checks = header.split()[2:]
    assert checks == ["inversion-translation-exchange", "dual-transform-inversion",
                      "kernel-involution"]
    cols = row.split()
    assert cols[:2] == ["25.0", "64"] and len(cols) == 2 + 2 * len(checks)
    # on its own 64-node grid, kernel-involution reads its registry residual
    (report,) = S.run_suite(S.RunConfig(workers=1), "reps", check_ids=["kernel-involution"])
    assert float(cols[6]) == float(f"{report.residual:.3e}")
    assert all(float(ms) > 0.0 for ms in cols[3::2])


def test_peak_memory_runs_one_sampling_round():
    out = _run_tool("tools/peak_memory.py", "--workload", "sampling", "--rounds", "1")
    lines = out.splitlines()
    assert lines[0].startswith("sampling, seed 1, 1 rounds in one process")
    assert lines[1].startswith("round 0: ru_maxrss") and lines[1].endswith(", 0 failed checks")
    rise = float(lines[1].split("(+")[1].split(")")[0])
    charged = {label.strip(): float(mb)
               for label, mb in (line.rsplit(None, 1) for line in lines[2:-1])}
    # the rise is charged to the call kinds, the benchmark's checks and the rest
    assert {"call marginal", "call paths_n2", "call paths_n3", "call density",
            "check check_marginal_draws", "other"} <= set(charged)
    assert sum(charged.values()) == pytest.approx(rise, abs=0.05)
    assert all(mb >= 0.0 for label, mb in charged.items() if label != "other")
    assert lines[-1].endswith("0 failed checks in all")


def test_peak_memory_charges_check_all_to_each_suite():
    out = _run_tool("tools/peak_memory.py", "--workload", "check-all", "--rounds", "1")
    lines = out.splitlines()
    assert lines[0].startswith("check-all, seed 1, 1 rounds in one process")
    assert lines[1].endswith(", 0 failed checks")
    rise = float(lines[1].split("(+")[1].split(")")[0])
    charged = {label.strip(): float(mb)
               for label, mb in (line.rsplit(None, 1) for line in lines[2:-1])}
    # one row per suite, in registry order, and none for suite calls as a kind
    suite_rows = [label.split()[1] for label in charged if label.startswith("suite ")]
    assert suite_rows == list(dict.fromkeys(spec.suite for spec in S.suite_specs("all")))
    assert "call suite" not in charged
    assert sum(charged.values()) == pytest.approx(rise, abs=0.05)
    assert all(mb >= 0.0 for label, mb in charged.items() if label != "other")


def test_reach_lists_what_one_suite_never_calls():
    out = _run_tool("tools/reach.py", "--suite", "group")
    lines = out.splitlines()
    assert lines[0].endswith("workloads: check group")
    count = int(lines[1].split(": ")[1])
    unreached = {line.split()[1] for line in lines[2:]}
    assert len(unreached) == count == len(lines) - 2
    # the group suite builds no operator and draws no sample
    assert {"kernel_matrix", "sample_marginal", "_cmd_rep_apply"} <= unreached
    # reached: the group checks, which the registry's decorator binds at
    # import, the decorator itself, an lru_cache function and a property
    assert not {"_membership", "_cocycle_law", "_check", "_check.deco", "form_matrix",
                "Dimensions.d", "factor_words"} & unreached
