"""currentlab benchmark.

    python3 bench/run.py --workload {check-all,sampling,operators} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from src/.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones
(setup_s, peak_rss_mb, wall_s; the times scaled to the machine's nominal
speed, see machine.py); with --trace 1 they are the per-layer ones,
taken from a traced pass, with the workload rates and the tracing overhead
from an untraced pass made alongside.  See bench/README.md.

The script orchestrates child processes of itself and imports nothing of
the program: set-up is timed from spawning a child to the child finishing
its imports and inputs, several times, and every measured pass runs in a
fresh child.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOAD_NAMES = ("check-all", "sampling", "operators")

SETUP_SAMPLES = 5        # set-up times per run, the measured pass included
RUN_LIMIT_S = 170.0      # a run must end within 180 s
CHILD_MARGIN_S = 10.0    # a measured child's start-up, inputs and exit
READY = "bench-ready"


# ---------------------------------------------------------------------------
# child side
# ---------------------------------------------------------------------------

def _child(args) -> int:
    sys.path.insert(0, SRC)
    import workloads  # imports currentlab from src/

    workload = workloads.WORKLOADS[args.workload](args.seed)
    print(READY, time.monotonic(), flush=True)
    if args.role == "setup":
        return 0

    import machine

    ops = workloads.Ops(machine.Reference())
    tracer = None
    if args.traced:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    failures = []
    walls = []
    start = time.perf_counter()
    longest = 0.0   # the longest round so far, checks and reference included
    index = 0
    while index == 0 or (time.perf_counter() - start < args.seconds
                         and time.perf_counter() - start + longest < args.budget):
        ops.round_seconds = 0.0
        t0 = time.perf_counter()
        failures += workload.round(ops, index)
        walls.append(ops.round_seconds)
        longest = max(longest, time.perf_counter() - t0)
        index += 1
    ops.checkpoint(force=True)
    failures += workload.finish()
    kinds = ", ".join(f"{k} {v:.3f} s" for k, v in ops.seconds.items())
    print(f"{args.workload}: rounds {' '.join(f'{w:.3f}' for w in walls)} s; "
          f"time by kind: {kinds}", file=sys.stderr)
    for msg in failures:
        print("check failed:", msg, file=sys.stderr)

    result = {
        "correct": not failures,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "rounds": index,
        # the round time at the machine's nominal speed (see machine.py)
        "wall_s": ops.scaled_seconds / index,
        "wall_raw_s": statistics.fmean(walls),
        "ref_unit_ms": 1e3 * statistics.median(ops.refs),
        "first_ref": ops.refs[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rates": {name: ops.rate(kind) for name, kind in workloads.RATES.items()},
    }
    if tracer:
        result["per_layer"] = tracing.per_layer_metrics(tracer.spans)
        result["spans"] = len(tracer.spans)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    print(json.dumps(result), flush=True)
    return 0


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------

class RunError(Exception):
    pass


def _spawn(args, role: str, deadline: float, traced: bool = False, share: float = 1.0):
    """Run one child; returns (set-up seconds, parsed result or None).  The
    child starts no round that would end past its share of the time left."""
    budget = share * (deadline - time.monotonic()) - CHILD_MARGIN_S
    cmd = [sys.executable, os.path.abspath(__file__), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--budget", f"{budget:.1f}"] \
        + (["--traced"] if traced else [])
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError(f"{role} child ran past the run's time limit")
    if proc.returncode != 0:
        raise RunError(f"{role} child exited with code {proc.returncode}")
    lines = stdout.splitlines()
    ready = [ln for ln in lines if ln.startswith(READY)]
    if not ready:
        raise RunError(f"{role} child never finished its set-up")
    setup = float(ready[0].split()[1]) - t0
    return setup, (json.loads(lines[-1]) if role == "measure" else None)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    ap.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--budget", type=float, default=RUN_LIMIT_S, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.role:
        return _child(args)

    if not os.path.isfile(os.path.join(SRC, "currentlab", "__init__.py")):
        print(f"error: no currentlab source under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    import machine

    try:
        # each set-up between two samples of the reference (see machine.py);
        # the measured child takes the one after its own
        setups, setup_refs = [], []
        if not args.trace:
            reference = machine.Reference()
            setup_refs.append(reference.sample())
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_spawn(args, "setup", deadline)[0])
                setup_refs.append(reference.sample())
        # a traced run leaves half the time for the traced pass
        setup, plain = _spawn(args, "measure", deadline, share=0.5 if args.trace else 1.0)
        setups.append(setup)
        setup_refs.append(plain["first_ref"])
        traced = _spawn(args, "measure", deadline, traced=True)[1] if args.trace else None
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = [plain] + ([traced] if traced else [])
    result = {
        "correct": all(p["correct"] for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
    }
    if traced:
        metrics = {name: _metric(v, u) for name, (v, u) in traced["per_layer"].items()}
        # workload rates come from the untraced pass (see README)
        for name, rate in plain["rates"].items():
            metrics[name] = _metric(rate, "1/s")
        metrics["trace.overhead_s"] = _metric(traced["wall_s"] - plain["wall_s"], "s")
        # the untraced pass's round time as measured, before scaling
        metrics["wall_raw_s"] = _metric(plain["wall_raw_s"], "s")
        metrics["machine.ref_unit_ms"] = _metric(plain["ref_unit_ms"], "ms")
        metrics["trace.spans"] = _metric(traced["spans"], "count")
    else:
        setup_s = statistics.median(machine.Reference.scaled(t, setup_refs[i],
                                                             setup_refs[i + 1])
                                    for i, t in enumerate(setups))
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(plain["peak_rss_mb"], "MB"),
            "wall_s": _metric(plain["wall_s"], "s"),
        }
        print(f"as measured: setup_s {statistics.median(setups):.4f}, wall_s "
              f"{plain['wall_raw_s']:.4f}; reference unit {plain['ref_unit_ms']:.2f} ms",
              file=sys.stderr)
    result["metrics"] = metrics
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump(dict(result, rounds=[p["rounds"] for p in passes],
                       wall_raw_s=plain["wall_raw_s"], ref_unit_ms=plain["ref_unit_ms"]),
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
