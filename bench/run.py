"""frontlab benchmark: one workload per process, end-to-end or traced.

Usage (from the repository root):

    python3 bench/run.py --workload front_convective --seed 1 --seconds 20 --trace 0

The run measures set-up in fresh processes, builds the inputs, then
repeats the workload's operation (see ``workloads.py``) while the next one
still fits in ``--seconds``; at least one always runs.  Every operation is
checked by its gate.  Progress goes to stderr; stdout ends with an
environment line and then the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with no wrapper
installed.  ``--trace 1`` runs one operation untraced as the reference,
then traced ones, and reports the per-layer metrics of ``tracing.py``; the
spans are written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import SMOKE_WORKLOADS, WORKLOADS, Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Set-up is timed in this many fresh processes; the median is reported.
SETUP_REPEATS = 7

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="shrunken inputs, one set-up (self-check)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _environment(args, workload) -> dict:
    import numpy
    import scipy

    blas_env = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": workload.uses_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k, "unset") for k in blas_env},
        "git_commit": _git_commit(),
    }


def _time_setups(args, repeats: int) -> list[float]:
    """Wall time of fresh processes that import frontlab and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def _operate(workload, inputs, log):
    """One operation; an exception counts as a failed one, timed to the raise."""
    t0 = time.perf_counter()
    try:
        outcome = workload.operate(inputs, OUT)
    except Exception as exc:
        traceback.print_exc()
        elapsed = time.perf_counter() - t0
        outcome = Outcome(elapsed, elapsed, False, f"{type(exc).__name__}: {exc}")
    log.append(outcome)
    print(
        f"[{workload.name}] op {len(log)}: solve {outcome.solve_s:.4f}s run {outcome.run_s:.4f}s "
        f"{'ok' if outcome.ok else 'FAILED'} {outcome.detail}",
        file=sys.stderr,
        flush=True,
    )
    return outcome


def _repeat(fn, seconds: float, t_start: float) -> None:
    """Call fn() while another call is expected to end within the window."""
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        fn()
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - t_start + longest > seconds:
            return


def main(argv=None) -> int:
    args = _parse(argv)
    table = SMOKE_WORKLOADS if args.smoke else WORKLOADS
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(table)}", file=sys.stderr)
        return 2
    workload = table[args.workload]
    if args.setup_only:
        workload.build(args.seed)
        return 0
    if not workload.uses_seed:
        print(f"[{workload.name}] no random input: seed {args.seed} is ignored", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    env = _environment(args, workload)
    log = []

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            inputs = workload.build(args.seed)
        finally:
            tracer.uninstall()
        setup_layers = tracer.layer_metrics()
        t_start = time.perf_counter()
        reference = _operate(workload, inputs, log)
        per_op = []

        def traced():
            first = len(tracer.spans)
            tracer.install()
            try:
                outcome = _operate(workload, inputs, log)
            finally:
                tracer.uninstall()
            per_op.append((outcome, tracer.layer_metrics(first)))

        _repeat(traced, args.seconds, t_start)
        tracer.dump(OUT / f"trace_{args.workload}_seed{args.seed}.jsonl")
        values = {
            name: statistics.median(layers[name] for _, layers in per_op)
            for name in per_op[0][1]
        }
        values["laminar.speed_s"] = setup_layers["laminar.speed_s"]
        p50, p99 = tracing.step_percentiles(reference.step_ms)
        values["evolve.step_ms_p50"] = p50
        values["evolve.step_ms_p99"] = p99
        values["evolve.recenter_events"] = reference.recenter_events
        traced_s = statistics.median(o.run_s for o, _ in per_op)
        values["trace.overhead_frac"] = traced_s / reference.run_s - 1.0
        units = tracing.LAYER_METRICS
    else:
        setup_s = statistics.median(_time_setups(args, 1 if args.smoke else SETUP_REPEATS))
        inputs = workload.build(args.seed)
        _repeat(lambda: _operate(workload, inputs, log), args.seconds, time.perf_counter())
        values = {
            "setup_s": setup_s,
            "solve_s": statistics.median(o.solve_s for o in log),
            "run_s": statistics.median(o.run_s for o in log),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END

    failed = sum(not o.ok for o in log)
    result = {
        "correct": failed == 0,
        "attempted": len(log),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps({"environment": env}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
