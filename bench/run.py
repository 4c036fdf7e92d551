"""Benchmark for contact3: seeded closed-loop workloads, checked and timed.

    python3 bench/run.py --workload all

runs every workload untraced and then traced, and prints the end-to-end
metrics, the per-layer metrics and the tracing overhead of each.  With
one workload name it prints, as its last line, the JSON result of that
workload: the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.

Each workload runs in fresh worker processes (one client, one op at a
time) with BLAS threads pinned to 1.  Times are CPU times scaled to a
reference host speed (``calibration.py``).  Set-up time is the CPU time
a worker has used when its first timed op could start: the median of
the run's worker and one set-up-only process just before and just after
it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from calibration import REFERENCE_S
from summary import TAIL_PERCENTILE, end_to_end

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
GATED = ("oracle-circle", "oracle-isolated", "classify", "atlas")
# not in BENCHMARK.json: it holds the inputs the library still fails on
UNGATED = ("classify-edge",)
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerFailed(RuntimeError):
    pass


def _worker(workload: str, seed: int, seconds: float, mode: str) -> dict:
    """Run one worker process; return its JSON result."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode]
    env = dict(os.environ, **BLAS_ENV)
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=seconds + 150)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{workload} {mode} worker timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{workload} {mode} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def _commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _env(worker_env: dict) -> dict:
    return dict(commit=_commit(), nproc=os.cpu_count(), **worker_env)


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Untraced run: the timed loop, with set-up sampled in it and in one process before and after.

    The host's speed drifts over seconds, so samples spread across the
    run agree better than samples taken back to back.
    """
    before = _worker(workload, seed, seconds, "setup")["setup_s"]
    run = _worker(workload, seed, seconds, "run")
    after = _worker(workload, seed, seconds, "setup")["setup_s"]
    setups = [before, run["setup_s"], after]
    if not run["latencies"]:
        raise WorkerFailed(f"{workload}: every op failed: {run['first_failures']}")
    metrics, extra = end_to_end(setups, run)
    return {"metrics": metrics, "extra": extra, "run": run}


def trace(workload: str, seed: int, seconds: float) -> dict:
    run = _worker(workload, seed, seconds, "trace")
    return {"metrics": run["per_layer"], "run": run}


def _result_line(res: dict) -> str:
    run = res["run"]
    return json.dumps(
        {
            "correct": run["failed"] == 0,
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": res["metrics"],
        }
    )


def _print_run(workload: str, res: dict) -> None:
    run = res["run"]
    print(f"== {workload}: {run['attempted']} ops attempted, {run['failed']} failed")
    for name, count in sorted(run["errors"].items()):
        print(f"   failures {name}: {count}")
    for reason in run["first_failures"]:
        print(f"   e.g. {reason}")
    for name, m in res["metrics"].items():
        print(f"   {name:52s} {m['value']:14.6g} {m['unit']}")
    extra = res.get("extra")
    if extra:
        print(f"   {'error_rate':52s} {extra['error_rate']:14.6g} ratio")
        print(f"   op_tail_ms is p{TAIL_PERCENTILE} of {extra['samples']} successful ops")
        print(
            f"   times are CPU times at the reference host speed; unscaled: ops_per_s {extra['cpu_ops_per_s']:.6g}, "
            f"op_p50_ms {extra['cpu_p50_ms']:.6g}; median calibration {extra['calibration_ms']:.4f} ms "
            f"(reference {1000.0 * REFERENCE_S:g} ms)"
        )
        samples = " ".join(f"{v:.4f}" for v in extra["setup_samples"])
        print(f"   setup_s is the median of {len(extra['setup_samples'])} processes: {samples} s")
    if "counted_ops" in run:
        print(f"   counts and calls are per op over the first {run['counted_ops']} ops; times over all ops")
    for name in run.get("absent", ()):
        print(f"   {name}: absent (hook target missing, reported as 0)")
    for name in run.get("absent_targets", ()):
        print(f"   hook target {name} absent")
    for name, count in run.get("uncollected", {}).items():
        print(f"   {name}: {count} calls whose counts could not be read")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=("all",) + GATED + UNGATED)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="wall seconds of each timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "contact3", "__init__.py")):
        print("bench: src/contact3 not found next to bench/", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            res = (trace if args.trace else measure)(args.workload, args.seed, args.seconds)
            print("env " + json.dumps(_env(res["run"]["env"])))
            _print_run(args.workload, res)
            print(_result_line(res))
            return 0
        summary = {}
        for workload in GATED + UNGATED:
            plain = measure(workload, args.seed, args.seconds)
            traced = trace(workload, args.seed, args.seconds)
            _print_run(workload, plain)
            _print_run(workload + " (traced)", traced)
            ops = plain["metrics"]["ops_per_s"]["value"]
            overhead = 1.0 - traced["metrics"]["trace.ops_per_s"]["value"] / ops
            print(f"   tracing overhead: {100.0 * overhead:.1f}% of ops_per_s")
            summary[workload] = {
                "correct": plain["run"]["failed"] == 0,
                "attempted": plain["run"]["attempted"],
                "failed": plain["run"]["failed"],
                "end_to_end": plain["metrics"],
                "error_rate": plain["extra"]["error_rate"],
                "per_layer": traced["metrics"],
                "tracing_overhead": overhead,
            }
        print("env " + json.dumps(_env(plain["run"]["env"])))
        print(json.dumps({"seed": args.seed, "seconds": args.seconds, "workloads": summary}))
        return 0
    except WorkerFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
