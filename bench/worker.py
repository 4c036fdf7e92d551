"""One benchmark process: import contact3, build inputs, warm up, run the timed loop.

Started by ``run.py`` in a fresh interpreter with BLAS threads pinned to
1.  Prints one JSON line: the set-up time, and in ``run`` and ``trace``
mode the loop's results.  In ``setup`` mode it exits after set-up, so
the parent can sample set-up time.

Ops are timed in process CPU time (``time.process_time``): the loop is
single-threaded, so this is the op's latency without the time the
process spent waiting for a CPU.  Each op's time is also scaled to the
reference host speed by the calibrations run just before and after it
(``calibration.py``); the gated metrics use the scaled times.  Set-up
time is the CPU time used until the first timed op could start, scaled
by calibrations just after ``import numpy`` and at that point.  The loop
itself runs for ``seconds`` of wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter

from calibration import at_reference, calibrate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "bench", ".out")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _import_contact3():
    sys.path.insert(0, SRC)
    import contact3

    where = os.path.dirname(os.path.abspath(contact3.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        raise SystemExit(f"contact3 imported from {where}, not from {SRC}")
    return contact3


def timed_loop(ctx, corpus, op, check, seconds: float) -> dict:
    """Closed loop over the corpus, one op at a time, until ``seconds`` of wall time have passed.

    Latencies and ``timed_s`` are at the reference host speed; the
    ``cpu_`` figures are the unscaled CPU times.
    """
    latencies, cpu_latencies, calibrations, failures, errors = [], [], [], [], Counter()
    timed = cpu_timed = 0.0
    attempted = 0
    cal = calibrate()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        item = corpus[attempted % len(corpus)]
        attempted += 1
        t0 = time.process_time()
        try:
            out, raised = op(ctx, item), None
        except Exception as exc:  # a failed op is counted, and the loop goes on
            out, raised = None, exc
        cpu = time.process_time() - t0
        cal_before, cal = cal, calibrate()
        calibrations.append(cal)
        dt = at_reference(cpu, cal_before, cal)
        timed += dt
        cpu_timed += cpu
        if raised is not None:
            errors[type(raised).__name__] += 1
            failures.append(f"{item.get('tag', 'tile')}: {type(raised).__name__}: {raised}")
            continue
        try:
            reason = check(ctx, item, out)
        except Exception as exc:  # a check that cannot read the output fails the op
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is None:
            latencies.append(dt)
            cpu_latencies.append(cpu)
        else:
            errors["wrong output"] += 1
            failures.append(reason)
    return {
        "latencies": latencies,
        "timed_s": timed,
        "cpu_latencies": cpu_latencies,
        "cpu_timed_s": cpu_timed,
        "calibration_s": statistics.median(calibrations) if calibrations else cal,
        "attempted": attempted,
        "failed": attempted - len(latencies),
        "errors": dict(errors),
        "first_failures": failures[:5],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args(argv)

    import numpy as np

    c0 = time.process_time()
    cal_start = calibrate()
    cal_cost = time.process_time() - c0
    contact3 = _import_contact3()
    from inputs import WARMUP, make_corpus
    from workloads import MODULES, WORKLOAD_OPS, load_modules, make_context

    modules = load_modules(MODULES)
    warm_key, op, check = WORKLOAD_OPS[args.workload]
    corpus = make_corpus(args.workload, args.seed)
    ctx = make_context(modules, OUT_DIR)
    try:
        reason = check(ctx, WARMUP[warm_key], op(ctx, WARMUP[warm_key]))
        if reason is not None:
            raise SystemExit(f"warm-up op gave a wrong output: {reason}")
        setup_cpu = time.process_time() - cal_cost
        result = {"setup_s": at_reference(setup_cpu, cal_start, calibrate())}
        if args.mode == "setup":
            print(json.dumps(result))
            return 0
        if args.mode == "run":
            result.update(timed_loop(ctx, corpus, op, check, args.seconds))
        else:
            from layers import TraceResult, install, per_layer
            from tracing import Patches, Tracer

            tracer = Tracer()

            def traced_op(ctx, item):
                tracer.next_op()
                return op(ctx, item)

            with Patches() as patches:
                missing = install(modules, tracer, patches)
                loop = timed_loop(ctx, corpus, traced_op, check, args.seconds)
            ok = len(loop["latencies"])
            trace = TraceResult(tracer, loop["attempted"], ok / loop["timed_s"])
            metrics, absent = per_layer(trace, missing)
            uncollected = {k: v for k, v in tracer.counts.items() if k.endswith(".uncollected")}
            result.update(
                loop,
                per_layer=metrics,
                counted_ops=trace.n_counted,
                absent=absent,
                absent_targets=patches.absent,
                uncollected=uncollected,
            )
    finally:
        if os.path.exists(ctx.csv_path):
            os.remove(ctx.csv_path)
    kernels = modules["_kernels"]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "contact3": getattr(contact3, "__version__", "unknown"),
        "backend": getattr(kernels, "BACKEND", "absent"),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
