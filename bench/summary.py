"""End-to-end metrics from the timed loop of one workload."""

from __future__ import annotations

import statistics

TAIL_PERCENTILE = 90

# error_rate is printed but not gated: it is 0 on a workload with no failures
UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


def tail(latencies: list[float]) -> tuple[float, int]:
    """(value, sample count) of the 90th percentile, interpolated between samples.

    The percentile is the same in every run, so a faster program is not
    compared at a different percentile from a slower one.  With one
    sample it is that sample.
    """
    n = len(latencies)
    if n == 0:
        raise ValueError("no successful ops")
    if n == 1:
        return latencies[0], 1
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return cuts[TAIL_PERCENTILE - 1], n


def end_to_end(setups: list[float], run: dict) -> tuple[dict, dict]:
    """The gated metrics, and the extra figures printed next to them."""
    ok = run["latencies"]
    value, n = tail(ok)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(ok) / run["timed_s"],
        "op_p50_ms": 1000.0 * statistics.median(ok),
        "op_tail_ms": 1000.0 * value,
        "peak_rss_mb": run["peak_rss_mb"],
        "success_rate": len(ok) / run["attempted"],
    }
    cpu = run["cpu_latencies"]
    extra = {
        "error_rate": run["failed"] / run["attempted"],
        "cpu_ops_per_s": len(cpu) / run["cpu_timed_s"],
        "cpu_p50_ms": 1000.0 * statistics.median(cpu),
        "calibration_ms": 1000.0 * run["calibration_s"],
        "samples": n,
        "setup_samples": list(setups),
    }
    return {k: {"value": float(v), "unit": UNITS[k]} for k, v in metrics.items()}, extra
