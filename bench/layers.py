"""Which contact3 names the traced run hooks, and the per-layer metrics it reports.

Each hook lists every namespace a caller looks the name up in.  Count-only
hooks sit on names called hundreds of times per op, where a span would
cost more than the call.  Times are per attempted op over the whole run;
counts and call numbers are per op over the first ``Tracer.counted_ops``
ops, so they repeat exactly for a seed.
"""

from __future__ import annotations

from tracing import Patches, Tracer, count_wrapper, span_wrapper, yield_counter


def _points(counts, args, kwargs, result):
    counts["kernels.defect_max_batch.points"] += len(args[1])


def _refine(counts, args, kwargs, result):
    target = args[3] if len(args) > 3 else kwargs["target"]
    counts["kernels.refine_batch.seeds"] += len(args[1])
    counts["kernels.refine_batch.converged"] += int((result[1] <= target).sum())


def _oracle_points(counts, args, kwargs, result):
    counts["metric_geometry.geodesic_brute_force.points"] += len(result)


_PREDICATES = ("xi_in_ker_deta", "is_contact_form", "is_contact_metric", "nijenhuis_normality_residual", "structure_from_basis")

# (hook name, kind, [(module, attribute)], collector)
HOOKS = [
    ("kernels.defect_max_batch", "span", [("_kernels", "defect_max_batch")], _points),
    ("kernels.refine_batch", "span", [("_kernels", "refine_batch")], _refine),
    ("metric_geometry.geodesic_brute_force", "span", [("metric_geometry", "geodesic_brute_force")], _oracle_points),
    ("metric_geometry.oracle_match", "span", [("metric_geometry", "oracle_match")], None),
    (
        "metric_geometry.enumerate_unit_geodesics",
        "span",
        [(m, "enumerate_unit_geodesics") for m in ("metric_geometry", "classification", "cli")],
        None,
    ),
    (
        "metric_geometry.inplane_geodesic_angles.calls",
        "count",
        [(m, "inplane_geodesic_angles") for m in ("metric_geometry", "classification")],
        None,
    ),
    (
        "metric_geometry.is_geodesic_vector.calls",
        "count",
        [(m, "is_geodesic_vector") for m in ("metric_geometry", "classification")],
        None,
    ),
    (
        "lie_core.bracket.calls",
        "count",
        [(m, "bracket") for m in ("lie_core", "metric_geometry", "contact_structures", "classification")],
        None,
    ),
    *(
        (f"contact_structures.{name}", "span", [(m, name) for m in ("contact_structures", "classification")], None)
        for name in _PREDICATES
    ),
    ("classification.classify", "span", [(m, "classify") for m in ("classification", "cli")], None),
    (
        "classification.classify_representatives",
        "span",
        [(m, "classify_representatives") for m in ("classification", "cli")],
        None,
    ),
    (
        "classification.construct",
        "span",
        [("classification", f"construct_case{k}") for k in range(1, 7)],
        None,
    ),
    ("classification.is_isomorphic", "span", [("classification", "is_isomorphic")], None),
    ("cli.main", "span", [("cli", "main")], None),
    ("cli.atlas_rows.rows", "rows", [("cli", "atlas_rows")], None),
]


# field -> (unit, key of Tracer.totals, scale)
_SPAN_FIELDS = {"ms": ("ms/op", "s", 1000.0), "self_ms": ("ms/op", "self_s", 1000.0), "calls": ("count/op", "calls", 1.0)}


def _span(hook, field, name=None):
    unit, key, scale = _SPAN_FIELDS[field]
    per = "n_counted" if key == "calls" else "n_ops"
    return (name or f"{hook}.{field}", unit, hook, lambda t: t.total(hook, key) * scale / getattr(t, per))


def _counted(key, hook):
    return (key, "count/op", hook, lambda t: t.counts[key] / t.n_counted)


def _converged_ratio(t):
    seeds = t.counts["kernels.refine_batch.seeds"]
    return t.counts["kernels.refine_batch.converged"] / seeds if seeds else 0.0


# (metric, unit, hook it needs, value from a TraceResult)
METRICS = [
    _span("kernels.defect_max_batch", "ms"),
    _counted("kernels.defect_max_batch.points", "kernels.defect_max_batch"),
    _span("kernels.refine_batch", "ms"),
    _counted("kernels.refine_batch.seeds", "kernels.refine_batch"),
    ("kernels.refine_batch.converged_ratio", "ratio", "kernels.refine_batch", _converged_ratio),
    _span("metric_geometry.geodesic_brute_force", "ms"),
    _span("metric_geometry.geodesic_brute_force", "self_ms"),
    _counted("metric_geometry.geodesic_brute_force.points", "metric_geometry.geodesic_brute_force"),
    _span("metric_geometry.oracle_match", "ms"),
    _span("metric_geometry.enumerate_unit_geodesics", "ms"),
    _span("metric_geometry.enumerate_unit_geodesics", "calls"),
    *(
        _counted(key, key)
        for key in (
            "metric_geometry.inplane_geodesic_angles.calls",
            "metric_geometry.is_geodesic_vector.calls",
            "lie_core.bracket.calls",
        )
    ),
    *(_span(f"contact_structures.{name}", "ms") for name in _PREDICATES),
    _span("classification.classify", "ms"),
    _span("classification.classify", "self_ms"),
    _span("classification.classify", "calls"),
    _span("classification.classify_representatives", "ms"),
    _span("classification.construct", "ms"),
    _span("classification.construct", "calls"),
    _span("classification.is_isomorphic", "ms"),
    _span("classification.is_isomorphic", "calls"),
    _span("cli.main", "ms"),
    _span("cli.main", "self_ms", name="cli.self_ms"),
    _counted("cli.atlas_rows.rows", "cli.atlas_rows.rows"),
    ("trace.ops_per_s", "1/s", None, lambda t: t.ops_per_s),
    ("trace.spans_per_op", "count/op", None, lambda t: sum(o < t.n_counted for o in t.tracer.ops) / t.n_counted),
]


def install(modules: dict, tracer: Tracer, patches: Patches) -> set[str]:
    """Wrap every hook target; return the hooks none of whose targets exist."""
    makers = {
        "span": lambda name, collect: span_wrapper(tracer, name, collect),
        "count": lambda name, collect: count_wrapper(tracer, name),
        "rows": lambda name, collect: yield_counter(tracer, name),
    }
    missing = set()
    for name, kind, targets, collect in HOOKS:
        found = False
        for module, attr in targets:
            found |= patches.wrap(modules.get(module), module, attr, makers[kind](name, collect))
        if not found:
            missing.add(name)
    return missing


class TraceResult:
    """What the per-layer metrics are computed from."""

    def __init__(self, tracer: Tracer, n_ops: int, ops_per_s: float):
        self.tracer = tracer
        counts, n_counted = tracer.counted()
        self.counts = counts
        self.n_counted = max(n_counted, 1)
        self.n_ops = max(n_ops, 1)
        self.ops_per_s = ops_per_s
        self._totals = tracer.totals()

    def total(self, hook: str, key: str) -> float:
        return self._totals.get(hook, {}).get(key, 0.0)


def per_layer(result: TraceResult, missing: set[str]) -> tuple[dict, list[str]]:
    """Every per-layer metric, and the names of those whose hook is absent (reported as 0)."""
    metrics, absent = {}, []
    for name, unit, hook, value in METRICS:
        if hook in missing:
            absent.append(name)
            metrics[name] = {"value": 0.0, "unit": unit}
        else:
            metrics[name] = {"value": float(value(result)), "unit": unit}
    return metrics, absent
