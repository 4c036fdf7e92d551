"""Tests of the benchmark's own logic; none of them imports contact3.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

import math
import os
import sys
import types

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import calibration  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
from summary import tail  # noqa: E402
from tracing import Patches, Tracer, count_wrapper, span_wrapper, yield_counter  # noqa: E402


def _pqr(values):
    a, b, g, d = values
    r, p = 0.5 * (a + d), 0.5 * (a - d)
    q = b / a if a != 0.0 else -g / d
    return p, q, r


# -- inputs ----------------------------------------------------------------


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_corpus_is_deterministic_per_seed(workload):
    a = inputs.make_corpus(workload, 7, n=64)
    assert a == inputs.make_corpus(workload, 7, n=64)
    assert a != inputs.make_corpus(workload, 8, n=64)


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError):
        inputs.make_corpus("nope", 0)


@pytest.mark.parametrize("workload", ["oracle-circle", "oracle-isolated", "classify"])
def test_interior_sources_have_their_tag(workload):
    for item in inputs.make_corpus(workload, 3, n=64):
        kind, values = item["source"]
        if item["tag"] == "E":
            assert kind == "functional"
            continue
        p, q, r = _pqr(values)
        assert inputs.regime(p, q, r) == item["tag"]
        if item["tag"] == "A2":
            gap = inputs.root_gap(p, q, r)
            assert inputs.ROOT_GAP < gap < math.pi - inputs.ROOT_GAP


def test_regime_boundaries_and_split():
    assert inputs.regime(0.0, 1.0, 2.0) == "D"
    assert inputs.regime(2.0, 0.0, 2.0) == "B2"
    assert inputs.regime(-2.0, 0.5, 2.0) == "C1"
    assert inputs.regime(2.0 * (1 + 1e-9), 0.5, 2.0) is None
    # A2 iff |p| sqrt(1 + q^2) > |r|
    assert inputs.regime(1.0, 0.0, 2.0) == "A1"
    assert inputs.regime(1.0, 2.0, 2.0) == "A2"


def test_root_gap_matches_the_angle_equation():
    p, q, r = 2.0, 0.0, 1.0  # alpha = 3, delta = -1: roots pi/3 and 2pi/3
    assert inputs.root_gap(p, q, r) == pytest.approx(math.pi / 3.0, abs=1e-12)


def test_atlas_tiles_hold_the_exact_boundary_lines():
    for tile in inputs.make_corpus("atlas", 5, n=18):
        r = tile["r"]
        ps = np.linspace(*tile["p"])
        qs = np.linspace(*tile["q"])
        assert {0.0, r, -r} <= set(ps.tolist())
        assert 0.0 in qs.tolist()
        assert len(ps) * len(qs) == 45


def test_edge_corpus_mixes_boundary_and_rescaled_sources():
    corpus = inputs.make_corpus("classify-edge", 2, n=40)
    assert {item["tag"] for item in corpus[::2]} == {"boundary"}
    assert all(item["tag"].endswith("*") for item in corpus[1::2])


# -- tail percentile -------------------------------------------------------


def test_tail_is_the_90th_percentile_whatever_the_sample_count():
    value, n = tail([float(i) for i in range(101, 0, -1)])
    assert (value, n) == (pytest.approx(91.0), 101)
    # 0..10: p90 interpolates to 9.0; 0..20: to 18.0
    assert tail([float(i) for i in range(11)])[0] == pytest.approx(9.0)
    assert tail([float(i) for i in range(21)])[0] == pytest.approx(18.0)


def test_tail_of_few_samples():
    assert tail([3.0, 1.0, 2.0])[0] == pytest.approx(2.8)
    assert tail([5.0]) == (5.0, 1)
    with pytest.raises(ValueError):
        tail([])


# -- calibration -----------------------------------------------------------


def test_times_scale_by_the_calibrations_around_them():
    ref = calibration.REFERENCE_S
    # a host at half speed: both calibrations take twice the reference
    assert calibration.at_reference(0.08, 2 * ref, 2 * ref) == pytest.approx(0.04)
    assert calibration.at_reference(0.08, ref, 3 * ref) == pytest.approx(0.04)
    assert calibration.at_reference(0.05, ref, ref) == pytest.approx(0.05)


def test_calibration_takes_positive_cpu_time():
    assert calibration.calibrate() > 0.0


# -- spans -----------------------------------------------------------------


class _Clock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_subtracts_the_union_of_children():
    # root [0, 10] has children a [1, 4], b [3, 6] and c [8, 9], where a and
    # b overlap (so only their union counts); a has the child d [2, 3]
    tr = Tracer(
        names=["root", "a", "d", "b", "c"],
        starts=[0, 1, 2, 3, 8],
        ends=[10, 4, 3, 6, 9],
        parents=[-1, 0, 1, 0, 0],
        nested=[False] * 5,
    )
    assert tr.self_times() == [10 - 6, 3 - 1, 1, 3, 1]


def test_open_and_close_record_the_parent_chain():
    tr = Tracer(clock=_Clock(range(6)))
    root = tr.open("root")
    child = tr.open("child")
    tr.close(child)
    sibling = tr.open("sibling")
    tr.close(sibling)
    tr.close(root)
    assert tr.parents == [-1, root, root]
    assert tr.self_times() == [5 - 2, 1, 1]


def test_totals_count_outermost_spans_of_a_name_once():
    tr = Tracer(clock=_Clock([0, 1, 3, 4]))
    outer = tr.open("construct")
    inner = tr.open("construct")
    tr.close(inner)
    tr.close(outer)
    totals = tr.totals()["construct"]
    assert totals == {"calls": 1, "s": 4, "self_s": 4}


def test_counts_and_calls_cover_only_the_counted_ops():
    tr = Tracer(counted_ops=2)
    for _ in range(3):
        tr.next_op()
        tr.counts["x"] += 5
        tr.close(tr.open("f"))
    counts, n = tr.counted()
    assert (counts["x"], n) == (10, 2) and tr.counts["x"] == 15
    assert tr.ops == [0, 1, 2] and tr.totals()["f"]["calls"] == 2
    short = Tracer(counted_ops=8)
    short.next_op()
    short.counts["x"] += 1
    assert short.counted() == ({"x": 1}, 1)


def test_wrappers_record_spans_counts_and_rows():
    tr = Tracer()
    seen = []

    def collect(counts, args, kwargs, result):
        counts["f.args"] += len(args)

    f = span_wrapper(tr, "f", collect)(lambda x, y: x + y)
    g = count_wrapper(tr, "g.calls")(lambda: seen.append(1))
    rows = yield_counter(tr, "rows")(lambda n: iter(range(n)))
    assert f(1, 2) == 3
    g()
    assert list(rows(4)) == [0, 1, 2, 3]
    assert tr.names == ["f"] and tr.counts == {"f.args": 2, "g.calls": 1, "rows": 4}


def test_span_closes_when_the_call_raises():
    tr = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        span_wrapper(tr, "boom")(boom)()
    assert tr.ends[0] is not None and tr._stack == []


def test_collector_failure_is_counted_not_raised():
    tr = Tracer()

    def collect(counts, args, kwargs, result):
        counts["x"] += len(args[5])

    assert span_wrapper(tr, "f", collect)(lambda: 1)() == 1
    assert tr.counts["f.uncollected"] == 1


# -- patching --------------------------------------------------------------


def test_patches_restore_every_attribute_and_report_missing_ones():
    mod = types.SimpleNamespace(f=lambda: "f", g=lambda: "g")
    original_f, original_g = mod.f, mod.g
    with Patches() as patches:
        assert patches.wrap(mod, "mod", "f", lambda fn: lambda: "wrapped " + fn())
        assert patches.wrap(mod, "mod", "f", lambda fn: lambda: "twice " + fn())
        assert not patches.wrap(mod, "mod", "gone", lambda fn: fn)
        assert not patches.wrap(None, "removed_module", "h", lambda fn: fn)
        assert mod.f() == "twice wrapped f"
    assert mod.f is original_f and mod.g is original_g
    assert patches.absent == ["mod.gone", "removed_module.h"]


def test_patches_restore_after_an_exception():
    mod = types.SimpleNamespace(f=len)
    with pytest.raises(RuntimeError):
        with Patches() as patches:
            patches.wrap(mod, "mod", "f", lambda fn: None)
            raise RuntimeError
    assert mod.f is len


def test_install_reports_hooks_with_no_target_as_absent():
    # a library where cli is gone and refine_batch was renamed
    names = {attr for _, _, targets, _ in layers.HOOKS for _, attr in targets}
    modules = {m: types.SimpleNamespace(**{a: (lambda *a, **k: None) for a in names}) for m in
               ("_kernels", "lie_core", "metric_geometry", "contact_structures", "classification")}
    del modules["_kernels"].refine_batch
    before = {m: dict(vars(ns)) for m, ns in modules.items()}
    tr = Tracer()
    with Patches() as patches:
        missing = layers.install(modules, tr, patches)
    assert missing == {"kernels.refine_batch", "cli.main", "cli.atlas_rows.rows"}
    assert "_kernels.refine_batch" in patches.absent and "cli.main" in patches.absent
    assert {m: dict(vars(ns)) for m, ns in modules.items()} == before
    metrics, absent = layers.per_layer(layers.TraceResult(tr, 1, 1.0), missing)
    assert set(metrics) == {name for name, *_ in layers.METRICS}
    assert "kernels.refine_batch.ms" in absent and "cli.self_ms" in absent
    assert metrics["cli.main.ms"]["value"] == 0.0


def test_benchmark_json_lists_the_metrics_the_code_reports():
    import json

    import summary

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == summary.UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, *_ in layers.METRICS]
    assert {w["name"] for w in spec["workloads"]} <= set(inputs.WORKLOADS)
