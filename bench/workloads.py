"""One op per workload, with the check of its output.

An op takes the run context and one corpus item, calls the library
through module attributes (so a traced run sees the call), and returns
the value its check needs.  ``check`` returns None when the output is
right and a one-line reason when it is not.  Checks run outside the
timed region.
"""

from __future__ import annotations

import csv
import importlib
import math
import os
from types import SimpleNamespace

import numpy as np

from inputs import regime

MODULES = ("_kernels", "lie_core", "metric_geometry", "contact_structures", "classification", "cli")
GRID = 400
# geodesic-oracle gates of the verify suite
AGREEMENT_GATE = 1e-5
FAMILY_GAP_GATE = 3.0 * (2.0 * math.pi / GRID)
D_RTOL = 1e-12
ATLAS_COLUMNS = [
    "p",
    "q",
    "r",
    "geodesic_case",
    "Delta",
    "D",
    "n_discrete_geodesics",
    "has_contact_structure",
    "min_normality_residual",
]
# isolated unit geodesic vectors per case, antipodes counted separately
ISOLATED_COUNT = {"A1": 2, "A2": 6, "B1": 2, "C1": 2, "B2": 0, "C2": 0, "D": 2}


def load_modules(names) -> dict:
    """contact3 submodules by name; a module that no longer exists maps to None."""
    modules = {}
    for name in names:
        try:
            modules[name] = importlib.import_module(f"contact3.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"contact3.{name}":
                raise
            modules[name] = None
    return modules


def make_context(modules: dict, out_dir: str) -> SimpleNamespace:
    os.makedirs(out_dir, exist_ok=True)
    return SimpleNamespace(m=modules, csv_path=os.path.join(out_dir, f"atlas-{os.getpid()}.csv"))


def _source(ctx, source):
    kind, values = source
    if kind == "functional":
        return ctx.m["lie_core"].LinearFunctional(np.array(values))
    return ctx.m["lie_core"].MilnorParameters(*values)


def _enumerate(ctx, src):
    mg = ctx.m["metric_geometry"]
    if isinstance(src, ctx.m["lie_core"].LinearFunctional):
        return mg.enumerate_unit_geodesics(functional=src)
    return mg.enumerate_unit_geodesics(src)


# -- oracle ----------------------------------------------------------------


def oracle_op(ctx, item):
    src = _source(ctx, item["source"])
    lc, mg = ctx.m["lie_core"], ctx.m["metric_geometry"]
    if isinstance(src, lc.LinearFunctional):
        L = lc.from_functional(src)
    else:
        L = lc.from_milnor(src)
    enum = _enumerate(ctx, src)
    points = mg.geodesic_brute_force(L, grid=GRID)
    return mg.oracle_match(enum, points, GRID)


def oracle_check(ctx, item, agreement):
    if not agreement.agreement <= AGREEMENT_GATE:
        return f"{item['tag']}: agreement {agreement.agreement:.3e} > {AGREEMENT_GATE:g}"
    if not agreement.counts_match:
        return (
            f"{item['tag']}: {agreement.n_isolated_oracle} isolated oracle points, "
            f"{agreement.n_isolated_enum} enumerated"
        )
    if not agreement.family_coverage_gap <= FAMILY_GAP_GATE:
        return f"{item['tag']}: family gap {agreement.family_coverage_gap:.4f} > 3h"
    return None


# -- classify --------------------------------------------------------------


def _features(enum, angle: float) -> list[np.ndarray]:
    feats = [np.array(p) for p in enum.discrete]
    for fam in enum.families:
        if fam.angles is None:
            feats.append(fam.point(angle))
        else:
            feats.extend(fam.point(t) for t in fam.angles)
    return feats


def classify_op(ctx, item):
    cl = ctx.m["classification"]
    src = _source(ctx, item["source"])
    reps = cl.classify_representatives(src)
    feats = _features(_enumerate(ctx, src), item["angle"])
    xi = feats[item["feature"] % len(feats)]
    plus = cl.classify(src, xi)
    minus = cl.classify(src, -xi)
    iso = cl.is_isomorphic(plus.structure, minus.structure)
    return reps, plus, minus, iso


def classify_check(ctx, item, out):
    reps, plus, minus, iso = out
    if not reps:
        return f"{item['tag']}: no representative reports"
    if iso is None:
        return f"{item['tag']}: classify(xi) and classify(-xi) not isomorphic"
    for name in ("family", "contact_form", "contact_metric"):
        if getattr(plus, name) != getattr(minus, name):
            return f"{item['tag']}: {name} differs between xi and -xi"
    return None


# -- atlas -----------------------------------------------------------------


def _range_arg(lo: float, hi: float, n: int) -> str:
    return f"{lo!r}:{hi!r}:{n}"


def atlas_op(ctx, item):
    argv = [
        "atlas",
        "--p-range",
        _range_arg(*item["p"]),
        "--q-range",
        _range_arg(*item["q"]),
        "--r",
        repr(item["r"]),
        "--out",
        ctx.csv_path,
    ]
    return ctx.m["cli"].main(argv)


def atlas_check(ctx, item, code):
    if code != 0:
        return f"atlas exited with {code}"
    with open(ctx.csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ATLAS_COLUMNS:
        return "atlas header differs"
    r = item["r"]
    grid = [(float(p), float(q)) for p in np.linspace(*item["p"]) for q in np.linspace(*item["q"])]
    if len(rows) - 1 != len(grid):
        return f"atlas wrote {len(rows) - 1} rows, expected {len(grid)}"
    for row, (p, q) in zip(rows[1:], grid):
        if float(row[0]) != p or float(row[1]) != q or float(row[2]) != r:
            return f"row ({row[0]}, {row[1]}, {row[2]}) out of grid order"
        tag = row[3]
        expect = regime(p, q, r)
        if expect is not None and tag != expect:
            return f"(p, q, r) = ({p!r}, {q!r}, {r!r}): tag {tag}, expected {expect}"
        if int(row[6]) != ISOLATED_COUNT.get(tag, -1):
            return f"tag {tag} with {row[6]} isolated geodesics"
        lc = ctx.m["lie_core"]
        ref = lc.milnor_invariant_D(lc.MilnorParameters.from_pqr(p, q, r))
        if abs(float(row[5]) - ref) > D_RTOL * max(abs(ref), 1.0):
            return f"(p, q, r) = ({p!r}, {q!r}, {r!r}): D {row[5]} != {ref!r}"
        if row[7] not in ("true", "false") or not math.isfinite(float(row[8])):
            return f"malformed flags in row {row}"
    return None


# workload -> (warm-up input, op, check)
WORKLOAD_OPS = {
    "oracle-circle": ("oracle", oracle_op, oracle_check),
    "oracle-isolated": ("oracle", oracle_op, oracle_check),
    "classify": ("classify", classify_op, classify_check),
    "atlas": ("atlas", atlas_op, atlas_check),
    "classify-edge": ("classify", classify_op, classify_check),
}
