"""Scale-free classification, and the public-API contract from 1e-300 to the largest float.

The paper's classification is scale-free: c -> lambda c keeps the geodesic
set, the case, the family and the contact and normal flags.  The library
keeps it so because every gate compares its quantity with its tolerance
times the scale of the data that enters it (``contact3.tolerances``).
"""

import contextlib
import io
import math
import os
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contact3 import (
    AdmissibilityError,
    LinearFunctional,
    MilnorParameters,
    NotGeodesicError,
    classify,
    classify_representatives,
    enumerate_unit_geodesics,
    from_functional,
    from_milnor,
    invariant_D,
    is_contact_form,
    is_isomorphic,
)
from contact3.cli import main
from contact3.verify import CASE_TAGS, sample_functional, sample_params

# the only errors the public API may raise on a finite input
ALLOWED = (AdmissibilityError, NotGeodesicError, ValueError)

# magnitudes 1e-300 to the largest float: decades, exact powers of two, and
# the top two binades, where coefficients from 2^1022 on are rejected
_MAGNITUDES = st.one_of(
    st.floats(-300.0, 308.25).map(lambda t: 10.0**t),
    st.integers(-996, 1023).map(lambda k: math.ldexp(1.0, k)),
    st.floats(2.0**1021, sys.float_info.max),
)
# relative offsets from a case boundary: on it, or within 1e-15 of it
_OFFSETS = st.one_of(st.just(0.0), st.floats(-1e-15, 1e-15))


@st.composite
def _sources(draw):
    """("milnor", (alpha, beta, gamma, delta), (p, q, r)) near a case line, or ("functional", l, None)."""
    m = draw(_MAGNITUDES) * draw(st.sampled_from([1.0, -1.0]))
    kind = draw(st.sampled_from(["p=0", "p=r", "p=-r", "double root", "generic", "functional"]))
    if kind == "functional":
        l = [draw(st.one_of(st.just(0.0), st.floats(-1.0, 1.0))) for _ in range(3)]
        return "functional", tuple(m * v for v in l), None
    r, eps = m, draw(_OFFSETS)
    q = draw(st.one_of(_OFFSETS, st.floats(-2.0, 2.0)))
    p = {
        "p=0": lambda: r * eps,
        "p=r": lambda: r * (1.0 + eps),
        "p=-r": lambda: -r * (1.0 + eps),
        # |p| sqrt(1 + q^2) = |r|: the A1/A2 line, where the in-plane roots meet
        "double root": lambda: r / math.hypot(1.0, q) * (1.0 + eps),
        "generic": lambda: r * draw(st.floats(-3.0, 3.0)),
    }[kind]()
    return "milnor", (r + p, (r + p) * q, -(r - p) * q, r - p), (p, q, r)


def _returns_or_allowed(call):
    try:
        return call()
    except ALLOWED:
        return None


def _cli(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


def _at_feature(source, kind):
    # classify at an enumerated feature: an in-plane root or axis, else a circle point
    enum = enumerate_unit_geodesics(functional=np.array(source)) if kind == "functional" else enumerate_unit_geodesics(source)
    points = enum.isolated_points()
    return classify(source if kind == "milnor" else np.array(source), points[-1] if points else enum.families[0].point(1.0))


# inputs that raised or died while the gates followed four scale rules
_PINNED = [
    ("milnor", (3e9, 0.0, 0.0, -1e9), None),
    ("milnor", (3e-12, 0.0, 0.0, -1e-12), None),
    ("milnor", (4.81e30, 0.0, 0.0, 0.0), None),
    ("milnor", (3.918e-175, 0.0, 0.0, -4.076e-175), None),
    ("milnor", (3e-300, 0.0, 0.0, -1e-300), None),
    ("milnor", (-1.1e190, 0.69, -1.5, 0.39), None),
    ("milnor", (-1087684.0068873626, -1600396.3991109256, 30964679.32652331, -21044652.750134543), None),
    ("functional", (-34992492.671495594, 21861677.941240538, 25923673.896360785), None),
    ("functional", (1e-200, 0.0, 0.0), None),
    ("functional", (1e200, 0.0, 0.0), None),
    # overflows in the defect matrices while coefficients of 2^1022 and more were accepted
    ("functional", (1.2e308, 0.0, 0.0), None),
    ("milnor", (1.6e308, 0.0, 0.0, 1e308), None),
    # a subnormal functional: invariant_D divided 2 by a subnormal trace
    ("functional", (0.0, 0.0, 6.28650221021083e-310), None),
]


def _with_examples(test):
    for spec in _PINNED:
        test = example(spec)(test)
    return test


@settings(max_examples=120, deadline=None)
@given(_sources())
@_with_examples
def test_public_api_raises_only_allowed_errors(spec):
    kind, values, pqr = spec
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        source = values if kind == "milnor" else np.array(values)
        algebra = from_milnor if kind == "milnor" else from_functional
        _returns_or_allowed(lambda: classify_representatives(source))
        _returns_or_allowed(lambda: _at_feature(values, kind))
        _returns_or_allowed(lambda: invariant_D(algebra(source)))
        if kind == "milnor":
            _returns_or_allowed(lambda: enumerate_unit_geodesics(values))
            flags = [f"--{name}={v!r}" for name, v in zip(("alpha", "beta", "gamma", "delta"), values)]
        else:
            _returns_or_allowed(lambda: enumerate_unit_geodesics(functional=source))
            flags = ["--l=" + ",".join(map(repr, values))]
        assert _cli("classify", *flags, "--xi", "auto") in (0, 2, 3)
        assert _cli("geodesics", *flags) in (0, 2)
        if pqr is not None:
            p, q, r = pqr
            assert _cli("atlas", f"--p-range={p!r}:{p!r}:1", f"--q-range={q!r}:{q!r}:1", f"--r={r!r}", "--out", os.devnull) in (0, 2)


@pytest.mark.parametrize("bounds", ["0:inf:2", "-inf:0:2", "nan:1:3", "-1.5e308:1.5e308:3", "1e308:-1e308:1"])
def test_atlas_rejects_non_finite_range_spans(bounds):
    # np.linspace turned these into RuntimeWarnings and inf or nan grid points
    assert _cli("atlas", f"--p-range={bounds}", "--q-range=0:1:2", "--r=1", "--out", os.devnull) == 2
    assert _cli("atlas", "--p-range=0:1:2", f"--q-range={bounds}", "--r=1", "--out", os.devnull) == 2


def test_atlas_at_r_1e6_classifies_every_row_in_the_array_pass(monkeypatch):
    import contact3.cli as cli

    # this call died in the scalar fallback (AssertionError) while the geodesic gate was absolute
    fallback = []
    scalar_row = cli._scalar_atlas_row
    monkeypatch.setattr(cli, "_scalar_atlas_row", lambda *args: fallback.append(args) or scalar_row(*args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _cli("atlas", "--p-range=-3e6:3e6:121", "--q-range=-2:2:41", "--r", "1e6", "--out", os.devnull) == 0
    assert fallback == []


def _source(tag, seed):
    rng = np.random.default_rng(seed)
    return sample_functional(rng) if tag == "E" else sample_params(rng, tag)


def _rescaled(src, lam):
    if isinstance(src, LinearFunctional):
        return LinearFunctional(lam * src.l)
    return MilnorParameters(*(lam * v for v in (src.alpha, src.beta, src.gamma, src.delta)))


def _fields(rep, lam=1.0):
    # every report field, with the degree-1 ones (params, N residual) multiplied by lam, and the frame's bits
    fields = {k: v for k, v in vars(rep).items() if k != "structure"}
    fields["params"] = {k: lam * v for k, v in rep.params.items()}
    fields["normality_residual"] *= lam
    return repr(sorted(fields.items())), rep.structure.basis.matrix.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CASE_TAGS), st.integers(0, 2**32 - 1), st.integers(-100, 100))
def test_reports_are_bit_identical_under_powers_of_four(tag, seed, j):
    # lambda = 4^j is exact, and so are its square roots: the in-plane
    # solve rescales by an even power of two, so its angles keep their bits
    src, lam = _source(tag, seed), 4.0**j
    base = classify_representatives(src)
    scaled = classify_representatives(_rescaled(src, lam))
    assert [_fields(rep) for rep in scaled] == [_fields(rep, lam) for rep in base]


def _lambdas():
    return st.one_of(
        st.floats(-8.0, 8.0).map(lambda t: 10.0**t),
        st.integers(-900, 900).map(lambda k: math.ldexp(1.0, k)),
    )


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CASE_TAGS), st.integers(0, 2**32 - 1), _lambdas())
def test_classification_is_invariant_under_scale(tag, seed, lam):
    # a general lambda, or an odd power of two, may move a frame in its last
    # bit (family B frames come from the in-plane roots); the decisions stay
    src = _source(tag, seed)
    base = classify_representatives(src)
    scaled = classify_representatives(_rescaled(src, lam))
    key = lambda r: (r.family, r.geodesic_case, r.contact_form, r.normal, r.errata_notes)
    assert [key(r) for r in scaled] == [key(r) for r in base]
    for reps in (base, scaled):
        # the predicate and the report's flag decide at one bound
        assert [is_contact_form(r.structure.algebra, r.structure.structure()) for r in reps] == [
            r.contact_form for r in reps
        ]
    iso = lambda reps: [is_isomorphic(a.structure, b.structure) is None for a in reps for b in reps]
    assert iso(scaled) == iso(base)


@pytest.mark.parametrize("lam", [1e-300, 1e-8, 1.0, 1e8, 1e300])
def test_contact_flag_matches_the_predicate_at_every_scale(lam):
    # the A2 roots carry contact forms, the axis does not
    reps = classify_representatives(_rescaled(MilnorParameters(3.0, 0.0, 0.0, -1.0), lam))
    assert [r.contact_form for r in reps] == [False, True, True]
    assert [is_contact_form(r.structure.algebra, r.structure.structure()) for r in reps] == [False, True, True]
