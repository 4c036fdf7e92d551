import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contact3 import (
    AdmissibilityError,
    AlmostContactStructure,
    LinearFunctional,
    Metric3,
    MilnorParameters,
    NotGeodesicError,
    bracket,
    classify,
    classify_representatives,
    construct_case1,
    construct_case2,
    construct_case3,
    construct_case4,
    construct_case5,
    construct_case6,
    enumerate_unit_geodesics,
    from_milnor,
    is_contact_metric,
    is_isomorphic,
    nijenhuis_normality_residual,
    structure_from_basis,
    xi_in_ker_deta,
)
from contact3.classification import (
    _KEPT,
    PhiBasisStructure,
    _case2_form,
    _family_gates,
    _flags,
    _normal_form_check,
    _normal_form_constants,
    _structure_flags,
)
from contact3.contact_structures import PhiBasis, _ker_deta, _normality, _orthonormal, _structure_axioms
from contact3.lie_core import LieAlgebra3, _milnor_gates, _non_unimodular
from contact3.metric_geometry import _defect_matrices, _geodesic, _inplane_roots, _probe_faults
from contact3.verify import CASE_TAGS, sample_functional, sample_params

E = np.eye(3)
I3 = Metric3.identity()
SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)


@pytest.mark.parametrize(
    "family,params", [("A", (math.nan, 0.0, 0.0, 1.0)), ("B", (math.nan, 0.0, 0.0)), ("C", (math.inf, 0.0))]
)
def test_structure_rejects_non_finite_params(family, params):
    with pytest.raises(ValueError, match="finite"):
        PhiBasisStructure(family, params, PhiBasis(E[0], E[1], E[2]), None, from_milnor((1.0, 0.0, 0.0, 1.0)))


def test_shared_gates_fail_closed_on_nan():
    # every check the scalar path and the atlas pass share fails on NaN data,
    # or on a NaN scale, instead of letting it through
    nan3, nan33, c = np.full(3, np.nan), np.full((3, 3), np.nan), np.full((3, 3, 3), np.nan)
    families = (("A", (math.nan, 0.0, 0.0, 1.0)), ("B", (math.nan, 0.0, 0.0)), ("C", (math.nan, 0.0)))
    gates = [
        *_milnor_gates(math.nan, 0.0, 0.0, 1.0)[1:],
        _non_unimodular(math.nan, 1.0),
        *(ok for family, params in families for ok, _ in _family_gates(family, params)),
        _normal_form_check(c, c, 1.0)[1],
        *(ok for ok, _ in _structure_axioms(nan33, nan3, nan3)),
        _orthonormal(nan33, E),
        *_ker_deta(c, 1.0, nan3, nan3),
        _normality(c, 1.0, nan33, nan3, nan3)[0],
        _case2_form(math.nan, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0)[1],
        _inplane_roots(math.nan, 0.0, 1.0, 1.0)[1],
        _geodesic(_defect_matrices(c, I3), I3, nan3, 1.0),
        *(~fault for fault in _probe_faults(_defect_matrices(c, I3), nan3[None], 1.0)),
        *_flags(c, 1.0),
    ]
    assert not any(bool(ok) for ok in gates)
    # the gates that read a scale, on data that passes them at its own scale
    L, normal = from_milnor((3.0, 0.0, 0.0, -1.0)), from_milnor((1.0, 0.0, 0.0, 1.0))
    phi, t = np.outer(E[2], E[1]) - np.outer(E[1], E[2]), math.pi / 3

    def scaled_gates(scale):
        return [
            _non_unimodular(2.0, scale),
            _normal_form_check(L.c, L.c, scale)[1],
            *_ker_deta(L.c, scale, E[0], E[0]),
            _normality(L.c, scale, phi, E[0], E[0])[0],
            _case2_form(3.0, 0.0, 0.0, -1.0, scale, math.cos(t), math.sin(t))[1],
            _inplane_roots(3.0, 0.0, -1.0, scale)[1],
            _geodesic(L._defect, I3, E[0], scale),
            ~_probe_faults(L._defect, E[:1], scale)[1],
            _flags(normal.c, scale)[0],
            _flags(_normal_form_constants("B", (1.0, 1.0, 0.0)), scale)[1],
        ]

    assert all(bool(ok) for ok in scaled_gates(3.0))
    assert not any(bool(ok) for ok in scaled_gates(math.nan))


def test_structure_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown family"):
        PhiBasisStructure("Z", (1.0,), PhiBasis(E[0], E[1], E[2]), None, from_milnor((1.0, 0.0, 0.0, 1.0)))


def brackets_in_basis(ps):
    """Raw brackets of the stored algebra expressed in the adapted frame."""
    B = ps.basis.matrix
    out = {}
    names = ("xi", "e", "fe")
    for a in range(3):
        for b in range(a + 1, 3):
            out[(names[a], names[b])] = B.T @ bracket(ps.algebra, B[:, a], B[:, b])
    return out


# -- branch 1 -------------------------------------------------------------


def test_case1_passthrough():
    ps = construct_case1((3, 0, 0, -1))
    assert ps.family == "A" and ps.params == (3.0, 0.0, 0.0, -1.0)
    bk = brackets_in_basis(ps)
    np.testing.assert_allclose(bk[("xi", "e")], [0, 3, 0], atol=1e-14)
    np.testing.assert_allclose(bk[("xi", "fe")], [0, 0, -1], atol=1e-14)
    np.testing.assert_allclose(bk[("e", "fe")], [0, 0, 0], atol=1e-14)


def test_case1_matches_case5_output():
    a = construct_case1((1, 0, 0, 1))
    b = construct_case5((1, 0, 0, 1), E[0])
    assert a.family == b.family == "A"
    assert a.params == b.params
    np.testing.assert_array_equal(a.basis.matrix, b.basis.matrix)


def test_case1_degenerate_delta():
    ps = construct_case1((2, 2, 0, 0))
    np.testing.assert_allclose(brackets_in_basis(ps)[("xi", "e")], [0, 2, 2], atol=1e-14)


# -- branch 2 -------------------------------------------------------------


def test_case2_reference_values():
    ps = construct_case2((3, 0, 0, -1), math.pi / 3)
    assert ps.params == pytest.approx((2.0, SQ3, -SQ3), abs=1e-12)
    bk = brackets_in_basis(ps)
    fe = ps.basis.phi_e
    np.testing.assert_allclose(bk[("xi", "e")], [0, 0, -SQ3], atol=1e-12)
    np.testing.assert_allclose(bk[("xi", "fe")], np.zeros(3), atol=1e-12)
    np.testing.assert_allclose(bk[("e", "fe")], [SQ3, 0, 2.0], atol=1e-12)
    # the adapted frame is right-handed with phi_e = sin(t) e2 - cos(t) e3
    np.testing.assert_allclose(fe, [0.0, SQ3 / 2, -0.5], atol=1e-12)
    assert np.linalg.det(ps.basis.matrix) == pytest.approx(1.0)


def test_case2_degenerate_root():
    ps = construct_case2((2, 2, 0, 0), math.pi / 2)
    assert ps.params == pytest.approx((2.0, 2.0, 0.0), abs=1e-12)


def test_case2_trace_identity():
    params = MilnorParameters(3, 3, 1, -1)
    from contact3 import inplane_geodesic_angles

    for t in inplane_geodesic_angles(params):
        ps = construct_case2(params, t)
        assert ps.params[0] == pytest.approx(params.alpha + params.delta, abs=1e-12)


def test_case2_rejects_non_root():
    with pytest.raises(NotGeodesicError):
        construct_case2((3, 0, 0, -1), 0.3)


# -- branch 3 -------------------------------------------------------------


def test_case3_values_and_brackets():
    ps = construct_case3((2, 2, 0, 0))
    assert ps.params == pytest.approx((2.0, 0.0, -2.0), abs=1e-14)
    np.testing.assert_allclose(ps.basis.xi, [0, 1 / SQ2, -1 / SQ2], atol=1e-14)
    bk = brackets_in_basis(ps)
    np.testing.assert_allclose(bk[("xi", "e")], [0, 0, -2.0], atol=1e-12)
    np.testing.assert_allclose(bk[("e", "fe")], [0, 0, 2.0], atol=1e-12)
    # frame follows the conventional left-handed orientation
    assert np.linalg.det(ps.basis.matrix) == pytest.approx(-1.0)
    assert not classify((2, 2, 0, 0), ps.basis.xi).contact_form


def test_case3_mirror():
    ps = construct_case3((0, 0, -2, 2))
    assert ps.params == pytest.approx((2.0, 0.0, 2.0), abs=1e-14)


def test_case3_rejects_wrong_regime():
    with pytest.raises(AdmissibilityError):
        construct_case3((2, 0, 0, 0))  # q = 0
    with pytest.raises(AdmissibilityError):
        construct_case3((3, 0, 0, -1))  # p != +-r


# -- branch 4 -------------------------------------------------------------


def test_case4_values():
    ps0 = construct_case4((2, 0, 0, 0), 0.0)
    assert ps0.params == pytest.approx((2.0, 0.0))
    assert any("family A" in note for note in ps0.notes)
    ps1 = construct_case4((2, 0, 0, 0), math.pi / 2)
    assert ps1.params == pytest.approx((0.0, 2.0), abs=1e-12)
    np.testing.assert_allclose(ps1.basis.xi, E[2], atol=1e-12)
    assert not classify((2, 0, 0, 0), ps1.basis.xi).contact_form


def test_case4_angle_folding():
    a = construct_case4((2, 0, 0, 0), 0.7)
    b = construct_case4((2, 0, 0, 0), 0.7 + math.pi)
    assert a.params == pytest.approx(b.params)


def test_case4_rejects_wrong_regime():
    with pytest.raises(AdmissibilityError):
        construct_case4((2, 2, 0, 0), 0.3)


# -- branches 5, 6 --------------------------------------------------------


def test_case5_axis_and_rejection():
    ps = construct_case5((1, 0, 0, 1), E[0])
    assert ps.family == "A" and ps.params == (1.0, 0.0, 0.0, 1.0)
    ps = construct_case5((1, 1, -1, 1), E[0])
    assert ps.params == (1.0, 1.0, -1.0, 1.0)
    with pytest.raises(NotGeodesicError, match="ker"):
        construct_case5((1, 1, -1, 1), E[1])


def test_case6_values():
    ps = construct_case6(np.array([1.0, 0, 0]), E[0])
    ref = construct_case1((1, 0, 0, 1))
    assert ps.params == ref.params
    np.testing.assert_array_equal(ps.basis.matrix, ref.basis.matrix)

    ps = construct_case6(np.array([0.0, 2.0, 0.0]), E[1])
    assert ps.params == (2.0, 0.0, 0.0, 2.0)
    bk = brackets_in_basis(ps)
    np.testing.assert_allclose(bk[("xi", "e")], [0, 2, 0], atol=1e-14)
    np.testing.assert_allclose(bk[("e", "fe")], np.zeros(3), atol=1e-14)

    with pytest.raises(NotGeodesicError, match="parallel"):
        construct_case6(np.array([1.0, 0, 0]), E[1])


@pytest.mark.parametrize(
    "construct, source",
    [
        (construct_case5, MilnorParameters.from_pqr(0.0, 0.5, 1.0)),
        (construct_case5, (1, 1, -1, 1)),
        (construct_case6, np.array([0.0, 2.0, 0.0])),
    ],
)
def test_constructors_reject_zero_xi(construct, source):
    # 0 / |0| is NaN, and NaN fails every rejection test
    for xi in (np.zeros(3), -np.zeros(3)):
        with pytest.raises(NotGeodesicError, match="nonzero"):
            construct(source, xi)


# -- classify dispatch ----------------------------------------------------


def test_classify_axis_report():
    rep = classify((3, 0, 0, -1), E[0])
    assert rep.family == "A"
    assert rep.D == pytest.approx(-3.0, abs=1e-12)
    assert not rep.contact_form and not rep.contact_metric
    assert rep.geodesic_case == "A2"


def test_classify_inplane_root_report():
    t = math.pi / 3
    rep = classify((3, 0, 0, -1), np.array([0.0, math.cos(t), math.sin(t)]))
    assert rep.family == "B"
    assert rep.params["B"] == pytest.approx(SQ3, abs=1e-12)
    assert rep.contact_form and not rep.contact_metric


def test_classify_rejects_non_geodesic():
    with pytest.raises(NotGeodesicError, match="geodesic"):
        classify((3, 0, 0, -1), E[1])
    with pytest.raises(NotGeodesicError):
        classify((1, 0, 0, 1), E[1])  # p = 0: only the axis is geodesic
    with pytest.raises(NotGeodesicError):
        classify(LinearFunctional(np.array([1.0, 0, 0])), E[2])


def test_classify_rejects_bad_params():
    with pytest.raises(AdmissibilityError):
        classify((1, 1, 1, 1), E[0])


@pytest.mark.parametrize(
    "source, message",
    [
        (np.zeros(3), "abelian"),
        (np.array([1.2e308, 0.0, 0.0]), "below 2\\*\\*1022"),
        ((0, 0, 0, 0), "abelian"),
        ((1.6e308, 0, 0, 1e308), "below 2\\*\\*1022"),
    ],
    ids=["zero-functional", "huge-functional", "zero-params", "huge-params"],
)
def test_rejected_sources_raise_admissibility_error_for_either_kind(source, message):
    # a functional source is rejected with the same error type as a Milnor one
    for call in (classify_representatives, lambda s: classify(s, E[0])):
        with pytest.raises(AdmissibilityError, match=message):
            call(source)
    if np.shape(source) == (3,):
        with pytest.raises(AdmissibilityError, match=message):
            construct_case6(source, E[0])


def test_classify_pm_xi_reports_match():
    for src, xi in [
        ((3, 0, 0, -1), E[0]),
        ((2, 2, 0, 0), np.array([0.0, 1 / SQ2, -1 / SQ2])),
        ((2, 0, 0, 0), np.array([1 / SQ2, 0.0, 1 / SQ2])),
    ]:
        plus = classify(src, xi)
        minus = classify(src, -np.asarray(xi))
        assert plus.family == minus.family
        assert plus.params == pytest.approx(minus.params)
        assert is_isomorphic(plus.structure, minus.structure) is not None


def test_classify_interior_circle_point_outside_families():
    # geodesic vectors inside the q != 0 circles carry structures matching
    # none of the three normal forms
    xi = np.array([1.0, -1.0, 1.0]) / SQ3
    rep = classify((2, 2, 0, 0), xi)
    assert rep.family is None
    assert not rep.contact_form
    assert rep.params["e_phie_xi"] == pytest.approx(0.0, abs=1e-12)
    assert any("none of the A/B/C" in n for n in rep.errata_notes)


def test_classify_b1_transverse_pair_is_contact():
    # +-e3 on a p = r, q != 0 algebra: family B with (alpha, beta, 0)
    rep = classify((2, 2, 0, 0), E[2])
    assert rep.family == "B"
    assert rep.params == pytest.approx({"A": 2.0, "B": 2.0, "C": 0.0})
    assert rep.contact_form


def test_classify_representatives_counts():
    assert len(classify_representatives((1, 0, 0, 3))) == 1  # A1
    assert len(classify_representatives((3, 0, 0, -1))) == 3  # A2
    assert len(classify_representatives((2, 2, 0, 0))) == 4  # B1
    assert len(classify_representatives((2, 0, 0, 0))) == 3  # B2
    assert len(classify_representatives((1, 0, 0, 1))) == 1  # D
    assert len(classify_representatives(LinearFunctional(np.array([0.3, 0.4, 0.0])))) == 1


def classify_everywhere(params, angle=0.3):
    """classify_representatives, then classify(+-xi) at every enumerated feature."""
    reports = classify_representatives(params)
    enum = enumerate_unit_geodesics(params)
    feats = [np.array(v) for v in enum.discrete]
    for fam in enum.families:
        feats.extend(fam.point(t) for t in (fam.angles if fam.angles is not None else (angle,)))
    for xi in feats:
        classify(params, xi)
        classify(params, -xi)
    return enum.case_tag, reports


@pytest.mark.parametrize(
    "pqr,tag",
    [
        ((1 + 1e-11, 0.7, 1.0), "A2"),  # roots of a nearly degenerate in-plane quadratic
        ((1.1099985181206046e-09, -1.337693643521134, 0.39149467007159666), "A1"),  # classify and branch 5 agree on p != 0
        ((-2.110685920521111, 0.4615404459250154, 2.110685919672802), "A2"),  # 4e-10 off p = -r: normal forms hold
        ((2.486219097204745, -0.8463151422751581, -2.4862190949644996), "A2"),  # 9e-10 off p = -r: enumeration holds
    ],
)
def test_near_boundary_inputs_classify(pqr, tag):
    assert classify_everywhere(MilnorParameters.from_pqr(*pqr))[0] == tag


_sign = st.sampled_from([-1.0, 1.0])


@settings(max_examples=150, deadline=None)
@given(
    st.floats(0.3, 3.0),
    _sign,
    st.floats(-2.0, 2.0),
    st.floats(-14.0, -2.0),
    _sign,
    st.sampled_from(["p=r", "p=-r", "p=0"]),
    st.floats(0.0, 2.0 * math.pi),
)
def test_boundary_fuzz_raises_nothing(r, r_sign, q, log_eps, eps_sign, line, angle):
    # p = +-r(1+eps) or p = eps|r|, with |eps| log-uniform in [1e-14, 1e-2]
    r *= r_sign
    eps = eps_sign * 10.0**log_eps
    p = {"p=r": r * (1.0 + eps), "p=-r": -r * (1.0 + eps), "p=0": eps * abs(r)}[line]
    classify_everywhere(MilnorParameters.from_pqr(p, q, r), angle)


# -- isomorphism ----------------------------------------------------------


def test_isomorphic_self_and_cross():
    s = construct_case1((3, 3, 1, -1))
    m = is_isomorphic(s, s)
    assert m is not None
    np.testing.assert_allclose(m, np.eye(3), atol=1e-9)

    s6 = construct_case6(np.array([1.0, 0, 0]), E[0])
    assert is_isomorphic(construct_case1((1, 0, 0, 1)), s6) is not None


def _self_map_structures():
    rng = np.random.default_rng(5)
    out = [("rotation-A", construct_case1((1, 0, 0, 1))), ("case6", construct_case6(np.array([1.0, 0, 0]), E[0]))]
    for tag in CASE_TAGS:
        src = sample_functional(rng) if tag == "E" else sample_params(rng, tag)
        out.extend((tag, rep.structure) for rep in classify_representatives(src))
    return out


@pytest.mark.parametrize("name, s", _self_map_structures())
def test_isomorphic_self_map_is_identity(name, s):
    # rho = 0 is scored first and only a strictly smaller residual replaces
    # it, so even where every rotation intertwines the identity is returned
    np.testing.assert_allclose(is_isomorphic(s, s), np.eye(3), rtol=0, atol=1e-12)


def test_isomorphic_rejects_unequal_D():
    assert is_isomorphic(construct_case1((3, 0, 0, -1)), construct_case1((1, 0, 0, 1))) is None


def test_isomorphic_rejects_equal_D_across_families():
    # equal D passes the pre-check, so the scored candidates themselves must reject
    params = MilnorParameters(3, 0, 0, -1)
    s1 = construct_case1(params)
    for t in enumerate_unit_geodesics(params).inplane_angles():
        s2 = construct_case2(params, t)
        assert s1.invariant_D() == pytest.approx(s2.invariant_D(), abs=1e-12)
        assert is_isomorphic(s1, s2) is None and is_isomorphic(s2, s1) is None

    reps = classify_representatives(MilnorParameters.from_pqr(1, 0.7, 1))
    assert [r.family for r in reps] == ["A", "B", "B", None]
    for a, b in itertools.permutations(reps, 2):
        assert a.D == pytest.approx(b.D, abs=1e-12)
        assert is_isomorphic(a.structure, b.structure) is None


def test_isomorphic_conjugate_pair():
    # (A, 0, -C) and (A, 0, +C) are linked by the orientation conjugation
    ps1 = construct_case3((2, 2, 0, 0))
    t = math.atan2(1.0, -1.0)  # the same direction with the opposite sign
    ps2 = construct_case2((2, 2, 0, 0), t % math.pi)
    assert ps1.params == pytest.approx((2.0, 0.0, -2.0), abs=1e-12)
    assert ps2.params == pytest.approx((2.0, 0.0, 2.0), abs=1e-12)
    assert is_isomorphic(ps1, ps2) is not None


def test_isomorphism_map_intertwines_brackets():
    params = MilnorParameters(3, 3, 1, -1)
    s1 = construct_case1(params)
    s2 = construct_case1(params)
    F = is_isomorphic(s1, s2)
    L = from_milnor(params)
    for i in range(3):
        for j in range(3):
            lhs = F @ bracket(L, E[i], E[j])
            rhs = bracket(L, F @ E[i], F @ E[j])
            np.testing.assert_allclose(lhs, rhs, atol=1e-8)


# -- normality and contact flags ------------------------------------------


def _on_own_brackets(family, params):
    """A normal-form structure on the algebra its own constants define."""
    c = _normal_form_constants(family, params)
    return PhiBasisStructure(family, params, PhiBasis(*E), None, LieAlgebra3(c))


def test_normality_cross_family_consistency():
    # the family C point (Abar, 0) has the same brackets as the family A
    # point (Abar, 0, 0, 0): both have N residual |Abar| and are not normal
    alpha = 1.5
    ps_c = _on_own_brackets("C", (alpha, 0.0))
    ps_a = construct_case1((alpha, 0.0, 0.0, 0.0))
    for ps in (ps_c, ps_a):
        assert nijenhuis_normality_residual(ps.algebra, ps.structure()) == pytest.approx(alpha, abs=1e-12)
        assert _structure_flags(ps) == (False, False, False)


def test_normal_loci_per_family():
    assert _structure_flags(construct_case1(MilnorParameters.from_pqr(0.0, 0.7, 1.3)))[0]  # A: p = 0
    assert classify(LinearFunctional(np.array([0.3, 0.4, 0.0])), np.array([0.6, 0.8, 0.0])).normal
    assert _structure_flags(_on_own_brackets("B", (2.0, 0.0, 0.0))) == (True, False, False)
    assert _structure_flags(_on_own_brackets("B", (2.0, 0.0, -1.0))) == (False, False, False)
    assert _structure_flags(_on_own_brackets("B", (2.0, 1.0, 0.0))) == (False, True, True)
    assert _structure_flags(_on_own_brackets("C", (0.0, 2.0)))[0]
    assert _structure_flags(_on_own_brackets(None, (0.0, 0.0, 1.0, 2.0, 0.0)))[0]
    assert _structure_flags(_on_own_brackets(None, (0.0, 0.0, 1.0, 2.0, 0.5)))[:2] == (False, True)


def test_closed_forms_rederived_with_sympy():
    sp = pytest.importorskip("sympy")
    a, b, g, d, u, v, w = sp.symbols("a b g d u v w")
    # the layout every family of _normal_form_constants fits: eta([xi, .]) = 0,
    # [xi, e] = a e + b phi_e, [xi, phi_e] = g e + d phi_e, [e, phi_e] = w xi + u e + v phi_e
    rng = np.random.default_rng(0)
    for family, k in (("A", 4), ("B", 3), ("C", 2), (None, 5)):
        c = _normal_form_constants(family, tuple(rng.uniform(1.0, 2.0, k)))
        assert c[0, 1, 0] == c[0, 2, 0] == 0.0
    table = {(0, 1): (0, a, b), (0, 2): (0, g, d), (1, 2): (w, u, v)}
    c = {}
    for (i, j), coeffs in table.items():
        c[i, j] = sp.Matrix(coeffs)
        c[j, i] = -sp.Matrix(coeffs)
    basis = [sp.Matrix(col) for col in sp.eye(3).tolist()]

    def br(x, y):
        return sum((x[i] * y[j] * c[i, j] for i in range(3) for j in range(3) if i != j), sp.zeros(3, 1))

    phi = sp.Matrix([[0, 0, 0], [0, 0, -1], [0, 1, 0]])  # phi e = phi_e, phi phi_e = -e
    eta = sp.Matrix([[1, 0, 0]])

    def deta(x, y):
        return -(eta * br(x, y))[0]

    def N(x, y):
        return (
            phi * phi * br(x, y) + br(phi * x, phi * y) - phi * br(phi * x, y) - phi * br(x, phi * y)
            + 2 * deta(x, y) * basis[0]
        )

    xi, e, fe = basis
    assert sp.simplify(N(xi, e) - sp.Matrix([0, d - a, -b - g])) == sp.zeros(3, 1)
    assert sp.simplify(N(xi, fe) - sp.Matrix([0, -b - g, a - d])) == sp.zeros(3, 1)
    assert sp.simplify(N(e, fe) - sp.Matrix([-w, 0, 0])) == sp.zeros(3, 1)
    eta_wedge = sum(
        sp.LeviCivita(i, j, k) * eta[i] * deta(basis[j], basis[k]) for i in range(3) for j in range(3) for k in range(3)
    ) / 2
    assert sp.simplify(eta_wedge + w) == 0
    Phi = (e.T * phi * fe)[0]  # Phi(e, phi_e) = g(e, phi phi_e)
    assert Phi == -1 and sp.simplify(deta(e, fe) + w) == 0


def test_contact_and_normal_flags_pinned_under_scale():
    # B = 1.2e-16 * lambda on the degenerate case-2 point of (lambda, 0, lambda)
    flags = [
        [(rep.contact_form, rep.normal) for rep in classify_representatives(MilnorParameters.from_pqr(lam, 0.0, lam))]
        for lam in (1.0, 1e8)
    ]
    assert flags[0] == flags[1]


def _rescaled(src, lam):
    if isinstance(src, LinearFunctional):
        return LinearFunctional(lam * src.l)
    return MilnorParameters(*(lam * v for v in (src.alpha, src.beta, src.gamma, src.delta)))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(CASE_TAGS), st.integers(0, 2**32 - 1), st.floats(-8.0, 8.0))
def test_flags_invariant_under_scale(tag, seed, log_lam):
    rng = np.random.default_rng(seed)
    src = sample_functional(rng) if tag == "E" else sample_params(rng, tag)
    base = classify_representatives(src)
    scaled = classify_representatives(_rescaled(src, 10.0**log_lam))
    # contact_metric is a normalisation (B = 1) and is not scale-invariant
    key = lambda r: (r.family, r.geodesic_case, r.contact_form, r.normal)
    assert [key(r) for r in scaled] == [key(r) for r in base]


# Scale pins: an absolute enumeration check rejected the first, and a
# unimodularity test floored at scale 1 the second
_A2 = MilnorParameters(3.0, 0.0, 0.0, -1.0)


def test_a2_classifies_at_scale_1e9():
    key = lambda r: (r.family, r.geodesic_case, r.contact_form, r.normal)
    want = [key(r) for r in classify_representatives(_A2)]
    assert [key(r) for r in classify_representatives(_rescaled(_A2, 1e9))] == want


def test_a2_classifies_at_scale_1e_12():
    key = lambda r: (r.family, r.geodesic_case, r.contact_form, r.normal)
    want = [key(r) for r in classify_representatives(_A2)]
    assert [key(r) for r in classify_representatives(_rescaled(_A2, 1e-12))] == want


def test_contact_metric_after_rescale():
    t = math.pi / 3
    xi = np.array([0.0, math.cos(t), math.sin(t)])
    rep = classify((3, 0, 0, -1), xi)
    B = rep.params["B"]
    assert rep.contact_form and not rep.contact_metric
    scaled = classify(_rescaled(MilnorParameters(3, 0, 0, -1), 1.0 / B), xi)
    assert scaled.params["B"] == pytest.approx(1.0, abs=1e-12)
    assert scaled.contact_form and scaled.contact_metric and not scaled.normal
    assert is_contact_metric(scaled.structure.algebra, scaled.structure.structure(), I3)


# -- one algebra and one D per call ---------------------------------------


def _report_fields(rep):
    fields = {k: v for k, v in vars(rep).items() if k != "structure"}
    return fields, rep.structure.basis.matrix.tobytes(), rep.structure.params


@pytest.mark.parametrize("s", [1e300, 1e-320])
@pytest.mark.parametrize("src, xi", [((3, 0, 0, -1), (1.0, 0.0, 0.0)), ((1, 3, -6, 2), (0.0, 1.0, 1.0))], ids=["axis", "A2-root"])
def test_classify_is_invariant_under_scaling_xi(src, xi, s):
    # xi is normalised by the scaled norm: s * xi neither overflows nor underflows
    ref = classify(src, xi)
    assert ref.family == ("A" if xi[0] else "B") and "snapped" not in " ".join(ref.errata_notes)
    assert _report_fields(classify(src, s * np.array(xi))) == _report_fields(ref)


def _counting(monkeypatch, counts):
    import contact3.classification as cl
    import contact3.lie_core as lc
    import contact3.metric_geometry as mg

    def wrap(name, fn):
        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(lc.LieAlgebra3, "__post_init__", wrap("algebra", lc.LieAlgebra3.__post_init__))
    monkeypatch.setattr(lc, "_invariant_D", wrap("D", lc._invariant_D))
    monkeypatch.setattr(mg, "_check_enumeration", wrap("check", mg._check_enumeration))
    report_checks = cl._report_checks

    def counted_rows(c, scale, xi, *frame):
        # one row per structure whose flags and N residual are computed
        counts["rows"] = counts.get("rows", 0) + len(xi)
        return report_checks(c, scale, xi, *frame)

    monkeypatch.setattr(cl, "_report_checks", counted_rows)
    for name in _CONSTRUCTORS:
        monkeypatch.setattr(cl, name, wrap(name, getattr(cl, name)))


# every structure constructor ``_branch`` calls: branches 1 to 6, then the outside form
_CONSTRUCTORS = [f"construct_case{k}" for k in range(1, 7)] + ["_reduce_outside"]


def _constructs(counts, names=_CONSTRUCTORS):
    return sum(counts.get(name, 0) for name in names)


def _discrete_constructs(counts):
    return _constructs(counts, [f"construct_case{k}" for k in (1, 2, 3, 5, 6)])


@pytest.mark.parametrize("tag", CASE_TAGS)
def test_one_algebra_and_one_D_per_call(tag, monkeypatch):
    rng = np.random.default_rng([23, CASE_TAGS.index(tag)])
    src = sample_functional(rng) if tag == "E" else sample_params(rng, tag)
    raw = src.l.copy() if tag == "E" else (src.alpha, src.beta, src.gamma, src.delta)  # converted afresh per call
    counts = {}
    _counting(monkeypatch, counts)
    reps = classify_representatives(raw)
    assert (counts["algebra"], counts["D"], counts["check"]) == (1, 1, 1)
    assert all(r.structure.algebra is reps[0].structure.algebra for r in reps)
    for r in reps:
        counts.clear()
        plus = classify(raw, r.structure.basis.xi)
        minus = classify(raw, -r.structure.basis.xi)
        assert (counts["algebra"], counts["D"], counts["check"]) == (2, 2, 2)
        assert is_isomorphic(plus.structure, minus.structure) is not None
        assert (counts["algebra"], counts["D"], counts["check"]) == (2, 2, 2)
    # a parameters or functional object keeps its algebra, D and enumeration
    # across calls, and each discrete structure with its flags and N residual
    obj = LinearFunctional(raw) if tag == "E" else MilnorParameters(*raw)
    enumerate_obj = lambda: enumerate_unit_geodesics(functional=obj) if tag == "E" else enumerate_unit_geodesics(obj)
    for warm in (False, True):
        counts.clear()
        reports = classify_representatives(obj)
        for r in reps:
            reports += [classify(obj, r.structure.basis.xi), classify(obj, -r.structure.basis.xi)]
        assert enumerate_obj() is enumerate_obj()
        if not warm:
            assert (counts["algebra"], counts["D"], counts["check"]) == (1, 1, 1)
            discrete = {id(r.structure) for r in reports if r.structure.source_construction in (1, 2, 3, 5, 6)}
            assert _discrete_constructs(counts) == len(discrete) <= len(reps) + (tag in ("D", "E"))
            assert counts["rows"] == len({id(r.structure) for r in reports})
        else:
            # warm: no structure is built or checked again, the circle samples included
            assert counts.get("algebra", 0) == counts.get("D", 0) == counts.get("check", 0) == 0
            assert _constructs(counts) == counts.get("rows", 0) == 0


def _report_bits(rep):
    # every field and the frame by repr or bytes, so signed zeros and last bits count
    fields, basis, params = _report_fields(rep)
    return repr(sorted(fields.items())), basis, repr(params), repr(rep.structure.notes)


def _outcome(fn):
    try:
        return _report_bits(fn())
    except (AssertionError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("tag", CASE_TAGS)
def test_reused_source_reports_match_fresh_sources(tag):
    rng = np.random.default_rng([37, CASE_TAGS.index(tag)])
    src = sample_functional(rng) if tag == "E" else sample_params(rng, tag)
    if tag == "E":
        fresh = lambda: LinearFunctional(src.l.copy())
    else:
        fresh = lambda: MilnorParameters(src.alpha, src.beta, src.gamma, src.delta)
    obj = fresh()
    enum = enumerate_unit_geodesics(functional=obj) if tag == "E" else enumerate_unit_geodesics(obj)
    xis = [r.structure.basis.xi for r in classify_representatives(obj)] + list(enum.isolated_points())
    xis += [fam.point(t) for fam in enum.families for t in (0.3, 2.0)]
    xis += [E[0] + 1e-10 * E[2], E[1], rng.normal(size=3)]  # near the axis, and off the geodesic set

    def outcomes(source):
        reps = [_report_bits(r) for r in classify_representatives(source())]
        return reps + [_outcome(lambda: classify(source(), s * x)) for x in xis for s in (1.0, -1.0)]

    want = outcomes(fresh)
    assert outcomes(lambda: obj) == want
    assert outcomes(lambda: obj) == want
    kinds = {o[0] for o in want}
    assert "NotGeodesicError" in kinds and len(kinds) > 1  # both errors and reports are compared


@pytest.mark.parametrize("tag", ["B1", "B2", "C1", "C2"])
def test_circle_structures_filling_the_cap_leave_discrete_reports_unchanged(tag):
    rng = np.random.default_rng([41, CASE_TAGS.index(tag)])
    src = sample_params(rng, tag)
    fresh = lambda: MilnorParameters(src.alpha, src.beta, src.gamma, src.delta)
    obj = fresh()
    (fam,) = [f for f in enumerate_unit_geodesics(obj).families if f.angles is None]
    circle = [classify(obj, fam.point(t)) for t in np.linspace(0.1, 3.0, _KEPT + 2)]
    assert len(obj._structures) == _KEPT
    assert all(key[0] in (4, "outside") for key in obj._structures)
    assert [_report_bits(classify(obj, -r.structure.basis.xi)) for r in circle[:_KEPT]] == [
        _report_bits(classify(fresh(), -r.structure.basis.xi)) for r in circle[:_KEPT]
    ]
    # the discrete branches now build past the cap, every time, to the same bits
    reps = classify_representatives(fresh())
    xis = [r.structure.basis.xi for r in reps if r.structure.source_construction in (1, 2, 3)]
    assert xis
    for _ in range(2):
        assert [_report_bits(r) for r in classify_representatives(obj)] == [
            _report_bits(r) for r in classify_representatives(fresh())
        ]
        assert [_report_bits(classify(obj, s * x)) for x in xis for s in (1.0, -1.0)] == [
            _report_bits(classify(fresh(), s * x)) for x in xis for s in (1.0, -1.0)
        ]
    assert len(obj._structures) == _KEPT


def _signed_permutation_frames():
    """Orthonormal frames of signed unit axes whose zeros carry every sign (all 48 frames)."""
    rng = np.random.default_rng(31)
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            B = np.zeros((3, 3))
            B[list(perm), [0, 1, 2]] = signs
            B[B == 0] = rng.choice([0.0, -0.0], size=6)
            yield B


def test_identity_metric_structure_matches_structure_from_basis():
    structures = []
    for tag in CASE_TAGS:
        rng = np.random.default_rng([29, CASE_TAGS.index(tag)])
        src = sample_functional(rng) if tag == "E" else sample_params(rng, tag)
        structures += [rep.structure for rep in classify_representatives(src)]
    L = LieAlgebra3(np.zeros((3, 3, 3)))  # abelian: every frame presents it with zero coefficients
    structures += [PhiBasisStructure(None, (0.0,) * 5, PhiBasis(*B.T), None, L) for B in _signed_permutation_frames()]
    for ps in structures:
        b = ps.basis
        want = structure_from_basis(I3, b.xi, b.e, b.phi_e)
        got = ps.structure()
        for name in ("phi", "xi", "eta"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


# -- representatives built straight from the enumeration --------------------


def _pair_distance(x, v):
    return min(np.linalg.norm(x - v), np.linalg.norm(x + v))


def _reference_route(source, L, enum, x):
    """``_route`` with its own candidate list: (case tag, structure, notes) for the unit xi = x.

    The candidates in priority order: the axis, the distinguished in-plane
    direction of B1/C1 (right after the axis), the in-plane roots, the full
    circles.  xi goes to the first candidate within 1e-12 of the nearest,
    so a B1/C1 root that is not nearer than the distinguished direction by
    1e-12 goes to branch 3.  Only the geodesic test and ``_branch`` are the
    library's.
    """
    import contact3.classification as cl

    if not cl.is_geodesic_vector(L, I3, x):
        raise cl._not_geodesic(L, x, isinstance(source, LinearFunctional))
    if isinstance(source, LinearFunctional):
        return cl._branch(source, L, enum, x, (source.dual, "dual", None), 0.0)
    # (distance, (representative vector, kind, payload)) as ``_branch`` reads them
    candidates = [(_pair_distance(x, E[0]), (E[0], "axis", None))]
    if enum.case_tag in ("B1", "C1"):
        special = enum.families[0].v
        candidates.append((_pair_distance(x, special), (special, "special", special)))
    for root in enum.inplane_angles():
        v = np.array([0.0, math.cos(root), math.sin(root)])
        candidates.append((_pair_distance(x, v), (v, "root", root)))
    candidates += [(fam.distance(x), (None, "circle", fam)) for fam in enum.families if fam.angles is None]
    best = candidates[0]
    for candidate in candidates[1:]:
        if candidate[0] < best[0] - 1e-12:
            best = candidate
    dist, feature = best
    if dist > 0.2:
        raise NotGeodesicError(
            f"xi passed the geodesic tolerance but lies far from every enumerated geodesic (distance {float(dist)!r})"
        )
    return cl._branch(source, L, enum, x, feature, dist)


def _routed_representatives(source):
    """The representatives as one ``classify`` call each would report them.

    Each representative vector goes through ``_reference_route`` (geodesic
    test and candidate search), and each structure through the per-structure
    checks: ``structure()``, ``xi_in_ker_deta``, the flags and
    ``nijenhuis_normality_residual``, then D, one report at a time.
    """
    import contact3.classification as cl

    source, L, enum = cl.resolve_source(source)
    if isinstance(source, LinearFunctional):
        xis = [source.dual]
    else:
        xis = [E[0], *(np.array([0.0, math.cos(t), math.sin(t)]) for t in enum.inplane_angles())]
        xis += [(E[0] + fam.v) / SQ2 for fam in enum.families if fam.angles is None]
    routes = [_reference_route(source, L, enum, x / np.linalg.norm(x)) for x in xis]
    reports = []
    for tag, ps, notes in routes:
        s = ps.structure()
        if not xi_in_ker_deta(ps.algebra, s):
            raise AssertionError("constructed structure lost the ker d_eta condition")
        flags = _structure_flags(ps)
        residual = nijenhuis_normality_residual(ps.algebra, s)
        fields = dict(zip(("normal", "contact_form", "contact_metric"), flags), normality_residual=residual)
        fields.update(family=ps.family, params=ps.params_dict, D=ps.invariant_D(), geodesic_case=tag)
        fields.update(errata_notes=ps.notes + notes)
        reports.append((repr(sorted(fields.items())), ps.basis.matrix.tobytes(), repr(ps.params), repr(ps.notes)))
    return reports


def _direct_representatives(source):
    return [_report_bits(rep) for rep in classify_representatives(source)]


def _either(fn, source):
    try:
        return fn(source)
    except (AssertionError, ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


def _edge_sources(rng, n):
    # classify-edge style draws: within 1e-14..1e-2 (relative) of p = +-r or
    # p = 0, and interior sources rescaled by 10^U(-8, 8)
    for i in range(n):
        r = rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0])
        if i % 2 == 0:
            eps = 10.0 ** rng.uniform(-14.0, -2.0) * rng.choice([-1.0, 1.0])
            p = (r * (1.0 + eps), -r * (1.0 + eps), eps * abs(r))[i % 3]
            yield MilnorParameters.from_pqr(p, rng.uniform(-2.0, 2.0), r)
        else:
            tag = CASE_TAGS[i % len(CASE_TAGS)]
            src = sample_functional(rng) if tag == "E" else sample_params(rng, tag)
            yield _rescaled(src, 10.0 ** rng.uniform(-8.0, 8.0))


def _fresh(src):
    # a tuple or array source, converted afresh by each call
    return src.l.copy() if isinstance(src, LinearFunctional) else (src.alpha, src.beta, src.gamma, src.delta)


@pytest.mark.parametrize("tag", CASE_TAGS)
def test_representatives_match_the_routed_reference(tag):
    rng = np.random.default_rng([43, CASE_TAGS.index(tag)])
    for _ in range(12):
        src = _fresh(sample_functional(rng) if tag == "E" else sample_params(rng, tag))
        want = _routed_representatives(src)
        assert _direct_representatives(src) == want
        assert {rep.geodesic_case for rep in classify_representatives(src)} == {tag}
    if tag in ("B1", "C1"):
        # the special direction's root folds to the canonical sign on B1, and on C1 when q < 0
        src = MilnorParameters.from_pqr(1.0 if tag == "B1" else -1.0, -0.7, 1.0)
        notes = [note for rep in classify_representatives(_fresh(src)) for note in rep.errata_notes]
        assert "xi folded to the canonical sign representative" in notes
        assert _direct_representatives(_fresh(src)) == _routed_representatives(_fresh(src))


@pytest.mark.parametrize("q", [1e-12 * (1 + 2**-40), 1.001e-12, 1e-11, 2e-11])
@pytest.mark.parametrize("p", [1.0, -1.0])
def test_special_direction_is_the_root_at_its_angle_near_q_0(p, q):
    # just above |q| = 0 the transverse root and the distinguished direction
    # are about |q| apart: the root at the distinguished direction's angle,
    # bit for bit, goes to branch 3, the other to branch 2
    src = MilnorParameters.from_pqr(p, q, 1.0)
    reps = classify_representatives(_fresh(src))
    assert {rep.geodesic_case for rep in reps} == {"B1" if p > 0 else "C1"}
    assert [rep.structure.source_construction for rep in reps] == [1, 2, 3, None]
    assert _direct_representatives(_fresh(src)) == _routed_representatives(_fresh(src))
    # at -q the roots swap on B1; the reference's 1e-12 tie sent the
    # transverse root at q = -1e-12 (1 + 2^-40) to branch 3 as well
    reps = classify_representatives(_fresh(MilnorParameters.from_pqr(p, -q, 1.0)))
    assert [rep.structure.source_construction for rep in reps] == ([1, 3, 2, None] if p > 0 else [1, 2, 3, None])


def _route_bits(route, source, xi):
    import contact3.classification as cl

    try:
        tag, ps, notes = route(*cl.resolve_source(source), xi / np.linalg.norm(xi))
    except NotGeodesicError as exc:
        return str(exc)
    return tag, ps.source_construction, ps.basis.matrix.tobytes(), repr(ps.params), ps.notes + notes


@pytest.mark.parametrize("tag", CASE_TAGS)
def test_route_matches_the_reference_route(tag):
    # xi at every feature and its antipode, at circle points, and off them
    # by 1e-13 (kept) and by 1e-9 and 3e-9 (snapped, or not geodesic); B1/C1
    # also just above q = 0
    import contact3.classification as cl

    rng = np.random.default_rng([53, CASE_TAGS.index(tag)])
    sources = [sample_functional(rng) if tag == "E" else sample_params(rng, tag) for _ in range(6)]
    if tag in ("B1", "C1"):
        sources += [MilnorParameters.from_pqr(1.0 if tag == "B1" else -1.0, q, 0.8) for q in (1.001e-12, 1.5e-12, 1e-11)]
    for src in sources:
        enum = cl.resolve_source(src)[2]
        xis = [v for v, _, _ in cl._features(src, enum)] + enum.isolated_points()
        xis += [fam.point(t) for fam in enum.families if fam.angles is None for t in rng.uniform(0, 2 * math.pi, 4)]
        for xi in xis:
            for x in (xi, -xi, *(xi + eps * rng.standard_normal(3) for eps in (1e-13, 1e-9, 3e-9))):
                assert _route_bits(cl._route, src, x) == _route_bits(_reference_route, src, x)


# sources whose ker d_eta check failed on a representative past the first
# (rescaled A2 and E draws) while that check was absolute
_KER_FAILS_PAST_FIRST = (-1087684.0068873626, -1600396.3991109256, 30964679.32652331, -21044652.750134543)
_KER_FAILS_FUNCTIONAL = (-34992492.671495594, 21861677.941240538, 25923673.896360785)


def test_representatives_match_the_routed_reference_near_boundaries():
    rng = np.random.default_rng(47)
    sources = [_fresh(src) for src in _edge_sources(rng, 160)]
    # pinned inputs that raised while the gates were absolute: a self-chosen
    # representative off the geodesic gate, and two whose ker d_eta check
    # failed on a representative past the first; every input now classifies
    sources += [(4.81e30, 0.0, 0.0, 0.0), _KER_FAILS_PAST_FIRST, np.array(_KER_FAILS_FUNCTIONAL)]
    for src in sources:
        want = _either(_routed_representatives, src)
        assert isinstance(want, list), want
        assert _either(_direct_representatives, src) == want


def test_representative_off_the_geodesic_gate_keeps_its_error(monkeypatch):
    import contact3.classification as cl
    import contact3.metric_geometry as mg

    # the enumeration is checked and kept at the library's tolerance; then
    # the gates, read at run time, are lowered below the rounding of the A2
    # root representative (the second), and the axis still passes.
    # ``_representatives`` runs no geodesic test of its own: the root's
    # error comes from construct_case2's in-plane equation, at the same
    # rounding, and one classify of it stops at _route's geodesic test
    src = MilnorParameters(3.0, 0.0, 0.0, -1.0)
    enumerate_unit_geodesics(src)
    for module in (mg, cl):
        monkeypatch.setattr(module, "PREDICATE_TOL", 1e-16)
    with pytest.raises(NotGeodesicError) as err:
        classify_representatives(src)
    assert str(err.value) == (
        "angle 1.0471975511965976 violates the in-plane geodesic equation (residual 5.551115123125783e-16)"
    )
    assert _either(_routed_representatives, src) == (
        "NotGeodesicError",
        "xi is not a geodesic vector (defect 5.551115123125783e-16): g([xi, y], xi) must vanish for every y; "
        "equivalently xi fails the ker d_eta condition (eta([xi, X]) != 0 for some X in ker eta)",
    )


def _own_error(L, xi, e, phi_e):
    # the error the public per-structure checks raise on a frame: its structure, then the ker d_eta and N checks
    try:
        s = AlmostContactStructure(np.outer(phi_e, e) - np.outer(e, phi_e), xi, xi)
        if not xi_in_ker_deta(L, s):
            raise AssertionError("constructed structure lost the ker d_eta condition")
        nijenhuis_normality_residual(L, s)
    except (AssertionError, ValueError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize(
    "corrupt, checked, built",
    [
        (
            lambda b: {"xi": np.array([np.nan, 0.0, 0.0])},
            "vector components must be finite",
            (ValueError, "vector components must be finite"),
        ),
        (
            lambda b: {"e": np.array([0.0, np.nan, 1.0])},
            "phi must be finite",
            (ValueError, "vector components must be finite"),
        ),
        (lambda b: {"e": 2.0 * b.e}, "phi^2 must equal -Id + xi (x) eta", (ValueError, "phi-basis must be orthonormal")),
        # the frame turned by pi/4 in the xi-e plane: orthonormal, with xi off the geodesic set
        (
            lambda b: {"xi": (b.xi + b.e) / SQ2, "e": (b.e - b.xi) / SQ2},
            "constructed structure lost the ker d_eta condition",
            (AssertionError, "normal form does not match raw brackets"),
        ),
    ],
    ids=["nan-xi", "nan-e", "not-orthonormal", "xi-off-the-kernel"],
)
def test_stacked_checks_give_each_row_its_own_error(corrupt, checked, built):
    import contact3.classification as cl

    # B1: four structures; the frame of the one at the transverse root
    # (branch 2) is corrupted.  The per-structure checks reject that frame;
    # reports do not re-run them, because construction rejects it first
    good = [r.structure for r in classify_representatives(MilnorParameters.from_pqr(1.0, 0.7, 1.0))]
    ps = good[[g.source_construction for g in good].index(2)]
    frame = {name: getattr(ps.basis, name) for name in ("xi", "e", "phi_e")}
    frame.update(corrupt(ps.basis))
    assert _own_error(ps.algebra, **frame)[1] == checked
    with pytest.raises(built[0], match=re.escape(built[1])):
        PhiBasisStructure(ps.family, ps.params, PhiBasis(**frame), ps.source_construction, ps.algebra)
    # the stacked pass gives each row the values it has on its own
    assert cl._checked(ps.algebra, good) == [cl._checked(ps.algebra, [g])[0] for g in good]


def test_separately_built_objects_compare_without_raising():
    # the dataclasses holding arrays compare by identity: == never reaches an array
    a, b = classify((3, 0, 0, -1), (1, 0, 0)), classify((3, 0, 0, -1), (1, 0, 0))
    assert a == a and not a == b and a != b
    assert a.structure == a.structure and a.structure != b.structure
    for make in (
        lambda: PhiBasis(E[0], E[1], E[2]),
        lambda: a.structure.structure(),
        lambda: enumerate_unit_geodesics((1.0, 0.0, 0.0, 1.0)),
        lambda: enumerate_unit_geodesics((2.0, 0.0, 0.0, 0.0)).families[0],
        lambda: from_milnor((3, 0, 0, -1)),
        lambda: LinearFunctional(np.array([1.0, 2.0, 3.0])),
        lambda: Metric3(np.eye(3)),
    ):
        x, y = make(), make()
        assert x == x and x != y
