import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contact3 import (
    LieAlgebra3,
    Metric3,
    bracket,
    build_structure,
    check_ker_condition,
    d_eta,
    from_milnor,
    fundamental_two_form,
    is_contact_form,
    is_contact_metric,
    lie_derivative_eta,
    nijenhuis_normality_residual,
    structure_from_basis,
    xi_in_ker_deta,
)
from contact3.contact_structures import (
    AlmostContactStructure,
    KerConditionViolation,
    compatibility_residual,
    eta_wedge_deta,
)

E = np.eye(3)
I3 = Metric3.identity()
ABELIAN = LieAlgebra3(np.zeros((3, 3, 3)))


def family_b_algebra(A, B, C):
    """Brackets [xi,e] = C phi_e, [xi,phi_e] = 0, [e,phi_e] = A phi_e + B xi
    on the basis xi = e1, e = e2, phi_e = e3."""
    c = np.zeros((3, 3, 3))
    c[0, 1] = (0, 0, C)
    c[1, 0] = (0, 0, -C)
    c[1, 2] = (B, 0, A)
    c[2, 1] = (-B, 0, -A)
    return LieAlgebra3(c)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def test_build_structure_axis():
    s = build_structure(I3, E[0])
    np.testing.assert_allclose(s.phi @ E[1], E[2])
    np.testing.assert_allclose(s.phi @ E[2], -E[1])
    np.testing.assert_allclose(s.phi @ E[0], np.zeros(3))
    s_neg = build_structure(I3, E[0], orientation=-1)
    np.testing.assert_allclose(s_neg.phi @ E[1], -E[2])


def test_build_structure_tilted_xi():
    xi = unit([0.0, 1.0, -1.0])
    s = build_structure(I3, xi)
    img = s.phi @ E[0]
    np.testing.assert_allclose(np.abs(img), unit([0.0, 1.0, 1.0]), atol=1e-12)
    assert compatibility_residual(s, I3) <= 1e-12


def test_build_structure_rejects_non_unit():
    with pytest.raises(ValueError, match="unit"):
        build_structure(I3, np.array([2.0, 0.0, 0.0]))


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.floats(-1, 1)] * 3), st.sampled_from([+1, -1]))
def test_structure_axioms_random_xi(raw, orientation):
    v = np.array(raw)
    n = np.linalg.norm(v)
    if n < 1e-3:
        return
    s = build_structure(I3, v / n, orientation)
    assert abs(s.eta @ s.xi - 1.0) <= 1e-12
    assert np.abs(s.phi @ s.xi).max() <= 1e-12
    assert np.abs(s.eta @ s.phi).max() <= 1e-12
    assert np.abs(s.phi @ s.phi + np.eye(3) - np.outer(s.xi, s.eta)).max() <= 1e-12
    assert compatibility_residual(s, I3) <= 1e-12


@pytest.mark.parametrize("bad", [np.full((3, 3), np.nan), np.diag([0.0, np.inf, 0.0])], ids=["all-nan", "inf-entry"])
def test_structure_rejects_non_finite_phi(bad):
    with pytest.raises(ValueError, match="finite"):
        AlmostContactStructure(bad, E[0], E[0])


def test_structure_with_non_identity_metric():
    g = Metric3(np.diag([1.0, 4.0, 0.25]))
    xi = np.array([1.0, 0.0, 0.0])
    s = build_structure(g, xi)
    assert compatibility_residual(s, g) <= 1e-12
    assert np.abs(s.phi @ s.phi + np.eye(3) - np.outer(s.xi, s.eta)).max() <= 1e-12


def test_fundamental_two_form():
    s = build_structure(I3, E[0])
    assert fundamental_two_form(s, I3, E[1], E[2]) == pytest.approx(-1.0)
    x = np.array([0.3, -0.4, 1.1])
    assert fundamental_two_form(s, I3, x, x) == pytest.approx(0.0, abs=1e-14)
    for k in range(3):
        assert fundamental_two_form(s, I3, s.xi, E[k]) == pytest.approx(0.0, abs=1e-14)


def test_two_form_antisymmetry():
    s = build_structure(I3, unit([1.0, 2.0, 0.5]))
    for i in range(3):
        for j in range(3):
            a = fundamental_two_form(s, I3, E[i], E[j])
            b = fundamental_two_form(s, I3, E[j], E[i])
            assert a == pytest.approx(-b, abs=1e-14)


def test_d_eta_values():
    L = from_milnor((1, 0, 0, 1))
    s = build_structure(I3, E[0])
    assert d_eta(L, s, E[1], E[2]) == pytest.approx(0.0)
    x = np.array([0.2, 0.5, -1.0])
    assert d_eta(L, s, x, x) == pytest.approx(0.0)
    # branch-2 frame on the (3,0,0,-1) algebra at t = pi/3: d_eta(e, phi_e) = -B
    L = from_milnor((3, 0, 0, -1))
    t = math.pi / 3
    xi = np.array([0.0, math.cos(t), math.sin(t)])
    phi_e = np.array([0.0, math.sin(t), -math.cos(t)])
    s = structure_from_basis(I3, xi, E[0], phi_e)
    assert d_eta(L, s, E[0], phi_e) == pytest.approx(-math.sqrt(3.0), abs=1e-12)


def test_lie_derivative_eta():
    L = from_milnor((1, 0, 0, 1))
    s = build_structure(I3, E[0])
    assert lie_derivative_eta(L, s, s.xi) == pytest.approx(0.0)
    assert lie_derivative_eta(L, s, E[1]) == pytest.approx(0.0)
    L = from_milnor((3, 0, 0, -1))
    s = build_structure(I3, E[1])
    assert abs(lie_derivative_eta(L, s, E[0])) == pytest.approx(3.0)


def test_xi_in_ker_deta():
    assert xi_in_ker_deta(from_milnor((3, 3, 1, -1)), build_structure(I3, E[0]))
    assert not xi_in_ker_deta(from_milnor((3, 0, 0, -1)), build_structure(I3, E[1]))
    assert xi_in_ker_deta(ABELIAN, build_structure(I3, unit([1.0, 1.0, 1.0])))


def test_ker_condition():
    L = from_milnor((3, 3, 1, -1))
    assert check_ker_condition(L, build_structure(I3, E[0]))
    assert check_ker_condition(ABELIAN, build_structure(I3, unit([0.0, 1.0, 2.0])))
    with pytest.raises(KerConditionViolation):
        check_ker_condition(from_milnor((3, 0, 0, -1)), build_structure(I3, E[1]))


def test_contact_metric_witnesses():
    s = structure_from_basis(I3, E[0], E[1], E[2])
    assert is_contact_metric(family_b_algebra(2.0, 1.0, -0.7), s, I3)
    assert not is_contact_metric(family_b_algebra(2.0, math.sqrt(3.0), -0.7), s, I3)
    assert not is_contact_metric(ABELIAN, s, I3)


def test_contact_form_witnesses():
    s = structure_from_basis(I3, E[0], E[1], E[2])
    assert is_contact_form(family_b_algebra(2.0, math.sqrt(3.0), 0.0), s)
    assert eta_wedge_deta(family_b_algebra(2.0, math.sqrt(3.0), 0.0), s) == pytest.approx(
        -math.sqrt(3.0)
    )
    assert not is_contact_form(ABELIAN, s)
    # contact metric implies contact form; the converse fails at B = sqrt(3)
    LB = family_b_algebra(1.5, 1.0, 0.3)
    assert is_contact_metric(LB, s, I3) and is_contact_form(LB, s)
    LB = family_b_algebra(1.5, math.sqrt(3.0), 0.3)
    assert is_contact_form(LB, s) and not is_contact_metric(LB, s, I3)


def normality_direct(L, s):
    """Independent evaluation of the normality tensor on basis pairs."""
    worst = 0.0
    for i in range(3):
        for j in range(3):
            X, Y = E[i], E[j]
            n = (
                s.phi @ s.phi @ bracket(L, X, Y)
                + bracket(L, s.phi @ X, s.phi @ Y)
                - s.phi @ bracket(L, s.phi @ X, Y)
                - s.phi @ bracket(L, X, s.phi @ Y)
                + 2.0 * (-s.eta @ bracket(L, X, Y)) * s.xi
            )
            worst = max(worst, np.abs(n).max())
    return worst


def test_normality_diagonal_is_normal():
    L = from_milnor((1, 0, 0, 1))
    s = build_structure(I3, E[0])
    assert normality_direct(L, s) <= 1e-15
    assert nijenhuis_normality_residual(L, s) <= 1e-15


def test_normality_family_b_oracle():
    s = structure_from_basis(I3, E[0], E[1], E[2])
    for A, B, C in [(2.0, 1.3, 0.0), (1.0, 0.0, 0.8), (-1.5, 0.7, -0.2)]:
        L = family_b_algebra(A, B, C)
        expect = normality_direct(L, s)
        assert nijenhuis_normality_residual(L, s) == pytest.approx(expect, abs=1e-14)
        assert expect == pytest.approx(max(abs(B), abs(C)), abs=1e-12)


def test_normality_family_a_pattern():
    # residual max(|delta-alpha|, |beta+gamma|) = max(2|p|, 2|pq|): zero
    # exactly on the p = 0 line
    from contact3 import MilnorParameters

    s = build_structure(I3, E[0])
    L = from_milnor(MilnorParameters.from_pqr(0.5, 0.7, 1.25))
    assert nijenhuis_normality_residual(L, s) == pytest.approx(1.0, abs=1e-12)
    L = from_milnor((1.5, 0.6, -0.6, 1.5))
    assert nijenhuis_normality_residual(L, s) <= 1e-15


def test_normality_invariant_under_frame_rotation():
    # conjugating the whole picture by a structure-preserving isometry
    # leaves the residual unchanged
    L = from_milnor((3, 3, 1, -1))
    s = build_structure(I3, E[0])
    base = nijenhuis_normality_residual(L, s)
    for rho in (0.3, 1.2, 2.9):
        c, v = math.cos(rho), math.sin(rho)
        R = np.array([[1, 0, 0], [0, c, -v], [0, v, c]], dtype=float)
        c_rot = np.einsum("ia,jb,ijk,km->abm", R, R, L.c, R.T)
        L_rot = LieAlgebra3(c_rot)
        s_rot = structure_from_basis(I3, R @ E[0], R @ E[1], R @ E[2])
        assert nijenhuis_normality_residual(L_rot, s_rot) == pytest.approx(base, abs=1e-9)
