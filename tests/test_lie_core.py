import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contact3 import (
    LieAlgebra3,
    LinearFunctional,
    MilnorParameters,
    ad_matrix,
    bracket,
    canonical_L_action,
    from_functional,
    from_milnor,
    inplane_geodesic_angles,
    invariant_D,
    is_unimodular,
    jacobi_residual,
    milnor_invariant_D,
    pqr_from_milnor,
    unimodular_kernel,
)
from contact3.lie_core import _milnor_gates

E = np.eye(3)

nonzero = st.floats(0.3, 3.0).flatmap(lambda v: st.sampled_from([v, -v]))
pqr = st.tuples(st.floats(-3, 3), st.floats(-3, 3), nonzero)


def heisenberg():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = -1.0
    return LieAlgebra3(c)


def test_bracket_milnor_form():
    L = from_milnor((1, 0, 0, 1))
    np.testing.assert_allclose(bracket(L, E[0], E[1]), E[1])
    L = from_milnor((3, 0, 0, -1))
    np.testing.assert_allclose(bracket(L, E[0], E[2]), -E[2])
    np.testing.assert_allclose(bracket(L, E[1], E[2]), np.zeros(3))


def test_bracket_self_is_zero():
    L = from_milnor((2, 2, 0, 0))
    x = np.array([0.3, -1.2, 0.7])
    np.testing.assert_allclose(bracket(L, x, x), np.zeros(3), atol=1e-15)


def test_antisymmetry_rejected():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0  # missing the (1, 0) counterpart
    with pytest.raises(ValueError, match="antisymmetric"):
        LieAlgebra3(c)


def test_jacobi_zero_for_milnor_and_abelian():
    assert jacobi_residual(from_milnor((3, 3, 1, -1))) <= 1e-12
    assert jacobi_residual(LieAlgebra3(np.zeros((3, 3, 3)))) == 0.0


def test_jacobi_nonzero_example():
    # [e1,e2]=e2, [e1,e3]=e3, [e2,e3]=e1 violates the cyclic identity:
    # the (e1,e2,e3) sum evaluates to 2 e1
    c = np.zeros((3, 3, 3))
    for (i, j), k in {(0, 1): 1, (0, 2): 2, (1, 2): 0}.items():
        c[i, j, k] = 1.0
        c[j, i, k] = -1.0
    L = LieAlgebra3(c)

    def brk(x, y):
        return np.einsum("i,j,ijk->k", x, y, c)

    worst = 0.0
    for i in range(3):
        for j in range(3):
            for k in range(3):
                s = brk(brk(E[i], E[j]), E[k]) + brk(brk(E[j], E[k]), E[i]) + brk(brk(E[k], E[i]), E[j])
                worst = max(worst, np.abs(s).max())
    assert worst > 0.5
    assert jacobi_residual(L) == pytest.approx(worst)


def test_ad_matrix():
    L = from_milnor((1, 0, 0, 1))
    ad1 = ad_matrix(L, E[0])
    np.testing.assert_allclose(ad1, np.diag([0.0, 1.0, 1.0]))
    np.testing.assert_allclose(ad_matrix(L, np.zeros(3)), np.zeros((3, 3)))
    assert np.trace(ad_matrix(from_milnor((3, 0, 0, -1)), E[0])) == pytest.approx(2.0)


def test_is_unimodular():
    assert not is_unimodular(from_milnor((1, 0, 0, 1)))
    assert is_unimodular(heisenberg())
    assert is_unimodular(LieAlgebra3(np.zeros((3, 3, 3))))


@pytest.mark.parametrize("params", [(3, 0, 0, -1), (1, 2, -2, 1)])
def test_unimodular_kernel_is_e2_e3_plane(params):
    u1, u2 = unimodular_kernel(from_milnor(params))
    np.testing.assert_allclose(u1, E[1], atol=1e-12)
    np.testing.assert_allclose(u2, E[2], atol=1e-12)


def test_unimodular_kernel_functional():
    u1, u2 = unimodular_kernel(from_functional(np.array([1.0, 0, 0])))
    span = np.column_stack([u1, u2])
    np.testing.assert_allclose(span[0], [0.0, 0.0], atol=1e-12)


def test_unimodular_kernel_rejects_unimodular():
    with pytest.raises(ValueError, match="unimodular"):
        unimodular_kernel(heisenberg())


def test_from_milnor_rejects_bad_params():
    with pytest.raises(ValueError, match="unimodular"):
        MilnorParameters(1, 0, 0, -1)
    with pytest.raises(ValueError, match="orthogonality"):
        MilnorParameters(1, 1, 1, 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: from_milnor(3.0),
        lambda: from_milnor((1, 2, 3)),
        lambda: inplane_geodesic_angles((1, 2)),
        lambda: MilnorParameters(None, 0, 0, 1),
        lambda: MilnorParameters.from_pqr(0, 0, "1"),
    ],
    ids=["number", "three-coefficients", "two-coefficients", "none-coefficient", "string-r"],
)
def test_malformed_milnor_input_raises_value_error(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "params,expected_D",
    [((1, 0, 0, 1), 1.0), ((3, 0, 0, -1), -3.0), ((2, 2, 0, 0), 0.0)],
)
def test_invariant_D_values(params, expected_D):
    assert milnor_invariant_D(params) == pytest.approx(expected_D, abs=1e-12)
    assert invariant_D(from_milnor(params)) == pytest.approx(expected_D, abs=1e-12)


@pytest.mark.parametrize(
    "params,expected_D",
    [((1e200, 0, 0, 1e200), 1.0), ((3e200, 0, 0, -1e200), -3.0), (MilnorParameters.from_pqr(0.5e200, 1.0, 1e200), 1.5)],
)
def test_invariant_D_beyond_the_float_range_of_its_squares(params, expected_D):
    # (alpha + delta)^2 and |trace form|^2 overflow here
    D = milnor_invariant_D(params)
    assert D == pytest.approx(expected_D, rel=1e-12)
    assert D == pytest.approx(invariant_D(from_milnor(params)), rel=1e-12)


@pytest.mark.parametrize("l", [(0.0, 0.0, 6.28650221021083e-310), (5e-324, 0.0, 0.0), (1e-320, -3e-321, 0.0)])
def test_invariant_D_of_a_subnormal_functional(l):
    # every rank-one algebra has D = 1; 2 / trace M overflowed at these scales
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert invariant_D(from_functional(np.array(l))) == 1.0


@pytest.mark.parametrize("pqr", [(2.0, 0.5, 1.0), (0.3, -0.7, 1.1), (1e-3, 3.0, -7e-4), (5e8, 0.2, 1e9)])
def test_invariant_D_direct_form_at_ordinary_scales(pqr):
    P = MilnorParameters.from_pqr(*pqr)
    a, b, g, d = P.alpha, P.beta, P.gamma, P.delta
    assert milnor_invariant_D(P) == 4.0 * (a * d - b * g) / (a + d) ** 2


@pytest.mark.parametrize(
    "params,expected",
    [((3, 0, 0, -1), (2, 0, 1)), ((2, 2, 0, 0), (1, 1, 1)), ((1, 0, 0, 1), (0, 0, 1))],
)
def test_pqr_values(params, expected):
    assert pqr_from_milnor(*params) == pytest.approx(expected)


def test_pqr_of_a_subnormal_source_does_not_warn():
    # every coefficient is subnormal and delta = 0: q comes from alpha
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        P = MilnorParameters.from_pqr(1.265e-321, 1.36, 1.265e-321)
        assert P.delta == 0.0 and P.q == P.beta / P.alpha
        assert pqr_from_milnor(P.alpha, P.beta, P.gamma, P.delta) == (P.p, P.q, P.r)


def test_canonical_L_action():
    for params in [(1, 0, 0, 1), (3, 0, 0, -1), (3, 3, 1, -1)]:
        Lm = canonical_L_action(params)
        assert np.trace(Lm) == pytest.approx(2.0, abs=1e-12)
        assert np.linalg.det(Lm) == pytest.approx(milnor_invariant_D(params), abs=1e-12)


def test_from_functional_brackets():
    L = from_functional(np.array([0.0, 1.0, 0.0]))
    np.testing.assert_allclose(bracket(L, E[0], E[1]), -E[0])
    np.testing.assert_allclose(bracket(L, E[1], E[2]), E[2])
    np.testing.assert_allclose(bracket(L, E[0], E[2]), np.zeros(3))
    assert not is_unimodular(L)


def test_from_functional_matches_milnor():
    La = from_functional(LinearFunctional(np.array([1.0, 0.0, 0.0])))
    Lb = from_milnor((1, 0, 0, 1))
    np.testing.assert_array_equal(La.c, Lb.c)


def test_functional_rejects_zero():
    with pytest.raises(ValueError):
        LinearFunctional(np.zeros(3))


@pytest.mark.parametrize("m", [2.0**1022, 1.2e308, -1.6e308, np.finfo(float).max])
def test_coefficients_of_2_to_the_1022_and_more_are_rejected(m):
    # from 2^1022 on, a sum of two structure constants can overflow
    below = math.nextafter(2.0**1022, 0.0)
    with pytest.raises(ValueError, match=r"below 2\*\*1022"):
        MilnorParameters(m, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match=r"below 2\*\*1022"):
        LinearFunctional(np.array([0.0, m, 1.0]))
    assert MilnorParameters(below, 0.0, 0.0, 1.0).scale == below
    assert LinearFunctional(np.array([0.0, -below, 1.0])).norm == below
    # the atlas pass reads the same gate
    zero = np.zeros(2)
    assert _milnor_gates(np.array([m, below]), zero, zero, zero + 1.0)[1].tolist() == [False, True]


@pytest.mark.parametrize("l1", [1e200, 1e-200, 5e-324, -1e300])
def test_functional_norm_and_dual_beyond_the_float_range_of_its_square(l1):
    # |l|^2 over- or underflows here; a nonzero l is not "l = 0"
    l = LinearFunctional(np.array([l1, 0.0, 0.0]))
    assert l.norm == abs(l1)
    assert np.array_equal(l.dual, [math.copysign(1.0, l1), 0.0, 0.0])


@pytest.mark.parametrize("s", [1e300, 1e-320])
def test_functional_dual_is_invariant_under_scaling_l(s):
    # off the axes, dividing by a subnormal |l| would keep only a few bits of the dual
    for v in ((1.0, 1.0, 0.0), (1.0, -0.5, 0.25)):
        want = LinearFunctional(np.array(v)).dual
        np.testing.assert_allclose(LinearFunctional(s * np.array(v)).dual, want, rtol=2 * np.finfo(float).eps, atol=0)


@pytest.mark.parametrize("v", [(0.3, -1.2, 2.5), (1e-140, 2e-141, 0.0), (4e140, 0.0, -3e139)])
def test_functional_norm_is_numpys_in_the_normal_range(v):
    l = LinearFunctional(np.array(v))
    assert l.norm == float(np.linalg.norm(v))
    assert np.array_equal(l.dual, np.array(v) / np.linalg.norm(v))


@pytest.mark.parametrize("s", [1.0, 1e152, 1e-152])
def test_dual_is_numpys_quotient_wherever_that_is_finite(s):
    # 1e+-152 take the power-of-two scaling, where |l|^2 is still in range
    for v in np.random.default_rng(37).standard_normal((50, 3)) * s:
        assert LinearFunctional(v).dual.tobytes() == (v / np.linalg.norm(v)).tobytes()


@settings(max_examples=200, deadline=None)
@given(pqr)
def test_milnor_jacobi_and_invariants(pqr_values):
    p, q, r = pqr_values
    params = MilnorParameters.from_pqr(p, q, r)
    L = from_milnor(params)
    assert jacobi_residual(L) <= 1e-12 * max(1.0, L.scale)
    assert not is_unimodular(L)
    # reconstruction round-trip
    assert params.alpha == pytest.approx(params.r + params.p)
    assert params.delta == pytest.approx(params.r - params.p)
    assert params.beta == pytest.approx((params.r + params.p) * params.q, abs=1e-12)
    assert params.gamma == pytest.approx(-(params.r - params.p) * params.q, abs=1e-12)
    # D agrees between the closed form and the basis-free computation
    assert invariant_D(L) == pytest.approx(milnor_invariant_D(params), abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(pqr, st.tuples(*[st.floats(-2, 2)] * 6))
def test_bracket_bilinear_antisymmetric(pqr_values, coords):
    params = MilnorParameters.from_pqr(*pqr_values)
    L = from_milnor(params)
    x = np.array(coords[:3])
    y = np.array(coords[3:])
    np.testing.assert_allclose(bracket(L, x, y), -bracket(L, y, x), atol=1e-12)
    np.testing.assert_allclose(
        bracket(L, 2.0 * x + y, y), 2.0 * bracket(L, x, y), atol=1e-10
    )
