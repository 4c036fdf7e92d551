import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contact3 import (
    CircleFamily,
    LieAlgebra3,
    LinearFunctional,
    Metric3,
    MilnorParameters,
    classify_representatives,
    enumerate_unit_geodesics,
    from_functional,
    from_milnor,
    geodesic_brute_force,
    geodesic_defect,
    inplane_geodesic_angles,
    is_geodesic_vector,
    levi_civita,
    sectional_curvature,
)
from contact3.lie_core import E1, E2, E3, bracket
from contact3.metric_geometry import _REGIMES, _regime, _regimes, oracle_match

E = np.eye(3)
I3 = Metric3.identity()

nonzero = st.floats(0.3, 3.0).flatmap(lambda v: st.sampled_from([v, -v]))
pqr = st.tuples(st.floats(-3, 3), st.floats(-3, 3), nonzero)


def test_metric_validation():
    with pytest.raises(ValueError, match="positive definite"):
        Metric3(np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError, match="symmetric"):
        Metric3(np.array([[1.0, 0.5, 0], [0, 1, 0], [0, 0, 1]]))


def test_levi_civita_abelian_vanishes():
    L = LieAlgebra3(np.zeros((3, 3, 3)))
    x = np.array([1.0, 2.0, -0.5])
    np.testing.assert_allclose(levi_civita(L, I3, x, x), np.zeros(3))


def test_levi_civita_value():
    # nabla_{e2} e2 = +e1 for the alpha = delta = 1 algebra: evaluating the
    # defining formula, 2 g(nabla, e1) = -g([e2,e1],e2) + g([e1,e2],e2) = 2
    L = from_milnor((1, 0, 0, 1))
    np.testing.assert_allclose(levi_civita(L, I3, E[1], E[1]), E[0], atol=1e-14)


@settings(max_examples=100, deadline=None)
@given(pqr, st.tuples(*[st.floats(-2, 2)] * 6))
def test_connection_torsion_free_and_metric(pqr_values, coords):
    L = from_milnor(MilnorParameters.from_pqr(*pqr_values))
    x = np.array(coords[:3])
    y = np.array(coords[3:])
    scale = max(1.0, L.scale) * max(1.0, np.abs(x).max()) * max(1.0, np.abs(y).max())
    torsion = levi_civita(L, I3, x, y) - levi_civita(L, I3, y, x) - bracket(L, x, y)
    np.testing.assert_allclose(torsion, np.zeros(3), atol=1e-12 * scale)
    for k in range(3):
        compat = levi_civita(L, I3, x, y) @ E[k] + y @ levi_civita(L, I3, x, E[k])
        expect = 0.0  # g(y, e_k) is constant on left-invariant fields
        assert compat - expect == pytest.approx(0.0, abs=1e-12 * scale)


def test_geodesic_predicate_examples():
    L = from_milnor((3, 0, 0, -1))
    assert is_geodesic_vector(L, I3, E[0])
    assert not is_geodesic_vector(L, I3, E[1])
    with pytest.raises(ValueError):
        is_geodesic_vector(L, I3, np.zeros(3))


@pytest.mark.parametrize("s", [1e-300, 1e-170, 1e155, 1e300, 5e-324])
@pytest.mark.parametrize("g", [I3, Metric3(np.diag([1.0, 2.0, 5.0]))], ids=["identity", "diagonal"])
def test_geodesic_predicate_at_extreme_lengths(s, g):
    # both sides of the test are of degree 2 in x: at any length x decides
    # as the unit vector does, where |x|^2 over- or underflows too
    L = from_milnor((3, 0, 0, -1))
    assert is_geodesic_vector(L, g, s * E[0])
    assert not is_geodesic_vector(L, g, s * np.array([1.0, 1.0, 0.0]))
    assert not is_geodesic_vector(L, g, s * E[1])


def test_geodesic_predicate_matches_connection():
    rng = np.random.default_rng(7)
    for _ in range(300):
        L = from_milnor(
            MilnorParameters.from_pqr(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.5, 2))
        )
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        via_defect = is_geodesic_vector(L, I3, x)
        via_nabla = np.linalg.norm(levi_civita(L, I3, x, x)) <= 1e-9
        assert via_defect == via_nabla


def test_inplane_angles_reference_roots():
    roots = inplane_geodesic_angles((3, 0, 0, -1))
    assert roots == pytest.approx([math.pi / 3, 2 * math.pi / 3], abs=1e-12)


def test_inplane_angles_negative_discriminant_empty():
    assert inplane_geodesic_angles((1, -2, 2, 1)) == []


def test_inplane_angles_degenerate_quadratic():
    # delta = 0 keeps the cos t = 0 root that the tan substitution loses
    roots = inplane_geodesic_angles((2, 2, 0, 0))
    assert roots == pytest.approx([math.pi / 2, 3 * math.pi / 4], abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(pqr)
def test_inplane_angles_satisfy_equation(pqr_values):
    params = MilnorParameters.from_pqr(*pqr_values)
    a, b, g, d = params.alpha, params.beta, params.gamma, params.delta
    for t in inplane_geodesic_angles(params):
        res = a * math.cos(t) ** 2 + (b + g) * math.sin(t) * math.cos(t) + d * math.sin(t) ** 2
        assert abs(res) <= 1e-12 * params.scale
        assert 0.0 <= t < math.pi


CASES = [
    ((1, 0, 0, 3), "A1", 2, 0),
    ((3, 0, 0, -1), "A2", 2, 1),
    ((3, 3, 1, -1), "A2", 2, 1),
    ((2, 2, 0, 0), "B1", 2, 1),
    ((2, 0, 0, 0), "B2", 0, 1),
    ((0, 0, -2, 2), "C1", 2, 1),
    ((0, 0, 0, 2), "C2", 0, 1),
    ((1, 0, 0, 1), "D", 2, 0),
    ((1.5, 1.5, -1.5, 1.5), "D", 2, 0),
]


@pytest.mark.parametrize("params,tag,n_discrete,n_families", CASES)
def test_enumeration_dispatch(params, tag, n_discrete, n_families):
    enum = enumerate_unit_geodesics(params)
    assert enum.case_tag == tag
    assert len(enum.discrete) == n_discrete
    assert len(enum.families) == n_families


def test_shared_arrays_are_read_only():
    # the basis vectors, a kept enumeration and a frame are shared between callers
    arrays = [E1, E2, E3]
    for params, *_ in CASES:
        src = MilnorParameters(*params)
        enum = enumerate_unit_geodesics(src)
        assert enumerate_unit_geodesics(src) is enum
        arrays += [*enum.discrete, *(a for fam in enum.families for a in (fam.u, fam.v, fam.normal))]
    l = LinearFunctional(np.array([0.0, 2.0, 0.0]))
    arrays += [*enumerate_unit_geodesics(functional=l).discrete, classify_representatives(l)[0].structure.basis.matrix]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]


def _tag(params):
    """``_regime``, checked against ``_regimes`` over an array holding the same algebra twice."""
    tag = _regime(params)
    codes = _regimes(*(np.full(2, v) for v in (params.p, params.q, params.r, params.scale)))
    assert [_REGIMES[k] for k in codes] == [tag, tag]
    return tag


def test_regime_tie_goes_to_p_zero():
    # |p| and |p - r| are both within 1e-12 * scale = 1.5 of zero
    params = MilnorParameters.from_pqr(0.5, 1e12, 1.0)
    assert _tag(params) == "D"
    assert enumerate_unit_geodesics(params).case_tag == "D"


@pytest.mark.parametrize("r", [1e-6, 1.0, 1e6])
def test_regime_q_is_dimensionless(r):
    # p = +-r is decided relative to the scale, q = 0 at a bare 1e-12
    for sign, line in ((1.0, "B"), (-1.0, "C")):
        assert _tag(MilnorParameters.from_pqr(sign * r, 5e-13, r)) == line + "2"
        assert _tag(MilnorParameters.from_pqr(sign * r, 2e-12, r)) == line + "1"
        assert _tag(MilnorParameters.from_pqr(sign * r * (1 + 1e-13), 0.7, r)) == line + "1"
        assert _tag(MilnorParameters.from_pqr(sign * r * (1 + 1e-10), 0.7, r)) == "generic"
    assert _tag(MilnorParameters.from_pqr(1e-13 * r, 0.7, r)) == "D"
    assert _tag(MilnorParameters.from_pqr(1e-10 * r, 0.7, r)) == "generic"


def test_regime_near_line_is_generic():
    # 3e-10 from p = -r is far outside the 1e-12 * scale band
    assert enumerate_unit_geodesics(MilnorParameters.from_pqr(-(1 + 3e-10), 1.9, 1.0)).case_tag == "A2"


def test_enumeration_vectors_are_geodesic():
    # every listed vector must satisfy the predicate, including along circles
    for params, _, _, _ in CASES:
        enum = enumerate_unit_geodesics(params)
        L = from_milnor(params)
        for v in enum.discrete:
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
            assert is_geodesic_vector(L, I3, v)
        for fam in enum.families:
            ts = fam.angles if fam.angles is not None else np.linspace(0, 2 * math.pi, 37)
            for t in ts:
                assert is_geodesic_vector(L, I3, fam.point(t))


def test_enumeration_a2_circle_points():
    enum = enumerate_unit_geodesics((3, 0, 0, -1))
    fam = enum.families[0]
    assert fam.angles is not None
    # tan(t) = +-sqrt(3) at the two admissible angles
    assert sorted(abs(math.tan(t)) for t in fam.angles) == pytest.approx([math.sqrt(3)] * 2)
    assert len(enum.isolated_points()) == 6


def test_enumeration_b1_true_solution_set():
    # the full circle through e1 and (q e2 - e3)/s is geodesic, plus +-e3;
    # e2 is not (its defect equals alpha)
    enum = enumerate_unit_geodesics((2, 2, 0, 0))
    L = from_milnor((2, 2, 0, 0))
    np.testing.assert_allclose(np.abs(enum.discrete[0]), E[2])
    assert geodesic_defect(L, I3, E[1]) == pytest.approx(2.0)
    mixed = np.array([1.0, -1.0, 1.0]) / math.sqrt(3.0)
    assert enum.distance_to_set(mixed) <= 1e-12
    assert geodesic_defect(L, I3, mixed) <= 1e-12


def test_enumeration_functional():
    l = LinearFunctional(np.array([0.0, 2.0, 0.0]))
    enum = enumerate_unit_geodesics(functional=l)
    assert enum.case_tag == "E"
    np.testing.assert_allclose(enum.discrete[0], E[1])
    assert len(enum.isolated_points()) == 2


def test_enumeration_argument_validation():
    with pytest.raises(ValueError, match="exactly one"):
        enumerate_unit_geodesics((1, 0, 0, 1), np.array([1.0, 0, 0]))
    with pytest.raises(ValueError, match="exactly one"):
        enumerate_unit_geodesics()


def test_brute_force_grid_validation():
    with pytest.raises(ValueError, match="grid"):
        geodesic_brute_force(from_milnor((1, 0, 0, 1)), grid=50)


@pytest.mark.parametrize("grid", [0, -200, 50, 400.0, 400.5, True])
def test_oracle_match_rejects_the_grids_the_oracle_rejects(grid):
    enum = enumerate_unit_geodesics((3, 0, 0, -1))
    pts = geodesic_brute_force(from_milnor((3, 0, 0, -1)), grid=200)
    with pytest.raises(ValueError, match="grid must be at least 100"):
        geodesic_brute_force(from_milnor((3, 0, 0, -1)), grid=grid)
    with pytest.raises(ValueError, match="grid must be at least 100"):
        oracle_match(enum, pts, grid)


@pytest.mark.parametrize("grid", [4097, 10**8])
def test_grids_above_4096_are_rejected_before_any_table_is_built(grid, monkeypatch):
    import contact3.metric_geometry as mg

    def allocates(*args):
        raise AssertionError("an oracle table was built")

    L, enum = from_milnor((1.0, 0.0, 0.0, 1.0)), enumerate_unit_geodesics((1.0, 0.0, 0.0, 1.0))
    pts = geodesic_brute_force(L, grid=100)
    for name in ("_hemisphere_trig", "_block_table", "_defect_matrices", "_cell_keys"):
        monkeypatch.setattr(mg, name, allocates)
    with pytest.raises(ValueError, match="at most 4096"):
        geodesic_brute_force(L, grid=grid)
    with pytest.raises(ValueError, match="at most 4096"):
        oracle_match(enum, pts, grid)
    mg._check_grid(4096)


def test_oracle_match_takes_a_single_vector_as_one_point():
    enum = enumerate_unit_geodesics(functional=[1.0, 0.0, 0.0])
    one = oracle_match(enum, np.array([-1.0, 0.0, 0.0]), 200)
    assert one == oracle_match(enum, np.array([[-1.0, 0.0, 0.0]]), 200)
    assert one.n_isolated_oracle == 1


@pytest.mark.parametrize("points", [[], [1.0, 0.0], [[1.0, 0.0, math.nan]], np.zeros((0, 3)), np.zeros((2, 2, 3))])
def test_oracle_match_rejects_malformed_points(points):
    with pytest.raises(ValueError):
        oracle_match(enumerate_unit_geodesics(functional=[1.0, 0.0, 0.0]), points, 200)


def test_brute_force_abelian_whole_sphere():
    L = LieAlgebra3(np.zeros((3, 3, 3)))
    pts = geodesic_brute_force(L, grid=100)
    assert len(pts) >= 256
    for v in pts[:16]:
        assert geodesic_defect(L, I3, v) == 0.0


def test_brute_force_matches_enumeration():
    for params in [(3, 0, 0, -1), (2, 2, 0, 0), (1, 0, 0, 1)]:
        enum = enumerate_unit_geodesics(params)
        pts = geodesic_brute_force(from_milnor(params), grid=200)
        agr = oracle_match(enum, pts, 200)
        assert agr.agreement <= 1e-5
        assert agr.counts_match


def test_sectional_curvature_hyperbolic():
    L = from_functional(np.array([1.0, 0.0, 0.0]))
    rng = np.random.default_rng(3)
    for _ in range(50):
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        assert sectional_curvature(L, I3, x, y) == pytest.approx(-1.0, abs=1e-12)


def test_sectional_curvature_flat_abelian():
    L = LieAlgebra3(np.zeros((3, 3, 3)))
    assert sectional_curvature(L, I3, E[0], E[1]) == 0.0


def test_sectional_curvature_rejects_dependent():
    L = from_milnor((1, 0, 0, 1))
    with pytest.raises(ValueError, match="dependent"):
        sectional_curvature(L, I3, E[0], 2.0 * E[0])


def test_case_d_constant_curvature():
    # alpha = delta = r, beta = -gamma = r q: constant curvature -r^2
    params = MilnorParameters.from_pqr(0.0, 0.8, 1.3)
    L = from_milnor(params)
    rng = np.random.default_rng(11)
    Ks = [
        sectional_curvature(L, I3, rng.standard_normal(3), rng.standard_normal(3))
        for _ in range(100)
    ]
    assert np.std(Ks) <= 1e-9
    assert np.mean(Ks) == pytest.approx(-params.r**2, abs=1e-9)


def test_circle_normal_is_numpys_cross_product():
    rng = np.random.default_rng(31)
    for u, v in rng.normal(size=(200, 2, 3)) * 10.0 ** rng.uniform(-100, 100, size=(200, 2, 1)):
        assert np.array_equal(CircleFamily(u, v).normal, np.cross(u, v))
