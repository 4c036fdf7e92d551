"""The isomorphism search, the report predicates and the frame code against their loop forms.

The references below are the 720-seed grid search with its shrinking
three-point refinement; the basis-pair loops for d_eta, Phi,
eta ^ d_eta and the Nijenhuis tensor; the bracket loops for the geodesic
defect, the three-term Koszul connection and the coefficients of
``_reduce_outside``; the Gram-Schmidt frame with its sign flip that
``build_structure`` used; and the ker-eta basis form of
``check_ker_condition``.  The exact angle solve, the single contractions
and the one adapted frame replaced them.  They are kept here as
independent oracles: ``is_isomorphic`` must decide None / not None as the
grid does on every pair, every map it returns must intertwine the
brackets, flags must be equal, and values must agree to
1e-14 max(1, scale).
"""

import itertools
import math

import numpy as np
import pytest

from contact3 import (
    LieAlgebra3,
    LinearFunctional,
    Metric3,
    MilnorParameters,
    bracket,
    build_structure,
    check_ker_condition,
    classify,
    classify_representatives,
    construct_case1,
    construct_case6,
    enumerate_unit_geodesics,
    from_functional,
    from_milnor,
    geodesic_brute_force,
    geodesic_defect,
    is_contact_form,
    is_contact_metric,
    is_geodesic_vector,
    is_isomorphic,
    levi_civita,
    nijenhuis_normality_residual,
    structure_from_basis,
    xi_in_ker_deta,
)
from contact3.classification import _canonical_sign, _normal_form_constants, _reduce_outside
from contact3.contact_structures import KerConditionViolation, compatibility_residual, eta_wedge_deta
from contact3.verify import CASE_TAGS, _geodesic_xi, _unit, sample_functional, sample_params

I3 = Metric3.identity()
TOL = 1e-9


# -- reference isomorphism search ------------------------------------------


def _frame(rho, conj):
    F = np.eye(3)
    cr, sr = math.cos(rho), math.sin(rho)
    sig = -1.0 if conj else 1.0
    F[1:, 1] = (cr, sr)
    F[1:, 2] = (-sr * sig, cr * sig)
    return F


def _reference_map_residual(c1, c2, rho, conj):
    F = _frame(rho, conj)
    lhs = np.einsum("abk,mk->abm", c1, F)  # f([x, y]_1)
    rhs = np.einsum("ia,jb,ijm->abm", F, F, c2)  # [f x, f y]_2
    return float(np.abs(lhs - rhs).max())


def _reference_basis_constants(ps):
    B = ps.basis.matrix
    c = np.zeros((3, 3, 3))
    for a in range(3):
        for b in range(3):
            c[a, b] = B.T @ bracket(ps.algebra, B[:, a], B[:, b])
    return c


def _reference_is_isomorphic(s1, s2, tol=TOL):
    D1, D2 = s1.invariant_D(), s2.invariant_D()
    if abs(D1 - D2) > 1e-6 * max(1.0, abs(D1), abs(D2)):
        return None
    c1 = _reference_basis_constants(s1)
    c2 = _reference_basis_constants(s2)
    scale = max(float(np.abs(c1).max()), float(np.abs(c2).max()))
    best = (math.inf, 0.0, False)
    for conj in (False, True):
        for rho in np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False):
            res = _reference_map_residual(c1, c2, rho, conj)
            if res < best[0]:
                best = (res, rho, conj)
    res, rho, conj = best
    h = 2.0 * math.pi / 720
    while h > 1e-12:
        moved = False
        for cand in (rho - h, rho + h):
            r2 = _reference_map_residual(c1, c2, cand, conj)
            if r2 < res:
                res, rho, moved = r2, cand, True
        if not moved:
            h *= 0.5
    if res > tol * scale:
        return None
    return s2.basis.matrix @ _frame(rho, conj) @ s1.basis.matrix.T


# -- reference predicates ---------------------------------------------------


def _reference_d_eta(L, s, X, Y):
    return float(-s.eta @ bracket(L, X, Y))


def _reference_xi_in_ker_deta(L, s, tol=TOL):
    eye = np.eye(3)
    return all(abs(_reference_d_eta(L, s, s.xi, eye[i])) <= tol * L.scale for i in range(3))


def _reference_is_contact_metric(L, s, g, tol=TOL):
    eye = np.eye(3)
    return all(
        abs(_reference_d_eta(L, s, eye[i], eye[j]) - float(eye[i] @ g.g @ s.phi @ eye[j])) <= tol
        for i, j in itertools.combinations(range(3), 2)
    )


def _reference_eta_wedge_deta(L, s):
    eye = np.eye(3)
    total = 0.0
    for i, j, k, sign in ((0, 1, 2, 1.0), (1, 0, 2, -1.0), (2, 0, 1, 1.0)):
        total += sign * float(s.eta @ eye[i]) * _reference_d_eta(L, s, eye[j], eye[k])
    return total


def _reference_nijenhuis(L, s):
    phi, xi = s.phi, s.xi
    eye = np.eye(3)

    def N(X, Y):
        t = phi @ phi @ bracket(L, X, Y)
        t = t + bracket(L, phi @ X, phi @ Y)
        t = t - phi @ bracket(L, phi @ X, Y)
        t = t - phi @ bracket(L, X, phi @ Y)
        return t + 2.0 * _reference_d_eta(L, s, X, Y) * xi

    return max(float(np.abs(N(eye[i], eye[j])).max()) for i, j in itertools.combinations(range(3), 2))


# -- corpus -----------------------------------------------------------------


def _sources(seed, per_tag):
    rng = np.random.default_rng(seed)
    for tag in CASE_TAGS:
        for _ in range(per_tag):
            yield tag, rng, (sample_functional(rng) if tag == "E" else sample_params(rng, tag))


def _pairs():
    pairs = []
    for tag, rng, src in _sources(17, 2):
        xi = src.dual if tag == "E" else _geodesic_xi(rng, src)
        plus, minus = classify(src, xi), classify(src, -xi)
        pairs.append((f"pm-xi-{tag}", plus.structure, minus.structure))
        reps = classify_representatives(src)
        pairs.extend((f"self-{tag}", r.structure, r.structure) for r in reps)
        pairs.extend((f"cross-{tag}", a.structure, b.structure) for a, b in itertools.combinations(reps, 2))
        if tag != "E":
            mirror = classify_representatives(MilnorParameters.from_pqr(-src.p, -src.q, src.r))
            pairs.extend((f"mirror-{tag}", a.structure, b.structure) for a, b in zip(reps, mirror))
    pairs.append(("rotation", construct_case1((1, 0, 0, 1)), construct_case6(np.array([1.0, 0, 0]), np.eye(3)[0])))
    return pairs


PAIRS = _pairs()


def _intertwining_residual(F, L1, L2):
    lhs = np.einsum("ijk,mk->ijm", L1.c, F)  # F [e_i, e_j]_1
    rhs = np.einsum("ai,bj,abm->ijm", F, F, L2.c)  # [F e_i, F e_j]_2
    return float(np.abs(lhs - rhs).max())


@pytest.mark.parametrize("name, s1, s2", PAIRS, ids=[p[0] for p in PAIRS])
def test_isomorphic_matches_grid_reference(name, s1, s2):
    got = is_isomorphic(s1, s2)
    assert (got is None) == (_reference_is_isomorphic(s1, s2) is None)
    if got is not None:
        np.testing.assert_allclose(got.T @ got, np.eye(3), rtol=0, atol=1e-12)
        scale = max(1.0, s1.algebra.scale, s2.algebra.scale)
        assert _intertwining_residual(got, s1.algebra, s2.algebra) <= TOL * scale


def test_corpus_has_both_outcomes_and_conjugate_maps():
    found = {name: is_isomorphic(s1, s2) is not None for name, s1, s2 in PAIRS}
    assert any(found.values()) and not all(found.values())
    # the mirror swaps e2 and e3, so it reverses the adapted frame
    mirror_maps = [is_isomorphic(s1, s2) for name, s1, s2 in PAIRS if name.startswith("mirror")]
    assert any(m is not None and np.linalg.det(m) < 0 for m in mirror_maps)
    assert found["rotation"]


@pytest.mark.parametrize("name, s1, s2", PAIRS[::3], ids=[p[0] for p in PAIRS[::3]])
def test_basis_constants_match_bracket_loop(name, s1, s2):
    for s in (s1, s2):
        scale = max(1.0, s.algebra.scale)
        np.testing.assert_allclose(
            s.raw_basis_constants(), _reference_basis_constants(s), rtol=0, atol=1e-15 * scale
        )


def _structures():
    """(algebra, structure) pairs: reports, random non-geodesic xi, and family B normal forms."""
    out = []
    for tag, rng, src in _sources(23, 2):
        for rep in classify_representatives(src):
            out.append((f"report-{tag}", rep.structure.algebra, rep.structure.structure()))
        if tag != "E":
            L = from_milnor(src)
            for orientation in (+1, -1):
                out.append((f"random-{tag}", L, build_structure(I3, _unit(rng), orientation)))
    # a rescaled algebra keeps the flags where the tolerance allows
    big = MilnorParameters(*(1e3 * np.array([3.0, 3.0, 1.0, -1.0])))
    out.append(("scaled", from_milnor(big), construct_case1(big).structure()))
    # family B normal forms: contact metric exactly when B = 1
    for A, B, C in ((2.0, 1.0, -0.7), (1.5, 1.0, 0.3), (1.5, math.sqrt(3.0), 0.3), (0.5, -1.0, 2.0)):
        L = LieAlgebra3(_normal_form_constants("B", (A, B, C)))
        out.append(("family-B", L, structure_from_basis(I3, *np.eye(3))))
    return out


STRUCTURES = _structures()


@pytest.mark.parametrize("name, L, s", STRUCTURES, ids=[x[0] for x in STRUCTURES])
def test_predicates_match_loop_reference(name, L, s):
    assert xi_in_ker_deta(L, s) == _reference_xi_in_ker_deta(L, s)
    assert is_contact_metric(L, s, I3) == _reference_is_contact_metric(L, s, I3)
    assert is_contact_form(L, s) == (abs(_reference_eta_wedge_deta(L, s)) > TOL * L.scale)
    atol = 1e-14 * max(1.0, L.scale)
    assert eta_wedge_deta(L, s) == pytest.approx(_reference_eta_wedge_deta(L, s), rel=0, abs=atol)
    assert nijenhuis_normality_residual(L, s) == pytest.approx(_reference_nijenhuis(L, s), rel=0, abs=atol)


def test_predicate_corpus_has_both_outcomes():
    for predicate in (
        lambda L, s: xi_in_ker_deta(L, s),
        lambda L, s: is_contact_form(L, s),
        lambda L, s: is_contact_metric(L, s, I3),
        lambda L, s: nijenhuis_normality_residual(L, s) <= TOL,
    ):
        flags = {predicate(L, s) for _, L, s in STRUCTURES}
        assert flags == {True, False}


def test_ker_deta_routes_agree_on_a_scaled_algebra():
    # at scale 1.6e7 the two routes' rounding (about 3e-10) straddles the
    # absolute tolerance 1e-9: the cross-check must compare values, not flags
    l = LinearFunctional(np.array([6185555.6810390605, -16354106.611202464, -1556153.6386703714]))
    s = construct_case6(l, l.dual).structure()
    L = from_functional(l)
    assert xi_in_ker_deta(L, s) == _reference_xi_in_ker_deta(L, s)
    assert classify(l, -l.dual).family == "A"


# -- reference geometry and frames ----------------------------------------


def _reference_geodesic_defect(L, g, x):
    return max(abs(bracket(L, x, np.eye(3)[i]) @ g.g @ x) for i in range(3))


def _reference_levi_civita(L, g, x, y):
    # 2 g(nabla_x y, e_k) = g([x,y], e_k) - g([y,e_k], x) + g([e_k,x], y)
    gm = g.g
    bxy = bracket(L, x, y)
    rhs = np.empty(3)
    for k in range(3):
        ek = np.eye(3)[k]
        rhs[k] = bxy @ gm @ ek - bracket(L, y, ek) @ gm @ x + bracket(L, ek, x) @ gm @ y
    return 0.5 * np.linalg.solve(gm, rhs)


def _reference_complement_basis(g, xi):
    # Gram-Schmidt on the two axes least aligned with xi, then a sign flip
    # so that det[xi, u, v] > 0
    order = np.argsort(np.abs(xi), kind="stable")
    u = np.eye(3)[order[0]]
    u = u - g.inner(xi, u) * xi
    u = u / g.norm(u)
    v = np.eye(3)[order[1]]
    v = v - g.inner(xi, v) * xi - g.inner(u, v) * u
    v = v / g.norm(v)
    if np.linalg.det(np.column_stack([xi, u, v])) < 0.0:
        v = -v
    return u, v


def _reference_phi(g, xi, orientation):
    u, v = _reference_complement_basis(g, xi)
    return orientation * (np.outer(v, g.g @ u) - np.outer(u, g.g @ v))


def _reference_check_ker_condition(L, s, tol=TOL):
    if not _reference_xi_in_ker_deta(L, s, tol):
        raise KerConditionViolation("precondition failed")
    order = np.argsort(np.abs(s.xi), kind="stable")
    e = np.eye(3)[order[0]] - float(s.eta @ np.eye(3)[order[0]]) * s.xi
    e = e / np.linalg.norm(e)
    return all(abs(float(s.eta @ bracket(L, s.xi, X))) <= tol * L.scale for X in (e, s.phi @ e))


def _reference_reduce_outside(L, xi):
    """(coefficients, frame matrix) of the bracket-loop reduction."""
    order = np.argsort(np.abs(xi), kind="stable")
    u = np.eye(3)[order[0]] - (xi @ np.eye(3)[order[0]]) * xi
    u = u / np.linalg.norm(u)
    v = np.cross(xi, u)
    M = np.array([[w @ bracket(L, xi, z) for z in (u, v)] for w in (u, v)])
    if np.abs(M).max() <= 1e-12 * L.scale:
        rho = 0.0
    else:
        _, _, Vt = np.linalg.svd(M)
        k1, k2 = Vt[-1]
        rho = math.atan2(-k1, k2) % math.pi
    e = math.cos(rho) * u + math.sin(rho) * v
    fe = -math.sin(rho) * u + math.cos(rho) * v
    coeffs = (
        e @ bracket(L, xi, e),
        fe @ bracket(L, xi, e),
        e @ bracket(L, e, fe),
        fe @ bracket(L, e, fe),
        xi @ bracket(L, e, fe),
    )
    return np.array(coeffs), np.column_stack([xi, e, fe])


def _random_metric(rng):
    # random orthonormal eigenbasis, eigenvalues in [0.5, 2]: never diagonal
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    g = Q @ np.diag(rng.uniform(0.5, 2.0, 3)) @ Q.T
    return Metric3(0.5 * (g + g.T))


def _geometry_cases():
    """(tag, algebra, enumeration) of seeded algebras, two per tag."""
    out = []
    for tag, _, src in _sources(29, 2):
        if tag == "E":
            out.append((tag, from_functional(src), enumerate_unit_geodesics(functional=src)))
        else:
            out.append((tag, from_milnor(src), enumerate_unit_geodesics(src)))
    return out


GEOMETRY = _geometry_cases()


def _probes(enum, rng, n=24):
    """Enumerated geodesic vectors followed by random unit vectors."""
    pts = [np.array(p) for p in enum.discrete]
    for fam in enum.families:
        ts = fam.angles if fam.angles is not None else rng.uniform(0.0, 2.0 * math.pi, 4)
        pts.extend(fam.point(t) for t in ts)
    pts.extend(_unit(rng) for _ in range(n))
    return np.array(pts)


@pytest.mark.parametrize("tag, L, enum", GEOMETRY, ids=[c[0] for c in GEOMETRY])
def test_geodesic_defect_matches_bracket_loop(tag, L, enum):
    rng = np.random.default_rng(31)
    X = _probes(enum, rng)
    atol = 1e-14 * max(1.0, L.scale)
    for g in (I3, _random_metric(rng)):
        batch = geodesic_defect(L, g, X)
        assert batch.shape == (len(X),)
        rows = [geodesic_defect(L, g, x) for x in X]
        assert all(type(d) is float for d in rows)
        np.testing.assert_array_equal(batch, rows)
        ref = [_reference_geodesic_defect(L, g, x) for x in X]
        np.testing.assert_allclose(batch, ref, rtol=0, atol=atol)
        for x, d in zip(X, ref):
            assert is_geodesic_vector(L, g, x) == (d <= TOL * L.scale * g.inner(x, x))
    # the enumerated vectors are geodesic, the random ones (almost surely) not
    flags = [is_geodesic_vector(L, I3, x) for x in X]
    assert all(flags[: len(X) - 24]) and not all(flags)


@pytest.mark.parametrize("tag, L, enum", GEOMETRY, ids=[c[0] for c in GEOMETRY])
def test_levi_civita_matches_koszul_loop(tag, L, enum):
    rng = np.random.default_rng(37)
    atol = 1e-14 * max(1.0, L.scale)
    for g in (I3, _random_metric(rng), _random_metric(rng)):
        for _ in range(8):
            x, y = _unit(rng), _unit(rng)
            np.testing.assert_allclose(
                levi_civita(L, g, x, y), _reference_levi_civita(L, g, x, y), rtol=0, atol=atol
            )


@pytest.mark.parametrize("seed", range(6))
def test_build_structure_matches_gram_schmidt_frame(seed):
    rng = np.random.default_rng([41, seed])
    for g in (I3, _random_metric(rng)):
        for _ in range(8):
            xi = _unit(rng)
            xi = xi / g.norm(xi)
            for orientation in (+1, -1):
                s = build_structure(g, xi, orientation)
                np.testing.assert_allclose(s.phi, _reference_phi(g, xi, orientation), rtol=0, atol=1e-14)
                assert compatibility_residual(s, g) <= 1e-12
                np.testing.assert_allclose(s.eta, g.g @ xi, rtol=0, atol=0)


@pytest.mark.parametrize("tag, L, enum", GEOMETRY, ids=[c[0] for c in GEOMETRY])
def test_check_ker_condition_matches_ker_eta_basis(tag, L, enum):
    rng = np.random.default_rng(43)
    # unit vectors for the identity metric, then geodesic vectors of a
    # random metric, where eta = g xi differs from xi
    g = _random_metric(rng)
    cases = [(I3, xi) for xi in _probes(enum, rng, n=8)]
    cases.extend((g, x / g.norm(x)) for x in geodesic_brute_force(L, g, grid=100)[:4])
    raised = set()
    for g, xi in cases:
        for orientation in (+1, -1):
            s = build_structure(g, xi, orientation)
            try:
                want = _reference_check_ker_condition(L, s)
            except KerConditionViolation:
                with pytest.raises(KerConditionViolation):
                    check_ker_condition(L, s)
                raised.add(True)
                continue
            assert check_ker_condition(L, s) == want
            raised.add(False)
    assert raised == {True, False}


@pytest.mark.parametrize("tag, L, enum", [c for c in GEOMETRY if c[0] in ("B1", "C1")])
def test_reduce_outside_matches_bracket_loop(tag, L, enum):
    fam = next(f for f in enum.families if f.angles is None)
    atol = 1e-14 * max(1.0, L.scale)
    for t in np.linspace(0.1, math.pi - 0.1, 9):
        xi = _canonical_sign(fam.point(t))
        ps = _reduce_outside(L, xi)
        coeffs, frame = _reference_reduce_outside(L, xi)
        np.testing.assert_allclose(ps.params, coeffs, rtol=0, atol=atol)
        np.testing.assert_allclose(ps.basis.matrix, frame, rtol=0, atol=1e-14)
