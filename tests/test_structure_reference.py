"""The isomorphism search and the report predicates against their loop forms.

The references below are the 720-seed grid search with its shrinking
three-point refinement, and the basis-pair loops for d_eta, Phi,
eta ^ d_eta and the Nijenhuis tensor, which the exact angle solve and the
single contractions replaced.  They are kept here as independent oracles:
``is_isomorphic`` must decide None / not None as the grid does on every
pair, every map it returns must intertwine the brackets, the predicate
flags must be equal, and the predicate values must agree to
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
    classify,
    classify_representatives,
    construct_case1,
    construct_case6,
    from_functional,
    from_milnor,
    is_contact_form,
    is_contact_metric,
    is_isomorphic,
    nijenhuis_normality_residual,
    structure_from_basis,
    xi_in_ker_deta,
)
from contact3.classification import _normal_form_constants
from contact3.contact_structures import eta_wedge_deta
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
    scale = max(1.0, float(np.abs(c1).max()), float(np.abs(c2).max()))
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
    return all(abs(_reference_d_eta(L, s, s.xi, eye[i])) <= tol for i in range(3))


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
    assert is_contact_form(L, s) == (abs(_reference_eta_wedge_deta(L, s)) > TOL)
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
