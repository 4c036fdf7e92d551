"""Seeded invariant suite covering every module's contract.

Each group is a check ``check_x(rng) -> (sample, gates)``: it draws its
reproducible sample from ``rng``, at sizes fixed inside it, checks one
family of identities or predicates, and returns a short phrase naming the
sample ("1000 structures") with a list of ``(label, value, bound)`` gates.
A gate passes when value <= bound; a strict inequality is declared with
the next float as its bound.  One runner, registered under the group's
name by ``_group``, makes the rng from a seed (all a caller sets), passes
the group when every gate passes and formats its detail as
``<sample>; <label> <value>; ...``, floats as ``%.2e``.  The CLI
``verify`` subcommand runs the groups, and so does ``tests/test_verify.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .classification import (
    FAMILY_PARAM_NAMES,
    PhiBasisStructure,
    _normal_form_constants,
    _structure_flags,
    classify,
    classify_representatives,
    construct_case1,
    construct_case2,
    construct_case3,
    construct_case6,
    is_isomorphic,
    resolve_source,
)
from .contact_structures import (
    KerConditionViolation,
    PhiBasis,
    build_structure,
    check_ker_condition,
    compatibility_residual,
    d_eta,
    is_contact_form,
    is_contact_metric,
    lie_derivative_eta,
    nijenhuis_normality_residual,
    structure_from_basis,
    xi_in_ker_deta,
)
from .lie_core import (
    E1,
    E2,
    E3,
    LieAlgebra3,
    LinearFunctional,
    MilnorParameters,
    _trace_form,
    bracket,
    from_functional,
    from_milnor,
)
from .metric_geometry import (
    _I3,
    Metric3,
    enumerate_unit_geodesics,
    geodesic_brute_force,
    inplane_geodesic_angles,
    oracle_match,
    sectional_curvature,
)
from .tolerances import IDENTITY_RTOL, PREDICATE_TOL

CASE_TAGS = ("A1", "A2", "B1", "B2", "C1", "C2", "D", "E")


@dataclass(frozen=True)
class GroupResult:
    name: str
    passed: bool
    detail: str


# -- samplers -------------------------------------------------------------


def _unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _nonzero(rng: np.random.Generator, lo=0.3, hi=3.0) -> float:
    return float(rng.uniform(lo, hi) * rng.choice([-1.0, 1.0]))


def sample_params(rng: np.random.Generator, case: str | None = None) -> MilnorParameters:
    """Random admissible parameters, optionally forced into one case tag.

    Margins keep the sampled point away from case boundaries and keep the
    in-plane roots well separated, so closed forms and the sphere-scan
    oracle resolve the same solution set.
    """
    r = _nonzero(rng)
    if case is None:
        case = str(rng.choice([t for t in CASE_TAGS if t != "E"]))
    if case == "D":
        return MilnorParameters.from_pqr(0.0, float(rng.uniform(-2, 2)), r)
    if case in ("B1", "C1"):
        q = _nonzero(rng, 0.35, 2.5)
        p = r if case == "B1" else -r
        return MilnorParameters.from_pqr(p, q, r)
    if case in ("B2", "C2"):
        p = r if case == "B2" else -r
        return MilnorParameters.from_pqr(p, 0.0, r)
    # A1 needs |p| sqrt(1+q^2) < |r|, A2 the reverse; both with margin
    for _ in range(1000):
        q = float(rng.uniform(-2.0, 2.0))
        s = math.hypot(1.0, q)
        if case == "A1":
            p = float(rng.uniform(0.1, 0.9)) * abs(r) / s * float(rng.choice([-1, 1]))
            if abs(p) < 0.05 or abs(abs(p) - abs(r)) < 0.05:
                continue
            cand = MilnorParameters.from_pqr(p, q, r)
            if not inplane_geodesic_angles(cand):
                return cand
        else:
            p = float(rng.uniform(1.1, 2.5)) * abs(r) / s * float(rng.choice([-1, 1]))
            if abs(abs(p) - abs(r)) < 0.05:
                continue
            cand = MilnorParameters.from_pqr(p, q, r)
            roots = inplane_geodesic_angles(cand)
            if len(roots) == 2:
                gap = abs(roots[0] - roots[1])
                if 0.12 < gap < math.pi - 0.12:
                    return cand
    raise RuntimeError(f"could not sample case {case}")


def sample_functional(rng: np.random.Generator) -> LinearFunctional:
    return LinearFunctional(_unit(rng) * rng.uniform(0.3, 3.0))


def sample_algebra(rng: np.random.Generator):
    """Random non-unimodular algebra: adapted form or rank-one functional."""
    if rng.random() < 0.8:
        return from_milnor(sample_params(rng))
    return from_functional(sample_functional(rng))


def _random_metric(rng: np.random.Generator) -> Metric3:
    """A random metric: random orthonormal eigenbasis, eigenvalues in [0.5, 2]."""
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    g = Q @ np.diag(rng.uniform(0.5, 2.0, 3)) @ Q.T
    return Metric3(0.5 * (g + g.T))


def _tag_source(rng: np.random.Generator, i: int):
    """The i-th source of a cycle through every case tag (E: a rank-one functional)."""
    tag = CASE_TAGS[i % len(CASE_TAGS)]
    return sample_functional(rng) if tag == "E" else sample_params(rng, tag)


def _geodesic_xi(rng: np.random.Generator, params: MilnorParameters) -> np.ndarray:
    """A random unit geodesic vector of the adapted-form algebra."""
    enum = enumerate_unit_geodesics(params)
    choices = [np.array(v) for v in enum.discrete]
    for fam in enum.families:
        ts = fam.angles if fam.angles is not None else [float(rng.uniform(0, 2 * math.pi))]
        choices.extend(fam.point(t) for t in ts)
    return choices[int(rng.integers(len(choices)))]


# -- groups ---------------------------------------------------------------

GROUPS: dict[str, Callable[..., GroupResult]] = {}


def _group(name: str):
    """Register ``check(rng) -> (sample, gates)`` as the group ``name``, run from a seed; returns the check."""

    def deco(check):
        def run(seed: int = 42) -> GroupResult:
            sample, gates = check(np.random.default_rng(seed))
            values = [f"{label} {v:.2e}" if isinstance(v, float) else f"{label} {v}" for label, v, _ in gates]
            return GroupResult(name, all(value <= bound for _, value, bound in gates), "; ".join([sample, *values]))

        run.__doc__ = check.__doc__
        GROUPS[name] = run
        return check

    return deco


@_group("axioms")
def check_axioms(rng: np.random.Generator):
    """Structure axioms and metric compatibility for random (algebra, xi)."""
    n = 1000
    worst = 0.0
    for _ in range(n):
        s = build_structure(_I3, _unit(rng), orientation=int(rng.choice([-1, 1])))
        res = [
            abs(s.eta @ s.xi - 1.0),
            float(np.abs(s.phi @ s.xi).max()),
            float(np.abs(s.eta @ s.phi).max()),
            float(np.abs(s.phi @ s.phi + np.eye(3) - np.outer(s.xi, s.eta)).max()),
            compatibility_residual(s, _I3),
        ]
        worst = max(worst, max(res))
    return f"{n} structures", [("worst residual", worst, 1e-12)]


@_group("ker-deta-equivalence")
def check_ker_deta_equivalence(rng: np.random.Generator):
    """d_eta(xi, .) = 0 and L_xi eta = 0 agree as predicates, pair by pair."""
    n = 1000
    agree = 0
    for _ in range(n):
        L = sample_algebra(rng)
        s = build_structure(_I3, _unit(rng))
        eye = np.eye(3)
        via_deta = all(abs(d_eta(L, s, s.xi, eye[i])) <= PREDICATE_TOL * L.scale for i in range(3))
        via_lie = all(abs(lie_derivative_eta(L, s, eye[i])) <= PREDICATE_TOL * L.scale for i in range(3))
        agree += via_deta == via_lie
        xi_in_ker_deta(L, s)  # raises if its internal cross-check disagrees
    return f"{n} (algebra, xi) pairs", [("boolean disagreements", n - agree, 0)]


@_group("ker-bracket")
def check_ker_bracket(rng: np.random.Generator):
    """[xi, X] stays in ker eta for X in ker eta exactly when xi is in ker d_eta.

    Every other xi is geodesic (in ker d_eta), the rest random, and every
    other draw of each kind is under a random metric, where eta = g xi is
    not xi: its geodesic xi is the g-normal of the unimodular kernel,
    which holds the derived algebra, so g([xi, X], xi) = 0.  The
    reference brackets xi with the columns of phi, which span ker eta,
    through ``bracket``.  ``xi_in_ker_deta`` must agree with it, and
    ``check_ker_condition`` must accept xi where it holds and raise
    ``KerConditionViolation`` where it fails; both outcomes must occur.
    """
    n = 1000
    agree, outcomes = 0, set()
    for i in range(n):
        params = sample_params(rng)
        L = from_milnor(params)
        if i % 4 < 2:
            g = _I3
            xi = _geodesic_xi(rng, params) if i % 2 == 0 else _unit(rng)
        else:
            g = _random_metric(rng)
            xi = np.linalg.solve(g.g, _trace_form(L)) if i % 2 == 0 else _unit(rng)
            xi = xi / g.norm(xi)
        s = build_structure(g, xi)
        want = all(abs(s.eta @ bracket(L, s.xi, x)) <= PREDICATE_TOL * L.scale for x in s.phi.T)
        ok = xi_in_ker_deta(L, s) == want
        try:
            ok &= check_ker_condition(L, s) and want
        except KerConditionViolation:
            ok &= not want
        agree += ok
        outcomes.add(want)
    gates = [("disagreements with the bracket reference", n - agree, 0), ("outcomes never seen", 2 - len(outcomes), 0)]
    return f"{n} (algebra, xi) pairs", gates


@_group("geodesic-oracle")
def check_geodesic_oracle(rng: np.random.Generator):
    """Closed-form enumeration against the brute-force sphere scan."""
    n, grid = 200, 400
    h = 2.0 * math.pi / grid
    worst, worst_gap, mismatches, tags = 0.0, 0.0, 0, set()
    for i in range(n):
        _, L, enum = resolve_source(_tag_source(rng, i))
        pts = geodesic_brute_force(L, grid=grid)
        agr = oracle_match(enum, pts, grid)
        worst = max(worst, agr.agreement)
        worst_gap = max(worst_gap, agr.family_coverage_gap)
        mismatches += not agr.counts_match
        tags.add(enum.case_tag)
    gates = [("worst agreement", worst, 1e-5), ("worst family gap", worst_gap, 3.0 * h)]
    return f"{n} runs over {len(tags)} tags", [*gates, ("count mismatches", mismatches, 0)]


@_group("angle-roots")
def check_angle_roots(rng: np.random.Generator):
    """Every returned in-plane angle satisfies its equation to 1e-12 * scale."""
    n = 200
    worst = 0.0
    for _ in range(n):
        params = sample_params(rng)
        for t in inplane_geodesic_angles(params):
            ct, st, a, d = math.cos(t), math.sin(t), params.alpha, params.delta
            worst = max(worst, abs(a * ct * ct + (params.beta + params.gamma) * st * ct + d * st * st) / params.scale)
    fixed = inplane_geodesic_angles((3.0, 0.0, 0.0, -1.0))
    fixed_err = max(abs(fixed[0] - math.pi / 3.0), abs(fixed[1] - 2.0 * math.pi / 3.0)) if len(fixed) == 2 else math.inf
    gates = [("worst relative residual", worst, 1e-12), ("reference roots pi/3, 2pi/3 off by", fixed_err, 1e-12)]
    return f"{n} parameter sets", gates


@_group("trace-identity")
def check_trace_identity(rng: np.random.Generator):
    """A = alpha + delta at every admissible in-plane angle."""
    n = 100
    worst, produced = 0.0, 0
    while produced < n:
        params = sample_params(rng, "A2")
        for t in inplane_geodesic_angles(params):
            A = construct_case2(params, t).params[0]
            worst = max(worst, abs(A - (params.alpha + params.delta)) / params.scale)
            produced += 1
    return f"{produced} angles", [("worst |A-(alpha+delta)|", worst, 1e-12)]


@_group("normal-forms")
def check_normal_forms(rng: np.random.Generator):
    """Raw brackets in the adapted basis equal the stored normal form."""
    n = 60
    worst, branches = 0.0, set()
    for i in range(n):
        for rep in classify_representatives(_tag_source(rng, i)):
            ps = rep.structure
            worst = max(worst, ps.normal_form_residual() / ps.algebra.scale)
            if ps.source_construction is not None:
                branches.add(ps.source_construction)
    gates = [("worst relative residual", worst, 1e-12), ("branches off 1-6", len(branches ^ {1, 2, 3, 4, 5, 6}), 0)]
    return f"{n} sources, branches exercised {sorted(branches)}", gates


@_group("contact-criterion")
def check_contact_criterion(rng: np.random.Generator):
    """The report's contact flags against eta ^ d_eta and d_eta = Phi on the ambient structure.

    The contact flag must equal ``is_contact_form`` (|eta ^ d_eta| above
    PREDICATE_TOL times the algebra's scale); family C never is contact.
    """
    n = 150
    exceptions, n_contact, checked = 0, 0, 0
    for i in range(n):
        for rep in classify_representatives(_tag_source(rng, i)):
            checked += 1
            L, s = rep.structure.algebra, rep.structure.structure()
            exceptions += rep.contact_form != is_contact_form(L, s)
            exceptions += rep.contact_metric != is_contact_metric(L, s, _I3)
            if rep.family == "C" and rep.contact_form:
                exceptions += 1
            n_contact += rep.contact_form
    return f"{checked} classifications, {n_contact} contact", [("exceptions", exceptions, 0)]


@_group("normality")
def check_normality(rng: np.random.Generator):
    """The normal flag against the Nijenhuis tensor N, in the adapted frame and ambient.

    Structures: the representatives of every case tag, plus B, C and None
    normal forms on their own brackets, scaled by 10^U(-3, 3), with each
    coefficient zeroed with probability 1/2 (one kept nonzero for
    admissibility).  In the frame (xi, e, phi_e), max |N| must equal
    max(|a - d|, |b + g|, |w|) for [xi, e] = a e + b phi_e, [xi, phi_e] =
    g e + d phi_e and w = eta([e, phi_e]), to IDENTITY_RTOL times the scale;
    the flag must equal max |N| <= PREDICATE_TOL * scale on the ambient
    structure, and both outcomes must occur.
    """
    n = 150
    frame = structure_from_basis(_I3, E1, E2, E3)
    worst, mismatches, outcomes, families = 0.0, 0, {True: 0, False: 0}, set()
    for i in range(n):
        structures = [(rep.structure, rep.normal) for rep in classify_representatives(_tag_source(rng, i))]
        for family, keep in (("B", 0), ("C", 1), (None, 2)):
            k = len(FAMILY_PARAM_NAMES[family])
            params = rng.uniform(-2.0, 2.0, k) * (rng.random(k) < 0.5)
            params[keep] = _nonzero(rng)
            params = tuple(10.0 ** rng.uniform(-3.0, 3.0) * params)
            c = _normal_form_constants(family, params)
            ps = PhiBasisStructure(family, params, PhiBasis(E1, E2, E3), None, LieAlgebra3(c))
            structures.append((ps, _structure_flags(ps)[0]))
        for ps, normal in structures:
            L, c = ps.algebra, ps.normal_form_constants()
            closed = max(abs(c[0, 1, 1] - c[0, 2, 2]), abs(c[0, 1, 2] + c[0, 2, 1]), abs(c[1, 2, 0]))
            in_frame = nijenhuis_normality_residual(LieAlgebra3(ps.raw_basis_constants()), frame)
            worst = max(worst, abs(in_frame - closed) / L.scale)
            mismatches += normal != (nijenhuis_normality_residual(L, ps.structure()) <= PREDICATE_TOL * L.scale)
            outcomes[normal] += 1
            families.add(ps.family)
    return f"{sum(outcomes.values())} structures ({outcomes[True]} normal)", [
        ("frame N vs closed form worst relative gap", worst, IDENTITY_RTOL),
        ("flag mismatches against the ambient N", mismatches, 0),
        ("flag outcomes never seen", sum(v == 0 for v in outcomes.values()), 0),
        ("families off A, B, C, None", len(families ^ {"A", "B", "C", None}), 0),
    ]


@_group("existence")
def check_existence(rng: np.random.Generator):
    """Every admissible algebra carries a structure with xi in ker d_eta."""
    n = 200
    ok = 0
    for _ in range(n):
        params = sample_params(rng)
        s = classify(params, np.array([1.0, 0.0, 0.0])).structure.structure()
        ok += xi_in_ker_deta(from_milnor(params), s)
    return f"{n} axis structures", [("not admissible", n - ok, 0)]


@_group("reductions")
def check_reductions(rng: np.random.Generator):
    """Branch coincidences: 3 inside B, 5 and 6 inside A, rank-one overlap."""
    n = 50
    names = ("branch-3 specialization", "branch-3 mirror specialization", "branch-5 family", "branch-6 family")
    issues = dict.fromkeys(names, 0)
    for _ in range(n):
        for tag, name in (("B1", "branch-3 specialization"), ("C1", "branch-3 mirror specialization")):
            m = sample_params(rng, tag)
            expect = (m.alpha, 0.0, -m.beta) if tag == "B1" else (m.delta, 0.0, -m.gamma)
            if max(abs(a - b) for a, b in zip(construct_case3(m).params, expect)) > 1e-12 * m.scale:
                issues[name] += 1
        rep = classify(sample_params(rng, "D"), np.array([1.0, 0.0, 0.0]))
        if rep.family != "A" or rep.structure.source_construction != 5:
            issues["branch-5 family"] += 1
        l = sample_functional(rng)
        rep = classify(l, l.dual)
        if rep.family != "A" or rep.structure.source_construction != 6:
            issues["branch-6 family"] += 1
    same = np.array_equal(
        from_functional(LinearFunctional(np.array([1.0, 0.0, 0.0]))).c,
        from_milnor((1.0, 0.0, 0.0, 1.0)).c,
    )
    issues["rank-one vs adapted-form constants"] = int(not same)
    return f"{n} rounds", [(f"{name} issues", count, 0) for name, count in issues.items()]


@_group("isomorphism")
def check_isomorphism(rng: np.random.Generator):
    """D equality is necessary; self-maps, the branch 1/6 pair and mirror and flip partners are found."""
    n = 100
    bad_cross, bad_self = 0, 0
    for _ in range(n):
        s1, s2 = construct_case1(sample_params(rng)), construct_case1(sample_params(rng))
        D1, D2 = s1.invariant_D(), s2.invariant_D()
        bad_cross += abs(D1 - D2) > 1e-3 * max(1.0, abs(D1), abs(D2)) and is_isomorphic(s1, s2) is not None
        bad_self += is_isomorphic(s1, s1) is None
    pair_missing = int(is_isomorphic(construct_case1((1.0, 0.0, 0.0, 1.0)), construct_case6(E1, E1)) is None)
    # the e2 <-> e3 mirror and the e3 flip are isometric isomorphisms of the
    # algebra, so every representative has a partner in each image; a
    # lambda-rescaled image, of equal D, has none
    reps, missing, false_pos = 0, 0, 0
    for _ in range(n):
        m = sample_params(rng)
        p = np.array([m.alpha, m.beta, m.gamma, m.delta])
        found, mirror, flip, *scaled = (
            [r.structure for r in classify_representatives(src)] for src in (m, p[::-1], p * [1, -1, -1, 1], 1.5 * p, 2 * p)
        )
        reps += len(found)
        missing += sum(not any(is_isomorphic(s, t) is not None for t in im) for im in (mirror, flip) for s in found)
        false_pos += sum(is_isomorphic(s, t) is not None for im in scaled for s in found for t in im)
    return f"{n} pairs, then {n} sources with {reps} representatives", [
        ("unequal-D false positives", bad_cross, 0),
        ("self failures", bad_self, 0),
        ("branch-1/6 pair missing", pair_missing, 0),
        ("representatives without a mirror or flip partner", missing, 0),
        ("lambda-rescaled false positives", false_pos, 0),
    ]


@_group("pm-xi")
def check_pm_xi(rng: np.random.Generator):
    """classify(xi) and classify(-xi) produce isomorphic structures."""
    n = 60
    ok = 0
    for i in range(n):
        src = _tag_source(rng, i)
        xi = src.dual if isinstance(src, LinearFunctional) else _geodesic_xi(rng, src)
        ok += is_isomorphic(classify(src, xi).structure, classify(src, -xi).structure) is not None
    return f"{n} antipodal pairs", [("not isomorphic", n - ok, 0)]


@_group("mirror")
def check_mirror(rng: np.random.Generator):
    """Swapping e2 and e3 carries (p, q) enumerations onto (-p, -q) ones."""
    n = 40
    swap = np.array([[1.0, 0, 0], [0, 0, 1.0], [0, 1.0, 0]])
    mirror_tag = {"A1": "A1", "A2": "A2", "B1": "C1", "B2": "C2", "C1": "B1", "C2": "B2", "D": "D"}
    worst, tag_mismatches = 0.0, 0
    for i in range(n):
        tag = ("A1", "A2", "B1", "B2", "C1", "C2", "D")[i % 7]
        params = sample_params(rng, tag)
        mirrored = MilnorParameters(params.delta, params.gamma, params.beta, params.alpha)
        e1 = enumerate_unit_geodesics(params)
        e2 = enumerate_unit_geodesics(mirrored)
        tag_mismatches += e2.case_tag != mirror_tag[e1.case_tag]
        probes = [np.array(pt) for pt in e1.discrete]
        for fam in e1.families:
            ts = fam.angles if fam.angles is not None else np.linspace(0, 2 * math.pi, 17)
            probes.extend(fam.point(t) for t in ts)
        worst = max(worst, float(e2.distance_to_set(np.array(probes) @ swap.T).max()))
    return f"{n} parameter sets", [("tag mismatches", tag_mismatches, 0), ("worst image distance", worst, 1e-9)]


def _plane_curvatures(rng: np.random.Generator, L, n_planes: int) -> np.ndarray:
    """Sectional curvatures of L on n_planes random planes (nearly degenerate pairs redrawn)."""
    Ks = []
    while len(Ks) < n_planes:
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        if abs(np.dot(x, y)) <= 0.999 * np.linalg.norm(x) * np.linalg.norm(y):
            Ks.append(sectional_curvature(L, _I3, x, y))
    return np.array(Ks)


@_group("curvature")
def check_curvature(rng: np.random.Generator):
    """Rank-one and p = 0 algebras have constant (negative, for rank-one) curvature."""
    n_planes, n_algebras = 1000, 5
    worst_std, worst_value, worst_flat = 0.0, -math.inf, 0.0
    for _ in range(n_algebras):
        l = sample_functional(rng)
        Ks = _plane_curvatures(rng, from_functional(l), n_planes)
        worst_std = max(worst_std, float(Ks.std()))
        worst_value = max(worst_value, float(Ks.max()))
        worst_flat = max(worst_flat, float(np.abs(Ks + l.norm**2).max()))
        Ks = _plane_curvatures(rng, from_milnor(sample_params(rng, "D")), n_planes)
        worst_std = max(worst_std, float(Ks.std()))
    gates = [("max std", worst_std, 1e-9), ("rank-one K off -|l|^2 by", worst_flat, 1e-9)]
    # K < 0: its bound is the negative float closest to 0
    gates.append(("rank-one max K", worst_value, math.nextafter(0.0, -math.inf)))
    return f"{2 * n_algebras} algebras, {n_planes} planes each", gates


@_group("sign-check")
def check_sign_conventions(rng: np.random.Generator):
    """Only the -(beta+gamma) cross coefficient reproduces A = alpha + delta.

    The two rival readings of the cross term, +(beta+gamma) and
    +(beta-gamma), are evaluated on the same admissible angles and must
    fail on more than 90% of them.
    """
    n = 100
    ok_correct, wrong_plus, wrong_diff, produced = 0, 0, 0, 0
    while produced < n:
        params = sample_params(rng, "A2")
        a, b, g, d = params.alpha, params.beta, params.gamma, params.delta
        if abs(b) < 0.05 and abs(g) < 0.05:
            continue  # rival forms coincide when beta and gamma both vanish
        for t in inplane_geodesic_angles(params):
            ct, st, target, scale = math.cos(t), math.sin(t), a + d, params.scale
            A_minus = d * ct * ct - (b + g) * st * ct + a * st * st
            A_plus = d * ct * ct + (b + g) * st * ct + a * st * st
            A_diff = d * ct * ct + (b - g) * st * ct + a * st * st
            ok_correct += abs(A_minus - target) <= 1e-12 * scale
            wrong_plus += abs(A_plus - target) > 1e-9 * scale
            wrong_diff += abs(A_diff - target) > 1e-9 * scale
            produced += 1
    # a rival fails on more than 0.9 * produced angles: it holds on at most this many
    holds_cap = produced - math.floor(0.9 * produced) - 1
    return f"{produced} angles", [
        ("-(beta+gamma) misses", produced - ok_correct, 0),
        ("+(beta+gamma) holds on", produced - wrong_plus, holds_cap),
        ("+(beta-gamma) holds on", produced - wrong_diff, holds_cap),
    ]


def run_groups(names: list[str] | None = None, seed: int = 42) -> list[GroupResult]:
    """Run the named groups (all by default) with one base seed; ValueError for an unknown name."""
    selected = names or list(GROUPS)
    for name in selected:
        if name not in GROUPS:
            raise ValueError(f"unknown group {name!r}; known: {', '.join(GROUPS)}")
    return [GROUPS[name](seed=seed) for name in selected]
