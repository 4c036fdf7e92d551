"""Normal forms for structures whose Reeb vector is geodesic.

In an adapted orthonormal basis {xi, e, phi_e} the brackets of any such
structure reduce, away from degenerate circles, to one of three families:

    family A:  [xi,e] = alpha e + beta phi_e,
               [xi,phi_e] = gamma e + delta phi_e,  [e,phi_e] = 0
    family B:  [xi,e] = C phi_e,  [xi,phi_e] = 0,
               [e,phi_e] = A phi_e + B xi            (A != 0)
    family C:  [xi,e] = Abar e,   [xi,phi_e] = 0,
               [e,phi_e] = Bbar e                    (Abar^2 + Bbar^2 != 0)

Construction branches (this module's case analysis):

    1  xi = +-e1 on an adapted-form algebra          -> A, parameters pass through
    2  xi in the e2-e3 plane at an admissible angle  -> B, quadratic-form (A, B, C);
       the identity A = alpha + delta holds at every admissible angle
    3  p = +-r, q != 0, xi along the distinguished
       in-plane direction                            -> B, (alpha, 0, -beta) resp. (delta, 0, -gamma)
    4  p = +-r, q = 0, xi on the geodesic circle     -> C, (Abar, Bbar) linear in (cos t, sin t)
    5  p = 0 (only +-e1 is geodesic)                 -> A, diagonal-plus-shear
    6  rank-one functional algebra, xi dual to l     -> A, alpha = delta = l(xi)

The regime is the geodesic enumeration's case tag, decided once by one
relative rule: p = 0 and p = +-r hold to IDENTITY_RTOL (1e-12) times the
largest structure constant, q = 0 to IDENTITY_RTOL itself (q is
dimensionless), and p = 0 wins a tie.

Geodesic vectors in the interior of the p = +-r, q != 0 circles carry
structures matching none of the three families; ``classify`` reports those
with ``family=None`` and the reduced bracket data.

Normality and contact read off the normal form (``_structure_flags``):

    family A:  normal <=> alpha = delta and beta = -gamma;  never contact
    family B:  normal <=> B = C = 0;   contact <=> B != 0;  contact metric <=> B = 1
    family C:  normal <=> Abar = 0;                         never contact
    None:      normal <=> xi_e_e = xi_e_phie = e_phie_xi = 0;  contact <=> e_phie_xi != 0

The +-xi ambiguity folds to a canonical representative (angles to [0, pi)).
The two signs are metrically conjugate, but no bracket-preserving isometry
links them when trace ad(xi)|ker eta != 0, so folding is what makes
classify(xi) and classify(-xi) agree.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .contact_structures import (
    AlmostContactStructure,
    PhiBasis,
    _adapted_frame,
    _ker_deta,
    _normality,
    _structure_axioms,
)
from .lie_core import (
    E1,
    E2,
    E3,
    LieAlgebra3,
    LinearFunctional,
    MilnorParameters,
    _as_functional,
    _as_milnor,
    _as_vector,
    _unit,
    bracket,
    from_functional,
    from_milnor,
    invariant_D,
)
from .metric_geometry import (
    _I3,
    GeodesicEnumeration,
    _atan2,
    _geodesic,
    _line_angle,
    _regime,
    _shear_directions,
    enumerate_unit_geodesics,
    geodesic_defect,
    is_geodesic_vector,
)
from .tolerances import IDENTITY_RTOL, NORMAL_FORM_TOL, PREDICATE_TOL

Vector = np.ndarray

FAMILY_PARAM_NAMES = {
    "A": ("alpha", "beta", "gamma", "delta"),
    "B": ("A", "B", "C"),
    "C": ("A_bar", "B_bar"),
    None: ("xi_e_e", "xi_e_phie", "e_phie_e", "e_phie_phie", "e_phie_xi"),
}


class AdmissibilityError(ValueError):
    """Input violates the algebra admissibility constraints."""


class NotGeodesicError(ValueError):
    """The requested Reeb vector is not a geodesic vector."""


# the constant c[i, j, k] (i < j) that carries each normal-form parameter
_NORMAL_FORM_SLOTS = {
    "A": ((0, 1, 1), (0, 1, 2), (0, 2, 1), (0, 2, 2)),
    "B": ((1, 2, 2), (1, 2, 0), (0, 1, 2)),
    "C": ((0, 1, 1), (1, 2, 1)),
    None: ((0, 1, 1), (0, 1, 2), (1, 2, 1), (1, 2, 2), (1, 2, 0)),
}


def _normal_form_constants(family: str | None, params) -> np.ndarray:
    """Structure constants of the normal form in (xi, e, phi_e) coordinates.

    ``params`` are numbers, or arrays of one shape S for a stack of normal
    forms of shape S + (3, 3, 3).  Family A with (alpha, beta, gamma,
    delta) gives the adapted-form algebra itself (``from_milnor``).
    """
    c = np.zeros(np.shape(params[0]) + (3, 3, 3))
    for (i, j, k), v in zip(_NORMAL_FORM_SLOTS[family], params):
        c[..., i, j, k] = v
        c[..., j, i, k] = -v
    return c


def _structure_flags(ps: PhiBasisStructure) -> tuple[bool, bool, bool]:
    """(normal, contact_form, contact_metric), read off the normal form.

    For [xi, e] = a e + b phi_e, [xi, phi_e] = g e + d phi_e and
    w = eta([e, phi_e]), the frame (xi, e, phi_e) gives N(xi, e) =
    (0, d - a, -b - g), N(xi, phi_e) = (0, -b - g, a - d), N(e, phi_e) =
    (-w, 0, 0), (eta ^ d_eta)(xi, e, phi_e) = d_eta(e, phi_e) = -w and
    Phi(e, phi_e) = -1.  The first two flags are held to PREDICATE_TOL
    times the algebra's scale; contact metric is the normalisation w = 1,
    held to PREDICATE_TOL itself, so it is not invariant under c -> lambda c.
    """
    normal, contact_form, contact_metric = _flags(ps.normal_form_constants(), ps.algebra.scale)
    return bool(normal), bool(contact_form), bool(contact_metric)


def _flags(c: np.ndarray, scale) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_structure_flags`` over a leading axis of normal-form constants c (..., 3, 3, 3) and scales."""
    a, b, g, d, w = c[..., 0, 1, 1], c[..., 0, 1, 2], c[..., 0, 2, 1], c[..., 0, 2, 2], c[..., 1, 2, 0]
    bound = PREDICATE_TOL * scale
    normal = (abs(a - d) <= bound) & (abs(b + g) <= bound) & (abs(w) <= bound)
    return normal, abs(w) > bound, abs(1.0 - w) <= PREDICATE_TOL


def _basis_constants(c: np.ndarray, B: np.ndarray) -> np.ndarray:
    """c'[a, b] = B^T [B_a, B_b] for the orthonormal frame with columns B_a.

    c holds structure constants, shape (..., 3, 3, 3), and B the frames,
    shape (..., 3, 3).  The sum c'[a, b, c] = sum B_ia B_jb c_ijk B_kc is
    contracted one index at a time, over i, then j, then k: 81 two-factor
    products per step instead of 729 four-factor ones.  Each entry is then
    within 1e-15 max|c| of the exact sum over the float inputs for an
    orthonormal B.  The inputs are made C-contiguous first, so that the
    bits depend on the shapes alone: a stack of frames gives the bits of
    its frames one at a time, which the scalar and batched paths rely on.
    """
    B, c = np.ascontiguousarray(B), np.ascontiguousarray(c)
    t = np.einsum("...ia,...ijk->...ajk", B, c)
    t = np.einsum("...jb,...ajk->...abk", B, t)
    return np.einsum("...abk,...kc->...abc", t, B)


def _family_gates(family: str | None, params) -> list[tuple[np.ndarray, str]]:
    """The parameter checks of ``family`` as (pass, message) pairs, elementwise.

    ``params`` are numbers, or arrays of one shape.  Each test is relative
    to s = max |param|, alpha gamma + beta delta to s^2 (divided by s, or 1
    where s = 0, first, so that it cannot overflow); a NaN fails it.
    """
    if family is None:
        return []
    s = np.abs(params).max(axis=0)
    if family == "A":
        a, b, g, d = params
        div = s + (s == 0.0)
        return [
            (abs(a + d) > IDENTITY_RTOL * s, "family A requires alpha + delta != 0"),
            (abs(a / div * g + b / div * d) <= PREDICATE_TOL * s, "family A requires alpha*gamma + beta*delta = 0"),
        ]
    if family == "B":
        return [(abs(params[0]) > IDENTITY_RTOL * s, "family B requires A != 0")]
    return [(np.hypot(*params) > IDENTITY_RTOL * s, "family C requires Abar^2 + Bbar^2 != 0")]


def _normal_form_check(raw: np.ndarray, nf: np.ndarray, scale):
    """(max |raw - nf|, whether it is within NORMAL_FORM_TOL times the algebra's scale) over a leading axis."""
    residual = np.abs(raw - nf).max(axis=(-3, -2, -1))
    return residual, residual <= NORMAL_FORM_TOL * scale


@dataclass(frozen=True, eq=False)
class PhiBasisStructure:
    """A structure presented in an adapted basis with its normal form.

    ``basis`` holds the adapted frame in ambient coordinates on the stored
    algebra; ``params`` are the normal-form coefficients of ``family``.
    The raw and normal-form constants that validation compares are kept,
    read-only, for the accessors below.
    """

    family: str | None
    params: tuple[float, ...]
    basis: PhiBasis
    source_construction: int | None
    algebra: LieAlgebra3
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.family not in FAMILY_PARAM_NAMES:
            raise ValueError(f"unknown family {self.family!r}")
        n_expected = len(FAMILY_PARAM_NAMES[self.family])
        if len(self.params) != n_expected:
            raise ValueError(f"family {self.family!r} takes {n_expected} parameters")
        p = tuple(float(v) for v in self.params)
        if not all(map(math.isfinite, p)):
            raise ValueError(f"family {self.family!r} parameters must be finite")
        for ok, message in _family_gates(self.family, p):
            if not ok:
                raise ValueError(message)
        object.__setattr__(self, "params", p)
        object.__setattr__(self, "notes", tuple(self.notes))
        raw, nf = _basis_constants(self.algebra.c, self.basis.matrix), _normal_form_constants(self.family, p)
        res, ok = _normal_form_check(raw, nf, self.algebra.scale)
        if not ok:
            raise AssertionError(f"normal form does not match raw brackets (residual {res!r})")
        for name, a in (("_raw", raw), ("_nf", nf)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def params_dict(self) -> dict[str, float]:
        return dict(zip(FAMILY_PARAM_NAMES[self.family], self.params))

    def structure(self) -> AlmostContactStructure:
        """The structure at the identity metric, the one metric in which ``basis`` is orthonormal."""
        b, G = self.basis, _I3.g
        # structure_from_basis's arithmetic without its frame test, which PhiBasis passed at the same tolerance
        return AlmostContactStructure(np.outer(b.phi_e, G @ b.e) - np.outer(b.e, G @ b.phi_e), b.xi, G @ b.xi)

    def normal_form_constants(self) -> np.ndarray:
        return self._nf

    def raw_basis_constants(self) -> np.ndarray:
        """Ambient structure constants re-expressed in the adapted basis.

        c'[a, b] = B^T [B_a, B_b] with B_a the columns of the orthonormal
        frame matrix B, contracted by ``_basis_constants``.
        """
        return self._raw

    def normal_form_residual(self) -> float:
        return float(_normal_form_check(self._raw, self._nf, self.algebra.scale)[0])

    def invariant_D(self) -> float:
        return invariant_D(self.algebra)

    @functools.cached_property
    def _checks(self) -> tuple[bool, bool, bool, float]:
        """(normal, contact_form, contact_metric, N residual) of ``_report``: ``_checked`` on a stack of one."""
        value = _checked(self.algebra, [self])[0]
        if isinstance(value, Exception):
            raise value
        return value


def _report_checks(c, scale, xi: np.ndarray, e: np.ndarray, fe: np.ndarray, nf: np.ndarray):
    """(checks, ``_flags``, N residual) of stacked structures, at the identity metric (so eta = xi).

    Row k has the frame (xi[k], e[k], fe[k]), the normal-form constants
    nf[k] and the algebra c[k] of scale scale[k].  ``checks`` lists (per-row
    pass, error type, message) in the order one structure raises them: its
    ``AlmostContactStructure``, ``xi_in_ker_deta``, ``nijenhuis_normality_residual``.
    """
    phi = fe[:, :, None] * e[:, None, :] - e[:, :, None] * fe[:, None, :]
    agree, in_kernel = _ker_deta(c, scale, xi, xi)
    antisymmetric, residual = _normality(c, scale, phi, xi, xi)
    checks = [
        (np.isfinite(xi).all(axis=-1), ValueError, "vector components must be finite"),
        (np.isfinite(phi).all(axis=(-2, -1)), ValueError, "phi must be finite"),
        *((ok, ValueError, message) for ok, message in _structure_axioms(phi, xi, xi)),
        (agree, AssertionError, "d_eta and Lie-derivative predicates disagree"),
        (in_kernel, AssertionError, "constructed structure lost the ker d_eta condition"),
        (antisymmetric, AssertionError, "normality tensor is not antisymmetric"),
    ]
    return checks, _flags(nf, scale), residual


def _checked(L: LieAlgebra3, structures: list[PhiBasisStructure]) -> list:
    """``_report_checks`` over structures on L in one pass: each one's ``_checks``, or the error it raises."""
    n, nf = len(structures), np.array([ps._nf for ps in structures])
    xi, e, fe = (np.array([getattr(ps.basis, name) for ps in structures]) for name in ("xi", "e", "phi_e"))
    checks, flags, residual = _report_checks(L.c[None][[0] * n], np.full(n, L.scale), xi, e, fe, nf)
    passed = np.logical_and.reduce([ok for ok, _, _ in checks])
    values = zip(*(v.tolist() for v in flags), residual.tolist())
    return [
        value if passed[i] else next(kind(message) for ok, kind, message in checks if not ok[i])
        for i, value in enumerate(values)
    ]


def _admissible(source, coerce=_as_milnor):
    # ``coerce(source)``, ``_as_milnor`` or ``_as_functional``, with its rejections raised as AdmissibilityError
    try:
        return coerce(source)
    except ValueError as exc:
        raise AdmissibilityError(str(exc)) from exc


def construct_case1(params) -> PhiBasisStructure:
    """Branch 1: xi = +-e1 (folded to +e1); family A with the raw parameters."""
    return _on_axis(_admissible(params), 1, ())


# the frame of branches 1 and 5, read-only like every PhiBasis, so built once
_AXES = PhiBasis(E1, E2, E3)


def _on_axis(params: MilnorParameters, branch: int, notes: tuple[str, ...]) -> PhiBasisStructure:
    # the family A structure at xi = e1, which branches 1 and 5 both report
    p = (params.alpha, params.beta, params.gamma, params.delta)
    return PhiBasisStructure("A", p, _AXES, branch, from_milnor(params), notes)


def construct_case2(params, theta: float) -> PhiBasisStructure:
    """Branch 2: xi = cos(t) e2 + sin(t) e3 at an admissible angle t.

    The admissibility equation alpha cos^2 t + (beta+gamma) sin t cos t +
    delta sin^2 t = 0 must hold; the right-handed frame is {xi, e1,
    sin(t) e2 - cos(t) e3}, in which the brackets take the family B form
    with the three quadratic-form coefficients below and A = alpha + delta.
    """
    params = _admissible(params)
    ct, st = math.cos(theta), math.sin(theta)
    a, b, g, d = params.alpha, params.beta, params.gamma, params.delta
    eq, ok, (A, B, C), xi, e, phi_e = _case2_form(a, b, g, d, params.scale, ct, st)
    if not ok:
        raise NotGeodesicError(
            f"angle {theta!r} violates the in-plane geodesic equation (residual {eq!r})"
        )
    notes = []
    if abs(C) <= IDENTITY_RTOL * params.scale and abs(B) <= IDENTITY_RTOL * params.scale:
        notes.append("degenerate point: also admits a family C presentation (Abar=0)")
    return PhiBasisStructure(
        "B", (A, B, C), PhiBasis(xi, e, phi_e), 2, from_milnor(params), tuple(notes)
    )


def _case2_form(a, b, g, d, scale, ct, st):
    """Branch 2 at the angle t with cos t = ct and sin t = st, elementwise over numbers or arrays.

    Returns the in-plane equation's residual, whether it is within
    PREDICATE_TOL times the scale, (A, B, C) and the frame (xi, e1, phi_e).
    """
    eq = a * ct * ct + (b + g) * st * ct + d * st * st
    A = d * ct * ct - (b + g) * st * ct + a * st * st
    B = -(g * ct * ct + (d - a) * st * ct - b * st * st)
    C = b * ct * ct + (d - a) * st * ct - g * st * st
    zero = ct - ct  # +0.0 in ct's shape
    ok = abs(eq) <= PREDICATE_TOL * scale
    return eq, ok, (A, B, C), np.array([zero, ct, st]).T, E1, np.array([zero, st, -ct]).T


def construct_case3(params) -> PhiBasisStructure:
    """Branch 3: the distinguished in-plane direction for p = +-r, q != 0.

    For p = r the frame is {(q e2 - e3)/s, e1, (e2 + q e3)/s} (left-handed
    by convention) and the normal form is (A, B, C) = (alpha, 0, -beta);
    the mirror p = -r uses {(e2 + q e3)/s, e1, (q e2 - e3)/s} and gives
    (delta, 0, -gamma).  B = 0, so these are never contact.
    """
    params = _admissible(params)
    tag = _regime(params)
    if tag not in ("B1", "C1"):
        raise AdmissibilityError(f"branch 3 needs p = +-r and q != 0, not regime {tag}")
    abc, xi, e, phi_e = _case3_form(params.alpha, params.beta, params.gamma, params.delta, params.q, tag == "B1")
    if tag == "B1":
        notes = ("left-handed adapted frame (conjugate orientation)",)
    else:
        notes = ("mirror of the p = r branch",)
    return PhiBasisStructure("B", abc, PhiBasis(xi, e, phi_e), 3, from_milnor(params), notes)


def _case3_form(a, b, g, d, q, on_b):
    """Branch 3 on p = r (where on_b) or p = -r, elementwise: ((A, B, C), xi, e1, phi_e)."""
    u, w = _shear_directions(q)
    pick = np.asarray(on_b)[..., None]
    return (np.where(on_b, a, d), q - q, np.where(on_b, -b, -g)), np.where(pick, u, w), E1, np.where(pick, w, u)


def construct_case4(params, theta: float) -> PhiBasisStructure:
    """Branch 4: xi on the geodesic circle of a p = +-r, q = 0 algebra.

    For p = r the circle lies in the e1-e3 plane, the frame is
    {cos t e1 + sin t e3, e2, -sin t e1 + cos t e3}, and (Abar, Bbar) =
    alpha (cos t, sin t); mirror for p = -r in the e1-e2 plane with
    (Abar, Bbar) = delta (cos t, -sin t).  Angles fold to [0, pi); eta is
    never a contact form here.
    """
    params = _admissible(params)
    tag = _regime(params)
    if tag not in ("B2", "C2"):
        raise AdmissibilityError(f"branch 4 needs p = +-r and q = 0, not regime {tag}")
    theta = theta % math.pi
    ct, st = math.cos(theta), math.sin(theta)
    ab, xi, e, phi_e = _case4_form(params.alpha, params.delta, ct, st, tag == "B2")
    notes = []
    if abs(st) <= 1e-12:
        notes.append("t = 0 point: coincides with the diagonal family A normal form")
    return PhiBasisStructure("C", ab, PhiBasis(xi, e, phi_e), 4, from_milnor(params), tuple(notes))


def _case4_form(a, d, ct, st, on_b):
    """Branch 4 at cos t = ct, sin t = st on p = r (where on_b) or p = -r, elementwise: ((Abar, Bbar), xi, e, phi_e)."""
    zero, pick = ct - ct, np.asarray(on_b)[..., None]
    xi = np.where(pick, np.array([ct, zero, st]).T, np.array([ct, st, zero]).T)
    phi_e = np.where(pick, np.array([-st, zero, ct]).T, np.array([st, -ct, zero]).T)
    return (np.where(on_b, a, d) * ct, np.where(on_b, a, -d) * st), xi, np.where(pick, E2, E3), phi_e


def _unit_xi(xi) -> Vector:
    x = _as_vector(xi)
    if not x.any():
        raise NotGeodesicError("xi must be nonzero")
    return _unit(x)


def construct_case5(params, xi) -> PhiBasisStructure:
    """Branch 5: p = 0.  Only +-e1 is geodesic; anything else is rejected.

    For a candidate xi off the axis the bracket [xi, X] picks up a
    component along xi for X in ker eta, so xi cannot lie in ker d_eta;
    the rejection message reports that obstruction.
    """
    params = _admissible(params)
    if _regime(params) != "D":
        raise AdmissibilityError("branch 5 needs p = 0")
    x = _unit_xi(xi)
    if abs(abs(x[0]) - 1.0) > 1e-9:
        # obstruction: eta([xi, E]) for the in-plane companion E of xi
        L = from_milnor(params)
        ct = x[0]
        plane = np.linalg.norm(x[1:])
        E = np.array([-plane, *(ct * x[1:] / plane)])
        resid = float(x @ bracket(L, x, E))
        raise NotGeodesicError(
            "xi is admissible only along +-e1 when p = 0: "
            f"[xi, X] leaves ker(eta) for X in ker(eta) (eta([xi, X]) = {resid!r})"
        )
    notes = ("only +-e1 is geodesic when p = 0",)
    if x[0] < 0:
        notes = notes + ("xi folded to the +e1 representative",)
    return _on_axis(params, 5, notes)


def construct_case6(l, xi) -> PhiBasisStructure:
    """Branch 6: rank-one algebra [x, y] = l(x) y - l(y) x.

    The kernel condition forces l to vanish on ker eta, i.e. xi parallel
    to the dual of l; then alpha := l(xi) and the structure is family A
    with alpha = delta, beta = gamma = 0.
    """
    l = _admissible(l, _as_functional)
    x = _unit_xi(xi)
    dual = l.dual
    if min(np.linalg.norm(x - dual), np.linalg.norm(x + dual)) > 1e-9:
        raise NotGeodesicError(
            "xi must be parallel to the dual of l: l does not vanish on the "
            f"would-be ker(eta) (l projected onto xi-perp has norm "
            f"{float(np.linalg.norm(l.l - (l.l @ x) * x))!r})"
        )
    notes: tuple[str, ...] = ()
    if np.linalg.norm(x + dual) <= 1e-9:
        notes = ("xi folded to the +dual representative",)
    alpha = l(dual)
    e, phi_e = _adapted_frame(_I3, dual)
    return PhiBasisStructure("A", (alpha, 0.0, 0.0, alpha), PhiBasis(dual, e, phi_e), 6, from_functional(l), notes)


def _reduce_outside(L: LieAlgebra3, xi: Vector) -> PhiBasisStructure:
    """Adapted frame for a geodesic xi whose brackets fit no family (``_outside_form``)."""
    params, xi, e, fe = _outside_form(L.c, L.scale, xi)
    return PhiBasisStructure(
        None,
        params,
        PhiBasis(xi, e, fe),
        None,
        L,
        ("brackets match none of the A/B/C normal forms; frame fixed by [xi, phi_e] = 0",),
    )


def _outside_form(c: np.ndarray, scale, xi: np.ndarray):
    """The five reduced bracket coefficients and the frame (xi, e, phi_e), over a leading axis.

    c holds structure constants (..., 3, 3, 3), xi unit vectors (..., 3).
    The frame rotation is fixed by putting the kernel of ad(xi)|ker eta
    along phi_e (the image of ad is one-dimensional on these algebras), so
    [xi, phi_e] = 0; ad(xi) within IDENTITY_RTOL times the scale of zero
    keeps the rotation at 0.
    """
    u, v = _adapted_frame(_I3, xi)
    M = np.swapaxes(_basis_constants(c, np.stack([xi, u, v], axis=-1))[..., 0, 1:, 1:], -1, -2)  # M[w, z] = w . [xi, z]
    small = np.abs(M).max(axis=(-2, -1)) <= IDENTITY_RTOL * scale
    # kernel direction of M (det M = 0 here): null right-singular vector;
    # a non-finite M fails the caller's checks, only the SVD must not see it
    k = np.linalg.svd(np.where(np.isfinite(M), M, 0.0))[2][..., -1, :]
    rho = np.where(small, 0.0, _atan2(-k[..., 0], k[..., 1]) % math.pi)[..., None]
    cr, sr = np.cos(rho), np.sin(rho)
    e, fe = cr * u + sr * v, -sr * u + cr * v
    raw = _basis_constants(c, np.stack([xi, e, fe], axis=-1))
    return tuple(raw[..., i, j, k] for i, j, k in _NORMAL_FORM_SLOTS[None]), xi, e, fe


@dataclass(frozen=True, eq=False)
class ClassificationReport:
    """Classification of one (algebra, xi) pair."""

    family: str | None
    params: dict[str, float]
    D: float
    geodesic_case: str
    contact_form: bool
    contact_metric: bool
    normal: bool
    normality_residual: float
    errata_notes: tuple[str, ...]
    structure: PhiBasisStructure = field(repr=False)


def _canonical_sign(x: np.ndarray) -> np.ndarray:
    """x or -x, whichever has its first component of magnitude above PREDICATE_TOL positive, over a leading axis.

    A row with no such component is NaN.
    """
    big = np.abs(x) > PREDICATE_TOL
    lead = np.take_along_axis(x, np.argmax(big, axis=-1)[..., None], axis=-1)
    return np.where(big.any(axis=-1, keepdims=True), np.where(lead > 0, x, -x), np.nan)


def _report(source_tag: str, ps: PhiBasisStructure, extra_notes: tuple[str, ...]) -> ClassificationReport:
    normal, contact_form, contact_metric, residual = ps._checks
    return ClassificationReport(
        family=ps.family,
        params=ps.params_dict,
        D=invariant_D(ps.algebra),
        geodesic_case=source_tag,
        contact_form=contact_form,
        contact_metric=contact_metric,
        normal=normal,
        normality_residual=residual,
        errata_notes=ps.notes + extra_notes,
        structure=ps,
    )


def resolve_source(source) -> tuple[MilnorParameters | LinearFunctional, LieAlgebra3, GeodesicEnumeration]:
    """(functional or parameters, algebra, geodesic enumeration) for a classification source.

    A LinearFunctional or a plain 3-vector is a functional; anything else
    must give adapted-form parameters.  A source either kind rejects raises
    AdmissibilityError.  The algebra and the enumeration are those kept on
    that object, built and checked once per object; a tuple or array
    source builds a fresh one.
    """
    if isinstance(source, LinearFunctional) or np.shape(source) == (3,):
        l = _admissible(source, _as_functional)
        return l, from_functional(l), enumerate_unit_geodesics(functional=l)
    params = _admissible(source)
    return params, from_milnor(params), enumerate_unit_geodesics(params)


def classify(source, xi) -> ClassificationReport:
    """Classify the structure with Reeb vector xi on the given algebra.

    ``source`` is either adapted-form parameters or a linear functional.
    xi must be a unit geodesic vector (rejected otherwise, since xi in
    ker d_eta is equivalent to xi geodesic); it goes to the branch of the
    nearest of the ``_features``, the one feature list, folding xi to the
    canonical sign representative.  The geodesic test on xi and the contact
    and normal flags decide at ``PREDICATE_TOL`` times the algebra's scale.

    A MilnorParameters or LinearFunctional source keeps its enumeration
    and its structures (branches 1 to 6 and the outside form, by the exact
    bits of what each reads, ``_kept``), each built and checked once, so
    repeated calls on one object share them: xi and -xi on a circle share
    one.  A structure keeps its report checks (``_report_checks``).  The
    reports' notes are made per call.
    """
    x = _unit_xi(xi)
    source, L, enum = resolve_source(source)
    return _report(*_route(source, L, enum, x))


def _not_geodesic(L: LieAlgebra3, x: Vector, functional: bool) -> NotGeodesicError:
    return NotGeodesicError(
        f"xi is not a geodesic vector (defect {float(geodesic_defect(L, _I3, x))!r})"
        + (
            "; only the dual direction of l is geodesic"
            if functional
            else ": g([xi, y], xi) must vanish for every y; equivalently xi fails the "
            "ker d_eta condition (eta([xi, X]) != 0 for some X in ker eta)"
        )
    )


def _features(source, enum: GeodesicEnumeration) -> list[tuple[Vector, str, object]]:
    """(representative vector, kind, payload) of each geodesic feature, in ``_route``'s priority order.

    The dual of l; else the axis, the in-plane roots (payload: the angle) and
    each full circle at (e1 + v)/sqrt(2) (payload: the family).  On B1/C1 the
    root at the angle of the circle direction v is branch 3's (payload v).
    """
    if enum.case_tag == "E":
        return [(source.dual, "dual", None)]
    special = _line_angle(*enum.families[0].v[1:].tolist()) if enum.case_tag in ("B1", "C1") else None
    features: list[tuple[Vector, str, object]] = [(E1, "axis", None)]
    for t in enum.inplane_angles():
        v = np.array([0.0, math.cos(t), math.sin(t)])
        features.append((v, "special", enum.families[0].v) if t == special else (v, "root", t))
    features += [((E1 + fam.v) / math.sqrt(2.0), "circle", fam) for fam in enum.families if fam.angles is None]
    return features


def _route(
    source, L: LieAlgebra3, enum: GeodesicEnumeration, x: Vector
) -> tuple[str, PhiBasisStructure, tuple[str, ...]]:
    """(case tag, normal-form structure, notes) of the first of the ``_features`` within 1e-12 of xi's nearest.

    The distance is to a circle, else to the nearer of +-v (+-payload on branch 3).
    """
    if not is_geodesic_vector(L, _I3, x):
        raise _not_geodesic(L, x, enum.case_tag == "E")
    best = None
    for feature in _features(source, enum):
        v, kind, payload = feature
        v = payload if kind == "special" else v
        dist = payload.distance(x) if kind == "circle" else min(np.linalg.norm(x - v), np.linalg.norm(x + v))
        if best is None or dist < best[0] - 1e-12:
            best = dist, feature
    dist, feature = best
    if dist > 0.2:
        raise NotGeodesicError(
            "xi passed the geodesic tolerance but lies far from every "
            f"enumerated geodesic (distance {float(dist)!r})"
        )
    return _branch(source, L, enum, x, feature, dist)


def _branch(source, L: LieAlgebra3, enum: GeodesicEnumeration, x: Vector, feature: tuple, dist):
    """``_route``'s (case tag, structure, notes) for the unit xi = x, ``dist`` from its ``_features`` entry."""
    tag, (v, kind, payload) = enum.case_tag, feature
    if kind == "dual":
        return tag, _kept(source, (6, x.tobytes()), construct_case6, source, x), ()
    snapped = dist > 1e-9
    extra = (f"xi snapped to the nearest geodesic (moved {float(dist)!r})",) if snapped else ()

    if kind == "axis":
        if tag == "D":
            xi_exact = x if not snapped else (E1 if x[0] > 0 else -E1)
            return tag, _kept(source, (5, xi_exact.tobytes()), construct_case5, source, xi_exact), extra
        if x[0] < 0:
            extra = extra + ("xi folded to the +e1 representative",)
        return tag, _kept(source, (1,), construct_case1, source), extra
    if kind == "special":
        if np.linalg.norm(x - payload) > np.linalg.norm(x + payload):
            extra = extra + ("xi folded to the canonical sign representative",)
        return tag, _kept(source, (3,), construct_case3, source), extra
    if kind == "root":
        if np.linalg.norm(x - v) > 1e-3:
            extra = extra + ("xi folded to the angle representative in [0, pi)",)
        return tag, _kept(source, (2, float(payload).hex()), construct_case2, source, payload), extra

    # on the geodesic circle: project, then fold the angle to [0, pi)
    fam = payload
    n = fam.normal
    proj = x - (x @ n) * n
    proj = proj / np.linalg.norm(proj)
    if tag in ("B2", "C2"):
        theta = math.atan2(proj @ fam.v, proj @ fam.u)
        if theta < 0:
            extra = extra + ("xi folded to the angle representative in [0, pi)",)
        t = theta % math.pi
        return tag, _kept(source, (4, t.hex()), construct_case4, source, t), extra
    xi = _canonical_sign(proj)
    return tag, _kept(source, ("outside", xi.tobytes()), _reduce_outside, L, xi), extra


# the most structures one source object keeps (``_kept``)
_KEPT = 8


def _kept(source: MilnorParameters | LinearFunctional, key: tuple, construct, *args) -> PhiBasisStructure:
    """``construct(*args)``, kept on the source object under ``key``.

    The key is the branch (``"outside"`` for ``_reduce_outside``) and the
    exact bits of the payload its constructor reads besides the source: the
    angle of branches 2 and 4, xi of branches 5, 6 and the outside form.  So
    a kept structure is the one ``construct`` would build again.  All keys
    share one cap: past ``_KEPT`` of them, structures are built and not kept.
    """
    kept = source._structures
    ps = kept.get(key)
    if ps is None:
        ps = construct(*args)
        if len(kept) < _KEPT:
            kept[key] = ps
    return ps


def classify_representatives(source) -> list[ClassificationReport]:
    """Reports for one representative of each geodesic orbit.

    The vectors of ``_features``, the one feature list ``classify`` routes
    by: one per antipodal pair of isolated geodesics and per admissible
    in-plane angle (on B1/C1 one is the distinguished direction, branch 3)
    and one interior sample per full circle.  Each goes straight to the
    branch of its feature (``_branch``, as ``classify`` would route it),
    after one geodesic test of all; the structures not yet checked take one
    ``_report_checks`` pass.  A failure raises what one ``classify`` per
    representative would.
    """
    return _representatives(*resolve_source(source))


def _representatives(source, L: LieAlgebra3, enum: GeodesicEnumeration) -> list[ClassificationReport]:
    features = _features(source, enum)
    xs = np.array([v / np.linalg.norm(v) for v, _, _ in features])
    routes = []
    for x, feature, ok in zip(xs, features, _geodesic(L._defect, _I3, xs, L.scale)):
        if not ok:
            raise _not_geodesic(L, x, enum.case_tag == "E")
        routes.append(_branch(source, L, enum, x, feature, 0.0))
    fresh = list({id(ps): ps for _, ps, _ in routes if "_checks" not in vars(ps)}.values())
    for ps, value in zip(fresh, _checked(L, fresh) if fresh else ()):
        if not isinstance(value, Exception):
            vars(ps)["_checks"] = value  # a failing structure raises from its own ``_checks``, in report order
    return [_report(*route) for route in routes]


# -- isomorphism ----------------------------------------------------------


def _frames(rhos: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """Candidate maps in adapted coordinates: xi fixed, ker eta rotated by rho, conjugated where sig = -1."""
    cr, sr = np.cos(rhos), np.sin(rhos)
    F = np.zeros((len(rhos), 3, 3))
    F[:, 0, 0] = 1.0
    F[:, 1, 1], F[:, 2, 1] = cr, sr
    F[:, 1, 2], F[:, 2, 2] = -sr * sig, cr * sig
    return F


def _residuals(c1: np.ndarray, c2: np.ndarray, F: np.ndarray) -> np.ndarray:
    """R[n] = f([x, y]_1) - [f x, f y]_2 for each candidate map F[n]."""
    lhs = np.einsum("abk,nmk->nabm", c1, F)
    rhs = np.einsum("nia,njb,ijm->nabm", F, F, c2)
    return lhs - rhs


def _angles(c1: np.ndarray, c2: np.ndarray, sig: float) -> list[float]:
    """Every angle at which the map of ``_frames`` with orientation sig can carry c1 to c2.

    Write ker-eta components as z = x + iy, conjugated in c1 where sig = -1.
    The map turns a = c[0, 1:, 0] (eta of [xi, .]) by rho, w = c[1, 2, 1:]
    (the ker-eta part of [e, phi_e]) by rho and the sign sig, and
    s = (c011 - c022) + i (c012 + c021) (the anti-linear part of ad xi on
    ker eta) by 2 rho; the rest of c it keeps or negates.  So an
    intertwining rho is arg(a2 conj a1), arg(sig w2 conj w1),
    arg(s2 conj s1) / 2 or that + pi, or, where all three parts vanish, any
    angle, which rho = 0 covers.  Returned in the order [0, a, w, s, s + pi].
    """
    z1, z2 = (
        np.array(
            [
                complex(c[0, 1, 0], c[0, 2, 0]),  # a
                complex(c[1, 2, 1], c[1, 2, 2]),  # w
                complex(c[0, 1, 1] - c[0, 2, 2], c[0, 1, 2] + c[0, 2, 1]),  # s
            ]
        )
        for c in (c1, c2)
    )
    if sig < 0:
        z1 = z1.conj()
    ra, rw, rs = np.angle(z2 * z1.conj() * np.array([1.0, sig, 1.0]))
    return [0.0, ra, rw, rs / 2, rs / 2 + math.pi]


def is_isomorphic(s1: PhiBasisStructure, s2: PhiBasisStructure):
    """A structure-preserving isometry intertwining the brackets, or None.

    Candidate maps send xi to xi and rotate the ker-eta plane by an angle
    rho, optionally composed with the conjugation (xi, phi) -> (xi, -phi).
    Each part of the adapted-basis constants that depends on rho turns by
    rho or 2 rho, so the few angles where an intertwining map can lie come
    in closed form (``_angles``), with no search: rho = 0 and the angles of
    the unconjugated orientation, then the same conjugated.  Each candidate
    is scored by its largest intertwining residual
    |f([x, y]_1) - [f x, f y]_2| and the first of equal minima wins.  So
    where the adapted-basis constants are bit-identical the answer is
    rho = 0, at exactly zero residual: a pair with such constants that
    passes the D check, a self pair among them, gets it without scoring.
    Equality of the algebra invariant D is necessary and checked first.
    Returns the map in ambient coordinates when the best residual is within
    PREDICATE_TOL times the largest structure constant, or None.
    """
    D1, D2 = s1.invariant_D(), s2.invariant_D()
    if abs(D1 - D2) > 1e-6 * max(1.0, abs(D1), abs(D2)):
        return None
    c1, c2 = s1.raw_basis_constants(), s2.raw_basis_constants()
    if np.array_equal(c1, c2):
        return s2.basis.matrix @ _frames(np.zeros(1), np.ones(1))[0] @ s1.basis.matrix.T
    # exactly rescaled so that the larger scale is in [1/2, 1) and the products in ``_angles`` stay in range
    scale, e = math.frexp(max(float(np.abs(c1).max()), float(np.abs(c2).max())))
    c1, c2 = np.ldexp(c1, -e), np.ldexp(c2, -e)
    F = _frames(np.array(_angles(c1, c2, 1.0) + _angles(c1, c2, -1.0)), np.repeat([1.0, -1.0], 5))
    res = np.abs(_residuals(c1, c2, F)).reshape(len(F), -1).max(axis=1)
    i = int(np.argmin(res))  # first of equal minima
    if res[i] > PREDICATE_TOL * scale:
        return None
    return s2.basis.matrix @ F[i] @ s1.basis.matrix.T
