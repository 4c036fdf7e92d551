"""Almost contact metric structures on a 3D metric Lie algebra.

A structure is a triple (phi, xi, eta) with

    eta(xi) = 1,   phi(xi) = 0,   eta o phi = 0,
    phi^2 = -Id + xi (x) eta,
    g(phi X, phi Y) = g(X, Y) - eta(X) eta(Y),

so phi is a quarter-turn of the plane ker(eta) = xi-perp.  The exterior
derivative of eta on constant-coefficient fields is d_eta(X, Y) =
-eta([X, Y]) (no 1/2 factor), which makes

    xi in ker d_eta  <=>  L_xi eta = 0

an exact identity.  Both contact predicates are exposed: eta a contact
form (eta ^ d_eta != 0) and the stricter contact metric condition
d_eta = Phi with Phi(X, Y) = g(X, phi Y).

Classification reports take their contact, contact-metric and normality
flags from the normal form (``classification._structure_flags``); the
predicates here and ``nijenhuis_normality_residual`` evaluate the same
conditions on the ambient tensors and serve as the cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lie_core import LieAlgebra3, _as_vector, bracket
from .metric_geometry import _I3, Metric3, _dot
from .tolerances import FRAME_TOL, IDENTITY_RTOL, PREDICATE_TOL

Vector = np.ndarray

# Levi-Civita symbol eps_ijk, the k-th component of e_i x e_j
_LEVI_CIVITA = np.cross(np.eye(3)[:, None, :], np.eye(3)[None, :, :])
# index arrays of the basis pairs (i, j) with i < j
_UPPER = np.triu_indices(3, 1)


class KerConditionViolation(ValueError):
    """Raised when an operation requires xi in the kernel of d_eta."""


@dataclass(frozen=True, eq=False)
class AlmostContactStructure:
    """The tensor triple (phi, xi, eta) in the fixed basis.

    eta is stored as a covector; metric compatibility is the caller's
    responsibility (checked by the constructors that know the metric).
    """

    phi: np.ndarray
    xi: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        xi = _as_vector(self.xi)
        eta = _as_vector(self.eta)
        if phi.shape != (3, 3):
            raise ValueError("phi must be a 3x3 matrix")
        if not np.isfinite(phi).all():
            raise ValueError("phi must be finite")
        for ok, message in _structure_axioms(phi, xi, eta):
            if not ok:
                raise ValueError(message)
        for a in (phi, xi, eta):
            a.setflags(write=False)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "eta", eta)


def _structure_axioms(phi: np.ndarray, xi: np.ndarray, eta: np.ndarray) -> list[tuple[np.ndarray, str]]:
    """The axioms as (pass, message) pairs over a leading axis.

    Each holds to IDENTITY_RTOL, times max(1, max |phi|) (squared for
    phi^2) where phi enters; a NaN fails it.
    """
    scale = np.abs(phi).max(axis=(-2, -1), initial=1.0)
    tol = IDENTITY_RTOL * scale
    return [
        (abs((eta * xi).sum(axis=-1) - 1.0) <= IDENTITY_RTOL, "eta(xi) must equal 1"),
        (np.abs(phi @ xi[..., None]).max(axis=(-2, -1)) <= tol, "phi(xi) must vanish"),
        (np.abs(eta[..., None, :] @ phi).max(axis=(-2, -1)) <= tol, "eta o phi must vanish"),
        (
            np.abs(phi @ phi + _I3.g - xi[..., :, None] * eta[..., None, :]).max(axis=(-2, -1)) <= tol * scale,
            "phi^2 must equal -Id + xi (x) eta",
        ),
    ]


def _orthonormal(B: np.ndarray, G: np.ndarray) -> np.ndarray:
    """|B^T G B - I| within FRAME_TOL, over a leading axis of the frames B (..., 3, 3); a NaN fails."""
    return np.abs(B.swapaxes(-1, -2) @ G @ B - _I3.g).max(axis=(-2, -1)) <= FRAME_TOL


@dataclass(frozen=True, eq=False)
class PhiBasis:
    """Orthonormal adapted basis {xi, e, phi_e} with phi_e = phi(e).

    ``matrix`` has the columns (xi, e, phi_e); it and the vectors are read-only.
    """

    xi: np.ndarray
    e: np.ndarray
    phi_e: np.ndarray
    matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("xi", "e", "phi_e"):
            v = _as_vector(getattr(self, name))
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        B = np.column_stack([self.xi, self.e, self.phi_e])
        B.setflags(write=False)
        object.__setattr__(self, "matrix", B)
        if not _orthonormal(B, _I3.g):
            raise ValueError("phi-basis must be orthonormal")


def _adapted_frame(g: Metric3, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g-orthonormal (e, f) completing the unit xi to a frame with det[xi, e, f] > 0.

    e is the coordinate axis least aligned with xi (the first on a tie),
    projected off xi and normalised; f = sqrt(det g) g^-1 (xi x e) is the
    g-cross product of xi and e (``np.cross(xi, e)`` for the identity
    metric, which skips the determinant and the solve).  xi is one vector
    or a stack of them, shape (..., 3).
    """
    G = g.g
    axis = np.eye(3)[np.argmin(np.abs(xi), axis=-1)]
    e = axis - _dot(xi @ G, axis)[..., None] * xi
    e = e / np.sqrt(np.maximum(_dot(e @ G, e), 0.0))[..., None]
    if g is _I3:
        return e, np.cross(xi, e)
    return e, math.sqrt(np.linalg.det(G)) * np.linalg.solve(G, np.cross(xi, e)[..., None])[..., 0]


def build_structure(g: Metric3, xi, orientation: int = +1) -> AlmostContactStructure:
    """Structure with the given unit Reeb vector; phi is the quarter turn of ker eta.

    The turning sense follows the basis orientation (det[xi, e, phi e] > 0);
    ``orientation=-1`` yields the conjugate structure with phi negated on
    the plane.
    """
    xi = _as_vector(xi)
    if abs(g.norm(xi) - 1.0) > 1e-9:
        raise ValueError("xi must be a unit vector in the metric")
    if orientation not in (+1, -1):
        raise ValueError("orientation must be +1 or -1")
    e, f = _adapted_frame(g, xi)
    phi = orientation * (np.outer(f, g.g @ e) - np.outer(e, g.g @ f))
    return AlmostContactStructure(phi, xi, g.g @ xi)


def structure_from_basis(g: Metric3, xi, e, phi_e) -> AlmostContactStructure:
    """Structure determined by an explicit adapted basis (either handedness)."""
    xi, e, phi_e = (_as_vector(w) for w in (xi, e, phi_e))
    if not _orthonormal(np.column_stack([xi, e, phi_e]), g.g):
        raise ValueError("basis must be g-orthonormal")
    phi = np.outer(phi_e, g.g @ e) - np.outer(e, g.g @ phi_e)
    return AlmostContactStructure(phi, xi, g.g @ xi)


def compatibility_residual(s: AlmostContactStructure, g: Metric3) -> float:
    """max |g(phi X, phi Y) - g(X, Y) + eta(X) eta(Y)| over basis pairs."""
    gm = g.g
    res = s.phi.T @ gm @ s.phi - gm + np.outer(s.eta, s.eta)
    return float(np.abs(res).max())


def fundamental_two_form(s: AlmostContactStructure, g: Metric3, X, Y) -> float:
    """Phi(X, Y) = g(X, phi Y); antisymmetric, with Phi(xi, .) = 0."""
    return float(_as_vector(X) @ g.g @ s.phi @ _as_vector(Y))


def d_eta(L: LieAlgebra3, s: AlmostContactStructure, X, Y) -> float:
    """d_eta(X, Y) = -eta([X, Y]) on constant-coefficient fields."""
    return float(-s.eta @ bracket(L, X, Y))


def lie_derivative_eta(L: LieAlgebra3, s: AlmostContactStructure, X) -> float:
    """(L_xi eta)(X) = -eta([xi, X]) on constant-coefficient fields."""
    return float(-s.eta @ bracket(L, s.xi, X))


def _deta_matrix(c: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """d_eta(e_i, e_j) = -eta([e_i, e_j]) for every basis pair: the matrix -c . eta.

    c has shape (..., 3, 3, 3) and eta (..., 3); the result (..., 3, 3).
    """
    return -(c @ eta[..., None, :, None])[..., 0]


def _ker_deta_routes(c: np.ndarray, xi: np.ndarray, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """d_eta(xi, e_j) twice: xi contracted into the d_eta matrix, and -eta o ad(xi).

    Both have shape (..., 3) for stacked c (..., 3, 3, 3), xi and eta (..., 3).
    """
    via_deta = (xi[..., None, :] @ _deta_matrix(c, eta))[..., 0, :]
    ad_xi = np.einsum("...i,...ijk->...kj", xi, c)  # ad(xi), columns [xi, e_j]
    via_lie = -(eta[..., None, :] @ ad_xi)[..., 0, :]
    return via_deta, via_lie


def xi_in_ker_deta(L: LieAlgebra3, s: AlmostContactStructure) -> bool:
    """True iff |d_eta(xi, e_i)| <= PREDICATE_TOL for all i.

    Computed both as xi contracted into the d_eta matrix and as the Lie
    derivative L_xi eta = -eta o ad(xi) (``_ker_deta``).  The two routes
    contract in different orders, so they are held to agree to rounding
    rather than on the boolean, which can differ when a value sits within
    rounding of PREDICATE_TOL; the decision is the d_eta route's.
    """
    agree, in_kernel = _ker_deta(L.c, L.scale, s.xi, s.eta)
    if not agree:
        raise AssertionError("d_eta and Lie-derivative predicates disagree")
    return bool(in_kernel)


def _ker_deta(c: np.ndarray, scale, xi: np.ndarray, eta: np.ndarray):
    """(the two routes agree to IDENTITY_RTOL relative to the data, xi in ker d_eta), over a leading axis."""
    via_deta, via_lie = _ker_deta_routes(c, xi, eta)
    size = np.maximum(1.0, scale) * np.abs(xi).max(axis=-1, initial=1.0) * np.abs(eta).max(axis=-1, initial=1.0)
    agree = np.abs(via_deta - via_lie).max(axis=-1) <= IDENTITY_RTOL * size
    return agree, (np.abs(via_deta) <= PREDICATE_TOL).all(axis=-1)


def check_ker_condition(L: LieAlgebra3, s: AlmostContactStructure) -> bool:
    """Verify eta([xi, X]) = 0 for X in ker eta.

    This restates the precondition xi in ker d_eta: X = Y - eta(Y) xi runs
    over ker eta, and eta([xi, X]) = eta([xi, Y]) = -d_eta(xi, Y) because
    [xi, xi] = 0.  So the check is ``xi_in_ker_deta``, at PREDICATE_TOL:
    it returns True, or raises KerConditionViolation where xi is not in
    ker d_eta.
    """
    if not xi_in_ker_deta(L, s):
        raise KerConditionViolation("precondition failed: xi is not in ker d_eta")
    return True


def is_contact_metric(L: LieAlgebra3, s: AlmostContactStructure, g: Metric3) -> bool:
    """True iff d_eta(X, Y) = Phi(X, Y) on all basis pairs, i.e. the d_eta matrix equals g phi, to PREDICATE_TOL."""
    gap = _deta_matrix(L.c, s.eta) - g.g @ s.phi
    return bool(np.abs(gap[_UPPER]).max() <= PREDICATE_TOL)


def eta_wedge_deta(L: LieAlgebra3, s: AlmostContactStructure) -> float:
    """(eta ^ d_eta)(e1, e2, e3) = (1/2) eps^{ijk} eta_i d_eta_jk."""
    return float(0.5 * np.einsum("ijk,i,jk->", _LEVI_CIVITA, s.eta, _deta_matrix(L.c, s.eta)))


def is_contact_form(L: LieAlgebra3, s: AlmostContactStructure) -> bool:
    """True iff the 3-form eta ^ d_eta is nonzero: |(eta ^ d_eta)(e1, e2, e3)| above PREDICATE_TOL."""
    return abs(eta_wedge_deta(L, s)) > PREDICATE_TOL


def nijenhuis_normality_residual(L: LieAlgebra3, s: AlmostContactStructure) -> float:
    """Max norm over basis pairs of N = [phi, phi] + 2 d_eta (x) xi.

    N(X, Y) = phi^2 [X,Y] + [phi X, phi Y] - phi [phi X, Y] - phi [X, phi Y]
              + 2 d_eta(X, Y) xi;
    the structure is normal when the residual vanishes.  N is evaluated on
    every basis pair at once (``_normality``); its antisymmetry is asserted
    as an internal consistency check.
    """
    antisymmetric, residual = _normality(L.c, L.scale, s.phi, s.xi, s.eta)
    if not antisymmetric:
        raise AssertionError("normality tensor is not antisymmetric")
    return float(residual)


def _normality(c: np.ndarray, scale, phi: np.ndarray, xi: np.ndarray, eta: np.ndarray):
    """(N antisymmetric to IDENTITY_RTOL relative to the data, max |N(e_i, e_j)| over i < j), over a leading axis."""
    N = _nijenhuis(c, phi, xi, eta)
    upper, lower = N[..., _UPPER[0], _UPPER[1], :], N[..., _UPPER[1], _UPPER[0], :]
    size = np.maximum(1.0, scale) * np.abs(phi).max(axis=(-2, -1), initial=1.0) ** 2
    return np.abs(upper + lower).max(axis=(-2, -1)) <= IDENTITY_RTOL * size, np.abs(upper).max(axis=(-2, -1))


def _nijenhuis(c: np.ndarray, phi: np.ndarray, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """N[..., i, j, :] = N(e_i, e_j) as contractions of the structure constants.

    c has shape (..., 3, 3, 3), phi (..., 3, 3), xi and eta (..., 3).
    """
    phi_x = np.einsum("...ai,...ajk->...ijk", phi, c)  # [phi e_i, e_j]
    phi_y = np.einsum("...bj,...ibk->...ijk", phi, c)  # [e_i, phi e_j]
    phi_xy = np.einsum("...ai,...bj,...abk->...ijk", phi, phi, c)  # [phi e_i, phi e_j]
    phi_t = np.swapaxes(phi, -1, -2)[..., None, :, :]
    N = c @ np.swapaxes(phi @ phi, -1, -2)[..., None, :, :] + phi_xy - (phi_x + phi_y) @ phi_t
    return N + 2.0 * _deta_matrix(c, eta)[..., None] * xi[..., None, None, :]
