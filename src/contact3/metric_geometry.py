"""Left-invariant Riemannian geometry of a 3D metric Lie algebra.

With the metric fixed on the algebra, the connection is the Koszul
formula restricted to constant-coefficient fields,

    2 g(nabla_x y, z) = g([x,y], z) - g([y,z], x) + g([z,x], y),

and a unit vector x is geodesic (nabla_x x = 0) exactly when
g([x, e_i], x) = 0 for all basis vectors.  For the adapted-form algebras
the unit geodesic set is computed in closed form case by case, and a
brute-force sphere scan is provided as an independent oracle.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
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
    bracket,
)
from .tolerances import IDENTITY_RTOL, PREDICATE_TOL

Vector = np.ndarray


def _points(x) -> np.ndarray:
    """x as a float array of one 3-vector, shape (3,), or of rows, shape (n, 3)."""
    v = np.asarray(x, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] != 3:
        raise ValueError(f"expected a 3-vector or an (n, 3) array, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector components must be finite")
    return v


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # row-wise a . b as a stack of vector-vector products: per row the same
    # arithmetic as ``a @ b`` on 3-vectors, so a batch and a loop agree bitwise
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norm(a: np.ndarray) -> np.ndarray:
    # per row the same arithmetic as ``np.linalg.norm`` of a 3-vector
    return np.sqrt(_dot(a, a))


def _scalar_or_array(d: np.ndarray) -> float | np.ndarray:
    return float(d) if d.ndim == 0 else d


@dataclass(frozen=True, eq=False)
class Metric3:
    """Symmetric positive definite inner product matrix on the fixed basis."""

    g: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        if g.shape != (3, 3):
            raise ValueError("metric must be a 3x3 matrix")
        if not np.all(np.isfinite(g)):
            raise ValueError("metric entries must be finite")
        if np.abs(g - g.T).max() > IDENTITY_RTOL * np.abs(g).max():
            raise ValueError("metric must be symmetric")
        if np.linalg.eigvalsh(g).min() <= 0.0:
            raise ValueError("metric must be positive definite")
        g.setflags(write=False)
        object.__setattr__(self, "g", g)

    @classmethod
    def identity(cls) -> "Metric3":
        return cls(np.eye(3))

    def inner(self, x, y) -> float:
        return float(_as_vector(x) @ self.g @ _as_vector(y))

    def norm(self, x) -> float:
        return math.sqrt(max(self.inner(x, x), 0.0))


_I3 = Metric3.identity()


def _connection(L: LieAlgebra3, g: Metric3):
    """(x, y) -> nabla_x y on vectors, from one Koszul tensor.

    With C[i, j, k] = g([e_i, e_j], e_k), the Koszul tensor is
    K[i, j, k] = C[i, j, k] - C[j, k, i] + C[k, i, j], and
    nabla_x y = (1/2) g^-1 (x_i y_j K[i, j, :]).
    """
    C = L.c @ g.g
    K = C - np.einsum("jki->ijk", C) + np.einsum("kij->ijk", C)
    return lambda x, y: 0.5 * np.linalg.solve(g.g, np.einsum("i,j,ijk->k", x, y, K))


def levi_civita(L: LieAlgebra3, g: Metric3, x, y) -> Vector:
    """nabla_x y for constant-coefficient fields (Koszul formula)."""
    return _connection(L, g)(_as_vector(x), _as_vector(y))


def _defect_matrices(c: np.ndarray, g: Metric3) -> np.ndarray:
    # M_i symmetric with x^T M_i x = g([x, e_i], x), for structure constants
    # c of shape (..., 3, 3, 3)
    Q = np.einsum("...jik,km->...ijm", c, g.g)
    return 0.5 * (Q + np.swapaxes(Q, -1, -2))


def geodesic_defect(L: LieAlgebra3, g: Metric3, x) -> float | np.ndarray:
    """max_i |g([x, e_i], x)| = max_i |x^T M_i x|; zero exactly on geodesic vectors.

    The matrices M_i are the ones the sphere-scan oracle scans with.  x is
    one vector (the result is a float) or an (n, 3) array of them (the
    result is an array).
    """
    x = _points(x)
    d = np.abs(_kernels.residual_batch(_defects(L, g), x.reshape(-1, 3))).max(axis=1)
    return _scalar_or_array(d.reshape(x.shape[:-1]))


def _defects(L: LieAlgebra3, g: Metric3) -> np.ndarray:
    """``_defect_matrices(L.c, g)``; the identity metric's are kept on the algebra."""
    return L._defect if g is _I3 else _defect_matrices(L.c, g)


def _identity_defect_matrices(L: LieAlgebra3) -> np.ndarray:
    # ``LieAlgebra3._defect``: shared between calls, hence read-only
    M = _defect_matrices(L.c, _I3)
    M.setflags(write=False)
    return M


def is_geodesic_vector(L: LieAlgebra3, g: Metric3, x) -> bool:
    """True iff |g([x, e_i], x)| <= PREDICATE_TOL * L.scale * |x|^2 for every basis vector.

    Equivalent to nabla_x x = 0; the connection-based restatement is kept
    as a separate code path (``levi_civita``) so the two can be checked
    against each other.  Both sides are of degree 2 in x, so x is first
    scaled exactly by a power of two to max |x_i| in [1/2, 1): neither side
    over- or underflows, whatever |x|.
    """
    x = _as_vector(x)
    if not x.any():
        raise ValueError("the zero vector cannot be a geodesic vector")
    x = np.ldexp(x, -np.frexp(np.abs(x).max())[1])
    defect = np.abs(_kernels.residual_batch(_defects(L, g), x[None, :])[0]).max()
    return bool(defect <= PREDICATE_TOL * L.scale * _dot(x @ g.g, x))


def _fold(t):
    # angle modulo pi, elementwise; tiny negative angles round to pi under
    # the modulo, which is the same line as 0
    t = t % math.pi
    return t * (t < math.pi)


def _atan2(y, x):
    # math.atan2 elementwise over numbers or arrays of one shape: numpy's
    # arctan2 can differ from it in the last bit
    if np.ndim(y) == 0:
        return math.atan2(y, x)
    return np.array(list(map(math.atan2, np.ravel(y).tolist(), np.ravel(x).tolist()))).reshape(np.shape(y))


def _inplane_roots(a: float, h: float, d: float, scale: float) -> tuple[list[float], bool]:
    """(``inplane_geodesic_angles`` of alpha, h = (beta+gamma)/2 and delta, whether they pass the residual check).

    The batched atlas pass maps it over its rows, whose alpha + delta must
    be nonzero, as for any MilnorParameters.  It solves at the scale times
    2^-e in [1/4, 1), so no product over- or underflows; e is even, so the
    square roots rescale exactly too, and finite solves keep their angles.
    """
    e = math.frexp(scale)[1] + 1 & ~1
    a, h, d, scale = (math.ldexp(v, -e) for v in (a, h, d, scale))
    det = a * d - h * h
    if det > 0.0:
        return [], True
    mean = 0.5 * (a + d)  # nonzero: alpha + delta != 0
    big = mean + math.copysign(math.hypot(0.5 * (a - d), h), mean)
    lam_plus, lam_minus = (big, det / big) if big > 0.0 else (det / big, big)
    phi = 0.5 * math.atan2(2.0 * h, a - d)
    psi = math.atan2(math.sqrt(lam_plus), math.sqrt(-lam_minus))
    roots = sorted({_fold(phi + psi), _fold(phi - psi)})
    if len(roots) == 2 and min(roots[1] - roots[0], math.pi - roots[1] + roots[0]) <= IDENTITY_RTOL:
        del roots[1]
    residuals = [a * math.cos(t) ** 2 + 2.0 * h * math.sin(t) * math.cos(t) + d * math.sin(t) ** 2 for t in roots]
    return roots, all(abs(res) <= IDENTITY_RTOL * scale for res in residuals)


def inplane_geodesic_angles(params: MilnorParameters | tuple) -> list[float]:
    """Angles t in [0, pi) with alpha cos^2 t + (beta+gamma) sin t cos t + delta sin^2 t = 0.

    The roots are the null directions of S = [[alpha, h], [h, delta]],
    h = (beta+gamma)/2: phi +- atan2(sqrt(lam_plus), sqrt(-lam_minus)), with
    phi the angle of the lam_plus eigenvector.  The eigenvalue of smaller
    magnitude is det S / (the larger one), which avoids the cancellation
    of the quadratic formula, solved at an exact power-of-two rescale.
    Empty when det S > 0; roots within IDENTITY_RTOL are one, and each must
    solve the equation to IDENTITY_RTOL times the scale (ArithmeticError otherwise).
    """
    params = _as_milnor(params)
    roots, ok = _inplane_roots(params.alpha, 0.5 * (params.beta + params.gamma), params.delta, params.scale)
    if not ok:
        raise ArithmeticError(f"in-plane roots {roots!r} miss the residual check")
    return roots


def _line_angle(y, z):
    """The angle in [0, pi) of the line through y e2 + z e3, elementwise over numbers or arrays."""
    # flipping the sign into the upper half plane, unlike adding pi after atan2, loses no bits
    sign = 2.0 * (z >= 0.0) - 1.0
    return _fold(_atan2(sign * z, sign * y))


@dataclass(frozen=True, eq=False)
class CircleFamily:
    """Unit-circle family t -> cos(t) u + sin(t) v in the plane span{u, v}.

    ``angles`` restricts the admissible parameters; ``None`` means the full
    circle.  Angles live in [0, pi): each one stands for an antipodal pair.
    """

    u: np.ndarray
    v: np.ndarray
    angles: tuple[float, ...] | None = None
    normal: np.ndarray = field(init=False, repr=False, compare=False)  # u x v

    def __post_init__(self):
        u = _as_vector(self.u)
        v = _as_vector(self.v)
        n = np.array([u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]])
        for name, a in (("u", u), ("v", v), ("normal", n)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def point(self, t: float) -> Vector:
        return math.cos(t) * self.u + math.sin(t) * self.v

    def distance(self, x) -> float | np.ndarray:
        """Euclidean distance from unit x to the circle (full-circle case).

        x is one vector (the result is a float) or an (n, 3) array of them
        (the result is an array); a point on the normal is sqrt(2) away.
        """
        x = _points(x)
        n = self.normal
        y = x - _dot(x, n)[..., None] * n
        ny = _norm(y)[..., None]
        with np.errstate(divide="ignore", invalid="ignore"):
            d = _norm(x - y / ny)
        return _scalar_or_array(np.where(ny[..., 0] < 1e-15, math.sqrt(2.0), d))


@dataclass(frozen=True, eq=False)
class GeodesicEnumeration:
    """Closed-form description of the unit geodesic set.

    ``discrete`` holds isolated solutions; ``families`` holds circle
    families (full circles, or a circle with a finite admissible angle
    set).  The case tag records the parameter regime that produced it.
    """

    case_tag: str
    discrete: tuple[np.ndarray, ...]
    families: tuple[CircleFamily, ...]

    def __post_init__(self):
        # kept on the source object and shared between calls, so read-only, as CircleFamily's arrays
        discrete = tuple(map(_as_vector, self.discrete))
        for a in discrete:
            a.setflags(write=False)
        object.__setattr__(self, "discrete", discrete)

    def isolated_points(self) -> list[Vector]:
        """All isolated unit geodesic vectors, antipodes listed separately.

        These are ``discrete`` and both signs of each admissible angle; only
        A2 has admissible angles, and A2 has no full circle to absorb them.
        """
        pts = [np.array(p) for p in self.discrete]
        for fam in self.families:
            if fam.angles is not None:
                for x in map(fam.point, fam.angles):
                    pts += [x, -x]
        return pts

    def inplane_angles(self) -> list[float]:
        """Angles t in [0, pi) of the enumerated lines cos(t) e2 + sin(t) e3.

        These are the in-plane roots: the A2 family angles, or on p = +-r
        the circle's crossing of the e2-e3 plane and the transverse pair.
        """
        if self.case_tag == "A2":
            return list(self.families[0].angles)
        if self.case_tag[0] not in "BC":
            return []
        return sorted(_line_angle(*x[1:].tolist()) for x in (self.families[0].v, *self.discrete[:1]))

    def distance_to_set(self, x) -> float | np.ndarray:
        """Euclidean distance from unit x to the enumerated geodesic set.

        x is one vector (the result is a float) or an (n, 3) array of them
        (the result is an array).
        """
        x = _points(x)
        best = np.full(x.shape[:-1], math.inf)
        for p in self.discrete:
            best = np.minimum(best, _norm(x - p))
        for fam in self.families:
            if fam.angles is None:
                best = np.minimum(best, fam.distance(x))
            else:
                for t in fam.angles:
                    pt = fam.point(t)
                    best = np.minimum(best, np.minimum(_norm(x - pt), _norm(x + pt)))
        return _scalar_or_array(best)


# the angles at which ``_check_enumeration`` probes a full circle
_CIRCLE_PROBES = np.linspace(0.0, 2.0 * math.pi, 13)


def _probe_faults(M: np.ndarray, probes: np.ndarray, scale) -> tuple[np.ndarray, np.ndarray]:
    """(some probe is not unit, some probe fails the geodesic gate) per probe set.

    ``probes`` has shape (..., k, 3) and ``M`` the matching defect matrices
    at the identity metric (``_defect_matrices``) of constants of max |c| =
    scale, shapes (..., 3, 3, 3) and (...); the gate is ``is_geodesic_vector``'s.
    """
    unit = np.all(np.abs(_norm(probes) - 1.0) <= IDENTITY_RTOL, axis=-1)
    defect = np.abs(_kernels.residual_batch(M, probes)).max(axis=-1)
    return ~unit, ~np.all(defect <= PREDICATE_TOL * np.asarray(scale)[..., None], axis=-1)


def _check_enumeration(L: LieAlgebra3, enum: GeodesicEnumeration) -> None:
    probes = list(enum.discrete)
    for fam in enum.families:
        ts = fam.angles if fam.angles is not None else _CIRCLE_PROBES
        probes.extend(fam.point(t) for t in ts)
    not_unit, not_geodesic = _probe_faults(L._defect, np.array(probes), L.scale)
    if not_unit:
        raise AssertionError("enumerated vector is not unit")
    if not_geodesic:
        raise AssertionError("enumerated vector fails the geodesic predicate")


# case tags in the order of the codes ``_regimes`` returns
_REGIMES = ("D", "generic", "B1", "B2", "C1", "C2")


def _regimes(p, q, r, scale):
    """Index into ``_REGIMES`` of the case tag: D, generic (A1/A2), B1, B2, C1 or C2.

    The rule of ``enumerate_unit_geodesics``: p = 0 and p = +-r hold to
    IDENTITY_RTOL * scale, q = 0 to IDENTITY_RTOL, and p = 0 wins a tie.
    Elementwise: the arguments are numbers or arrays, and plain arithmetic
    on booleans makes the number case as cheap as a branch.
    """
    tol = IDENTITY_RTOL * scale
    dm, dp = abs(p - r), abs(p + r)
    on_line = (dm <= tol) | (dp <= tol)
    return (1 - (abs(p) <= tol)) * (1 + on_line * (1 + 2 * (dm > tol) + (abs(q) <= IDENTITY_RTOL)))


def _regime(params: MilnorParameters) -> str:
    """The case tag of one algebra (``_regimes``)."""
    return _REGIMES[_regimes(params.p, params.q, params.r, params.scale)]


def _shear_directions(q) -> tuple[np.ndarray, np.ndarray]:
    """(q e2 - e3)/s, (e2 + q e3)/s: the B1 circle direction and its normal, C1 the reverse.

    For a 1-D array of q the directions are the rows of (n, 3) arrays.
    """
    s = np.sqrt(1.0 + q * q)
    zero, one = np.zeros_like(q), np.ones_like(q)
    return (np.array([zero, q, -one]) / s).T, (np.array([zero, one, q]) / s).T


def enumerate_unit_geodesics(
    params: MilnorParameters | tuple | None = None,
    functional: LinearFunctional | np.ndarray | None = None,
) -> GeodesicEnumeration:
    """All unit geodesic vectors of the algebra, in closed form.

    Dispatch on (p, q, r), by one relative rule: p = 0 and p = +-r hold to
    IDENTITY_RTOL * max(|alpha|, |beta|, |gamma|, |delta|), q = 0 to
    IDENTITY_RTOL (q is dimensionless), and p = 0 wins a tie.  Generic p
    gives the isolated +-e1 plus the in-plane solutions of the quadratic
    angle equation (tags A1/A2 by whether it has any); p = +-r gives a
    full great circle through e1, plus an isolated antipodal pair
    transverse to it when q != 0 (B1/C1) and nothing else when q = 0
    (B2/C2); p = 0 leaves only +-e1 (tag D); the rank-one functional
    algebra leaves only the dual direction (tag E).

    Every returned vector satisfies the geodesic predicate on the algebra
    kept on the input; the published case lists for B1/C1/D/E disagree with
    that predicate and are not reproduced (see the brute-force oracle).

    The enumeration is built and checked once per MilnorParameters or
    LinearFunctional object and kept on it: repeated calls with one
    object return the same enumeration, whose arrays are read-only.  A
    tuple or array input builds a fresh object, hence a fresh enumeration.
    """
    if (params is None) == (functional is None):
        raise ValueError("provide exactly one of params or functional")
    if functional is not None:
        return _as_functional(functional)._enumeration
    return _as_milnor(params)._enumeration


def _enumerate(source: MilnorParameters | LinearFunctional) -> GeodesicEnumeration:
    """``enumerate_unit_geodesics`` of one source object, built and checked; kept on the object."""
    tag = "E" if isinstance(source, LinearFunctional) else _regime(source)
    if tag == "E":
        enum = GeodesicEnumeration("E", (source.dual, -source.dual), ())
    elif tag == "D":
        enum = GeodesicEnumeration("D", (E1, -E1), ())
    elif tag == "generic":
        roots = inplane_geodesic_angles(source)
        families = (CircleFamily(E2, E3, tuple(roots)),) if roots else ()
        enum = GeodesicEnumeration("A2" if roots else "A1", (E1, -E1), families)
    elif tag in ("B2", "C2"):
        enum = GeodesicEnumeration(tag, (), (CircleFamily(E1, E3 if tag == "B2" else E2),))
    else:
        u, w = _shear_directions(source.q)
        iso, v = (E3, u) if tag == "B1" else (E2, w)
        enum = GeodesicEnumeration(tag, (iso, -iso), (CircleFamily(E1, v),))
    _check_enumeration(source._algebra, enum)
    return enum


# -- brute-force oracle ---------------------------------------------------


@functools.lru_cache(maxsize=4)
def _hemisphere_trig(grid: int) -> tuple[np.ndarray, ...]:
    """sin theta, cos theta, cos phi and sin phi of the upper half of the lattice.

    The oracle lattice has ``grid`` rows theta_i = pi (i + 1/2) / grid and
    ``grid`` columns phi_j = 2 pi j / grid.  Its upper half keeps the rows
    below pi/2, plus the equator row when ``grid`` is odd: ceil(grid / 2)
    rows.  Built once per size and shared, hence read-only.
    """
    th = math.pi * (np.arange((grid + 1) // 2) + 0.5) / grid
    ph = 2.0 * math.pi * np.arange(grid) / grid
    trig = (np.sin(th), np.cos(th), np.cos(ph), np.sin(ph))
    for a in trig:
        a.setflags(write=False)
    return trig


def _hemisphere_points(grid: int, idx: np.ndarray | None = None) -> np.ndarray:
    """Points ``idx`` (all by default) of the upper half-lattice, shape (n, 3).

    Point i * grid + j is (sin theta_i cos phi_j, sin theta_i sin phi_j,
    cos theta_i), the same bits whichever points are asked for.
    """
    st, ct, cp, sp = _hemisphere_trig(grid)
    i, j = np.divmod(np.arange(len(st) * grid) if idx is None else idx, grid)
    return np.stack([st[i] * cp[j], st[i] * sp[j], ct[i]], axis=-1)


# the coarse scan's blocks of _BLOCK x _BLOCK half-lattice points, and the
# rounding slack of its prune bound, relative to the bound and to the scale
_BLOCK = 8
_PRUNE_RTOL = 1e-9


@functools.lru_cache(maxsize=4)
def _block_table(grid: int) -> tuple[np.ndarray, ...]:
    """The half-lattice in nb blocks of s = _BLOCK^2 points, read-only.

    Monomials (6, nb) of the block centres, unit vectors at the blocks'
    mid-angles; the block radii about them (nb,); and the point monomials
    (6, nb, s), with the bits of ``monomial_table``.  Block nbj bi + bj,
    slot _BLOCK si + sj holds lattice row _BLOCK bi + si and column
    _BLOCK bj + sj; edge blocks repeat their last row or column.
    """
    st, ct, cp, sp = _hemisphere_trig(grid)
    # each block's lattice rows (columns) in slot order, clipped to the last
    ic = np.minimum(np.arange(0, len(st), _BLOCK)[:, None] + np.arange(_BLOCK), len(st) - 1)
    jc = np.minimum(np.arange(0, grid, _BLOCK)[:, None] + np.arange(_BLOCK), grid - 1)
    # slot (bi, bj, si, sj) holds lattice point (ic[bi, si], jc[bj, sj])
    rows, cols = ic[:, None, :, None], jc[None, :, None, :]
    X = np.empty((3, len(ic), len(jc), _BLOCK, _BLOCK))
    np.multiply(st[rows], cp[cols], out=X[0])
    np.multiply(st[rows], sp[cols], out=X[1])
    X[2] = ct[rows]
    X = X.reshape(3, -1, _BLOCK * _BLOCK)
    P = _kernels._monomials(X)
    th = math.pi * (0.5 * (ic[:, :1] + ic[:, -1:]) + 0.5) / grid
    ph = math.pi * (jc[:, 0] + jc[:, -1]) / grid
    c = np.stack(np.broadcast_arrays(np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th))).reshape(3, -1)
    X -= c[:, :, None]
    X *= X
    table = (_kernels.monomial_table(c.T), np.sqrt((X[0] + X[1] + X[2]).max(axis=1)), P)
    for a in table:
        a.setflags(write=False)
    return table


def _coarse_scan(M: np.ndarray, scale: float, grid: int, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Ascending half-lattice indices of the points with defect <= ``tau``, and their defects.

    For unit x and c, x^T M_k x - c^T M_k c = (x - c)^T M_k (x + c), so the
    defect moves by at most lip |x - c|, lip = 2 max_k |M_k|_F: only blocks
    whose centre defect is at most tau + lip * radius are scanned, and the
    result has the bits of a scan of the whole half-lattice.
    """
    centres, radius, P = _block_table(grid)
    # lip = 2 scale |M_k / scale|_F, with no power of the scale formed
    lip = 2.0 * scale * float(np.sqrt(np.square(M / scale).sum(axis=(1, 2))).max())
    bound = (tau + lip * radius) * (1.0 + _PRUNE_RTOL) + _PRUNE_RTOL * scale
    keep = np.flatnonzero(_kernels.defect_max_batch(M, centres.T) <= bound)
    F = _kernels.defect_max_batch(M, np.take(P, keep, axis=1).reshape(6, -1).T)
    hit = np.flatnonzero(F <= tau)
    # each hit's lattice row and column (``_block_table``) and its index,
    # -1 on an edge block's repeats, which sort first
    b, s = np.divmod(hit, _BLOCK * _BLOCK)
    (bi, bj), (si, sj) = np.divmod(keep[b], -(-grid // _BLOCK)), np.divmod(s, _BLOCK)
    i, j = _BLOCK * bi + si, _BLOCK * bj + sj
    idx = np.where((i < (grid + 1) // 2) & (j < grid), i * grid + j, -1)
    order = np.argsort(idx)[np.count_nonzero(idx < 0) :]
    return idx[order], F[hit[order]]


def _sphere_grid(grid: int) -> np.ndarray:
    """The whole oracle lattice: the hemisphere, then its exact negation."""
    H = _hemisphere_points(grid)
    return np.concatenate([H, -H])


# the offsets (i, j, 0) of the 9 columns of 3 cells around a cell: cells
# (i, j, k - 1), (i, j, k) and (i, j, k + 1) have consecutive ids
_COLUMNS = np.array([(i, j, 0) for i in (-1, 0, 1) for j in (-1, 0, 1)])
# pairs per block of ``_neighbour_pairs`` and per row block of the far
# scan, both in ``_nearest_distance``; at most ``_DENSE_PAIRS`` pairs in
# all, the far scan alone is cheaper than building the cell index
_BLOCK_PAIRS = 1 << 18
_DENSE_PAIRS = 1 << 11


def _cell_ids(keys: np.ndarray, w: int) -> np.ndarray:
    # one integer per integer cell key with components in (-w, w): balanced
    # digits in base 2w, so ids are unique and the id of key + offset is the
    # key's id plus the offset's
    return (keys[..., 0] * (2 * w) + keys[..., 1]) * (2 * w) + keys[..., 2]


def _run_starts(x: np.ndarray) -> np.ndarray:
    # True where a run of equal values of x begins
    starts = np.ones(len(x), dtype=bool)
    np.not_equal(x[1:], x[:-1], out=starts[1:])
    return starts


def _cell_keys(radius: float, *arrays: np.ndarray) -> tuple[list[np.ndarray], int]:
    """Integer cell keys (side ``radius``) of each array's rows, and the w of ``_cell_ids``.

    Raises ValueError when the ids, up to (2w)^3 / 2 in magnitude, would
    overflow int64.
    """
    keys = [np.floor(x / radius) for x in arrays]
    top = max(np.abs(k).max(initial=0.0) for k in keys)
    if not top < 2.0**62 or (2 * (int(top) + 2)) ** 3 >= 2**63:
        raise ValueError(f"cell keys up to {top:.3g} (radius {radius!r}) overflow the int64 cell ids")
    return [k.astype(np.int64) for k in keys], int(top) + 2


def _neighbour_pairs(a: np.ndarray, b: np.ndarray, radius: float):
    """Blocks ``(rows, cols, d2)`` of the pairs with b[col] in the 27 cells around a[row].

    Cells have side ``radius``, so every pair closer than ``radius`` is
    there, up to the rounding of a / radius at cell faces.  Rows ascend
    through the blocks, a row never spans two, and a block holds about
    ``_BLOCK_PAIRS`` pairs (at least one row).  d2 is
    (e0 e0 + e1 e1) + e2 e2 with e = a[row] - b[col], the bits of
    ``((a[rows] - b[cols]) ** 2).sum(axis=-1)``.  Raises ValueError, on
    the first block, when the cell ids would overflow int64
    (``_cell_keys``).  It serves ``_nearest_distance``.
    """
    (ka, kb), w = _cell_keys(radius, a, b)
    ids = _cell_ids(kb, w)
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    # coordinates as rows, b's in cell order: the gathers below stay 1-D
    at, bt = np.ascontiguousarray(a.T), b[order].T.copy()
    columns = _cell_ids(ka, w)[:, None] + _cell_ids(_COLUMNS, w)
    lo = np.searchsorted(ids, columns - 1, "left")
    count = np.searchsorted(ids, columns + 1, "right") - lo
    per_row = count.sum(axis=1)
    ends = np.cumsum(per_row)
    start = 0
    while start < len(a):
        # the rows whose pairs fit in one block, at least one row
        base = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + _BLOCK_PAIRS, "right")))
        c, l, n = count[start:stop].ravel(), lo[start:stop].ravel(), per_row[start:stop]
        # the position in bt of each pair: its range's start plus its rank in the range
        pos = np.arange(n.sum()) + np.repeat(l - np.cumsum(c) + c, c)
        e = np.repeat(at[:, start:stop], n, axis=1)
        e -= np.take(bt, pos, axis=1)
        e *= e
        yield np.repeat(np.arange(start, stop), n), np.take(order, pos), (e[0] + e[1]) + e[2]
        start = stop


def _cell_dedup(points: np.ndarray, defects: np.ndarray, radius: float) -> np.ndarray:
    """One of ``points`` per occupied cell of side ``radius``, in no promised order.

    Each cell keeps its point of lowest defect, the lowest index on a tie.
    Raises ValueError when the cell ids would overflow int64
    (``_cell_keys``).
    """
    (keys,), w = _cell_keys(radius, points)
    ids = _cell_ids(keys, w)
    order = np.argsort(ids)
    ids, d = ids[order], defects[order]
    start = np.flatnonzero(_run_starts(ids))
    hit = np.flatnonzero(d == np.repeat(np.minimum.reduceat(d, start), np.diff(start, append=len(d))))
    return points[np.minimum.reduceat(order[hit], np.flatnonzero(_run_starts(ids[hit])))]


# the oracle's dedup cell side; the defect (relative to the scale of the
# M_i) below which a refined point is kept; the largest grid, whose
# half-lattice tables (``_block_table``) take about 24 grid^2 bytes
_MERGE_RADIUS = 1e-3
_KEEP_RTOL = 1e-10
_MAX_GRID = 4096


def _check_grid(grid: int) -> None:
    if not isinstance(grid, numbers.Integral) or isinstance(grid, bool) or not 100 <= grid <= _MAX_GRID:
        raise ValueError(f"grid must be at least 100, at most {_MAX_GRID} and an integer, not {grid!r}")


def geodesic_brute_force(L: LieAlgebra3, g: Metric3 | None = None, grid: int = 400) -> np.ndarray:
    """Sphere-scan oracle for the unit geodesic set, independent of the closed forms.

    The lattice is ``grid`` x ``grid`` points in (theta, phi).  The defect
    is even in x, so the scan covers the upper half of the lattice
    (``_hemisphere_trig``: ceil(grid / 2) * grid points) from cached
    monomials, coarse to fine (``_coarse_scan``): at the centre of each
    block of 8 x 8 points, then in the blocks whose centre is within a
    Lipschitz bound of the cut, with the survivors of a full scan.  The
    points whose defect clears that coarse, grid-spacing-aware cut are
    rebuilt from (theta, phi) and thinned to one per occupied cell of side
    h = 2 pi / grid, the one of lowest coarse defect (``_cell_dedup``), as
    the rows crowd together near the pole.  The seeds are refined by exact
    roots along the gradient of their worst residual
    (``_kernels.refine_batch``) until the defect falls below ~1e-13
    relative to the structure-constant scale (isolated zeros of the
    adapted form can be quadratically flat, so the refinement target sits
    well under the 1e-10 acceptance cut).  Refinement is
    exactly odd, so the refined points and their bitwise negations, with
    equal defects, are what refining the seeds and their negations would
    give.  That cloud is reduced to one point per occupied cell of
    side ``_MERGE_RADIUS`` (``_cell_dedup``) and returned as the rows of an
    (n, 3) array, in no promised order; one zero of the defect may give a
    few nearby points, which ``oracle_match`` counts as one cluster.
    If the structure constants vanish (every vector is geodesic), a
    decimated subset of the whole lattice is returned unrefined.
    """
    _check_grid(grid)
    M = _defect_matrices(L.c, _I3 if g is None else g)
    scale = float(np.abs(M).max())
    if scale == 0.0:
        return _whole_sphere(grid)
    h = 2.0 * math.pi / grid
    idx, cd = _coarse_scan(M, scale, grid, 3.0 * scale * h)
    if not len(idx):
        return np.zeros((0, 3))
    seeds = _cell_dedup(_hemisphere_points(grid, idx), cd, h)
    target = 1e-13 * scale
    refined, fr = _kernels.refine_batch(M, seeds, 3.0 * h, target)
    ok = fr <= _KEEP_RTOL * scale
    if not ok.any():
        return np.zeros((0, 3))
    pts = refined[ok]
    return _cell_dedup(np.concatenate([pts, -pts]), np.tile(fr[ok], 2), _MERGE_RADIUS)


def _whole_sphere(grid: int) -> np.ndarray:
    # about 512 points spread over the whole lattice
    X = _sphere_grid(grid)
    return X[:: max(1, len(X) // 512)].copy()


@dataclass(frozen=True)
class OracleAgreement:
    """Comparison between a closed-form enumeration and oracle output."""

    max_oracle_to_set: float  # worst oracle point, distance to enumerated set
    max_isolated_to_oracle: float  # worst enumerated isolated point, distance to oracle
    family_coverage_gap: float  # worst gap along full-circle families (grid-limited)
    n_isolated_oracle: int  # isolated clusters of oracle points (``oracle_match``)
    n_isolated_enum: int

    @property
    def agreement(self) -> float:
        return max(self.max_oracle_to_set, self.max_isolated_to_oracle)

    @property
    def counts_match(self) -> bool:
        return self.n_isolated_oracle == self.n_isolated_enum


def _nearest_distance(
    a: np.ndarray, b: np.ndarray, radius: float, after: np.ndarray | None = None, within: float = 0.0
) -> np.ndarray:
    """Distance from each row a[i] to the nearest row of b (inf if none).

    With ``after``, a[i] ignores the rows b[j] with j >= after[i] that lie
    within ``within`` of it (d2 <= within^2); after[i] = len(b) ignores
    none.  Exact for any ``radius``, which sets only the cost: rows of b
    within ``radius`` of a row lie in the 27 cells around it (up to face
    rounding in ``_cell_keys``), so the minimum over its
    ``_neighbour_pairs`` finds the nearest one; other rows are scanned
    against all of b, in blocks of about ``_BLOCK_PAIRS`` pairs, never
    len(a) x len(b).  At most ``_DENSE_PAIRS`` pairs, every row is
    scanned that way.  Each distance is sqrt(sum((a_i - b_j)^2)), the
    arithmetic of ``np.linalg.norm``.
    """
    best = np.full(len(a), math.inf)
    w2 = within * within
    if len(a) * len(b) <= _DENSE_PAIRS:
        _cell_keys(radius, a, b)  # the cell search's ValueError
        far = np.arange(len(a))
    else:
        for rows, cols, d2 in _neighbour_pairs(a, b, radius):
            if after is not None:
                d2[(cols >= after[rows]) & (d2 <= w2)] = math.inf
            if len(rows):
                starts = np.flatnonzero(_run_starts(rows))
                best[rows[starts]] = np.minimum.reduceat(d2, starts)
        far = np.flatnonzero(best > radius * radius)
    step = max(1, _BLOCK_PAIRS // max(len(b), 1))
    for s in range(0, len(far), step):
        i = far[s : s + step]
        d2 = ((a[i, None, :] - b[None, :, :]) ** 2).sum(axis=-1)
        if after is not None:
            d2[(np.arange(len(b)) >= after[i, None]) & (d2 <= w2)] = math.inf
        best[i] = d2.min(axis=1, initial=math.inf)
    return np.sqrt(best)


def oracle_match(enum: GeodesicEnumeration, points: np.ndarray, grid: int) -> OracleAgreement:
    """Score oracle output against the enumeration.

    ``points`` holds the oracle's unit vectors as rows (or one 3-vector),
    as ``geodesic_brute_force`` returns them: one point per occupied cell
    of side ``_MERGE_RADIUS``, so one zero of the defect may show as a
    few nearby points.  With h = 2 pi / grid the lattice spacing, the
    isolated oracle points are counted as clusters: point i counts when
    no point of lower index lies within 3.5 h and no point lies at a
    distance in (2 ``_MERGE_RADIUS``, 3.5 h].  Equivalently, its nearest
    point is farther than 3.5 h once the points j >= i within
    2 ``_MERGE_RADIUS`` of it are ignored.  A lone cluster is counted
    once, at its lowest index; along full circles the points chain at
    about one point per cell of side h (the oracle refines one seed per
    such cell; the widest spacing seen, on the verify and benchmark
    corpora, is 1.004 h, 3.5x under the 3.5 h cut), so the two
    populations separate cleanly.  A counted point's cell of side 1.75 h
    holds only points within 3.5 h of it, hence within 2
    ``_MERGE_RADIUS``, so only the points of cells that span at most
    4 ``_MERGE_RADIUS`` in each coordinate are candidates.  The family
    coverage gap is the worst distance from 720 samples of each full
    circle to the nearest oracle point.  One ``_nearest_distance`` search,
    in cells of side 1.75 h, serves the enumerated isolated points, the
    circle samples and the candidates; only the candidates ignore points.
    Memory is linear.  Raises ValueError for a grid that
    ``geodesic_brute_force`` rejects and for malformed or empty ``points``.
    """
    _check_grid(grid)
    pts = _points(points).reshape(-1, 3)
    if len(pts) == 0:
        raise ValueError("oracle returned no points")
    h = 2.0 * math.pi / grid
    d_o2s = float(enum.distance_to_set(pts).max())
    iso = np.array(enum.isolated_points()).reshape(-1, 3)
    ts = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)[:, None]
    circles = [np.cos(ts) * f.u + np.sin(ts) * f.v for f in enum.families if f.angles is None]
    (keys,), w = _cell_keys(1.75 * h, pts)
    ids = _cell_ids(keys, w)
    order = np.argsort(ids)
    start = np.flatnonzero(_run_starts(ids[order]))
    by_cell = pts[order]
    span = np.maximum.reduceat(by_cell, start) - np.minimum.reduceat(by_cell, start)
    # 1e-9 of slack for the rounding of the spans and of the distances
    tight = (span <= 4.0 * _MERGE_RADIUS * (1.0 + 1e-9)).all(axis=1)
    rows = order[np.repeat(tight, np.diff(start, append=len(pts)))]
    # the enumerated points and the circle samples ignore no oracle point (after = len(pts))
    n_free = len(iso) + 720 * len(circles)
    after = np.append(np.full(n_free, len(pts)), rows)
    queries = np.concatenate([iso, *circles, pts[rows]])
    d = _nearest_distance(queries, pts, 1.75 * h, after, 2.0 * _MERGE_RADIUS)
    d_i2o = float(d[: len(iso)].max(initial=0.0))
    gap = float(d[len(iso) : n_free].max(initial=0.0))
    n_iso = int((d[n_free:] > 3.5 * h).sum())
    return OracleAgreement(d_o2s, d_i2o, gap, n_iso, len(iso))


def sectional_curvature(L: LieAlgebra3, g: Metric3, x, y) -> float:
    """K(x, y) from the curvature tensor of the left-invariant connection."""
    x = _as_vector(x)
    y = _as_vector(y)
    den = g.inner(x, x) * g.inner(y, y) - g.inner(x, y) ** 2
    if den <= 1e-12 * max(g.inner(x, x) * g.inner(y, y), 1e-300):
        raise ValueError("x and y are linearly dependent")
    nab = _connection(L, g)
    R = nab(x, nab(y, y)) - nab(y, nab(x, y)) - nab(bracket(L, x, y), y)
    return float(R @ g.g @ x) / den
