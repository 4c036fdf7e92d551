"""Three-dimensional real Lie algebras by structure constants.

The algebra lives on a fixed vector space with basis ``{e1, e2, e3}``;
``c[i, j, k]`` is the coefficient of ``e_k`` in ``[e_i, e_j]``.  Two
canonical constructions are provided: the adapted non-unimodular form

    [e1, e2] = alpha e2 + beta e3,
    [e1, e3] = gamma e2 + delta e3,
    [e2, e3] = 0,

with ``alpha*gamma + beta*delta = 0`` and ``alpha + delta != 0``, and the
rank-one form ``[x, y] = l(x) y - l(y) x`` for a nonzero covector ``l``.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .tolerances import IDENTITY_RTOL, PREDICATE_TOL

Vector = np.ndarray

# the basis vectors, shared by every caller and by the enumerations, hence read-only
_EYE = np.eye(3)
_EYE.setflags(write=False)
E1, E2, E3 = _EYE


def _as_vector(x) -> Vector:
    v = np.asarray(x, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector components must be finite")
    return v


@dataclass(frozen=True, eq=False)
class LieAlgebra3:
    """Bracket on R^3 given by antisymmetric structure constants."""

    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.shape != (3, 3, 3):
            raise ValueError("structure constants must have shape (3, 3, 3)")
        if not np.all(np.isfinite(c)):
            raise ValueError("structure constants must be finite")
        if np.abs(c + np.swapaxes(c, 0, 1)).max() > IDENTITY_RTOL * np.abs(c).max():
            raise ValueError("structure constants are not antisymmetric in (i, j)")
        c.setflags(write=False)
        object.__setattr__(self, "c", c)

    @property
    def scale(self) -> float:
        return float(np.abs(self.c).max())

    _D = functools.cached_property(lambda self: _invariant_D(self))  # ``invariant_D``, computed once
    # ``_defect_matrices`` at the identity metric, built once, read-only
    _defect = functools.cached_property(lambda self: _geometry()._identity_defect_matrices(self))


def _geometry():
    # ``metric_geometry`` imports this module, so it is imported on first use
    from . import metric_geometry

    return metric_geometry


def _real(name: str, v) -> float:
    if not isinstance(v, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {type(v).__name__}")
    return float(v)


def _adapted_coefficients(p, q, r):
    """(alpha, beta, gamma, delta) = (r + p, (r + p) q, -(r - p) q, r - p), elementwise."""
    return r + p, (r + p) * q, -(r - p) * q, r - p


def _milnor_gates(a, b, g, d):
    """(scale, scale > 0, column orthogonality, alpha + delta != 0), elementwise; a NaN fails all.

    The last two are relative to the scale max |coefficient|, which divides
    alpha gamma + beta delta first so that it cannot overflow (1 does
    where every coefficient is 0, which the second gate fails).
    """
    scale = np.abs((a, b, g, d)).max(axis=0)
    div = scale + (scale == 0.0)
    orthogonal = abs(a / div * g + b / div * d) <= IDENTITY_RTOL * scale
    return scale, scale > 0.0, orthogonal, abs(a + d) > IDENTITY_RTOL * scale


def _non_unimodular(trace, scale):
    """The unimodularity test, elementwise: |trace ad| above PREDICATE_TOL times the scale max |c|."""
    return trace > PREDICATE_TOL * scale


@dataclass(frozen=True)
class MilnorParameters:
    """Coefficients (alpha, beta, gamma, delta) of the adapted bracket form.

    Derived coordinates: r = (alpha+delta)/2, p = (alpha-delta)/2 and the
    shear ratio q with beta = (r+p) q, gamma = -(r-p) q.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float
    p: float = field(init=False)
    q: float = field(init=False)
    r: float = field(init=False)

    def __post_init__(self):
        names = ("alpha", "beta", "gamma", "delta")
        a, b, g, d = (_real(name, getattr(self, name)) for name in names)
        for name, v in zip(names, (a, b, g, d)):
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite")
        _, nonzero, orthogonal, non_unimodular = _milnor_gates(a, b, g, d)
        if not nonzero:
            raise ValueError("all coefficients are zero (abelian, hence unimodular)")
        if not orthogonal:
            raise ValueError(
                f"column-orthogonality violated: alpha*gamma + beta*delta = {a * g + b * d!r}"
            )
        if not non_unimodular:
            raise ValueError("alpha + delta = 0: the algebra would be unimodular")
        p, q, r = pqr_from_milnor(a, b, g, d)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "delta", d)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", float(q))
        object.__setattr__(self, "r", r)

    @classmethod
    def from_pqr(cls, p: float, q: float, r: float) -> "MilnorParameters":
        p, q, r = (_real(name, v) for name, v in zip("pqr", (p, q, r)))
        if r == 0.0:
            raise ValueError("r = 0 gives alpha + delta = 0 (unimodular)")
        return cls(*_adapted_coefficients(p, q, r))

    @property
    def scale(self) -> float:
        return max(abs(self.alpha), abs(self.beta), abs(self.gamma), abs(self.delta))

    @functools.cached_property
    def _algebra(self) -> LieAlgebra3:  # ``from_milnor``, built once
        a, b, g, d = self.alpha, self.beta, self.gamma, self.delta
        c = np.zeros((3, 3, 3))
        c[0, 1] = (0.0, a, b)
        c[1, 0] = (0.0, -a, -b)
        c[0, 2] = (0.0, g, d)
        c[2, 0] = (0.0, -g, -d)
        return LieAlgebra3(c)

    # ``enumerate_unit_geodesics``, built and checked once
    _enumeration = functools.cached_property(lambda self: _geometry()._enumerate(self))
    # the structures of ``classification._branch``'s discrete branches, by branch and exact payload
    _structures = functools.cached_property(lambda self: {})


@dataclass(frozen=True, eq=False)
class LinearFunctional:
    """Covector l with l(x) = sum_i l_i x_i; must be nonzero."""

    l: np.ndarray

    def __post_init__(self):
        v = _as_vector(self.l)
        if not v.any():
            raise ValueError("l = 0 gives the abelian (unimodular) algebra")
        v.setflags(write=False)
        object.__setattr__(self, "l", v)

    def __call__(self, x) -> float:
        return float(self.l @ _as_vector(x))

    @property
    def norm(self) -> float:
        return _norm(self.l)

    @property
    def dual(self) -> Vector:
        """Unit vector metrically dual to l (identity metric)."""
        return _unit(self.l)

    @functools.cached_property
    def _algebra(self) -> LieAlgebra3:  # ``from_functional``, built once
        eye = np.eye(3)
        return LieAlgebra3(np.einsum("i,jk->ijk", self.l, eye) - np.einsum("j,ik->ijk", self.l, eye))

    # ``enumerate_unit_geodesics``, built and checked once
    _enumeration = functools.cached_property(lambda self: _geometry()._enumerate(self))
    # the structures of ``classification._branch``'s discrete branch 6, by exact xi
    _structures = functools.cached_property(lambda self: {})


def bracket(L: LieAlgebra3, x, y) -> Vector:
    """[x, y], bilinear and antisymmetric: result_k = sum x_i y_j c[i,j,k]."""
    return np.einsum("i,j,ijk->k", _as_vector(x), _as_vector(y), L.c)


def jacobi_residual(L: LieAlgebra3) -> float:
    """Max-norm of the cyclic sum [[ei,ej],ek] + [[ej,ek],ei] + [[ek,ei],ej].

    Zero (to rounding) exactly when the constants define a Lie algebra.
    """
    c = L.c
    # J[i,j,k,m] = ([[ei,ej],ek])_m cycled over (i,j,k)
    t = np.einsum("ijl,lkm->ijkm", c, c)
    J = t + np.transpose(t, (1, 2, 0, 3)) + np.transpose(t, (2, 0, 1, 3))
    return float(np.abs(J).max())


def ad_matrix(L: LieAlgebra3, x) -> np.ndarray:
    """Matrix of y -> [x, y] in the fixed basis (columns are [x, e_j])."""
    return np.einsum("i,ijk->kj", _as_vector(x), L.c)


def _norm(v: Vector) -> float:
    """``np.linalg.norm(v)``, scaled by max |v_i| first where |v|^2 would over- or underflow."""
    m = float(np.abs(v).max())
    if m > 1e150 or 0.0 < m < 1e-150:
        return m * float(np.linalg.norm(v / m))
    return float(np.linalg.norm(v))


def _unit(v: Vector) -> Vector:
    """``v / np.linalg.norm(v)`` for nonzero v, bit for bit where finite; else v is scaled by 2^k first."""
    e = np.frexp(np.abs(v).max())[1]  # max |v_i| = f 2^e with f in [1/2, 1)
    return _unit(np.ldexp(v, -e)) if abs(e) > 500 else v / np.linalg.norm(v)


def _trace_form(L: LieAlgebra3) -> Vector:
    """Covector x -> trace ad(x), i.e. T_i = trace ad(e_i)."""
    return np.einsum("ijj->i", L.c)


def is_unimodular(L: LieAlgebra3) -> bool:
    """True iff trace ad(e_i) vanishes for every basis vector, to PREDICATE_TOL * L.scale (``_non_unimodular``)."""
    return bool(not _non_unimodular(np.abs(_trace_form(L)).max(), L.scale))


def unimodular_kernel(L: LieAlgebra3) -> list[Vector]:
    """Orthonormal basis of {x : trace ad(x) = 0} for a non-unimodular algebra.

    The kernel of the trace form is a plane; the basis is built from the two
    coordinate axes most transverse to its normal, so adapted-form algebras
    get exactly [e2, e3].
    """
    T = _trace_form(L)
    if is_unimodular(L):
        raise ValueError("algebra is unimodular: the kernel is everything")
    n = T / _norm(T)
    k = int(np.argmax(np.abs(n)))
    basis = []
    for i in range(3):
        if i == k:
            continue
        v = np.eye(3)[i] - (n[i]) * n
        for b in basis:
            v = v - (v @ b) * b
        basis.append(v / np.linalg.norm(v))
    return basis


def _as_milnor(params: MilnorParameters | tuple) -> MilnorParameters:
    """params as MilnorParameters, from an instance or four coefficients; ValueError otherwise."""
    if isinstance(params, MilnorParameters):
        return params
    if np.ndim(params) != 1 or len(params) != 4:
        raise ValueError(f"expected MilnorParameters or (alpha, beta, gamma, delta), got {params!r}")
    return MilnorParameters(*params)


def from_milnor(params: MilnorParameters | tuple) -> LieAlgebra3:
    """Algebra in the adapted form; always non-unimodular with Jacobi = 0.  Built once per params."""
    return _as_milnor(params)._algebra


def from_functional(l: LinearFunctional | np.ndarray) -> LieAlgebra3:
    """Algebra with [x, y] = l(x) y - l(y) x; trace ad(x) = 2 l(x).  Built once per l."""
    if not isinstance(l, LinearFunctional):
        l = LinearFunctional(np.asarray(l, dtype=float))
    return l._algebra


def pqr_from_milnor(alpha, beta, gamma, delta):
    """Solve alpha = r+p, delta = r-p, beta = (r+p)q, gamma = -(r-p)q, elementwise.

    q comes from whichever of alpha, delta is away from zero; under the
    column-orthogonality constraint both branches agree where both apply.
    """
    scale = np.abs((alpha, beta, gamma, delta)).max(axis=0)
    use_alpha = abs(alpha) > IDENTITY_RTOL * scale
    q = np.where(use_alpha, beta, -gamma) / np.where(use_alpha, alpha, delta)
    return 0.5 * (alpha - delta), q[()], 0.5 * (alpha + delta)


# beyond these magnitudes of alpha + delta, the squares and products in
# ``milnor_invariant_D`` leave the float range
_D_DIRECT_RANGE = (1e-140, 1e140)


def milnor_invariant_D(params: MilnorParameters | tuple) -> float:
    """Complete isomorphism invariant D = 4(alpha*delta - beta*gamma)/(alpha+delta)^2."""
    params = _as_milnor(params)
    return _milnor_D(params.alpha, params.beta, params.gamma, params.delta)


def _milnor_D(a: float, b: float, g: float, d: float) -> float:
    """D of admissible adapted-form coefficients, as Python floats.

    Admissibility bounds every coefficient by 1e12 |alpha + delta|, so the
    direct form is finite while |alpha + delta| stays inside
    ``_D_DIRECT_RANGE``; outside it the coefficients are divided by
    alpha + delta first.
    """
    s = a + d
    lo, hi = _D_DIRECT_RANGE
    if lo < abs(s) < hi:
        return 4.0 * (a * d - b * g) / s**2
    a, b, g, d = a / s, b / s, g / s, d / s
    return 4.0 * (a * d - b * g)


def canonical_L_action(params: MilnorParameters | tuple) -> np.ndarray:
    """ad(e1') restricted to span{e2, e3}, with e1' scaled so the trace is 2.

    The returned 2x2 matrix has trace 2 and determinant equal to D.
    """
    params = _as_milnor(params)
    a, b, g, d = params.alpha, params.beta, params.gamma, params.delta
    M = np.array([[a, g], [b, d]])
    return (2.0 / (a + d)) * M


def invariant_D(L: LieAlgebra3) -> float:
    """Basis-free D: 4 det / trace^2 of ad(x0) on the unimodular kernel.

    Independent of the choice of x0 with trace ad(x0) != 0; agrees with
    ``milnor_invariant_D`` on adapted-form algebras.  Kept on the algebra.
    """
    return L._D


def _invariant_D(L: LieAlgebra3) -> float:
    T = _trace_form(L)
    tn = _norm(T)
    if not _non_unimodular(tn, L.scale):
        raise ValueError("algebra is unimodular: D is undefined")
    u1, u2 = unimodular_kernel(L)
    x0 = T / tn  # trace ad(x0) = tn > 0
    ad = ad_matrix(L, x0)
    M = np.array([[u1 @ ad @ u1, u1 @ ad @ u2], [u2 @ ad @ u1, u2 @ ad @ u2]])
    M *= 2.0 / np.trace(M)
    return float(np.linalg.det(M))
