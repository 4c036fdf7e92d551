"""Hot kernels for the sphere-scan geodesic oracle.

The geodesic defect of a unit vector x is ``max_k |x^T M_k x|`` where the
three symmetric matrices M_k encode ``g([x, e_k], x)``.  Each x^T M_k x is
a quadratic form, so it is the dot product of the six monomials
x0^2, x1^2, x2^2, x0 x1, x0 x2, x1 x2 (``monomial_table``) with the
column k of a (6, 3) coefficient matrix built from M.  The monomials
depend on the points alone, and they are equal for x and -x: the oracle
tabulates them once per lattice over one hemisphere and scans any algebra
with one (6, 3) x (6, n) contraction, which it keeps off the BLAS thread
pool (``np.einsum`` without ``optimize``).

Refinement alternates 1D Newton projections onto the residual surfaces
{x^T M_k x = 0}, always targeting the currently-largest residual along its
own (tangent-projected) gradient.  Each move is normal to that surface, so
points refine onto one-dimensional solution curves where they landed
instead of sliding along them, and double surfaces (residuals vanishing to
second order) still converge at rate 1/2.  The residual is even in x and
every step is odd, so refining -X returns exactly the negation of
refining X, with the same defects.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"

_STALL2 = 1e-30  # squared-gradient floor, relative to scale^2

# the (i, j) index pairs of the monomials x_i x_j, in table order
_MONOMIALS = (np.array([0, 1, 2, 0, 0, 1]), np.array([0, 1, 2, 1, 2, 2]))


def residual_batch(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Residual vectors v_i = x^T M_i x, shape (n, 3); M has shape (3, 3, 3)."""
    return np.einsum("ni,kij,nj->nk", X, M, X)


def monomial_table(X: np.ndarray) -> np.ndarray:
    """The monomials x_i x_j of each row of X as a C-contiguous (6, n) array."""
    i, j = _MONOMIALS
    return X.T[i] * X.T[j]


def defect_max_batch(M: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Defect max_k |x^T M_k x| for each point, from its monomials.

    P has one row per point, shape (n, 6): pass the transpose ``P.T`` of a
    ``monomial_table``, so the contraction runs over its contiguous rows.
    """
    i, j = _MONOMIALS
    # an off-diagonal monomial x_i x_j carries M_k[i, j] + M_k[j, i]
    C = ((M[:, i, j] + M[:, j, i]) * np.where(i == j, 0.5, 1.0)).T
    V = np.einsum("mk,mn->kn", C, P.T)
    return np.abs(V, out=V).max(axis=0)


def refine_batch(
    M: np.ndarray,
    X0: np.ndarray,
    step_cap: float,
    target: float,
    max_iter: int = 80,
) -> tuple[np.ndarray, np.ndarray]:
    """Drive the defect below ``target`` by alternating Newton projections."""
    X = X0.copy()
    V = residual_batch(M, X)
    F = np.abs(V).max(axis=1)
    scale = max(float(np.abs(M).max()), 1e-300)
    active = F > target
    for _ in range(max_iter):
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        Xa, Va = X[idx], V[idx]
        worst = np.argmax(np.abs(Va), axis=1)
        va = Va[np.arange(len(idx)), worst]
        grad = 2.0 * np.einsum("nij,nj->ni", M[worst], Xa)
        grad -= np.einsum("ni,ni->n", grad, Xa)[:, None] * Xa
        gn2 = np.einsum("ni,ni->n", grad, grad)
        ok = gn2 > _STALL2 * scale * scale
        step = np.zeros_like(Xa)
        step[ok] = (-va[ok] / gn2[ok])[:, None] * grad[ok]
        lens = np.linalg.norm(step, axis=1)
        clip = lens > step_cap
        step[clip] *= (step_cap / lens[clip])[:, None]
        newX, newV = Xa.copy(), Va.copy()
        pending = ok.copy()
        damp = 1.0
        for _try in range(4):
            if not pending.any():
                break
            Y = Xa[pending] + damp * step[pending]
            Y /= np.linalg.norm(Y, axis=1, keepdims=True)
            VY = residual_batch(M, Y)
            w = worst[pending]
            better = np.abs(VY[np.arange(len(w)), w]) < 0.9 * np.abs(
                Va[pending][np.arange(len(w)), w]
            )
            rows = np.nonzero(pending)[0][better]
            newX[rows] = Y[better]
            newV[rows] = VY[better]
            pending[rows] = False
            damp *= 0.5
        X[idx], V[idx] = newX, newV
        newF = np.abs(newV).max(axis=1)
        F[idx] = newF
        active[idx] = (newF > target) & ~pending & ok  # stalled points stop
    return X, F
