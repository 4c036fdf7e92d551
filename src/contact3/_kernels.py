"""Hot kernels for the sphere-scan geodesic oracle.

The geodesic defect of a unit vector x is ``max_k |x^T M_k x|`` where the
three symmetric matrices M_k encode ``g([x, e_k], x)``.  Each x^T M_k x is
a quadratic form, so it is the dot product of the six monomials
x0^2, x1^2, x2^2, x0 x1, x0 x2, x1 x2 (``monomial_table``) with the
column k of a (6, 3) coefficient matrix built from M.  The monomials
depend on the points alone, and they are equal for x and -x: the oracle
tabulates them once per lattice over one hemisphere, in blocks, and
scans an algebra with two (6, 3) x (6, n) contractions, one over the
block centres and one over the blocks a Lipschitz bound keeps.  A point's
defect takes the same bits in any batch.  Every contraction here stays
off the BLAS thread pool (``np.einsum`` without ``optimize``).

Refinement moves each point along the tangent-projected gradient g of
its largest residual q.  Along that line q is exactly the quadratic
q(x - t g) = q(x) - t |g|^2 + t^2 q(g), whose zeros survive the
normalisation back to the sphere, so each step goes to its root nearest
t = 0: points settle onto one-dimensional solution curves where they
landed instead of sliding along them, and reach a double surface (a
residual vanishing to second order) in one step.  It works column-wise:
the points still moving form a C-contiguous (3, m) array, kept with
their residuals V, the magnitudes |V| and the defects max |V| across
steps and compacted by index (``take``) as points stop.  Their residuals
come from the same monomials and coefficient matrix as the scan
(``_coefficients``); each point's worst residual is the first whose
magnitude equals its defect (the argmax), and it and the point's
gradient are gathered by flat index.  No array is ever transposed in
memory, so each point's bits are its own, whatever else is refined
beside it.  The residual is even in x and every step is odd, so refining
-X returns exactly the negation of refining X, with the same defects.
``residual_batch``, the per-point quadratic form, serves
``metric_geometry.geodesic_defect``.
"""

from __future__ import annotations

import numpy as np

_STALL2 = 1e-30  # squared-gradient floor, relative to scale^2
_DOUBLE_ROOT = 1e-12  # a discriminant 1 - k below this is rounding: a double root
_MAX_STEPS = 80  # line steps per point at most

# the (i, j) index pairs of the monomials x_i x_j, in table order
_MONOMIALS = (np.array([0, 1, 2, 0, 0, 1]), np.array([0, 1, 2, 1, 2, 2]))


def residual_batch(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Residual vectors v_i = x^T M_i x, shape (..., n, 3), for M of shape (..., 3, 3, 3)."""
    return np.einsum("...ni,...kij,...nj->...nk", X, M, X)


def monomial_table(X: np.ndarray) -> np.ndarray:
    """The monomials x_i x_j of each row of X as a C-contiguous (6, n) array."""
    return _monomials(X.T)


def _monomials(X: np.ndarray) -> np.ndarray:
    # the monomials of the columns of X (3, ...), in table order: (6, ...)
    P = np.empty((6,) + X.shape[1:])
    np.multiply(X, X, out=P[:3])
    np.multiply(X[0], X[1:], out=P[3:5])
    np.multiply(X[1], X[2], out=P[5])
    return P


def _coefficients(M: np.ndarray) -> np.ndarray:
    """The (6, 3) matrix C with x^T M_k x = sum_m C[m, k] P_m over the monomials P."""
    i, j = _MONOMIALS
    # an off-diagonal monomial x_i x_j carries M_k[i, j] + M_k[j, i]
    return ((M[:, i, j] + M[:, j, i]) * np.where(i == j, 0.5, 1.0)).T


def defect_max_batch(M: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Defect max_k |x^T M_k x| for each point, from its monomials.

    P has one row per point, shape (n, 6): pass the transpose ``P.T`` of a
    ``monomial_table``, so the contraction runs over its contiguous rows.
    """
    V = np.einsum("mk,mn->kn", _coefficients(M), P.T)
    return np.abs(V, out=V).max(axis=0)


def _residual(C: np.ndarray, X: np.ndarray) -> np.ndarray:
    """x^T M_k x for each column x of X (3, n), through the monomials: shape (3, n)."""
    return np.einsum("mk,mn->kn", C, _monomials(X))


def _trial(C: np.ndarray, X: np.ndarray, step: np.ndarray, pick: np.ndarray, thr: np.ndarray):
    # the points X - step back on the sphere, their residuals and the
    # residuals' magnitudes, and whether each point's worst residual (flat
    # index ``pick``) fell below ``thr``
    Y = X - step
    Y /= np.sqrt(np.einsum("in,in->n", Y, Y))
    V = _residual(C, Y)
    A = np.abs(V)
    return Y, V, A, A.take(pick) < thr


def refine_batch(M: np.ndarray, X0: np.ndarray, step_cap: float, target: float) -> tuple[np.ndarray, np.ndarray]:
    """Drive the defect below ``target`` by exact line roots of the worst residual.

    X0 holds one point per row, shape (n, 3); the result is the refined
    points, shape (n, 3), and their defects.  The points still moving are
    kept column-wise, (3, m), with their residuals, the residuals'
    magnitudes |V| and their defects, and compacted by index (``take``)
    as points stop: at ``target``, at a vanishing gradient, or when the
    step (to the nearest root of the worst residual along its gradient,
    at most ``step_cap`` long) does not take a tenth off that residual,
    or after ``_MAX_STEPS`` steps.
    """
    C = _coefficients(M)
    G = 2.0 * M.transpose(1, 0, 2).reshape(9, 3)  # row 3i + k: component i of the gradient 2 M_k x
    scale = max(float(np.abs(M).max()), 1e-300)
    X = X0.T.copy()
    V = _residual(C, X)
    A = np.abs(V)
    F = A.max(axis=0)
    live = np.flatnonzero(F > target)
    Xa, Va, Aa, Fa = (Z.take(live, axis=-1) for Z in (X, V, A, F))
    del V, A
    for _ in range(_MAX_STEPS):
        m = len(live)
        if not m:
            break
        # each point's worst residual k, the first equal to its defect (the
        # argmax, without argmax's loop over columns), as the flat index
        # k m + j into Va and into each row i of G x reshaped to (3, 3 m)
        below = Aa[:2] < Fa
        pick = below[0] * (below[1] + 1) * m + np.arange(m)
        va = Va.take(pick)
        grad = np.einsum("kj,jn->kn", G, Xa).reshape(3, 3 * m).take(pick, axis=1)
        grad -= np.einsum("in,in->n", grad, Xa) * Xa
        gn2 = np.einsum("in,in->n", grad, grad)
        ok = gn2 > _STALL2 * scale * scale
        stalled = not ok.all()
        if stalled:
            gn2[~ok] = 1.0  # any finite step: these points stop below
        # along the line x - t grad the residual is va - t gn2 + t^2 q(grad):
        # its root nearest 0 is t = 2u / (1 + sqrt(1 - k)), u = va / gn2 and
        # k = 4 u q(grad / |grad|) free of the scale (no power of it past
        # gn2 is formed), or the double root 2u where 1 - k is rounding or
        # negative; the step t grad is at most step_cap long
        gn = np.sqrt(gn2)
        u = va / gn2
        disc = 1.0 - 4.0 * u * _residual(C, grad / gn).take(pick)
        t = 2.0 * u / (1.0 + np.sqrt(np.where(disc > _DOUBLE_ROOT, disc, 0.0)))
        lim = step_cap / gn
        Y, VY, AY, better = _trial(C, Xa, grad * np.minimum(np.maximum(t, -lim), lim), pick, 0.9 * Fa)
        if stalled:
            better &= ok
        FY = AY.max(axis=0)
        if not better.all():
            # points without a better step keep their last point and stop
            j = (~better).nonzero()[0]
            Y[:, j], FY[j] = Xa.take(j, axis=1), Fa.take(j)
        go = (FY > target) & better
        Xa, Va, Aa, Fa = Y, VY, AY, FY
        if not go.all():
            j, go = (~go).nonzero()[0], go.nonzero()[0]
            X[:, live[j]], F[live[j]] = Xa.take(j, axis=1), Fa.take(j)
            live, Xa, Va, Aa, Fa = (Z.take(go, axis=-1) for Z in (live, Xa, Va, Aa, Fa))
    X[:, live] = Xa
    F[live] = Fa
    return X.T.copy(), F
