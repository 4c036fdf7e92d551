"""The scalar classification path over stacks of adapted-form algebras, in array passes.

``_representative_summary`` is ``classification._representatives`` for
many algebras ``MilnorParameters.from_pqr(p, q, r)`` at once, reduced to
what ``cli.atlas_rows`` writes: the case tag, the isolated count, the
contact flag and the smallest normality residual.  It is built from the
contractions the scalar path uses, given a leading axis
(``_basis_constants``, ``_defect_matrices``/``residual_batch``,
``_nijenhuis``, ``_ker_deta_routes``), and makes the scalar path's checks
at its gates; a row that fails one is left to the scalar path.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import _kernels
from .classification import _I3, _basis_constants, _normal_form_constants
from .contact_structures import _UPPER, _adapted_frame, _ker_deta_routes, _nijenhuis
from .lie_core import E1, E2, E3
from .metric_geometry import (
    _CIRCLE_PROBES,
    _REGIMES,
    _defect_matrices,
    _dot,
    _norm,
    _probe_faults,
    _regimes,
    _shear_directions,
)
from .tolerances import (
    FAMILY_A_TOL,
    FRAME_TOL,
    IDENTITY_RTOL,
    INPLANE_TOL,
    NORMAL_FORM_TOL,
    NULL_AD_TOL,
    PREDICATE_TOL,
    ROOT_MERGE_TOL,
    SIGN_TOL,
    UNIMODULAR_TOL,
)


def _inplane_roots(a, h, d, scale) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``inplane_geodesic_angles`` elementwise: (first root, second root, number of roots, bad).

    The same eigen-formula, fold and ROOT_MERGE_TOL deduplication over
    arrays of alpha, h = (beta + gamma)/2, delta and the scale; numpy's
    arctan2 and hypot may differ from the math module's in the last bit.
    A missing root is NaN.  ``bad`` marks rows where a root misses the
    IDENTITY_RTOL residual check on which ``inplane_geodesic_angles``
    raises ArithmeticError.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        det = a * d - h * h
        mean = 0.5 * (a + d)
        big = mean + np.copysign(np.hypot(0.5 * (a - d), h), mean)
        lam_plus, lam_minus = np.where(big > 0.0, big, det / big), np.where(big > 0.0, det / big, big)
        phi = 0.5 * np.arctan2(2.0 * h, a - d)
        psi = np.arctan2(np.sqrt(lam_plus), np.sqrt(-lam_minus))
        t0, t1 = _fold_array(phi + psi), _fold_array(phi - psi)
        lo, hi = np.minimum(t0, t1), np.maximum(t0, t1)
        gap = np.minimum(hi - lo, math.pi - hi + lo)
        n = np.where(det > 0.0, 0, np.where((hi == lo) | (gap <= ROOT_MERGE_TOL), 1, 2))
        lo = np.where(n > 0, lo, np.nan)
        hi = np.where(n > 1, hi, np.nan)
        bad = np.zeros(np.shape(n), dtype=bool)
        for t, k in ((lo, 1), (hi, 2)):
            res = np.abs(a * np.cos(t) ** 2 + 2.0 * h * np.sin(t) * np.cos(t) + d * np.sin(t) ** 2)
            bad |= (n >= k) & ~(res <= IDENTITY_RTOL * scale)
    return lo, hi, n, bad


def _fold_array(t: np.ndarray) -> np.ndarray:
    # ``_fold`` elementwise
    t = t % math.pi
    return np.where(t >= math.pi, 0.0, t)


class _Branch(NamedTuple):
    """The representatives one construction branch builds, for the rows ``rows``.

    ``x`` is the unit vector ``_representatives`` routes, (xi, e, phi_e)
    the adapted frame the branch builds, ``params`` its normal-form
    parameters (arrays over the rows) and ``ok`` its own checks.
    """

    rows: np.ndarray
    x: np.ndarray
    xi: np.ndarray
    e: np.ndarray
    phi_e: np.ndarray
    family: str | None
    params: tuple
    ok: np.ndarray | bool = True


def _plane_points(t: np.ndarray) -> np.ndarray:
    """cos(t) e2 + sin(t) e3 for an array of angles, shape t.shape + (3,)."""
    return np.stack([np.zeros_like(t), np.cos(t), np.sin(t)], axis=-1)


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / _norm(x)[..., None]


def _family_params_ok(family: str | None, params) -> np.ndarray:
    """The parameter checks of ``PhiBasisStructure``, elementwise over arrays."""
    s = np.maximum(1.0, np.abs(np.stack(params)).max(axis=0))
    if family == "A":
        a, b, g, d = params
        return ~(np.abs(a + d) <= IDENTITY_RTOL * s) & ~(np.abs(a * g + b * d) > FAMILY_A_TOL * s * s)
    if family == "B":
        return ~(np.abs(params[0]) <= IDENTITY_RTOL * s)
    if family == "C":
        return ~(np.hypot(*params) <= IDENTITY_RTOL * s)
    return np.ones(s.shape, dtype=bool)


def _outside_frames(c: np.ndarray, scale: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_reduce_outside``'s (e, phi_e) for stacked algebras and unit xi, with a batched SVD."""
    u, v = _adapted_frame(_I3, xi)
    M = np.swapaxes(_basis_constants(c, np.stack([xi, u, v], axis=-1))[:, 0, 1:, 1:], -1, -2)
    small = np.abs(M).max(axis=(-2, -1)) <= NULL_AD_TOL * np.maximum(1.0, scale)
    # a non-finite M fails the row's later checks; only the SVD must not see it
    _, _, Vt = np.linalg.svd(np.where(np.isfinite(M), M, 0.0))
    rho = np.where(small, 0.0, np.arctan2(-Vt[:, -1, 0], Vt[:, -1, 1]) % math.pi)[:, None]
    return np.cos(rho) * u + np.sin(rho) * v, -np.sin(rho) * u + np.cos(rho) * v


def _representative_summary(p: np.ndarray, q: np.ndarray, r: float):
    """``_representatives`` for the algebras ``MilnorParameters.from_pqr(p, q, r)`` in one array pass.

    p and q are 1-D arrays of one length, r a number.  Returns per algebra
    (case tag, number of isolated unit geodesics, whether some
    representative's eta is a contact form, smallest normality residual,
    ok).  The representatives are the ones ``_representatives`` routes to:
    the axis (branch 1, or 5 for tag D), the in-plane roots (branch 2),
    the special direction (branch 3) and the circle sample (branch 4 on
    B2/C2, ``_reduce_outside`` on B1/C1).  Every check of that scalar path
    is made at its gate: admissibility and ``invariant_D``'s unimodularity
    test, the root residual and the enumeration probes, then per
    representative those of ``_report_checks``.  Rows near a routing tie,
    where ``_route`` snaps to the first candidate within 1e-12 of the
    nearest (A2 roots, or a B1/C1 root and the special direction, less
    than 1e-11 apart), fail too.  ok is False for a row that fails any
    check; its other values are meaningless, and the scalar path is the
    one to decide it.
    """
    with np.errstate(all="ignore"):
        n = len(p)
        r = np.full(n, float(r))
        # MilnorParameters.from_pqr with its admissibility checks, and pqr_from_milnor
        a, b, g, d = r + p, (r + p) * q, -(r - p) * q, r - p
        abgd = np.stack([a, b, g, d])
        scale = np.abs(abgd).max(axis=0)
        ok = (r != 0.0) & np.isfinite(abgd).all(axis=0) & (scale != 0.0)
        ok &= ~(np.abs(a * g + b * d) > IDENTITY_RTOL * scale * scale)
        ok &= ~(np.abs(a + d) <= IDENTITY_RTOL * scale)
        # invariant_D's unimodularity test: |trace form| = |alpha + delta|
        ok &= ~(np.abs(a + d) <= UNIMODULAR_TOL * np.maximum(scale, 1.0))
        # pqr_from_milnor's q; its 1e-300 floor on the scale acts only on rows failed above
        q_ = np.where(np.abs(a) > IDENTITY_RTOL * scale, b / a, -g / d)

        # regime and enumeration
        regime = np.asarray(_regimes(0.5 * (a - d), q_, 0.5 * (a + d), scale))
        t0, t1, n_roots, roots_bad = _inplane_roots(a, 0.5 * (b + g), d, scale)
        generic = regime == _REGIMES.index("generic")
        ok &= ~(generic & roots_bad)
        a2 = generic & (n_roots > 0)
        two = a2 & (n_roots == 2)
        tags = np.array(_REGIMES + ("A1", "A2"))[np.where(generic, len(_REGIMES) + a2, regime)]
        b1, c1 = regime == _REGIMES.index("B1"), regime == _REGIMES.index("C1")
        b_line = b1 | (regime == _REGIMES.index("B2"))
        shear, circle = b1 | c1, b_line | c1 | (regime == _REGIMES.index("C2"))
        c = _normal_form_constants("A", (a, b, g, d))
        u, w = _shear_directions(q_)
        # the circle is span{e1, v}; B1/C1 add the isolated pair +-iso
        v = np.where(b1[:, None], u, np.where(c1[:, None], w, np.where(b_line[:, None], E3, E2)))
        iso = np.where(b_line[:, None], E3, E2)
        # _check_enumeration's probes, padded with e1 (zero defect on every adapted form)
        axis_probes = np.broadcast_to(E1, (n, 15, 3)).copy()
        axis_probes[:, 1] = -E1
        axis_probes[:, 2] = np.where(a2[:, None], _plane_points(t0), E1)
        axis_probes[:, 3] = np.where(two[:, None], _plane_points(t1), E1)
        ct, st = np.cos(_CIRCLE_PROBES)[:, None], np.sin(_CIRCLE_PROBES)[:, None]
        pair = np.where(shear[:, None, None], np.stack([iso, -iso], axis=1), E1)
        circle_probes = np.concatenate([pair, ct * E1 + st * v[:, None, :]], axis=1)
        not_unit, not_geodesic = _probe_faults(c, np.where(circle[:, None, None], circle_probes, axis_probes))
        ok &= ~not_unit & ~not_geodesic
        # routing ties
        ok &= ~(two & (np.minimum(t1 - t0, math.pi - t1 + t0) < 1e-11))
        ok &= ~(shear & (np.abs(q_) < 1e-11))

        branches = [_Branch(np.arange(n), E1, E1, E2, E3, "A", (a, b, g, d))]
        # branch 2 at the in-plane roots: the A2 roots, e3 on B1/B2 and e2 on C1/C2
        rows = np.concatenate([np.flatnonzero(a2), np.flatnonzero(two), np.flatnonzero(circle)])
        t = np.concatenate([t0[a2], t1[two], np.where(b_line, 0.5 * math.pi, 0.0)[circle]])
        ct, st, zero = np.cos(t), np.sin(t), np.zeros_like(t)
        ra, rb, rg, rd = a[rows], b[rows], g[rows], d[rows]
        eq = ra * ct * ct + (rb + rg) * st * ct + rd * st * st
        A = rd * ct * ct - (rb + rg) * st * ct + ra * st * st
        B = -(rg * ct * ct + (rd - ra) * st * ct - rb * st * st)
        C = rb * ct * ct + (rd - ra) * st * ct - rg * st * st
        xi, fe = np.stack([zero, ct, st], axis=-1), np.stack([zero, st, -ct], axis=-1)
        eq_ok = ~(np.abs(eq) > INPLANE_TOL * np.maximum(1.0, scale[rows]))
        branches.append(_Branch(rows, _unit_rows(_plane_points(t)), xi, E1, fe, "B", (A, B, C), eq_ok))
        # branch 3 at the special direction of B1/C1, routed from its in-plane line
        rows = np.flatnonzero(shear)
        on_b = b1[rows]
        line = np.where(v[rows, 2:] >= 0.0, v[rows], -v[rows])
        x = _unit_rows(_plane_points(_fold_array(np.arctan2(line[:, 2], line[:, 1]))))
        xi, fe = np.where(on_b[:, None], u[rows], w[rows]), np.where(on_b[:, None], w[rows], u[rows])
        params = (np.where(on_b, a[rows], d[rows]), np.zeros(len(rows)), np.where(on_b, -b[rows], -g[rows]))
        branches.append(_Branch(rows, x, xi, E1, fe, "B", params))
        # the circle sample (e1 + v)/sqrt(2), projected onto the circle
        rows = np.flatnonzero(circle)
        x = _unit_rows((E1 + v[rows]) / math.sqrt(2.0))
        normal = np.cross(E1, v[rows])
        proj = _unit_rows(x - _dot(x, normal)[:, None] * normal)
        out = shear[rows]
        # branch 4 on B2/C2, at the sample's angle
        sub = rows[~out]
        theta = np.arctan2(_dot(proj[~out], v[sub]), proj[~out, 0]) % math.pi
        ct, st, zero = np.cos(theta), np.sin(theta), np.zeros_like(theta)
        on_b = b_line[sub]
        xi = np.where(on_b[:, None], np.stack([ct, zero, st], axis=-1), np.stack([ct, st, zero], axis=-1))
        fe = np.where(on_b[:, None], np.stack([-st, zero, ct], axis=-1), np.stack([st, -ct, zero], axis=-1))
        e = np.where(on_b[:, None], E2, E3)
        params = (np.where(on_b, a[sub], d[sub]) * ct, np.where(on_b, a[sub], -d[sub]) * st)
        branches.append(_Branch(sub, x[~out], xi, e, fe, "C", params))
        # _reduce_outside on B1/C1
        sub = rows[out]
        xi = proj[out]
        lead = np.take_along_axis(xi, np.argmax(np.abs(xi) > SIGN_TOL, axis=-1)[:, None], axis=-1)
        xi = np.where(lead > 0, xi, -xi)  # _canonical_sign
        e, fe = _outside_frames(c[sub], scale[sub], xi)
        raw = _basis_constants(c[sub], np.stack([xi, e, fe], axis=-1))
        params = (raw[:, 0, 1, 1], raw[:, 0, 1, 2], raw[:, 1, 2, 1], raw[:, 1, 2, 2], raw[:, 1, 2, 0])
        branches.append(_Branch(sub, x[out], xi, e, fe, None, params))

        rows, good, residual, contact = _report_checks(c, scale, branches)
        ok &= np.bincount(rows, weights=~good, minlength=n) == 0
        min_residual = np.full(n, np.inf)
        np.minimum.at(min_residual, rows, residual)
        ok &= np.isfinite(min_residual)
        contact_any = np.bincount(rows, weights=contact, minlength=n) > 0
        n_isolated = np.where(a2, 2 + 2 * n_roots, np.where(circle & ~shear, 0, 2))
    return tags, n_isolated, contact_any, min_residual, ok


def _report_checks(c: np.ndarray, scale: np.ndarray, branches: list[_Branch]):
    """The checks and predicates of every representative at once: (rows, ok, N residual, contact form).

    ``c`` and ``scale`` hold the algebras the branches' rows index.  The
    checks, at the scalar path's gates: x is geodesic at ``PREDICATE_TOL``
    (``_route``); the frame is orthonormal and (phi, xi, eta) satisfies
    the structure axioms (``PhiBasis``, ``structure_from_basis``,
    ``AlmostContactStructure``); the normal form matches the raw constants
    (``PhiBasisStructure``); xi lies in ker d_eta by both routes
    (``xi_in_ker_deta``); N is antisymmetric.  The metric is the identity,
    so eta = xi.
    """
    rows = np.concatenate([br.rows for br in branches])
    m = len(rows)
    x, xi, e, fe = (
        np.concatenate([np.broadcast_to(getattr(br, name), (len(br.rows), 3)) for br in branches])
        for name in ("x", "xi", "e", "phi_e")
    )
    nf = np.concatenate([_normal_form_constants(br.family, br.params) for br in branches])
    ok = np.concatenate([np.broadcast_to(_family_params_ok(br.family, br.params) & br.ok, len(br.rows)) for br in branches])
    cr, sr = c[rows], scale[rows]
    defect = np.abs(_kernels.residual_batch(_defect_matrices(cr, _I3), x[:, None, :])[:, 0]).max(axis=-1)
    ok &= defect <= PREDICATE_TOL * _dot(x, x)
    F = np.stack([xi, e, fe], axis=-1)
    ok &= ~(np.abs(np.swapaxes(F, -1, -2) @ F - np.eye(3)).max(axis=(-2, -1)) > FRAME_TOL)
    phi = fe[:, :, None] * e[:, None, :] - e[:, :, None] * fe[:, None, :]
    phi_scale = np.maximum(1.0, np.abs(phi).max(axis=(-2, -1)))
    ok &= ~(np.abs(_dot(xi, xi) - 1.0) > IDENTITY_RTOL)
    ok &= ~(np.abs((phi @ xi[:, :, None])[:, :, 0]).max(axis=-1) > IDENTITY_RTOL * phi_scale)
    ok &= ~(np.abs((xi[:, None, :] @ phi)[:, 0]).max(axis=-1) > IDENTITY_RTOL * phi_scale)
    square = phi @ phi + np.eye(3) - xi[:, :, None] * xi[:, None, :]
    ok &= ~(np.abs(square).max(axis=(-2, -1)) > IDENTITY_RTOL * phi_scale**2)
    raw = _basis_constants(cr, F)
    ok &= ~(np.abs(raw - nf).reshape(m, -1).max(axis=-1) > NORMAL_FORM_TOL * np.maximum(1.0, sr))
    via_deta, via_lie = _ker_deta_routes(cr, xi, xi)
    ker_scale = np.maximum(1.0, sr) * np.maximum(1.0, np.abs(xi).max(axis=-1)) ** 2
    ok &= ~(np.abs(via_deta - via_lie).max(axis=-1) > IDENTITY_RTOL * ker_scale)
    ok &= np.all(np.abs(via_deta) <= PREDICATE_TOL, axis=-1)
    N = _nijenhuis(cr, phi, xi, xi)
    upper, lower = N[:, _UPPER[0], _UPPER[1]], N[:, _UPPER[1], _UPPER[0]]
    sym_scale = np.maximum(1.0, sr) * phi_scale**2
    ok &= ~(np.abs(upper + lower).reshape(m, -1).max(axis=-1) > IDENTITY_RTOL * sym_scale)
    residual = np.abs(upper).reshape(m, -1).max(axis=-1)
    contact = np.abs(nf[:, 1, 2, 0]) > PREDICATE_TOL * sr  # as _structure_flags
    return rows, ok, residual, contact
