"""The scalar classification path over stacks of adapted-form algebras, in array passes.

``_representative_summary`` is ``classification._representatives`` for
many algebras ``MilnorParameters.from_pqr(p, q, r)`` at once, reduced to
what ``cli.atlas_rows`` writes: the case tag, the isolated count, the
contact flag and the smallest normality residual.  Every closed form and
every check it applies is the scalar path's own function: the
admissibility gates, the branch forms, ``_outside_form``, the frame
and normal-form checks and ``_report_checks`` (the scalar path's stacked
report checks) called over a leading axis, the in-plane root finder row
by row.  This module only assembles each branch's rows, fails the rows near
a routing tie and reduces the representatives to one summary per algebra;
a row that fails a check is left to the scalar path.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .classification import (
    _basis_constants,
    _canonical_sign,
    _case2_form,
    _case3_form,
    _case4_form,
    _family_gates,
    _normal_form_check,
    _normal_form_constants,
    _outside_form,
    _report_checks,
)
from .contact_structures import _orthonormal
from .lie_core import E1, E2, E3, _adapted_coefficients, _milnor_gates, _non_unimodular, pqr_from_milnor
from .metric_geometry import (
    _CIRCLE_PROBES,
    _I3,
    _REGIMES,
    _atan2,
    _defect_matrices,
    _dot,
    _geodesic,
    _inplane_roots,
    _line_angle,
    _norm,
    _probe_faults,
    _regimes,
    _shear_directions,
)

# rows whose routed candidates lie closer than this (radians, or |q| on
# B1/C1) are left to the scalar path: ``_route`` snaps to the first
# candidate within 1e-12 of the nearest, which the array pass does not model
_TIE = 1e-11


class _Branch(NamedTuple):
    """For the algebras ``rows``: the routed unit vector x, the frame, the normal form and the branch's own checks."""

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


def _passes(checks: list[tuple]) -> np.ndarray:
    # the rows that pass every check of a list of (pass, ...) tuples
    return np.logical_and.reduce([check[0] for check in checks])


def _representative_summary(p: np.ndarray, q: np.ndarray, r: float):
    """``_representatives`` for the algebras ``MilnorParameters.from_pqr(p, q, r)`` in one array pass.

    p and q are 1-D arrays of one length, r a number.  Returns per algebra
    (case tag, number of isolated unit geodesics, whether some
    representative's eta is a contact form, smallest normality residual,
    ok).  The representatives are those ``_representatives`` routes to:
    the axis, the in-plane roots, the special direction and the circle
    sample.  ok is False for a row that fails any check of that scalar
    path or lies near a routing tie; its other values are meaningless,
    and the scalar path is the one to decide it.
    """
    with np.errstate(all="ignore"):
        n = len(p)
        a, b, g, d = _adapted_coefficients(p, q, float(r))
        scale, *admissible = _milnor_gates(a, b, g, d)
        # invariant_D's test: the trace form of an adapted-form algebra is (alpha + delta, 0, 0)
        ok = np.isfinite(scale) & np.logical_and.reduce(admissible) & _non_unimodular(np.abs(a + d), scale)
        p_, q_, r_ = pqr_from_milnor(a, b, g, d)

        # regime and enumeration
        regime = np.asarray(_regimes(p_, q_, r_, scale))
        generic = regime == _REGIMES.index("generic")
        t0, t1, n_roots = np.full(n, np.nan), np.full(n, np.nan), np.zeros(n, dtype=int)
        rows = np.flatnonzero(ok & generic)  # admissible: _inplane_roots needs alpha + delta != 0
        args = (v[rows].tolist() for v in (a, 0.5 * (b + g), d, scale))
        for i, (roots, good) in zip(rows, map(_inplane_roots, *args)):
            ok[i] &= good
            n_roots[i] = len(roots)
            t0[i], t1[i] = roots + [np.nan] * (2 - len(roots))
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
        probes = np.where(circle[:, None, None], circle_probes, axis_probes)
        not_unit, not_geodesic = _probe_faults(_defect_matrices(c, _I3), probes, scale)
        ok &= ~not_unit & ~not_geodesic
        ok &= ~(two & (np.minimum(t1 - t0, math.pi - t1 + t0) < _TIE))
        ok &= ~(shear & (np.abs(q_) < _TIE))

        branches = [_Branch(np.arange(n), E1, E1, E2, E3, "A", (a, b, g, d))]
        # branch 2 at the in-plane roots: the A2 roots, e3 on B1/B2 and e2 on C1/C2
        rows = np.concatenate([np.flatnonzero(a2), np.flatnonzero(two), np.flatnonzero(circle)])
        t = np.concatenate([t0[a2], t1[two], np.where(b_line, 0.5 * math.pi, 0.0)[circle]])
        _, eq_ok, params, xi, e, fe = _case2_form(a[rows], b[rows], g[rows], d[rows], scale[rows], np.cos(t), np.sin(t))
        branches.append(_Branch(rows, _unit_rows(xi), xi, e, fe, "B", params, eq_ok))
        # branch 3 at the special direction of B1/C1, routed from its in-plane line
        rows = np.flatnonzero(shear)
        x = _unit_rows(_plane_points(_line_angle(v[rows, 1], v[rows, 2])))
        params, xi, e, fe = _case3_form(a[rows], b[rows], g[rows], d[rows], q_[rows], b1[rows])
        branches.append(_Branch(rows, x, xi, e, fe, "B", params))
        # the circle sample (e1 + v)/sqrt(2), projected onto the circle
        rows = np.flatnonzero(circle)
        x = _unit_rows((E1 + v[rows]) / math.sqrt(2.0))
        normal = np.cross(E1, v[rows])
        proj = _unit_rows(x - _dot(x, normal)[:, None] * normal)
        out = shear[rows]
        # branch 4 on B2/C2, at the sample's angle
        sub = rows[~out]
        theta = _atan2(_dot(proj[~out], v[sub]), proj[~out, 0]) % math.pi
        params, xi, e, fe = _case4_form(a[sub], d[sub], np.cos(theta), np.sin(theta), b_line[sub])
        branches.append(_Branch(sub, x[~out], xi, e, fe, "C", params))
        # _reduce_outside on B1/C1
        sub = rows[out]
        params, xi, e, fe = _outside_form(c[sub], scale[sub], _canonical_sign(proj[out]))
        branches.append(_Branch(sub, x[out], xi, e, fe, None, params))

        # every representative at once: _route's geodesic test, the PhiBasis
        # and PhiBasisStructure validation, then the report checks
        rows = np.concatenate([br.rows for br in branches])
        x, xi, e, fe = (
            np.concatenate([np.broadcast_to(getattr(br, name), (len(br.rows), 3)) for br in branches])
            for name in ("x", "xi", "e", "phi_e")
        )
        nf = np.concatenate([_normal_form_constants(br.family, br.params) for br in branches])
        good = np.concatenate(
            [np.broadcast_to(br.ok & _passes(_family_gates(br.family, br.params)), len(br.rows)) for br in branches]
        )
        cr, sr, F = c[rows], scale[rows], np.stack([xi, e, fe], axis=-1)
        good &= _geodesic(_defect_matrices(cr, _I3), _I3, x, sr) & _orthonormal(F, _I3.g)
        good &= _normal_form_check(_basis_constants(cr, F), nf, sr)[1]
        checks, (_, contact, _), residual = _report_checks(cr, sr, xi, e, fe, nf)
        good &= _passes(checks)
        ok &= np.bincount(rows, weights=~good, minlength=n) == 0
        min_residual = np.full(n, np.inf)
        np.minimum.at(min_residual, rows, residual)
        ok &= np.isfinite(min_residual)
        contact_any = np.bincount(rows, weights=contact, minlength=n) > 0
        n_isolated = np.where(a2, 2 + 2 * n_roots, np.where(circle & ~shear, 0, 2))
    return tags, n_isolated, contact_any, min_residual, ok
