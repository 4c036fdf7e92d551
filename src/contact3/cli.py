"""Command-line front end.

Subcommands: ``classify`` (one JSON report per structure: family, params,
D, geodesic_case, the contact_form / contact_metric / normal flags,
normality_residual and errata_notes), ``geodesics``
(closed-form enumeration, optionally scored against the sphere-scan
oracle), ``atlas`` (CSV sweep over the (p, q) parameter plane) and
``verify`` (seeded invariant suite).  Exit codes: 0 success, 1 verify
failure, 2 inadmissible parameters, 3 non-geodesic xi, 4 unwritable
output path.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .classification import (
    AdmissibilityError,
    ClassificationReport,
    NotGeodesicError,
    _representatives,
    classify,
    classify_representatives,
    resolve_source,
)
from .lie_core import LinearFunctional, MilnorParameters, _adapted_coefficients, _milnor_D
from .metric_geometry import geodesic_brute_force, oracle_match
from .verify import GROUPS, run_groups

EXIT_VERIFY_FAILED = 1
EXIT_BAD_PARAMS = 2
EXIT_NOT_GEODESIC = 3
EXIT_BAD_OUTPUT = 4


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, help="adapted-form coefficient alpha")
    p.add_argument("--beta", type=float, help="adapted-form coefficient beta")
    p.add_argument("--gamma", type=float, help="adapted-form coefficient gamma")
    p.add_argument("--delta", type=float, help="adapted-form coefficient delta")
    p.add_argument("--p", type=float, help="parameter p (alpha = r+p, delta = r-p)")
    p.add_argument("--q", type=float, help="shear ratio q")
    p.add_argument("--r", type=float, help="parameter r = (alpha+delta)/2")
    p.add_argument("--l", type=str, metavar="x,y,z", help="rank-one functional covector")


def _parse_source(args):
    """MilnorParameters or LinearFunctional from the flag groups."""
    have_greek = [v is not None for v in (args.alpha, args.beta, args.gamma, args.delta)]
    have_pqr = [v is not None for v in (args.p, args.q, args.r)]
    n_groups = (any(have_greek)) + (any(have_pqr)) + (args.l is not None)
    if n_groups != 1:
        raise AdmissibilityError(
            "give exactly one of: --alpha/--beta/--gamma/--delta, --p/--q/--r, or --l"
        )
    if args.l is not None:
        return LinearFunctional(_parse_vector(args.l))
    if any(have_greek):
        if not all(have_greek):
            raise AdmissibilityError("--alpha, --beta, --gamma, --delta must all be given")
        return MilnorParameters(args.alpha, args.beta, args.gamma, args.delta)
    if not all(have_pqr):
        raise AdmissibilityError("--p, --q, --r must all be given")
    return MilnorParameters.from_pqr(args.p, args.q, args.r)


def _parse_vector(text: str) -> np.ndarray:
    try:
        parts = [float(t) for t in text.split(",")]
    except ValueError as exc:
        raise AdmissibilityError(f"cannot parse vector {text!r}: {exc}") from exc
    if len(parts) != 3:
        raise AdmissibilityError(f"expected three comma-separated components, got {text!r}")
    return np.array(parts)


def _report_json(rep: ClassificationReport) -> str:
    obj = {
        "family": rep.family,
        "params": rep.params,
        "D": rep.D,
        "geodesic_case": rep.geodesic_case,
        "contact_form": rep.contact_form,
        "contact_metric": rep.contact_metric,
        "normal": rep.normal,
        "normality_residual": rep.normality_residual,
        "errata_notes": list(rep.errata_notes),
    }
    return json.dumps(obj, sort_keys=True)


def cmd_classify(args) -> int:
    source = _parse_source(args)
    if args.xi == "auto":
        for rep in classify_representatives(source):
            print(_report_json(rep))
    else:
        xi = _parse_vector(args.xi)
        print(_report_json(classify(source, xi)))
    return 0


def cmd_geodesics(args) -> int:
    _, L, enum = resolve_source(_parse_source(args))
    agreement = None
    if args.oracle is not None:
        pts = geodesic_brute_force(L, grid=args.oracle)
        agreement = oracle_match(enum, pts, args.oracle).agreement
    obj = {
        "case_tag": enum.case_tag,
        "discrete": [list(v) for v in enum.discrete],
        "families": [
            {
                "u": list(f.u),
                "v": list(f.v),
                "angles": "full" if f.angles is None else list(f.angles),
            }
            for f in enum.families
        ],
        "oracle_agreement": agreement,
    }
    print(json.dumps(obj, sort_keys=True))
    return 0


def _parse_range(text: str) -> np.ndarray:
    try:
        a, b, n = text.split(":")
        a, b, n = float(a), float(b), int(n)
        if not math.isfinite(b - a):  # np.linspace would warn and return inf or nan
            raise ValueError(text)
        return np.linspace(a, b, n)
    except ValueError as exc:
        raise AdmissibilityError(f"range must be start:stop:count with finite stop - start, got {text!r}") from exc


ATLAS_HEADER = "p,q,r,geodesic_case,Delta,D,n_discrete_geodesics,has_contact_structure,min_normality_residual"


# grid points per array pass of ``atlas_rows``; bounds its working memory
_BLOCK_ROWS = 2048


def atlas_rows(p_values, q_values, r_value):
    """One row per (p, q) grid point, in row-major order.

    Each block of ``_BLOCK_ROWS`` grid points is classified in one array
    pass, ``_batched._representative_summary``.  It calls the closed forms
    and checks of the scalar path, ``resolve_source`` then
    ``_representatives`` per point (as ``classify_representatives``), over
    a leading axis, and must agree with it: the same case tag, isolated
    count and contact flag, and the minimum normality residual to
    rounding.  A point that fails a check is computed by the scalar path,
    which raises its error.  Delta and D are computed per point in Python
    floats (``milnor_invariant_D``).
    """
    # imported here: every subcommand imports this module, only atlas needs the array pass
    from ._batched import _representative_summary

    p_values = np.asarray(p_values, dtype=float)
    q_values = np.asarray(q_values, dtype=float)
    r = float(r_value)
    n_q = len(q_values)
    total = len(p_values) * n_q
    for start in range(0, total, _BLOCK_ROWS):
        idx = np.arange(start, min(start + _BLOCK_ROWS, total))
        ps, qs = p_values[idx // n_q], q_values[idx % n_q]
        summary = _representative_summary(ps, qs, r)
        for p, q, tag, n_isolated, contact, residual, ok in zip(
            ps.tolist(), qs.tolist(), *(a.tolist() for a in summary)
        ):
            yield _atlas_row(p, q, r, tag, n_isolated, contact, residual) if ok else _scalar_atlas_row(p, q, r)


def _scalar_atlas_row(p: float, q: float, r: float) -> dict:
    params, L, enum = resolve_source(MilnorParameters.from_pqr(p, q, r))
    reps = _representatives(params, L, enum)
    return _atlas_row(
        p,
        q,
        r,
        enum.case_tag,
        len(enum.isolated_points()),
        any(rep.contact_form for rep in reps),
        min(rep.normality_residual for rep in reps),
    )


def _discriminant(a: float, b: float, g: float, d: float) -> float:
    """(beta + gamma)^2 - 4 alpha delta: finite where representable, else +-inf.

    Where the direct form is not finite, it is taken over the coefficients divided by a power of two s, times s^2.
    """
    try:
        direct = (b + g) ** 2 - 4.0 * a * d
    except OverflowError:
        direct = math.inf
    if math.isfinite(direct):
        return direct
    s = 2.0 ** (math.frexp(max(abs(a), abs(b), abs(g), abs(d)))[1] - 1)  # exact divisor, below 2^1024
    a, b, g, d = a / s, b / s, g / s, d / s
    return ((b + g) ** 2 - 4.0 * a * d) * s * s


def _atlas_row(p: float, q: float, r: float, tag: str, n_isolated: int, contact: bool, residual: float) -> dict:
    a, b, g, d = _adapted_coefficients(p, q, r)  # MilnorParameters.from_pqr
    return {
        "p": p,
        "q": q,
        "r": r,
        "geodesic_case": tag,
        "Delta": _discriminant(a, b, g, d),
        "D": _milnor_D(a, b, g, d),
        "n_discrete_geodesics": n_isolated,
        "has_contact_structure": contact,
        "min_normality_residual": residual,
    }


def cmd_atlas(args) -> int:
    p_values = _parse_range(args.p_range)
    q_values = _parse_range(args.q_range)
    lines = [ATLAS_HEADER]
    for row in atlas_rows(p_values, q_values, args.r):
        lines.append(
            f"{row['p']!r},{row['q']!r},{row['r']!r},{row['geodesic_case']},"
            f"{row['Delta']!r},{row['D']!r},{row['n_discrete_geodesics']},"
            f"{str(row['has_contact_structure']).lower()},{row['min_normality_residual']!r}"
        )
    try:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        print(f"cannot write {args.out!r}: {exc}", file=sys.stderr)
        return EXIT_BAD_OUTPUT
    return 0


def cmd_verify(args) -> int:
    if args.list:
        for name in GROUPS:
            print(name)
        return 0
    names = args.group or None
    for name in names or ():
        if name not in GROUPS:
            print(f"unknown group {name!r}; known: {', '.join(GROUPS)}", file=sys.stderr)
            return EXIT_BAD_PARAMS
    results = run_groups(names, seed=args.seed)
    all_ok = True
    for res in results:
        print(f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: {res.detail}")
        all_ok &= res.passed
    return 0 if all_ok else EXIT_VERIFY_FAILED


# one parser per process: rebuilding it on every ``main`` call fragments the
# heap (peak RSS grew 1.3 MB over 4,000 in-process atlas calls)
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contact3",
        description="Almost contact metric structures on 3D non-unimodular metric Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cls = sub.add_parser("classify", help="classify the structure for one or all geodesic xi")
    _add_param_flags(p_cls)
    p_cls.add_argument("--xi", required=True, help="x,y,z components, or 'auto'")
    p_cls.set_defaults(func=cmd_classify)

    p_geo = sub.add_parser("geodesics", help="enumerate unit geodesic vectors")
    _add_param_flags(p_geo)
    p_geo.add_argument("--oracle", type=int, metavar="GRID", help="cross-check with the sphere scan")
    p_geo.set_defaults(func=cmd_geodesics)

    p_atl = sub.add_parser("atlas", help="CSV sweep over the (p, q) plane")
    p_atl.add_argument("--p-range", required=True, metavar="a:b:n")
    p_atl.add_argument("--q-range", required=True, metavar="a:b:n")
    p_atl.add_argument("--r", type=float, required=True)
    p_atl.add_argument("--out", required=True)
    p_atl.set_defaults(func=cmd_atlas)

    p_ver = sub.add_parser("verify", help="run the seeded invariant suite")
    p_ver.add_argument("--seed", type=int, default=42)
    p_ver.add_argument("--group", action="append", help="run only this group (repeatable)")
    p_ver.add_argument("--list", action="store_true", help="print group names and exit")
    p_ver.set_defaults(func=cmd_verify)
    return parser


@functools.cache
def _value_flags() -> frozenset[str]:
    """The option strings of every subcommand option that takes a value."""
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return frozenset(s for p in sub.choices.values() for a in p._actions if a.nargs != 0 for s in a.option_strings)


def _fuse_compound_values(argv: list[str]) -> list[str]:
    # argparse reads option values like "-1e2", "-1:1:3" or "-1,0,0" as
    # flags; fold them into --flag=value form
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _value_flags() and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(tok + "=" + argv[i + 1])
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_fuse_compound_values(list(sys.argv[1:] if argv is None else argv)))
    try:
        return args.func(args)
    except AdmissibilityError as exc:
        print(f"inadmissible parameters: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    except NotGeodesicError as exc:
        print(f"rejected xi: {exc}", file=sys.stderr)
        return EXIT_NOT_GEODESIC
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS


if __name__ == "__main__":
    sys.exit(main())
