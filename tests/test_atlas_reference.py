"""``cli.atlas_rows`` (one array pass per block of grid points) against the scalar loop it replaced.

The reference below is the loop ``atlas_rows`` ran before: ``resolve_source``
then ``_representatives`` for every grid point, so every row was one scalar
classification.  The batched rows must give CSV columns 1-8 byte for byte and
``min_normality_residual`` to 1e-14 max(1, scale); ``main`` must exit with the
same code and message class where the scalar path rejects a grid; and the
golden CSV ``data/atlas_reference.csv``, written by the loop, must be
reproduced.
"""

import ast
import os

import numpy as np
import pytest

from contact3 import _batched, cli, inplane_geodesic_angles
from contact3._batched import _representative_summary
from contact3.classification import _representatives, resolve_source
from contact3.lie_core import MilnorParameters, milnor_invariant_D
from contact3.metric_geometry import _inplane_roots

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "atlas_reference.csv")
# the atlas calls (p range, q range, r) whose rows, in this order, make up GOLDEN
GOLDEN_RUNS = [
    ("-2:2:9", "-1:1:5", "1.0"),
    ("-0.7500000000000075:0.7500000000000075:5", "-1e-13:1e-13:3", "-0.75"),
    ("-0.7500000000000075:0.7500000000000075:5", "-2:2:5", "-0.75"),
    ("-0.7499999999999925:-0.7500000000000075:3", "-1e-13:1e-13:3", "-0.75"),
    ("0.7499999999999925:0.7500000000000075:3", "-0.5:0.5:3", "-0.75"),
    ("-1e-14:1e-14:3", "-1:1:3", "2.5"),
    ("0.5:0.5:1", "0.75:0.75:1", "0.625"),
    ("-1.3:2.7:4", "-0.9:1.1:3", "0.3"),
]


def reference_rows(p_values, q_values, r_value):
    """One row per (p, q) grid point, in row-major order."""
    for p in p_values:
        for q in q_values:
            params, L, enum = resolve_source(MilnorParameters.from_pqr(float(p), float(q), float(r_value)))
            reps = _representatives(params, L, enum)
            delta_disc = (params.beta + params.gamma) ** 2 - 4.0 * params.alpha * params.delta
            yield {
                "p": float(p),
                "q": float(q),
                "r": float(r_value),
                "geodesic_case": enum.case_tag,
                "Delta": delta_disc,
                "D": milnor_invariant_D(params),
                "n_discrete_geodesics": len(enum.isolated_points()),
                "has_contact_structure": any(rep.contact_form for rep in reps),
                "min_normality_residual": min(rep.normality_residual for rep in reps),
            }


def _fields(row) -> list[str]:
    # the CSV fields of one row, formatted as ``cmd_atlas`` writes them
    return [
        repr(row["p"]),
        repr(row["q"]),
        repr(row["r"]),
        row["geodesic_case"],
        repr(row["Delta"]),
        repr(row["D"]),
        str(row["n_discrete_geodesics"]),
        str(row["has_contact_structure"]).lower(),
        repr(row["min_normality_residual"]),
    ]


def _assert_same_rows(got: list[list[str]], ref: list[list[str]]) -> None:
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert g[:8] == r[:8]
        scale = MilnorParameters.from_pqr(*(float(v) for v in r[:3])).scale
        assert abs(float(g[8]) - float(r[8])) <= 1e-14 * max(1.0, scale), (g, r)


def _grid(rng, scale_exp=(-2.0, 2.0)):
    # random points plus the boundary lines p = 0, p = +-r (exactly and
    # within 1e-14 relative), q = 0 and q within 1e-11 of it
    r = 10.0 ** rng.uniform(*scale_exp) * rng.choice([-1.0, 1.0])
    ps = np.concatenate([r * rng.uniform(-3, 3, 4), r * np.array([0.0, 1.0, -1.0, 1 + 1e-14, -(1 - 1e-14), 1e-14])])
    qs = np.concatenate([rng.uniform(-3, 3, 3), [0.0, 1e-13, -1e-13, 2e-12, -3e-11]])
    return ps, qs, r


def test_golden_csv(tmp_path):
    rows = []
    for i, (p_range, q_range, r) in enumerate(GOLDEN_RUNS):
        out = tmp_path / f"atlas{i}.csv"
        assert cli.main(["atlas", "--p-range", p_range, "--q-range", q_range, "--r", r, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == cli.ATLAS_HEADER
        rows.extend(line.split(",") for line in lines[1:])
    with open(GOLDEN) as fh:
        golden = fh.read().splitlines()
    assert golden[0] == cli.ATLAS_HEADER
    ref = [line.split(",") for line in golden[1:]]
    assert {row[3] for row in ref} == {"A1", "A2", "B1", "B2", "C1", "C2", "D"}
    _assert_same_rows(rows, ref)


@pytest.mark.parametrize("seed", range(4))
def test_batched_rows_match_the_scalar_loop(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    ps, qs, r = _grid(rng)
    ref = [_fields(row) for row in reference_rows(ps, qs, r)]
    _assert_same_rows([_fields(row) for row in cli.atlas_rows(ps, qs, r)], ref)
    # block boundaries inside the grid change nothing
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 7)
    _assert_same_rows([_fields(row) for row in cli.atlas_rows(ps, qs, r)], ref)
    # and the array pass, not the scalar path, decided the rows
    ok = _representative_summary(np.repeat(ps, len(qs)), np.tile(qs, len(ps)), r)[-1]
    assert ok.mean() >= 0.9


def _outcome(capsys, argv):
    # (exit code or escaping exception type, message class) of one main call
    try:
        code = cli.main(argv)
    except Exception as exc:  # the type of an escaping exception is what is compared
        code = type(exc).__name__
    err = capsys.readouterr().err
    return code, err.split(":")[0]


@pytest.mark.parametrize(
    "p_range,q_range,r",
    [
        ("-1:1:3", "0:1:2", "0"),  # r = 0
        ("nan:1:3", "0:1:2", "1"),  # a NaN range
        ("1e300:1e300:2", "0:1:2", "1"),  # alpha + delta = 0 in floats
        ("0:1:2", "1e300:1e300:2", "1"),  # alpha + delta vanishes against the scale
        ("0:1:2", "0:1:2", "1e300"),  # every row tag D
        ("-2e8:2e8:5", "-1:1:3", "1e8"),  # the absolute enumeration gate
        ("1e24:1e24:1", "0:0:1", "1e24"),  # the absolute geodesic gate on xi
        ("0:1:2", "0:1:2", "2e-11"),  # invariant_D's absolute unimodularity test
    ],
)
def test_error_exits_match_the_scalar_loop(p_range, q_range, r, tmp_path, capsys, monkeypatch):
    argv = ["atlas", "--p-range", p_range, "--q-range", q_range, "--r", r, "--out", str(tmp_path / "a.csv")]
    got = _outcome(capsys, argv)
    monkeypatch.setattr(cli, "atlas_rows", reference_rows)
    assert got == _outcome(capsys, argv)


def test_inplane_roots_match_the_scalar_solver():
    rng = np.random.default_rng(3)
    cases = [MilnorParameters.from_pqr(*pqr) for pqr in rng.uniform(-3, 3, (300, 3))]
    # double roots (det S = 0) and the p = +-r lines
    cases += [MilnorParameters.from_pqr(0.5, 0.75, 0.625), MilnorParameters(2, 2, 0, 0), MilnorParameters(0, 0, -2, 2)]
    # the atlas pass's arguments: arrays over the algebras, as it builds them
    a, b, g, d, scale = (np.array([getattr(c, k) for c in cases]) for k in ("alpha", "beta", "gamma", "delta", "scale"))
    for params, args in zip(cases, zip(*(v.tolist() for v in (a, 0.5 * (b + g), d, scale)))):
        assert _inplane_roots(*args) == (inplane_geodesic_angles(params), True)


def test_batched_gates_are_imported():
    # a gate written out in _batched could move apart from its scalar twin and
    # send rows to the scalar path unnoticed: _batched takes no tolerance from
    # contact3.tolerances and writes no small literal
    with open(_batched.__file__) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert not (node.module or "").endswith("tolerances"), ast.dump(node)
        elif isinstance(node, ast.Import):
            assert not any(alias.name.endswith("tolerances") for alias in node.names), ast.dump(node)
    small = {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, float) and 0.0 < node.value <= 1e-8
    }
    assert small == set()


@pytest.mark.parametrize("q", [1e-12 * (1 + 2**-40), 1.001e-12, 1e-11, 2e-11])
def test_b1_c1_rows_near_q_0_are_decided_by_the_array_pass(q):
    # the transverse root and the distinguished direction are about |q|
    # apart; the array pass routes them as the scalar path does, with no tie
    ps, qs, r = np.array([1.0, -1.0]), np.array([q, -q]), 1.0
    tags, _, _, _, ok = _representative_summary(np.repeat(ps, len(qs)), np.tile(qs, len(ps)), r)
    assert tags.tolist() == ["B1", "B1", "C1", "C1"] and ok.all()
    ref = [_fields(row) for row in reference_rows(ps, qs, r)]
    _assert_same_rows([_fields(row) for row in cli.atlas_rows(ps, qs, r)], ref)


def test_a_row_failing_the_report_checks_goes_to_the_scalar_path(monkeypatch):
    # one representative's frame is made non-finite inside the array pass's
    # own frame check: only its algebra fails there, and the scalar path,
    # which the array pass leaves it to, writes the reference row
    ps, qs, r = np.array([-1.5, 0.0, 1.0, 2.0]), np.array([0.5]), 1.0
    orthonormal = _batched._orthonormal

    def corrupted(F, G):
        F = F.copy()
        F[2, 0, 0] = np.nan  # the axis representative of the third algebra (p = r)
        return orthonormal(F, G)

    monkeypatch.setattr(_batched, "_orthonormal", corrupted)
    ok = _representative_summary(np.repeat(ps, len(qs)), np.tile(qs, len(ps)), r)[-1]
    assert ok.tolist() == [True, True, False, True]
    ref = [_fields(row) for row in reference_rows(ps, qs, r)]
    _assert_same_rows([_fields(row) for row in cli.atlas_rows(ps, qs, r)], ref)
