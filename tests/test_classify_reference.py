"""``contact3 classify`` against a golden reference, and ``_basis_constants`` against exact sums.

``data/classify_reference.jsonl`` holds one record per CLI call: its argv,
exit code and stdout lines, written by ``classify`` while
``_basis_constants`` was still one four-operand contraction.  The calls are
``--xi auto`` on three or four sources of every case tag (A1, A2, B1, B2,
C1, C2, D, E), through all three flag groups and at scales 0.003 to 4100,
plus two explicit xi on each B1/C1 geodesic circle, which take the
``_reduce_outside`` frame.  Reports of families A, B and C must be
reproduced byte for byte: their parameters and frames come from closed
forms.  Family-None reports read their parameters off ``_basis_constants``,
so those parameters and their ``normality_residual`` may move in the last
bits, within 2e-15 max(1, scale); every other field must be equal.
"""

import contextlib
import io
import itertools
import json
import os
from fractions import Fraction

import numpy as np
import pytest

from contact3 import cli
from contact3.classification import _basis_constants, resolve_source

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "classify_reference.jsonl")

with open(GOLDEN) as fh:
    RECORDS = [json.loads(line) for line in fh]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue().splitlines()


def _scale(argv) -> float:
    args = cli.build_parser().parse_args(cli._fuse_compound_values(list(argv)))
    return max(1.0, resolve_source(cli._parse_source(args))[1].scale)


def test_reference_covers_every_tag_and_family():
    reports = [json.loads(line) for rec in RECORDS for line in rec["stdout"]]
    assert {r["geodesic_case"] for r in reports} == {"A1", "A2", "B1", "B2", "C1", "C2", "D", "E"}
    assert {r["family"] for r in reports} == {"A", "B", "C", None}


@pytest.mark.parametrize("rec", RECORDS, ids=[" ".join(rec["argv"][1:]) for rec in RECORDS])
def test_classify_matches_reference(rec):
    code, lines = _run(rec["argv"])
    assert code == rec["exit"]
    assert len(lines) == len(rec["stdout"])
    tol = 2e-15 * _scale(rec["argv"])
    for got_line, ref_line in zip(lines, rec["stdout"]):
        ref = json.loads(ref_line)
        if ref["family"] is not None:
            assert got_line == ref_line
            continue
        got = json.loads(got_line)
        assert got.keys() == ref.keys() and got["params"].keys() == ref["params"].keys()
        for key in ref.keys() - {"params", "normality_residual"}:
            assert got[key] == ref[key], key
        for key, value in ref["params"].items():
            assert abs(got["params"][key] - value) <= tol, (key, got["params"][key], value)
        assert abs(got["normality_residual"] - ref["normality_residual"]) <= tol


def _random_frames(rng, n):
    c = rng.standard_normal((n, 3, 3, 3))
    c -= np.swapaxes(c, 1, 2)
    B = np.linalg.qr(rng.standard_normal((n, 3, 3)))[0]
    return c, np.ascontiguousarray(B)


def _exact_basis_constants(c, B):
    # sum over i, j, k of B_ia B_jb c_ijk B_kc in exact rational arithmetic
    Bf = [[Fraction(float(v)) for v in row] for row in B]
    cf = {idx: Fraction(float(c[idx])) for idx in itertools.product(range(3), repeat=3)}
    out = np.zeros((3, 3, 3))
    for a, b, k in itertools.product(range(3), repeat=3):
        total = Fraction(0)
        for i, j, m in itertools.product(range(3), repeat=3):
            total += Bf[i][a] * Bf[j][b] * cf[i, j, m] * Bf[m][k]
        out[a, b, k] = float(total)
    return out


@pytest.mark.parametrize("lam", [1e-8, 1.0, 1e8])
def test_basis_constants_match_exact_sums(lam):
    c, B = _random_frames(np.random.default_rng(12), 50)
    c *= lam
    got = _basis_constants(c, B)
    for n in range(len(c)):
        scale = np.abs(c[n]).max()
        err = np.abs(got[n] - _exact_basis_constants(c[n], B[n])).max()
        assert err <= 1e-15 * scale, (n, err / scale)


@pytest.mark.parametrize("n", [1, 2, 5, 45, 113])
def test_basis_constants_stack_is_bitwise_per_frame(n):
    # the batched atlas pass contracts stacks, the scalar path one frame at a
    # time; their results agree bit for bit only if these do
    c, B = _random_frames(np.random.default_rng(n), n)
    stacked = _basis_constants(c, B)
    single = np.stack([_basis_constants(c[i], B[i]) for i in range(n)])
    assert np.array_equal(stacked.view(np.uint64), single.view(np.uint64))
    # one algebra against a stack of frames, and frames stored column-major
    shared = np.stack([_basis_constants(c[0], B[i]) for i in range(n)])
    assert np.array_equal(_basis_constants(c[0], B).view(np.uint64), shared.view(np.uint64))
    B_f = np.swapaxes(np.ascontiguousarray(np.swapaxes(B, -1, -2)), -1, -2)
    assert np.array_equal(_basis_constants(c, B_f).view(np.uint64), stacked.view(np.uint64))
