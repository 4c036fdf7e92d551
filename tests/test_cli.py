import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from contact3 import MilnorParameters, inplane_geodesic_angles
from contact3.cli import ATLAS_HEADER, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_auto_three_records(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--alpha", "3", "--beta", "0", "--gamma", "0", "--delta", "-1", "--xi", "auto"
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["family"] for r in records] == ["A", "B", "B"]
    bs = sorted(r["params"]["B"] for r in records[1:])
    assert bs == pytest.approx([-math.sqrt(3.0), math.sqrt(3.0)])
    assert all(r["contact_form"] for r in records[1:])
    assert not records[0]["contact_form"]
    assert not any(r["normal"] for r in records)


def test_classify_tiny_functional(capsys):
    # the functional (1e-200, 0, 0) is (1, 0, 0) rescaled, a normal family-A structure
    code, out, err = run_cli(capsys, "classify", "--l", "1e-200,0,0", "--xi", "auto")
    assert code == 0, err
    (rec,) = [json.loads(line) for line in out.strip().splitlines()]
    assert rec["family"] == "A" and rec["normal"] is True


def test_classify_normal_key(capsys):
    # p = 0: the axis structure is normal
    code, out, _ = run_cli(capsys, "classify", "--p", "0", "--q", "0.5", "--r", "1", "--xi", "auto")
    assert code == 0
    (rec,) = [json.loads(line) for line in out.strip().splitlines()]
    assert rec["normal"] is True and rec["contact_form"] is False


def test_classify_explicit_xi(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--p", "2", "--q", "0", "--r", "1", "--xi", "1,0,0"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["family"] == "A"
    assert rec["D"] == pytest.approx(-3.0)


def test_classify_constraint_violation_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "classify", "--alpha", "1", "--beta", "1", "--gamma", "1", "--delta", "1", "--xi", "1,0,0"
    )
    assert code == 2
    assert "orthogonality" in err


def test_classify_non_geodesic_exits_3(capsys):
    code, _, err = run_cli(capsys, "classify", "--p", "0", "--q", "0", "--r", "1", "--xi", "0,1,0")
    assert code == 3
    assert "geodesic" in err and "ker" in err


def test_classify_functional_input(capsys):
    code, out, _ = run_cli(capsys, "classify", "--l", "1,0,0", "--xi", "auto")
    assert code == 0
    rec = json.loads(out)
    assert rec["family"] == "A" and rec["geodesic_case"] == "E"


def test_classify_flag_groups_are_exclusive(capsys):
    code, _, err = run_cli(
        capsys, "classify", "--alpha", "1", "--beta", "0", "--gamma", "0", "--delta", "1",
        "--p", "0", "--q", "0", "--r", "1", "--xi", "1,0,0"
    )
    assert code == 2
    assert "exactly one" in err


def test_classify_output_is_deterministic(capsys):
    args = ("classify", "--alpha", "3", "--beta", "3", "--gamma", "1", "--delta", "-1", "--xi", "auto")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_geodesics_json(capsys):
    code, out, _ = run_cli(capsys, "geodesics", "--p", "1", "--q", "1", "--r", "1")
    assert code == 0
    rec = json.loads(out)
    assert rec["case_tag"] == "B1"
    assert len(rec["discrete"]) == 2
    assert rec["families"][0]["angles"] == "full"
    assert rec["oracle_agreement"] is None


def test_geodesics_with_oracle(capsys):
    code, out, _ = run_cli(capsys, "geodesics", "--p", "2", "--q", "0", "--r", "1", "--oracle", "200")
    assert code == 0
    rec = json.loads(out)
    assert rec["case_tag"] == "A2"
    assert rec["oracle_agreement"] <= 1e-5
    angles = rec["families"][0]["angles"]
    assert sorted(angles) == pytest.approx([math.pi / 3, 2 * math.pi / 3], abs=1e-12)


@pytest.mark.parametrize("grid, code", [(0, 2), (99, 2), (100, 0)])
def test_geodesics_oracle_grid_floor(capsys, grid, code):
    # a grid of 0 is rejected like any other grid below 100, not skipped
    got, out, err = run_cli(capsys, "geodesics", "--p", "2", "--q", "0", "--r", "1", "--oracle", str(grid))
    assert got == code
    if code:
        assert "grid must be at least 100" in err and out == ""
    else:
        assert json.loads(out)["oracle_agreement"] is not None


def test_geodesics_case_d(capsys):
    code, out, _ = run_cli(capsys, "geodesics", "--p", "0", "--q", "0", "--r", "1")
    rec = json.loads(out)
    assert rec["case_tag"] == "D"
    assert len(rec["discrete"]) == 2 and rec["families"] == []


def test_geodesics_of_a_tiny_functional(capsys):
    # |l|^2 underflows at 1e-200; l is still nonzero and its dual is e1
    code, out, _ = run_cli(capsys, "geodesics", "--l", "1e-200,0,0")
    assert code == 0
    rec = json.loads(out)
    assert rec["case_tag"] == "E"
    assert rec["discrete"][0] == [1.0, 0.0, 0.0]


def test_atlas_csv(tmp_path, capsys):
    out_file = tmp_path / "atlas.csv"
    code, _, _ = run_cli(
        capsys, "atlas", "--p-range", "-1:1:3", "--q-range", "0:2:3", "--r", "1", "--out", str(out_file)
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == ATLAS_HEADER
    assert len(lines) == 10
    rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    grid = {(float(r["p"]), float(r["q"])): r for r in rows}
    assert grid[(0.0, 0.0)]["geodesic_case"] == "D"
    assert grid[(1.0, 1.0)]["geodesic_case"] == "B1"
    assert grid[(-1.0, 1.0)]["geodesic_case"] == "C1"
    assert grid[(1.0, 0.0)]["geodesic_case"] == "B2"
    # row-major order: p varies slowest
    ps = [float(r["p"]) for r in rows]
    assert ps == sorted(ps)


def test_atlas_at_r_1e200(tmp_path, capsys):
    # every row is tag D with D = 1 + q^2; (alpha + delta)^2 overflows
    out_file = tmp_path / "atlas.csv"
    code, _, _ = run_cli(
        capsys, "atlas", "--p-range", "-1:1:3", "--q-range", "-1:1:3", "--r", "1e200", "--out", str(out_file)
    )
    assert code == 0
    rows = [ln.split(",") for ln in out_file.read_text().strip().splitlines()[1:]]
    assert len(rows) == 9
    assert all(row[3] == "D" and float(row[5]) == 1.0 + float(row[1]) ** 2 for row in rows)


def test_classify_family_c_at_large_scale(capsys):
    # Abar^2 + Bbar^2 overflows at this scale
    code, out, _ = run_cli(capsys, "classify", "--p", "1e160", "--q", "0", "--r", "1e160", "--xi", "0.6,0,0.8")
    assert code == 0
    assert json.loads(out)["family"] == "C"


def test_python_m_contact3_runs_the_cli():
    import contact3

    src = os.path.dirname(os.path.dirname(os.path.abspath(contact3.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "contact3", "verify", "--list"], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "axioms" in proc.stdout.split()


def test_atlas_bad_output_path_exits_4(capsys):
    code, _, err = run_cli(
        capsys, "atlas", "--p-range", "0:1:2", "--q-range", "0:1:2", "--r", "1",
        "--out", "/nonexistent-dir/atlas.csv"
    )
    assert code == 4
    assert "cannot write" in err


def test_verify_list_and_single_group(capsys):
    code, out, _ = run_cli(capsys, "verify", "--list")
    assert code == 0
    names = out.strip().splitlines()
    assert "axioms" in names and "geodesic-oracle" in names

    code, out, _ = run_cli(capsys, "verify", "--seed", "42", "--group", "angle-roots")
    assert code == 0
    assert out.startswith("[PASS] angle-roots")


def test_verify_unknown_group(capsys):
    code, _, err = run_cli(capsys, "verify", "--group", "nope")
    assert code == 2
    assert "unknown group" in err


def test_classify_snaps_xi_at_the_default_tolerance(capsys):
    # at a double in-plane root the geodesic defect grows with the square of
    # xi's offset: 1e-6 off passes the predicate tolerance and snaps, 1e-4 off
    # (defect 1.25e-8, against 1.125e-9 at this algebra's scale 1.125) fails
    (t,) = inplane_geodesic_angles(MilnorParameters.from_pqr(0.5, 0.75, 0.625))
    args = ("classify", "--p", "0.5", "--q", "0.75", "--r", "0.625", "--xi")
    code, out, _ = run_cli(capsys, *args, f"0,{math.cos(t + 1e-6)},{math.sin(t + 1e-6)}")
    assert code == 0
    assert any(note.startswith("xi snapped") for note in json.loads(out)["errata_notes"])
    code, _, err = run_cli(capsys, *args, f"0,{math.cos(t + 1e-4)},{math.sin(t + 1e-4)}")
    assert code == 3
    assert "not a geodesic vector" in err


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--alpha", ("classify", "--alpha", "-1e0", "--beta", "0", "--gamma", "0", "--delta", "3", "--xi", "auto")),
        ("--beta", ("classify", "--alpha", "1", "--beta", "-2e0", "--gamma", "0", "--delta", "0", "--xi", "auto")),
        ("--gamma", ("classify", "--alpha", "0", "--beta", "0", "--gamma", "-2e0", "--delta", "1", "--xi", "auto")),
        ("--delta", ("classify", "--alpha", "3", "--beta", "0", "--gamma", "0", "--delta", "-1e0", "--xi", "auto")),
        ("--p", ("classify", "--p", "-5e-1", "--q", "1", "--r", "1", "--xi", "auto")),
        ("--q", ("classify", "--p", "0.5", "--q", "-1e0", "--r", "1", "--xi", "auto")),
        ("--r", ("classify", "--p", "0.5", "--q", "1", "--r", "-2e0", "--xi", "auto")),
        ("--r", ("atlas", "--p-range", "-1:1:3", "--q-range", "0:1:2", "--r", "-1e2", "--out")),
    ],
    ids=["alpha", "beta", "gamma", "delta", "p", "q", "r", "atlas-r"],
)
def test_negative_exponent_values(flag, argv, tmp_path, capsys):
    # argparse does not read "-1e2" as a number; every float flag must take it
    # as it takes "--flag=-1e2"
    out_file = tmp_path / "atlas.csv"
    argv = [*argv, str(out_file)] if argv[0] == "atlas" else list(argv)
    i = argv.index(flag)
    outputs = []
    for args in (argv, argv[:i] + [f"{flag}={argv[i + 1]}"] + argv[i + 2 :]):
        code, out, err = run_cli(capsys, *args)
        assert code == 0, err
        outputs.append(out + (out_file.read_text() if argv[0] == "atlas" else ""))
    assert outputs[0] == outputs[1]
