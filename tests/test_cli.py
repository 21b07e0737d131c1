import itertools
import json
from pathlib import Path

import numpy as np
import pytest

import chm.cli
import chm.families
from chm import EquivalenceWitness, apply_witness, json_dumps, matrix_to_obj, named
from chm.cli import main
from chm.scan import _CHUNK
from util import off_modulus_one, straddling_d0

GOLDEN_DIR = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_matrix(path, M):
    path.write_text(json_dumps(matrix_to_obj(M)), encoding="utf-8")
    return f"@{path}"


def test_show_matches_golden(capsys):
    code, out, _ = run(capsys, "show", "M1")
    assert code == 0
    assert out == (GOLDEN_DIR / "M1.json").read_text(encoding="utf-8")


def test_show_unknown_name(capsys):
    code, out, err = run(capsys, "show", "NOPE")
    assert code == 2
    assert out == ""
    assert "unknown" in err


def test_registry_list(capsys):
    code, out, _ = run(capsys, "registry")
    assert code == 0
    names = [e["name"] for e in json.loads(out)]
    assert names == ["M1", "M2_w1", "M2_w2", "D0", "F6", "S6"]


def test_census_family(capsys):
    code, out, _ = run(capsys, "census", "family:1.0,0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 17
    assert len(doc["locations"]) == 17


def test_census_near_corner(capsys):
    # offset 1e-8 from the corner x1 = x2 = pi/2, where some 2x2 residuals
    # shrink with the offset: 19 of them fall within the default eps
    code, out, _ = run(capsys, "census", "family:1.5707963167948966,1.5707963267948966")
    assert code == 0
    assert json.loads(out)["count"] == 19


def test_census_s6_zero(capsys):
    code, out, _ = run(capsys, "census", "S6")
    assert code == 0
    assert json.loads(out)["count"] == 0


def test_census_rejects_non_chm_file(capsys, tmp_path):
    arg = write_matrix(tmp_path / "ones.json", np.ones((6, 6)))
    code, _, err = run(capsys, "census", arg)
    assert code == 3
    assert "CHM" in err


def test_census_missing_file_is_io_error(capsys, tmp_path):
    code, _, _ = run(capsys, "census", f"@{tmp_path}/nope.json")
    assert code == 5


def test_census_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, _ = run(capsys, "census", f"@{path}")
    assert code == 3


@pytest.mark.parametrize(
    "text",
    [
        '{"d": 1, "entries": [[{"re": 1' + "0" * 400 + ', "im": 0}]]}',
        "[" * 200_000 + "]" * 200_000,
        '{"d": 1000000, "entries": [' + ", ".join(["[]"] * 10**6) + "]}",  # d rows, each empty
    ],
    ids=["huge-int", "deep", "huge-d"],
)
def test_malformed_matrix_file_is_invalid_input(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "census", f"@{path}")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_straddling_gap_is_inequivalent(capsys, tmp_path):
    # Dephased gap under eps, fitted witness over it: a plain miss.
    arg = write_matrix(tmp_path / "a.json", straddling_d0(1))
    code, out, _ = run(capsys, "equiv", arg, "D0", "--tol", "1e-4")
    assert (code, out) == (1, "inequivalent\n")
    code, out, _ = run(capsys, "exclusions", arg, "--tol", "1e-4")
    assert code == 0
    assert "R3" not in out


def test_census_bad_family_spec(capsys):
    code, _, _ = run(capsys, "census", "family:1.0")
    assert code == 3


def test_bad_tol_rejected(capsys):
    code, _, err = run(capsys, "census", "F6", "--tol", "0.01")
    assert code == 3
    assert "eps" in err


def test_tol_below_the_floor_is_rejected(capsys, tmp_path):
    # At 1e-15 float64 rounding splits exact zeros: F6 would count 29, not 45,
    # and a grid-64 scan would report forbidden counts.
    out_path = tmp_path / "s.csv"
    code, out, err = run(capsys, "scan", "--grid", "4", "--out", str(out_path), "--tol", "1e-15")
    assert (code, out) == (3, "") and "eps" in err
    assert not out_path.exists()
    code, out, _ = run(capsys, "census", "F6", "--tol", "1e-14")
    assert code == 0 and json.loads(out)["count"] == 45


def test_census3(capsys):
    code, out, _ = run(capsys, "census3", "M2_w1")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 28
    assert {"rows": [1, 3, 5], "cols": [1, 3, 5]} in doc["locations"]


@pytest.mark.parametrize("name", ["zero", "2F6", "nudged"])
def test_census3_rejects_entries_off_modulus_one(capsys, tmp_path, name):
    M = off_modulus_one()[name]
    code, out, err = run(capsys, "census3", write_matrix(tmp_path / "m.json", M))
    assert (code, out) == (3, "")
    assert "unimodular" in err


def test_h2_family_found(capsys):
    code, out, _ = run(capsys, "h2", "family:0.3,0.8")
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is True
    assert doc["rowPairing"] == [[1, 2], [3, 4], [5, 6]]
    assert doc["colPairing"] == [[1, 2], [3, 4], [5, 6]]


def test_h2_s6_not_found(capsys):
    code, out, _ = run(capsys, "h2", "S6")
    assert code == 1
    assert json.loads(out) == {"found": False}


def test_equiv_witness(capsys):
    code, out, _ = run(capsys, "equiv", "M1", "D0")
    assert code == 0
    w = EquivalenceWitness.from_obj(json.loads(out))
    err = np.abs(apply_witness(named("D0").matrix, w) - named("M1").matrix).max()
    assert err <= 1e-9


_M1_D0_WITNESS = (
    '{"rowPerm":[1,2,3,6,4,5],"colPerm":[1,2,3,6,4,5],'
    '"rowPhases":[{"re":0.0,"im":1.0},{"re":1.0,"im":0.0},{"re":1.0,"im":0.0},'
    '{"re":1.0,"im":0.0},{"re":1.0,"im":0.0},{"re":1.0,"im":0.0}],'
    '"colPhases":[{"re":1.0,"im":0.0},{"re":0.0,"im":-1.0},{"re":0.0,"im":-1.0},'
    '{"re":0.0,"im":-1.0},{"re":0.0,"im":-1.0},{"re":0.0,"im":-1.0}]}'
)
_D0_M1_WITNESS = (
    '{"rowPerm":[1,2,3,5,6,4],"colPerm":[1,2,3,5,6,4],'
    '"rowPhases":[{"re":0.0,"im":-1.0},{"re":1.0,"im":0.0},{"re":1.0,"im":0.0},'
    '{"re":1.0,"im":0.0},{"re":1.0,"im":0.0},{"re":1.0,"im":0.0}],'
    '"colPhases":[{"re":1.0,"im":-0.0},{"re":-0.0,"im":1.0},{"re":-0.0,"im":1.0},'
    '{"re":-0.0,"im":1.0},{"re":-0.0,"im":1.0},{"re":-0.0,"im":1.0}]}'
)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("equiv", "M1", "D0"), _M1_D0_WITNESS),
        (("equiv", "D0", "M1"), _D0_M1_WITNESS),
        (
            ("exclusions", "M1"),
            '{"rules":[{"id":"R1","evidence":{"count":30}},'
            f'{{"id":"R3","evidence":{_M1_D0_WITNESS}}}]}}',
        ),
    ],
)
def test_witness_stdout_pinned(capsys, argv, expected):
    # Every byte of stdout, down to the sign of each zero phase component.
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == json.dumps(json.loads(expected), indent=2) + "\n"


def test_equiv_identity(capsys):
    code, out, _ = run(capsys, "equiv", "M1", "M1")
    assert code == 0
    doc = json.loads(out)
    assert doc["rowPerm"] == [1, 2, 3, 4, 5, 6]
    assert doc["colPerm"] == [1, 2, 3, 4, 5, 6]


def test_equiv_negative(capsys):
    code, out, _ = run(capsys, "equiv", "M1", "F6")
    assert code == 1
    assert out.strip() == "inequivalent"


def test_equiv_timeout(capsys):
    code, _, err = run(capsys, "equiv", "M1", "D0", "--timeout", "0")
    assert code == 4
    assert "timed out" in err


@pytest.mark.parametrize("timeout", ["nan", "inf", "-1"])
def test_equiv_rejects_invalid_timeout(capsys, timeout):
    code, out, err = run(capsys, "equiv", "M1", "D0", "--timeout", timeout)
    assert code == 3
    assert out == ""
    assert "timeout" in err


def test_mu_negative(capsys):
    code, out, _ = run(capsys, "mu", "F6", "F6")
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_mu_positive(capsys, tmp_path):
    i2 = write_matrix(tmp_path / "i2.json", np.eye(2))
    f2 = write_matrix(tmp_path / "f2.json", np.array([[1, 1], [1, -1]], dtype=complex))
    code, out, _ = run(capsys, "mu", i2, f2)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_exclusions(capsys):
    code, out, _ = run(capsys, "exclusions", "M2_w1")
    assert code == 0
    assert [r["id"] for r in json.loads(out)["rules"]] == ["R1", "R2"]


def test_dephase(capsys):
    code, out, _ = run(capsys, "dephase", "M1")
    assert code == 0
    doc = json.loads(out)
    assert doc["entries"][1][1] == {"re": -1.0, "im": 0.0}
    assert all(e == {"re": 1.0, "im": 0.0} for e in doc["entries"][0])


def test_dephase_uses_tol(capsys, tmp_path):
    M = named("F6").matrix.copy()
    M[1, 0] = 5e-10  # first-column pivot below the default eps
    arg = write_matrix(tmp_path / "pivot.json", M)
    code, out, err = run(capsys, "dephase", arg)
    assert code == 3
    assert out == ""
    assert "zero" in err
    code, out, _ = run(capsys, "dephase", arg, "--tol", "1e-10")
    assert code == 0
    assert all(e == {"re": 1.0, "im": 0.0} for e in json.loads(out)["entries"][0])


def test_real_count(capsys):
    code, out, _ = run(capsys, "real", "M1")
    assert code == 0
    assert json.loads(out) == {"count": 30}


def test_determinism(capsys):
    outputs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "census", "family:0.25,0.75")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_env_tolerance_override(capsys, monkeypatch):
    monkeypatch.setenv("CHM_TOL", "1e-6")
    code, out, _ = run(capsys, "census", "family:1.0,0.5")
    assert code == 0
    assert json.loads(out)["count"] == 17
    monkeypatch.setenv("CHM_TOL", "0.5")  # outside the admissible range
    code, _, err = run(capsys, "census", "family:1.0,0.5")
    assert code == 3
    assert "eps" in err


def test_scan_smallest_grid(capsys, tmp_path):
    out_path = tmp_path / "scan.csv"
    code, out, _ = run(capsys, "scan", "--grid", "2", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x1,x2,N,gram_residual,h2_found,forbidden"
    assert len(lines) == 1 + 4
    assert out.startswith("points=4 ")


def test_scan_grid8(capsys, tmp_path):
    out_path = tmp_path / "scan.csv"
    code, out, _ = run(capsys, "scan", "--grid", "8", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 64
    assert all(int(r[2]) >= 9 for r in rows)
    assert all(r[5] == "false" for r in rows)
    # row-major ordering: x1 constant within each block of 8
    x1s = [r[0] for r in rows]
    assert x1s == sorted(x1s, key=float)
    assert "forbidden=0" in out


def test_scan_deterministic_bytes(capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(capsys, "scan", "--grid", "3", "--out", str(a))
    run(capsys, "scan", "--grid", "3", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_scan_json_format(capsys, tmp_path):
    out_path = tmp_path / "scan.json"
    code, _, _ = run(capsys, "scan", "--grid", "2", "--out", str(out_path), "--format", "json")
    assert code == 0
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert len(doc["records"]) == 4
    assert doc["summary"]["points"] == 4
    assert doc["summary"]["forbiddenCount"] == 0


def test_scan_unwritable_path(capsys, monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(chm.families, "family_h", calls.append)
    out_path = tmp_path / "no" / "dir" / "x.csv"
    for fmt in ("csv", "json"):
        code, _, _ = run(capsys, "scan", "--grid", "2", "--out", str(out_path), "--format", fmt)
        assert code == 5
    assert calls == []


def test_scan_failing_sweep_leaves_empty_file(capsys, monkeypatch, tmp_path):
    # The sweep fails in its second chunk, or in its eighth and last, after more
    # rows than one write buffer holds have reached the file.
    real = chm.families.family_h
    out_path = tmp_path / "scan.out"
    for chunk, fmt in itertools.product((2, 8), ("csv", "json")):
        out_path.write_text("stale\n", encoding="utf-8")
        calls, written = [], []

        def failing(point):
            calls.append(point)
            if len(calls) > (chunk - 1) * _CHUNK:
                written.append(out_path.stat().st_size)
                raise ValueError("sweep failed")
            return real(point)

        monkeypatch.setattr(chm.families, "family_h", failing)
        code, out, err = run(capsys, "scan", "--grid", "16", "--out", str(out_path), "--format", fmt)
        assert code == 3
        assert out == "" and "sweep failed" in err
        assert out_path.read_bytes() == b""
        assert len(calls) == (chunk - 1) * _CHUNK + 1
        assert written[0] > 0 or chunk == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--grid", "x", "--out", "unused.csv"],
        ["scan", "--grid", "2", "--out", "unused.csv", "--workers", "2"],
        ["census"],
        ["nosuchcommand"],
    ],
)
def test_usage_error_is_invalid_parameters(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--help"])
    assert exc.value.code == 0
    assert "--grid" in capsys.readouterr().out


def test_scan_rejects_tiny_grid(capsys, tmp_path):
    code, _, _ = run(capsys, "scan", "--grid", "1", "--out", str(tmp_path / "x.csv"))
    assert code == 3
