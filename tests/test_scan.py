import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chm
from chm import (
    CensusRecord,
    DomainError,
    FamilyPoint,
    NotCHMError,
    ScanConfig,
    Tolerance,
    census_2x2,
    count_real_entries,
    exclusion_report,
    family_h,
    find_3x3_sub_chms,
    forbidden_count_check,
    gram_residual,
    grid_values,
    named,
    run_scan,
    scan_point,
)
from chm.census import _pair_residuals, _residual_table
from chm.core import DEFAULT_TOL, _gram_residuals, _Prepared
from chm.families import _family_stack
from chm.scan import _CHUNK, CSV_HEADER, _census_columns, write_records, write_scan
from util import (
    brute_force_census_2x2,
    brute_force_h2,
    gram_residuals_oracle,
    pair_residuals_oracle,
    scan_file_oracle,
)


# Grids 8 and 16 fill whole chunks; grids 6 and 10 end in a partial one. Each
# spans more than one chunk, and grid 16 eight.
@pytest.mark.parametrize("grid_n", [6, 8, 10, 16])
def test_run_scan_matches_scalar_oracles(grid_n):
    assert (grid_n**2 % _CHUNK == 0) == (grid_n in (8, 16)) and grid_n**2 > _CHUNK
    records, summary = run_scan(ScanConfig(grid_n=grid_n, out_path="unused"))
    expected = []
    for x1 in grid_values(grid_n):
        for x2 in grid_values(grid_n):
            M = family_h(FamilyPoint(x1, x2))
            n = len(brute_force_census_2x2(M))
            expected.append(
                CensusRecord(
                    x1=x1,
                    x2=x2,
                    n=n,
                    gram_residual=gram_residual(M),
                    h2_found=brute_force_h2(M) is not None,
                    forbidden=not forbidden_count_check(n),
                )
            )
    assert records == expected
    assert records == [scan_point(r.x1, r.x2) for r in records]
    assert summary["points"] == grid_n**2


def test_census_record_is_a_plain_row_in_csv_column_order():
    assert CensusRecord._fields == tuple(CSV_HEADER.lower().split(","))
    records, _ = run_scan(ScanConfig(grid_n=3, out_path="unused"))
    xs = grid_values(3)
    x1s, x2s = zip(*[(x1, x2) for x1 in xs for x2 in xs])
    rows = list(zip(x1s, x2s, *_census_columns(x1s, x2s, DEFAULT_TOL.eps)))
    assert all(type(row) is tuple for row in rows)
    assert records == rows  # (x1, x2, N, gram_residual, h2_found, forbidden)
    assert len(set(records)) == 9


@pytest.mark.parametrize("grid_n", [16384, 65536])
def test_scan_stack_covers_the_grid_corner(grid_n):
    # the last 4x4 grid points lie within 3*pi/grid_n of x1 = x2 = pi/2
    corner = grid_values(grid_n)[-4:]
    x1s, x2s = zip(*[(x1, x2) for x1 in corner for x2 in corner])
    records = list(map(CensusRecord._make, zip(x1s, x2s, *_census_columns(x1s, x2s, DEFAULT_TOL.eps))))
    assert [(r.x1, r.x2) for r in records] == list(zip(x1s, x2s))
    assert all(r.h2_found and not r.forbidden for r in records)


_HALF_PI = math.pi / 2


# (point, 2x2 count, 3x3 count, real-entry count, exclusion rules fired):
# the largest counts are not confined to the corner x1 = x2 = pi/2.
AXIS_AND_CORNER_POINTS = [
    ((0.0, 0.0), 45, 28, 20, ["R2"]),
    ((_HALF_PI, 0.0), 33, 16, 16, ["R2"]),
    ((0.0, _HALF_PI), 33, 16, 16, ["R2"]),
    ((_HALF_PI, _HALF_PI), 75, 0, 24, ["R1", "R3"]),
]


@pytest.mark.parametrize("point, n2, n3, real, rules", AXIS_AND_CORNER_POINTS)
def test_counts_at_the_axis_and_corner_points(point, n2, n3, real, rules):
    M = family_h(FamilyPoint(*point))
    assert census_2x2(M).count == n2
    assert len(find_3x3_sub_chms(M)) == n3
    assert count_real_entries(M) == real
    assert [hit.rule_id for hit in exclusion_report(M).rules_fired] == rules
    assert scan_point(*point).n == n2


def test_grid_16_scan_reports_the_origin_and_axis_points():
    records, summary = run_scan(ScanConfig(grid_n=16, out_path="unused"))
    by_point = {(r.x1, r.x2): r.n for r in records}
    assert records[119].x1 == records[119].x2 == 0.0  # CSV line 121, after the header
    for point, n2, *_ in AXIS_AND_CORNER_POINTS:
        assert by_point[point] == n2
    assert summary["maxN"] == 75


@pytest.mark.usefixtures("fresh_recent")
def test_scan_point_checks_chm_once(monkeypatch):
    calls = []
    real = chm.core._chm_residual  # the CHM residual behind is_chm and every internal caller

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (chm, chm.core, chm.census, chm.scan, chm.mub, chm.equivalence):
        if hasattr(module, "_chm_residual"):
            monkeypatch.setattr(module, "_chm_residual", counting)
    scan_point(1.0, 0.5)
    assert len(calls) == 1


def test_scan_computes_gram_residuals_once_per_chunk(monkeypatch):
    calls = []
    real = chm.core._gram_residuals

    def counting(M):
        calls.append(len(M))
        return real(M)

    for module in (chm.core, chm.census, chm.scan, chm.equivalence):
        if hasattr(module, "_gram_residuals"):
            monkeypatch.setattr(module, "_gram_residuals", counting)
    records, _ = run_scan(ScanConfig(grid_n=16, out_path="unused"))
    whole, rest = divmod(16**2, _CHUNK)
    assert calls == [_CHUNK] * whole + [rest] * (rest > 0)
    first = records[:_CHUNK]
    assert [r.gram_residual for r in first] == real(_family_stack(*zip(*[(r.x1, r.x2) for r in first]))).tolist()


def test_chunk_kernels_match_the_oracles_bit_for_bit():
    # Chunks that shrink and grow, each built with fresh arrays: every 2x2
    # table and every Gram residual equals the oracle's, bit for bit. The
    # gap to the row-orthogonality form is bounded in test_census.py.
    xs = grid_values(64)
    points = [(x1, x2) for x1 in xs for x2 in xs]
    start = 0
    for size in [_CHUNK, 1, 5, 12, _CHUNK - 1, _CHUNK, 7] * 20:
        S = _family_stack(*zip(*points[start : start + size]))
        start += size
        assert _pair_residuals(S).tobytes() == pair_residuals_oracle(S)[0].tobytes()
        assert _gram_residuals(S).tobytes() == gram_residuals_oracle(S).tobytes()


# Grids 2 to 5 fit one partial chunk, 8 and 16 fill two and eight, and 10
# ends three whole chunks with a partial one.
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("grid_n", [2, 3, 5, 8, 10, 16])
def test_write_scan_writes_the_bytes_of_run_scan(tmp_path, grid_n, fmt):
    streamed = ScanConfig(grid_n, tmp_path / "streamed", fmt=fmt)
    whole = ScanConfig(grid_n, tmp_path / "whole", fmt=fmt)
    summary = write_scan(streamed)
    records, expected = run_scan(whole)
    write_records(records, expected, whole)
    assert summary == expected
    data = streamed.out_path.read_bytes()
    assert data == whole.out_path.read_bytes()
    assert data == scan_file_oracle(records, summary, fmt).encode()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_records_of_no_records_matches_the_oracle(tmp_path, fmt):
    config = ScanConfig(2, tmp_path / "empty", fmt=fmt)
    summary = {"points": 0, "minN": 0, "maxN": 0, "forbiddenCount": 0}
    write_records([], summary, config)
    assert config.out_path.read_bytes() == scan_file_oracle([], summary, fmt).encode()


def test_residual_table_rejects_a_stack_with_one_non_chm_member():
    stack = np.array([named("M1").matrix, named("S6").matrix, named("F6").matrix])
    assert _residual_table(_Prepared(stack), DEFAULT_TOL).shape == (3, 15, 15)
    stack[2, 4, 4] = -stack[2, 4, 4]
    with pytest.raises(NotCHMError):
        _residual_table(_Prepared(stack), DEFAULT_TOL)


def test_family_stack_rejects_one_point_out_of_domain():
    x1s = [0.1 * k for k in range(-5, 6)]
    _family_stack(x1s, x1s)
    with pytest.raises(DomainError, match="x2="):
        _family_stack(x1s, x1s[:-1] + [-math.pi / 2])


@pytest.mark.parametrize("grid_n", [2.5, 16.0, "3", True, np.True_, None])
def test_scan_config_rejects_a_grid_that_is_not_an_integer(grid_n):
    with pytest.raises(ValueError, match="grid_n must be an integer"):
        ScanConfig(grid_n, "unused")


def test_scan_config_accepts_numpy_integers():
    records, summary = run_scan(ScanConfig(np.int64(2), "unused"))
    assert summary["points"] == len(records) == 4


@pytest.mark.parametrize("tol", [1e-9, None, "1e-9"])
def test_scan_config_rejects_a_tol_that_is_not_a_tolerance(tol):
    with pytest.raises(TypeError, match="Tolerance"):
        ScanConfig(16, "unused", tol=tol)
    assert ScanConfig(16, "unused", tol=Tolerance(1e-6)).tol.eps == 1e-6


_SCAN_MAXRSS = """
import resource, sys
from chm.cli import main
main(["scan", "--grid", sys.argv[1], "--out", sys.argv[2]])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _scan_maxrss(grid_n, out_path):
    # Peak RSS (kB) of one `chm scan` in a fresh process.
    package_root = str(Path(chm.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", _SCAN_MAXRSS, str(grid_n), str(out_path)],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    return int(out.stdout.splitlines()[-1])


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in kB as Linux reports it")
def test_scan_peak_memory_does_not_grow_with_the_grid(tmp_path):
    # 64x more grid points, within 2 MB of the same peak: rows are written as
    # each chunk finishes, and no per-point record is kept.
    small = _scan_maxrss(64, tmp_path / "64.csv")
    large = _scan_maxrss(512, tmp_path / "512.csv")
    assert large - small <= 2048, (small, large)


_SCAN_FAULTS = """
import resource, sys
from chm import ScanConfig, run_scan
from chm.cli import main
grid_n, out_path = sys.argv[1:]
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
if out_path == "-":
    run_scan(ScanConfig(grid_n=int(grid_n), out_path="unused"))
else:
    main(["scan", "--grid", grid_n, "--out", out_path])
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _scan_faults(grid_n, out_path="-"):
    # Minor page faults of one scan in a fresh process: run_scan, or with an
    # out_path the streamed `chm scan` that writes it.
    package_root = str(Path(chm.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", _SCAN_FAULTS, str(grid_n), str(out_path)],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    return int(out.stdout.splitlines()[-1])


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_minflt as Linux counts it")
def test_scan_chunks_do_not_refault_the_heap(tmp_path):
    # Each chunk builds fresh arrays; malloc reuses their heap pages rather than
    # handing them back to the OS and faulting them in again: under one minor
    # fault per extra grid point, for run_scan and for the streamed `chm scan`.
    for small, large in (("-", "-"), (tmp_path / "16.csv", tmp_path / "64.csv")):
        extra = _scan_faults(64, large) - _scan_faults(16, small)
        assert extra < 64**2 - 16**2, (str(large), extra)
