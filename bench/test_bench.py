"""Tests of the benchmark itself: python3 -m pytest bench"""

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import chm  # noqa: E402
import worker  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Every metric name the benchmark promises, end to end and per layer.
METRIC_NAMES = [
    "setup_s", "failed_ratio", "peak_rss_mb", "points_per_s", "matrices_per_s",
    "latency_p50_ms", "latency_tail_ms", "best_ops_per_s", "best_latency_ms",
    "families.family_h.calls", "families.family_h.total_ms",
    "core.gram_residual.calls", "core.gram_residual.total_ms",
    "census.census_2x2.calls", "census.census_2x2.total_ms", "census.census_2x2.self_ms",
    "census.h2_block_structure.calls", "census.h2_block_structure.total_ms",
    "census.h2_block_structure.self_ms", "census.h2_block_structure.found_ratio",
    "census.h2_block_structure.pairings_tried",
    "scan.scan_point.calls", "scan.scan_point.total_ms", "scan.scan_point.self_ms",
    "scan.run_scan.total_ms", "scan.write_records.total_ms", "scan.write_records.bytes",
    "equivalence.are_equivalent.calls", "equivalence.are_equivalent.total_ms",
    "equivalence.are_equivalent.self_ms", "equivalence.are_equivalent.found_ratio",
    "equivalence.are_equivalent.perm_rank_mean",
    "census.find_3x3_sub_chms.calls", "census.find_3x3_sub_chms.total_ms",
    "census.find_3x3_sub_chms.found_ratio",
    "equivalence.real_submatrices_3x2.calls", "equivalence.real_submatrices_3x2.total_ms",
    "equivalence.dephase.calls", "equivalence.dephase.total_ms",
    "equivalence.count_real_entries.calls", "equivalence.count_real_entries.total_ms",
    "equivalence.apply_witness.calls", "equivalence.apply_witness.total_ms",
    "mub.exclusion_report.calls", "mub.exclusion_report.total_ms", "mub.exclusion_report.self_ms",
    "mub.mu_pair.calls", "mub.mu_pair.total_ms",
    "core.is_chm.calls", "core.is_chm.total_ms",
    "numpy.import_ms", "chm.import_ms",
    "core.matrix_from_obj.calls", "core.matrix_from_obj.total_ms",
    "cli.main.total_ms", "cli.start_ms", "trace.overhead_ratio",
]


def _scan(tmp_path, n):
    config = chm.ScanConfig(grid_n=n, out_path=tmp_path / "scan.csv")
    records, summary = chm.run_scan(config)
    chm.scan.write_records(records, summary, config)
    return (tmp_path / "scan.csv").read_bytes(), chm.scan.summary_line(summary) + "\n"


def test_scan_check_accepts_real_output(tmp_path):
    data, stdout = _scan(tmp_path, 6)
    assert workloads.check_scan(data, stdout, 6, workloads.grid_sample(3, 6)) == (0, [])


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda f: [f[0], "0.5"] + f[2:],  # wrong grid value
        lambda f: f[:4] + ["false", f[5]],  # h2_found lost
        lambda f: f[:2] + [str(int(f[2]) + 2)] + f[3:],  # wrong count (sampled row)
        lambda f: f[:3] + ["nan"] + f[4:],
    ],
)
def test_corrupted_scan_row_is_a_failure(tmp_path, corrupt):
    n = 6
    data, stdout = _scan(tmp_path, n)
    lines = data.decode().split("\n")
    k1, k2 = 2, 3
    row = 1 + k1 * n + k2
    lines[row] = ",".join(corrupt(lines[row].split(",")))
    failed, problems = workloads.check_scan("\n".join(lines).encode(), stdout, n, [(k1, k2)])
    assert failed >= 1 and problems


def test_truncated_scan_fails_every_point(tmp_path):
    data, stdout = _scan(tmp_path, 4)
    failed, _ = workloads.check_scan(data[: data.rindex(b"\n", 0, -1) + 1], stdout, 4, [])
    assert failed == 16


def _mix_result(req):
    try:
        return {"output": worker.outputs_obj(worker.check_matrix(chm, req)), "error": None}
    except chm.ChmError as exc:
        return {"output": None, "error": f"{type(exc).__name__}: {exc}"}


def test_mix_checks_pass_on_real_outputs_and_classify_near_corner():
    reqs, invariants, shares = workloads.mix_inputs(7, family_points=1)
    assert shares["base"] == len(reqs) == 12 + 2 + 2
    verdicts = {}
    for req in reqs:
        verdict, problems = workloads.check_mix(req, invariants[json.dumps(req["source"])], _mix_result(req))
        assert verdict != "wrong", problems
        verdicts.setdefault(req["kind"], set()).add(verdict)
    assert verdicts["registry_image"] == {"ok"}
    assert verdicts["family_image"] == {"ok"}
    assert "failed" in verdicts["near_corner"] or verdicts["near_corner"] == {"ok"}


def test_tampered_witness_is_a_failure():
    reqs, invariants, _ = workloads.mix_inputs(7, family_points=1)
    req = next(r for r in reqs if r["kind"] == "registry_image" and r["expect_equiv"])
    entry = _mix_result(req)
    inv = invariants[json.dumps(req["source"])]
    assert workloads.check_mix(req, inv, entry) == ("ok", [])
    phase = entry["output"]["equiv"]["rowPhases"][0]
    z = complex(phase["re"], phase["im"]) * complex(math.cos(1e-6), math.sin(1e-6))
    phase.update(re=z.real, im=z.imag)
    verdict, problems = workloads.check_mix(req, inv, entry)
    assert verdict == "wrong"
    assert any("witness does not re-verify" in p for p in problems)


def test_unexpected_error_is_wrong_but_near_corner_error_is_a_failure():
    reqs, invariants, _ = workloads.mix_inputs(7, family_points=1)
    for req in reqs:
        entry = {"output": None, "error": "NotCHMError: residual"}
        verdict, _ = workloads.check_mix(req, invariants[json.dumps(req["source"])], entry)
        assert verdict == ("failed" if req["kind"] == "near_corner" else "wrong")


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = chm.cli.main(argv)
    return code, out.getvalue()


def test_cli_checks_and_wrong_exit_code(tmp_path):
    import chm.cli  # noqa: F401

    commands = workloads.cli_inputs(5, tmp_path)
    assert [argv[0] for argv, _, _ in commands] == [cmd for cmd, _ in workloads.CLI_SLOTS]
    for argv, code, expected in commands:
        got_code, stdout = _cli(argv)
        assert workloads.check_cli(code, expected, got_code, stdout) == [], argv
    argv, code, expected = next(c for c in commands if c[1] == 1)
    got_code, stdout = _cli(argv)
    assert workloads.check_cli(code, expected, 0, stdout)
    assert workloads.check_cli(code, expected, 3, "")


def test_inputs_depend_only_on_seed(tmp_path):
    a, _, _ = workloads.mix_inputs(11, family_points=1)
    b, _, _ = workloads.mix_inputs(11, family_points=1)
    c, _, _ = workloads.mix_inputs(12, family_points=1)
    assert a == b and a != c
    assert workloads.grid_sample(4, 64) == workloads.grid_sample(4, 64)


def test_pairings_and_perm_rank_are_computed_from_results():
    H = chm.family_h(chm.FamilyPoint(1.0, 0.5))
    assert tracing.pairings_tried(chm.h2_block_structure(H)) == 1
    assert tracing.pairings_tried(None) == 225
    w = chm.are_equivalent(chm.named("F6").matrix, chm.named("F6").matrix)
    assert tracing.perm_rank(w) == 0


def test_self_time_subtracts_direct_children():
    spans = [
        ["a", 0, 100, -1, 0, None, None],
        ["b", 10, 40, 0, 0, True, 3],
        ["c", 15, 25, 1, 0, None, None],
        ["b", 50, 60, 0, 0, False, 5],
    ]
    groups = tracing.aggregate(spans)
    assert groups[0]["a"]["self_ns"] == 100 - 30 - 10
    assert groups[0]["b"]["self_ns"] == (30 - 10) + 10
    assert groups[0]["b"]["found"] == 1 and groups[0]["b"]["value_sum"] == 8


def test_compare_flags_regressions_and_unresolved():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert run.compare_metric(base, [v * 1.5 for v in base], "lower", 0.1).startswith("WORSE")
    assert run.compare_metric(base, [v * 1.01 for v in base], "lower", 0.1).endswith("within bound")
    noisy = [50.0, 150.0, 100.0, 60.0, 140.0]
    assert run.compare_metric(base, noisy, "higher", 0.1).startswith("unresolved")
    assert run.compare_metric(base, [v * 2 for v in base], "higher", 0.1).endswith("better")


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_quick_mode_prints_every_metric(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--quick", "--results", str(tmp_path)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = METRIC_NAMES + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    missing = [name for name in names if f"  {name} = " not in proc.stdout]
    assert missing == []
    records = sorted(tmp_path.glob("*.json"))
    assert len(records) == 6
    grid = json.loads((tmp_path / "grid-sweep-seed1-trace1-quick.json").read_text())
    assert grid["layers"]["families.family_h.calls"] == grid["sizes"]["grid_n"] ** 2
