import chm
from chm import (
    CensusRecord,
    FamilyPoint,
    ScanConfig,
    family_h,
    forbidden_count_check,
    gram_residual,
    grid_values,
    run_scan,
    scan_point,
)
from util import brute_force_census_2x2, brute_force_h2


def test_run_scan_matches_scalar_oracles():
    records, summary = run_scan(ScanConfig(grid_n=8, out_path="unused"))
    expected = []
    for x1 in grid_values(8):
        for x2 in grid_values(8):
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
    assert summary["points"] == 64


def test_scan_point_checks_chm_once(monkeypatch):
    calls = []
    real = chm.core.is_chm

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (chm, chm.core, chm.census, chm.scan, chm.mub, chm.equivalence):
        if hasattr(module, "is_chm"):
            monkeypatch.setattr(module, "is_chm", counting)
    scan_point(1.0, 0.5)
    assert len(calls) == 1
