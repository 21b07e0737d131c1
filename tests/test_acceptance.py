"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
are produced.
"""

import itertools
import math
import time

import numpy as np
import pytest

from chm import (
    SubmatrixLoc,
    Tolerance,
    apply_witness,
    are_equivalent,
    census_2x2,
    count_real_entries,
    exclusion_report,
    f_factor,
    family_h,
    FamilyPoint,
    find_3x3_sub_chms,
    gram_residual,
    h2_block_structure,
    mu_pair,
    named,
    run_scan,
    ScanConfig,
)
from util import NATURAL_PAIRING, f_factor_alt, random_point, rng


def report(criterion, ok, detail):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def brute_force_census(M, eps):
    """Independent 2x2 census oracle: direct loops, no shared code path."""
    count = 0
    for r1, r2 in itertools.combinations(range(6), 2):
        for c1, c2 in itertools.combinations(range(6), 2):
            if abs(M[r1, c1] * M[r2, c2] + M[r1, c2] * M[r2, c1]) <= eps:
                count += 1
    return count


def test_criterion_1_family_census_is_seventeen():
    start = time.perf_counter()
    count = census_2x2(family_h(FamilyPoint(1.0, 0.5)), Tolerance(1e-8)).count
    elapsed = time.perf_counter() - start
    report(1, count == 17 and elapsed < 1.0, f"count={count}, {elapsed:.3f}s")


def test_criterion_2_m1_d0_equivalence():
    M1 = named("M1").matrix
    D0 = named("D0").matrix
    start = time.perf_counter()
    witness = are_equivalent(M1, D0)
    elapsed = time.perf_counter() - start
    err = math.inf if witness is None else float(np.abs(apply_witness(D0, witness) - M1).max())
    report(2, err < 1e-9 and elapsed < 30.0, f"witness error={err:.3g}, {elapsed:.3f}s")


def test_criterion_3_m2_contains_3x3_sub_chm():
    ok = True
    details = []
    for name in ("M2_w1", "M2_w2"):
        M = named(name).matrix
        locs = find_3x3_sub_chms(M)
        present = SubmatrixLoc(rows=(1, 3, 5), cols=(1, 3, 5)) in locs
        S = M[np.ix_([0, 2, 4], [0, 2, 4])]
        G = S @ S.conj().T
        residual = max(abs(G[0, 1]), abs(G[0, 2]), abs(G[1, 2]))
        ok = ok and present and residual < 1e-12
        details.append(f"{name}: present={present}, residual={residual:.2g}")
    report(3, ok, "; ".join(details))


def test_criterion_4_real_counts_fire_r1():
    counts = {name: count_real_entries(named(name).matrix) for name in ("M1", "M2_w1", "M2_w2")}
    fired = {
        name: any(h.rule_id == "R1" for h in exclusion_report(named(name).matrix).rules_fired)
        for name in counts
    }
    ok = (
        counts["M1"] == 30
        and counts["M2_w1"] == counts["M2_w2"] == 24
        and all(c > 22 for c in counts.values())
        and all(fired.values())
    )
    report(4, ok, f"counts={counts}, R1 fired={fired}")


def test_criterion_5_dual_form_identity():
    gen = rng(61)
    worst_gap = 0.0
    worst_modulus = 0.0
    for _ in range(10_000):
        p = random_point(gen)
        fa = f_factor(p.x1, p.x2)
        worst_gap = max(worst_gap, abs(fa - f_factor_alt(p.x1, p.x2)))
        worst_modulus = max(worst_modulus, abs(abs(fa) - 1.0))
    ok = worst_gap < 1e-9 and worst_modulus <= 1e-12
    report(5, ok, f"max form gap={worst_gap:.3g}, max | |f|-1 |={worst_modulus:.3g}")


def test_criterion_6_family_validity():
    gen = rng(67)
    worst_gram = 0.0
    pairings_ok = True
    for _ in range(1000):
        M = family_h(random_point(gen))
        worst_gram = max(worst_gram, gram_residual(M))
        structure = h2_block_structure(M)
        pairings_ok = pairings_ok and structure is not None and (
            structure.row_pairing == NATURAL_PAIRING and structure.col_pairing == NATURAL_PAIRING
        )
    ok = worst_gram < 1e-8 and pairings_ok
    report(6, ok, f"max gram residual={worst_gram:.3g}, natural pairing everywhere={pairings_ok}")


def test_criterion_7_grid_scan():
    start = time.perf_counter()
    records, summary = run_scan(ScanConfig(grid_n=64, out_path="unused"))
    elapsed = time.perf_counter() - start
    ok = (
        len(records) == 64 * 64
        and all(r.n >= 9 and not r.forbidden for r in records)
        and elapsed < 60.0
    )
    report(7, ok, f"{summary}, {elapsed:.1f}s")


def test_criterion_8_negative_controls():
    eps = 1e-9
    S6 = named("S6").matrix
    F6 = named("F6").matrix
    s6_count = census_2x2(S6).count
    f6_count = census_2x2(F6).count
    s6_oracle = brute_force_census(S6, eps)
    f6_oracle = brute_force_census(F6, eps)
    analytic_f6 = sum(
        1
        for (j, k) in itertools.combinations(range(6), 2)
        for (m, n) in itertools.combinations(range(6), 2)
        if ((j - k) * (m - n)) % 6 == 3
    )
    ok = (
        s6_count == s6_oracle == 0
        and h2_block_structure(S6) is None
        and f6_count == f6_oracle == analytic_f6 == 45
    )
    report(
        8,
        ok,
        f"S6: census={s6_count}, oracle={s6_oracle}, h2=None; "
        f"F6: census={f6_count}, oracle={f6_oracle}, analytic={analytic_f6}",
    )


def test_criterion_9_mu_predicates():
    qubit = mu_pair(np.eye(2), np.array([[1, 1], [1, -1]], dtype=complex))
    self6 = mu_pair(named("F6").matrix, named("F6").matrix)
    ok = qubit.ok and not self6.ok
    report(9, ok, f"qubit pair ok={qubit.ok}, F6 against itself ok={self6.ok}")


def test_criterion_10_optional_external_families():
    print("[acceptance] criterion 10: SKIP (no external K63/Hermitian constructors plugged in)")
    pytest.skip("optional external constructors not provided")
