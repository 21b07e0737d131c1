import itertools

import numpy as np
import pytest

from chm import (
    CensusResult,
    H2Structure,
    NonSquareError,
    NotCHMError,
    NotUnimodularError,
    SubmatrixLoc,
    apply_witness,
    census_2x2,
    exclusion_report,
    family_h,
    FamilyPoint,
    find_3x3_sub_chms,
    forbidden_count_check,
    h2_block_structure,
    is_sub_chm_2x2,
    named,
    registry_names,
)
from chm.census import _PAIRING_PAIRS, _PAIRINGS, _PAIRS
from util import (
    NATURAL_PAIRING,
    PAIRINGS,
    brute_force_census_2x2,
    brute_force_h2,
    looped_census_3x3,
    random_phases,
    random_point,
    random_unimodular,
    random_witness,
    rng,
)


@pytest.mark.parametrize(
    "quad, ok, residual",
    [
        ((1, 1, 1, -1), True, 0.0),
        ((1j, 1, 1, 1j), True, 0.0),  # top-left block of M1
        ((1, 1, 1, 1), False, 2.0),
    ],
)
def test_is_sub_chm_2x2(quad, ok, residual):
    result = is_sub_chm_2x2(*quad)
    assert result.ok is ok
    assert result.residual == pytest.approx(residual, abs=1e-15)


def test_is_sub_chm_2x2_rejects_non_unimodular():
    with pytest.raises(NotUnimodularError):
        is_sub_chm_2x2(2.0, 1, 1, 1)


def test_2x2_predicates_agree_on_random_quadruples():
    # |ad + bc| and the row-orthogonality form |a conj(c) + b conj(d)| are
    # the same number on unimodular inputs.
    gen = rng(31)
    a, b, c, d = np.exp(2j * np.pi * gen.uniform(size=(4, 100_000)))
    primary = np.abs(a * d + b * c)
    alt = np.abs(a * np.conj(c) + b * np.conj(d))
    assert np.abs(primary - alt).max() <= 1e-12


@pytest.mark.parametrize(
    "name, count",
    [("F6", 45), ("S6", 0), ("M1", 75), ("M2_w1", 45), ("M2_w2", 45), ("D0", 75)],
)
def test_census_counts(name, count):
    result = census_2x2(named(name).matrix)
    assert result.count == count
    assert len(result.locations) == count


def test_census_family_point_is_seventeen():
    result = census_2x2(family_h(FamilyPoint(1.0, 0.5)))
    assert result.count == 17
    locs = list(result.locations)
    assert locs == sorted(locs, key=lambda l: (l.rows, l.cols))
    assert locs[0] == SubmatrixLoc(rows=(1, 2), cols=(1, 2))


def test_census_f6_analytic_cross_check():
    # independent oracle: the submatrix on exponent rows {j,k}, cols {m,n}
    # cancels exactly when (j-k)(m-n) = 3 mod 6
    count = sum(
        1
        for (j, k) in itertools.combinations(range(6), 2)
        for (m, n) in itertools.combinations(range(6), 2)
        if ((j - k) * (m - n)) % 6 == 3
    )
    assert count == 45
    assert census_2x2(named("F6").matrix).count == count


def test_census_s6_residuals_bounded_away_from_zero():
    # entries are cube roots of unity; a*d and b*c are again cube roots, and
    # two cube roots never sum below modulus 1, so no tolerance can miscount
    S6 = named("S6").matrix
    worst = 2.0
    for rows in itertools.combinations(range(6), 2):
        for cols in itertools.combinations(range(6), 2):
            a, b = S6[rows[0], cols[0]], S6[rows[0], cols[1]]
            c, d = S6[rows[1], cols[0]], S6[rows[1], cols[1]]
            worst = min(worst, abs(a * d + b * c))
    assert worst > 0.99


def test_census_invariant_under_witnesses():
    gen = rng(41)
    M = family_h(FamilyPoint(1.0, 0.5))
    for _ in range(100):
        assert census_2x2(apply_witness(M, random_witness(gen))).count == 17


def test_census_requires_chm():
    with pytest.raises(NotCHMError):
        census_2x2(np.ones((6, 6)))


@pytest.mark.parametrize("check", [census_2x2, h2_block_structure])
def test_census_and_h2_reject_a_stack(check):
    # Only the private residual-table kernel takes (B, 6, 6) stacks.
    with pytest.raises(NonSquareError):
        check(np.stack([named("F6").matrix, named("S6").matrix]))


def test_census_result_validation():
    with pytest.raises(ValueError):
        CensusResult(count=1, locations=())
    with pytest.raises(ValueError):
        SubmatrixLoc(rows=(2, 1), cols=(1, 2))
    with pytest.raises(ValueError):
        SubmatrixLoc(rows=(1, 7), cols=(1, 2))
    for bad in [(), (1.5, 2), (True, 2), (1, 2.0)]:
        with pytest.raises(ValueError):
            SubmatrixLoc(rows=bad, cols=(1, 2))
        with pytest.raises(ValueError):
            SubmatrixLoc(rows=(1, 2), cols=bad)


@pytest.mark.parametrize("name", ["M2_w1", "M2_w2"])
def test_m2_contains_3x3_sub_chm(name):
    M = named(name).matrix
    locs = find_3x3_sub_chms(M)
    assert SubmatrixLoc(rows=(1, 3, 5), cols=(1, 3, 5)) in locs
    assert len(locs) == 28
    S = M[np.ix_([0, 2, 4], [0, 2, 4])]
    G = S @ S.conj().T
    assert max(abs(G[0, 1]), abs(G[0, 2]), abs(G[1, 2])) < 1e-12


@pytest.mark.parametrize("name, count", [("D0", 0), ("M1", 0), ("F6", 28), ("S6", 40)])
def test_3x3_census_golden_counts(name, count):
    assert len(find_3x3_sub_chms(named(name).matrix)) == count


def test_3x3_none_in_all_ones():
    assert find_3x3_sub_chms(np.ones((6, 6))) == []


def test_3x3_locations_closed_under_conjugate_transpose():
    for name in ("M2_w1", "M2_w2", "F6", "S6"):
        M = named(name).matrix
        locs = {(l.rows, l.cols) for l in find_3x3_sub_chms(M)}
        locs_ct = {(l.rows, l.cols) for l in find_3x3_sub_chms(M.conj().T.copy())}
        assert locs_ct == {(c, r) for (r, c) in locs}


def test_3x3_locations_match_between_m2_variants():
    a = find_3x3_sub_chms(named("M2_w1").matrix)
    b = find_3x3_sub_chms(named("M2_w2").matrix)
    assert a == b


def test_family_block_structure_is_natural():
    for x1, x2 in [(1.0, 0.5), (0.0, 0.0), (-1.2, 0.3), (np.pi / 2, np.pi / 2)]:
        structure = h2_block_structure(family_h(FamilyPoint(x1, x2)))
        assert structure == H2Structure(NATURAL_PAIRING, NATURAL_PAIRING)


def test_f6_block_structure():
    # all nine blocks satisfy the exponent rule (j-k)(m-n) = 3 mod 6;
    # the lexicographic scan pairs rows adjacently and columns at distance 3
    structure = h2_block_structure(named("F6").matrix)
    assert structure.row_pairing == ((1, 2), (3, 4), (5, 6))
    assert structure.col_pairing == ((1, 4), (2, 5), (3, 6))


def test_registry_block_structures():
    assert h2_block_structure(named("S6").matrix) is None
    m1 = h2_block_structure(named("M1").matrix)
    assert m1.row_pairing == ((1, 2), (3, 5), (4, 6))
    assert m1.col_pairing == ((1, 2), (3, 5), (4, 6))
    d0 = h2_block_structure(named("D0").matrix)
    assert d0 == H2Structure(NATURAL_PAIRING, NATURAL_PAIRING)


def test_block_structure_implies_census_at_least_nine():
    for name in ("M1", "M2_w1", "D0", "F6"):
        M = named(name).matrix
        if h2_block_structure(M) is not None:
            assert census_2x2(M).count >= 9


@pytest.fixture(scope="module")
def oracle_matrices():
    # Registry (S6 has no block pairing, F6 a non-natural one), 200 seeded
    # family points, and a random witness image of each.
    gen = rng(53)
    base = [named(name).matrix for name in registry_names()]
    base += [family_h(random_point(gen)) for _ in range(200)]
    return base + [apply_witness(M, random_witness(gen)) for M in base]


def test_census_2x2_matches_scalar_oracle(oracle_matrices):
    for M in oracle_matrices:
        assert list(census_2x2(M).locations) == brute_force_census_2x2(M)


def test_h2_matches_scalar_oracle(oracle_matrices):
    found = [h2_block_structure(M) for M in oracle_matrices]
    assert found == [brute_force_h2(M) for M in oracle_matrices]
    assert None in found


def test_3x3_census_matches_looped_oracle(oracle_matrices):
    # find_3x3_sub_chms takes any 6x6 matrix, so seeded unimodular non-CHMs
    # join in: one of them with a phased F3 planted on rows 1,3,5, cols 2,4,6.
    gen = rng(59)
    off_chm = [random_unimodular(gen) for _ in range(101)]
    F3 = np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3)
    off_chm[-1][np.ix_([0, 2, 4], [1, 3, 5])] = F3 * random_phases(gen, 3)[:, None]
    for M in oracle_matrices + off_chm:
        assert find_3x3_sub_chms(M) == looped_census_3x3(M)
    assert SubmatrixLoc(rows=(1, 3, 5), cols=(2, 4, 6)) in find_3x3_sub_chms(off_chm[-1])


@pytest.mark.parametrize("name", ["M2_w1", "S6"])
def test_censuses_build_no_locations(monkeypatch, name):
    # Census locations come from the tables built at import.
    calls = []
    validate = SubmatrixLoc.__post_init__
    monkeypatch.setattr(SubmatrixLoc, "__post_init__", lambda loc: calls.append(1) or validate(loc))
    M = named(name).matrix
    assert find_3x3_sub_chms(M) and exclusion_report(M) is not None
    census_2x2(M)
    assert calls == []


def test_pairings_match_recursive_oracle():
    assert _PAIRINGS == PAIRINGS
    assert [[_PAIRS[k] for k in row] for row in _PAIRING_PAIRS.tolist()] == [
        list(pairing) for pairing in PAIRINGS
    ]


@pytest.mark.parametrize("n", range(26))
def test_forbidden_count_check(n):
    assert forbidden_count_check(n) == (n not in {10, 11, 12, 13, 14, 15, 16, 18})


def test_forbidden_count_check_rejects_negative():
    with pytest.raises(ValueError):
        forbidden_count_check(-1)
