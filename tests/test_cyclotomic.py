"""Float verdicts against the exact cyclotomic oracle on the 12th-root lattice.

The registry and its images under 12th-root phases and permutations are
decided exactly in integers mod 12: the censuses, the H2 pairing, the real
count, R1, R2, R3 (equivalence to D0), the registry's equivalence classes
and the equivalence of pairs of images. The float checks must agree at
every admissible tolerance, because on the lattice every residual is
either zero or a fixed algebraic number far above any eps.
"""

import itertools

import numpy as np
import pytest

from chm import (
    EquivalenceWitness,
    Tolerance,
    apply_witness,
    are_equivalent,
    census_2x2,
    count_real_entries,
    exclusion_report,
    find_3x3_sub_chms,
    h2_block_structure,
    is_sub_chm_2x2,
    named,
    registry_names,
)
from util import (
    PAIRS,
    ZETA,
    exact_census_2x2,
    exact_census_3x3,
    exact_equivalent,
    exact_h2,
    exact_real_count,
    random_witness,
    rng,
    zeta_exponents,
)

EPS_VALUES = (1e-14, 1e-12, 1e-9, 1e-6, 1e-4)
LARGEST_EPS = 1e-3  # Tolerance admits eps in [1e-14, 1e-3)

# (2x2 sub-CHMs, 3x3 sub-CHMs, real entries), decided exactly
EXACT_COUNTS = {
    "M1": (75, 0, 30),
    "M2_w1": (45, 28, 24),
    "M2_w2": (45, 28, 24),
    "D0": (75, 0, 16),
    "F6": (45, 28, 20),
    "S6": (0, 40, 16),
}

# The registry's classes under complex equivalence, decided exactly
EXACT_CLASSES = ({"M1", "D0"}, {"M2_w1", "M2_w2", "F6"}, {"S6"})


def _lattice_witness(gen):
    # Permutations with 12th-root phases: the image stays on the lattice.
    return EquivalenceWitness(
        row_perm=tuple(int(i) + 1 for i in gen.permutation(6)),
        col_perm=tuple(int(i) + 1 for i in gen.permutation(6)),
        row_phases=ZETA ** gen.integers(12, size=6),
        col_phases=ZETA ** gen.integers(12, size=6),
    )


def _lattice_cases():
    gen = rng(83)
    cases = []
    for name in registry_names():
        M = named(name).matrix
        cases.append(pytest.param(M, id=name))
        signed = apply_witness(M, random_witness(gen, signs_only=True))
        cases.append(pytest.param(signed, id=f"{name}-signed"))
        cases.append(pytest.param(apply_witness(M, _lattice_witness(gen)), id=f"{name}-image"))
    return cases


def test_registry_exact_counts():
    for name, counts in EXACT_COUNTS.items():
        K = zeta_exponents(named(name).matrix)
        assert (len(exact_census_2x2(K)), len(exact_census_3x3(K)), exact_real_count(K)) == counts
    assert set(EXACT_COUNTS) == set(registry_names())


def test_oracle_rejects_off_lattice_input():
    with pytest.raises(ValueError):
        zeta_exponents(np.exp(0.1j) * np.ones((6, 6)))


@pytest.mark.parametrize("eps", EPS_VALUES)
@pytest.mark.parametrize("M", _lattice_cases())
def test_float_verdicts_match_exact_oracle(M, eps):
    tol = Tolerance(eps)
    K = zeta_exponents(M)
    exact_2x2 = exact_census_2x2(K)
    exact_3x3 = exact_census_3x3(K)
    exact_real = exact_real_count(K)
    assert list(census_2x2(M, tol).locations) == exact_2x2
    assert h2_block_structure(M, tol) == exact_h2(K)
    assert find_3x3_sub_chms(M, tol) == exact_3x3
    assert count_real_entries(M, tol) == exact_real
    fired = {hit.rule_id: hit.evidence for hit in exclusion_report(M, tol).rules_fired}
    assert ("R1" in fired) == (exact_real > 22)
    assert ("R2" in fired) == bool(exact_3x3)
    if exact_3x3:
        assert fired["R2"] == exact_3x3[0].to_obj()
    assert ("R3" in fired) == exact_equivalent(K, zeta_exponents(named("D0").matrix))


def test_registry_equivalence_classes_are_exact():
    names = registry_names()
    K = {name: zeta_exponents(named(name).matrix) for name in names}
    exact = {(a, b) for a in names for b in names if exact_equivalent(K[a], K[b])}
    assert exact == {(a, b) for members in EXACT_CLASSES for a in members for b in members}
    assert len(exact) == 14
    for eps in (1e-14, 1e-9, 1e-4):
        tol = Tolerance(eps)
        found = {(a, b) for a in names for b in names if are_equivalent(named(a).matrix, named(b).matrix, tol)}
        assert found == exact, eps


def _lattice_image_pairs():
    # One lattice image of each registry matrix against one of every other (and
    # of itself): 14 of the 36 ordered pairs are equivalent, 22 are not.
    gen = rng(84)
    names = registry_names()
    image = lambda name: apply_witness(named(name).matrix, _lattice_witness(gen))
    return [pytest.param(a, b, image(a), image(b), id=f"{a}-{b}") for a in names for b in names]


@pytest.mark.parametrize("a, b, A, B", _lattice_image_pairs())
def test_equivalence_of_lattice_images_matches_exact_oracle(a, b, A, B):
    exact = exact_equivalent(zeta_exponents(A), zeta_exponents(B))
    assert exact == any({a, b} <= members for members in EXACT_CLASSES)
    for eps in (1e-14, 1e-9, 1e-4):
        witness = are_equivalent(A, B, Tolerance(eps))
        assert (witness is not None) == exact, eps
        if witness is not None:
            assert np.abs(apply_witness(B, witness) - A).max() <= eps


def test_exact_gaps_exceed_every_admissible_eps():
    # Off the hits, a 2x2 residual |ad + bc| = |1 + zeta^m| (m != 6), a 3x3 row
    # product is a nonzero sum of three 12th roots, and a non-real entry has
    # |Im| >= sin(pi/6). The smallest of each is a fixed number, far above
    # eps (or 3*eps for the 3x3 Gram entries) for every admissible eps.
    gap_2x2 = min(abs(1 + ZETA**m) for m in range(12) if m != 6)
    assert gap_2x2 == pytest.approx(2 * np.cos(5 * np.pi / 12), abs=1e-15)
    assert gap_2x2 == pytest.approx(0.5176, abs=1e-4)
    triples = itertools.product(range(12), repeat=3)
    sums_3 = [abs(ZETA**a + ZETA**b + ZETA**c) for a, b, c in triples]
    gap_3x3 = min(s for s in sums_3 if s > 1e-12)
    gap_real = min(abs((ZETA**k).imag) for k in range(12) if k not in (0, 6))
    assert gap_2x2 > 500 * LARGEST_EPS
    assert gap_3x3 > 100 * 3 * LARGEST_EPS
    assert gap_real == pytest.approx(0.5)

    # The float residuals on the registry sit on the two sides of that gap.
    for name in registry_names():
        M = named(name).matrix
        hits = {loc.rows + loc.cols for loc in exact_census_2x2(zeta_exponents(M))}
        for (r1, r2), (c1, c2) in itertools.product(PAIRS, PAIRS):
            residual = is_sub_chm_2x2(M[r1, c1], M[r1, c2], M[r2, c1], M[r2, c2]).residual
            if (r1 + 1, r2 + 1, c1 + 1, c2 + 1) in hits:
                assert residual <= 1e-14
            else:
                assert residual >= gap_2x2 - 1e-14
