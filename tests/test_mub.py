import math

import numpy as np
import pytest

import chm
from chm import (
    DimensionMismatchError,
    EquivalenceWitness,
    NotCHMError,
    Tolerance,
    apply_witness,
    are_equivalent,
    census_2x2,
    exclusion_report,
    family_h,
    FamilyPoint,
    h2_block_structure,
    is_chm,
    mu_pair,
    named,
    registry_names,
)
from chm.mub import _unit_columns
from util import noisy_image, random_phases, random_point, random_witness, rng

F2 = np.array([[1, 1], [1, -1]], dtype=complex)


def test_qubit_fourier_pair_is_unbiased():
    verdict = mu_pair(np.eye(2), F2)
    assert verdict.ok
    assert verdict.max_deviation <= 1e-15


def test_scaled_identity_basis_accepted():
    # d * Identity carries the same columns up to scale
    assert mu_pair(2 * np.eye(2), F2).ok


def test_basis_not_unbiased_to_itself():
    F6 = named("F6").matrix
    verdict = mu_pair(F6, F6)
    assert not verdict.ok
    assert verdict.max_deviation == pytest.approx(6 - math.sqrt(6), abs=1e-12)


def test_f6_d0_verdict_golden():
    # F6 and D0 share their first column, so the gram matrix has a
    # modulus-6 entry, the same worst case as a basis against itself
    verdict = mu_pair(named("F6").matrix, named("D0").matrix)
    assert not verdict.ok
    assert verdict.max_deviation == pytest.approx(6 - math.sqrt(6), abs=1e-12)


def test_mu_pair_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        mu_pair(named("F6").matrix, F2)


@pytest.mark.parametrize("a, b", [("F6", "D0"), ("F6", "S6"), ("M1", "D0")])
def test_mu_pair_symmetric(a, b):
    va = mu_pair(named(a).matrix, named(b).matrix)
    vb = mu_pair(named(b).matrix, named(a).matrix)
    assert va.ok == vb.ok
    assert va.max_deviation == pytest.approx(vb.max_deviation, abs=1e-12)


def test_mu_pair_invariant_under_column_factors():
    # column phases and permutations preserve entry moduli of F* G
    gen = rng(59)
    F6 = named("F6").matrix
    D0 = named("D0").matrix
    base = mu_pair(F6, D0).max_deviation
    for _ in range(50):
        cp = tuple(int(i) + 1 for i in gen.permutation(6))
        w = EquivalenceWitness(
            row_perm=(1, 2, 3, 4, 5, 6),
            col_perm=cp,
            row_phases=np.ones(6, dtype=complex),
            col_phases=random_phases(gen),
        )
        assert mu_pair(F6, apply_witness(D0, w)).max_deviation == pytest.approx(base, abs=1e-12)


def test_unit_columns_are_the_norm_formula_bit_for_bit():
    # mu_pair divides each column by its 2-norm, computed as np.linalg.norm does.
    gen = rng(97)
    points = [family_h(random_point(gen)) for _ in range(50)]
    F6 = named("F6").matrix
    inputs = [named(name).matrix for name in registry_names()] + [3 * F6, F6 / math.sqrt(6)]
    inputs += points + [apply_witness(M, random_witness(gen)) for M in points]
    for M in inputs:
        assert np.array_equal(_unit_columns(M), M / np.linalg.norm(M, axis=0))


def test_exclusions_m1():
    report = exclusion_report(named("M1").matrix)
    fired = {hit.rule_id: hit.evidence for hit in report.rules_fired}
    assert set(fired) == {"R1", "R3"}
    assert fired["R1"]["count"] == 30
    # R3 evidence replays: the witness maps D0 onto M1
    w = EquivalenceWitness.from_obj(fired["R3"])
    assert np.abs(apply_witness(named("D0").matrix, w) - named("M1").matrix).max() <= 1e-9


@pytest.mark.parametrize("name", ["M2_w1", "M2_w2"])
def test_exclusions_m2(name):
    M = named(name).matrix
    report = exclusion_report(M)
    fired = {hit.rule_id: hit.evidence for hit in report.rules_fired}
    assert set(fired) == {"R1", "R2"}
    assert fired["R1"]["count"] == 24
    rows = [r - 1 for r in fired["R2"]["rows"]]
    cols = [c - 1 for c in fired["R2"]["cols"]]
    S = M[np.ix_(rows, cols)]
    G = S @ S.conj().T
    assert max(abs(G[0, 1]), abs(G[0, 2]), abs(G[1, 2])) <= 3e-9


def test_exclusions_family_point_clean():
    report = exclusion_report(family_h(FamilyPoint(1.0, 0.5)))
    assert report.rules_fired == ()


def test_exclusions_d0_self_witness():
    report = exclusion_report(named("D0").matrix)
    assert [hit.rule_id for hit in report.rules_fired] == ["R3"]


@pytest.mark.usefixtures("fresh_recent")
def test_exclusion_report_scans_a_new_input_for_unimodularity_once(monkeypatch):
    # The CHM residual and the 3x3 census read one kept unimodularity.
    calls = []
    real = chm.core._unimodularity

    def counting(*args):
        calls.append(1)
        return real(*args)

    for module in (chm, chm.core, chm.census, chm.scan, chm.mub, chm.equivalence):
        if hasattr(module, "_unimodularity"):
            monkeypatch.setattr(module, "_unimodularity", counting)
    exclusion_report(family_h(FamilyPoint(0.3, 0.7)))
    assert len(calls) == 1


@pytest.mark.usefixtures("fresh_recent")
def test_exclusion_report_checks_chm_once(monkeypatch):
    calls = []
    real = chm.core._chm_residual  # the CHM residual behind is_chm and every internal caller

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (chm, chm.core, chm.census, chm.scan, chm.mub, chm.equivalence):
        if hasattr(module, "_chm_residual"):
            monkeypatch.setattr(module, "_chm_residual", counting)
    M1 = named("M1").matrix
    exclusion_report(M1)  # fills the kept objects of M1 and of D0, which R3 searches
    calls.clear()
    report = exclusion_report(np.array(M1))  # a copy gets its own object, not the registry's
    assert "R3" in [hit.rule_id for hit in report.rules_fired]
    assert len(calls) == 1
    calls.clear()
    assert exclusion_report(M1) == report  # the registry's M1 keeps its residual
    assert calls == []


def test_exclusions_require_chm():
    with pytest.raises(NotCHMError):
        exclusion_report(np.ones((6, 6)))


def test_report_json_shape():
    report = exclusion_report(named("M2_w1").matrix)
    obj = report.to_obj()
    assert [r["id"] for r in obj["rules"]] == ["R1", "R2"]
    assert obj["rules"][1]["evidence"] == {"rows": [1, 3, 5], "cols": [1, 3, 5]}


@pytest.mark.parametrize("eps", [1e-6, 1e-5, 1e-4])
def test_r3_fires_exactly_when_the_search_finds_a_witness(eps):
    # Noisy witness images of D0 and M1: the search finds all at 0.1*eps noise
    # and misses some at 0.5 and 1.0*eps. The residual-table certificate in
    # front of it must not turn any hit into a miss.
    gen = rng(97)
    tol = Tolerance(eps)
    D0 = named("D0").matrix
    outcomes = set()
    for name in ("D0", "M1"):
        for frac in (0.1, 0.5, 1.0):
            for _ in range(4):
                H = noisy_image(gen, apply_witness(named(name).matrix, random_witness(gen)), eps, frac)
                if not is_chm(H, tol).ok:
                    continue
                witness = are_equivalent(H, D0, tol)
                fired = {hit.rule_id: hit.evidence for hit in exclusion_report(H, tol).rules_fired}
                assert ("R3" in fired) == (witness is not None)
                if witness is not None:
                    assert fired["R3"] == witness.to_obj()
                outcomes.add(witness is not None)
    assert outcomes == {True, False}


def _r3_cases():
    gen = rng(98)

    def image(name):
        return apply_witness(named(name).matrix, random_witness(gen))

    return [
        pytest.param(family_h(FamilyPoint(1.0, 0.5)), 0, id="family"),
        pytest.param(named("F6").matrix, 0, id="F6"),
        pytest.param(named("S6").matrix, 0, id="S6"),
        pytest.param(image("M2_w1"), 0, id="M2_w1-image"),
        pytest.param(image("M1"), 1, id="M1-image"),
        pytest.param(image("D0"), 1, id="D0-image"),
    ]


@pytest.mark.parametrize("H, searches", _r3_cases())
def test_r3_searches_only_past_the_residual_certificate(monkeypatch, H, searches):
    # The first step of the search past the certificate builds H's dephased
    # side. Wrapped, the builder is a new cache key: it runs whenever reached.
    calls = []
    a_side = chm.equivalence._a_side
    monkeypatch.setattr(chm.equivalence, "_a_side", lambda *a: calls.append(1) or a_side(*a))
    fired = [hit.rule_id for hit in exclusion_report(H).rules_fired]
    assert len(calls) == searches
    assert ("R3" in fired) == (searches == 1)


def test_r4_fires_on_a_forbidden_count(monkeypatch):
    # No CHM has a forbidden count, so the check is forced to report one.
    M = family_h(FamilyPoint(1.0, 0.5))
    monkeypatch.setattr(chm.mub, "forbidden_count_check", lambda n: False)
    fired = {hit.rule_id: hit.evidence for hit in exclusion_report(M).rules_fired}
    assert fired == {"R4": {"count": census_2x2(M).count, **h2_block_structure(M).to_obj()}}
    # Not H2-reducible: no pairing, so no R4 whatever the count.
    assert "R4" not in [hit.rule_id for hit in exclusion_report(named("S6").matrix).rules_fired]


def test_r4_searches_no_pairing_for_an_admissible_count(monkeypatch):
    calls = []
    search = chm.mub.h2_block_structure
    monkeypatch.setattr(chm.mub, "h2_block_structure", lambda *a: calls.append(1) or search(*a))
    for M in (family_h(FamilyPoint(1.0, 0.5)), named("M1").matrix, named("S6").matrix):
        assert "R4" not in [hit.rule_id for hit in exclusion_report(M).rules_fired]
    assert calls == []
