import math

import numpy as np
import pytest

import chm
from chm import (
    DimensionMismatchError,
    EquivalenceWitness,
    NotCHMError,
    apply_witness,
    exclusion_report,
    family_h,
    FamilyPoint,
    mu_pair,
    mu_set,
    named,
)
from util import random_phases, rng

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


def test_mu_set():
    assert mu_set([np.eye(2), F2]).ok
    assert not mu_set([named("F6").matrix, named("F6").matrix]).ok
    singleton = mu_set([named("F6").matrix])
    assert singleton.ok and singleton.max_deviation == 0.0


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


def test_exclusion_report_checks_chm_once(monkeypatch):
    calls = []
    real = chm.core._chm_check  # the CHM check behind is_chm and every internal caller

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (chm, chm.core, chm.census, chm.scan, chm.mub, chm.equivalence):
        if hasattr(module, "_chm_check"):
            monkeypatch.setattr(module, "_chm_check", counting)
    report = exclusion_report(named("M1").matrix)
    assert "R3" in [hit.rule_id for hit in report.rules_fired]
    assert len(calls) == 1


def test_exclusions_require_chm():
    with pytest.raises(NotCHMError):
        exclusion_report(np.ones((6, 6)))


def test_report_json_shape():
    report = exclusion_report(named("M2_w1").matrix)
    obj = report.to_obj()
    assert [r["id"] for r in obj["rules"]] == ["R1", "R2"]
    assert obj["rules"][1]["evidence"] == {"rows": [1, 3, 5], "cols": [1, 3, 5]}
