import itertools
import math
import types

import numpy as np
import pytest

import chm.equivalence
from chm import (
    DEFAULT_TOL,
    DimensionMismatchError,
    EquivalenceWitness,
    InvalidMatrixError,
    NotCHMError,
    NotUnimodularError,
    SearchTimeoutError,
    Tolerance,
    ZeroPivotError,
    apply_witness,
    are_equivalent,
    count_real_entries,
    dephase,
    exclusion_report,
    family_h,
    FamilyPoint,
    gram_residual,
    is_chm,
    named,
    real_submatrices_3x2,
    registry_names,
)
from util import (
    brute_force_equivalence,
    identity_witness,
    looped_real_3x2,
    noisy_image,
    random_point,
    random_unimodular,
    random_witness,
    residual_table_oracle,
    rng,
    straddling_d0,
    walk_oracle,
)
from chm.equivalence import _signature, _walk


def test_dephase_fixes_d0():
    D0 = named("D0").matrix
    assert np.abs(dephase(D0) - D0).max() <= 1e-15


def test_dephase_m1_entry():
    # (2,2) entry of the dephased form: M22 * M11 / (M21 * M12) = i*i/(1*1) = -1
    dm = dephase(named("M1").matrix)
    assert dm[1, 1] == pytest.approx(-1.0)
    assert np.abs(dm[0, :] - 1.0).max() <= 1e-12
    assert np.abs(dm[:, 0] - 1.0).max() <= 1e-12


def test_dephase_idempotent():
    gen = rng(3)
    for _ in range(50):
        M = random_unimodular(gen)
        once = dephase(M)
        assert np.abs(dephase(once) - once).max() <= 1e-12


def test_dephase_preserves_chm_status():
    for name in ("M1", "M2_w1", "D0", "F6"):
        M = named(name).matrix
        dm = dephase(M)
        assert is_chm(dm).ok
        assert abs(gram_residual(dm) - gram_residual(M)) <= 1e-9


def test_dephase_zero_pivot():
    with pytest.raises(ZeroPivotError):
        dephase(np.array([[0, 1], [1, 1]], dtype=complex))


def test_apply_identity_witness():
    M = named("F6").matrix
    assert np.abs(apply_witness(M, identity_witness()) - M).max() == 0.0


def test_apply_witness_row_swap():
    M = named("F6").matrix
    w = identity_witness()
    swapped = EquivalenceWitness((2, 1, 3, 4, 5, 6), w.col_perm, w.row_phases, w.col_phases)
    out = apply_witness(M, swapped)
    assert np.array_equal(out[0], M[1])
    assert np.array_equal(out[1], M[0])
    assert np.array_equal(out[2:], M[2:])


def test_apply_witness_dimension_mismatch():
    w2 = EquivalenceWitness((2, 1), (1, 2), np.ones(2, complex), np.ones(2, complex))
    with pytest.raises(DimensionMismatchError):
        apply_witness(named("F6").matrix, w2)


def test_witness_validation():
    with pytest.raises(ValueError):
        EquivalenceWitness((1, 1), (1, 2), np.ones(2, complex), np.ones(2, complex))
    w = random_witness(rng(7))
    M = named("M1").matrix
    for form in (list, tuple):  # phases given as a list or tuple apply like arrays
        again = EquivalenceWitness(w.row_perm, w.col_perm, form(w.row_phases), form(w.col_phases))
        assert np.array_equal(apply_witness(M, again), apply_witness(M, w))
    assert EquivalenceWitness(w.row_perm, w.col_perm, w.row_phases, w.col_phases).row_phases is w.row_phases
    for bad in (w.row_phases[:5], w.row_phases.reshape(2, 3), np.ones((6, 1))):
        with pytest.raises(DimensionMismatchError):
            EquivalenceWitness(w.row_perm, w.col_perm, bad, w.col_phases)
        with pytest.raises(DimensionMismatchError):
            EquivalenceWitness(w.row_perm, w.col_perm, w.row_phases, bad)
    # Permutations take integers only, Python or numpy, and keep Python ints.
    for bad in ((1.0, 2.0, 3.0, 4.0, 5.0, 6.0), (True, 2, 3, 4, 5, 6), ("1", 2, 3, 4, 5, 6)):
        with pytest.raises(ValueError, match="not a permutation"):
            EquivalenceWitness(bad, w.col_perm, w.row_phases, w.col_phases)
        with pytest.raises(ValueError, match="not a permutation"):
            EquivalenceWitness(w.row_perm, bad, w.row_phases, w.col_phases)
    # A permutation is a sized collection: an int, None or an iterator is none.
    for bad in (5, None, iter(range(1, 7))):
        with pytest.raises(ValueError, match="not a permutation"):
            EquivalenceWitness(bad, w.col_perm, w.row_phases, w.col_phases)
        with pytest.raises(ValueError, match="not a permutation"):
            EquivalenceWitness(w.row_perm, bad, w.row_phases, w.col_phases)
    # An empty witness is no witness, as an empty matrix is no matrix.
    with pytest.raises(ValueError, match=r"not a permutation of 1\.\.0"):
        EquivalenceWitness((), (), [], [])
    with pytest.raises(ValueError, match=r"not a permutation of 1\.\.0"):
        EquivalenceWitness.from_obj({"rowPerm": [], "colPerm": [], "rowPhases": [], "colPhases": []})
    numpy_perm = EquivalenceWitness(tuple(np.array(w.row_perm)), w.col_perm, w.row_phases, w.col_phases)
    assert numpy_perm.row_perm == w.row_perm and all(type(k) is int for k in numpy_perm.row_perm)
    # Phases must be finite and within 1e-2 of modulus one.
    for value in (0.0, math.nan, math.inf, 1.011, 0.989j, complex(math.nan, 1.0)):
        bad = w.row_phases.copy()
        bad[3] = value
        with pytest.raises(NotUnimodularError):
            EquivalenceWitness(w.row_perm, w.col_perm, bad, w.col_phases)
        with pytest.raises(NotUnimodularError):
            EquivalenceWitness(w.row_perm, w.col_perm, w.row_phases, bad)
    near = w.row_phases * 1.0099
    assert EquivalenceWitness(w.row_perm, w.col_perm, near, w.col_phases).row_phases is near


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


_GOOD_WITNESS = random_witness(rng(5)).to_obj()

# Malformed witness objects: each raises InvalidMatrixError, as a malformed matrix does.
MALFORMED_WITNESSES = [
    _GOOD_WITNESS["rowPerm"],
    None,
    {"rowPerm": [1]},
    _without(_GOOD_WITNESS, "colPerm"),
    _without(_GOOD_WITNESS, "rowPhases"),
    {**_GOOD_WITNESS, "rowPhases": {"re": 1.0, "im": 0.0}},
    {**_GOOD_WITNESS, "colPhases": "phases"},
    {**_GOOD_WITNESS, "rowPerm": 123456},
    {**_GOOD_WITNESS, "rowPhases": [{"re": "x", "im": 0}] * 6},
    {**_GOOD_WITNESS, "rowPhases": [{"re": True, "im": 0}] * 6},
    {**_GOOD_WITNESS, "colPhases": [{"re": 1.0}] * 6},
    {**_GOOD_WITNESS, "colPhases": [{"re": 1.0, "im": 0.0, "x": 0}] * 6},
    {**_GOOD_WITNESS, "colPhases": [[1.0, 0.0]] * 6},
    {**_GOOD_WITNESS, "rowPhases": [{"re": 10**400, "im": 0}] * 6},
]


@pytest.mark.parametrize("obj", MALFORMED_WITNESSES)
def test_witness_from_obj_rejects_malformed_objects(obj):
    # A list of bad phases is reported at its field and first index.
    fields = [k for k in ("rowPhases", "colPhases")
              if isinstance(obj, dict) and isinstance(obj.get(k), list) and obj[k] != _GOOD_WITNESS[k]]
    with pytest.raises(InvalidMatrixError, match=rf"^witness {fields[0]}\[0\]: " if fields else None):
        EquivalenceWitness.from_obj(obj)


def test_witness_from_obj_checks_what_the_constructor_checks():
    with pytest.raises(ValueError, match="not a permutation"):
        EquivalenceWitness.from_obj({**_GOOD_WITNESS, "rowPerm": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]})
    with pytest.raises(NotUnimodularError):
        EquivalenceWitness.from_obj({**_GOOD_WITNESS, "rowPhases": [{"re": 0, "im": 0}] * 6})


def test_witness_json_round_trip():
    gen = rng(5)
    w = random_witness(gen)
    again = EquivalenceWitness.from_obj(w.to_obj())
    assert again.row_perm == w.row_perm
    assert again.col_perm == w.col_perm
    assert np.abs(again.row_phases - w.row_phases).max() == 0.0
    assert np.abs(again.col_phases - w.col_phases).max() == 0.0


def test_self_equivalence_is_identity():
    M1 = named("M1").matrix
    w = are_equivalent(M1, M1)
    assert w.row_perm == (1, 2, 3, 4, 5, 6)
    assert w.col_perm == (1, 2, 3, 4, 5, 6)
    assert np.abs(w.row_phases - 1.0).max() <= 1e-12
    assert np.abs(w.col_phases - 1.0).max() <= 1e-12


def test_m1_equivalent_to_d0():
    M1 = named("M1").matrix
    D0 = named("D0").matrix
    w = are_equivalent(M1, D0)
    assert w is not None
    # deterministic tie-break: lexicographically smallest permutation pair
    assert w.row_perm == (1, 2, 3, 6, 4, 5)
    assert w.col_perm == (1, 2, 3, 6, 4, 5)
    assert np.abs(apply_witness(D0, w) - M1).max() <= 1e-9
    assert np.abs(np.abs(w.row_phases) - 1.0).max() <= 1e-12
    assert np.abs(np.abs(w.col_phases) - 1.0).max() <= 1e-12


def test_m1_not_equivalent_to_f6():
    assert are_equivalent(named("M1").matrix, named("F6").matrix) is None


@pytest.mark.parametrize("a, b", [("M1", "D0"), ("M1", "F6"), ("D0", "F6")])
def test_equivalence_symmetric(a, b):
    A = named(a).matrix
    B = named(b).matrix
    assert (are_equivalent(A, B) is not None) == (are_equivalent(B, A) is not None)


def test_equivalence_found_under_random_disguise():
    # applying a random witness must not change the equivalence class
    gen = rng(17)
    M1 = named("M1").matrix
    disguised = apply_witness(M1, random_witness(gen))
    w = are_equivalent(disguised, named("D0").matrix)
    assert w is not None
    assert np.abs(apply_witness(named("D0").matrix, w) - disguised).max() <= 1e-9


def test_equivalence_requires_chms():
    with pytest.raises(NotCHMError):
        are_equivalent(np.ones((6, 6)), named("F6").matrix)


def test_equivalence_timeout():
    with pytest.raises(SearchTimeoutError) as info:
        are_equivalent(named("M1").matrix, named("D0").matrix, timeout=0.0)
    assert 0 <= info.value.examined < info.value.total == 720


def _lex_rank(perm):
    return sorted(itertools.permutations(sorted(perm))).index(tuple(perm))


def test_timeout_examined_is_the_rank_of_the_sigma_reached(monkeypatch):
    # A clock that advances one second per reading: a budget of n seconds
    # stops the walk at its n-th node, so growing budgets replay the walk.
    A, B = _late_image(named("D0").matrix, rng(74))
    final = _lex_rank(are_equivalent(A, B).row_perm)
    examined = []
    for budget in itertools.count(1):
        clock = itertools.count()
        monkeypatch.setattr(chm.equivalence, "time", types.SimpleNamespace(monotonic=lambda: next(clock)))
        try:
            witness = are_equivalent(A, B, timeout=budget)
        except SearchTimeoutError as exc:
            assert exc.total == 720
            examined.append(exc.examined)
            continue
        assert _lex_rank(witness.row_perm) == final
        break
    assert len(examined) > 6  # the walk branched
    assert examined == sorted(examined)  # lexicographic order
    assert examined[-1] == final  # the last node before the witness is its own sigma


@pytest.mark.parametrize("timeout", [float("nan"), float("inf"), -1.0])
def test_equivalence_rejects_unbounded_or_negative_timeout(timeout):
    with pytest.raises(ValueError, match="timeout"):
        are_equivalent(named("M1").matrix, named("D0").matrix, timeout=timeout)


def _fourier(d):
    j = np.arange(d)
    return np.exp(2j * np.pi * np.outer(j, j) / d)


def _late_image(M, gen):
    # A random witness image of M whose first row is M's last row (phased):
    # its sigma comes late, unless a symmetry of M gives an earlier one.
    w = random_witness(gen)
    late = (6,) + tuple(int(i) + 1 for i in gen.permutation(5))
    return apply_witness(M, EquivalenceWitness(late, w.col_perm, w.row_phases, w.col_phases)), M


def _oracle_cases():
    gen = rng(71)
    eps = DEFAULT_TOL.eps
    names = registry_names()
    cases = [
        pytest.param(named(a).matrix, named(b).matrix, eps, id=f"{a}-{b}")
        for a in names
        for b in names
    ]
    for k in range(3):
        M = family_h(random_point(gen))
        image = apply_witness(M, random_witness(gen))
        cases.append(pytest.param(image, M, eps, id=f"family{k}-image"))
        cases.append(pytest.param(image, family_h(random_point(gen)), eps, id=f"family{k}-other"))
    for name in ("M1", "S6"):
        M = named(name).matrix
        signed = apply_witness(M, random_witness(gen, signs_only=True))
        cases.append(pytest.param(signed, M, eps, id=f"{name}-signed"))
    for d in (2, 4):
        F = _fourier(d)
        cases.append(pytest.param(apply_witness(F, random_witness(gen, d=d)), F, eps, id=f"F{d}-image"))
    for big in (1e-6, 1e-5, 1e-4):
        B = apply_witness(named("D0").matrix, random_witness(gen))
        # D0 with phase noise of at most 0.1*eps: still a CHM at eps.
        A = noisy_image(gen, named("D0").matrix, big, 0.1)
        cases.append(pytest.param(A, B, big, id=f"noisy-D0-{big:g}"))
    for d in (3, 5):  # drawn last, so the cases above keep their inputs
        F = _fourier(d)
        cases.append(pytest.param(apply_witness(F, random_witness(gen, d=d)), F, eps, id=f"F{d}-image"))
    # Late-sigma hits: one per registry class ({M1, D0}, {M2_w1, M2_w2, F6},
    # {S6}) and one family point. F6 and S6 have rows with equal sorted
    # signatures, so some row-candidate sets there hold two or more rows.
    late = rng(72)
    for name in ("D0", "F6", "S6"):
        cases.append(pytest.param(*_late_image(named(name).matrix, late), eps, id=f"{name}-late"))
    cases.append(pytest.param(*_late_image(family_h(random_point(late)), late), eps, id="family-late"))
    F1 = _fourier(1)  # the smallest d; F2 to F5 images are above
    cases.append(pytest.param(apply_witness(F1, random_witness(late, d=1)), F1, eps, id="F1-image"))
    # Dephased gap and witness residual on opposite sides of eps.
    for s, verdict in ((1, "miss"), (-1, "hit")):
        cases.append(pytest.param(straddling_d0(s), named("D0").matrix, 1e-4, id=f"straddle-{verdict}"))
    return cases


@pytest.mark.parametrize("A, B, eps", _oracle_cases())
def test_search_matches_unscreened_oracle(A, B, eps):
    found = are_equivalent(A, B, Tolerance(eps))
    expected = brute_force_equivalence(A, B, eps)
    if expected is None:
        assert found is None
        return
    assert found is not None
    assert (found.row_perm, found.col_perm) == (expected.row_perm, expected.col_perm)
    assert np.array_equal(found.row_phases, expected.row_phases)
    assert np.array_equal(found.col_phases, expected.col_phases)


# (row_perm, col_perm, row_phases, col_phases) that the search returned for
# a seeded witness image of F7 and F8 before any change to its sigma walk.
# The unscreened oracle is too slow at these sizes, so these pins stand in.
_FOURIER_PINS = {
    7: (
        (1, 2, 7, 5, 3, 6, 4),
        (1, 6, 2, 4, 7, 3, 5),
        [
            (-0.20488214542540492-0.9787866501367308j),
            (0.9527385182524643+0.30379156643675737j),
            (0.9835444463737258-0.18066632781844363j),
            (-0.8933662239383109-0.4493292667145149j),
            (-0.6295479755052952+0.776961612010004j),
            (-0.4181529854367254+0.908376618352957j),
            (0.31771203357190003+0.9481872514032277j),
        ],
        [
            (1-0j),
            (-0.746882562441597-0.6649559669035794j),
            (0.1592692339059506+0.9872351853185806j),
            (0.2304497089130831+0.9730842366732056j),
            (0.9965735252961458+0.08271159942119415j),
            (0.5622416288631285+0.8269730048637235j),
            (-0.591764485615463+0.8061109064913254j),
        ],
    ),
    8: (
        (1, 5, 2, 3, 4, 8, 7, 6),
        (1, 2, 6, 3, 8, 7, 5, 4),
        [
            (-0.23200032579552549-0.972715708123792j),
            (-0.850677379450788-0.5256881167486478j),
            (-0.9218602374411082+0.3875225188618381j),
            (0.13458299635801127-0.9909023246976967j),
            (-0.3265538205023824-0.9451786086847808j),
            (-0.22658040203631719-0.9739924647619512j),
            (-0.9924822556356558+0.1223886115958533j),
            (0.599990703813618-0.8000069720553936j),
        ],
        [
            (1-0j),
            (0.4148587448605972+0.909885828998721j),
            (-0.2264693612855995+0.9740182895607723j),
            (0.5495246460062089-0.835477506239247j),
            (-0.8181635378321669+0.5749855870906261j),
            (-0.8544002236862002-0.5196154903050629j),
            (-0.9200578265604734+0.39178258739359206j),
            (-0.501973780418407+0.8648828381766243j),
        ],
    ),
}


@pytest.mark.parametrize("d", sorted(_FOURIER_PINS))
def test_search_pinned_beyond_the_oracle(d):
    F = _fourier(d)
    found = are_equivalent(apply_witness(F, random_witness(rng(80 + d), d=d)), F)
    row_perm, col_perm, row_phases, col_phases = _FOURIER_PINS[d]
    assert (found.row_perm, found.col_perm) == (row_perm, col_perm)
    assert np.array_equal(found.row_phases, row_phases)
    assert np.array_equal(found.col_phases, col_phases)


def _dephased_forms(gen):
    # Dephased registry matrices and seeded family points.
    sources = [named(name).matrix for name in registry_names()]
    sources += [family_h(random_point(gen)) for _ in range(20)]
    return [dephase(M) for M in sources]


def test_signature_is_bit_identical_under_row_and_column_permutation():
    gen = rng(101)
    for G in _dephased_forms(gen):
        sig, rows = _signature(G), _signature(G[:, None, :])
        for _ in range(5):
            r, c = gen.permutation(6), gen.permutation(6)
            P = G[r][:, c]
            assert np.array_equal(_signature(P), sig)
            assert np.array_equal(_signature(P[:, None, :]), rows[r])  # row j of P is row r[j] of G


def test_signature_moves_no_more_than_the_entries():
    # The screen's bound rests on this: max|sig(G + D) - sig(G)| <= max|D|, per
    # form and per row, so no stage rejects a witness the final check accepts.
    gen = rng(103)
    for G in _dephased_forms(gen):
        for _ in range(5):
            H = G + gen.uniform(0, 1e-4, G.shape) * np.exp(1j * gen.uniform(-np.pi, np.pi, G.shape))
            D = np.abs(H - G)  # the perturbation as rounded into H
            assert np.abs(_signature(H) - _signature(G)).max() <= D.max()
            rows = np.abs(_signature(H[:, None, :]) - _signature(G[:, None, :])).max(axis=(-2, -1))
            assert (rows <= D.max(axis=1)).all()


def test_screen_bound_follows_tol():
    # A fixed 1e-7 screen rejected every pivot here, though the final eps
    # check accepts the witness.
    gen = rng(73)
    tol = Tolerance(1e-5)
    D0 = named("D0").matrix
    for _ in range(5):
        A = noisy_image(gen, D0, tol.eps, 0.1)
        B = apply_witness(D0, random_witness(gen))
        assert is_chm(A, tol).ok
        w = are_equivalent(A, B, tol)
        assert w is not None
        assert np.abs(apply_witness(B, w) - A).max() <= tol.eps


@pytest.mark.parametrize("frac, trials", [(0.3, 60), (0.5, 60), (1.0, 20)])
def test_noisy_witness_images_are_found(frac, trials):
    # D0 with entrywise phase noise within +-frac*eps against an exact witness
    # image of D0. Fitted to the first row and column alone, the search missed
    # 46 of 60 at 0.5*eps and 60 of 60 at 1.0*eps; refitted to every entry, it
    # misses none at 0.5*eps. A miss at 1.0*eps must be one that no proposal's
    # 20-round fit brings within eps either.
    gen = rng(5)
    D0 = named("D0").matrix
    for _ in range(trials):
        A = noisy_image(gen, D0, DEFAULT_TOL.eps, frac)
        B = apply_witness(D0, random_witness(gen))
        w = are_equivalent(A, B)
        if w is not None:
            assert np.abs(apply_witness(B, w) - A).max() <= DEFAULT_TOL.eps
        else:
            assert frac == 1.0 and brute_force_equivalence(A, B, rounds=20) is None


def test_only_the_entrywise_check_accepts():
    # straddling_d0(+1): the dephased gap is under eps, so the walk proposes
    # (sigma, tau), but the fitted witness misses A by more than eps.
    # straddling_d0(-1): the gap is over eps, the witness within it.
    tol = Tolerance(1e-4)
    D0 = named("D0").matrix
    miss, hit = straddling_d0(1), straddling_d0(-1)
    assert is_chm(miss, tol).ok and is_chm(hit, tol).ok
    assert np.abs(dephase(miss, tol) - D0).max() < tol.eps < np.abs(dephase(hit, tol) - D0).max()
    assert are_equivalent(miss, D0, tol) is None
    assert exclusion_report(miss, tol).rules_fired == ()
    w = are_equivalent(hit, D0, tol)
    assert w is not None
    assert np.abs(apply_witness(D0, w) - hit).max() <= tol.eps
    assert [r.rule_id for r in exclusion_report(hit, tol).rules_fired] == ["R3"]


@pytest.mark.parametrize(
    "name, expected",
    [("M1", 30), ("M2_w1", 24), ("M2_w2", 24), ("D0", 16), ("F6", 20), ("S6", 16)],
)
def test_count_real_entries(name, expected):
    # F6: entries exp(2*pi*i*j*k/6) are real iff j*k = 0 mod 3, which is
    # 20 of the 36 index pairs.
    count = count_real_entries(named(name).matrix)
    assert count == expected and type(count) is int


@pytest.mark.parametrize("entries", [[[1, 2, 3]], [[np.nan, 1], [1, 1]]])
def test_count_real_entries_validates_input(entries):
    with pytest.raises(InvalidMatrixError):
        count_real_entries(entries)


def test_count_real_entries_invariant_under_signed_permutations():
    gen = rng(23)
    M1 = named("M1").matrix
    for _ in range(100):
        w = random_witness(gen, signs_only=True)
        assert count_real_entries(apply_witness(M1, w)) == 30


def test_real_submatrices_all_ones():
    reports = real_submatrices_3x2(np.ones((6, 6)))
    assert len(reports) == 300
    assert all(r.rank == 1 for r in reports)


def test_real_submatrices_m1():
    reports = {(r.rows, r.cols): r.rank for r in real_submatrices_3x2(named("M1").matrix)}
    # rows 2,3,4 x cols 1,6 holds columns (1,1,1) and (-1,-1,1): rank two
    assert reports[((2, 3, 4), (1, 6))] == 2


def test_real_submatrices_family_generic_point():
    assert real_submatrices_3x2(family_h(FamilyPoint(1.0, 0.5))) == []


def test_real_submatrices_ranks_as_minors():
    M = np.ones((6, 6), dtype=complex)
    M[3, 0] = -1.0  # makes column pairs through row 4 rank two
    reports = real_submatrices_3x2(M)
    assert len(reports) == 300
    for r in reports:
        expect = 2 if (4 in r.rows and 1 in r.cols) else 1
        assert r.rank == expect


def test_real_submatrices_match_looped_oracle():
    # Registry, 200 seeded family points, a signed witness image of each
    # (signs keep real entries real), and the all-ones matrix.
    gen = rng(67)
    base = [named(name).matrix for name in registry_names()]
    base += [family_h(random_point(gen)) for _ in range(200)]
    inputs = base + [apply_witness(M, random_witness(gen, signs_only=True)) for M in base]
    inputs.append(np.ones((6, 6)))
    found = [real_submatrices_3x2(M) for M in inputs]
    assert found == [looped_real_3x2(M) for M in inputs]
    assert {r.rank for reports in found for r in reports} == {1, 2}


@pytest.mark.parametrize("eps", [DEFAULT_TOL.eps, 1e-4])
def test_real_submatrices_match_looped_oracle_off_chms(eps):
    # Any finite 6x6 matrix is accepted. Entries come from {+-1, +-2, 0, +-i}
    # or are random phases; some inputs carry an exactly proportional column
    # pair (2 and 5) or a zero block (rows 2-4, cols 3-4).
    gen = rng(79)
    values = np.array([1, -1, 2, -2, 0, 1j, -1j])
    inputs = []
    for k in range(60):
        M = gen.choice(values, size=(6, 6))
        phased = gen.uniform(size=(6, 6)) < 0.2
        M[phased] = np.exp(2j * np.pi * gen.uniform(size=int(phased.sum())))
        if k % 3 == 0:
            M[:, 4] = -2 * M[:, 1]
        if k % 4 == 0:
            M[1:4, 2:4] = 0
        inputs.append(M)
    tol = Tolerance(eps)
    found = [real_submatrices_3x2(M, tol) for M in inputs]
    assert found == [looped_real_3x2(M, tol) for M in inputs]
    reports = [r for reports in found for r in reports]
    assert {r.rank for r in reports} == {1, 2}
    assert any(r.cols == (2, 5) and r.rank == 1 for r in reports)
    assert any(r.rows == (2, 3, 4) and r.cols == (3, 4) for r in reports)


def test_real_submatrices_exit_when_fewer_than_three_rows_can_hold_a_block():
    # A real 3x2 block needs three rows with two real entries each. Signed
    # images of D0 and M1 keep their real entries (every row qualifies); the
    # planted inputs have exactly two and exactly three qualifying rows.
    gen = rng(97)
    inputs = [apply_witness(named(name).matrix, random_witness(gen, signs_only=True))
              for name in ("D0", "M1") for _ in range(10)]
    base = np.exp(1j * gen.uniform(0.2, 1.2, size=(6, 6)))  # no entry is real
    two, three, apart = base.copy(), base.copy(), base.copy()
    for M, rows, cols in ((two, (0, 1), (1, 4)), (three, (0, 1, 2), (1, 4)), (apart, (0, 1), (1, 4))):
        M[np.ix_(rows, cols)] = gen.choice([-1.0, 1.0], size=(len(rows), 2))
    apart[2, [0, 3]] = 1.0  # a third qualifying row, on other columns: no block
    inputs += [two, three, apart]
    found = [real_submatrices_3x2(M) for M in inputs]
    assert found == [looped_real_3x2(M) for M in inputs]
    assert found[-3] == found[-1] == []
    assert [(r.rows, r.cols) for r in found[-2]] == [((1, 2, 3), (2, 5))]


@pytest.mark.parametrize("eps", [1e-9, 1e-6, 1e-4, 9e-4])
def test_sorted_table_certificate_never_rejects_an_accepted_witness(eps):
    # Both sides carry phase and modulus noise within +-0.5*eps. Wherever the
    # unscreened oracle accepts a witness, the sorted 2x2 tables lie within
    # 17*eps (the certificate's bound), and the search returns that witness.
    gen = rng(89)
    tol = Tolerance(eps)
    sources = [named(name).matrix for name in registry_names()]
    sources += [family_h(random_point(gen)) for _ in range(3)]

    def noisy(M):
        phase = np.exp(1j * gen.uniform(-0.5 * eps, 0.5 * eps, M.shape))
        return M * phase * (1 + gen.uniform(-0.5 * eps, 0.5 * eps, M.shape))

    def sorted_table(M):
        return np.sort(residual_table_oracle(M[None]), axis=None)

    accepted = 0
    for M in sources:
        for _ in range(2):
            A, B = noisy(apply_witness(M, random_witness(gen))), noisy(M)
            if not (is_chm(A, tol).ok and is_chm(B, tol).ok):
                continue
            expected = brute_force_equivalence(A, B, eps)
            found = are_equivalent(A, B, tol)
            if expected is None:
                assert found is None
                continue
            accepted += 1
            assert np.abs(sorted_table(A) - sorted_table(B)).max() <= 17 * eps
            assert (found.row_perm, found.col_perm) == (expected.row_perm, expected.col_perm)
            assert np.array_equal(found.row_phases, expected.row_phases)
            assert np.array_equal(found.col_phases, expected.col_phases)
    assert accepted >= len(sources)


def test_a_certified_miss_dephases_nothing(monkeypatch):
    # F6 and D0 differ in their sorted 2x2 tables: the miss is decided before
    # A's dephased side or B's screen is built, and before the budget is read.
    calls = []
    for name in ("_a_side", "_screen"):
        build = getattr(chm.equivalence, name)
        monkeypatch.setattr(chm.equivalence, name, lambda *a, build=build: calls.append(1) or build(*a))
    F6, D0 = named("F6").matrix, named("D0").matrix
    assert are_equivalent(F6, D0) is None
    assert are_equivalent(D0, F6, timeout=0.0) is None
    assert calls == []


@pytest.mark.parametrize("d", [12, 32, 64])
def test_the_budget_is_read_before_each_screen_block_and_pivot_row(monkeypatch, d):
    # With no budget left the search raises before B's first screen block;
    # with a clock that advances one second per reading, a budget of one
    # second builds that block and raises before its first pivot row's matches.
    calls = {"_screen": 0, "_walk": 0}
    for name in calls:
        build = getattr(chm.equivalence, name)
        monkeypatch.setattr(chm.equivalence, name,
                            lambda *a, name=name, build=build: calls.update({name: calls[name] + 1}) or build(*a))
    F = _fourier(d)
    image = apply_witness(F, random_witness(rng(91), d=d))
    with pytest.raises(SearchTimeoutError) as info:
        are_equivalent(image, F, timeout=0.0)
    assert (info.value.examined, info.value.total) == (0, math.factorial(d))
    assert calls == {"_screen": 0, "_walk": 0}
    clock = itertools.count()
    monkeypatch.setattr(chm.equivalence, "time", types.SimpleNamespace(monotonic=lambda: next(clock)))
    with pytest.raises(SearchTimeoutError) as info:
        are_equivalent(image, F, timeout=1.0)
    assert info.value.examined == 0  # every pivot of F is kept: row 0 is the first
    assert calls == {"_screen": 1, "_walk": 0}


def _f4(a):
    w = 1j * np.exp(1j * a)
    return np.array([[1, 1, 1, 1], [1, w, -1, -w], [1, -1, 1, -1], [1, -w, -1, w]])


def _walk_corpus():
    # (A, B, eps): witness images of the registry matrices and of seeded family
    # points at two tolerances, a noisy D0 image, F4(0), F4(pi/4) and F8.
    gen = rng(97)
    sources = [named(name).matrix for name in registry_names()]
    sources += [family_h(random_point(gen)) for _ in range(4)]
    cases = [(apply_witness(M, random_witness(gen)), M, eps) for eps in (1e-9, 1e-5) for M in sources]
    D0 = named("D0").matrix
    cases.append((noisy_image(gen, apply_witness(D0, random_witness(gen)), 1e-5, 0.3), D0, 1e-5))
    for F in (_f4(0), _f4(np.pi / 4), _fourier(8)):
        cases.append((apply_witness(F, random_witness(gen, d=len(F))), F, DEFAULT_TOL.eps))
    cases.append((apply_witness(_f4(0), random_witness(gen, d=4)), _f4(np.pi / 4), DEFAULT_TOL.eps))
    return cases


def _kept_pivot_rows(monkeypatch, A, B, eps):
    # The walk inputs of every kept pivot row of B against A: with a walk that
    # yields nothing, the search goes on to the next kept row.
    rows = []
    with monkeypatch.context() as m:
        m.setattr(chm.equivalence, "_walk", lambda *args: rows.append(args) or iter(()))
        assert are_equivalent(A, B, Tolerance(eps)) is None
    return rows


def test_walk_yields_the_numpy_leaf_oracles_whole_sequence(monkeypatch):
    # Every (sigma, tau) of every kept pivot row, in order, not just the first.
    lengths = []
    for A, B, eps in _walk_corpus():
        for args in _kept_pivot_rows(monkeypatch, A, B, eps):
            got = list(_walk(*args))
            assert got == list(walk_oracle(*args))
            lengths.append(len(got))
    assert len(lengths) > 50 and sum(lengths) > 1000


@pytest.mark.parametrize("n_forms", [1, 8, 9, 63, 64, 65, 70])
def test_walk_holds_any_number_of_forms(n_forms):
    # Forms are row and column permutations of F5 with row 0 kept first; row
    # matches hold the true pairs and seeded false ones. The last form alone
    # has its permutation, so a walk that drops high bits loses its witness.
    gen = rng(n_forms)
    Ad = _fourier(5)
    perms = [[0, *gen.permutation(range(1, 5)).tolist()] for _ in range(3)]
    kinds = [n % 2 for n in range(n_forms - 1)] + [2]
    cols = [gen.permutation(5).tolist() for _ in range(3)]
    forms = np.array([Ad[perms[k]][:, cols[k]] for k in kinds])
    match = gen.random((n_forms, 5, 5)) < 0.3
    for n, k in enumerate(kinds):
        match[n, range(5), perms[k]] = True
    got = list(_walk(forms, Ad, 0, match, 1e-7, None))
    assert got == list(walk_oracle(forms, Ad, 0, match, 1e-7, None))
    assert (tuple(np.argsort(perms[2]).tolist()), tuple(np.argsort(cols[2]).tolist())) in got


@pytest.mark.parametrize("d", [64, 65])
def test_a_search_with_64_or_more_forms_per_pivot_row_runs_to_its_budget(monkeypatch, d):
    # Every pivot of a Fourier matrix is kept, so the live forms of one pivot
    # row need d >= 64 bits; the search walks them until its budget is spent.
    widths = []
    monkeypatch.setattr(chm.equivalence, "_walk", lambda forms, *a: widths.append(len(forms)) or _walk(forms, *a))
    F = _fourier(d)
    with pytest.raises(SearchTimeoutError):
        are_equivalent(apply_witness(F, random_witness(rng(d), d=d)), F, timeout=0.5)
    assert max(widths) >= 64
