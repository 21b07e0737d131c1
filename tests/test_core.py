import json
import math
import sys
import warnings
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import chm.core
import chm.equivalence
from chm import (
    ChmError,
    EquivalenceWitness,
    InvalidMatrixError,
    NonSquareError,
    Tolerance,
    apply_witness,
    are_equivalent,
    as_matrix,
    census_2x2,
    dephase,
    exclusion_report,
    family_h,
    FamilyPoint,
    find_3x3_sub_chms,
    gram_residual,
    h2_block_structure,
    is_chm,
    is_sub_chm_2x2,
    loads_matrix,
    matrix_from_obj,
    matrix_to_obj,
    mu_pair,
    named,
    NotCHMError,
    real_submatrices_3x2,
    registry_names,
)
from util import matrix_from_obj_oracle, random_point, random_unimodular, random_witness, rng


def test_gram_residual_values():
    assert gram_residual(named("F6").matrix) <= 1e-12
    assert gram_residual(np.eye(6)) == pytest.approx(5.0)
    assert gram_residual(np.ones((6, 6))) == pytest.approx(6.0)


def test_is_chm_examples():
    assert is_chm(named("D0").matrix).ok
    assert is_chm(named("F6").matrix).ok
    bad = is_chm(np.ones((6, 6)))
    assert not bad.ok
    assert bad.residual == pytest.approx(1.0)  # gram residual 6, scaled by d


def test_is_chm_result_consistency():
    tol = Tolerance(1e-9)
    for M in (named("M1").matrix, np.ones((6, 6)), np.eye(6)):
        result = is_chm(M, tol)
        assert result.ok == (result.residual <= tol.eps)


def test_gram_duality_on_hadamard_matrices():
    # Row and column orthogonality coincide for CHMs: both residuals are
    # numerically zero, hence equal within 1e-12. (The identity does not
    # extend to arbitrary unimodular matrices.)
    gen = rng(7)
    mats = [named(n).matrix for n in ("M1", "M2_w1", "D0", "F6", "S6")]
    mats.append(family_h(FamilyPoint(0.7, -0.3)))
    mats.extend(apply_witness(named("F6").matrix, random_witness(gen)) for _ in range(10))
    for M in mats:
        assert abs(gram_residual(M) - gram_residual(M.conj().T)) <= 1e-12


def test_is_chm_invariant_under_equivalence_transforms():
    gen = rng(11)
    F6 = named("F6").matrix
    for _ in range(100):
        assert is_chm(apply_witness(F6, random_witness(gen))).ok


def test_tolerance_monotonicity():
    # Once a check passes at eps it passes at any larger eps.
    M = named("F6").matrix + 1e-8
    ladder = [1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4]
    verdicts = [is_chm(M, Tolerance(eps)).ok for eps in ladder]
    assert verdicts == sorted(verdicts)
    assert verdicts[-1]


@pytest.mark.parametrize("eps", [0.0, -1e-9, 1e-3, 0.5, 1e-15])
def test_tolerance_bounds(eps):
    with pytest.raises(ValueError):
        Tolerance(eps)


def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(NonSquareError):
        as_matrix(np.ones((2, 3)))
    with pytest.raises(NonSquareError):
        as_matrix([1.0, 2.0])
    with pytest.raises(InvalidMatrixError):
        as_matrix([[np.nan, 1], [1, 1]])
    with pytest.raises(NonSquareError):
        as_matrix(np.ones((2, 6, 6)))


def test_is_chm_and_gram_residual_reject_a_stack():
    stack = np.array([named(name).matrix for name in ("M1", "F6", "D0")])
    for check in (is_chm, gram_residual):
        for bad in (stack, np.ones((2, 6, 5))):
            with pytest.raises(NonSquareError):
                check(bad)
    M = np.array(named("D0").matrix)
    M[0, 0] = np.nan
    with pytest.raises(InvalidMatrixError):
        is_chm(M)


@pytest.mark.parametrize(
    "bad",
    [[[1, 1], [1]], [["a", "b"], ["c", "d"]], {"d": 2}, [[object(), 1], [1, 1]]],
    ids=["ragged", "strings", "dict", "object"],
)
def test_input_numpy_cannot_convert_is_an_invalid_matrix(bad):
    F6 = named("F6").matrix
    checks = [as_matrix, is_chm, census_2x2, lambda m: are_equivalent(m, F6), lambda m: are_equivalent(F6, m),
              lambda m: is_sub_chm_2x2(m, 1, 1, -1)]
    for check in checks:
        with pytest.raises(InvalidMatrixError) as info:
            check(bad)
        assert isinstance(info.value.__cause__, (TypeError, ValueError))


@pytest.mark.usefixtures("fresh_recent")
def test_is_chm_validates_its_input_once(monkeypatch):
    M = family_h(FamilyPoint(1.0, 0.5))
    expected = max(float(np.abs(np.abs(M) - 1.0).max()), gram_residual(M) / 6)
    chm.core._recent.cache_clear()  # gram_residual prepared M: forget it
    calls = []
    validate = chm.core.as_matrix
    monkeypatch.setattr(chm.core, "as_matrix", lambda m: calls.append(1) or validate(m))
    check = is_chm(M)
    assert len(calls) == 1
    assert check.ok and check.residual == expected


@pytest.mark.parametrize(
    "check, names",
    [
        (chm.exclusion_report, ("M1",)),  # fires R1 and R3, so builds a witness
        (chm.are_equivalent, ("M1", "D0")),
        (chm.census_2x2, ("F6",)),
        (chm.h2_block_structure, ("F6",)),
        (chm.find_3x3_sub_chms, ("F6",)),
        (chm.count_real_entries, ("M1",)),
        (chm.dephase, ("M1",)),
        (chm.is_chm, ("M1",)),
        (chm.gram_residual, ("M1",)),
        (chm.mu_pair, ("F6", "D0")),
    ],
    ids=lambda v: getattr(v, "__name__", None) or "-".join(v),
)
@pytest.mark.usefixtures("fresh_recent")
def test_public_checks_validate_each_input_once(monkeypatch, check, names):
    # A registry array was validated at import and its prepared object is not
    # validated again; a writable copy of it is a new input, validated once.
    calls = []
    validate = chm.core.as_matrix
    for module in (chm, chm.core, chm.census, chm.equivalence, chm.mub, chm.scan):
        if hasattr(module, "as_matrix"):
            monkeypatch.setattr(module, "as_matrix", lambda m: calls.append(1) or validate(m))
    assert check(*(named(name).matrix for name in names)) is not None
    assert len(calls) == 0
    calls.clear()
    assert check(*(np.array(named(name).matrix) for name in names)) is not None
    assert len(calls) == len(names)


def _outcome(check, *args):
    # A check's result, or the type and message of the error it raised.
    try:
        result = check(*args)
    except ChmError as exc:
        return type(exc), str(exc)
    if isinstance(result, EquivalenceWitness):  # compared by its fields, phases bit for bit
        return (result.row_perm, result.col_perm, result.row_phases.tobytes(), result.col_phases.tobytes())
    return result


def test_registry_objects_give_what_fresh_arrays_give():
    # A registry array reuses its kept object, filled at whichever tolerance came
    # first; a writable copy of it gets a fresh object. Both give one result.
    names = registry_names()
    for eps in (1e-12, 1e-9, 1e-6):
        tol = Tolerance(eps)
        for a in names:
            A = named(a).matrix
            assert _outcome(exclusion_report, A, tol) == _outcome(exclusion_report, np.array(A), tol)
            for b in names:
                B = named(b).matrix
                kept = _outcome(are_equivalent, A, B, tol)
                assert kept == _outcome(are_equivalent, np.array(A), np.array(B), tol)
    for name in names:
        M = named(name).matrix
        assert not M.flags.writeable
        assert chm.core._prepare(M).matrix is M


@pytest.mark.usefixtures("fresh_recent")
def test_fresh_arrays_leave_the_registry_objects_alone():
    names = registry_names()
    kept = dict(chm.core._KEPT)
    for name in names:  # fill what these checks keep
        exclusion_report(named(name).matrix)
        are_equivalent(named(name).matrix, named("D0").matrix)
    before = {key: dict(P._cache) for key, P in kept.items()}
    gen = rng(7)
    for k in range(100):
        M = named(names[k % len(names)]).matrix
        if k % 2:
            exclusion_report(apply_witness(M, random_witness(gen)))
        else:
            are_equivalent(np.array(M), np.array(named("D0").matrix))
    assert chm.core._KEPT == kept
    for key, P in kept.items():
        assert P._cache.keys() == before[key].keys()
        assert all(P._cache[build] is value for build, value in before[key].items())


@pytest.mark.usefixtures("fresh_recent")
def test_a_matrix_changed_in_place_gets_no_stale_table():
    F6 = named("F6").matrix
    M = np.array(F6)
    assert census_2x2(M).count == 45
    M[:] = family_h(FamilyPoint(1.0, 0.5))  # another CHM, in place
    # What F6's content prepared is built on a copy, not on M's new entries.
    assert find_3x3_sub_chms(np.array(F6)) == find_3x3_sub_chms(F6) != []
    fresh = chm.core._Prepared(M.copy())
    assert census_2x2(M) == census_2x2(fresh)
    assert census_2x2(M).count == 17
    assert h2_block_structure(M) == h2_block_structure(fresh)
    M[2, 3] = -M[2, 3]  # no longer a CHM
    for check in (census_2x2, h2_block_structure):
        with pytest.raises(NotCHMError):
            check(chm.core._Prepared(M.copy()))
        with pytest.raises(NotCHMError):
            check(M)


@pytest.mark.usefixtures("fresh_recent")
def test_recent_inputs_are_keyed_by_content():
    M = family_h(FamilyPoint(1.0, 0.5))
    P = chm.core._prepare(M)
    assert chm.core._prepare(M.copy()) is P
    assert chm.core._prepare(M.tolist()) is P
    assert not P.matrix.flags.writeable and P.matrix is not M
    signed = M.copy()
    signed[0, 0] = complex(1.0, -0.0)  # equal to M[0, 0] == 1 + 0j, not bit for bit
    assert np.array_equal(signed, M)
    assert chm.core._prepare(signed) is not P


@pytest.mark.usefixtures("fresh_recent")
def test_recent_inputs_are_few_and_small():
    gen = rng(11)
    for k in range(100):
        census_2x2(apply_witness(named("D0").matrix, random_witness(gen)))
        assert chm.core._recent.cache_info().currsize <= 4
    assert chm.core._recent.cache_info().maxsize == 4
    kept = chm.core._recent.cache_info()
    j = np.arange(12)
    F12 = np.exp(2j * np.pi * np.outer(j, j) / 12)
    assert chm.core._prepare(F12) is not chm.core._prepare(F12)
    assert is_chm(F12).ok and are_equivalent(F12, F12) is not None
    assert chm.core._recent.cache_info() == kept  # d > 6 neither looked up nor kept


@pytest.mark.usefixtures("fresh_recent")
def test_the_seven_matrix_checks_build_each_table_once(monkeypatch):
    # One input through the checks of a benchmark request (bench/worker.py,
    # check_matrix), with registry partners for mu_pair and are_equivalent.
    F6, D0 = named("F6").matrix, named("D0").matrix
    calls = {}

    def counting(name, real):
        def build(*args):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)
        return build

    for name, home in (("_chm_residual", chm.core), ("_pair_residuals", chm.census), ("_gram_3x3", chm.census)):
        wrapper = counting(name, getattr(home, name))  # one per builder: builders key what is kept
        for module in (chm, chm.core, chm.census, chm.equivalence, chm.mub, chm.scan):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    exclusion_report(D0)  # fills D0's kept object under the wrapped builders
    calls.clear()
    M = family_h(FamilyPoint(1.0, 0.5))
    census_2x2(M)
    h2_block_structure(M)
    find_3x3_sub_chms(M)
    real_submatrices_3x2(M)
    exclusion_report(M)
    mu_pair(M, F6)
    are_equivalent(M, D0)
    assert calls == {"_chm_residual": 1, "_pair_residuals": 1, "_gram_3x3": 1}


@pytest.mark.usefixtures("fresh_recent")
def test_the_seven_matrix_checks_validate_a_fresh_input_once(monkeypatch):
    # Each of the checks prepares M again; after the first, M's bytes are a
    # recent key and its object comes back with no new validation. Registry
    # partners are not validated again; writable copies of them once each.
    F6, D0 = named("F6").matrix, named("D0").matrix
    M = family_h(FamilyPoint(1.0, 0.5))
    seen = []
    validate = chm.core.as_matrix
    for module in (chm, chm.core, chm.census, chm.equivalence, chm.mub, chm.scan):
        if hasattr(module, "as_matrix"):
            monkeypatch.setattr(module, "as_matrix", lambda m: seen.append(np.asarray(m).tobytes()) or validate(m))

    def checks(F6, D0):
        census_2x2(M)
        h2_block_structure(M)
        find_3x3_sub_chms(M)
        real_submatrices_3x2(M)
        exclusion_report(M)
        mu_pair(M, F6)
        are_equivalent(M, D0)

    checks(F6, D0)
    assert seen == [M.tobytes()]
    seen.clear()
    checks(np.array(F6), np.array(D0))
    assert seen == [F6.tobytes(), D0.tobytes()]


@pytest.mark.usefixtures("fresh_recent")
def test_a_content_hit_keeps_the_shape_guard_and_the_order():
    # D0's entries are +-1 and +-i, so a signed image of it survives complex64.
    M = apply_witness(named("D0").matrix, random_witness(rng(5), signs_only=True))
    P = chm.core._prepare(M)
    assert chm.core._prepare(M) is P
    for bad in (M.reshape(4, 9), M.reshape(1, 36), M.ravel()):
        with pytest.raises(NonSquareError):
            chm.core._prepare(bad)
        with pytest.raises(NonSquareError):
            census_2x2(bad)
    with warnings.catch_warnings():  # numpy's matrix subclass warns that it is deprecated
        warnings.simplefilter("ignore", PendingDeprecationWarning)
        wrapped = np.asmatrix(M)
    for same in (M.astype(np.complex64), wrapped):
        assert chm.core._prepare(same) is P
        assert census_2x2(same) == census_2x2(M)
    others = [family_h(random_point(rng(k))) for k in range(4)]
    objects = [chm.core._prepare(other) for other in others[:3]]
    assert chm.core._prepare(M) is P  # a hit makes M the newest again
    objects.append(chm.core._prepare(others[3]))  # evicts the oldest, others[0], not M
    assert chm.core._recent.cache_info().currsize == 4
    misses = chm.core._recent.cache_info().misses
    for X, Q in [(M, P), *zip(others[1:], objects[1:])]:
        assert chm.core._prepare(X) is Q
    assert chm.core._recent.cache_info().misses == misses
    assert chm.core._prepare(others[0]) is not objects[0]
    assert chm.core._recent.cache_info().misses == misses + 1


@pytest.mark.usefixtures("fresh_recent")
def test_a_list_complex64_or_matrix_form_of_a_recent_input_is_a_hit_without_validation(monkeypatch):
    # D0's entries are +-1 and +-i, so a signed image of it survives complex64.
    M = apply_witness(named("D0").matrix, random_witness(rng(5), signs_only=True))
    P = chm.core._prepare(M)
    calls = []
    validate = chm.core.as_matrix
    for module in (chm, chm.core, chm.census, chm.equivalence, chm.mub, chm.scan):
        if hasattr(module, "as_matrix"):
            monkeypatch.setattr(module, "as_matrix", lambda m: calls.append(1) or validate(m))
    with warnings.catch_warnings():  # numpy's matrix subclass warns that it is deprecated
        warnings.simplefilter("ignore", PendingDeprecationWarning)
        wrapped = np.asmatrix(M)
    for same in (M.tolist(), M.astype(np.complex64), wrapped):
        assert chm.core._prepare(same) is P
        assert census_2x2(same) == census_2x2(M)
    assert calls == []
    assert chm.core._recent.cache_info().misses == 1


def _parsed(parse, obj):
    # The parsed matrix's dtype, shape, writability and bytes, or the error's type and message.
    try:
        M = parse(obj)
    except InvalidMatrixError as exc:
        return type(exc), str(exc)
    return M.dtype, M.shape, M.flags.writeable, M.tobytes()


def _obj_of(parts):
    # The JSON object form of a square table of (re, im) component pairs.
    return {"d": len(parts), "entries": [[{"re": re, "im": im} for re, im in row] for row in parts]}


def _well_formed_objs():
    gen = rng(17)
    mats = [named(n).matrix for n in registry_names()]
    mats += [family_h(random_point(gen)) for _ in range(4)]
    mats += [apply_witness(named(n).matrix, random_witness(gen)) for n in registry_names()]
    mats += [random_unimodular(gen, d) for d in (1, 2, 6, 7, 12)]
    objs = [matrix_to_obj(M) for M in mats]
    ints = [0, 1, -1, 7, 2**53 - 1, 2**53, 2**53 + 1, -(2**53 + 3), 2**63 + 1, 10**300, -(10**300)]
    comps = ints + [0.5, -0.0, 0.0, 1e-320, -1.7976931348623157e308]
    n = len(comps)
    for d in (1, 2, 6, 7, 12):
        pairs = [(comps[(3 * k + d) % n], comps[(5 * k + 1) % n]) for k in range(d * d)]
        objs.append(_obj_of([pairs[d * j : d * (j + 1)] for j in range(d)]))
        objs.append(_obj_of([[(-0.0, -0.0)] * d] * d))
        objs.append(_obj_of([[(np.float64(x), -x) for x in np.linspace(-1, 1, d)]] * d))  # via the Python API
    objs.append({"d": 1, "entries": [[OrderedDict(re=1.0, im=-0.0)]]})  # a dict subclass, via the Python API
    return objs


def test_matrix_from_obj_matches_the_per_entry_oracle_bit_for_bit():
    objs = _well_formed_objs()
    for obj in objs:
        expected = _parsed(matrix_from_obj_oracle, obj)
        assert expected[0] == np.complex128
        assert _parsed(matrix_from_obj, obj) == expected
    assert {obj["d"] for obj in objs} >= {1, 2, 6, 7, 12}


_ENTRY_FAULTS = {
    "list": lambda e: [e["re"], e["im"]],
    "missing-im": lambda e: {"re": e["re"]},
    "renamed-key": lambda e: {"re": e["re"], "imag": e["im"]},
    "extra-key": lambda e: {**e, "x": 0},
    "bool": lambda e: {**e, "re": True},
    "string": lambda e: {**e, "im": "0"},
    "numpy-int": lambda e: {**e, "re": np.int64(1)},
    "nan": lambda e: {**e, "im": math.nan},
    "inf": lambda e: {**e, "re": -math.inf},
    "huge-int": lambda e: {**e, "im": 10**400},
}
_ROW_FAULTS = {
    "short-row": lambda row: row[:-1],
    "long-row": lambda row: row + row[:1],
    "tuple-row": tuple,
}
_FAULTS = [*_ENTRY_FAULTS, *_ROW_FAULTS]
_PLACES = [(0, 0), (2, 3), (5, 5)]  # the first, a middle and the last entry of a 6x6


def _with_faults(obj, *faults):
    rows = [list(row) for row in obj["entries"]]
    for kind, (j, k) in faults:
        if kind in _ROW_FAULTS:
            rows[j] = _ROW_FAULTS[kind](rows[j])
        else:
            rows[j][k] = _ENTRY_FAULTS[kind](rows[j][k])
    return {**obj, "entries": rows}


@pytest.mark.parametrize("kind", _FAULTS)
def test_matrix_from_obj_names_the_oracles_fault(kind):
    base = matrix_to_obj(named("M1").matrix)
    for place in _PLACES:
        obj = _with_faults(base, (kind, place))
        expected = _parsed(matrix_from_obj_oracle, obj)
        assert issubclass(expected[0], InvalidMatrixError)
        assert _parsed(matrix_from_obj, obj) == expected
    for other in _FAULTS:  # two faults of different kinds, in either order
        if other == kind:
            continue
        for first, second in ((_PLACES[0], _PLACES[1]), (_PLACES[1], _PLACES[2]), (_PLACES[2], _PLACES[0])):
            obj = _with_faults(base, (kind, first), (other, second))
            assert _parsed(matrix_from_obj, obj) == _parsed(matrix_from_obj_oracle, obj)


def test_public_outputs_of_a_writable_input_stay_writable():
    M = family_h(FamilyPoint(1.0, 0.5))
    census_2x2(M)
    find_3x3_sub_chms(M)
    assert M.flags.writeable
    assert as_matrix(M) is M
    assert dephase(M).flags.writeable
    assert apply_witness(M, random_witness(rng(3))).flags.writeable
    assert matrix_from_obj(matrix_to_obj(M)).flags.writeable
    assert isinstance(matrix_to_obj(M)["entries"][0], list)


@pytest.mark.usefixtures("fresh_recent")
def test_threads_preparing_at_once_agree_with_one_thread():
    gen = rng(13)
    inputs = [apply_witness(named(n).matrix, random_witness(gen)) for n in registry_names() for _ in range(9)][:50]
    serial = [census_2x2(M) for M in inputs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for _ in range(3):
            chm.core._recent.cache_clear()
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(census_2x2, M) for M in inputs]
                assert [f.result(timeout=60) for f in futures] == serial
            assert chm.core._recent.cache_info().currsize <= 4
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("d, keeps", [(2, True), (4, True), (6, True), (12, False)])
def test_pivot_screen_is_kept_by_any_matrix_as_one_block(monkeypatch, fresh_recent, d, keeps):
    # Whether B keeps its screen depends on d alone (one block when d**4 <= 1296),
    # not on whether B is a registry array, recent content or a bare object.
    j = np.arange(d)
    F = np.exp(2j * np.pi * np.outer(j, j) / d)
    image = apply_witness(F, random_witness(rng(97 + d), d=d))
    bare, registry, recent = chm.core._Prepared(F.copy()), F.copy(), F.copy()
    registry.setflags(write=False)
    kept = chm.core._Prepared(registry)
    monkeypatch.setitem(chm.core._KEPT, id(registry), kept)  # kept as a registry array is
    for B in (bare, registry, recent):
        assert are_equivalent(image, B) is not None
    held = [bare, kept] + ([chm.core._prepare(recent)] if d <= 6 else [])  # d > 6 is never recent
    assert [chm.equivalence._screen in P._cache for P in held] == [keeps] * len(held)


def test_matrix_json_round_trip():
    M = named("M2_w1").matrix
    again = matrix_from_obj(matrix_to_obj(M))
    assert np.abs(again - M).max() == 0.0
    assert np.abs(loads_matrix(json.dumps(matrix_to_obj(M))) - M).max() == 0.0


@pytest.mark.parametrize(
    "obj",
    [
        {"entries": []},
        {"d": 2, "entries": [[{"re": 1, "im": 0}, {"re": 1, "im": 0}]]},  # one row
        {"d": 2, "entries": [[{"re": 1, "im": 0}], [{"re": 1, "im": 0}]]},  # short rows
        {"d": 1, "entries": [[{"re": 1}]]},  # missing im
        {"d": 1, "entries": [[{"re": float("inf"), "im": 0}]]},
        {"d": 1, "entries": [[{"re": True, "im": 0}]]},
        {"d": 0, "entries": []},
        "nope",
        {"d": 1, "entries": [[{"re": 0, "im": 10**400}]]},  # an int past float range
        {"d": 1, "entries": [[{"re": 0, "im": float("nan")}]]},
        {"d": 1, "entries": [[{"re": 0, "im": -float("inf")}]]},
    ],
)
def test_matrix_from_obj_rejects_malformed(obj):
    with pytest.raises(InvalidMatrixError):
        matrix_from_obj(obj)


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        "[" * 200_000 + "]" * 200_000,  # nested past the recursion limit
        '{"d": 1, "entries": [[{"re": 1' + "0" * 400 + ', "im": 0}]]}',
    ],
    ids=["invalid", "deep", "huge-int"],
)
def test_loads_matrix_rejects_malformed(text):
    with pytest.raises(InvalidMatrixError):
        loads_matrix(text)
