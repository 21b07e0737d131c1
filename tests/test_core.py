import json
import math

import numpy as np
import pytest

import chm.core
from chm import (
    InvalidMatrixError,
    NonSquareError,
    Tolerance,
    apply_witness,
    as_matrix,
    family_h,
    FamilyPoint,
    gram_residual,
    is_chm,
    is_unimodular,
    loads_matrix,
    matrix_from_obj,
    matrix_to_obj,
    named,
)
from util import random_witness, rng

OMEGA = np.exp(2j * np.pi / 3)


@pytest.mark.parametrize(
    "z, ok, residual",
    [
        (1.0, True, 0.0),
        (OMEGA, True, 0.0),
        (1 + 1j, False, math.sqrt(2) - 1.0),
    ],
)
def test_is_unimodular(z, ok, residual):
    result = is_unimodular(z)
    assert result.ok is ok
    assert result.residual == pytest.approx(residual, abs=1e-15)


def test_is_unimodular_rejects_non_finite():
    with pytest.raises(InvalidMatrixError):
        is_unimodular(complex("inf"))


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


@pytest.mark.parametrize("eps", [0.0, -1e-9, 1e-3, 0.5])
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


def test_is_chm_on_a_stack_reports_the_worst_member():
    stack = np.array([named(name).matrix for name in ("M1", "F6", "D0")])
    assert is_chm(stack).ok
    stack[1, 2, 3] *= 1 + 1e-6
    check = is_chm(stack)
    assert not check.ok
    assert check.residual == max(is_chm(M).residual for M in stack)
    stack[2, 0, 0] = np.nan
    with pytest.raises(InvalidMatrixError):
        is_chm(stack)
    with pytest.raises(NonSquareError):
        is_chm(np.ones((2, 6, 5)))


@pytest.mark.parametrize("shape", [(6, 6), (3, 6, 6)])
def test_is_chm_validates_its_input_once(monkeypatch, shape):
    M = family_h(FamilyPoint(1.0, 0.5)) * np.ones(shape)
    expected = max(chm.core.unimodularity_residual(M), gram_residual(M) / 6)
    calls = []
    validate = chm.core._as_stack
    monkeypatch.setattr(chm.core, "_as_stack", lambda m: calls.append(1) or validate(m))
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
        (chm.mu_pair, ("F6", "D0")),
    ],
    ids=lambda v: getattr(v, "__name__", None) or "-".join(v),
)
def test_public_checks_validate_each_input_once(monkeypatch, check, names):
    calls = []
    validate = chm.core._as_stack
    for module in (chm, chm.core, chm.census, chm.equivalence, chm.mub, chm.scan):
        if hasattr(module, "_as_stack"):
            monkeypatch.setattr(module, "_as_stack", lambda m: calls.append(1) or validate(m))
    assert check(*(named(name).matrix for name in names)) is not None
    assert len(calls) == len(names)


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
    ],
)
def test_matrix_from_obj_rejects_malformed(obj):
    with pytest.raises(InvalidMatrixError):
        matrix_from_obj(obj)
