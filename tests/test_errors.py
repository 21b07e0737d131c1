"""The error surface: every error type chm exports is raised by a public call.

One table ties each exported ChmError subclass to at least one public call
that raises it with that exact type, so an export that outlives its last
raise fails here. The table also pins, by message, raise sites that no
other test reaches: the pairing check, the 6x6 checks on a 4x4 CHM, the
empty matrix, the shape check of the equivalence search, the zero column,
the scan format and the empty witness.
"""

import numpy as np

import chm

F4 = np.array([[1, 1, 1, 1], [1, 1j, -1, -1j], [1, -1, 1, -1], [1, -1j, -1, 1j]])  # a 4x4 CHM
F6 = chm.named("F6").matrix
F12 = np.exp(2j * np.pi * np.outer(np.arange(12), np.arange(12)) / 12)
ZERO_PIVOT = F6.copy()
ZERO_PIVOT[0, 0] = 0
NATURAL = ((1, 2), (3, 4), (5, 6))
EMPTY_WITNESS = {"rowPerm": [], "colPerm": [], "rowPhases": [], "colPhases": []}
NOT_6X6 = "expected a 6x6 matrix, got (4, 4)"
NOT_A_PERMUTATION = "not a permutation of 1..0: ()"

# (public call, exact error type, a substring of its message)
ERROR_SURFACE = [
    (lambda: chm.as_matrix(np.empty((0, 0))), chm.InvalidMatrixError, "matrix must be non-empty"),
    (lambda: chm.mu_pair(np.zeros((6, 6)), F6), chm.InvalidMatrixError, "basis matrix has a zero column"),
    (lambda: chm.as_matrix([[1, 2]]), chm.NonSquareError, "expected a square matrix, got shape (1, 2)"),
    (lambda: chm.census_2x2(F4), chm.DimensionMismatchError, NOT_6X6),
    (lambda: chm.find_3x3_sub_chms(F4), chm.DimensionMismatchError, NOT_6X6),
    (lambda: chm.real_submatrices_3x2(F4), chm.DimensionMismatchError, NOT_6X6),
    (lambda: chm.are_equivalent(F4, F6), chm.DimensionMismatchError, "shapes differ: (4, 4) vs (6, 6)"),
    (lambda: chm.census_2x2(np.ones((6, 6))), chm.NotCHMError, "expected a CHM"),
    (lambda: chm.find_3x3_sub_chms(2 * F6), chm.NotUnimodularError, "entries not unimodular"),
    (lambda: chm.dephase(ZERO_PIVOT), chm.ZeroPivotError, "too close to zero to dephase"),
    (lambda: chm.named("H7"), chm.UnknownNameError, "unknown matrix 'H7'"),
    (lambda: chm.FamilyPoint(2.0, 0.0), chm.DomainError, "x1=2.0 outside (-pi/2, pi/2]"),
    (lambda: chm.are_equivalent(F12, F12, timeout=0), chm.SearchTimeoutError, "search timed out after 0 of"),
    (lambda: chm.H2Structure(((1, 2), (3, 4), (5, 5)), NATURAL), ValueError, "not a perfect pairing of 1..6"),
    (lambda: chm.ScanConfig(4, "scan.csv", fmt="xml"), ValueError, "format must be csv or json, got 'xml'"),
    (lambda: chm.EquivalenceWitness((), (), [], []), ValueError, NOT_A_PERMUTATION),
    (lambda: chm.EquivalenceWitness.from_obj(EMPTY_WITNESS), ValueError, NOT_A_PERMUTATION),
]


def test_every_exported_error_is_raised_by_a_public_call():
    raised = set()
    for call, error, message in ERROR_SURFACE:
        try:
            call()
        except (chm.ChmError, ValueError) as exc:
            assert type(exc) is error, (message, exc)
            assert message in str(exc), (message, exc)
            raised.add(error)
        else:
            raise AssertionError(f"no {error.__name__}: {message}")
    # ChmError itself is the base that callers catch; nothing raises it bare. Every
    # export is read through getattr: the lazy package's vars hold only names used so far.
    exported = {
        value
        for value in (getattr(chm, name) for name in chm.__all__)
        if isinstance(value, type) and issubclass(value, chm.ChmError) and value is not chm.ChmError
    }
    assert exported - raised == set()
