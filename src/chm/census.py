"""Sub-CHM censuses: 2x2 and 3x3 submatrix enumeration, block pairings.

A 2x2 submatrix [a b; c d] with unimodular entries is proportional to a
Hadamard matrix exactly when a*d + b*c = 0. The 6x6 censuses enumerate
all C(6,2)^2 = 225 and C(6,3)^2 = 400 submatrices in lexicographic order
(row sets outer, column sets inner), which fixes the reported ordering.
Locations are read from tables built once at import, in that order; the
3x3 census sums the entrywise row-pair products over each column triple.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, CheckResult, Tolerance, _chm_check, as_matrix
from .errors import (
    DimensionMismatchError,
    NotCHMError,
    NotUnimodularError,
    OracleDisagreementError,
)

_PAIRS = list(itertools.combinations(range(6), 2))  # 15 index pairs
_TRIPLES = list(itertools.combinations(range(6), 3))  # 20 index triples

_P = np.array(_PAIRS)
_R1, _R2 = _P.T
_T = np.array(_TRIPLES)

# 1-based index tuples, as reported in locations and pairings.
_PAIRS_1 = [(i + 1, j + 1) for i, j in _PAIRS]
_TRIPLES_1 = [tuple(i + 1 for i in t) for t in _TRIPLES]

FORBIDDEN_COUNTS = frozenset({10, 11, 12, 13, 14, 15, 16, 18})


# The 15 ways to split 0..5 into three pairs, in lexicographic order: as
# residual-table pair indices, as pairs, and as 1-based pairs.
_PAIRING_PAIRS = np.array(
    [t for t in itertools.combinations(range(15), 3) if len(set(_P[list(t)].flat)) == 6]
)
_PAIRINGS = [tuple(_PAIRS[k] for k in t) for t in _PAIRING_PAIRS]
_PAIRINGS_1 = [tuple((i + 1, j + 1) for i, j in pairing) for pairing in _PAIRINGS]


@dataclass(frozen=True)
class SubmatrixLoc:
    """Sorted 1-based row and column index sets naming a submatrix."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self):
        for idx in (self.rows, self.cols):
            ints = bool(idx) and all(type(i) is int for i in idx)  # no bools, no floats
            if not ints or list(idx) != sorted(set(idx)) or idx[0] < 1 or idx[-1] > 6:
                raise ValueError(f"indices must be strictly increasing ints within 1..6: {idx}")

    def to_obj(self) -> dict:
        return {"rows": list(self.rows), "cols": list(self.cols)}


# Every census location, row sets outer and column sets inner, so that flat
# index 15 * p + q (2x2) or 20 * r + c (3x3) of a hit table names its location.
_LOCS_2X2 = tuple(SubmatrixLoc(rows=r, cols=c) for r in _PAIRS_1 for c in _PAIRS_1)
_LOCS_3X3 = tuple(SubmatrixLoc(rows=r, cols=c) for r in _TRIPLES_1 for c in _TRIPLES_1)


@dataclass(frozen=True)
class CensusResult:
    count: int
    locations: tuple[SubmatrixLoc, ...]

    def __post_init__(self):
        if self.count != len(self.locations):
            raise ValueError("count must equal the number of locations")

    def to_obj(self) -> dict:
        return {"count": self.count, "locations": [loc.to_obj() for loc in self.locations]}


@dataclass(frozen=True)
class H2Structure:
    """Row and column pairings (1-based) under which all nine blocks are sub-CHMs."""

    row_pairing: tuple[tuple[int, int], ...]
    col_pairing: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for pairing in (self.row_pairing, self.col_pairing):
            seen = [i for pair in pairing for i in pair]
            if sorted(seen) != [1, 2, 3, 4, 5, 6]:
                raise ValueError(f"not a perfect pairing of 1..6: {pairing}")

    def to_obj(self) -> dict:
        return {
            "rowPairing": [list(p) for p in self.row_pairing],
            "colPairing": [list(p) for p in self.col_pairing],
        }


def is_sub_chm_2x2(a, b, c, d, tol: Tolerance = DEFAULT_TOL) -> CheckResult:
    """Check whether [a b; c d] with unimodular entries is a scaled 2x2 CHM.

    Primary predicate: |a*d + b*c| <= eps. The equivalent row-orthogonality
    form |a*conj(c) + b*conj(d)| is computed as a cross-check; on unimodular
    inputs the two residuals agree exactly, so disagreement beyond 10*eps
    signals corrupted input or a numeric fault.
    """
    vals = []
    for v in (a, b, c, d):
        v = complex(v)
        if abs(abs(v) - 1.0) > tol.eps:
            raise NotUnimodularError(f"entry {v!r} is not unimodular")
        vals.append(v)
    a, b, c, d = vals
    residual = abs(a * d + b * c)
    alt = abs(a * c.conjugate() + b * d.conjugate())
    if abs(residual - alt) > 10 * tol.eps:
        raise OracleDisagreementError(
            f"2x2 predicates disagree: {residual:.3g} vs {alt:.3g}"
        )
    return CheckResult(residual <= tol.eps, residual)


def _residual_table(M, tol: Tolerance) -> np.ndarray:
    """(B, 15, 15) 2x2 residuals |ad + bc| of a (B, 6, 6) stack of CHMs.

    Entry [m, p, q] belongs to member m, row pair p and column pair q. Every
    2x2 check reads these tables. The caller passes a finite complex stack
    (one matrix is a stack of one); the table checks the rest: every member
    is a 6x6 CHM, and |a conj(c) + b conj(d)| agrees within 10*eps on all 225
    submatrices of every member.
    """
    S = M.reshape(-1, *M.shape[-2:])
    if S.shape[-2:] != (6, 6):
        raise DimensionMismatchError(f"expected a 6x6 matrix, got {S.shape[-2:]}")
    check = _chm_check(S, tol)
    if not check.ok:
        raise NotCHMError(f"expected a CHM (residual {check.residual:.3g})")
    a = S[:, _R1[:, None], _R1[None, :]]
    b = S[:, _R1[:, None], _R2[None, :]]
    c = S[:, _R2[:, None], _R1[None, :]]
    d = S[:, _R2[:, None], _R2[None, :]]
    residual = np.abs(a * d + b * c)
    alt = np.abs(a * np.conj(c) + b * np.conj(d))
    worst = float(np.abs(residual - alt).max())
    if worst > 10 * tol.eps:
        raise OracleDisagreementError(f"2x2 predicates disagree by {worst:.3g}")
    return residual


def census_2x2(M, tol: Tolerance = DEFAULT_TOL) -> CensusResult:
    """Count and locate the 2x2 sub-CHMs among the 225 submatrices of a 6x6 CHM."""
    hits = np.flatnonzero(_residual_table(as_matrix(M), tol)[0] <= tol.eps)
    return CensusResult(count=len(hits), locations=tuple(_LOCS_2X2[k] for k in hits))


def find_3x3_sub_chms(M, tol: Tolerance = DEFAULT_TOL) -> list[SubmatrixLoc]:
    """Locate 3x3 submatrices with pairwise orthogonal rows among the 400 choices.

    Each of the three row inner products, a sum over the column triple of
    the entrywise row-pair products x * conj(y), must have modulus <= 3*eps
    (three unimodular terms). Such a submatrix is itself a 3x3 CHM.
    """
    M = as_matrix(M)
    if M.shape != (6, 6):
        raise DimensionMismatchError(f"expected a 6x6 matrix, got {M.shape}")
    return _sub_chms_3x3(M, tol)


def _sub_chms_3x3(M, tol: Tolerance) -> list[SubmatrixLoc]:
    # find_3x3_sub_chms on a validated 6x6 matrix.
    X = M[_T]  # [row triple, row, column]
    u = X[:, [0, 0, 1]] * X[:, [1, 2, 2]].conj()  # [row triple, row pair, column]
    worst = np.abs(u[..., _T].sum(-1)).max(axis=1)  # [row triple, column triple]
    return [_LOCS_3X3[k] for k in np.flatnonzero(worst <= 3 * tol.eps)]


def _h2_hits(hit) -> np.ndarray:
    # From a (B, 15, 15) stack of 2x2 sub-CHM flags (residual <= eps):
    # [member, 15 * row pairing + column pairing] has all nine blocks hit.
    rows_hit = hit[:, _PAIRING_PAIRS].all(axis=2)  # [member, row pairing, column pair]
    return rows_hit[:, :, _PAIRING_PAIRS].all(axis=3).reshape(len(hit), -1)


def _h2_from_table(table, eps: float):
    # First pairing combination, in (row pairing, column pairing) order,
    # whose nine blocks are all hits in a one-member residual table.
    found = np.flatnonzero(_h2_hits(table <= eps)[0])
    if found.size == 0:
        return None
    rp, cp = divmod(int(found[0]), len(_PAIRINGS))
    return H2Structure(row_pairing=_PAIRINGS_1[rp], col_pairing=_PAIRINGS_1[cp])


def h2_block_structure(M, tol: Tolerance = DEFAULT_TOL):
    """First (lexicographically smallest) row/column pairing making all nine
    2x2 blocks sub-CHMs, or None if the matrix is not H2-reducible.

    Searches all 15 x 15 pairing combinations.
    """
    return _h2_from_table(_residual_table(as_matrix(M), tol), tol.eps)


def forbidden_count_check(n: int) -> bool:
    """True iff a 2x2 sub-CHM count is admissible for an H2-reducible matrix.

    Counts 10..16 and 18 cannot occur; a False here is a data-integrity
    alarm for the caller, which knows whether the H2 hypothesis holds.
    """
    if n < 0:
        raise ValueError("count must be nonnegative")
    return n not in FORBIDDEN_COUNTS
