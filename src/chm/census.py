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

from .core import DEFAULT_TOL, CheckResult, Tolerance, _prepare, _Prepared, _unimodularity
from .errors import DimensionMismatchError, InvalidMatrixError, NotCHMError, NotUnimodularError

_PAIRS = list(itertools.combinations(range(6), 2))  # 15 index pairs
_TRIPLES = list(itertools.combinations(range(6), 3))  # 20 index triples

_P = np.array(_PAIRS)
_R1, _R2 = _P.T
# [row pair, column pair]: the flat 6x6 indices of entries a, b (row r1) and c, d (row r2).
_A, _B, _C, _D = (6 * r[:, None] + c for r in (_R1, _R2) for c in (_R1, _R2))
_T = np.array(_TRIPLES)
_T0, _T1, _T2 = _T.T.copy()  # each triple's first, second and third index
# [row triple, 3]: the pair indices of its row pairs (a, b), (a, c), (b, c).
_TRIPLE_PAIRS = np.array([[_PAIRS.index(p) for p in itertools.combinations(t, 2)] for t in _TRIPLES])

# 1-based index tuples, as reported in locations and pairings.
_PAIRS_1 = [(i + 1, j + 1) for i, j in _PAIRS]
_TRIPLES_1 = [tuple(i + 1 for i in t) for t in _TRIPLES]

FORBIDDEN_COUNTS = frozenset({10, 11, 12, 13, 14, 15, 16, 18})


# The 15 ways to split 0..5 into three pairs, in lexicographic order: as
# residual-table pair indices, as 1-based pairs, and as bit masks of pair indices.
_PAIRING_INDEX = [t for t in itertools.combinations(range(15), 3) if len({i for k in t for i in _PAIRS[k]}) == 6]
_PAIRINGS_1 = [tuple(_PAIRS_1[k] for k in t) for t in _PAIRING_INDEX]
_BITS = 1 << np.arange(15)  # pair index q as bit q of a mask
_PAIRING_MASKS = [sum(1 << k for k in t) for t in _PAIRING_INDEX]


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

    Predicate: |a*d + b*c| <= eps, for entries within eps of modulus one
    (else NotUnimodularError). The row-orthogonality form
    |a*conj(c) + b*conj(d)| is not computed: on such entries it lies within
    4(1+eps)^2(2+eps)*eps < 8.03*eps of the residual (see _residual_table).
    """
    try:
        a, b, c, d = vals = [complex(v) for v in (a, b, c, d)]
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidMatrixError(f"2x2 entries must be complex numbers: {exc}") from exc
    for v in vals:
        if not abs(abs(v) - 1.0) <= tol.eps:  # NaN fails this test too
            raise NotUnimodularError(f"entry {v!r} is not unimodular")
    residual = abs(a * d + b * c)
    return CheckResult(residual <= tol.eps, residual)


def _residual_table(P: _Prepared, tol: Tolerance) -> np.ndarray:
    """(B, 15, 15) 2x2 residuals |ad + bc| of a prepared 6x6 matrix or (B, 6, 6) stack.

    Entry [m, p, q] belongs to member m, row pair p and column pair q (one
    matrix is a stack of one). Every 2x2 check reads these tables, and P
    keeps its CHM residual and table for every later call. The table checks
    that every member is a 6x6 CHM.
    """
    shape = P.matrix.shape[-2:]
    if shape != (6, 6):
        raise DimensionMismatchError(f"expected a 6x6 matrix, got {shape}")
    check = P.chm_residual()
    if check > tol.eps:
        raise NotCHMError(f"expected a CHM (residual {check:.3g})")
    # No cross-check against W = |a conj(c) + b conj(d)|: the check puts every entry
    # within u <= eps of modulus one, and then |ad + bc| is within 4(1+u)^2(2+u)u < 8.03u
    # of W (u < 1e-3), plus rounding. With Y = cd (a conj(c) + b conj(d)) = ad|c|^2 + bc|d|^2,
    # |ad + bc - Y| <= 2(1+u)^2 u(2+u) and | |Y| - W | = W | |c||d| - 1 | <= 2(1+u)^2 u(2+u).
    return P.cached(_pair_residuals)


def _pair_residuals(M) -> np.ndarray:
    # The (B, 15, 15) residuals |ad + bc| of a finite 6x6 matrix or (B, 6, 6) stack, from
    # four gathers of its flat entries. Each product writes in place into its first
    # operand: any other aliasing can change how numpy rounds it.
    S = M.reshape(-1, 36)
    ad = S.take(_A, 1, None, "clip")
    ad *= S.take(_D, 1, None, "clip")
    bc = S.take(_B, 1, None, "clip")
    bc *= S.take(_C, 1, None, "clip")
    ad += bc
    return np.abs(ad)


def census_2x2(M, tol: Tolerance = DEFAULT_TOL) -> CensusResult:
    """Count and locate the 2x2 sub-CHMs among the 225 submatrices of a 6x6 CHM."""
    hits = (_residual_table(_prepare(M), tol)[0] <= tol.eps).ravel().nonzero()[0]
    return CensusResult(count=len(hits), locations=tuple(_LOCS_2X2[k] for k in hits.tolist()))


def find_3x3_sub_chms(M, tol: Tolerance = DEFAULT_TOL) -> list[SubmatrixLoc]:
    """Locate 3x3 submatrices with pairwise orthogonal rows among the 400 choices.

    Entries must lie within eps of modulus one (else NotUnimodularError).
    Each row inner product of the three, a sum of three unimodular terms over
    the column triple, must have modulus <= 3*eps: the submatrix is a 3x3 CHM.
    """
    P = _prepare(M)
    if P.matrix.shape != (6, 6):
        raise DimensionMismatchError(f"expected a 6x6 matrix, got {P.matrix.shape}")
    if P.cached(_unimodularity) > tol.eps:
        raise NotUnimodularError(f"entries not unimodular: off modulus one by {P.cached(_unimodularity):.3g}")
    return [_LOCS_3X3[k] for k in (P.cached(_gram_3x3) <= 3 * tol.eps).ravel().nonzero()[0].tolist()]


def _gram_3x3(M) -> np.ndarray:
    # [row triple, column triple]: the largest modulus of its three row inner products.
    Q = M.take(_R1, 0) * np.conjugate(M.take(_R2, 0))  # [row pair, column]: the products each sums
    S = Q.take(_T0, 1)  # [row pair, column triple]: (a + b) + c, the order sum(-1) adds three terms
    S += Q.take(_T1, 1)
    S += Q.take(_T2, 1)
    return np.abs(S).take(_TRIPLE_PAIRS, 0).max(axis=1)


def _pairings(hits) -> list:
    # Per member of a (B, 15, 15) table of hits (residual <= eps), the first (row
    # pairing, column pairing) index pair in lexicographic order whose nine blocks
    # are all hits, or None. Bit q of mask p is set when block (p, q) hits.
    found = []
    for masks in (hits @ _BITS).tolist():
        found.append(None)
        for rp, (a, b, c) in enumerate(_PAIRING_INDEX):
            hit = masks[a] & masks[b] & masks[c]  # the column pairs hit under all three row pairs
            for cp, m in enumerate(_PAIRING_MASKS if hit else ()):
                if hit & m == m:
                    found[-1] = rp, cp
                    break
            else:
                continue  # no column pairing: try the next row pairing
            break
    return found


def h2_block_structure(M, tol: Tolerance = DEFAULT_TOL):
    """First (lexicographically smallest) row/column pairing making all nine
    2x2 blocks sub-CHMs, or None if the matrix is not H2-reducible.

    Tries the 15 x 15 pairing combinations in lexicographic order, row
    pairing outer, and stops at the first hit.
    """
    found = _pairings(_residual_table(_prepare(M), tol) <= tol.eps)[0]
    return found and H2Structure(_PAIRINGS_1[found[0]], _PAIRINGS_1[found[1]])


def forbidden_count_check(n: int) -> bool:
    """True iff a 2x2 sub-CHM count is admissible for an H2-reducible matrix.

    Counts 10..16 and 18 cannot occur; a False here is a data-integrity
    alarm for the caller, which knows whether the H2 hypothesis holds.
    """
    if n < 0:
        raise ValueError("count must be nonnegative")
    return n not in FORBIDDEN_COUNTS
