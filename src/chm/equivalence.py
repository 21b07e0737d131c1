"""Dephased canonical form, complex-equivalence search, real-entry structure.

Two matrices A, B are complex equivalent when A = Pr Dr B Dc Pc for
permutation matrices P and unimodular diagonal matrices D. Dephasing
(normalizing the first row and column to ones) absorbs the diagonal
factors, so the search only has to enumerate permutation pairs of B and
compare dephased forms.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .census import _P, _PAIRS_1, _T, _TRIPLES_1
from .core import DEFAULT_TOL, Tolerance, as_matrix, is_chm
from .errors import (
    ChmError,
    DimensionMismatchError,
    NotCHMError,
    SearchTimeoutError,
    ZeroPivotError,
)

# Floor of the pivot screen's bound; the bound is max(_PREFILTER_ATOL, 2*eps).
# A pivot whose witness passes the final eps check has dephased entries within
# eps*(1 + O(eps)) of A's, and sorting is 1-Lipschitz, so the screen never
# rejects a witness that check would accept.
_PREFILTER_ATOL = 1e-7


@dataclass(frozen=True, eq=False)
class EquivalenceWitness:
    """Permutations (1-based) and unimodular phases realizing Pr Dr B Dc Pc.

    row_phases[m] / col_phases[m] scale row/column m of the matrix the
    witness is applied to, before the permutations relabel indices.
    """

    row_perm: tuple[int, ...]
    col_perm: tuple[int, ...]
    row_phases: np.ndarray
    col_phases: np.ndarray

    def __post_init__(self):
        d = len(self.row_perm)
        for perm in (self.row_perm, self.col_perm):
            if sorted(perm) != list(range(1, d + 1)):
                raise ValueError(f"not a permutation of 1..{d}: {perm}")
        if len(self.row_phases) != d or len(self.col_phases) != d:
            raise DimensionMismatchError("phase vectors must have length d")

    def to_obj(self) -> dict:
        return {
            "rowPerm": list(self.row_perm),
            "colPerm": list(self.col_perm),
            "rowPhases": [{"re": float(z.real), "im": float(z.imag)} for z in self.row_phases],
            "colPhases": [{"re": float(z.real), "im": float(z.imag)} for z in self.col_phases],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "EquivalenceWitness":
        return cls(
            row_perm=tuple(obj["rowPerm"]),
            col_perm=tuple(obj["colPerm"]),
            row_phases=np.array([complex(e["re"], e["im"]) for e in obj["rowPhases"]]),
            col_phases=np.array([complex(e["re"], e["im"]) for e in obj["colPhases"]]),
        )


@dataclass(frozen=True)
class RealSubmatrixReport:
    """A fully real 3x2 submatrix (1-based indices) and its rank over the reals."""

    rows: tuple[int, int, int]
    cols: tuple[int, int]
    rank: int


def dephase(M, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Equivalent matrix whose first row and first column are all ones.

    Entry (j,k) becomes M_jk * M_11 / (M_j1 * M_1k). Requires every
    first-row and first-column entry to have modulus at least eps.
    """
    M = as_matrix(M)
    col0 = M[:, 0]
    row0 = M[0, :]
    if min(np.abs(col0).min(), np.abs(row0).min()) < tol.eps:
        raise ZeroPivotError("first row/column entry too close to zero to dephase")
    return M * (M[0, 0] / (col0[:, None] * row0[None, :]))


def apply_witness(M, witness: EquivalenceWitness) -> np.ndarray:
    """Apply Pr Dr M Dc Pc; preserves unimodular entries."""
    M = as_matrix(M)
    d = M.shape[0]
    if len(witness.row_perm) != d:
        raise DimensionMismatchError(
            f"witness is for dimension {len(witness.row_perm)}, matrix has {d}"
        )
    rp = np.asarray(witness.row_perm) - 1
    cp = np.asarray(witness.col_perm) - 1
    phased = witness.row_phases[:, None] * M * witness.col_phases[None, :]
    return phased[np.ix_(rp, cp)]


def count_real_entries(M, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of entries whose imaginary part is within eps of zero."""
    M = as_matrix(M)
    return int((np.abs(M.imag) <= tol.eps).sum())


def real_submatrices_3x2(M, tol: Tolerance = DEFAULT_TOL) -> list[RealSubmatrixReport]:
    """All fully real 3x2 submatrices of a 6x6 matrix, with their real rank.

    Enumerates the 300 row-triple/column-pair choices in lexicographic
    order. Rank is decided by 2x2 minors: any minor with |value| > eps
    certifies rank two, otherwise the columns are proportional (rank one).
    """
    M = as_matrix(M)
    if M.shape != (6, 6):
        raise DimensionMismatchError(f"expected a 6x6 matrix, got {M.shape}")
    S = M[_T[:, None, :, None], _P[None, :, None, :]]  # [row triple, col pair, i, j]
    real = (np.abs(S.imag) <= tol.eps).all(axis=(2, 3))
    top, bottom = S.real[..., [0, 0, 1], :], S.real[..., [1, 2, 2], :]  # the three row pairs
    minors = top[..., 0] * bottom[..., 1] - top[..., 1] * bottom[..., 0]
    rank = 1 + (np.abs(minors) > tol.eps).any(axis=-1)
    return [
        RealSubmatrixReport(rows=_TRIPLES_1[r], cols=_PAIRS_1[c], rank=int(rank[r, c]))
        for r, c in zip(*np.nonzero(real))
    ]


def _signature(M) -> np.ndarray:
    # Sorted multisets of entry distances to 1 and to i, shape (..., 2, d*d)
    # for a (..., d, d) stack. Together these pin down the multiset of entry
    # phases, are invariant under row/column permutation of a dephased form,
    # and (unlike raw angles) have no branch cut at phase +-pi, so fp jitter
    # cannot flip a bucket.
    flat = M.reshape(*M.shape[:-2], 1, -1)
    return np.sort(np.abs(flat - np.array([[1.0], [1.0j]])), axis=-1)


def _build_witness(A, B, sigma, tau, eps) -> EquivalenceWitness:
    d = len(sigma)
    Bp = B[np.ix_(sigma, tau)]
    rho = A[:, 0] / Bp[:, 0]
    gamma = (A[0, :] / Bp[0, :]) / rho[0]
    row_phases = np.empty(d, dtype=np.complex128)
    col_phases = np.empty(d, dtype=np.complex128)
    row_phases[list(sigma)] = rho
    col_phases[list(tau)] = gamma
    witness = EquivalenceWitness(
        row_perm=tuple(s + 1 for s in sigma),
        col_perm=tuple(t + 1 for t in tau),
        row_phases=row_phases,
        col_phases=col_phases,
    )
    err = float(np.abs(apply_witness(B, witness) - A).max())
    if err > eps:
        raise ChmError(f"internal error: witness fails verification (residual {err:.3g})")
    return witness


def are_equivalent(A, B, tol: Tolerance = DEFAULT_TOL, timeout: float | None = None):
    """Search for a witness with apply_witness(B, W) == A entrywise within eps.

    Returns the witness with the lexicographically smallest
    (row_perm, col_perm) if the matrices are equivalent, else None.

    The search enumerates row permutations sigma of B in lexicographic
    order; for each, matching columns of the dephased forms are assigned
    directly, so the full d! x d! candidate space is never materialized.
    A pivot-signature screen first discards most pivots (s, t) of B, one
    pivot row s at a time; its bound, max(1e-7, 2*eps), never rejects a
    witness that the final eps check accepts.
    Raises SearchTimeoutError if a time budget (seconds) is given and hit;
    the budget must be None, or finite and non-negative (else ValueError).
    """
    if timeout is not None and not 0.0 <= timeout < math.inf:
        raise ValueError(f"timeout must be finite and >= 0 seconds, got {timeout!r}")
    A = as_matrix(A)
    B = as_matrix(B)
    if A.shape != B.shape:
        raise DimensionMismatchError(f"shapes differ: {A.shape} vs {B.shape}")
    for label, M in (("A", A), ("B", B)):
        check = is_chm(M, tol)
        if not check.ok:
            raise NotCHMError(f"{label} is not a CHM (residual {check.residual:.3g})")
    return _find_witness(A, B, tol, timeout)


def _find_witness(A, B, tol: Tolerance, timeout: float | None = None):
    # are_equivalent's search, for two CHMs of one shape validated at tol.
    d = A.shape[0]
    eps = tol.eps
    atol = max(_PREFILTER_ATOL, 2 * eps)

    Ad = dephase(A, tol)
    sig_a = _signature(Ad)
    allowed = []
    for s in range(d):
        # forms[t] is B dephased with row s and column t as its ones row/column.
        forms = B * (B[s, :, None, None] / (B.T[:, :, None] * B[s, None, None, :]))
        close = np.abs(_signature(forms) - sig_a).max(axis=(-2, -1)) <= atol
        allowed.append(np.flatnonzero(close).tolist())
    if not any(allowed):
        return None

    deadline = None if timeout is None else time.monotonic() + timeout
    total = math.factorial(d)
    for examined, sigma in enumerate(itertools.permutations(range(d))):
        ts = allowed[sigma[0]]
        if not ts:
            continue
        if deadline is not None and time.monotonic() > deadline:
            raise SearchTimeoutError(examined=examined, total=total)
        R = B[sigma, :]
        E = R / R[0, :]
        for t in ts:
            # tau matches when E[:, tau[k]] == Ad[:, k] * E[:, t] entrywise.
            T = Ad * E[:, t][:, None]
            ok = np.abs(E[:, None, :] - T[:, :, None]).max(axis=0) <= eps
            # CHM columns lie sqrt(2d) apart and eps < 1e-3: the matches are unique and form tau.
            if ok.any(axis=1).all():
                return _build_witness(A, B, sigma, tuple(ok.argmax(axis=1).tolist()), eps)
    return None
