"""Dephased canonical form, complex-equivalence search, real-entry structure.

Two matrices A, B are complex equivalent when A = Pr Dr B Dc Pc for
permutation matrices P and unimodular diagonal matrices D. Dephasing
(normalizing the first row and column to ones) absorbs the diagonal
factors, so the search only has to match dephased forms. A 6x6 miss is
mostly decided before that, by the sorted 2x2 residual tables. It screens
every pivot (row s, column t) of B by the sorted entries of B dephased
there, pairs the rows of each surviving form with the rows of A's by
their sorted entries, and walks only the row orders those pairs allow;
each complete order proposes the columns its form matches, for one
entrywise check of the witness fitted to that proposal.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass

import numpy as np

from .census import _P, _PAIRS_1, _T, _TRIPLES_1, _pair_residuals
from .core import DEFAULT_TOL, Tolerance, _entry_from_obj, _prepare, as_matrix
from .errors import (DimensionMismatchError, InvalidMatrixError, NotCHMError, NotUnimodularError,
                     SearchTimeoutError, ZeroPivotError)

# Floor of the bound, max(_PREFILTER_ATOL, 2*eps), of every stage before the
# final eps check: whole dephased forms per pivot, their rows per candidate
# row pairing, and their columns per complete row order. The witness fitted
# to (sigma, tau) misses A by |A_j0 A_0k / A_00| * |G - Ad| entrywise, G being
# B's form under (sigma, tau), so one within eps has |G - Ad| < 2*eps; and
# sorting is 1-Lipschitz, so no stage rejects a witness that check accepts.
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
        perms = {}
        for name in ("row_perm", "col_perm"):  # sized, of integers (Python or numpy), kept as Python ints
            perm = getattr(self, name)
            try:  # an int, None or an iterator has no len; a bool is an int to operator.index, but not an index here
                len(perm)
                perms[name] = None if bool in map(type, perm) else tuple(map(operator.index, perm))
            except TypeError:
                perms[name] = None
        d = len(perms["row_perm"] or perms["col_perm"] or ())  # the row permutation's length, else the column's
        for name, entries in perms.items():
            if entries is None or sorted(entries) != list(range(1, d + 1)):
                raise ValueError(f"not a permutation of 1..{d}: {getattr(self, name)}")
            object.__setattr__(self, name, entries)
        for name in ("row_phases", "col_phases"):  # a list or tuple of phases becomes an array
            object.__setattr__(self, name, np.asarray(getattr(self, name), np.complex128))
        if self.row_phases.shape != (d,) or self.col_phases.shape != (d,):
            raise DimensionMismatchError(f"phase vectors must have shape ({d},)")
        # The search fits phases to ratios of entries within eps < 1e-3 of modulus
        # one: after the first fit a phase is within ~4.01e-3 of the unit circle,
        # after the refit on it. 1e-2 leaves 2.5x room; NaN and inf fail the test.
        if not all(abs(abs(z) - 1.0) <= 1e-2 for z in self.row_phases.tolist() + self.col_phases.tolist()):
            raise NotUnimodularError("witness phases must lie within 1e-2 of modulus one")

    def to_obj(self) -> dict:
        return {
            "rowPerm": list(self.row_perm),
            "colPerm": list(self.col_perm),
            "rowPhases": [{"re": float(z.real), "im": float(z.imag)} for z in self.row_phases],
            "colPhases": [{"re": float(z.real), "im": float(z.imag)} for z in self.col_phases],
        }

    @classmethod
    def from_obj(cls, obj) -> "EquivalenceWitness":
        """Parse to_obj's form; each phase parses like a matrix entry, and an error names it."""
        keys = ("rowPerm", "colPerm", "rowPhases", "colPhases")
        if not isinstance(obj, dict) or not all(isinstance(obj.get(key), list) for key in keys):
            raise InvalidMatrixError(f"witness object must have lists {', '.join(keys)}")
        phases = {"rowPhases": [], "colPhases": []}
        for key, parsed in phases.items():
            for n, entry in enumerate(obj[key]):
                try:
                    parsed.append(_entry_from_obj(entry))
                except InvalidMatrixError as exc:
                    raise InvalidMatrixError(f"witness {key}[{n}]: {exc}") from None
        return cls(tuple(obj["rowPerm"]), tuple(obj["colPerm"]), phases["rowPhases"], phases["colPhases"])


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
    M = _prepare(M).matrix
    if min(np.abs(M[:, 0]).min(), np.abs(M[0, :]).min()) < tol.eps:
        raise ZeroPivotError("first row/column entry too close to zero to dephase")
    return _dephased(M)


def _dephased(M) -> np.ndarray:
    # dephase's form, for a matrix whose first row and column have no zero
    # entry (dephase checks them; a CHM's entries are near modulus 1).
    return M * (M[0, 0] / (M[:, 0][:, None] * M[0, :][None, :]))


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
    return phased[rp][:, cp]


def count_real_entries(M, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of entries whose imaginary part is within eps of zero."""
    M = _prepare(M).matrix
    return int(np.count_nonzero(np.abs(M.imag) <= tol.eps))


def real_submatrices_3x2(M, tol: Tolerance = DEFAULT_TOL) -> list[RealSubmatrixReport]:
    """All fully real 3x2 submatrices of a 6x6 matrix, with their real rank.

    Enumerates the 300 row-triple/column-pair choices in lexicographic
    order from one mask of real entries, and gathers only the real blocks.
    Rank is decided by 2x2 minors: any minor with |value| > eps
    certifies rank two, otherwise the columns are proportional (rank one).
    """
    M = _prepare(M).matrix
    if M.shape != (6, 6):
        raise DimensionMismatchError(f"expected a 6x6 matrix, got {M.shape}")
    real_entries = np.abs(M.imag) <= tol.eps
    if np.count_nonzero(real_entries.sum(axis=1) >= 2) < 3:  # a real block needs three such rows
        return []
    real = real_entries[:, _P].all(axis=2)  # [row, col pair]
    r, c = np.nonzero(real[_T].all(axis=1))  # [row triple, col pair] blocks
    S = M.real[_T[r, :, None], _P[c, None, :]]  # [hit, i, j]
    top, bottom = S[:, [0, 0, 1], :], S[:, [1, 2, 2], :]  # the three row pairs
    minors = top[..., 0] * bottom[..., 1] - top[..., 1] * bottom[..., 0]
    rank = 1 + (np.abs(minors) > tol.eps).any(axis=-1)
    return [
        RealSubmatrixReport(rows=_TRIPLES_1[i], cols=_PAIRS_1[j], rank=k)
        for i, j, k in zip(r.tolist(), c.tolist(), rank.tolist())
    ]


def _signature(M) -> np.ndarray:
    # Sorted real and sorted imaginary parts of the entries, (..., 2, d*d) for a
    # (..., d, d) stack; for unimodular entries they fix the sorted distances to 1, i.
    # Permutation invariant, with no branch cut, and 1-Lipschitz in the entries.
    flat = M.reshape(*M.shape[:-2], 1, -1)
    parts = np.concatenate((flat.real, flat.imag), axis=-2)
    parts.sort(axis=-1)
    return parts


def _build_witness(A, B, sigma, tau, eps) -> EquivalenceWitness | None:
    # The witness whose phases fit R = A / B[sigma, tau] entrywise, if within eps
    # of A: first fitted to R's first row and column; if that misses, refitted
    # to all of R by three rounds of rank-1 phase averaging (the column phases
    # from every row, then the row phases from every column).
    Bp = B.take(sigma, 0).take(tau, 1)
    R = A / Bp
    rho = R[:, 0]
    gamma = R[0, :] / rho[0]
    if np.abs(rho[:, None] * Bp * gamma[None, :] - A).max() > eps:
        for _ in range(3):
            gamma = R.T @ rho.conj()
            gamma /= np.abs(gamma)
            rho = R @ gamma.conj()
            rho /= np.abs(rho)
        if np.abs(rho[:, None] * Bp * gamma[None, :] - A).max() > eps:
            return None
    row_phases, col_phases = np.empty_like(rho), np.empty_like(gamma)
    row_phases[list(sigma)], col_phases[list(tau)] = rho, gamma  # row_phases[sigma[j]] = rho[j]
    return EquivalenceWitness(tuple(j + 1 for j in sigma), tuple(k + 1 for k in tau), row_phases, col_phases)


def are_equivalent(A, B, tol: Tolerance = DEFAULT_TOL, timeout: float | None = None):
    """Search for a witness with apply_witness(B, W) == A entrywise within eps.

    Returns the witness with the lexicographically smallest
    (row_perm, col_perm) if the matrices are equivalent, else None.

    For d = 6, sorted 2x2 residual tables (kept per input) that differ by
    more than max(1e-7, 17*eps) prove a miss before any dephasing. Else a
    screen dephases B at every pivot (s, t), a block of pivot rows per
    broadcast (for d <= 6 one block, which B keeps), and keeps the pivots
    whose sorted real and imaginary parts match A's dephased form's. Under
    a kept pivot, row j of B's form may become row k of A's only if their
    rows' sorted parts match too. Row permutations sigma with sigma[0] = s
    are walked in lexicographic order through these candidates; each
    complete sigma proposes the columns tau its form matches, so the
    d! x d! candidate space is never materialized. Every stage before the
    final check uses the bound max(1e-7, 2*eps), which never rejects a
    witness that check accepts; the only acceptance is that the witness
    reproduces A within eps entrywise. Its phases are fitted to A's first
    row and column, and, when that fit misses, refitted to every entry.
    Raises SearchTimeoutError if a time budget (seconds) is given and hit.
    The budget is read before each screen block, each pivot row's row
    matches and each node of the walk; `examined` is the lexicographic rank
    of the sigma reached. The budget must be None, or finite and
    non-negative (else ValueError).
    """
    if timeout is not None and not 0.0 <= timeout < math.inf:
        raise ValueError(f"timeout must be finite and >= 0 seconds, got {timeout!r}")
    PA, PB = _prepare(A), _prepare(B)
    A, B = PA.matrix, PB.matrix
    if A.shape != B.shape:
        raise DimensionMismatchError(f"shapes differ: {A.shape} vs {B.shape}")
    for label, P in (("A", PA), ("B", PB)):
        residual = P.chm_residual()
        if residual > tol.eps:
            raise NotCHMError(f"{label} is not a CHM (residual {residual:.3g})")

    d = A.shape[0]
    eps = tol.eps
    if d == 6:  # a miss decided here is returned before the time budget is read
        ta, tb = (P.cached(_sorted_table, _pair_residuals) for P in (PA, PB))
        if np.abs(ta - tb).max() > max(_PREFILTER_ATOL, 17 * eps):
            return None
    atol = max(_PREFILTER_ATOL, 2 * eps)
    deadline = None if timeout is None else time.monotonic() + timeout

    Ad, sig_a, rows_a = PA.cached(_a_side)
    block = max(1, 1296 // d**3)  # pivot rows per screen; F holds <= max(1296, d**3) entries
    # B keeps its screen, row signatures included, when one block holds every
    # pivot row (d**4 <= 1296); else it is screened a block at a time, keeping nothing.
    for s0 in range(0, d, block):
        _check_deadline(deadline, (s0,), d)
        F, sig_f, rows_f = PB.cached(_screen) if block >= d else _screen(B, slice(s0, s0 + block))
        close = np.abs(sig_f - sig_a).max(axis=(-2, -1)) <= atol
        for i in close.any(axis=1).nonzero()[0].tolist():
            _check_deadline(deadline, (s0 + i,), d)
            ts = close[i].nonzero()[0].tolist()
            # match[n, j, k]: under pivot (s0 + i, ts[n]), row j of the form may be
            # row k of Ad. Built `block` pivots at a time to bound memory as F is.
            forms, rows = F[i].take(ts, 0), rows_f[i].take(ts, 0)
            match = np.concatenate([
                np.abs(rows[c : c + block, :, None] - rows_a).max(axis=(-2, -1)) <= atol
                for c in range(0, len(ts), block)
            ])
            for sigma, tau in _walk(forms, Ad, s0 + i, match, atol, deadline):
                witness = _build_witness(A, B, sigma, tau, eps)
                if witness is not None:
                    return witness
    return None


def _sorted_table(M, pair_residuals) -> np.ndarray:
    # Sorted 2x2 residuals |ad + bc| of a 6x6 CHM. A witness is accepted only if
    # U = rho B[sigma, tau] gamma is within eps of A. As |A|, |B| are within eps
    # of 1, |rho_j gamma_k| is within 3*eps/(1 - eps) of 1; rescaling the phases
    # to modulus one gives an image U' of B, with B's residuals permuted, and
    # |A - U'| <= delta = eps + 3*eps*(1 + eps)/(1 - eps) < 4.01*eps (eps < 1e-3).
    # Each residual of A (two products of entries within delta) is then within
    # 4*delta*(1 + eps) < 16.1*eps of U''s, and sorting is 1-Lipschitz in the max
    # norm: a gap over 17*eps (the rest covers rounding) proves a miss.
    return np.sort(pair_residuals, axis=None)


def _a_side(A):
    # A's dephased form, its signature and its row signatures.
    Ad = _dephased(A)
    return Ad, _signature(Ad), _signature(Ad[:, None, :])


def _screen(B, S=slice(None)):
    # F[i, t] is B dephased with row S[i] and column t as its ones row/column,
    # with the signature of each form and of each of its rows.
    F = B * (B[S, :, None, None] / (B.T[:, :, None] * B[S, None, None, :]))
    return F, _signature(F), _signature(F[..., None, :])


def _check_deadline(deadline, sigma, d):
    # Past the deadline (if any), raises SearchTimeoutError; its `examined` is the
    # lexicographic rank of the smallest completion of the row prefix sigma,
    # from its Lehmer code.
    if deadline is not None and time.monotonic() > deadline:
        rank = sum((j - sum(p < j for p in sigma[:k])) * math.factorial(d - 1 - k)
                   for k, j in enumerate(sigma))
        raise SearchTimeoutError(examined=rank, total=math.factorial(d))


def _walk(forms, Ad, s, match, atol, deadline):
    # Yields in lexicographic order each (sigma, tau), sigma[0] = s, under which a
    # form (B dephased at pivot (s, tau[0])) matches Ad within atol. Each node holds the
    # forms its rows all match as one int; bit n of cand[k][j]: row j of form n may be row k.
    d, q = len(Ad), min(1, len(Ad) - 1)  # q: the first row that tells columns apart (row 0 is all ones)
    cand, *high = np.packbits(match, axis=0, bitorder="little").transpose(0, 2, 1).tolist()  # byte b: forms 8b..
    for b, byte in enumerate(high, 1):
        cand = [[x | y << 8 * b for x, y in zip(row, more)] for row, more in zip(cand, byte)]
    forms, (first, *a_cols) = forms.tolist(), Ad.T.tolist()
    a_cols.append(first)  # last, as every form's pivot column matches it: a failing leaf fails sooner
    stack = [((s,), cand[0][s])]
    while stack:
        sigma, live = stack.pop()
        _check_deadline(deadline, sigma, d)
        k = len(sigma)
        if k < d:  # children pushed largest row first, so the smallest is walked first
            row = cand[k]
            stack += [(sigma + (j,), m) for j in reversed(range(d)) if (m := live & row[j]) and j not in sigma]
            continue
        while live:  # the forms in ascending n
            n = (live & -live).bit_length() - 1
            live &= live - 1
            # tau[k]: the first column of form n, rows in sigma order, within atol of Ad's column k,
            # screened on rows q and d-1. CHM columns lie sqrt(2d) apart and atol < 2e-3: unique matches.
            cols, tau = list(zip(*map(forms[n].__getitem__, sigma))), []
            for a in a_cols:
                for c, g in enumerate(cols):
                    if (abs(g[q] - a[q]) <= atol and abs(g[-1] - a[-1]) <= atol
                            and max(map(abs, map(operator.sub, g, a))) <= atol):
                        tau.append(c)
                        break
                else:
                    break
            else:
                yield sigma, tuple(tau[-1:] + tau[:-1])
