"""Mutual-unbiasedness predicates and the trio-exclusion rule engine.

Bases are taken to be the columns of the given matrices; inputs are
column-normalized internally, so a CHM, a d*Identity-scaled basis and a
plain orthonormal basis all use the same unbiasedness threshold.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .census import _h2_from_table, _residual_table, _sub_chms_3x3, forbidden_count_check
from .core import DEFAULT_TOL, Tolerance, as_matrix
from .equivalence import _count_real, _find_witness
from .errors import DimensionMismatchError, InvalidMatrixError
from .families import named


@dataclass(frozen=True)
class MuVerdict:
    """Unbiasedness verdict; max_deviation is the largest | |(F* G)_jk| - sqrt(d) |
    after rescaling both inputs to columns of norm sqrt(d)."""

    ok: bool
    max_deviation: float

    def to_obj(self) -> dict:
        return {"ok": self.ok, "maxDeviation": float(self.max_deviation)}


@dataclass(frozen=True)
class RuleHit:
    rule_id: str
    evidence: dict

    def to_obj(self) -> dict:
        return {"id": self.rule_id, "evidence": self.evidence}


@dataclass(frozen=True)
class ExclusionReport:
    """Fired exclusion/diagnostic rules, each with machine-checkable evidence."""

    rules_fired: tuple[RuleHit, ...]

    def to_obj(self) -> dict:
        return {"rules": [hit.to_obj() for hit in self.rules_fired]}


def _unit_columns(M) -> np.ndarray:
    norms = np.linalg.norm(M, axis=0)
    if norms.min() <= 0.0:
        raise InvalidMatrixError("basis matrix has a zero column")
    return M / norms


def mu_pair(F, G, tol: Tolerance = DEFAULT_TOL) -> MuVerdict:
    """Check that two bases are mutually unbiased.

    After column normalization every entry of F* G must have modulus
    1/sqrt(d). The reported deviation is scaled back to the CHM
    convention (columns of norm sqrt(d)), where the target modulus is
    sqrt(d) and the pass bound is eps*sqrt(d).
    """
    return _mu_pair(as_matrix(F), as_matrix(G), tol)


def _mu_pair(F, G, tol: Tolerance) -> MuVerdict:
    # mu_pair on two validated matrices.
    if F.shape != G.shape:
        raise DimensionMismatchError(f"shapes differ: {F.shape} vs {G.shape}")
    d = F.shape[0]
    gram = _unit_columns(F).conj().T @ _unit_columns(G)
    deviation = d * float(np.abs(np.abs(gram) - 1.0 / math.sqrt(d)).max())
    return MuVerdict(ok=deviation <= tol.eps * math.sqrt(d), max_deviation=deviation)


def mu_set(matrices, tol: Tolerance = DEFAULT_TOL) -> MuVerdict:
    """Pairwise mutual unbiasedness of a collection; worst pair reported."""
    mats = [as_matrix(M) for M in matrices]
    ok = True
    worst = 0.0
    for F, G in itertools.combinations(mats, 2):
        verdict = _mu_pair(F, G, tol)
        ok = ok and verdict.ok
        worst = max(worst, verdict.max_deviation)
    return MuVerdict(ok=ok, max_deviation=worst)


def exclusion_report(H, tol: Tolerance = DEFAULT_TOL) -> ExclusionReport:
    """Evaluate the sufficient conditions excluding a 6x6 CHM from any CHM trio.

    R1: more than 22 real entries (evidence: the count).
    R2: contains a 3x3 sub-CHM (evidence: one location).
    R3: complex equivalent to D0 (evidence: the witness).
    R4: diagnostic only -- H2-reducible with a 2x2 census count that the
        block structure rules out (10..16 or 18); flags data/numeric error.

    No trio search is attempted; only these conditions are applied.
    """
    H = as_matrix(H)
    table = _residual_table(H, tol)

    hits = []

    n_real = _count_real(H, tol)
    if n_real > 22:
        hits.append(RuleHit("R1", {"count": n_real}))

    locs = _sub_chms_3x3(H, tol)
    if locs:
        hits.append(RuleHit("R2", locs[0].to_obj()))

    # H is validated by its residual table, D0 by the registry at import.
    witness = _find_witness(H, named("D0").matrix, tol)
    if witness is not None:
        hits.append(RuleHit("R3", witness.to_obj()))

    structure = _h2_from_table(table, tol.eps)
    if structure is not None:
        count = int(np.count_nonzero(table <= tol.eps))
        if not forbidden_count_check(count):
            evidence = {"count": count}
            evidence.update(structure.to_obj())
            hits.append(RuleHit("R4", evidence))

    return ExclusionReport(rules_fired=tuple(hits))
