"""Mutual-unbiasedness predicates and the trio-exclusion rule engine.

Bases are taken to be the columns of the given matrices; inputs are
column-normalized internally, so a CHM, a d*Identity-scaled basis and a
plain orthonormal basis all use the same unbiasedness threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .census import _residual_table, find_3x3_sub_chms, forbidden_count_check, h2_block_structure
from .core import DEFAULT_TOL, Tolerance, _prepare
from .equivalence import are_equivalent, count_real_entries
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
    """A fired rule and its machine-checkable evidence."""

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
    norms = np.sqrt(np.add.reduce((M.conj() * M).real, axis=0))  # numpy's column 2-norm, as its norm computes it
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
    F, G = _prepare(F), _prepare(G)
    if F.matrix.shape != G.matrix.shape:
        raise DimensionMismatchError(f"shapes differ: {F.matrix.shape} vs {G.matrix.shape}")
    d = F.matrix.shape[0]
    gram = F.cached(_unit_columns).conj().T @ G.cached(_unit_columns)
    deviation = d * float(np.abs(np.abs(gram) - 1.0 / math.sqrt(d)).max())
    return MuVerdict(ok=deviation <= tol.eps * math.sqrt(d), max_deviation=deviation)


def exclusion_report(H, tol: Tolerance = DEFAULT_TOL) -> ExclusionReport:
    """Evaluate the sufficient conditions excluding a 6x6 CHM from any CHM trio.

    R1: more than 22 real entries (evidence: the count).
    R2: contains a 3x3 sub-CHM (evidence: one location).
    R3: complex equivalent to D0 (evidence: the witness). The search first
        compares H's sorted 2x2 residuals with D0's: a gap above
        max(1e-7, 17*eps) decides a miss.
    R4: diagnostic only -- H2-reducible with a 2x2 census count that the
        block structure rules out (10..16 or 18); flags data/numeric error.
        Pairings are searched only for such a count.

    No trio search is attempted; only these conditions are applied.
    """
    P = _prepare(H)
    table = _residual_table(P, tol)

    hits = []

    n_real = count_real_entries(P, tol)
    if n_real > 22:
        hits.append(RuleHit("R1", {"count": n_real}))

    locs = find_3x3_sub_chms(P, tol)
    if locs:
        hits.append(RuleHit("R2", locs[0].to_obj()))

    witness = are_equivalent(P, named("D0").matrix, tol)  # D0 keeps its sorted table and screen
    if witness is not None:
        hits.append(RuleHit("R3", witness.to_obj()))

    count = int(np.count_nonzero(table <= tol.eps))
    structure = None if forbidden_count_check(count) else h2_block_structure(P, tol)
    if structure is not None:
        hits.append(RuleHit("R4", {"count": count, **structure.to_obj()}))

    return ExclusionReport(rules_fired=tuple(hits))
