"""Parameter-grid census sweep over the two-parameter family.

Each grid point records the 2x2 sub-CHM count, the Gram residual, whether
a block pairing was found, and whether the count lands in the impossible
range for block-reducible matrices. Points are processed in fixed-size
chunks: each chunk is one (B, 6, 6) stack of family matrices, validated
once, with one 2x2 residual table per member from which the count and
both flags are read. Output is written in deterministic grid order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .census import _h2_hits, _residual_table, forbidden_count_check
from .core import DEFAULT_TOL, Tolerance, _gram_residuals, _Prepared
from .families import _family_stack

CSV_HEADER = "x1,x2,N,gram_residual,h2_found,forbidden"

# Grid points per stack: larger stacks spread numpy's per-call cost over
# more points, but each point adds ~21 kB of short-lived temporaries (the
# residual kernel's (B, 15, 15) complex tables take 3.6 kB each). Freed
# together at the top of the heap, they pass glibc's trim threshold (128 KiB
# unless earlier large frees raised it): the heap is handed back to the OS
# after every chunk, and the next chunk faults it in again. Measured in fresh
# processes from grid 16 to grid 64: 2.7 extra minor faults per point at 32,
# 0.06 at 12. 14 and 16 re-faulted in some process states; 12 in none.
_CHUNK = 12


@dataclass(frozen=True)
class ScanConfig:
    grid_n: int
    out_path: str | Path
    tol: Tolerance = DEFAULT_TOL
    fmt: str = "csv"

    def __post_init__(self):
        if isinstance(self.grid_n, bool) or not isinstance(self.grid_n, (int, np.integer)):
            raise ValueError(f"grid_n must be an integer, got {self.grid_n!r}")
        if self.grid_n < 2:
            raise ValueError("grid_n must be at least 2")
        if not isinstance(self.tol, Tolerance):
            raise TypeError(f"tol must be a Tolerance, got {self.tol!r}")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.fmt!r}")


@dataclass(frozen=True)
class CensusRecord:
    x1: float
    x2: float
    n: int
    gram_residual: float
    h2_found: bool
    forbidden: bool

    def to_obj(self) -> dict:
        return {
            "x1": self.x1,
            "x2": self.x2,
            "N": self.n,
            "gramResidual": self.gram_residual,
            "h2Found": self.h2_found,
            "forbidden": self.forbidden,
        }


def grid_values(grid_n: int) -> list[float]:
    """Samples -pi/2 + k*pi/grid_n for k = 1..grid_n (the half-open domain)."""
    return [-math.pi / 2 + k * math.pi / grid_n for k in range(1, grid_n + 1)]


def _scan_stack(x1s, x2s, eps: float) -> list[CensusRecord]:
    # Census records for the points (x1s[m], x2s[m]), from one stack.
    P = _Prepared(_family_stack(x1s, x2s))
    hit = _residual_table(P, Tolerance(eps)) <= eps
    counts = np.count_nonzero(hit, axis=(1, 2)).tolist()
    grams = P.cached(_gram_residuals).tolist()  # kept by the table's CHM check
    h2 = _h2_hits(hit).any(axis=1).tolist()
    return [
        CensusRecord(x1, x2, n, gram, found, not forbidden_count_check(n))
        for x1, x2, n, gram, found in zip(x1s, x2s, counts, grams, h2)
    ]


def scan_point(x1: float, x2: float, eps: float = DEFAULT_TOL.eps) -> CensusRecord:
    """Census record for one family point."""
    return _scan_stack([x1], [x2], eps)[0]


def run_scan(config: ScanConfig) -> tuple[list[CensusRecord], dict]:
    """All grid records in row-major (k1, k2) order, plus the summary."""
    xs = grid_values(config.grid_n)
    points = [(x1, x2) for x1 in xs for x2 in xs]
    records = []
    for start in range(0, len(points), _CHUNK):
        records += _scan_stack(*zip(*points[start : start + _CHUNK]), config.tol.eps)
    counts = [r.n for r in records]
    summary = {
        "points": len(records),
        "minN": min(counts),
        "maxN": max(counts),
        "forbiddenCount": sum(r.forbidden for r in records),
    }
    return records, summary


def write_records(records, summary, config: ScanConfig) -> None:
    """Write the scan output file (CSV rows or a JSON document), LF-terminated."""
    path = Path(config.out_path)
    if config.fmt == "csv":
        lines = [CSV_HEADER]
        for r in records:
            lines.append(
                f"{r.x1:.12g},{r.x2:.12g},{r.n},{r.gram_residual:.12g},"
                f"{str(r.h2_found).lower()},{str(r.forbidden).lower()}"
            )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    else:
        from .core import json_dumps

        doc = {"records": [r.to_obj() for r in records], "summary": summary}
        path.write_text(json_dumps(doc) + "\n", encoding="utf-8", newline="\n")


def summary_line(summary: dict) -> str:
    return (
        f"points={summary['points']} minN={summary['minN']} "
        f"maxN={summary['maxN']} forbidden={summary['forbiddenCount']}"
    )
