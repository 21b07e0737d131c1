"""Parameter-grid census sweep over the two-parameter family.

Each grid point records the 2x2 sub-CHM count, the Gram residual, whether
a block pairing was found, and whether the count lands in the impossible
range for block-reducible matrices. The grid is walked lazily in row-major
order, in fixed-size chunks: each chunk is one (B, 6, 6) stack of family
matrices, checked once, with one 2x2 residual table per member from which
the count and both flags are read. A chunk is built like any single
matrix, in fresh arrays, and `write_scan` writes its rows as it finishes,
so memory stays flat at any grid.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .census import _pairings, _residual_table, forbidden_count_check
from .core import DEFAULT_TOL, Tolerance, _gram_residuals, _Prepared, json_dumps
from .families import _family_stack

CSV_HEADER = "x1,x2,N,gram_residual,h2_found,forbidden"

# Grid points per stack: larger stacks spread numpy's per-call cost over more
# points, but from ~37 points a 2x2 table (3.6 kB per point) passes 128 KiB,
# glibc's default mmap threshold, and every chunk faults its tables in again.
# Forked grid-16 scans on a 2-vCPU x86-64 box, 10 pairs against 32: 16, 24, 48
# and 64 points won 3, 5, 1 and 1 on the fastest child (7.19, 7.13, 7.83 and
# 7.88 ms, against 6.9-7.3). A fresh grid-64 scan took 47, 76, 203, 8030 and
# 8792 minor faults at 16, 24, 32, 48 and 64 points (7.5k at 40).
_CHUNK = 32


@dataclass(frozen=True)
class ScanConfig:
    """A grid sweep: grid_n points per axis, written to out_path as csv or json."""

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


# One scan row: its fields are the CSV columns, in order.
CensusRecord = namedtuple("CensusRecord", "x1 x2 n gram_residual h2_found forbidden")


def grid_values(grid_n: int) -> list[float]:
    """Samples -pi/2 + k*pi/grid_n for k = 1..grid_n (the half-open domain)."""
    return [-math.pi / 2 + k * math.pi / grid_n for k in range(1, grid_n + 1)]


def _census_columns(x1s, x2s, eps: float) -> tuple[list, list, list, list]:
    # Counts, Gram residuals, H2 flags and forbidden flags of the points
    # (x1s[m], x2s[m]), from one stack checked like a single matrix.
    P = _Prepared(_family_stack(x1s, x2s))
    hit = _residual_table(P, Tolerance(eps)) <= eps
    counts = np.count_nonzero(hit, axis=(1, 2)).tolist()
    forbidden = [not forbidden_count_check(n) for n in counts]
    return counts, P.cached(_gram_residuals).tolist(), [p is not None for p in _pairings(hit)], forbidden


def scan_point(x1: float, x2: float, eps: float = DEFAULT_TOL.eps) -> CensusRecord:
    """Census record for one family point."""
    return CensusRecord(x1, x2, *(column[0] for column in _census_columns([x1], [x2], eps)))


def _chunks(config: ScanConfig):
    # The grid in row-major (k1, k2) order, _CHUNK points at a time, walked
    # lazily; each chunk as columns (x1s, x2s, counts, Gram residuals, H2
    # flags, forbidden flags).
    xs = grid_values(config.grid_n)
    points = itertools.product(xs, xs)
    while chunk := list(itertools.islice(points, _CHUNK)):
        x1s, x2s = zip(*chunk)
        yield (x1s, x2s, *_census_columns(x1s, x2s, config.tol.eps))


def _sweep(config: ScanConfig, emit) -> dict:
    # Hands each chunk's columns to emit as it finishes; returns the summary.
    points = forbidden = 0
    low, high = math.inf, -math.inf
    for columns in _chunks(config):
        emit(columns)
        counts = columns[2]
        points += len(counts)
        low, high = min(low, *counts), max(high, *counts)
        forbidden += sum(columns[5])
    return {"points": points, "minN": low, "maxN": high, "forbiddenCount": forbidden}


def run_scan(config: ScanConfig) -> tuple[list[CensusRecord], dict]:
    """All grid records in row-major (k1, k2) order, plus the summary."""
    records = []
    summary = _sweep(config, lambda columns: records.extend(map(CensusRecord._make, zip(*columns))))
    return records, summary


def _float_text(x: float, fmt: str) -> str:
    # x as the output prints it: 12 significant digits; in JSON, the form
    # json_dumps gives the rounded float.
    text = f"{x:.12g}"
    return text if fmt == "csv" else json.dumps(float(text))


_BOOL_TEXT = {False: "false", True: "true"}

_JSON_RECORD = """    {{
      "x1": {},
      "x2": {},
      "N": {},
      "gramResidual": {},
      "h2Found": {},
      "forbidden": {}
    }}"""


class _Writer:
    """Writes a scan file a batch of rows at a time: the CSV header and lines,
    or the text json_dumps gives {"records": [...], "summary": ...}. A row is
    (x1, x2, N, gram_residual, h2_found, forbidden); axis_text(x) is the text
    of a grid value (see _float_text)."""

    def __init__(self, fh, fmt: str, axis_text):
        self.fh, self.fmt, self.axis_text = fh, fmt, axis_text
        self.sep = "\n"  # before the next JSON record: the first follows the "[" line
        fh.write(CSV_HEADER + "\n" if fmt == "csv" else '{\n  "records": [')

    def rows(self, rows) -> None:
        text = self.axis_text
        if self.fmt == "csv":
            self.fh.write("".join(
                f"{text(x1)},{text(x2)},{n},{g:.12g},{_BOOL_TEXT[h]},{_BOOL_TEXT[f]}\n"
                for x1, x2, n, g, h, f in rows
            ))
            return
        records = ",\n".join(
            _JSON_RECORD.format(text(x1), text(x2), n, _float_text(g, "json"), _BOOL_TEXT[h], _BOOL_TEXT[f])
            for x1, x2, n, g, h, f in rows
        )
        if records:
            self.fh.write(self.sep + records)
            self.sep = ",\n"

    def end(self, summary: dict) -> None:
        if self.fmt == "json":
            close = "]" if self.sep == "\n" else "\n  ]"  # json.dumps writes no records as []
            self.fh.write(close + ',\n  "summary": ' + json_dumps(summary).replace("\n", "\n  ") + "\n}\n")


def _open(config: ScanConfig):
    return open(config.out_path, "w", encoding="utf-8", newline="\n")


def write_scan(config: ScanConfig) -> dict:
    """Run the sweep and write its output file as each chunk finishes; the summary.

    The file is opened (created or truncated) before the first grid point, so
    an unwritable path raises OSError at once. A sweep that fails leaves it
    empty. Bytes equal those of write_records(*run_scan(config), config).
    """
    texts = {x: _float_text(x, config.fmt) for x in grid_values(config.grid_n)}
    with _open(config) as fh:
        try:
            out = _Writer(fh, config.fmt, texts.__getitem__)
            summary = _sweep(config, lambda columns: out.rows(zip(*columns)))
            out.end(summary)
        except BaseException:
            fh.seek(0)
            fh.truncate()
            raise
    return summary


def write_records(records, summary, config: ScanConfig) -> None:
    """Write the scan output file (CSV rows or a JSON document), LF-terminated."""
    with _open(config) as fh:
        out = _Writer(fh, config.fmt, lambda x: _float_text(x, config.fmt))
        out.rows(records)
        out.end(summary)


def summary_line(summary: dict) -> str:
    return (
        f"points={summary['points']} minN={summary['minN']} "
        f"maxN={summary['maxN']} forbidden={summary['forbiddenCount']}"
    )
