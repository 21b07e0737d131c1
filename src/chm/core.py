"""Complex matrix primitives: Hadamard checks, prepared matrices, JSON I/O.

Matrices are numpy complex128 arrays internally. All user-facing indices
(JSON, location reports, witnesses) are 1-based, like the h_jk convention
for matrix entries; row/column 1 is the top-left.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidMatrixError, NonSquareError

DEFAULT_EPS = 1e-9

# The smallest eps whose verdicts are properties of the matrix, not of its
# rounding. With u = 2**-53 ~ 1.1e-16, an entry that is a product of up to
# five unimodular factors, each rounded within ~2u, is within ~10u of its
# exact value. A 2x2 residual |ad + bc| that is exactly zero then computes
# to at most 4 * 10u from its entries plus 2 * sqrt(5) * u from its two
# complex products: ~45u ~ 5e-15. The floor is twice that. Measured maxima:
# 1.28e-15 over 40 000 family points, 2.4e-15 on registry hits (F6). Below
# the floor a census drops exact hits while the CHM check, whose residual is
# divided by d, still passes: F6 counts 29 at eps 1e-15, not 45.
_EPS_FLOOR = 1e-14


@dataclass(frozen=True)
class Tolerance:
    """Absolute tolerance on entry moduli and orthogonality residuals."""

    eps: float = DEFAULT_EPS

    def __post_init__(self):
        if not _EPS_FLOOR <= self.eps < 1e-3:
            raise ValueError(f"eps must lie in [{_EPS_FLOOR:g}, 1e-3), got {self.eps!r}")


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class CheckResult:
    """Verdict of a tolerance check; ok iff residual <= eps of the tolerance used."""

    ok: bool
    residual: float


def as_matrix(entries) -> np.ndarray:
    """Coerce input to a square complex128 array with finite entries."""
    m = _complex_array(entries)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {m.shape}")
    if m.size == 0:
        raise InvalidMatrixError("matrix must be non-empty")
    if not np.isfinite(m).all():
        raise InvalidMatrixError("matrix entries must be finite")
    return m


def _complex_array(entries) -> np.ndarray:
    try:  # entries as a complex128 array; what numpy cannot convert is not a matrix
        return np.asarray(entries, np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidMatrixError(f"not a complex matrix: {exc}") from exc


def _unimodularity(stack: np.ndarray) -> float:
    # Largest | |entry| - 1 | over a validated stack.
    return float(np.abs(np.abs(stack) - 1.0).max())


def _gram_residuals(M: np.ndarray) -> np.ndarray:
    # Per member of a validated matrix or (B, d, d) stack: largest |(M M* - d I)_jk|.
    d = M.shape[-1]
    stack = M.reshape(-1, d, d)
    G = np.matmul(stack, np.conjugate(stack).transpose(0, 2, 1))
    G.reshape(len(G), -1)[:, :: d + 1] -= d  # the diagonal, in place: no d * I is built
    return np.abs(G).max(axis=(1, 2))


def gram_residual(M) -> float:
    """Largest deviation of M M* from d times the identity, entrywise."""
    return float(_prepare(M).cached(_gram_residuals)[0])


def is_chm(M, tol: Tolerance = DEFAULT_TOL) -> CheckResult:
    """Check that M is a complex Hadamard matrix: unimodular entries, M M* = d I.

    The Gram deviation is compared against eps*d (it sums d unimodular
    terms per entry), so the stored residual is max(entry residual,
    gram residual / d), keeping ok <=> residual <= eps.
    """
    residual = _prepare(M).chm_residual()
    return CheckResult(residual <= tol.eps, residual)


def _chm_residual(M: np.ndarray, unimodularity: float, grams: np.ndarray) -> float:
    # is_chm's residual of a validated matrix or (B, d, d) stack, given its
    # unimodularity and per-member Gram residuals: the worst member's.
    return max(unimodularity, float(grams.max()) / M.shape[-1])


# --- prepared matrices --------------------------------------------------------


class _Prepared:
    """A validated, read-only d x d matrix or (B, d, d) stack and what the checks derive from it.

    cached(build, *uses) is build(matrix, *map(cached, uses)), computed on first
    use and kept. No builder takes a tolerance: verdicts compare the kept
    numbers with the caller's eps, so one object serves every tolerance.
    """

    __slots__ = ("matrix", "_cache")

    def __init__(self, M: np.ndarray):
        if M.flags.writeable:
            M = M.view()
            M.flags.writeable = False
        self.matrix = M
        self._cache = {}

    def cached(self, build, *uses):
        if build not in self._cache:
            self._cache[build] = build(self.matrix, *map(self.cached, uses))
        return self._cache[build]

    def chm_residual(self) -> float:
        # is_chm's residual, kept with the unimodularity and Gram residuals it is built from.
        return self.cached(_chm_residual, _unimodularity, _gram_residuals)


# One prepared object per registry matrix, by the id of its read-only array,
# kept for the life of the process (the arrays live as long).
_KEPT: dict[int, _Prepared] = {}


def _prepare(M) -> _Prepared:
    """M itself if already prepared; else the kept object of a registry array, the
    recent object of M's content if M is square with d <= 6, or a fresh one. Only
    content not seen recently is validated (as_matrix): a registry array was
    validated at import, and recent content when it was first prepared."""
    if isinstance(M, _Prepared):
        return M
    P = _KEPT.get(id(M))
    if P is not None and P.matrix is M:
        return P
    M = _complex_array(M)
    if M.ndim != 2 or not M.shape[0] == M.shape[1] <= 6:
        return _Prepared(as_matrix(M))  # raises unless square with d > 6
    return _recent(M.tobytes(), M.shape)


@functools.lru_cache(maxsize=4)
def _recent(key: bytes, shape: tuple[int, int]) -> _Prepared:
    # The object of the last few d <= 6 contents, each on a read-only copy: an
    # input changed in place is a new key.
    return _Prepared(as_matrix(np.frombuffer(key, np.complex128).reshape(shape)))


# --- JSON wire format -------------------------------------------------------
#
# {"d": 6, "entries": [[{"re": r, "im": i}, ... d], ... d]}


def _entry_from_obj(e) -> complex:
    if not isinstance(e, dict) or set(e) != {"re", "im"}:
        raise InvalidMatrixError("matrix entry must be an object with re/im")
    re, im = e["re"], e["im"]
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (re, im)):
        raise InvalidMatrixError("matrix entry components must be numbers")
    try:  # an int past float range overflows rather than converting to inf
        z = complex(float(re), float(im))
    except OverflowError:
        z = complex(math.inf)
    if not cmath.isfinite(z):
        raise InvalidMatrixError("matrix entry components must be finite")
    return z


def matrix_from_obj(obj) -> np.ndarray:
    """Parse the JSON object form of a matrix, rejecting non-square/non-finite input."""
    if not isinstance(obj, dict) or "d" not in obj or "entries" not in obj:
        raise InvalidMatrixError("matrix object must have d and entries")
    d = obj["d"]
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise InvalidMatrixError("d must be a positive integer")
    rows = obj["entries"]
    if not isinstance(rows, list) or len(rows) != d:
        raise NonSquareError(f"expected {d} rows, got {len(rows) if isinstance(rows, list) else 'non-list'}")
    if all(isinstance(row, list) and len(row) == d for row in rows):
        # Whole-matrix steps: every component, then one type test and one finiteness test.
        try:
            parts = [x for row in rows for e in row if type(e) is dict and len(e) == 2 for x in (e["re"], e["im"])]
            if len(parts) == 2 * d * d and set(map(type, parts)) <= {int, float}:
                out = np.array(parts, dtype=np.float64)  # an int past float range overflows
                if np.isfinite(out).all():
                    return out.view(np.complex128).reshape(d, d)
        except (KeyError, OverflowError):
            pass
    # Entry by entry, naming the first fault in row-major order; nothing of size
    # d * d is allocated before the rows hold that many entries.
    entries = []
    for j, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != d:
            raise NonSquareError(f"row {j + 1} does not have {d} entries")
        entries.extend(map(_entry_from_obj, row))
    return np.array(entries, dtype=np.complex128).reshape(d, d)


def matrix_to_obj(M) -> dict:
    """JSON object form of a matrix."""
    M = as_matrix(M)
    return {
        "d": int(M.shape[0]),
        "entries": [
            [{"re": float(z.real), "im": float(z.imag)} for z in row] for row in M
        ],
    }


def loads_matrix(text: str) -> np.ndarray:
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise InvalidMatrixError(f"invalid JSON: {exc}") from exc
    return matrix_from_obj(obj)


# --- deterministic output formatting ----------------------------------------


def round12(x: float) -> float:
    """Round to 12 significant digits (the fixed CLI output precision)."""
    return float(f"{float(x):.12g}")


def rounded(obj):
    """Recursively round every float in a JSON-style structure to 12 digits."""
    if isinstance(obj, float):
        return round12(obj)
    if isinstance(obj, dict):
        return {k: rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [rounded(v) for v in obj]
    return obj


def json_dumps(obj) -> str:
    """Deterministic JSON text: 12-digit floats, UTF-8 friendly, no locale."""
    return json.dumps(rounded(obj), indent=2, ensure_ascii=False)
