"""Named 6x6 Hadamard matrices and the two-parameter block-reducible family.

The registry holds the fixture matrices the library's structural claims
are about (M1, M2 in both cube-root variants, D0) plus two controls from
the wider catalog (the Fourier matrix F6 and Tao's spectral matrix S6).
Every entry is validated as a CHM at import time, and keeps one prepared
object for the life of the process: it holds the CHM residual of that
check and fills the rest on first use.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import _KEPT, DEFAULT_TOL, _Prepared, as_matrix, is_chm
from .errors import DomainError, UnknownNameError

OMEGA_1 = cmath.exp(2j * cmath.pi / 3)  # primitive cube root of unity
OMEGA_2 = cmath.exp(4j * cmath.pi / 3)  # its conjugate

_DOMAIN_LO = -math.pi / 2 + 1e-12
_DOMAIN_HI = math.pi / 2 + 1e-12  # closed end, with fp slack


@dataclass(frozen=True)
class FamilyPoint:
    """Parameter point (x1, x2), each in the half-open interval (-pi/2, pi/2]."""

    x1: float
    x2: float

    def __post_init__(self):
        for name, x in (("x1", self.x1), ("x2", self.x2)):
            if not _DOMAIN_LO < x <= _DOMAIN_HI:
                raise DomainError(f"{name}={x!r} outside (-pi/2, pi/2]")


@dataclass(frozen=True)
class RegistryEntry:
    """A named registry matrix (read-only) and where it comes from."""

    name: str
    matrix: np.ndarray
    provenance: str  # "primary": a fixture of the built-in claims; "external": catalog control


def f_factor(x1: float, x2: float) -> complex:
    """Unimodular building block of the family, trigonometric form.

    With w = cos((x1-x2)/2) - i sin((x1+x2)/2), so that |w|^2 = 1 + sin x1 sin x2,
    e^{i(x1+x2)/2} w (1/2 + i sqrt(1/|w|^2 - 1/4))
        = e^{i(x1+x2)/2} (w/|w|) (|w|/2 + i sqrt(1 - |w|^2/4)).
    The right side is evaluated: it is unimodular by construction and does not
    cancel as |w| -> 0. Singular where 1 + sin(x1) sin(x2) vanishes (opposite
    right-angle arguments); raises DomainError there and at non-finite arguments.
    """
    for name, x in (("x1", x1), ("x2", x2)):
        if not math.isfinite(x):
            raise DomainError(f"{name}={x!r} is not finite")
    if 1.0 + math.sin(x1) * math.sin(x2) <= 1e-12:
        raise DomainError(f"1 + sin(x1) sin(x2) vanishes at ({x1!r}, {x2!r})")
    return _f(x1, x2)


def _f(a: float, b: float) -> complex:
    # f_factor's right side, unguarded.
    e, u, k = _f_parts(a, b)
    return e * u * k


def _f_parts(a: float, b: float) -> tuple[complex, complex, complex]:
    # The factors (e, u, k) = (e^{i(a+b)/2}, w/|w|, |w|/2 + i sqrt(1 - |w|^2/4))
    # of _f(a, b) = e * u * k. Negating both arguments negates (a+b)/2 and
    # (a-b)/2 exactly; cos is even and sin odd, so _f(-a, -b) is
    # conj(e) * conj(u) * k, bit for bit, with no trig of its own.
    # In the family |w|^2 = 1 +- sin x1 sin x2. It vanishes for f2 and f4 at
    # (x1, x2) = (+-pi/2, +-pi/2) and for f1 and f3 at (-+pi/2, +-pi/2). Only
    # (pi/2, pi/2) lies in the domain; the other three corners are on its open
    # edge. At (pi/2, pi/2) cos(pi/2) is 6.1e-17, not 0, in double precision:
    # w/|w| stays defined and f2, f4 come out ~ 3e-17 + 1j.
    s = 0.5 * (a + b)
    w = complex(math.cos(0.5 * (a - b)), -math.sin(s))
    r = abs(w)
    return cmath.exp(1j * s), w / r, complex(0.5 * r, math.sqrt(1.0 - 0.25 * r * r))


def family_h(point: FamilyPoint) -> np.ndarray:
    """The 6x6 CHM of the two-parameter family at the given point.

    Row/column pairs (1,2), (3,4), (5,6) split it into nine 2x2 blocks
    that are all sub-CHMs, for every admissible parameter point.
    """
    x1, x2 = point.x1, point.x2
    z1 = cmath.exp(1j * x1)
    z2 = cmath.exp(1j * x2)
    # f3 = _f(-x1, -x2) and f4 = _f(-x1, x2) from the factors of f1 and f2.
    e, u, k = _f_parts(x1, x2)
    f1, f3 = e * u * k, e.conjugate() * u.conjugate() * k
    e, u, k = _f_parts(x1, -x2)
    f2, f4 = e * u * k, e.conjugate() * u.conjugate() * k
    # Every entry is the float operation of the nested-row formula: Python
    # reads -z2 * f2 as (-z2) * f2 and z1 * z2 * f1c as (z1 * z2) * f1c, so
    # the negations and z1 * z2 are made once, and each repeated entry too.
    n1, n2, z12 = -z1, -z2, z1 * z2
    f1c, f2c, f3c, f4c = f1.conjugate(), f2.conjugate(), f3.conjugate(), f4.conjugate()
    h22, h23, h24, h25 = -f1, n2 * f2, -f3c, n2 * f4c  # entry [j, k], 0-based
    h32, h33, h34, h35 = n1 * f2c, z12 * f1c, n1 * f4, z12 * f3
    # One flat tuple, row by row: numpy converts it faster than nested lists.
    entries = (
        1, 1, 1, 1, 1, 1,
        1, -1, z1, n1, z1, n1,
        1, z2, h22, h23, h24, h25,
        1, n2, h32, h33, h34, h35,
        1, z2, h24, h25, h22, h23,
        1, n2, h34, h35, h32, h33,
    )
    return np.array(entries, dtype=np.complex128).reshape(6, 6)


def _family_stack(x1s, x2s) -> np.ndarray:
    # (B, 6, 6) stack of family_h at the points (x1s[m], x2s[m]); FamilyPoint
    # checks each point's domain.
    return np.array([family_h(FamilyPoint(x1, x2)) for x1, x2 in zip(x1s, x2s)])


def _m1() -> np.ndarray:
    i = 1j
    return as_matrix(
        [
            [i, 1, 1, 1, 1, 1],
            [1, i, 1, 1, -1, -1],
            [1, 1, i, -1, 1, -1],
            [1, 1, -1, i, -1, 1],
            [1, -1, 1, -1, i, 1],
            [1, -1, -1, 1, 1, i],
        ]
    )


def _m2(w: complex) -> np.ndarray:
    return as_matrix(
        [
            [w, w, 1, 1, 1, 1],
            [w, -w, -1, 1, -1, 1],
            [1, 1, w, w, 1, 1],
            [1, -1, -w, w, -1, 1],
            [1, 1, 1, 1, w, w],
            [-1, 1, 1, -1, w, -w],
        ]
    )


def _d0() -> np.ndarray:
    i = 1j
    return as_matrix(
        [
            [1, 1, 1, 1, 1, 1],
            [1, -1, i, -i, -i, i],
            [1, i, -1, i, -i, -i],
            [1, -i, i, -1, i, -i],
            [1, -i, -i, i, -1, i],
            [1, i, -i, -i, i, -1],
        ]
    )


def _f6() -> np.ndarray:
    jk = np.outer(np.arange(6), np.arange(6))
    return as_matrix(np.exp(2j * np.pi * jk / 6))


def _s6() -> np.ndarray:
    w = OMEGA_1
    w2 = OMEGA_2
    return as_matrix(
        [
            [1, 1, 1, 1, 1, 1],
            [1, 1, w, w, w2, w2],
            [1, w, 1, w2, w2, w],
            [1, w, w2, 1, w, w2],
            [1, w2, w2, w, 1, w],
            [1, w2, w, w2, w, 1],
        ]
    )


def _build_registry() -> dict[str, RegistryEntry]:
    specs = [
        ("M1", _m1(), "primary"),
        ("M2_w1", _m2(OMEGA_1), "primary"),
        ("M2_w2", _m2(OMEGA_2), "primary"),
        ("D0", _d0(), "primary"),
        ("F6", _f6(), "external"),
        ("S6", _s6(), "external"),
    ]
    registry = {}
    for name, matrix, provenance in specs:  # each validated once, by as_matrix
        matrix.setflags(write=False)
        P = _KEPT[id(matrix)] = _Prepared(matrix)
        check = is_chm(P, DEFAULT_TOL)  # kept on P
        if not check.ok:
            raise AssertionError(f"registry matrix {name} fails the CHM check: {check}")
        registry[name] = RegistryEntry(name=name, matrix=matrix, provenance=provenance)
    return registry


_REGISTRY = _build_registry()


def named(name: str) -> RegistryEntry:
    """Look up a registry matrix by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(_REGISTRY)
        raise UnknownNameError(f"unknown matrix {name!r} (known: {known})") from None


def registry_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def registry_entries() -> tuple[RegistryEntry, ...]:
    return tuple(_REGISTRY.values())
