import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chm
from chm import (
    DomainError,
    FamilyPoint,
    ScanConfig,
    Tolerance,
    UnknownNameError,
    census_2x2,
    f_factor,
    family_h,
    forbidden_count_check,
    gram_residual,
    h2_block_structure,
    is_chm,
    named,
    registry_entries,
    registry_names,
    run_scan,
)
from chm.census import _residual_table
from chm.core import DEFAULT_TOL, _Prepared
from chm.families import _f, _f_parts, _family_stack
from chm.scan import grid_values
from util import NATURAL_PAIRING, PAIRS, f_factor_alt, family_h_oracle, random_point, rng

GOLDEN_DIR = Path(__file__).parent / "golden"


def test_f_factor_at_origin():
    assert f_factor(0.0, 0.0) == pytest.approx(0.5 + 0.5j * math.sqrt(3), abs=1e-15)
    assert f_factor_alt(0.0, 0.0) == pytest.approx(0.5 + 0.5j * math.sqrt(3), abs=1e-12)


def test_f_factor_at_right_angle_corner():
    assert f_factor(math.pi / 2, math.pi / 2) == pytest.approx(1j, abs=1e-12)


def test_f_factor_unimodular():
    assert abs(abs(f_factor(1.0, 0.5)) - 1.0) <= 1e-12


@pytest.mark.parametrize("x1, x2", [(1.0, 0.5), (-1.2, 0.3)])
def test_dual_forms_agree(x1, x2):
    assert abs(f_factor(x1, x2) - f_factor_alt(x1, x2)) < 1e-9


def test_dual_forms_agree_randomly():
    gen = rng(47)
    for _ in range(1000):
        p = random_point(gen)
        assert abs(f_factor(p.x1, p.x2) - f_factor_alt(p.x1, p.x2)) < 1e-9
        assert abs(abs(f_factor(p.x1, p.x2)) - 1.0) <= 1e-12


@pytest.mark.parametrize("x1, x2", [(math.pi / 2, -math.pi / 2), (-math.pi / 2, math.pi / 2)])
def test_f_factor_singular_arguments(x1, x2):
    with pytest.raises(DomainError):
        f_factor(x1, x2)
    with pytest.raises(DomainError):
        f_factor_alt(x1, x2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["x1", "x2", "both"])
def test_f_factor_rejects_non_finite_arguments(bad, where):
    # NaN used to pass the singularity guard (returning nan+nanj) and inf to
    # reach math.sin (a bare ValueError).
    x1, x2 = (bad if where in ("x1", "both") else 0.0), (bad if where in ("x2", "both") else 0.0)
    with pytest.raises(DomainError, match="x1" if where != "x2" else "x2") as info:
        f_factor(x1, x2)
    assert "not finite" in str(info.value)


@pytest.mark.parametrize(
    "x1, x2",
    [(-math.pi / 2, 0.0), (0.0, -math.pi / 2), (math.pi / 2 + 1e-6, 0.0), (-2.0, 0.0)],
)
def test_family_point_domain(x1, x2):
    with pytest.raises(DomainError):
        FamilyPoint(x1, x2)


def test_family_point_boundary_admitted():
    FamilyPoint(math.pi / 2, math.pi / 2)
    FamilyPoint(-math.pi / 2 + 1e-6, math.pi / 2)


def test_family_at_origin():
    M = family_h(FamilyPoint(0.0, 0.0))
    assert np.abs(M[1] - np.array([1, -1, 1, -1, 1, -1])).max() <= 1e-15
    assert is_chm(M).ok


def test_family_gram_residual():
    assert gram_residual(family_h(FamilyPoint(0.3, -0.4))) <= 1e-8


def test_family_block_copy_symmetry():
    # rows {5,6} x cols {3,4} repeats rows {3,4} x cols {5,6} verbatim
    for x1, x2 in [(1.0, 0.5), (0.2, 0.9), (-0.8, -0.1)]:
        M = family_h(FamilyPoint(x1, x2))
        assert np.abs(M[np.ix_([4, 5], [2, 3])] - M[np.ix_([2, 3], [4, 5])]).max() == 0.0


def test_family_corner_extension_is_chm():
    # at x1 = x2 = pi/2, f2 and f4 come out of the same formula as everywhere
    # else (~ 1j, their diagonal limit); no value is filled in, and the matrix
    # is a CHM with the natural block pairing
    M = family_h(FamilyPoint(math.pi / 2, math.pi / 2))
    assert is_chm(M).ok
    structure = h2_block_structure(M)
    assert structure.row_pairing == NATURAL_PAIRING
    assert census_2x2(M).count == 75


_HALF_PI = math.pi / 2
# Approaches to the corner x1 = x2 = pi/2 at log-spaced offsets, plus points
# in the domain's fp slack above pi/2.
NEAR_CORNER = [
    point
    for delta in np.logspace(-15, -1, 57)
    for point in (
        (_HALF_PI - delta, _HALF_PI),
        (_HALF_PI, _HALF_PI - delta),
        (_HALF_PI - delta, _HALF_PI - delta),
    )
] + [
    (_HALF_PI + 1e-12, _HALF_PI + 1e-12),
    (_HALF_PI + 1e-12, _HALF_PI),
    (_HALF_PI, _HALF_PI + 5e-13),
    (_HALF_PI + 1e-12, _HALF_PI - 1e-6),
]


def test_family_is_chm_near_the_corner():
    worst = max(is_chm(family_h(FamilyPoint(*p))).residual for p in NEAR_CORNER)
    assert worst <= 1e-15


def test_family_is_reducible_near_the_corner():
    for p in NEAR_CORNER:
        M = family_h(FamilyPoint(*p))
        structure = h2_block_structure(M)
        assert structure.row_pairing == NATURAL_PAIRING, p
        assert structure.col_pairing == NATURAL_PAIRING, p
        assert forbidden_count_check(census_2x2(M).count), p


def test_family_h_and_f_factor_share_one_formula():
    gen = rng(71)
    for _ in range(200):
        p = random_point(gen)
        assert family_h(p)[2, 2] == -f_factor(p.x1, p.x2)


def test_family_stack_stacks_family_h_exactly():
    points = [(x1, x2) for x1 in grid_values(16) for x2 in grid_values(16)]
    points += [(math.pi / 2, math.pi / 2), (1.0, 0.5)]
    stack = _family_stack(*zip(*points))
    assert stack.shape == (len(points), 6, 6) and stack.dtype == np.complex128
    for (x1, x2), M in zip(points, stack):
        assert (M == family_h(FamilyPoint(x1, x2))).all()


def test_family_h_matches_nested_row_oracle():
    # Bit for bit (signed zeros too): each entry is the oracle's float operation.
    points = [(x1, x2) for n in (2, 3, 16, 64) for x1 in grid_values(n) for x2 in grid_values(n)]
    points += NEAR_CORNER
    assert (math.pi / 2, math.pi / 2) in points
    gen = rng(73)
    points += [(p.x1, p.x2) for p in (random_point(gen) for _ in range(2000))]
    for x1, x2 in points:
        p = FamilyPoint(x1, x2)
        assert family_h(p).tobytes() == family_h_oracle(p).tobytes(), (x1, x2)


def _bits(z):
    return struct.pack("<dd", z.real, z.imag)


def _points(seed, n):
    gen = rng(seed)
    h = math.pi / 2
    points = [(x1, x2) for x1 in grid_values(16) for x2 in grid_values(16)]
    points += [(h, h), (h, 0.0), (0.0, h), (-h + 1e-6, -h + 1e-6), (-h + 1e-6, h), (h - 1e-15, h)]
    return points + [(p.x1, p.x2) for p in (random_point(gen) for _ in range(n))]


def test_f_of_negated_arguments_is_built_from_the_conjugated_factors():
    # family_h takes f3 = _f(-x1, -x2) and f4 = _f(-x1, x2) from the factors
    # of f1 and f2 without trig of their own; this must hold bit for bit.
    for x1, x2 in _points(79, 500):
        for a, b in ((x1, x2), (x1, -x2)):
            e, u, k = _f_parts(a, b)
            assert _bits(_f(a, b)) == _bits(e * u * k), (a, b)
            assert _bits(_f(-a, -b)) == _bits(e.conjugate() * u.conjugate() * k), (a, b)


# S: the row and column permutation (1,2,5,6,3,4), 0-based. Rows 5, 6 of the
# family are rows 3, 4 with column pairs (3,4) and (5,6) swapped.
_S = [0, 1, 4, 5, 2, 3]


def test_family_is_fixed_by_swapping_its_last_two_row_and_column_pairs():
    for x1, x2 in _points(89, 200):
        H = family_h(FamilyPoint(x1, x2))
        assert H[_S][:, _S].tobytes() == H.tobytes(), (x1, x2)


@pytest.mark.parametrize("eps", [1e-14, 1e-12, 1e-9, 1e-6, 1e-4])
def test_family_counts_are_odd_and_at_least_seventeen(eps):
    # S, and C = the permutation (2,1,4,3,6,5) with phases, which maps the
    # family to its conjugate, keep every |ad + bc| and permute the 225
    # locations. 17 residuals vanish at every point: orbits of sizes 1 and 2.
    # The other 208 fall into 50 orbits of 4 and 4 of 2, whose members agree
    # to rounding. So a count is 17 plus an even number: never 10-16 or 18.
    tol = Tolerance(eps)
    records, _ = run_scan(ScanConfig(grid_n=16, out_path="unused", tol=tol))
    counts = [r.n for r in records]
    gen = rng(97)
    counts += [census_2x2(family_h(random_point(gen)), tol).count for _ in range(200)]
    assert all(n % 2 == 1 and n >= 17 for n in counts), sorted(set(counts))


# C, 0-based: swaps the rows, and the columns, of each pair (1,2), (3,4), (5,6).
_C = [1, 0, 3, 2, 5, 4]


def _orbits():
    # The orbits of the 225 (row pair, column pair) positions under {1, S, C, SC},
    # each a permutation of rows and columns alike.
    index = {pair: k for k, pair in enumerate(PAIRS)}
    group = [list(range(6)), _S, _C, [_S[i] for i in _C]]

    def moved(perm, pair):
        return index[tuple(sorted(perm[i] for i in PAIRS[pair]))]

    positions = [(p, q) for p in range(15) for q in range(15)]
    return {frozenset((moved(g, p), moved(g, q)) for g in group) for p, q in positions}


def test_family_residuals_fall_into_the_symmetry_orbits():
    # 17 residuals vanish identically: 8 orbits of 2 and a fixed point. The
    # other 208 form 50 orbits of 4 and 4 of 2, and within an orbit they agree
    # to 4 ulp of the largest residual, 2.
    gen = rng(101)
    tables = np.array([_residual_table(_Prepared(family_h(random_point(gen))), DEFAULT_TOL)[0] for _ in range(50)])
    orbits = _orbits()
    vanishing = [o for o in orbits if all((tables[:, p, q] < 1e-13).all() for p, q in o)]
    rest = [o for o in orbits if o not in vanishing]
    assert sum(map(len, vanishing)) == 17
    assert sorted(map(len, vanishing)) == [1] + [2] * 8
    assert sorted(map(len, rest)) == [2] * 4 + [4] * 50
    for orbit in rest:
        values = np.array([tables[:, p, q] for p, q in orbit])
        assert (values.max(axis=0) - values.min(axis=0)).max() <= 4 * np.spacing(2.0), sorted(orbit)


def test_family_reducible_at_random_points():
    gen = rng(53)
    for _ in range(25):
        M = family_h(random_point(gen))
        structure = h2_block_structure(M)
        assert structure.row_pairing == NATURAL_PAIRING
        assert structure.col_pairing == NATURAL_PAIRING
        assert census_2x2(M).count >= 9


def test_registry_names_and_provenance():
    assert registry_names() == ("M1", "M2_w1", "M2_w2", "D0", "F6", "S6")
    provenance = {e.name: e.provenance for e in registry_entries()}
    assert provenance == {
        "M1": "primary",
        "M2_w1": "primary",
        "M2_w2": "primary",
        "D0": "primary",
        "F6": "external",
        "S6": "external",
    }


def test_registry_entries_are_chms():
    for entry in registry_entries():
        assert is_chm(entry.matrix).ok, entry.name


def test_m1_shape():
    M1 = named("M1").matrix
    assert np.abs(np.diag(M1) - 1j).max() == 0.0
    assert np.abs(M1 - M1.T).max() == 0.0


def test_d0_shape():
    D0 = named("D0").matrix
    assert np.abs(D0[0] - 1.0).max() == 0.0
    assert np.abs(np.diag(D0) - np.array([1, -1, -1, -1, -1, -1])).max() == 0.0


def test_m2_omega_variants():
    w1 = named("M2_w1").matrix
    w2 = named("M2_w2").matrix
    assert w1[0, 0] == pytest.approx(np.exp(2j * np.pi / 3))
    assert w2[0, 0] == pytest.approx(np.exp(4j * np.pi / 3))
    assert np.abs(w1.conj() - w2).max() <= 1e-15


def test_unknown_name():
    with pytest.raises(UnknownNameError):
        named("NOPE")


def test_registry_matrices_are_read_only():
    with pytest.raises(ValueError):
        named("M1").matrix[0, 0] = 0.0


_IMPORT_COUNTS = """
import json, os, sys
import numpy as np
validated = []
def profile(frame, event, arg):  # each validation made while chm imports, by the bytes it validated
    code = frame.f_code
    if event == "call" and code.co_name == "as_matrix" and code.co_filename.endswith(os.path.join("chm", "core.py")):
        validated.append(np.asarray(frame.f_locals["entries"], np.complex128).tobytes().hex())
sys.setprofile(profile)
import chm
sys.setprofile(None)
from chm.core import _KEPT, _chm_residual, _recent
kept = [e.name for e in chm.registry_entries() if _chm_residual in _KEPT[id(e.matrix)]._cache]
print(json.dumps({"validated": validated, "recent": _recent.cache_info().currsize, "kept": kept}))
"""


def test_import_validates_each_registry_matrix_once_and_keeps_its_chm_residual():
    # In a fresh process: one validation per registry matrix (F6 included) and
    # no other, nothing in the recent cache, and each kept object holding the
    # CHM residual of its import check.
    package_root = str(Path(chm.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_COUNTS],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    report = json.loads(out.stdout.splitlines()[-1])
    assert sorted(report["validated"]) == sorted(e.matrix.tobytes().hex() for e in registry_entries())
    assert report["recent"] == 0
    assert report["kept"] == list(registry_names())


@pytest.mark.parametrize("name", ["M1", "M2_w1", "M2_w2", "D0"])
def test_golden_json_byte_for_byte(name):
    # The child runs the chm package this test imported, however it was found.
    package_root = str(Path(chm.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-m", "chm.cli", "show", name],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert out.stdout == (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
