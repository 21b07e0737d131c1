"""Seeded inputs and output checks for the three workloads.

Everything here runs in the benchmark process, outside the timed region.
The program under test sees only what these functions generate: matrix
JSON files, request lists and argv. Expected values come either from
independent oracles written here (the scalar 2x2 census, a 3x3 Gram
check, witness re-verification) or, for the CLI, from the library's
in-process verdict on the same input.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

import chm

EPS = chm.DEFAULT_EPS

# --- shared helpers ---------------------------------------------------------

PAIRS = list(itertools.combinations(range(6), 2))
TRIPLES = list(itertools.combinations(range(6), 3))


def matrix_obj(M) -> dict:
    """The documented matrix JSON form, with full float precision."""
    return {
        "d": int(M.shape[0]),
        "entries": [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in M],
    }


def matrix_from(obj) -> np.ndarray:
    return np.array([[complex(e["re"], e["im"]) for e in row] for row in obj["entries"]])


def witness_image(rng, A) -> np.ndarray:
    """Random row/column permutations and unimodular scalings of A."""
    rows, cols = rng.permutation(6), rng.permutation(6)
    r = np.exp(1j * rng.uniform(0.0, 2 * math.pi, 6))
    c = np.exp(1j * rng.uniform(0.0, 2 * math.pi, 6))
    return (r[:, None] * A * c[None, :])[np.ix_(rows, cols)]


def family_matrix(point) -> np.ndarray:
    return chm.family_h(chm.FamilyPoint(*point))


def scalar_census(M) -> int:
    """2x2 sub-CHM count by the scalar predicate, one submatrix at a time."""
    return sum(
        chm.is_sub_chm_2x2(M[r1, c1], M[r1, c2], M[r2, c1], M[r2, c2]).ok
        for r1, r2 in PAIRS
        for c1, c2 in PAIRS
    )


def census3_count(M) -> int:
    """3x3 submatrices with pairwise orthogonal rows (within 3 eps)."""
    n = 0
    for rows in TRIPLES:
        for cols in TRIPLES:
            S = M[np.ix_(rows, cols)]
            G = S @ S.conj().T
            n += max(abs(G[0, 1]), abs(G[0, 2]), abs(G[1, 2])) <= 3 * EPS
    return n


def real_3x2(M) -> list:
    """(rows, cols) of the fully real 3x2 submatrices, 1-based."""
    return [
        [[r + 1 for r in rows], [c + 1 for c in cols]]
        for rows in TRIPLES
        for cols in PAIRS
        if np.abs(M[np.ix_(rows, cols)].imag).max() <= EPS
    ]


def blocks_are_sub_chms(M, structure_obj) -> bool:
    """Re-verify a returned H2 pairing with the scalar predicate."""
    return all(
        chm.is_sub_chm_2x2(
            M[r1 - 1, c1 - 1], M[r1 - 1, c2 - 1], M[r2 - 1, c1 - 1], M[r2 - 1, c2 - 1]
        ).ok
        for r1, r2 in structure_obj["rowPairing"]
        for c1, c2 in structure_obj["colPairing"]
    )


def witness_error(source, witness_obj, target) -> float:
    """Entrywise error of apply_witness(source, W) against target."""
    witness = chm.EquivalenceWitness.from_obj(witness_obj)
    return float(np.abs(chm.apply_witness(source, witness) - target).max())


def percentile_tail(samples):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond), or None when there are
    fewer than twenty samples (the percentile would fall below the median).
    """
    n = len(samples)
    if n < 20:
        return None
    ordered = sorted(samples)
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


# --- grid-sweep -------------------------------------------------------------

GRID_N = 16
ORACLE_SAMPLE = 16
CSV_HEADER = b"x1,x2,N,gram_residual,h2_found,forbidden"


def grid_values(n):
    return [-math.pi / 2 + k * math.pi / n for k in range(1, n + 1)]


def grid_sample(seed, n, size=ORACLE_SAMPLE):
    """Seeded (k1, k2) grid indices (0-based) checked against the oracle."""
    rng = np.random.default_rng(seed)
    return [tuple(int(k) for k in rng.integers(0, n, 2)) for _ in range(size)]


def check_scan(data: bytes, stdout: str, n: int, sample) -> tuple[int, list]:
    """Check a scan CSV file and summary line.

    Returns (points failed, problems). A file-level fault fails all n^2
    points; a bad row fails its point.
    """
    total = n * n
    if not data.endswith(b"\n") or b"\r" in data:
        return total, ["scan file is not LF-terminated"]
    lines = data[:-1].split(b"\n")
    if lines[0] != CSV_HEADER:
        return total, [f"bad header {lines[0][:80]!r}"]
    rows = lines[1:]
    if len(rows) != total:
        return total, [f"{len(rows)} rows, expected {total}"]
    xs = [f"{x:.12g}" for x in grid_values(n)]
    problems, bad, counts = [], set(), []
    for i, row in enumerate(rows):
        fields = row.decode("ascii", "replace").split(",")
        try:
            ok = (
                len(fields) == 6
                and fields[0] == xs[i // n]
                and fields[1] == xs[i % n]
                and math.isfinite(float(fields[3]))
                and fields[4] == "true"
                and fields[5] == "false"
            )
            counts.append(int(fields[2]))
        except (ValueError, IndexError):
            ok = False
            counts.append(None)
        if not ok:
            bad.add(i)
            problems.append(f"row {i + 1}: {row[:100]!r}")
    for k1, k2 in sample:
        i = k1 * n + k2
        expected = scalar_census(family_matrix((float(xs[k1]), float(xs[k2]))))
        if counts[i] != expected:
            bad.add(i)
            problems.append(f"row {i + 1}: N={counts[i]}, scalar oracle gives {expected}")
    good = [c for c in counts if c is not None]
    summary = f"points={total} minN={min(good, default=0)} maxN={max(good, default=0)} forbidden=0"
    if stdout.strip() != summary:
        return total, problems + [f"summary {stdout.strip()!r}, rows give {summary!r}"]
    return len(bad), problems


# --- matrix-mix -------------------------------------------------------------

# Miss partners lie in another equivalence class: {M1, D0},
# {M2_w1, M2_w2, F6} and {S6} differ in their 2x2 or 3x3 counts.
MISS_PARTNER = {"M1": "M2_w1", "M2_w1": "M1", "M2_w2": "S6", "D0": "F6", "F6": "D0", "S6": "F6"}
MU_PARTNERS = ("F6", "D0", "S6")
INTERIOR = math.pi / 2 - 0.05
# Fixed near-corner points (offsets 1e-8 and 1e-4 from pi/2): the family
# loses the CHM property there at the default tolerance.
NEAR_CORNER = ((math.pi / 2 - 1e-8, math.pi / 2), (math.pi / 2, math.pi / 2 - 1e-4))
MIX_FAMILY_POINTS = 8


def mix_inputs(seed, family_points=MIX_FAMILY_POINTS):
    """One pass of matrix-mix requests, shuffled, plus the input shares.

    Per pass: two witness images of each registry matrix (one paired with
    its source for equivalence, one with a miss partner), `family_points`
    uniform interior family points (paired with a registry miss) and a
    witness image of each (paired with its source), and the fixed
    near-corner points.
    """
    rng = np.random.default_rng(seed)
    names = chm.registry_names()
    reqs = []
    for name in names:
        for hit in (True, False):
            img = witness_image(rng, chm.named(name).matrix)
            reqs.append({
                "kind": "registry_image",
                "source": {"name": name},
                "input": {"matrix": matrix_obj(img)},
                "equiv": {"name": name if hit else MISS_PARTNER[name]},
                "expect_equiv": hit,
            })
    for j, (x1, x2) in enumerate(rng.uniform(-INTERIOR, INTERIOR, (family_points, 2))):
        point = [float(x1), float(x2)]
        reqs.append({
            "kind": "family_point",
            "source": {"point": point},
            "input": {"point": point},
            "equiv": {"name": names[j % len(names)]},
            "expect_equiv": False,
        })
        reqs.append({
            "kind": "family_image",
            "source": {"point": point},
            "input": {"matrix": matrix_obj(witness_image(rng, family_matrix(point)))},
            "equiv": {"point": point},
            "expect_equiv": True,
        })
    for point in NEAR_CORNER:
        reqs.append({
            "kind": "near_corner",
            "source": {"point": list(point)},
            "input": {"point": list(point)},
            "equiv": {"name": "F6"},
            "expect_equiv": False,
        })
    for j, req in enumerate(reqs):
        req["mu"] = {"name": MU_PARTNERS[j % len(MU_PARTNERS)]}
    reqs = [reqs[i] for i in rng.permutation(len(reqs))]

    invariants = {}
    for req in reqs:
        key = json.dumps(req["source"])
        if key not in invariants:
            invariants[key] = source_invariants(req["source"])
    shares = {kind: sum(r["kind"] == kind for r in reqs) for kind in
              ("registry_image", "family_point", "family_image", "near_corner")}
    shares.update({
        "base": len(reqs),
        "registry_image_per_class": {n: sum(r["source"].get("name") == n for r in reqs) for n in names},
        "equiv_hit": sum(r["expect_equiv"] for r in reqs),
        "equiv_miss": sum(not r["expect_equiv"] for r in reqs),
        "expected_h2_miss": sum(invariants[json.dumps(r["source"])]["h2"] is False for r in reqs),
        "near_corner_not_chm": sum(
            not chm.is_chm(family_matrix(p)).ok for p in NEAR_CORNER
        ),
    })
    return reqs, invariants, shares


def source_invariants(source) -> dict:
    """Equivalence invariants of a source matrix, which every witness
    image of it must reproduce; all None when the source fails the CHM
    check (the near-corner defect), since nothing is then decided."""
    if "name" in source:
        M = chm.named(source["name"]).matrix
    else:
        M = family_matrix(source["point"])
    if not chm.is_chm(M).ok:
        return dict.fromkeys(("n2", "n3", "h2", "r3"))
    return {
        "n2": scalar_census(M),
        "n3": census3_count(M),
        # every family member is H2-reducible by construction
        "h2": chm.h2_block_structure(M) is not None if "name" in source else True,
        "r3": chm.are_equivalent(M, chm.named("D0").matrix) is not None,
    }


def request_matrix(spec) -> np.ndarray:
    if "matrix" in spec:
        return matrix_from(spec["matrix"])
    if "point" in spec:
        return family_matrix(spec["point"])
    return chm.named(spec["name"]).matrix


def check_mix(req, inv, entry) -> tuple[str, list]:
    """Classify one matrix-mix result as "ok", "failed" (the operation
    raised the known near-corner NotCHMError) or "wrong", with problems."""
    if entry["error"] is not None:
        if req["kind"] == "near_corner" and entry["error"].startswith("NotCHMError"):
            return "failed", []
        return "wrong", [f"unexpected error: {entry['error']}"]
    out = entry["output"]
    M = request_matrix(req["input"])
    problems = []

    rules = {hit["id"]: hit["evidence"] for hit in out["exclusions"]["rules"]}
    census = out["census"]
    if len(census["locations"]) != census["count"]:
        problems.append("2x2 census count and locations disagree")
    if inv["n2"] is not None:
        if census["count"] != inv["n2"]:
            problems.append(f"2x2 count {census['count']}, source has {inv['n2']}")
        if (out["h2"] is not None) != inv["h2"]:
            problems.append(f"H2 found={out['h2'] is not None}, source has {inv['h2']}")
        if len(out["census3"]) != inv["n3"]:
            problems.append(f"3x3 count {len(out['census3'])}, source has {inv['n3']}")
        if ("R2" in rules) != (inv["n3"] > 0):
            problems.append(f"R2 fired={'R2' in rules}, source 3x3 count {inv['n3']}")
        if ("R3" in rules) != inv["r3"]:
            problems.append(f"R3 fired={'R3' in rules}, source equivalent to D0: {inv['r3']}")
    if out["h2"] is not None and not blocks_are_sub_chms(M, out["h2"]):
        problems.append("H2 pairing does not re-verify")
    if sorted([r[0], r[1]] for r in out["real"]) != sorted(real_3x2(M)) or any(
        r[2] not in (1, 2) for r in out["real"]
    ):
        problems.append("real 3x2 submatrices differ from the direct check")
    n_real = int((np.abs(M.imag) <= EPS).sum())
    if ("R1" in rules) != (n_real > 22):
        problems.append(f"R1 fired={'R1' in rules} with {n_real} real entries")
    if "R3" in rules and witness_error(chm.named("D0").matrix, rules["R3"], M) > EPS:
        problems.append("R3 witness does not re-verify")
    if "R4" in rules:
        problems.append("R4 (census-count alarm) fired")

    F = M / np.linalg.norm(M, axis=0)
    G = request_matrix(req["mu"])
    G = G / np.linalg.norm(G, axis=0)
    dev = 6 * float(np.abs(np.abs(F.conj().T @ G) - 1 / math.sqrt(6)).max())
    mu = out["mu"]
    if abs(mu["maxDeviation"] - dev) > 1e-12 or mu["ok"] != (dev <= EPS * math.sqrt(6)):
        problems.append(f"MU verdict {mu}, direct deviation {dev:.3g}")

    witness = out["equiv"]
    if (witness is not None) != req["expect_equiv"]:
        problems.append(f"equivalence found={witness is not None}, expected {req['expect_equiv']}")
    if witness is not None and witness_error(request_matrix(req["equiv"]), witness, M) > EPS:
        problems.append("equivalence witness does not re-verify")
    return ("wrong" if problems else "ok"), problems


def worker_request(req) -> dict:
    """The part of a request the worker process receives."""
    return {k: req[k] for k in ("input", "mu", "equiv")}


# --- cli-oneshot ------------------------------------------------------------

# (command, matrix arguments). Argument kinds are fixed; the seed draws
# the registry name of `show`, the family points and every image.
CLI_SLOTS = (
    ("show", ("name",)),
    ("census", ("family",)),
    ("census", ("@family",)),
    ("census3", ("@M2_w1",)),
    ("h2", ("@S6",)),
    ("h2", ("family",)),
    ("equiv", ("@M1", "D0")),
    ("equiv", ("@F6", "S6")),
    ("mu", ("F6", "@D0")),
    ("exclusions", ("@F6",)),
    ("real", ("M1",)),
    ("dephase", ("@D0",)),
)


def cli_inputs(seed, workdir):
    """Write the @file inputs into workdir; return [(argv, exit, stdout)].

    `stdout` is the parsed JSON the library gives in-process for the same
    input, or the literal "inequivalent".
    """
    rng = np.random.default_rng(seed)
    commands = []
    for slot, (cmd, kinds) in enumerate(CLI_SLOTS):
        argv, mats = [cmd], []
        for kind in kinds:
            if kind == "name":
                name = chm.registry_names()[int(rng.integers(0, 6))]
                argv.append(name)
                mats.append(name)
            elif kind == "family" or kind == "@family":
                point = [float(x) for x in rng.uniform(-INTERIOR, INTERIOR, 2)]
                M = family_matrix(point)
                if kind == "family":
                    argv.append(f"family:{point[0]!r},{point[1]!r}")
                    mats.append(M)
                else:
                    argv.append(_write_image(rng, M, workdir / f"cli{slot}.json"))
                    mats.append(_image_of(workdir / f"cli{slot}.json"))
            elif kind.startswith("@"):
                path = workdir / f"cli{slot}-{kind[1:]}.json"
                argv.append(_write_image(rng, chm.named(kind[1:]).matrix, path))
                mats.append(_image_of(path))
            else:
                argv.append(kind)
                mats.append(chm.named(kind).matrix)
        code, obj = expected_cli(cmd, mats)
        commands.append((argv, code, obj))
    return commands


def _write_image(rng, M, path) -> str:
    path.write_text(json.dumps(matrix_obj(witness_image(rng, M))), encoding="utf-8")
    return f"@{path}"


def _image_of(path):
    return matrix_from(json.loads(path.read_text(encoding="utf-8")))


def expected_cli(cmd, mats):
    """(exit code, parsed stdout) the README documents for this command,
    from the library's in-process verdict."""
    if cmd == "show":
        M = chm.named(mats[0]).matrix
        return 0, _parsed(chm.matrix_to_obj(M))
    M = mats[0]
    if cmd == "census":
        return 0, _parsed(chm.census_2x2(M).to_obj())
    if cmd == "census3":
        locs = chm.find_3x3_sub_chms(M)
        return 0, _parsed({"count": len(locs), "locations": [loc.to_obj() for loc in locs]})
    if cmd == "h2":
        s = chm.h2_block_structure(M)
        return (1, _parsed({"found": False})) if s is None else (0, _parsed({"found": True, **s.to_obj()}))
    if cmd == "equiv":
        w = chm.are_equivalent(M, mats[1])
        return (1, "inequivalent") if w is None else (0, _parsed(w.to_obj()))
    if cmd == "mu":
        v = chm.mu_pair(M, mats[1])
        return (0 if v.ok else 1), _parsed(v.to_obj())
    if cmd == "exclusions":
        return 0, _parsed(chm.exclusion_report(M).to_obj())
    if cmd == "real":
        return 0, _parsed({"count": chm.count_real_entries(M)})
    if cmd == "dephase":
        return 0, _parsed(chm.matrix_to_obj(chm.dephase(M)))
    raise ValueError(f"no expectation for command {cmd!r}")


def _parsed(obj):
    return json.loads(chm.json_dumps(obj))


def check_cli(expected_code, expected_out, code, stdout: str) -> list:
    """Problems with one command's exit code and stdout."""
    problems = []
    if code != expected_code:
        problems.append(f"exit code {code}, expected {expected_code}")
    if expected_out == "inequivalent":
        if stdout != "inequivalent\n":
            problems.append(f"stdout {stdout[:80]!r}, expected 'inequivalent'")
        return problems
    try:
        got = json.loads(stdout)
    except json.JSONDecodeError:
        return problems + [f"stdout is not JSON: {stdout[:80]!r}"]
    if got != expected_out:
        problems.append(f"stdout {stdout[:120]!r} differs from the in-process verdict")
    return problems
