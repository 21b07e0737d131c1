"""Shared helpers for the test suite."""

import cmath
import itertools
import math

import numpy as np

from chm import DEFAULT_TOL, EquivalenceWitness, FamilyPoint, H2Structure, Tolerance
from chm import RealSubmatrixReport, SubmatrixLoc, as_matrix, dephase, is_sub_chm_2x2, json_dumps, named
from chm.equivalence import _check_deadline
from chm.errors import DomainError, InvalidMatrixError, NonSquareError
from chm.families import _f

NATURAL_PAIRING = ((1, 2), (3, 4), (5, 6))


def rng(seed=20250809):
    return np.random.default_rng(seed)


def random_unimodular(gen, d=6):
    """Random matrix with unimodular entries (not generally a CHM)."""
    return np.exp(2j * np.pi * gen.uniform(size=(d, d)))


def random_phases(gen, d=6):
    return np.exp(2j * np.pi * gen.uniform(size=d))


def random_witness(gen, d=6, signs_only=False):
    """Random equivalence witness: permutations plus unimodular phases."""
    if signs_only:
        row_phases = gen.choice([-1.0, 1.0], size=d).astype(complex)
        col_phases = gen.choice([-1.0, 1.0], size=d).astype(complex)
    else:
        row_phases = random_phases(gen, d)
        col_phases = random_phases(gen, d)
    return EquivalenceWitness(
        row_perm=tuple(int(i) + 1 for i in gen.permutation(d)),
        col_perm=tuple(int(i) + 1 for i in gen.permutation(d)),
        row_phases=row_phases,
        col_phases=col_phases,
    )


def random_point(gen):
    """Uniform interior point of the family's parameter square."""
    x1, x2 = gen.uniform(-np.pi / 2 + 1e-9, np.pi / 2, size=2)
    return FamilyPoint(float(x1), float(x2))


def noisy_image(gen, M, eps, frac):
    """M with each entry's phase moved by noise drawn uniformly from +-frac*eps."""
    return M * np.exp(1j * gen.uniform(-frac * eps, frac * eps, size=M.shape))


def off_modulus_one():
    """6x6 matrices with entries off modulus one, by name: the zero matrix
    (all 400 3x3 blocks have orthogonal rows), 2*F6 (28 such blocks) and F6
    with one entry set to 1e-3."""
    F6 = named("F6").matrix
    nudged = F6.copy()
    nudged[2, 3] = 1e-3
    return {"zero": np.zeros((6, 6)), "2F6": 2 * F6, "nudged": nudged}


def straddling_d0(s, eps=1e-4):
    """D0 with a dephased gap at (3,4) (1-based) that straddles eps against its fit.

    First row and column are scaled by 1 + s*0.3*eps (the corner by
    1 - s*0.3*eps), and entry (3,4) leaves D0's dephased value by
    delta = eps*(1 - s*0.45*eps) in phase. The witness fitted to D0's
    first row and column then misses that entry by about eps*(1 + s*0.45*eps):
    s = +1 has a dephased gap just under eps but no witness within eps;
    s = -1 has a dephased gap just over eps and a witness within eps.
    """
    D0 = named("D0").matrix
    A = D0.copy()
    A[0, 1:] *= 1 + s * 0.3 * eps
    A[1:, 0] *= 1 + s * 0.3 * eps
    A[0, 0] *= 1 - s * 0.3 * eps
    delta = eps * (1 - s * 0.45 * eps)
    A[2, 3] = D0[2, 3] * (A[2, 0] * A[0, 3] / A[0, 0]) * (1 + 1j * delta)
    return A


def identity_witness(d=6):
    ones = np.ones(d, dtype=complex)
    return EquivalenceWitness(
        row_perm=tuple(range(1, d + 1)),
        col_perm=tuple(range(1, d + 1)),
        row_phases=ones,
        col_phases=ones.copy(),
    )


# --- scalar oracles for the table-based censuses ------------------------------

PAIRS = list(itertools.combinations(range(6), 2))
TRIPLES = list(itertools.combinations(range(6), 3))


def _pairings(elems):
    if not elems:
        return [()]
    first, rest = elems[0], elems[1:]
    return [
        ((first, partner),) + sub
        for i, partner in enumerate(rest)
        for sub in _pairings(rest[:i] + rest[i + 1 :])
    ]


PAIRINGS = _pairings((0, 1, 2, 3, 4, 5))
# [pairing, 3]: the indices in PAIRS of each pairing's three pairs.
PAIRING_PAIRS = np.array([[PAIRS.index(p) for p in pairing] for pairing in PAIRINGS])


def h2_hits_oracle(hit):
    """From a (B, 15, 15) stack of 2x2 sub-CHM flags (residual <= eps):
    [member, 15 * row pairing + column pairing] has all nine blocks hit."""
    rows_hit = hit[:, PAIRING_PAIRS].all(axis=2)  # [member, row pairing, column pair]
    return rows_hit[:, :, PAIRING_PAIRS].all(axis=3).reshape(len(hit), -1)


def _block_ok(M, r1, r2, c1, c2, tol):
    return is_sub_chm_2x2(M[r1, c1], M[r1, c2], M[r2, c1], M[r2, c2], tol).ok


def brute_force_census_2x2(M, tol=DEFAULT_TOL):
    """2x2 sub-CHM locations from one scalar predicate call per submatrix."""
    return [
        SubmatrixLoc(rows=(r1 + 1, r2 + 1), cols=(c1 + 1, c2 + 1))
        for r1, r2 in PAIRS
        for c1, c2 in PAIRS
        if _block_ok(M, r1, r2, c1, c2, tol)
    ]


def brute_force_h2(M, tol=DEFAULT_TOL):
    """First row/column pairing whose nine blocks all pass the scalar predicate."""
    for rp in PAIRINGS:
        for cp in PAIRINGS:
            if all(_block_ok(M, r1, r2, c1, c2, tol) for r1, r2 in rp for c1, c2 in cp):
                return H2Structure(
                    row_pairing=tuple((a + 1, b + 1) for a, b in rp),
                    col_pairing=tuple((a + 1, b + 1) for a, b in cp),
                )
    return None


def residual_table_oracle(S):
    """(B, 15, 15) residuals |ad + bc| of a (B, 6, 6) stack, one gather per entry."""
    r1, r2 = np.array(PAIRS).T
    a = S[:, r1[:, None], r1[None, :]]
    b = S[:, r1[:, None], r2[None, :]]
    c = S[:, r2[:, None], r1[None, :]]
    d = S[:, r2[:, None], r2[None, :]]
    return np.abs(a * d + b * c)


def pair_residuals_oracle(S):
    """(B, 15, 15) residuals |ad + bc| of a (B, 6, 6) stack and their largest gap
    to |a conj(c) + b conj(d)|, in fresh arrays from fancy indexing: the 2x2
    kernel's arithmetic, with the cross-check that the CHM check made redundant."""
    r1, r2 = np.array(PAIRS).T
    A, B = S[:, r1], S[:, r2]
    ad = A[..., r1]
    ad *= B[..., r2]
    bc = A[..., r2]
    bc *= B[..., r1]
    ad += bc
    residual = np.abs(ad)
    Q = A * np.conj(B)
    alt = Q[..., r1]
    alt += Q[..., r2]
    gap = np.abs(alt)
    gap -= residual
    return residual, float(np.abs(gap, out=gap).max())


def gram_residuals_oracle(S):
    """Per member of a (B, d, d) stack: the largest |(M M* - d I)_jk|."""
    d = S.shape[-1]
    return np.abs(S @ S.conj().transpose(0, 2, 1) - d * np.eye(d)).max(axis=(1, 2))


def scan_file_oracle(records, summary, fmt):
    """A scan file's text built whole: every CSV line joined, or json_dumps of
    the whole {"records": ..., "summary": ...} document."""
    if fmt == "json":
        keys = ("x1", "x2", "N", "gramResidual", "h2Found", "forbidden")
        return json_dumps({"records": [dict(zip(keys, r)) for r in records], "summary": summary}) + "\n"
    lines = ["x1,x2,N,gram_residual,h2_found,forbidden"] + [
        f"{r.x1:.12g},{r.x2:.12g},{r.n},{r.gram_residual:.12g},"
        f"{str(r.h2_found).lower()},{str(r.forbidden).lower()}"
        for r in records
    ]
    return "\n".join(lines) + "\n"


def f_factor_alt(x1, x2):
    """Same value as f_factor, computed along the algebraic route in
    z1 = e^{i x1}, z2 = e^{i x2}:

    (1 - (1-z1)(1-z2)/2) (1/2 + i sqrt(1/(1 - (z1-z1*)(z2-z2*)/4) - 1/4))
    """
    z1 = cmath.exp(1j * x1)
    z2 = cmath.exp(1j * x2)
    den = 1.0 - (z1 - z1.conjugate()) * (z2 - z2.conjugate()) / 4.0
    if abs(den) <= 1e-12:
        raise DomainError(f"vanishing denominator at ({x1!r}, {x2!r})")
    rad = 1.0 / den - 0.25
    if rad.real < -1e-12:
        raise DomainError(f"negative radicand {rad!r} at ({x1!r}, {x2!r})")
    first = 1.0 - 0.5 * (1.0 - z1) * (1.0 - z2)
    return first * (0.5 + 1j * cmath.sqrt(rad))


def family_h_oracle(point):
    """family_h built from nested rows of mixed int and complex entries."""
    x1, x2 = point.x1, point.x2
    z1 = cmath.exp(1j * x1)
    z2 = cmath.exp(1j * x2)
    f1, f2, f3, f4 = _f(x1, x2), _f(x1, -x2), _f(-x1, -x2), _f(-x1, x2)
    f1c, f2c, f3c, f4c = (f.conjugate() for f in (f1, f2, f3, f4))
    rows = [
        [1, 1, 1, 1, 1, 1],
        [1, -1, z1, -z1, z1, -z1],
        [1, z2, -f1, -z2 * f2, -f3c, -z2 * f4c],
        [1, -z2, -z1 * f2c, z1 * z2 * f1c, -z1 * f4, z1 * z2 * f3],
        [1, z2, -f3c, -z2 * f4c, -f1, -z2 * f2],
        [1, -z2, -z1 * f4, z1 * z2 * f3, -z1 * f2c, z1 * z2 * f1c],
    ]
    return np.array(rows, dtype=np.complex128)


def random_h2_reducible(gen, n):
    """(n, 6, 6) H2-reducible CHMs: nine natural blocks [a b; c -bc/a] from
    random phases, solved for the 24 real cross-pair Gram equations (rows of
    different natural pairs orthogonal) by minimum-norm Gauss-Newton steps.

    Column phases leave the Gram matrix unchanged, so the 24 x 27 Jacobian
    has rank at most 21; a 1e-12 ridge keeps the batched solve regular. The
    steps are chaotic: which solution a start reaches depends on rounding.
    After 60 steps 3 of 1000 starts had not converged; after 120, 0 of 5000.
    """
    # Entry (j, m) is sign[j, m] * exp(i * L[j, m] . theta) for 27 phases theta:
    # block (P, Q) takes a, b, c = exp(i theta[9P + 3Q + (0, 1, 2)]).
    L, sign = np.zeros((6, 6, 27)), np.ones((6, 6))
    for P, Q in itertools.product(range(3), repeat=2):
        a, b, c = 9 * P + 3 * Q + np.arange(3)
        rows, cols = slice(2 * P, 2 * P + 2), slice(2 * Q, 2 * Q + 2)
        L[rows, cols, a] = [[1, 0], [0, -1]]
        L[rows, cols, b] = [[0, 1], [0, 1]]
        L[rows, cols, c] = [[0, 0], [1, 1]]
        sign[2 * P + 1, 2 * Q + 1] = -1
    j, k = np.array([(j, k) for j, k in PAIRS if j // 2 != k // 2]).T  # 12 row pairs
    D = L[j] - L[k]  # [row pair, column, phase]: the exponent of each Gram term
    theta = gen.uniform(0, 2 * np.pi, size=(n, 27))
    matrices = lambda: sign * np.exp(1j * np.einsum("np,jmp->njm", theta, L))
    for _ in range(120):
        H = matrices()
        terms = H[:, j] * H[:, k].conj()  # [member, row pair, column]
        G, dG = terms.sum(-1), 1j * np.einsum("nem,emp->nep", terms, D)
        r = np.concatenate([G.real, G.imag], axis=1)
        J = np.concatenate([dG.real, dG.imag], axis=1)
        y = np.linalg.solve(J @ J.transpose(0, 2, 1) + 1e-12 * np.eye(24), r[..., None])
        theta -= (J.transpose(0, 2, 1) @ y)[..., 0]
    return matrices()


def looped_census_3x3(M, tol=DEFAULT_TOL):
    """3x3 sub-CHM locations from one Gram product per submatrix."""
    found = []
    for rows in TRIPLES:
        for cols in TRIPLES:
            S = M[np.ix_(rows, cols)]
            G = S @ S.conj().T
            if max(abs(G[0, 1]), abs(G[0, 2]), abs(G[1, 2])) <= 3 * tol.eps:
                found.append(
                    SubmatrixLoc(rows=tuple(r + 1 for r in rows), cols=tuple(c + 1 for c in cols))
                )
    return found


def looped_real_3x2(M, tol=DEFAULT_TOL):
    """Real 3x2 submatrices and their rank, one submatrix and minor at a time."""
    reports = []
    for rows in TRIPLES:
        for cols in PAIRS:
            S = M[np.ix_(rows, cols)]
            if np.abs(S.imag).max() > tol.eps:
                continue
            X = S.real
            rank = 1
            for a, b in itertools.combinations(range(3), 2):
                if abs(X[a, 0] * X[b, 1] - X[a, 1] * X[b, 0]) > tol.eps:
                    rank = 2
                    break
            reports.append(
                RealSubmatrixReport(
                    rows=tuple(r + 1 for r in rows), cols=tuple(c + 1 for c in cols), rank=rank
                )
            )
    return reports


# --- exact cyclotomic oracle for 12th-root matrices ---------------------------
#
# Every registry entry is zeta^k with zeta = e^{i pi/6}. On that lattice the
# 2x2, 3x3 and real-entry verdicts are decided in integers mod 12, with no
# tolerance at all.

ZETA = np.exp(1j * np.pi / 6)


def zeta_exponents(M):
    """Integer matrix K with M == zeta^K entrywise (to 1e-12); fails off the lattice."""
    K = np.rint(np.angle(M) / (np.pi / 6)).astype(int) % 12
    if np.abs(M - ZETA**K).max() > 1e-12:
        raise ValueError("entries are not 12th roots of unity")
    return K


def exact_census_2x2(K):
    """[a b; c d] is a 2x2 sub-CHM iff k_a + k_d - k_b - k_c == 6 (mod 12)."""
    return [
        SubmatrixLoc(rows=(r1 + 1, r2 + 1), cols=(c1 + 1, c2 + 1))
        for r1, r2 in PAIRS
        for c1, c2 in PAIRS
        if (K[r1, c1] + K[r2, c2] - K[r1, c2] - K[r2, c1]) % 12 == 6
    ]


def exact_h2(K):
    """First row/column pairing, in lexicographic order, whose nine blocks are
    all among the exact 2x2 sub-CHMs of exact_census_2x2, or None."""
    hits = {(loc.rows, loc.cols) for loc in exact_census_2x2(K)}
    pairings = [tuple((a + 1, b + 1) for a, b in pairing) for pairing in PAIRINGS]
    for rp in pairings:
        for cp in pairings:
            if all((r, c) in hits for r in rp for c in cp):
                return H2Structure(row_pairing=rp, col_pairing=cp)
    return None


def _orthogonal_exactly(u, v):
    # Three 12th roots sum to zero iff they are 120 degrees apart: {x, x+4, x+8}.
    return sorted((u - v) % 12) in ([x, x + 4, x + 8] for x in range(4))


def exact_census_3x3(K):
    """3x3 sub-CHM locations: every row pair of the submatrix is exactly orthogonal."""
    return [
        SubmatrixLoc(rows=tuple(r + 1 for r in rows), cols=tuple(c + 1 for c in cols))
        for rows in TRIPLES
        for cols in TRIPLES
        if all(
            _orthogonal_exactly(K[a, list(cols)], K[b, list(cols)])
            for a, b in itertools.combinations(rows, 2)
        )
    ]


def exact_real_count(K):
    """An entry zeta^k is real iff k is 0 or 6."""
    return int(np.isin(K, (0, 6)).sum())


def exact_equivalent(KA, KB):
    """A ~ B iff some row order sigma and pivot column t make B's form, dephased
    at (sigma[0], t), equal A's dephased form mod 12, up to a column order.

    Dephasing absorbs every row and column phase, so only the permutations
    are searched: all sigma at once. Columns compare as base-12 codes.
    """
    d = len(KA)
    weights = 12 ** np.arange(d)
    A = KA - KA[:, :1] - KA[:1, :] + KA[0, 0]
    R = KB[np.array(list(itertools.permutations(range(d))))]  # R[p, j] = B's row sigma_p[j]
    # G[p, t, j, k] = R[p, j, k] - R[p, j, t] - R[p, 0, k] + R[p, 0, t]
    G = R[:, None] - R.transpose(0, 2, 1)[..., None] - R[:, None, :1] + R[:, 0, :, None, None]
    codes = np.sort(weights @ (G % 12), axis=-1)  # [p, t]: the sorted column codes
    return bool((codes == np.sort(weights @ (A % 12))).all(axis=-1).any())


# --- unscreened oracle for the equivalence search -----------------------------


def _complete_columns(ok, t, d):
    # Lexicographically smallest injective tau with tau[0]=t and
    # ok[k, tau[k]] for all k, by backtracking.
    used = [False] * d
    used[t] = True
    tau = [t]

    def extend(k):
        if k == d:
            return True
        for m in range(d):
            if not used[m] and ok[k, m]:
                used[m] = True
                tau.append(m)
                if extend(k + 1):
                    return True
                used[m] = False
                tau.pop()
        return False

    return tuple(tau) if extend(1) else None


def fitted_witness(A, B, sigma, tau, eps, rounds=3):
    """The witness for the proposal (sigma, tau) (0-based), if within eps of A.

    The library's fit, written out again: phases fitted to R = A / B[sigma, tau]
    by its first row and column, and, if that misses A by more than eps,
    refitted by `rounds` rounds of rank-1 phase averaging over all of R. The
    arithmetic is the library's, so a witness compares bit for bit.
    """
    Bp = B[np.ix_(sigma, tau)]
    R = A / Bp
    rho, gamma = R[:, 0], R[0, :] / R[0, 0]
    if np.abs(rho[:, None] * Bp * gamma[None, :] - A).max() > eps:
        for _ in range(rounds):
            gamma = R.T @ rho.conj()
            gamma /= np.abs(gamma)
            rho = R @ gamma.conj()
            rho /= np.abs(rho)
        if np.abs(rho[:, None] * Bp * gamma[None, :] - A).max() > eps:
            return None
    row_phases = np.empty(len(sigma), dtype=complex)
    col_phases = np.empty(len(tau), dtype=complex)
    row_phases[list(sigma)] = rho
    col_phases[list(tau)] = gamma
    return EquivalenceWitness(
        tuple(s + 1 for s in sigma), tuple(t + 1 for t in tau), row_phases, col_phases
    )


def brute_force_equivalence(A, B, eps=DEFAULT_TOL.eps, rounds=3):
    """Lexicographically smallest witness, trying every sigma and pivot column t.

    No signature screen and a backtracking column completion. Columns match
    at the library's proposal bound max(1e-7, 2*eps), and a proposal counts
    only if fitted_witness (the library's fit: first row and column, then
    `rounds` rounds over every entry, three in the library) is within eps of
    A entrywise.
    """
    A = as_matrix(A)
    B = as_matrix(B)
    d = A.shape[0]
    Ad = dephase(A, Tolerance(eps))
    atol = max(1e-7, 2 * eps)
    for sigma in itertools.permutations(range(d)):
        R = B[sigma, :]
        E = R / R[0, :]
        for t in range(d):
            T = Ad * E[:, t][:, None]
            diff = np.abs(E[:, None, :] - T[:, :, None]).max(axis=0)
            tau = _complete_columns(diff <= atol, t, d)
            witness = None if tau is None else fitted_witness(A, B, sigma, tau, eps, rounds)
            if witness is not None:
                return witness
    return None


def walk_oracle(forms, Ad, s, match, atol, deadline=None):
    """The equivalence walk with its live forms as lists of indices and one
    numpy broadcast per leaf form, for the library's integer-bitmask walk to
    match: the same (sigma, tau) sequence, and the budget read at each node."""
    d = len(Ad)
    cand = match.transpose(2, 1, 0).tolist()  # [k][j][n]
    stack = [((s,), [n for n in range(len(forms)) if cand[0][s][n]])]
    while stack:
        sigma, live = stack.pop()
        _check_deadline(deadline, sigma, d)
        k = len(sigma)
        if k < d:  # children pushed largest row first, so the smallest is walked first
            children = ((sigma + (j,), [n for n in live if cand[k][j][n]])
                        for j in reversed(range(d)) if j not in sigma)
            stack.extend(child for child in children if child[1])
            continue
        for n in live:
            # ok[k, c]: column c of the form, rows in sigma order, matches Ad's column k.
            ok = np.abs(forms[n][sigma, :][:, None, :] - Ad[:, :, None]).max(axis=0) <= atol
            if ok.any(axis=1).all():
                yield sigma, tuple(ok.argmax(axis=1).tolist())


def matrix_from_obj_oracle(obj):
    """The JSON object form of a matrix parsed entry by entry, each entry checked
    and stored alone; raises for the first fault in row-major order."""
    if not isinstance(obj, dict) or "d" not in obj or "entries" not in obj:
        raise InvalidMatrixError("matrix object must have d and entries")
    d = obj["d"]
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise InvalidMatrixError("d must be a positive integer")
    rows = obj["entries"]
    if not isinstance(rows, list) or len(rows) != d:
        raise NonSquareError(f"expected {d} rows, got {len(rows) if isinstance(rows, list) else 'non-list'}")
    out = np.empty((d, d), dtype=np.complex128)
    for j, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != d:
            raise NonSquareError(f"row {j + 1} does not have {d} entries")
        for k, e in enumerate(row):
            if not isinstance(e, dict) or set(e) != {"re", "im"}:
                raise InvalidMatrixError("matrix entry must be an object with re/im")
            re, im = e["re"], e["im"]
            if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (re, im)):
                raise InvalidMatrixError("matrix entry components must be numbers")
            try:
                z = complex(float(re), float(im))
            except OverflowError:
                z = complex(math.inf)
            if not cmath.isfinite(z):
                raise InvalidMatrixError("matrix entry components must be finite")
            out[j, k] = z
    return out


def gram_3x3_oracle(M):
    """[row triple, column triple] table of the largest row inner product modulus,
    summed per row triple: the products of its three row pairs, then their sums
    over every column triple, in the order the library sums them."""
    T = np.array(TRIPLES)
    X = M[T]  # [row triple, row, column]
    u = X[:, [0, 0, 1]] * X[:, [1, 2, 2]].conj()  # [row triple, row pair, column]
    return np.abs(u[..., T].sum(-1)).max(axis=1)
