"""Determinant and permanent engines.

Four independent routes are kept deliberately separate so they can cross-check
one another: elimination over Z/m (any odd modulus; det_field is its name for
primes), fraction-free exact elimination over Z (the reference, reducible mod
anything), brute-force permutation sums (n <= 9: one pass over a table of
all n! permutations in itertools order, signed by inversion count), and
Ryser's subset inclusion-exclusion for permanents (one Gray-code walk over Z,
reduced mod m only after its exact division).  A checkerboard factorization
engine reduces supported matrices to two half-size problems.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from .matgen import Matrix, checkerboard_support
from .modnum import ModCtx, is_prime

#: the largest permanent order per_ryser takes (2**27 row-sum updates)
RYSER_CAP = 28

NAIVE_LIMIT = 9

_INT64_SAFE = 2**62


# ---------------------------------------------------------------------------
# determinants


def det_mod(matrix: Matrix) -> int:
    """Determinant mod any odd modulus m, by elimination over Z/m.

    Needs no factorisation of m.  Works on a copy of the entries, which are
    canonical residues in the Matrix dtype for this modulus: int64 below 2**31
    (products stay below 2**62), exact Python ints otherwise.  Returns 0 as
    soon as the running det is 0.
    """
    if matrix.ctx is None:
        raise ValueError("det_mod needs a modulus context")
    m = matrix.ctx.modulus
    a = matrix.entries.copy()
    n = matrix.n
    det = 1
    for k in range(n):
        r = _pivot_row(a, k, m)
        if r is None:
            return 0
        if r != k:
            a[[k, r]] = a[[r, k]]
            det = -det
        pivot = int(a[k, k])
        det = det * pivot % m
        if det == 0:
            return 0
        if k + 1 < n and math.gcd(pivot, m) == 1:
            factors = a[k + 1 :, k] * pow(pivot, -1, m) % m
            a[k + 1 :, k:] = (a[k + 1 :, k:] - factors[:, None] * a[k, k:]) % m
    return det


def _pivot_row(a: np.ndarray, k: int, m: int) -> int | None:
    """Row at or below k to pivot on in column k, or None if that column is 0.

    A unit is taken as it is.  With no unit, Euclidean row steps
    row_i -= (a_ik // a_rk) * row_r, unimodular over Z and never wrapping
    around m in column k, run until one nonzero entry is left there.
    """
    while True:
        nonzero = a[k:, k].nonzero()[0]
        if len(nonzero) == 0:
            return None
        first = k + int(nonzero[0])
        if math.gcd(int(a[first, k]), m) == 1:
            return first
        rows = k + nonzero
        col = a[rows, k]
        units = rows[np.gcd(col, m) == 1]
        if len(units) or len(rows) == 1:
            return int(units[0] if len(units) else rows[0])
        r = rows[np.argmin(col)]
        rest = rows[rows != r]
        q = a[rest, k] // a[r, k]
        a[rest, k:] = (a[rest, k:] - q[:, None] * a[r, k:]) % m


def det_field(matrix: Matrix) -> int:
    """Determinant mod a prime: det_mod restricted to prime moduli.

    Raises ValueError unless is_prime proves the modulus prime.
    """
    if matrix.ctx is None or not is_prime(matrix.ctx.modulus):
        raise ValueError("det_field needs a prime modulus context")
    return det_mod(matrix)


def det_exact(matrix: Matrix, reduce_ctx: ModCtx | None = None) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination over Z.

    Residue entries are lifted to their canonical representatives.  With
    reduce_ctx the exact value is reduced to a canonical residue at the end.
    This is the exact reference that det_mod is checked against.
    """
    a = matrix.entries.tolist()
    n = matrix.n
    sign = 1
    prev = 1
    for k in range(n - 1):
        r = next((i for i in range(k, n) if a[i][k]), None)
        if r is None:
            return 0
        if r != k:
            a[k], a[r] = a[r], a[k]
            sign = -sign
        akk = a[k][k]
        for i in range(k + 1, n):
            ai, ak = a[i], a[k]
            aik = ai[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * akk - aik * ak[j]) // prev
            ai[k] = 0
        prev = akk
    det = sign * a[n - 1][n - 1]
    return det if reduce_ctx is None else det % reduce_ctx.modulus


# ---------------------------------------------------------------------------
# brute force over all n! permutations (the small-n oracle engines)


_PERM_TABLES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _perm_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _PERM_TABLES:
        perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
        inversions = np.zeros(len(perms), dtype=np.int64)
        for i in range(n):
            for j in range(i + 1, n):
                inversions += perms[:, i] > perms[:, j]
        signs = 1 - 2 * (inversions & 1)
        _PERM_TABLES[n] = (perms, signs)
    return _PERM_TABLES[n]


def _naive_sum(matrix: Matrix, signed: bool) -> int:
    n = matrix.n
    if n > NAIVE_LIMIT:
        raise ValueError(
            f"naive engines stop at n = {NAIVE_LIMIT} ({math.factorial(NAIVE_LIMIT)} "
            f"permutations); got n = {n}"
        )
    perms, signs = _perm_table(n)
    # int64 when every permutation product (and their sum) fits, Python ints otherwise
    fits = int(abs(matrix.entries).max()) ** n * math.factorial(n) < _INT64_SAFE
    a = matrix.entries.astype(np.int64 if fits else object)
    prods = a[np.arange(n)[None, :], perms].prod(axis=1)
    total = int((prods * signs).sum()) if signed else int(prods.sum())
    return total if matrix.ctx is None else total % matrix.ctx.modulus


def det_naive(matrix: Matrix) -> int:
    """Signed sum over all n! permutations; n > NAIVE_LIMIT = 9 raises ValueError."""
    return _naive_sum(matrix, signed=True)


def per_naive(matrix: Matrix) -> int:
    """Unsigned sum over all n! permutations; n > NAIVE_LIMIT = 9 raises ValueError."""
    return _naive_sum(matrix, signed=False)


# ---------------------------------------------------------------------------
# permanent via subset inclusion-exclusion


def per_ryser(matrix: Matrix) -> int:
    """Permanent by Ryser's inclusion-exclusion over 2**(n-1) column subsets.

    One exact walk over Z (_ryser_sum) runs on the entries as integers, which
    for a modular matrix are the canonical lifts of its residues, and returns
    2**(n-1) times the permanent.  The one finish divides that exactly, checks
    the remainder, and reduces mod m if the matrix has a modulus: the
    permanent is an integer polynomial in the entries, so per(lift) mod m is
    the permanent over Z/m.  Orders above RYSER_CAP raise ValueError.
    """
    n = matrix.n
    if n > RYSER_CAP:
        raise ValueError(
            f"permanent of order {n} exceeds the cap {RYSER_CAP} "
            f"(would need 2**{n - 1} = {2 ** (n - 1)} row-sum updates)"
        )
    total = _ryser_sum(matrix.entries.tolist(), n)
    quotient, remainder = divmod(total, 1 << (n - 1))
    if remainder:
        raise ArithmeticError(f"inclusion-exclusion sum {total} is not divisible by 2**{n - 1}")
    return quotient if matrix.ctx is None else quotient % matrix.ctx.modulus


def _ryser_sum(rows: list[list[int]], n: int) -> int:
    """Sum of (-1)**(n-|S|) * prod_i (2*r_i - t_i) over subsets S of the first n-1 columns.

    r holds the row sums over S and t the full row sums.  S runs in Gray-code
    order from the empty set: step k moves column j, the lowest set bit of k,
    into S (out of it when bit j+1 of k is set), so s = 2r - t moves by twice
    that column and |S| has the parity of k.
    """
    s = [-sum(row) for row in rows]
    steps = [[2 * a for a in col] for col in zip(*rows)]
    total = math.prod(s)
    for k in range(1, 1 << (n - 1)):
        j = (k & -k).bit_length() - 1
        s = list(map(operator.sub if k >> (j + 1) & 1 else operator.add, s, steps[j]))
        total += -math.prod(s) if k & 1 else math.prod(s)
    return -total if n & 1 else total


# ---------------------------------------------------------------------------
# checkerboard factorization


def checkerboard_violations(matrix: Matrix) -> np.ndarray:
    """Boolean mask of the cells that break the support rule: nonzero with 1-based i+j even > 2."""
    return ~checkerboard_support(matrix.n) & (matrix.entries != 0)


def _half_det(half: Matrix) -> int:
    return det_exact(half) if half.ctx is None else det_mod(half)


def factor_checkerboard(matrix: Matrix, mode: str) -> int:
    """det or per of a checkerboard-supported matrix via its two half blocks.

    Order n = 2m:   per(A) = per(B) * per(C),      det(A) = (-1)**m * det(B) * det(C)
    Order n = 2m+1: per(A) = a11 * per(B) * per(C) and the det analogue, where
    B takes even rows against odd columns and C the complementary block.  The
    halves are computed with the plain engines (no nested factorization).
    A nonzero entry off the support raises ValueError naming the first eight
    such cells (1-based) and how many more there are.
    """
    if mode not in ("det", "per"):
        raise ValueError(f"mode must be 'det' or 'per', got {mode!r}")
    bad = np.argwhere(checkerboard_violations(matrix)) + 1
    if len(bad):
        shown = ", ".join(f"({i},{j})" for i, j in bad[:8].tolist())
        more = f" and {len(bad) - 8} more" if len(bad) > 8 else ""
        raise ValueError(f"nonzero entries off the checkerboard support at {shown}{more}")
    n = matrix.n
    a = matrix.entries
    a11 = int(a[0, 0])
    if n == 1:
        return a11 if matrix.ctx is None else a11 % matrix.ctx.modulus
    m, odd = divmod(n, 2)
    # 0-based: even 1-based rows -> 1,3,..;  odd 1-based cols -> 0,2,.. (2,4,.. past a11)
    b, c = Matrix(a[1::2, 2 * odd::2], matrix.ctx), Matrix(a[2 * odd::2, 1::2], matrix.ctx)
    scale = a11 if odd else 1
    if mode == "per":
        value = scale * per_ryser(b) * per_ryser(c)
    else:
        value = scale * _half_det(b) * _half_det(c)
        if m % 2 == 1:
            value = -value
    return value if matrix.ctx is None else value % matrix.ctx.modulus
