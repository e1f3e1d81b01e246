"""Builders for the structured matrix families the workbench studies.

Every builder returns an immutable Matrix: its entries and its modulus context,
and nothing else.  The entries are one read-only square ndarray that the
builder makes in final form, so Matrix checks only its shape.  With a ModCtx
they are canonical residues: int64 below a modulus of 2**31 (a product of two
residues fits in int64), Python ints in an object array otherwise; in exact
mode (ctx=None), Python ints in an object array.  Engines read that array
directly.  Matrix files are the only outside input; read_matrix checks them.
"""

from __future__ import annotations

import enum
import math
import operator
import random
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .modnum import ModCtx, is_prime


class EntryKind(enum.Enum):
    """Cauchy-style off-diagonal terms 1/(j-k), (j+k)/(j-k), ..."""

    INV_DIFF = "invdiff"
    RATIO_SUM_DIFF = "ratiosumdiff"
    INV_DIFF_SQUARES = "invdiffsquares"
    RATIO_SUM_SQUARES = "ratiosumsquares"


#: moduli below this store residues as int64, so a product of two fits in int64
INT64_MODULUS_LIMIT = 2**31

#: the largest order any builder makes; larger requests are refused before allocating
MAX_ORDER = 2048

#: the most bits exact-mode builder entries may take, estimated before building
MAX_EXACT_BITS = 2**29


def _check_order(n: int, what: str = "order") -> None:
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"{what} must be in 1..{MAX_ORDER}, got {n}")


def _check_exact_bits(bits: int, remedy: str) -> None:
    """Refuse an exact-mode build whose entries would take more than MAX_EXACT_BITS bits."""
    if bits > MAX_EXACT_BITS:
        raise ValueError(f"exact entries would take about {bits} bits, "
                         f"more than {MAX_EXACT_BITS}; {remedy}")


def entry_dtype(ctx: ModCtx | None) -> np.dtype:
    """int64 for a modulus below INT64_MODULUS_LIMIT, object (Python ints) otherwise."""
    if ctx is not None and ctx.modulus < INT64_MODULUS_LIMIT:
        return np.dtype(np.int64)
    return np.dtype(object)


@dataclass(frozen=True, eq=False)
class Matrix:
    """Square matrix with an optional modulus context.

    entries becomes a read-only n x n ndarray of dtype entry_dtype(ctx), n >= 1,
    without a copy if it has that dtype.  Only the shape is checked: builders
    hand over canonical residues (plain ints in object arrays) and read_matrix
    checks matrix files.  Equality is identity: compare entries explicitly.
    """

    entries: np.ndarray
    ctx: ModCtx | None

    @property
    def n(self) -> int:
        """The order: the number of rows of entries."""
        return len(self.entries)

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=entry_dtype(self.ctx))
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("entries are not an n x n grid")
        if not len(a):
            raise ValueError("order must be >= 1, got 0")
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)


def checkerboard_support(n: int) -> np.ndarray:
    """Cells (0-based) that may be nonzero: 1-based i+j odd, or i+j == 2."""
    s = np.add.outer(np.arange(n), np.arange(n))
    return (s % 2 == 1) | (s == 0)


# ---------------------------------------------------------------------------
# builders


def _pow_mod_array(base: np.ndarray, e: int, m: int) -> np.ndarray:
    """Square-and-multiply on an int64 array; caller guarantees m*m < 2**62."""
    result = np.ones_like(base)
    base = base % m
    while e:
        if e & 1:
            result = result * base % m
        base = base * base % m
        e >>= 1
    return result


def quad_form_matrix(
    p_or_n: int,
    c: int,
    d: int,
    index_range: str,
    exponent: int,
    ctx: ModCtx | None,
) -> Matrix:
    """Matrix of (i^2 + c*i*j + d*j^2) ** exponent over a square index grid.

    index_range selects the grid: "full0" uses 0..N-1, "from1" uses 1..N-1
    (so the order is N-1).  With a ctx the power is taken mod ctx.modulus;
    zero bases are legal (the power map realizes reciprocals as x**(N-2), and
    0 simply maps to 0).  In exact mode the power is an exact integer.
    """
    if index_range not in ("full0", "from1"):
        raise ValueError(f"index_range must be 'full0' or 'from1', got {index_range!r}")
    if exponent < 1:
        raise ValueError(f"exponent must be >= 1, got {exponent}")
    start = 0 if index_range == "full0" else 1
    n = p_or_n - start
    if n < 1:
        raise ValueError(f"empty index range for p_or_n = {p_or_n}")
    _check_order(n)
    if ctx is None:
        bits = n * n * exponent * ((1 + abs(c) + abs(d)) * (p_or_n - 1) ** 2).bit_length()
        _check_exact_bits(bits, "give a modulus")
    idx = np.arange(start, p_or_n).astype(entry_dtype(ctx))
    m = None if ctx is None else ctx.modulus
    sq = idx * idx
    if m is not None:  # then sq < 2**31, c*i*j < 2**53 and d*sq < 2**62: the int64 sum is exact
        c, d, sq = c % m, d % m, sq % m
    base = sq[:, None] + c * np.outer(idx, idx) + d * sq[None, :]
    if idx.dtype == np.int64:
        return Matrix(_pow_mod_array(base, exponent, m), ctx)
    return Matrix(np.frompyfunc(pow, 3, 1)(base, exponent, m), ctx)


def _ratio_matrix(num: np.ndarray | None, den: np.ndarray, ctx: ModCtx) -> Matrix:
    """Matrix [num / den mod m] for an int64 grid den of exact denominators.

    num is None for all ones, or an int64 grid of the same shape below 2**31
    in absolute value, so that its int64 products with residues fit.  Each
    distinct denominator is inverted once, into a table indexed by
    den - den.min() (or by den mod m, when that leaves fewer slots).  The
    first non-unit cell in row-major order raises ValueError: "denominator d
    at (j=row, k=col) is not a unit mod m (gcd = g)", 1-based.
    """
    m = ctx.modulus
    lo = int(den.min())
    if int(den.max()) - lo < m:
        key = den - lo
    else:
        key, lo = den % m, 0
    present = np.flatnonzero(np.bincount(key.ravel()))
    table = np.zeros(int(present[-1]) + 1, dtype=entry_dtype(ctx))
    inverses = [_inv_or_zero(v + lo, m) for v in present.tolist()]
    table[present] = inverses
    cells = table[key]
    if 0 in inverses:  # 0 is never an inverse, so it marks the non-units
        j, k = divmod(int(np.argmax(cells == 0)), len(den))
        bad = int(den[j, k])
        raise ValueError(f"denominator {bad} at (j={j + 1}, k={k + 1}) is not a unit "
                         f"mod {m} (gcd = {math.gcd(bad, m)})")
    return Matrix(cells if num is None else num * cells % m, ctx)


def _inv_or_zero(x: int, m: int) -> int:
    try:
        return pow(x, -1, m)
    except ValueError:
        return 0


#: (numerator, denominator) of each Cauchy-style term at (j, k)
_CAUCHY_TERMS = {
    EntryKind.INV_DIFF: lambda j, k: (1, j - k),
    EntryKind.RATIO_SUM_DIFF: lambda j, k: (j + k, j - k),
    EntryKind.INV_DIFF_SQUARES: lambda j, k: (1, j * j - k * k),
    EntryKind.RATIO_SUM_SQUARES: lambda j, k: (j * j + k * k, j * j - k * k),
}


def cauchy_type_matrix(kind: EntryKind, size: int, diagonal: str, ctx: ModCtx) -> Matrix:
    """Order-`size` matrix over indices 1..size with Cauchy-style off-diagonal terms.

    diagonal is "zero" or "one".  Index sets larger than the denominators can
    support (e.g. 1..p-1 for a squares kind mod p, where j + k = p makes
    j^2 - k^2 vanish) raise ValueError, as does a bad kind, diagonal, size or ctx.
    """
    if kind not in _CAUCHY_TERMS:
        raise ValueError(f"{kind} is not a Cauchy-style entry kind")
    if diagonal not in ("zero", "one"):
        raise ValueError(f"diagonal must be 'zero' or 'one', got {diagonal!r}")
    _check_order(size, "size")
    if ctx is None:
        raise ValueError("cauchy-style kinds need a modulus context (entries are inverses)")
    j = np.arange(1, size + 1, dtype=np.int64)[:, None]
    num, den = _CAUCHY_TERMS[kind](j, j.T)
    num = np.broadcast_to(num, den.shape).copy()
    np.fill_diagonal(num, 0 if diagonal == "zero" else 1)
    np.fill_diagonal(den, 1)
    return _ratio_matrix(num, den, ctx)


def inverse_form_matrix(p: int, which: str) -> Matrix:
    """Inverse-quadratic-form matrices mod a prime p.

    which = "half_range_sq":  [1/(i^2 + j^2)]       over 1..(p-1)/2
    which = "full_range_ij":  [1/(i^2 - i*j + j^2)] over 1..p-1

    Denominators are units exactly under the residue classes where these
    families are studied (p = 3 mod 4, resp. p = 2 mod 3); outside them the
    builder raises ValueError, as it does for a p that is not an odd prime.

    Mod p, 1/x = x^(p-2), so the full-range matrix is the quadratic-form power
    grid with (c, d) = (-1, 1) over 1..p-1.  Its det is stated through its
    Legendre symbol, (det/p) = (2/p); the half-range det is stated as a
    residue, det = (2/p) (mod p).
    """
    if not is_prime(p) or p == 2:
        raise ValueError(f"needs an odd prime, got {p}")
    if which == "half_range_sq":
        size, cross = (p - 1) // 2, 0
    elif which == "full_range_ij":
        size, cross = p - 1, -1
    else:
        raise ValueError(f"which must be 'half_range_sq' or 'full_range_ij', got {which!r}")
    _check_order(size)
    idx = np.arange(1, size + 1, dtype=np.int64)
    den = (idx[:, None] ** 2 + cross * np.outer(idx, idx) + idx[None, :] ** 2) % p
    return _ratio_matrix(None, den, ModCtx(p))


def prime_indicator_matrix(n: int) -> Matrix:
    """0/1 matrix with 1 at (i, j) iff i + j is prime (1-based indices)."""
    _check_order(n)
    prime = np.array([is_prime(s) for s in range(2 * n + 1)], dtype=np.int64)
    idx = np.arange(1, n + 1)
    return Matrix(prime[np.add.outer(idx, idx)], None)


def _random_support_walk(n: int, seed: int, mirror: int | None) -> Matrix:
    """Random ints in [-9, 9] on checkerboard_support(n), drawn in row-major order.

    With mirror None every cell is drawn.  Otherwise a cell below the diagonal
    is mirror times the cell above it, and mirror -1 leaves the diagonal zero.
    """
    _check_order(n)
    rng = random.Random(seed)
    i, j = np.indices((n, n))
    drawn = checkerboard_support(n) & (j - i >= {None: -n, 1: 0, -1: 1}[mirror])
    a = np.zeros((n, n), dtype=object)
    a[drawn] = [rng.randint(-9, 9) for _ in range(np.count_nonzero(drawn))]
    return Matrix(a if mirror is None else a + mirror * np.triu(a, 1).T, None)


def random_checkerboard_matrix(n: int, seed: int, symmetric: bool = False) -> Matrix:
    """Random exact-integer matrix supported on the checkerboard pattern.

    Entries are small ints in [-9, 9]; cells with i+j even (except (1,1)) are
    zero.  With symmetric=True the matrix equals its transpose.
    """
    return _random_support_walk(n, seed, 1 if symmetric else None)


def random_skew_checkerboard_matrix(m: int, seed: int) -> Matrix:
    """Random skew-symmetric checkerboard-supported matrix of even order 2m."""
    return _random_support_walk(2 * m, seed, -1)


def poly_eval_matrix(coeffs: Sequence[Sequence[int]], n: int) -> Matrix:
    """Matrix [P(i, j)] over 1 <= i, j <= n for an integer polynomial P.

    coeffs[k][l] is the coefficient of x**k * j**l, so P(x, j) =
    sum_k (sum_l coeffs[k][l] * j**l) * x**k.  The x-degree must be strictly
    less than n - 1 (that is what forces the determinant to vanish).
    """
    if n < 2:
        raise ValueError(f"order must be >= 2, got {n}")
    _check_order(n)
    try:
        table = np.zeros((len(coeffs), max(map(len, coeffs), default=0)), dtype=object)
        for k, row in enumerate(coeffs):
            if any(isinstance(cl, bool) for cl in row):  # operator.index(True) is 1
                raise TypeError
            table[k, :len(row)] = [operator.index(cl) for cl in row]
    except TypeError:
        raise ValueError("coeffs must be a list of lists of integers") from None
    rows, width = table.shape
    if not rows:
        raise ValueError("coeffs must contain at least one coefficient row")
    x_degree = int(max(np.flatnonzero((table != 0).any(axis=1)), default=-1))
    if x_degree > n - 2:
        raise ValueError(f"x-degree {x_degree} is not < n-1 = {n - 1}")
    # |P(i, j)| <= (sum of |coeffs|) * n**((rows - 1) + (width - 1))
    bound = np.abs(table).sum() * n ** (rows - 1 + max(width - 1, 0))
    _check_exact_bits(n * n * bound.bit_length(), "lower n or the degrees")
    i = np.arange(1, n + 1).astype(object)
    return Matrix(np.vander(i, rows, increasing=True) @ table
                  @ np.vander(i, width, increasing=True).T, None)


# ---------------------------------------------------------------------------
# plain-text matrix format: first line "n m" (m = 0 means exact integers),
# then n lines of n entries.


def write_matrix(matrix: Matrix, fh: IO[str]) -> None:
    m = 0 if matrix.ctx is None else matrix.ctx.modulus
    fh.write(f"{matrix.n} {m}\n")
    for row in matrix.entries.tolist():
        fh.write(" ".join(str(x) for x in row) + "\n")


def read_matrix(fh: IO[str]) -> Matrix:
    header = fh.readline().split()
    if len(header) != 2:
        raise ValueError("header must be 'n m'")
    n, m = int(header[0]), int(header[1])
    _check_order(n)
    if m < 0:
        raise ValueError(f"modulus must be >= 0, got {m}")
    ctx = None if m == 0 else ModCtx(m)
    rows = []
    for i in range(n):
        parts = fh.readline().split()
        if len(parts) != n:
            raise ValueError(f"row {i + 1}: expected {n} entries, got {len(parts)}")
        rows.append([int(x) for x in parts])
    for line in fh:
        if line.strip():
            raise ValueError(f"unexpected line after row {n}: {line.strip()!r}")
    a = np.array(rows, dtype=object)
    if m:
        bad = (a < 0) | (a >= m)
        if bad.any():
            raise ValueError(f"entry {a[bad][0]} is not a canonical residue mod {m}")
    return Matrix(a, ctx)
