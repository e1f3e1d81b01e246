import math
import random

import pytest

from congruence_lab.detper import det_field
from congruence_lab.matgen import Matrix, quad_form_matrix
from congruence_lab.modnum import ModCtx, inv_mod, is_prime


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def make_matrix(n, rng, *, ctx=None, lo=-9, hi=9):
    """Random dense matrix; entries canonical mod ctx.modulus when ctx is given."""
    if ctx is None:
        rows = tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(n))
    else:
        rows = tuple(tuple(rng.randrange(ctx.modulus) for _ in range(n)) for _ in range(n))
    return Matrix(rows, ctx)


def lift(matrix):
    """The same entries viewed as plain integers (exact mode)."""
    return Matrix(matrix.entries, None)


def subfactorial(n):
    """Number of derangements of n (for counting cross-checks)."""
    if n == 0:
        return 1
    if n == 1:
        return 0
    a, b = 1, 0  # D(0), D(1)
    for k in range(2, n + 1):
        a, b = b, (k - 1) * (a + b)
    return b


def is_perfect_square(x):
    """True iff x = y*y for some integer y (exact integer sqrt + final check)."""
    if x < 0:
        return False
    y = math.isqrt(x)
    return y * y == x


def harmonic2_mod(p):
    """Sum of inv(i)^2 for i = 1..p-1, mod p (vanishes for every prime p > 3)."""
    if not is_prime(p) or p == 2:
        raise ValueError(f"needs an odd prime, got {p}")
    return sum(inv_mod(i, p) ** 2 for i in range(1, p)) % p


def units_grid_det_by_elimination(p, c, d, order=None):
    """D_p(c, d) by building the order-(p-1) units-grid matrix and eliminating mod p.

    With order, det[(1 + c*y/x + d*(y/x)^2)^(p-2)] over x, y in the subgroup of
    the units of that order, built entry by entry and eliminated mod p.
    """
    if order is None:
        return det_field(quad_form_matrix(p, c, d, "from1", p - 2, ModCtx.prime(p)))
    group = [x for x in range(1, p) if pow(x, order, p) == 1]
    rows = [[pow(1 + c * t + d * t * t, p - 2, p) for t in (y * inv_mod(x, p) % p for y in group)]
            for x in group]
    return det_field(Matrix(rows, ModCtx.prime(p)))


def units_grid_det_by_recurrence(p, c, d):
    """D_p(c, d) as the product of the folded coefficients of 1/f^2, found one term at a time."""
    c, d = c % p, d % p
    a1, a2, a3, a4 = 2 * c, c * c + 2 * d, 2 * c * d, d * d  # f^2 = 1 + a1*t + ... + a4*t^4
    h = [0, 0, 0, 1]  # coefficients of 1/f^2 from t^-3 on, so h_n is h[n + 3]
    for _ in range(2 * p - 3):  # to t^(2p-3), one past the degree of g, where the fold reads 0
        h.append(-(a1 * h[-1] + a2 * h[-2] + a3 * h[-3] + a4 * h[-4]) % p)
    det = 1
    for k in range(p - 1):  # b_k = g_k + g_(k+p-1), with g_n = h_n + c*h_(n-p)
        det = det * (h[k + 3] + h[k + p + 2] + c * h[k + 2]) % p
        if det == 0:
            break
    return det


def column_relation_by_matrix(p, c, d):
    """Columns j of the full-grid matrix a over 0..p-1 with w*a[0][j] + sum(a[1:, j]) = 0 mod p.

    The matrix is built and every column summed; w = 1 - 2*d*(c*c - 4*d)**((p-3)//2).
    """
    a = quad_form_matrix(p, c, d, "full0", p - 2, ModCtx.prime(p)).entries
    weight = (1 - 2 * d * pow(c * c - 4 * d, (p - 3) // 2, p)) % p
    return int(((weight * a[0] + a[1:].sum(axis=0)) % p == 0).sum())


SMALL_PRIMES = (3, 5, 7, 11, 13)


@pytest.fixture(params=SMALL_PRIMES)
def small_prime_ctx(request):
    return ModCtx.prime(request.param)


#: one line per acceptance criterion, echoed in the terminal summary
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
