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


def units_grid_det_by_elimination(p, c, d):
    """D_p(c, d) by building the order-(p-1) units-grid matrix and eliminating mod p."""
    matrix = quad_form_matrix(p, c, d, "from1", p - 2, ModCtx.prime(p))
    return det_field(matrix)


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
