"""Determinant and permanent engines, checkerboard factorization."""

import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congruence_lab import cli, detper, matgen
from congruence_lab.detper import (
    checkerboard_violations,
    det_exact,
    det_field,
    det_naive,
    factor_checkerboard,
    per_naive,
    per_ryser,
)
from congruence_lab.matgen import Matrix, prime_indicator_matrix
from congruence_lab.modnum import ModCtx, is_prime

from conftest import is_perfect_square, lift, make_matrix, subfactorial

REMARK = Matrix(((0, 1, 4), (1, 3, 7), (4, 7, 12)), None)


def exact(rows):
    rows = tuple(tuple(r) for r in rows)
    return Matrix(rows, None)


def modular(rows, m):
    rows = tuple(tuple(x % m for x in r) for r in rows)
    return Matrix(rows, ModCtx(m))


# ---------------------------------------------------------------------------
# determinants: frozen values


def test_det_exact_remark_matrix():
    assert det_exact(REMARK) == -4


def test_det_exact_1x1():
    assert det_exact(exact([[17]])) == 17
    assert det_exact(exact([[-4]])) == -4


def test_det_field_identity():
    m = modular([[1, 0], [0, 1]], 7)
    assert det_field(m) == 1


def test_det_field_remark_mod_3():
    m = modular(REMARK.entries, 3)
    assert det_field(m) == 2  # -4 = 2 (mod 3)


def test_det_equal_rows_vanishes():
    m = modular([[1, 2, 3], [4, 5, 6], [1, 2, 3]], 11)
    assert det_field(m) == 0
    assert det_exact(exact([[1, 2], [1, 2]])) == 0


def test_det_field_requires_prime_ctx():
    with pytest.raises(ValueError):
        det_field(exact([[1]]))
    with pytest.raises(ValueError):
        det_field(modular([[1, 2], [3, 4]], 9))


def test_det_field_python_fallback_for_wide_prime():
    # primes at/above 2**31 store Python ints; the same kernel runs on them exactly
    p = 2**31 + 11
    assert is_prime(p)
    rows = [[(i * 31 + j * 17 + 5) % p for j in range(4)] for i in range(4)]
    m = Matrix(rows, ModCtx.prime(p))
    expected = det_naive(lift(m)) % p
    assert det_field(m) == expected


def test_det_exact_reduce_ctx_routes_composites():
    rows = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
    d = det_naive(exact(rows))
    for m in (9, 15, 343):
        got = det_exact(exact(rows), reduce_ctx=ModCtx(m))
        assert got == d % m


# ---------------------------------------------------------------------------
# permanents: frozen values


def test_per_all_ones_is_factorial():
    m = exact([[1, 1, 1]] * 3)
    assert per_naive(m) == 6
    assert per_ryser(m) == 6


def test_per_zero_diagonal_ones_counts_derangements():
    m = exact([[0 if i == j else 1 for j in range(3)] for i in range(3)])
    assert per_naive(m) == 2
    m5 = exact([[0 if i == j else 1 for j in range(5)] for i in range(5)])
    assert per_ryser(m5) == 44


def test_per_2x2_formula():
    assert per_naive(exact([[3, 5], [7, 11]])) == 3 * 11 + 5 * 7
    assert per_ryser(exact([[3, 5], [7, 11]])) == 68


def test_per_3x3_frozen():
    m = exact([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert per_naive(m) == 463
    assert per_ryser(m) == 463
    assert det_naive(m) == -3


def test_per_1x1():
    assert per_naive(exact([[42]])) == 42
    assert per_ryser(exact([[42]])) == 42


# ---------------------------------------------------------------------------
# engine cross-agreement


@given(st.integers(0, 10**6), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_engines_agree_exact(seed, n):
    import random

    r = random.Random(seed)
    m = make_matrix(n, r)
    d = det_naive(m)
    assert det_exact(m) == d
    p = per_naive(m)
    assert per_ryser(m) == p


@given(st.integers(0, 10**6), st.integers(1, 6), st.sampled_from([3, 7, 25, 27, 33, 101]))
@settings(max_examples=60, deadline=None)
def test_engines_agree_modular(seed, n, mod):
    import random

    r = random.Random(seed)
    ctx = ModCtx(mod)
    m = make_matrix(n, r, ctx=ctx)
    d = det_naive(lift(m)) % mod
    assert det_exact(lift(m), reduce_ctx=ctx) == d
    if is_prime(mod):
        assert det_field(m) == d
    assert per_ryser(m) == per_naive(lift(m)) % mod


def test_naive_limit():
    m = exact([[1] * 10 for _ in range(10)])
    with pytest.raises(ValueError,
                       match=r"^naive engines stop at n = 9 \(362880 permutations\); got n = 10$"):
        det_naive(m)
    with pytest.raises(ValueError,
                       match=r"^naive engines stop at n = 9 \(362880 permutations\); got n = 10$"):
        per_naive(m)


def test_naive_numpy_path_matches_python_path(rng):
    # small entries take the int64 products; big ones overflow int64 and take
    # the same permutation table with Python-int products
    big = make_matrix(6, rng, lo=-10**9, hi=10**9)
    small = Matrix(big.entries % 97, None)
    assert det_naive(small) == det_exact(small)
    assert det_naive(big) == det_exact(big)
    assert per_naive(big) == per_ryser(big)


# ---------------------------------------------------------------------------
# Ryser caps


def test_ryser_cap_explicit():
    assert detper.RYSER_CAP == 28
    m = exact([[0] * 29 for _ in range(29)])
    with pytest.raises(ValueError, match=r"^permanent of order 29 exceeds the cap 28 "
                                         r"\(would need 2\*\*28 = 268435456 row-sum updates\)$"):
        per_ryser(m)
    m = exact([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert per_ryser(m) == per_naive(m)


def test_ryser_hard_limit_not_overridable():
    # the cap is a constant: per_ryser takes no keyword that moves it
    m = exact([[0] * 33 for _ in range(33)])
    with pytest.raises(TypeError):
        per_ryser(m, cap=100)
    with pytest.raises(ValueError, match=r"^permanent of order 33 exceeds the cap 28 "
                                         r"\(would need 2\*\*32 = 4294967296 row-sum updates\)$"):
        per_ryser(m)


def test_ryser_exact_division_check_raises(monkeypatch):
    # an inclusion-exclusion total that 2**(n-1) does not divide is an error
    # that survives python -O, not an assert
    monkeypatch.setattr(detper, "_ryser_sum", lambda *args: 1)
    with pytest.raises(ArithmeticError, match="not divisible by 2\\*\\*2"):
        per_ryser(exact([[1, 2, 3], [4, 5, 6], [7, 8, 10]]))
    # a modular matrix takes the same exact division before its reduction
    with pytest.raises(ArithmeticError, match="not divisible by 2\\*\\*2"):
        per_ryser(modular([[1, 2, 3], [4, 5, 6], [7, 8, 10]], 9))


# ---------------------------------------------------------------------------
# Ryser above the naive engines' reach (n > NAIVE_LIMIT)

BEYOND_NAIVE = range(10, 19)


@pytest.mark.parametrize("n", BEYOND_NAIVE)
def test_per_ryser_closed_forms(n):
    ones = [[1] * n for _ in range(n)]
    assert per_ryser(exact(ones)) == math.factorial(n)
    derangements = [[int(i != j) for j in range(n)] for i in range(n)]
    assert per_ryser(exact(derangements)) == subfactorial(n)
    # (m-1)*J = -J over Z/m, at the int64 storage boundary and past it
    for m in (2**31 - 1, 2**61 - 1):
        assert per_ryser(modular([[-1] * n] * n, m)) == (-1) ** n * math.factorial(n) % m


def _checkerboard_rows(n, rng, m=None):
    support = matgen.checkerboard_support(n)
    draw = (lambda: rng.randint(-9, 9)) if m is None else (lambda: rng.randrange(m))
    return [[draw() if support[i, j] else 0 for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("n", BEYOND_NAIVE)
@pytest.mark.parametrize("m", [None, 2**61 - 1])
def test_per_ryser_matches_naive_on_checkerboard_halves(n, m, rng):
    # per(A) = scale * per(B) * per(C) on the half blocks, each of order <= 9,
    # so the expected value comes from per_naive alone
    rows = _checkerboard_rows(n, rng, m)
    ctx = None if m is None else ModCtx(m)
    if n % 2 == 0:
        b = [r[0::2] for r in rows[1::2]]
        c = [r[1::2] for r in rows[0::2]]
        scale = 1
    else:
        b = [r[2::2] for r in rows[1::2]]
        c = [r[1::2] for r in rows[2::2]]
        scale = rows[0][0]
    halves = [per_naive(Matrix(h, ctx)) for h in (b, c)]
    expected = scale * halves[0] * halves[1]
    if m is not None:
        expected %= m
    assert per_ryser(Matrix(rows, ctx)) == expected


# ---------------------------------------------------------------------------
# checkerboard factorization


def test_checkerboard_2x2_formulas():
    m = exact([[5, 3], [7, 0]])
    assert not checkerboard_violations(m).any()
    assert factor_checkerboard(m, "per") == 3 * 7
    assert factor_checkerboard(m, "det") == -3 * 7


def test_checkerboard_3x3_zero_corner():
    rows = [[0, 2, 0], [3, 0, 4], [0, 5, 0]]
    m = exact(rows)
    assert factor_checkerboard(m, "det") == 0
    assert factor_checkerboard(m, "per") == 0
    assert det_naive(m) == 0 and per_naive(m) == 0


def test_checkerboard_violations_lists_cells():
    m = exact([[1, 2], [3, 4]])
    assert checkerboard_violations(m).tolist() == [[False, False], [False, True]]
    with pytest.raises(ValueError,
                       match=r"^nonzero entries off the checkerboard support at \(2,2\)$"):
        factor_checkerboard(m, "det")


_TWELVE_OFF_SUPPORT = ("nonzero entries off the checkerboard support at "
                       "(1,3), (1,5), (2,2), (2,4), (3,1), (3,3), (3,5), (4,2) and 4 more")


@pytest.mark.parametrize("mode", ["det", "per"])
def test_support_violation_names_eight_cells_and_counts_the_rest(mode):
    m = exact([[1] * 5 for _ in range(5)])
    assert checkerboard_violations(m).sum() == 12
    with pytest.raises(ValueError) as e:
        factor_checkerboard(m, mode)
    assert str(e.value) == _TWELVE_OFF_SUPPORT


def test_checkerboard_engine_refuses_an_all_ones_file_in_one_line(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("5 0\n" + "1 1 1 1 1\n" * 5))
    code = cli.main(["det", "-", "--engine", "checkerboard"])
    assert (code, capsys.readouterr()) == (2, ("", f"error: {_TWELVE_OFF_SUPPORT}\n"))


@pytest.mark.parametrize("n", range(1, 10))
def test_checkerboard_matches_naive(n, rng):
    for _ in range(20):
        m = matgen.random_checkerboard_matrix(n, rng.randrange(10**9))
        assert factor_checkerboard(m, "det") == det_naive(m)
        assert factor_checkerboard(m, "per") == per_naive(m)


def test_checkerboard_modular_mode(rng):
    ctx = ModCtx(25)
    for _ in range(10):
        ex = matgen.random_checkerboard_matrix(7, rng.randrange(10**9))
        red = Matrix(ex.entries % 25, ctx)
        assert factor_checkerboard(red, "det") == det_naive(ex) % 25
        assert factor_checkerboard(red, "per") == per_naive(ex) % 25


def test_symmetric_odd_order_squares(rng):
    """Symmetric support: per(A) = a11 * per(B)^2, det(A) = (-1)^m * a11 * det(B)^2."""
    for n in (3, 5, 7):
        m = (n - 1) // 2
        a = matgen.random_checkerboard_matrix(n, rng.randrange(10**9), symmetric=True)
        a11 = a.entries[0][0]
        b = [[a.entries[i][j] for j in range(2, n, 2)] for i in range(1, n, 2)]
        bb = exact(b)
        assert per_naive(a) == a11 * per_naive(bb) ** 2
        assert det_naive(a) == (-1) ** m * a11 * det_naive(bb) ** 2


def test_symmetric_even_order_squares(rng):
    """Even symmetric support: per(A) = per(B)^2, det(A) = (-1)^m det(B)^2."""
    for n in (2, 4, 6, 8):
        m = n // 2
        a = matgen.random_checkerboard_matrix(n, rng.randrange(10**9), symmetric=True)
        b = [[a.entries[i][j] for j in range(0, n, 2)] for i in range(1, n, 2)]
        bb = exact(b)
        assert per_naive(a) == per_naive(bb) ** 2
        assert det_naive(a) == (-1) ** m * det_naive(bb) ** 2


def test_skew_even_order_det_is_square(rng):
    for mm in (1, 2, 3, 4):
        sk = matgen.random_skew_checkerboard_matrix(mm, rng.randrange(10**9))
        d = det_exact(sk)
        assert d >= 0
        assert is_perfect_square(d)


# ---------------------------------------------------------------------------
# perfect squares


def test_is_perfect_square_basics():
    assert is_perfect_square(0)
    assert is_perfect_square(49)
    assert not is_perfect_square(50)
    assert not is_perfect_square(-4)
    big = (3**41 + 7) ** 2
    assert is_perfect_square(big)
    assert not is_perfect_square(big + 1)


def test_prime_indicator_det_is_square():
    d = det_exact(prime_indicator_matrix(6))
    assert is_perfect_square(abs(d))


def test_per_ryser_modular_inverse_halving(rng):
    # the modular route halves exactly over Z before reducing mod 81; cross-check
    # against the exact naive sum
    ctx = ModCtx(81)
    for _ in range(10):
        m = make_matrix(5, rng, ctx=ctx)
        assert per_ryser(m) == per_naive(lift(m)) % 81
